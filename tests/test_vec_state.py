"""Property tests: the vectorized engine's state tables against plain
dict/list references.

:class:`repro.engine.vec_state.Table` keeps sorted keys, last-touch
positions, OR-combined payloads and a set id per entry, merged
incrementally.  Each test drives it (and the epoch helpers) with small,
collision-heavy inputs — few keys, few sets, repeated positions — and
compares every observable against a model written with dicts and
sorted lists.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import vec_state as vs

SETS = 4

keys_st = st.integers(0, 15)
pos_st = st.integers(0, 30)
val_st = st.integers(0, 7)
events_st = st.lists(st.tuples(keys_st, pos_st, val_st), max_size=12)


def set_of(keys):
    return keys % SETS


def arr(values):
    return np.asarray(values, np.int64)


class Model:
    """Reference: key -> [pos, val]."""

    def __init__(self, ways):
        self.ways = ways
        self.entries = {}

    def merge(self, events):
        before = set(self.entries)
        for key, pos, val in events:
            if key in self.entries:
                entry = self.entries[key]
                entry[0] = max(entry[0], pos)
                entry[1] |= val
            else:
                self.entries[key] = [pos, val]
        return [key not in before for key in sorted(self.entries)]

    def drop_keys(self, victims):
        present = set(victims) & set(self.entries)
        for key in present:
            del self.entries[key]
        return len(present)

    def capacity_evict(self):
        evicted = []
        by_set = {}
        for key in sorted(self.entries):
            by_set.setdefault(key % SETS, []).append(key)
        for members in by_set.values():
            # Newest first; ties keep table (= key) order.
            ranked = sorted(members, key=lambda k: -self.entries[k][0])
            evicted += ranked[self.ways:]
        evicted.sort()
        out = ([k for k in evicted], [self.entries[k][1] for k in evicted])
        for key in evicted:
            del self.entries[key]
        return out


def check(table, model):
    keys = sorted(model.entries)
    assert table.keys.tolist() == keys
    assert table.pos.tolist() == [model.entries[k][0] for k in keys]
    assert table.val.tolist() == [model.entries[k][1] for k in keys]
    assert table.sid.tolist() == [k % SETS for k in keys]


op_st = st.one_of(
    st.tuples(st.just("merge"), events_st),
    st.tuples(st.just("merge_no_val"), events_st),
    st.tuples(st.just("drop_keys"), st.lists(keys_st, max_size=8)),
    st.tuples(st.just("drop"), st.lists(st.booleans(), max_size=30)),
    st.tuples(st.just("evict"), st.none()),
    st.tuples(st.just("evict"), st.none()),
)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 4), st.lists(op_st, max_size=12))
@example(1, [("merge", [(0, 1, 0), (4, 2, 1)]), ("evict", None)])
def test_table_matches_model(ways, ops):
    table, model = vs.Table(set_of, ways), Model(ways)
    for op, arg in ops:
        if op in ("merge", "merge_no_val"):
            if op == "merge_no_val":
                arg = [(k, p, 0) for k, p, _ in arg]
            ks, ps, vs_ = (arr([e[i] for e in arg]) for i in range(3))
            new = table.merge(ks, ps, None if op == "merge_no_val" else vs_)
            assert new.tolist() == model.merge(arg)
        elif op == "drop_keys":
            assert table.drop_keys(arr(arg)) == model.drop_keys(arg)
        elif op == "drop":
            mask = np.zeros(table.keys.size, bool)
            mask[:len(arg)] = arg[:table.keys.size]
            victims = table.keys[mask].tolist()
            assert table.drop(mask) == model.drop_keys(victims)
        else:
            keys, vals = table.capacity_evict()
            assert (keys.tolist(), vals.tolist()) == model.capacity_evict()
        check(table, model)


@settings(deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 3), min_size=40,
                                   max_size=200))
def test_capacity_ties_keep_table_order(ways, positions):
    """Large over-full sets whose entries share positions: the kept
    entries are the newest ``ways`` per set, ties broken by key."""
    table, model = vs.Table(set_of, ways), Model(ways)
    events = [(k, p, k & 7) for k, p in enumerate(positions)]
    ks, ps, vs_ = (arr([e[i] for e in events]) for i in range(3))
    table.merge(ks, ps, vs_)
    model.merge(events)
    keys, vals = table.capacity_evict()
    assert (keys.tolist(), vals.tolist()) == model.capacity_evict()
    check(table, model)


@given(st.lists(keys_st, max_size=20), st.lists(keys_st, max_size=20))
def test_member_matches_set_lookup(table_keys, query):
    got = vs.member(arr(sorted(set(table_keys))), arr(query))
    assert got.tolist() == [q in set(table_keys) for q in query]


@given(st.lists(st.tuples(keys_st, pos_st, st.integers(0, 3)), max_size=25),
       st.booleans())
def test_has_prior_matches_pairwise_scan(events, grouped):
    keys, pos, group = (arr([e[i] for e in events]) for i in range(3))
    if not grouped:
        group = np.zeros(keys.size, np.int64)
    got = vs.has_prior(keys, pos, group)
    expected = [
        any(keys[j] == keys[i]
            and (not grouped or group[j] == group[i])
            and (pos[j], j) < (pos[i], i)
            for j in range(len(events)))
        for i in range(len(events))
    ]
    assert got.tolist() == expected


@given(st.lists(keys_st, max_size=8),
       st.lists(st.tuples(keys_st, pos_st), max_size=12),
       st.lists(st.lists(st.tuples(keys_st, pos_st), max_size=10),
                max_size=3))
def test_epoch_stream_matches_member_or_has_prior(table, store, batches):
    """Each probe batch (position-ordered, as the engine issues them)
    gets exactly :func:`member` of the epoch-start table or
    :func:`has_prior` over the concatenated stream, and the stream's
    events are the concatenation."""
    table = arr(sorted(set(table)))
    store = sorted(store, key=lambda e: e[1])
    keys, pos = arr([k for k, _ in store]), arr([p for _, p in store])
    stream = vs.EpochStream(table, keys, pos, arr([1] * len(store)))
    all_keys, all_pos = keys, pos
    for batch in batches:
        batch = sorted(batch, key=lambda e: e[1])
        qk, qp = arr([k for k, _ in batch]), arr([p for _, p in batch])
        all_keys = np.concatenate([all_keys, qk])
        all_pos = np.concatenate([all_pos, qp])
        prior = vs.has_prior(all_keys, all_pos, np.zeros_like(all_keys))
        expected = vs.member(table, qk) | prior[all_keys.size - qk.size:]
        assert stream.probe(qk, qp).tolist() == expected.tolist()
    ek, ep, ev = stream.events()
    assert ek.tolist() == all_keys.tolist()
    assert ep.tolist() == all_pos.tolist()
    assert ev.tolist() == [1] * len(store) + [0] * (ek.size - len(store))


@given(st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 59)),
                max_size=30))
def test_epoch_last_matches_per_epoch_scan(cut_list, events):
    cuts = arr(sorted(cut_list))
    events = [(u, p) for u, p in events if p < cuts[-1]]
    units, pos = arr([u for u, _ in events]), arr([p for _, p in events])
    table = vs.EpochLast(cuts, units, pos)
    start = 0
    for e, end in enumerate(cuts.tolist()):
        last = {}
        for u, p in events:
            if start <= p < end:
                last[u] = max(last.get(u, p), p)
        got_units, got_last = table.epoch(e)
        assert got_units.tolist() == sorted(last)
        assert got_last.tolist() == [last[u] for u in sorted(last)]
        start = end


@given(st.lists(st.integers(0, 400), max_size=20, unique=True),
       st.integers(1, 500), st.integers(1, 80), st.integers(1, 120))
def test_epoch_bounds_properties(kb, total, wave_gap, max_span):
    kb = arr(sorted(p for p in kb if p < total))
    cuts = vs.epoch_bounds(kb, total, wave_gap=wave_gap,
                           max_span=max_span).tolist()
    assert cuts[-1] == total
    assert cuts == sorted(set(cuts)) and cuts[0] > 0
    spans = np.diff([0] + cuts)
    assert spans.max() <= max_span
    # Each kernel-boundary wave (gaps <= wave_gap) ends an epoch.
    waves = [p for i, p in enumerate(kb.tolist())
             if i + 1 == kb.size or kb[i + 1] - p > wave_gap]
    assert {p + 1 for p in waves} <= set(cuts)
    # Every other cut only splits an over-long span.
    extra = set(cuts) - {p + 1 for p in waves} - {total}
    anchors = sorted({0} | {p + 1 for p in waves} | {total})
    for c in extra:
        base = max(a for a in anchors if a < c)
        assert (c - base) % max_span == 0
