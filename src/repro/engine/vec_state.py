"""Sorted-key state tables and epoch helpers for the vectorized engine.

The vectorized throughput engine (:mod:`repro.engine.vectorized`)
models every set-associative structure (L1 slices, L2 partitions,
directories) as one *global* table of sorted int64 keys::

    key = (unit << UNIT_SHIFT) | item

where ``unit`` is a flat structure index (GPM, L1 slice, or directory
partition) and ``item`` is a line or sector index.  Membership tests,
duplicate detection inside an epoch, state merges and capacity
evictions are then plain numpy sorts/searches instead of per-op dict
lookups.

No table update sorts the whole table: :meth:`Table.merge` sorts only
the epoch's events and folds them into the already-sorted table with
one ``searchsorted`` and one linear splice; each entry carries its set
id, computed once when the key is inserted; and
:meth:`Table.capacity_evict` sorts only the entries of sets that are
over capacity.

Within an epoch, order is approximated: a probe hits when its key was
resident at epoch start *or* some earlier event in the epoch made it
resident.  Capacity is enforced only at epoch boundaries (keep the
most recently touched ``ways`` entries per set).  These are the
documented-tolerance approximations of DESIGN §15; everything exact
lives in :mod:`repro.engine.vectorized` itself.
"""

from __future__ import annotations

import numpy as np

#: Bits reserved for the item (line/sector) index inside a table key.
UNIT_SHIFT = 40

#: Largest event position a table entry can carry.
_POS_MASK = (1 << UNIT_SHIFT) - 1

_EMPTY_I64 = np.empty(0, np.int64)
_EMPTY_BOOL = np.empty(0, bool)


def make_keys(units, items) -> np.ndarray:
    """Pack ``(unit, item)`` pairs into table keys."""
    return (np.asarray(units, np.int64) << UNIT_SHIFT) | np.asarray(
        items, np.int64
    )


def items_of(keys: np.ndarray) -> np.ndarray:
    """Item (line/sector) component of packed keys."""
    return keys & ((np.int64(1) << UNIT_SHIFT) - 1)


def units_of(keys: np.ndarray) -> np.ndarray:
    """Unit component of packed keys."""
    return keys >> UNIT_SHIFT


def locate(sorted_keys: np.ndarray, query: np.ndarray):
    """``(index, found)`` of each query key in ``sorted_keys``: where
    ``found``, ``sorted_keys[index]`` is the key (elsewhere ``index`` is
    merely in range)."""
    if sorted_keys.size == 0 or query.size == 0:
        return np.zeros(query.shape, np.int64), np.zeros(query.shape, bool)
    idx = np.searchsorted(sorted_keys, query)
    idx[idx >= sorted_keys.size] = sorted_keys.size - 1
    return idx, sorted_keys[idx] == query


def member(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Vectorized set membership: is each query key in ``sorted_keys``?"""
    return locate(sorted_keys, query)[1]


def has_prior(keys: np.ndarray, pos: np.ndarray,
              group: np.ndarray) -> np.ndarray:
    """For each event, True when an earlier event (by position, ties in
    stream order) of the same ``group`` has the same key: any earlier
    event leaves the key resident, so later probes of it hit regardless
    of the earlier outcome.  Grouping by epoch, one sort answers every
    epoch of a trace."""
    if keys.size == 0:
        return _EMPTY_BOOL.copy()
    order = np.lexsort((pos, keys, group))
    k, g = keys[order], group[order]
    dup = np.empty(k.size, bool)
    dup[0] = False
    dup[1:] = (k[1:] == k[:-1]) & (g[1:] == g[:-1])
    out = np.empty(k.size, bool)
    out[order] = dup
    return out


def _group_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    first = np.empty(sorted_values.size, bool)
    first[0] = True
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(first)


class Table:
    """One global ``ways``-associative structure state: sorted keys +
    last-touch positions + a per-entry payload (dirty flag for L2,
    sharer mask for dirs) + a per-entry set id.

    ``set_of`` maps keys to combined (unit, set) ids; it runs once per
    inserted key, and the ``sid`` column then travels with its entry
    through every merge and drop.
    """

    __slots__ = ("keys", "pos", "val", "sid", "set_of", "ways")

    def __init__(self, set_of, ways: int):
        self.keys = _EMPTY_I64.copy()
        self.pos = _EMPTY_I64.copy()
        self.val = _EMPTY_I64.copy()
        self.sid = _EMPTY_I64.copy()
        self.set_of = set_of
        self.ways = ways

    def merge(self, ev_keys, ev_pos, ev_val=None):
        """Fold epoch events into the table.

        The events alone are sorted and deduplicated (the last event
        wins ``pos``; int64 payloads are OR-combined per key, matching
        dirty-flag and sharer-mask semantics), then folded into the
        sorted table with one ``searchsorted`` and one scatter: existing
        entries take ``pos = max`` and ``val |=``, new keys are spliced
        in.  Returns a mask over the merged entries marking keys that
        were newly inserted (absent at epoch start).
        """
        n_old = self.keys.size
        if ev_keys.size == 0:
            return np.zeros(n_old, bool)
        # Both reductions are order-free, so any sort will do.
        order = np.argsort(ev_keys)
        k = ev_keys[order]
        starts = _group_starts(k)
        uk = k[starts]
        upos = np.maximum.reduceat(ev_pos[order], starts)
        if ev_val is None:
            uval = np.zeros(uk.size, np.int64)
        else:
            uval = np.bitwise_or.reduceat(ev_val[order], starts)

        idx = np.searchsorted(self.keys, uk)
        found = np.zeros(uk.size, bool)
        inside = idx < n_old
        found[inside] = self.keys[idx[inside]] == uk[inside]
        if found.any():
            at = idx[found]
            self.pos[at] = np.maximum(self.pos[at], upos[found])
            self.val[at] |= uval[found]
        new = ~found
        m = int(np.count_nonzero(new))
        inserted = np.zeros(n_old + m, bool)
        if m == 0:
            return inserted
        at = idx[new] + np.arange(m)
        inserted[at] = True
        kept = np.flatnonzero(~inserted)
        nk = uk[new]
        columns = []
        for old, add in ((self.keys, nk), (self.pos, upos[new]),
                         (self.val, uval[new]), (self.sid, self.set_of(nk))):
            out = np.empty(n_old + m, np.int64)
            out[kept] = old
            out[at] = add
            columns.append(out)
        self.keys, self.pos, self.val, self.sid = columns
        return inserted

    def drop(self, mask):
        """Remove entries where ``mask`` is True; returns dropped count."""
        n = int(np.count_nonzero(mask))
        if n:
            keep = ~mask
            self.keys = self.keys[keep]
            self.pos = self.pos[keep]
            self.val = self.val[keep]
            self.sid = self.sid[keep]
        return n

    def drop_keys(self, victim_keys) -> int:
        """Remove specific keys (if present); returns how many existed."""
        idx, found = locate(self.keys, victim_keys)
        mask = np.zeros(self.keys.size, bool)
        mask[idx[found]] = True
        return self.drop(mask)

    def capacity_evict(self):
        """Enforce per-set capacity, keeping the ``ways`` most recently
        touched entries of each set.  Only entries of over-capacity
        sets are sorted, by (set, newest first) with ties in table
        order.  Returns ``(keys, val)`` of the evicted entries.
        """
        ways = self.ways
        if self.keys.size <= ways:
            return _EMPTY_I64, _EMPTY_I64
        counts = np.bincount(self.sid)
        if int(counts.max()) <= ways:
            return _EMPTY_I64, _EMPTY_I64
        cand = np.flatnonzero(counts[self.sid] > ways)
        # One packed (set, newest first) key; the stable sort keeps ties
        # in table order.
        packed = (self.sid[cand] << UNIT_SHIFT) | (_POS_MASK - self.pos[cand])
        order = cand[np.argsort(packed, kind="stable")]
        # Rank of each entry within its set, newest first.
        starts = _group_starts(self.sid[order])
        start_of_group = np.zeros(order.size, np.int64)
        start_of_group[starts] = starts
        rank = np.arange(order.size) - np.maximum.accumulate(start_of_group)
        evict = np.zeros(self.keys.size, bool)
        evict[order[rank >= ways]] = True
        keys, val = self.keys[evict], self.val[evict]
        self.drop(evict)
        return keys, val


class EpochStream:
    """One epoch's event stream over a table's epoch-start keys, built
    batch by batch: the epoch's store-path events first, then each
    probe batch in turn.

    :meth:`probe` answers :func:`member` of the epoch-start table or
    :func:`has_prior` for a new batch against the whole stream so far
    plus the batch itself, with one sort of the batch and without
    re-sorting the stream: every batch arrives in position order, so an
    earlier batch precedes a query exactly when its first event of the
    same key is at or before the query's position, and a same-batch
    event precedes it exactly when it comes first in the batch.
    """

    __slots__ = ("table", "parts", "firsts")

    def __init__(self, table_keys, keys, pos, val):
        self.table = table_keys
        self.parts = [(keys, pos, val)]
        order, starts = self._sort(keys)
        first = order[starts]
        self.firsts = [(keys[first], pos[first])]

    @staticmethod
    def _sort(keys):
        """Stable key order of a batch and the start of each key's run
        in it (so ``order[starts]`` is each key's first event)."""
        order = keys.argsort(kind="stable")
        if keys.size == 0:
            return order, _EMPTY_I64
        return order, _group_starts(keys[order])

    def probe(self, keys, pos):
        """Per query of a position-ordered batch: was its key in the
        table at epoch start, or touched by an earlier event of the
        stream or of this batch?  Appends the batch (with zero
        payloads) to the stream."""
        order, starts = self._sort(keys)
        k, p = keys[order], pos[order]
        hit = np.ones(k.size, bool)
        hit[starts] = False
        hit |= member(self.table, k)
        for fk, fp in self.firsts:
            if fk.size:
                at, found = locate(fk, k)
                hit |= found & (fp[at] <= p)
        self.parts.append((keys, pos, np.zeros(keys.size, np.int64)))
        self.firsts.append((k[starts], p[starts]))
        out = np.empty(k.size, bool)
        out[order] = hit
        return out

    def events(self):
        """``(keys, pos, val)`` of the whole stream."""
        return tuple(np.concatenate(col) for col in zip(*self.parts))


def epoch_bounds(kb_positions: np.ndarray, total_ops: int,
                 wave_gap: int = 64, max_span: int = 4096):
    """Epoch segmentation: cut after each kernel-boundary *wave* (runs
    of boundary ops less than ``wave_gap`` apart), then subdivide any
    remaining span longer than ``max_span`` ops.  Returns a sorted
    int64 array of cut positions, ending with ``total_ops``."""
    cuts = []
    if kb_positions.size:
        gaps = np.flatnonzero(np.diff(kb_positions) > wave_gap)
        wave_ends = np.concatenate([kb_positions[gaps],
                                    kb_positions[-1:]])
        cuts.extend(int(p) + 1 for p in wave_ends)
    cuts.append(total_ops)
    bounds = sorted(set(c for c in cuts if 0 < c <= total_ops))
    out = []
    prev = 0
    for b in bounds:
        while b - prev > max_span:
            prev += max_span
            out.append(prev)
        out.append(b)
        prev = b
    return np.asarray(out, np.int64)


class EpochLast:
    """Latest position per (epoch, unit) of one event stream, built with
    a single sort over the whole trace.  :meth:`epoch` returns the
    epoch's sorted unique units and each one's last event position (an
    empty pair when the epoch has no events)."""

    __slots__ = ("units", "last", "off")

    def __init__(self, cuts: np.ndarray, units: np.ndarray,
                 pos: np.ndarray):
        ep = np.searchsorted(cuts, pos, side="right")
        order = np.lexsort((units, ep))
        e, u = ep[order], units[order]
        if u.size:
            first = np.empty(u.size, bool)
            first[0] = True
            first[1:] = (u[1:] != u[:-1]) | (e[1:] != e[:-1])
            starts = np.flatnonzero(first)
            self.units = u[starts]
            self.last = np.maximum.reduceat(pos[order], starts)
            e = e[starts]
        else:
            self.units = self.last = _EMPTY_I64
        self.off = np.searchsorted(e, np.arange(cuts.size + 1))

    def epoch(self, i: int):
        lo, hi = self.off[i], self.off[i + 1]
        return self.units[lo:hi], self.last[lo:hi]
