"""Content-addressed results store: durability and replay contracts."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.experiments import store as store_mod
from repro.experiments.runner import ExperimentContext
from repro.experiments.store import ResultStore
from repro.faults.chaos import truncate_tail

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)


def _simulate_one():
    ctx = ExperimentContext(CFG, **QUICK)
    return ctx.run("CoMD", "hmg")


def _key(seed=1, ops_scale=0.05, protocol="hmg", trace_cfg=CFG):
    ctx = ExperimentContext(trace_cfg, seed=seed, ops_scale=ops_scale)
    return ctx.cell("CoMD", protocol, CFG).store_key


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """The fingerprinted source parts copied under ``tmp_path``, standing
    in for the running package while the test runs."""
    root = tmp_path / "repro"
    for part in store_mod.SOURCE_PARTS:
        source = store_mod._PACKAGE / part
        if source.is_dir():
            shutil.copytree(source, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            root.mkdir(exist_ok=True)
            shutil.copy(source, root / part)
    monkeypatch.setattr(store_mod, "_PACKAGE", root)
    store_mod._running_source.cache_clear()
    yield root
    store_mod._running_source.cache_clear()


class TestStoreKey:
    def test_discriminates_every_input(self):
        base = _key()
        assert base == _key()
        assert base != _key(seed=2)
        assert base != _key(ops_scale=0.1)
        assert base != _key(protocol="sw")
        assert base != _key(trace_cfg=CFG.replace(
            l2_bytes_per_gpu=4 * CFG.l2_bytes_per_gpu))

    def test_engine_keys_apart(self, tmp_path):
        """A result stored for a cell's vectorized request never
        replays for its scalar request."""
        import dataclasses

        from repro.engine.simulator import simulate

        ctx = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        scalar = ctx.cell("CoMD", "hmg")
        vectorized = dataclasses.replace(scalar, engine="vectorized")
        assert vectorized.store_key != scalar.store_key
        ctx.store.put(vectorized.store_key, simulate(
            ctx.trace("CoMD"), CFG, protocol="hmg", engine="vectorized",
            workload_name="CoMD"))
        result = ctx.run("CoMD", "hmg")
        assert ctx.store.hits == 0
        assert result.engine_used == "throughput"
        assert ctx.store.get(vectorized.store_key).engine_used == \
            "vectorized"

    def test_source_edit_changes_key(self, package_copy):
        """The key names the simulator's source: a copy of the package
        keys like the package itself, and editing one byte of one
        fingerprinted file changes every key."""
        package = Path(store_mod.__file__).resolve().parents[1]
        assert store_mod.source_fingerprint(package_copy) == \
            store_mod.source_fingerprint(package)
        before = _key()
        engine = package_copy / "engine" / "throughput.py"
        engine.write_bytes(engine.read_bytes().replace(b"\n", b" \n", 1))
        store_mod._running_source.cache_clear()
        assert _key() != before


class TestRoundTrip:
    def test_put_get_across_reopen(self, tmp_path):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result, workload="CoMD", protocol="hmg")
        with ResultStore(tmp_path / "s") as store:
            replayed = store.get(_key())
        assert replayed is not None
        assert replayed.cycles == result.cycles
        assert replayed.ops == result.ops

    def test_wall_seconds_stripped(self, tmp_path):
        result = _simulate_one()
        assert result.wall_seconds > 0
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            assert store.get(_key()).wall_seconds == 0.0
        # The original result is untouched (put copies).
        assert result.wall_seconds > 0

    def test_miss_counts(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None
            assert store.stats() == {"hits": 0, "misses": 1, "puts": 0,
                                     "corrupt_records": 0}

    def test_last_writer_wins(self, tmp_path):
        result = _simulate_one()
        import copy

        newer = copy.copy(result)
        newer.cycles = result.cycles + 1
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            store.put(_key(), newer)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()).cycles == newer.cycles


class TestCorruption:
    def _shard(self, root):
        shards = list(root.glob("shard-*.jsonl"))
        assert len(shards) == 1
        return shards[0]

    def test_torn_record_warns_and_misses(self, tmp_path, capsys):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
        truncate_tail(self._shard(tmp_path / "s"), nbytes=7)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None  # corrupt => recompute
            assert store.corrupt_records == 1
        assert "corrupt record" in capsys.readouterr().err

    def test_recompute_after_truncation_survives_reopen(self, tmp_path):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
        truncate_tail(self._shard(tmp_path / "s"), nbytes=7)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None
            store.put(_key(), result)  # the recompute
        # The healed append must land on its own line: a reopen reads
        # the fresh record even though the torn bytes precede it.
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()).cycles == result.cycles

    def test_flipped_bit_invalidates_one_record(self, tmp_path):
        result = _simulate_one()
        other = _key(protocol="sw")
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            store.put(other, result)
        # Corrupt _key()'s record blob without tearing its line.
        for shard in (tmp_path / "s").glob("shard-*.jsonl"):
            lines = shard.read_bytes().splitlines(keepends=True)
            for i, line in enumerate(lines):
                if _key().encode() not in line:
                    continue
                blob_at = line.find(b'"blob": "') + 12
                lines[i] = (line[:blob_at]
                            + bytes([line[blob_at] ^ 0x01])
                            + line[blob_at + 1:])
                shard.write_bytes(b"".join(lines))
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None  # CRC caught the flip
            assert store.get(other) is not None  # blast radius: 1 record
            assert store.corrupt_records == 1


class TestContextIntegration:
    GRID = [("CoMD", p) for p in ("noremote", "sw", "hmg")]

    def test_cold_then_warm_run(self, tmp_path):
        cold = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        cold_results = cold.run_many(self.GRID)
        assert cold.store.puts == len(self.GRID)
        cold.store.close()

        warm = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        warm_results = warm.run_many(self.GRID)
        stats = warm.store.stats()
        hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
        assert hit_rate >= 0.9
        assert warm._executor.cells_run == 0  # zero re-simulation
        assert [r.cycles for r in warm_results] == [
            r.cycles for r in cold_results
        ]

    def test_warm_run_writes_identical_manifests(self, tmp_path,
                                                 manifests):
        written = {}
        for label in ("cold", "warm"):
            ctx = ExperimentContext(CFG, store=tmp_path / "s",
                                    telemetry_dir=tmp_path / label,
                                    **QUICK)
            ctx.run_many(self.GRID)
            ctx.store.close()
            written[label] = manifests(ctx, tmp_path / label)
        assert len(written["cold"][0]) == len(self.GRID)
        assert written["cold"] == written["warm"]

    def test_partial_replay_completes_in_request_order(self, tmp_path,
                                                       manifests):
        """A batch that mixes store replays with simulated cells
        completes them in request order, serially and under --jobs."""
        first = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        first.run("CoMD", "hmg")
        first.store.close()
        written = {}
        for jobs in (1, 2):
            shutil.copytree(tmp_path / "s", tmp_path / f"s{jobs}")
            ctx = ExperimentContext(CFG, store=tmp_path / f"s{jobs}",
                                    telemetry_dir=tmp_path / f"t{jobs}",
                                    jobs=jobs, **QUICK)
            ctx.run_many(self.GRID[::-1])  # the stored hmg cell first
            ctx.close()
            ctx.store.close()
            written[jobs] = manifests(ctx, tmp_path / f"t{jobs}")
        assert written[1] == written[2]
        assert [slug.split("-")[1] for slug in written[1][0]] == [
            "hmg", "sw", "noremote"]

    def test_store_respects_seed(self, tmp_path):
        seeded = ExperimentContext(CFG, store=tmp_path / "s", seed=1,
                                   ops_scale=0.05)
        seeded.run("CoMD", "hmg")
        seeded.store.close()
        reseeded = ExperimentContext(CFG, store=tmp_path / "s", seed=2,
                                     ops_scale=0.05)
        reseeded.run("CoMD", "hmg")
        assert reseeded.store.hits == 0  # different seed, full miss

    def test_trace_geometry_is_part_of_the_key(self, tmp_path):
        """A context whose traces come from a 4x L2 must not replay a
        result simulated on the default traces, on the same run
        config."""
        default = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        default.run("CoMD", "hmg")
        big = CFG.replace(l2_bytes_per_gpu=4 * CFG.l2_bytes_per_gpu)
        shared = ExperimentContext(big, store=tmp_path / "s", **QUICK)
        result = shared.run("CoMD", "hmg", cfg=CFG)
        assert shared.store.hits == 0
        direct = ExperimentContext(big, **QUICK).run("CoMD", "hmg", cfg=CFG)
        assert result.ops == direct.ops == len(shared.trace("CoMD"))

    def test_sub_experiments_replay_from_store(self, tmp_path, capsys,
                                               monkeypatch):
        """A second singlegpu/scaleout/mca run replays every cell."""
        from repro.experiments import cli, runner

        args = ["singlegpu", "scaleout", "mca", "--scale", str(1 / 64),
                "--ops-scale", "0.05", "--workloads", "CoMD",
                "--store", str(tmp_path / "s"), "--no-registry"]

        def figures(out):
            return [line for line in out.splitlines()
                    if not line.startswith("[")]

        assert cli.main(args) == 0
        cold = capsys.readouterr()
        calls = []
        real = runner.simulate
        monkeypatch.setattr(runner, "simulate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert cli.main(args) == 0
        warm = capsys.readouterr()
        assert calls == []
        assert figures(warm.out) == figures(cold.out)
        assert ", 0 newly stored" in warm.err
        replayed = int(warm.err.split("results store: ")[1].split()[0])
        stored = int(cold.err.split(" replayed, ")[1].split()[0])
        assert replayed == stored > 0


class TestRecordFormat:
    def test_blob_is_compressed(self, tmp_path):
        import base64
        import json
        import pickle
        import zlib

        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
        (line,) = (tmp_path / "s").glob("shard-*.jsonl")
        record = json.loads(line.read_text())
        assert record["v"] == store_mod.SCHEMA == 3
        replayed = pickle.loads(zlib.decompress(
            base64.b64decode(record["blob"])))
        assert replayed.cycles == result.cycles

    def test_v1_record_warns_and_recomputes(self, tmp_path, capsys):
        """A record in the old shape (version 1, uncompressed pickle)
        fails the schema check: a miss, counted and warned about."""
        import base64
        import pickle

        from repro.applog import AppendLog

        result = _simulate_one()
        root = tmp_path / "s"
        ResultStore(root)  # creates the directory
        AppendLog(root / f"shard-{_key()[0]}.jsonl").append({
            "v": 1, "key": _key(), "workload": "CoMD", "protocol": "hmg",
            "blob": base64.b64encode(pickle.dumps(result)).decode()})
        with ResultStore(root) as store:
            assert store.get(_key()) is None
            assert store.corrupt_records == 1
        assert "corrupt record" in capsys.readouterr().err

    def test_v2_record_warns_and_recomputes(self, tmp_path, capsys):
        """A schema-2 record (compressed, keyed without the engine) is
        a miss too: the engine's addition recomputes every cell once."""
        import base64
        import pickle
        import zlib

        from repro.applog import AppendLog

        result = _simulate_one()
        root = tmp_path / "s"
        ResultStore(root)
        AppendLog(root / f"shard-{_key()[0]}.jsonl").append({
            "v": 2, "key": _key(), "workload": "CoMD", "protocol": "hmg",
            "blob": base64.b64encode(zlib.compress(
                pickle.dumps(result))).decode()})
        with ResultStore(root) as store:
            assert store.get(_key()) is None
            assert store.corrupt_records == 1
        assert "corrupt record" in capsys.readouterr().err
