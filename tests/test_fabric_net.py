"""Fabric-net: frames, leases, host chaos, fleet liveness, recovery.

Unit coverage for the wire format and the deterministic lease/chaos
math, plus one real coordinator + subprocess-worker sweep that loses a
worker to SIGKILL and absorbs a duplicated result frame while staying
byte-identical to the serial reference.
"""

from __future__ import annotations

import hmac
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.applog import encode
from repro.config import SystemConfig
from repro.experiments.fabric_net import (
    _WELCOME,
    FrameBuffer,
    FrameError,
    NetFabricCoordinator,
    NetFabricStats,
    _Lease,
    _NetTask,
    _recv_exact,
    build_worker_parser,
    check_listen_security,
    encode_frame,
    lease_ttl_for,
    parse_address,
)
from repro.experiments.runner import ExperimentContext
from repro.faults.chaos import (
    HOST_ATTACKS,
    HostChaosPlan,
    HostChaosSpec,
    OneShotHostChaos,
    host_chaos_from_json,
)
from repro.telemetry.session import REGISTRY_SCHEMA, RunRegistry

REPO = Path(__file__).resolve().parent.parent
CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)
WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "hmg"]


class TestFrames:
    def test_round_trip_in_ragged_chunks(self):
        messages = [("hello", "w1"), ("heartbeat", 7),
                    ("result", 3, 0, {"cycles": 123})]
        stream = b"".join(encode_frame(m) for m in messages)
        buf = FrameBuffer()
        decoded = []
        for i in range(0, len(stream), 3):  # worst-case fragmentation
            buf.feed(stream[i:i + 3])
            decoded.extend(buf)
        assert decoded == messages

    def test_crc_mismatch_poisons_connection(self):
        frame = bytearray(encode_frame(("hello", "w1")))
        frame[-1] ^= 0xFF  # flip a payload bit
        buf = FrameBuffer()
        buf.feed(bytes(frame))
        with pytest.raises(FrameError):
            list(buf)

    def test_bad_magic_rejected(self):
        frame = b"XXXX" + encode_frame(("hello",))[4:]
        buf = FrameBuffer()
        buf.feed(frame)
        with pytest.raises(FrameError):
            list(buf)

    def test_absurd_length_rejected_before_buffering(self):
        header = struct.pack("!4sII", b"RFN1", 2 ** 31, 0)
        buf = FrameBuffer()
        buf.feed(header)
        with pytest.raises(FrameError):
            list(buf)


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("example.org:9100") == ("example.org", 9100)

    def test_bare_port_binds_localhost(self):
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address("4242") == ("127.0.0.1", 4242)


class TestLeaseTtl:
    def test_deterministic_and_bounded(self):
        ttl = lease_ttl_for(1, "abcd", 1, 10.0)
        assert ttl == lease_ttl_for(1, "abcd", 1, 10.0)
        assert 10.0 <= ttl <= 15.0
        assert lease_ttl_for(1, "abcd", 2, 10.0) != ttl
        assert lease_ttl_for(2, "abcd", 1, 10.0) != ttl
        assert lease_ttl_for(1, "abcd", 1, 10.0, cells=3) == ttl * 3


def _pump(coord, rounds=40, timeout=0.05, on_result=None):
    """Drive the coordinator's selector by hand (what _loop does per
    tick), so tests can interleave raw client sockets with it."""
    for _ in range(rounds):
        for key, _events in coord._selector.select(timeout=timeout):
            what, worker = key.data
            if what == "accept":
                coord._accept()
            else:
                coord._read_worker(worker, on_result)


def _greeted_client(coord, name="w1"):
    """A raw client socket that has completed hello (no authkey)."""
    client = socket.create_connection(coord.address, timeout=5)
    client.settimeout(5)
    _pump(coord, rounds=2)
    client.sendall(encode_frame(("hello", name)))
    deadline = time.monotonic() + 5
    while name not in coord._workers:
        assert time.monotonic() < deadline, "hello never landed"
        _pump(coord, rounds=2)
    return client


class TestAuthHandshake:
    def test_correct_key_admits_worker(self):
        with NetFabricCoordinator(("127.0.0.1", 0),
                                  authkey=b"sesame") as coord:
            client = socket.create_connection(coord.address, timeout=5)
            client.settimeout(5)
            _pump(coord, rounds=2)
            challenge = _recv_exact(client, 36)
            assert challenge is not None
            assert challenge.startswith(b"RFNA")
            client.sendall(
                hmac.new(b"sesame", challenge, "sha256").digest())
            _pump(coord, rounds=2)
            assert _recv_exact(client, len(_WELCOME)) == _WELCOME
            client.sendall(encode_frame(("hello", "w1")))
            deadline = time.monotonic() + 5
            while "w1" not in coord._workers:
                assert time.monotonic() < deadline
                _pump(coord, rounds=2)
            assert coord._workers["w1"].greeted
            assert coord.stats.auth_rejected == 0
            client.close()

    def test_wrong_key_is_dropped_before_any_pickle(self):
        with NetFabricCoordinator(("127.0.0.1", 0),
                                  authkey=b"sesame") as coord:
            client = socket.create_connection(coord.address, timeout=5)
            client.settimeout(5)
            _pump(coord, rounds=2)
            challenge = _recv_exact(client, 36)
            client.sendall(
                hmac.new(b"wrong", challenge, "sha256").digest())
            deadline = time.monotonic() + 5
            while not coord.stats.auth_rejected:
                assert time.monotonic() < deadline
                _pump(coord, rounds=2)
            assert coord.stats.auth_rejected == 1
            # The connection is gone; nothing we sent was ever parsed
            # as a frame.
            assert not coord._workers
            try:
                assert client.recv(64) == b""
            except OSError:
                pass  # a reset is an equally firm goodbye
            client.close()

    def test_non_loopback_listen_requires_key_or_opt_in(self):
        with pytest.raises(ValueError):
            check_listen_security("0.0.0.0:9100", None, False)
        with pytest.raises(ValueError):
            NetFabricCoordinator(("0.0.0.0", 0))
        # Either guard satisfies it.
        check_listen_security("0.0.0.0:9100", "key", False)
        check_listen_security("0.0.0.0:9100", None, True)
        # Loopback binds stay frictionless.
        check_listen_security("127.0.0.1:0", None, False)
        check_listen_security(":0", None, False)


class TestBatchIsolation:
    def test_stale_frames_bounce_off_fingerprint_check(self):
        done = []
        with NetFabricCoordinator(("127.0.0.1", 0)) as coord:
            client = _greeted_client(coord)
            coord._tasks = [_NetTask(index=0, payload=None,
                                     fingerprint="fp-new")]
            coord._pending = deque()
            on_result = lambda index, result: done.append(result)  # noqa: E731

            # A frame left over from a previous batch: same index,
            # different cell.  It must not touch the new batch.
            client.sendall(encode_frame(("result", 7, 0, "fp-old",
                                         {"cycles": 1})))
            # An out-of-range index from a shrunken batch.
            client.sendall(encode_frame(("result", 7, 5, "fp-old",
                                         {"cycles": 2})))
            # A stale error frame: discarded before its blob is even
            # unpickled.
            client.sendall(encode_frame(("error", 7, 0, "fp-old",
                                         b"garbage-not-pickle")))
            deadline = time.monotonic() + 5
            while coord.stats.stale_frames < 3:
                assert time.monotonic() < deadline, \
                    f"stale frames not rejected: {coord.stats.as_dict()}"
                _pump(coord, rounds=2, on_result=on_result)
            assert not coord._tasks[0].completed
            assert not done

            # The genuine frame for the current batch still lands.
            client.sendall(encode_frame(("result", 7, 0, "fp-new",
                                         {"cycles": 3})))
            deadline = time.monotonic() + 5
            while not coord._tasks[0].completed:
                assert time.monotonic() < deadline
                _pump(coord, rounds=2, on_result=on_result)
            assert coord._tasks[0].result == {"cycles": 3}
            assert done == [{"cycles": 3}]
            assert coord.stats.stale_frames == 3
            client.close()

    def test_run_discards_leases_from_an_aborted_batch(self):
        with NetFabricCoordinator(("127.0.0.1", 0)) as coord:
            client = _greeted_client(coord)
            worker = coord._workers["w1"]
            # Fabricate an aborted batch's leftovers: a lease whose
            # index set points into a task list that no longer exists.
            coord._tasks = [_NetTask(index=0, payload=None,
                                     fingerprint="fp-aborted")]
            coord._leases[1] = _Lease(
                id=1, worker="w1", remaining={0},
                deadline=time.monotonic() + 300, attempt=1,
            )
            worker.lease = 1

            assert coord.run([]) == []

            assert coord._leases == {}
            assert worker.lease is None
            # Discarding is not a retry: the stale lease must not
            # consume attempts or count as a reclaim.
            assert coord.stats.reclaims == 0
            assert coord.stats.retries == 0
            assert coord.stats.failed == 0
            client.close()

    def test_bye_and_eof_counted_separately(self):
        with NetFabricCoordinator(("127.0.0.1", 0)) as coord:
            client = _greeted_client(coord)
            client.sendall(encode_frame(("bye",)))
            deadline = time.monotonic() + 5
            while not coord.stats.worker_byes:
                assert time.monotonic() < deadline
                _pump(coord, rounds=2)
            assert coord.stats.worker_byes == 1
            assert coord.stats.worker_eofs == 0
            client.close()


class TestHostChaos:
    def test_spec_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            HostChaosSpec(kill_fraction=0.6, blackhole_fraction=0.6)
        with pytest.raises(ValueError):
            HostChaosSpec(blackhole_seconds=0.0)

    def test_plan_is_pure_and_partitioned(self):
        spec = HostChaosSpec(kill_fraction=0.2, freeze_fraction=0.2,
                             sever_fraction=0.2, blackhole_fraction=0.2,
                             dup_fraction=0.2)
        a = HostChaosPlan(spec, seed=5)
        b = HostChaosPlan(spec, seed=5)
        decisions = [a.decide(f"cell{i}", 1) for i in range(100)]
        assert decisions == [b.decide(f"cell{i}", 1) for i in range(100)]
        kinds = set().union(*decisions)
        assert kinds == set(HOST_ATTACKS)  # every attack reachable
        # Retries are clean: attacks_per_cell defaults to 1.
        assert all(a.decide(f"cell{i}", 2) == frozenset()
                   for i in range(100))

    def test_one_shot_fires_exactly_once(self):
        chaos = OneShotHostChaos(["kill", "dup"])
        assert chaos.decide("first", 1) == frozenset({"kill", "dup"})
        assert chaos.decide("second", 1) == frozenset()
        assert chaos.decide("first", 2) == frozenset()

    def test_one_shot_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            OneShotHostChaos(["kill", "meteor"])

    def test_from_json(self):
        plan = host_chaos_from_json(
            '{"kill_fraction": 1.0, "blackhole_seconds": 2.5}', seed=3
        )
        assert plan.decide("x", 1) == frozenset({"kill"})
        assert plan.blackhole_seconds == 2.5
        with pytest.raises(ValueError):
            host_chaos_from_json("[1, 2]")


class TestStats:
    def test_merge_sums_counters(self):
        a = NetFabricStats(cells=4, completed=4, reclaims=1,
                           reclaims_eof=1, worker_connects=2)
        b = NetFabricStats(cells=2, completed=2, duplicate_results=1,
                           worker_connects=1)
        a.merge(b)
        assert a.cells == 6
        assert a.completed == 6
        assert a.reclaims == 1
        assert a.duplicate_results == 1
        assert a.worker_connects == 3
        assert a.as_dict()["reclaims_eof"] == 1


class TestStatsSnapshot:
    def test_exposes_counters_plus_fleet_size(self):
        with NetFabricCoordinator(("127.0.0.1", 0)) as coord:
            client = _greeted_client(coord)
            snapshot = coord.stats_snapshot()
            assert snapshot["workers_connected"] == 1
            assert snapshot["leases_outstanding"] == 0
            assert snapshot["worker_connects"] == 1
            # Every NetFabricStats counter rides along, by name.
            assert set(coord.stats.as_dict()) <= set(snapshot)
            # A snapshot is a copy: mutating it cannot touch the stats.
            snapshot["reclaims"] = 999
            assert coord.stats.reclaims == 0
            client.close()

    def test_fleet_snapshot_carries_stats(self):
        with NetFabricCoordinator(("127.0.0.1", 0)) as coord:
            fleet = coord.fleet_snapshot()
            assert fleet["stats"] == coord.stats_snapshot()

    def test_snapshot_flows_to_registry(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        fleet_dir = tmp_path / "sweep"
        fleet_dir.mkdir()
        with NetFabricCoordinator(("127.0.0.1", 0), registry=registry,
                                  fleet_dir=fleet_dir) as coord:
            coord.stats.reclaims = 2
            coord._publish_fleet(status="running", force=True)
        stats = registry.fleets()[0]["info"]["stats"]
        assert stats["reclaims"] == 2
        assert stats["workers_connected"] == 0


class TestWorkerCli:
    def test_parser_round_trip(self):
        args = build_worker_parser().parse_args(
            ["--connect", ":9100", "--chaos-once", "kill,dup",
             "--blackhole-seconds", "3.5", "--name", "w1",
             "--authkey", "sesame"]
        )
        assert parse_address(args.connect) == ("127.0.0.1", 9100)
        assert args.chaos_once == "kill,dup"
        assert args.blackhole_seconds == 3.5
        assert args.name == "w1"
        assert args.authkey == "sesame"


class TestRegistryFleet:
    def test_register_and_last_writer_wins(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        fleet_dir = tmp_path / "sweep"
        fleet_dir.mkdir()
        registry.register_fleet(
            fleet_dir, coordinator={"addr": "127.0.0.1:9}"},
            workers=[{"name": "w1", "state": "leased"}],
            leases={"outstanding": 1},
        )
        registry.register_fleet(fleet_dir, status="completed",
                                workers=[], leases={"outstanding": 0})
        fleets = registry.fleets()
        assert len(fleets) == 1
        assert fleets[0]["info"]["status"] == "completed"
        assert fleets[0]["info"]["leases"] == {"outstanding": 0}

    def test_observatory_fleet_payload(self, tmp_path):
        from repro.telemetry.serve import Observatory

        registry = RunRegistry(tmp_path / "reg")
        fleet_dir = tmp_path / "sweep"
        fleet_dir.mkdir()
        registry.register_fleet(
            fleet_dir, coordinator={"addr": "127.0.0.1:9100", "pid": 42},
            workers=[{"name": "w1", "state": "idle", "cells_done": 3}],
            leases={"outstanding": 0, "completed": 8},
        )
        payload = Observatory(registry_dir=tmp_path / "reg").fleet_payload()
        assert len(payload["fleets"]) == 1
        fleet = payload["fleets"][0]
        assert fleet["coordinator"]["addr"] == "127.0.0.1:9100"
        assert fleet["workers"][0]["name"] == "w1"
        assert fleet["leases"]["completed"] == 8


def _crafted_record(directory, kind="run", registered="2000-01-01T00:00:00"):
    """A registry line with a forged timestamp (prune retention tests)."""
    return encode({"v": REGISTRY_SCHEMA, "kind": kind,
                   "dir": str(Path(directory).resolve()),
                   "registered": registered, "pid": 1, "info": {}})


class TestRegistryPrune:
    def test_compacts_superseded_records(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for status in ("running", "running", "completed"):
            registry.register_run(run_dir, status=status)
        before = registry.path.read_bytes()
        stats = registry.prune(dry_run=True)
        assert stats["records_before"] == 3
        assert stats["kept"] == 1
        assert stats["superseded"] == 2
        assert registry.path.read_bytes() == before  # dry run wrote nothing

        stats = registry.prune()
        assert stats["kept"] == 1
        assert stats["bytes_after"] < stats["bytes_before"]
        entries = registry.entries()
        assert len(entries) == 1
        assert entries[0]["info"]["status"] == "completed"

    def test_drop_missing_directories(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        gone = tmp_path / "gone"
        gone.mkdir()
        kept_dir = tmp_path / "kept"
        kept_dir.mkdir()
        registry.register_run(gone, status="completed")
        registry.register_run(kept_dir, status="completed")
        gone.rmdir()
        stats = registry.prune(drop_missing=True)
        assert stats["dropped"] == 1
        assert stats["kept"] == 1
        assert [e["dir"] for e in registry.entries()] == [str(kept_dir)]

    def test_older_than_retention(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        new_dir = tmp_path / "new"
        new_dir.mkdir()
        with open(registry.path, "ab") as fh:
            fh.write(_crafted_record(old_dir))
        registry.register_run(new_dir, status="completed")
        stats = registry.prune(older_than_days=365)
        assert stats["dropped"] == 1
        assert stats["kept"] == 1
        assert [e["dir"] for e in registry.entries()] == [str(new_dir)]


def _spawn_worker(address, attacks=None, authkey=None):
    cmd = [sys.executable, "-m", "repro.experiments", "worker",
           "--connect", address]
    if attacks:
        cmd += ["--chaos-once", attacks]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FABRIC_AUTHKEY", None)
    if authkey is not None:
        env["REPRO_FABRIC_AUTHKEY"] = authkey
    return subprocess.Popen(cmd, env=env, stderr=subprocess.DEVNULL)


class TestDistributedRecovery:
    def test_kill_and_dup_recover_byte_identical(self, tmp_path,
                                                 manifests):
        serial_ctx = ExperimentContext(CFG, workloads=WORKLOADS,
                                       telemetry_dir=tmp_path / "serial",
                                       **QUICK)
        reference = serial_ctx.speedup_table(PROTOCOLS)

        registry = RunRegistry(tmp_path / "reg")
        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        ctx = ExperimentContext(
            CFG, workloads=WORKLOADS, telemetry_dir=tmp_path / "dist",
            **QUICK,
            listen="127.0.0.1:0", lease_ttl=5.0, min_workers=1,
            fleet_registry=registry, fleet_dir=fleet_dir,
            fabric_authkey="fleet-key",  # recovery over the authed wire
        )
        coordinator = ctx._executor.coordinator()
        address = "%s:%d" % coordinator.address
        workers = [_spawn_worker(address, "kill", authkey="fleet-key"),
                   _spawn_worker(address, "dup", authkey="fleet-key")]
        try:
            recovered = ctx.speedup_table(PROTOCOLS)
            stats = coordinator.stats
            ctx.close()

            assert recovered.rows == reference.rows
            assert not ctx.failed_cells
            assert serial_ctx.manifests_written
            assert (manifests(ctx, tmp_path / "dist")
                    == manifests(serial_ctx, tmp_path / "serial"))
            assert stats.worker_eofs >= 1  # the SIGKILLed worker
            assert stats.reclaims >= 1
            assert stats.duplicate_results >= 1
            assert stats.retries >= 1

            # SIGKILLed worker died by signal; the survivor exits 0 on
            # the coordinator's stop broadcast.
            assert workers[0].wait(timeout=15) == -signal.SIGKILL
            assert workers[1].wait(timeout=15) == 0
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

        # The coordinator published fleet liveness; final status is
        # "completed" once the sweep closed.
        fleets = registry.fleets()
        assert len(fleets) == 1
        assert fleets[0]["info"]["status"] == "completed"
        assert fleets[0]["info"]["coordinator"]["addr"] == address


class TestSigterm:
    def test_sweep_drains_and_exits_143(self, tmp_path):
        # A --listen sweep with no workers parks in the dispatch loop
        # cheaply, which makes SIGTERM timing deterministic.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "fig8",
             "--quick", "--scale", str(1 / 64), "--ops-scale", "0.05",
             "--listen", "127.0.0.1:0", "--no-registry"],
            cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # Wait until the coordinator announces its port, so the
            # signal lands mid-sweep rather than mid-startup.
            ready = threading.Event()

            def _watch():
                for raw in proc.stderr:
                    if b"coordinating" in raw:
                        ready.set()
                        return

            watcher = threading.Thread(target=_watch, daemon=True)
            watcher.start()
            assert ready.wait(timeout=60), "coordinator never started"
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 143  # 128 + SIGTERM, the conventional code
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
