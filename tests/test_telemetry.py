"""Telemetry subsystem: trace schema, sampler determinism, manifests."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import SystemConfig
from repro.engine.simulator import simulate
from repro.experiments.runner import ExperimentContext
from repro.telemetry.interval import IntervalSampler, read_jsonl
from repro.telemetry.manifest import write_json
from repro.telemetry.progress import SweepProgress
from repro.telemetry.session import TelemetrySession
from repro.telemetry.tracer import NULL_TRACER, NullTracer
from repro.trace.workloads import WORKLOADS

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)


def _trace(workload="mst"):
    return list(WORKLOADS[workload].generate(CFG, seed=1, ops_scale=0.05))


def _recorded(engine="detailed", protocol="hmg", fault_plan=None,
              workload="mst"):
    unit = "cycles" if engine == "detailed" else "ops"
    session = TelemetrySession.recording(CFG, time_unit=unit)
    result = simulate(_trace(workload), CFG, protocol=protocol,
                      engine=engine, workload_name=workload,
                      fault_plan=fault_plan, telemetry=session)
    return session, result


class TestChromeTraceSchema:
    @pytest.mark.parametrize("engine", ["detailed", "throughput"])
    def test_document_shape(self, engine):
        session, _ = _recorded(engine=engine)
        doc = json.loads(json.dumps(session.tracer.chrome_trace()))
        events = doc["traceEvents"]
        assert events, "a recorded run must produce events"
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] != "M":
                assert event["ts"] >= 0.0

    def test_timestamps_monotonic_per_track(self):
        session, _ = _recorded(engine="detailed")
        doc = session.tracer.chrome_trace()
        last: dict = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, 0.0), (
                f"track {track} went backwards at {event['name']}"
            )
            last[track] = event["ts"]

    def test_tracks_are_labelled(self):
        session, _ = _recorded(engine="detailed")
        doc = session.tracer.chrome_trace()
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "GPM 0" in names
        assert "link out" in names
        assert "xbar" in names

    def test_write_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            session, _ = _recorded(engine="detailed")
            path = tmp_path / f"trace{i}.json"
            session.tracer.write(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fault_windows_recorded(self):
        from repro.faults import make_fault_plan

        session, _ = _recorded(engine="detailed",
                               fault_plan=make_fault_plan("degraded"))
        faults = [e for e in session.tracer.events
                  if e["cat"] == "fault"]
        assert faults, "a degraded plan must emit fault-window events"
        assert all(e["dur"] > 0 for e in faults)

    def test_fanout_events_carry_sharers(self):
        session, _ = _recorded(engine="throughput", protocol="gpuvi")
        fanouts = [e for e in session.tracer.events
                   if e["cat"] == "fanout"]
        assert fanouts
        assert all(e["args"]["sharers"] >= 1 for e in fanouts)


class TestIntervalSampler:
    def test_bins_and_skipped_windows(self):
        counters = {"n": 0}

        def snapshot():
            return {"n": counters["n"]}, {"g": counters["n"]}

        sampler = IntervalSampler(10.0, time_unit="cycles")
        sampler.attach(snapshot)
        counters["n"] = 5
        sampler.tick(12.0)       # closes [0,10) with delta 5
        counters["n"] = 7
        sampler.tick(45.0)       # closes [10,20) delta 2, two zero bins
        sampler.finish(45.0)     # final partial [40,45)
        deltas = [row["counters"]["n"] for row in sampler.rows]
        assert deltas == [5, 2, 0, 0, 0]
        assert [row["t1"] for row in sampler.rows] == \
            [10.0, 20.0, 30.0, 40.0, 45.0]
        assert sampler.rows[0]["gauges"]["g"] == 5

    def test_jsonl_round_trip(self, tmp_path):
        session, _ = _recorded(engine="throughput")
        path = tmp_path / "intervals.jsonl"
        session.sampler.write_jsonl(path)
        assert read_jsonl(path) == session.sampler.rows

    @pytest.mark.parametrize("engine", ["detailed", "throughput"])
    def test_same_seed_identical_jsonl(self, engine, tmp_path):
        blobs = []
        for i in range(2):
            session, _ = _recorded(engine=engine)
            path = tmp_path / f"{engine}{i}.jsonl"
            session.sampler.write_jsonl(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_message_scope_tally(self):
        session, _ = _recorded(engine="throughput")
        assert session.msg_scope_counts
        for key, count in session.msg_scope_counts.items():
            mtype, _, scope = key.partition(".")
            assert mtype.isupper()
            assert scope, f"{key} lost its scope suffix"
            assert count > 0


class TestNullTracerContract:
    def test_protocols_born_with_null_tracer(self):
        from repro.core.registry import make_protocol
        from repro.engine.throughput import ThroughputSink

        proto = make_protocol("hmg", CFG, sink=ThroughputSink(CFG.num_gpus))
        assert proto.tracer is NULL_TRACER
        assert proto.tracer.enabled is False

    def test_null_tracer_is_silent(self):
        tracer = NullTracer()
        tracer.set_time(5.0)
        tracer.fill("l1", None, 3)
        tracer.instant("x", None)
        assert tracer.enabled is False

    @pytest.mark.parametrize("engine", ["detailed", "throughput"])
    def test_telemetry_does_not_perturb_results(self, engine):
        plain = simulate(_trace(), CFG, protocol="hmg", engine=engine)
        session = TelemetrySession.recording(
            CFG, time_unit="cycles" if engine == "detailed" else "ops")
        recorded = simulate(_trace(), CFG, protocol="hmg", engine=engine,
                            telemetry=session)
        assert recorded.cycles == plain.cycles
        assert recorded.dram_bytes == plain.dram_bytes
        assert recorded.link_bytes == plain.link_bytes


class TestManifests:
    def _run(self, tmp_path, label, jobs):
        out = tmp_path / label
        ctx = ExperimentContext(CFG, workloads=["CoMD", "mst"], jobs=jobs,
                                telemetry_dir=out, **QUICK)
        ctx.run_many([
            (workload, protocol)
            for workload in ["CoMD", "mst"]
            for protocol in ["noremote", "sw", "hmg"]
        ])
        return out, ctx

    def test_serial_and_parallel_manifests_byte_identical(self, tmp_path):
        serial, ctx_s = self._run(tmp_path, "serial", 1)
        parallel, ctx_p = self._run(tmp_path, "parallel", 4)
        names = sorted(p.name for p in serial.glob("*.metrics.json"))
        assert names == sorted(p.name for p in
                               parallel.glob("*.metrics.json"))
        assert len(names) == 6
        for name in names:
            assert (serial / name).read_bytes() == \
                (parallel / name).read_bytes(), name
        assert ctx_s.manifests_written == ctx_p.manifests_written

    def test_manifest_contents(self, tmp_path):
        out, ctx = self._run(tmp_path, "one", 1)
        slug = ctx.manifests_written[0]
        manifest = json.loads((out / f"{slug}.metrics.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["cell"]["workload"] == "CoMD"
        assert manifest["time"]["cycles"] > 0
        assert manifest["time"]["bottleneck"]["resource"]
        assert 0.0 <= manifest["work"]["l1"]["hit_rate"] <= 1.0
        assert "wall_seconds" not in json.dumps(manifest)

    def test_perf_sidecar_carries_wall_clock(self, tmp_path):
        out, ctx = self._run(tmp_path, "one", 1)
        slug = ctx.manifests_written[0]
        perf = json.loads((out / f"{slug}.perf.json").read_text())
        assert perf["wall_seconds"] > 0
        assert perf["ops_per_second"] > 0

    def test_run_manifest_written_by_cli(self, tmp_path, capsys):
        from repro.experiments import cli

        out = tmp_path / "tel"
        rc = cli.main(["fig2", "--scale", str(1 / 64),
                       "--ops-scale", "0.05",
                       "--workloads", "CoMD",
                       "--telemetry", str(out),
                       "--registry", str(tmp_path / "reg")])
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["experiments"] == ["fig2"]
        assert run["cells"]
        assert "jobs" not in run["settings"]
        for slug in run["cells"]:
            assert (out / f"{slug}.metrics.json").exists()

    @pytest.mark.parametrize("experiment", ["mca", "scaleout",
                                            "singlegpu"])
    def test_run_manifest_for_sub_context_experiments(self, tmp_path,
                                                      capsys,
                                                      experiment):
        """These run all their cells in derived contexts, whose cells
        are indexed in run.json like any other."""
        from repro.experiments import cli

        out = tmp_path / "tel"
        rc = cli.main([experiment, "--scale", str(1 / 64),
                       "--ops-scale", "0.05",
                       "--workloads", "CoMD",
                       "--telemetry", str(out),
                       "--registry", str(tmp_path / "reg")])
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["experiments"] == [experiment]
        assert run["cells"]
        platforms = set()
        for slug in run["cells"]:
            manifest = json.loads(
                (out / f"{slug}.metrics.json").read_text())
            platforms.add(manifest["platform"]["num_gpus"])
        assert 1 in platforms


#: An mtime no write can produce: set before a write, it shows whether
#: the write touched the file.
OLD_NS = 1_000_000_000


def _stamp(path):
    os.utime(path, ns=(OLD_NS, OLD_NS))
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


class TestWriteOnChange:
    PAYLOAD = {"schema": 1, "b": [1, 2.5, None], "a": {"z": True, "y": 1}}

    @staticmethod
    def canonical(payload):
        return json.dumps(payload, sort_keys=True) + "\n"

    def test_unchanged_payload_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, self.PAYLOAD)
        before = _stamp(path)
        # Same content, built in another key order.
        write_json(path, {"a": {"y": 1, "z": True}, "b": (1, 2.5, None),
                          "schema": 1})
        st = path.stat()
        assert (st.st_ino, st.st_mtime_ns) == before
        assert path.read_text() == self.canonical(self.PAYLOAD)

    @pytest.mark.parametrize("change", ["value", "int_to_float"])
    def test_changed_payload_is_written(self, tmp_path, change):
        path = tmp_path / "m.json"
        write_json(path, self.PAYLOAD)
        _stamp(path)
        if change == "value":
            payload = {**self.PAYLOAD, "schema": 2}
        else:  # equal as Python values, but not the same JSON
            payload = {**self.PAYLOAD, "a": {"z": True, "y": 1.0}}
        write_json(path, payload)
        assert path.stat().st_mtime_ns != OLD_NS
        assert path.read_text() == self.canonical(payload)

    @pytest.mark.parametrize("old", [b"", b'{"schema": 1, "a": {"z": tr',
                                     b"not json", b"\xff\xfe\x00"])
    def test_torn_or_invalid_file_is_written(self, tmp_path, old):
        path = tmp_path / "m.json"
        path.write_bytes(old)
        write_json(path, self.PAYLOAD)
        assert path.read_text() == self.canonical(self.PAYLOAD)

    def test_absent_file_is_written(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, self.PAYLOAD)
        assert path.read_text() == self.canonical(self.PAYLOAD)

    def test_equal_content_in_another_form_is_rewritten_once(self,
                                                             tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.PAYLOAD, sort_keys=True,
                                   indent=2) + "\n")
        _stamp(path)
        write_json(path, self.PAYLOAD)
        assert path.stat().st_mtime_ns != OLD_NS
        assert path.read_text() == self.canonical(self.PAYLOAD)
        before = _stamp(path)
        write_json(path, self.PAYLOAD)
        st = path.stat()
        assert (st.st_ino, st.st_mtime_ns) == before


class TestWarmRerun:
    """A rerun replayed from the store re-records nothing it already
    recorded: manifests, run.json and every journal file stay
    untouched, and only the perf sidecars change, once, to the replay
    record."""

    ARGS = ["fig8", "fig12", "faults", "--quick", "--workloads", "CoMD",
            "mst", "--no-registry"]

    def _run(self, tmp_path, capsys, *extra):
        from repro.experiments import cli

        assert cli.main([*self.ARGS, "--store", str(tmp_path / "S"),
                         "--telemetry", str(tmp_path / "T"),
                         "--journal", str(tmp_path / "J"), *extra]) == 0
        out = capsys.readouterr().out
        # Drop the wall-clock trailers, nondeterministic by nature.
        return [line for line in out.splitlines()
                if not line.startswith("[")]

    @staticmethod
    def _names(root):
        """Every telemetry file and every journal file."""
        paths = [*(root / "T").iterdir(),
                 *(p for p in (root / "J").rglob("*") if p.is_file())]
        return sorted(str(path.relative_to(root)) for path in paths)

    def _snapshot(self, root):
        """Each file's bytes and its (inode, mtime) once stamped."""
        return {name: ((root / name).read_bytes(), _stamp(root / name))
                for name in self._names(root)}

    def test_warm_reruns_rewrite_nothing_recorded(self, tmp_path, capsys):
        cold = self._run(tmp_path, capsys)
        files = self._snapshot(tmp_path)
        recorded = [n for n in files if not n.endswith(".perf.json")]
        sidecars = [n for n in files if n.endswith(".perf.json")]
        assert "T/run.json" in recorded
        assert len(sidecars) == 80
        assert [n for n in recorded if n.startswith("J/")] == [
            "J/meta.json", "J/results/faults.json", "J/results/fig12.json",
            "J/results/fig8.json"]

        assert self._run(tmp_path, capsys) == cold
        assert self._names(tmp_path) == sorted(files)
        for name in recorded:
            st = (tmp_path / name).stat()
            assert (tmp_path / name).read_bytes() == files[name][0], name
            assert (st.st_ino, st.st_mtime_ns) == files[name][1], name
        for name in sidecars:
            assert json.loads((tmp_path / name).read_text()) == {
                "schema": 1, "wall_seconds": 0.0,
                "ops_per_second": 0.0}, name

        files = self._snapshot(tmp_path)
        assert self._run(tmp_path, capsys, "--jobs", "2") == cold
        assert self._names(tmp_path) == sorted(files)
        for name, (data, stamp) in files.items():
            st = (tmp_path / name).stat()
            assert (st.st_ino, st.st_mtime_ns) == stamp, name
            assert (tmp_path / name).read_bytes() == data, name


class TestSweepProgress:
    class _Stream:
        def __init__(self, tty):
            self.tty = tty
            self.written = []

        def isatty(self):
            return self.tty

        def write(self, text):
            self.written.append(text)

        def flush(self):
            pass

    def test_tty_redraws_in_place(self):
        stream = self._Stream(tty=True)
        clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
        progress = SweepProgress(2, stream=stream, clock=clock)
        progress.update()
        progress.update()
        progress.close()
        assert stream.written[0].startswith("\r[sweep] 1/2")
        assert "ETA" in stream.written[0]
        assert stream.written[-1] == "\n"

    def test_pipe_prints_single_summary(self):
        stream = self._Stream(tty=False)
        clock = iter([0.0, 1.0, 2.0]).__next__
        progress = SweepProgress(2, stream=stream, clock=clock)
        progress.update()
        progress.update()
        progress.close()
        assert len(stream.written) == 1
        assert stream.written[0].startswith("[sweep] 2/2")
