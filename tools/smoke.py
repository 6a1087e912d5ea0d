#!/usr/bin/env python
"""End-to-end smoke check: sanitizer on, faults injected, journal written.

Runs in seconds; exits non-zero on any regression.  CI runs this after
the unit suite as a cheap whole-system check that the pieces the suite
exercises in isolation also compose:

1. one sanitized simulation (no violations, identical timing);
2. the sanitizer's runtime overhead, reported (not asserted — CI boxes
   are noisy; the acceptance bound is checked in EXPERIMENTS.md runs);
3. one faulted cell per built-in plan, on both engines, with the
   flaky plan verified to be deterministic across replays and the
   lossy plan completing with recovery counters instead of a stall;
4. a journaled mini-sweep plus a --resume pass that must replay it;
5. a verification mini-gate: exhaustive model check of one geometry,
   one litmus combination, and the mutation catch;
6. the observability service's /healthz contract: version, uptime
   and registry path (what fleet probes and the CI serve job key on).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    CoherenceSanitizer,
    SystemConfig,
    WORKLOADS,
    make_fault_plan,
    simulate,
)
from repro.experiments import cli  # noqa: E402


def main() -> int:
    cfg = SystemConfig.paper_scaled(1 / 64)
    trace = list(WORKLOADS["RNN_FW"].generate(cfg, seed=1, ops_scale=0.1))
    print(f"smoke: {len(trace)} ops on {cfg.num_gpus}x"
          f"{cfg.gpms_per_gpu} platform")

    # 1+2: sanitized run — silent, timing-neutral, bounded overhead.
    t0 = time.perf_counter()
    base = simulate(list(trace), cfg, "hmg")
    base_s = time.perf_counter() - t0
    san = CoherenceSanitizer(collect=True)
    t0 = time.perf_counter()
    checked = simulate(list(trace), cfg, "hmg", sanitizer=san)
    san_s = time.perf_counter() - t0
    assert checked.cycles == base.cycles, "sanitizer changed timing"
    assert not san.violations, san.violations
    print(f"smoke: {san.summary()}")
    print(f"smoke: sanitizer overhead {san_s / max(base_s, 1e-9):.2f}x "
          f"({base_s * 1e3:.0f}ms -> {san_s * 1e3:.0f}ms)")

    # 3: every built-in plan on both engines; flaky replay determinism;
    # lossy recovery counters.
    for plan_name in ("none", "degraded", "flaky", "lossy"):
        plan = make_fault_plan(plan_name, seed=1)
        tp = simulate(list(trace), cfg, "hmg", fault_plan=plan)
        det = simulate(list(trace), cfg, "hmg", engine="detailed",
                       fault_plan=plan)
        print(f"smoke: plan {plan_name:8s} throughput {tp.cycles:10.1f}cy "
              f"detailed {det.cycles:10.1f}cy")
        if plan_name == "lossy":
            for r in (tp, det):
                d = r.degradation
                assert d is not None and d.retries > 0, \
                    "lossy plan produced no recovery counters"
            print(f"smoke: lossy recovery detailed "
                  f"{det.degradation.as_dict()}")
    a = simulate(list(trace), cfg, "hmg", engine="detailed",
                 fault_plan=make_fault_plan("flaky", seed=9))
    b = simulate(list(trace), cfg, "hmg", engine="detailed",
                 fault_plan=make_fault_plan("flaky", seed=9))
    assert (a.cycles, a.link_bytes) == (b.cycles, b.link_bytes), \
        "fault replay not deterministic"
    print("smoke: flaky replay deterministic")

    # 4: journaled mini-sweep, then resume must replay from the journal.
    with tempfile.TemporaryDirectory() as tmp:
        args = ["faults", "--scale", str(1 / 64), "--ops-scale", "0.05",
                "--workloads", "RNN_FW", "CoMD",
                "--journal", str(Path(tmp) / "journal")]
        assert cli.main(args) == 0, "faults experiment failed"
        assert cli.main(args + ["--resume"]) == 0, "resume failed"
    print("smoke: journal + resume ok")

    # 5: verification mini-gate via the same CLI dispatch CI uses.
    assert cli.main(["verify", "check", "--protocol", "hmg",
                     "--geometry", "1x2"]) == 0, "model check failed"
    assert cli.main(["verify", "litmus", "--shape", "mp",
                     "--scope", "sys", "--protocol", "hmg"]) == 0, \
        "litmus failed"
    assert cli.main(["verify", "check", "--protocol", "hmg",
                     "--geometry", "2x2", "--program", "mp",
                     "--mutate", "drop_peer_fanout"]) == 1, \
        "mutated HMG escaped the model checker"
    print("smoke: verification gate ok (mutation caught)")

    # 6: /healthz reports real service state, not a bare 200.
    import json
    import threading
    import urllib.request

    from repro import __version__
    from repro.telemetry import serve

    with tempfile.TemporaryDirectory() as tmp:
        sargs = serve.build_parser().parse_args(
            ["--port", "0", "--registry", str(Path(tmp) / "reg")])
        server = serve.create_server(sargs)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=5.0) as r:
                health = json.loads(r.read())
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
        assert health["ok"] is True, health
        assert health["version"] == __version__, health
        assert health["uptime_seconds"] >= 0, health
        assert health["registry"] == str(Path(tmp) / "reg"), health
    print("smoke: /healthz contract ok")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
