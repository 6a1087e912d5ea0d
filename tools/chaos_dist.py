#!/usr/bin/env python
"""Distributed chaos harness: the fabric-net recovery acceptance gate.

Runs one small fig8-shaped sweep three ways and asserts the
coordinator/worker fabric's whole recovery story end to end:

1. **Reference.**  An undisturbed serial run; its speedup table text
   and its cell manifests (the completion order and every
   ``*.metrics.json`` byte) are the ground truth everything else must
   reproduce exactly.
2. **Disturbed fleet.**  The same sweep served to N localhost workers
   (default 3) over the lease coordinator, each worker carrying a
   targeted host-level attack on its *first* leased cell: by default
   two workers SIGKILL themselves mid-lease and the third black-holes
   its socket for one lease period (computing in silence, then
   double-delivering its result frame).  The coordinator must reclaim
   every orphaned lease, re-dispatch to whatever is left, drop the
   duplicate frames, and finish with **zero** failed cells and a table
   and manifests byte-identical to the serial reference — with a results
   store attached, so recovery also populates the cross-run cache.
3. **Warm store.**  A fresh serial context over that store must replay
   the whole sweep with zero engine simulations, still byte-identical.

Exits non-zero on the first violated property.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.report import format_speedup_table  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    PROTOCOL_LABELS,
    ExperimentContext,
)
from repro.experiments.store import ResultStore  # noqa: E402

WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "nhcc", "hmg"]

#: Default per-worker first-lease attacks: the acceptance scenario —
#: two workers die outright, the survivor goes dark for a lease period
#: and then double-delivers.
DEFAULT_ATTACKS = ["kill", "kill", "blackhole,dup"]

#: The gate always runs with the HMAC handshake on, so recovery is
#: asserted over the authenticated wire path (and an ambient
#: REPRO_FABRIC_AUTHKEY in the caller's environment cannot split the
#: coordinator's and workers' configuration).
GATE_AUTHKEY = "chaos-dist-gate"


class ChaosGateFailure(AssertionError):
    """One of the harness's recovery properties did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosGateFailure(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/chaos_dist.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", type=float, default=1 / 64)
    parser.add_argument("--ops-scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=3,
                        help="localhost worker processes (default 3)")
    parser.add_argument("--attacks", default=None,
                        help="per-worker first-lease attacks, "
                             "';'-separated lists of comma-joined "
                             "kinds, cycled over the fleet (default "
                             "'kill;kill;blackhole,dup'); 'none' for "
                             "a clean worker")
    parser.add_argument("--lease-ttl", type=float, default=6.0)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="keep working state under DIR instead of "
                             "a deleted temp directory")
    return parser


def run_serial(cfg, args, *, telemetry_dir=None, store=None):
    """One undisturbed serial sweep; returns (table_text, context)."""
    ctx = ExperimentContext(
        cfg, seed=args.seed, ops_scale=args.ops_scale,
        workloads=WORKLOADS, store=store, telemetry_dir=telemetry_dir,
    )
    table = ctx.speedup_table(PROTOCOLS)
    return format_speedup_table(table, PROTOCOL_LABELS), ctx


def manifests(ctx, telemetry_dir: Path) -> tuple:
    """A sweep's byte-identity witness: its cell manifests in completion
    order, and every ``*.metrics.json`` byte for byte."""
    return (list(ctx.manifests_written),
            {path.name: path.read_bytes()
             for path in sorted(telemetry_dir.glob("*.metrics.json"))})


def spawn_worker(address: str, attacks: str, blackhole_seconds: float):
    """Start one worker subprocess; returns the Popen handle."""
    cmd = [sys.executable, "-m", "repro.experiments", "worker",
           "--connect", address]
    if attacks and attacks != "none":
        cmd += ["--chaos-once", attacks,
                "--blackhole-seconds", str(blackhole_seconds)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_FABRIC_AUTHKEY"] = GATE_AUTHKEY
    return subprocess.Popen(cmd, env=env, stderr=subprocess.DEVNULL)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = SystemConfig.paper_scaled(args.scale)
    work = Path(args.keep) if args.keep else Path(
        tempfile.mkdtemp(prefix="chaos-dist-")
    )
    work.mkdir(parents=True, exist_ok=True)
    workers = []
    try:
        return _gate(cfg, args, work, workers)
    except ChaosGateFailure as failure:
        print(f"dist-chaos gate FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        for proc in workers:
            if proc.poll() is None:
                with __import__("contextlib").suppress(OSError):
                    os.kill(proc.pid, signal.SIGCONT)  # thaw any freeze
                proc.kill()
            proc.wait()
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


def _gate(cfg, args, work: Path, workers: list) -> int:
    attack_lists = (args.attacks.split(";") if args.attacks
                    else DEFAULT_ATTACKS)

    # 1. Undisturbed serial reference.
    t0 = time.perf_counter()
    reference, ref_ctx = run_serial(cfg, args,
                                    telemetry_dir=work / "tel-serial")
    ref_manifests = manifests(ref_ctx, work / "tel-serial")
    print(f"dist-chaos: reference serial sweep in "
          f"{time.perf_counter() - t0:.1f}s")

    # 2. Disturbed distributed sweep with the store attached.
    store_dir = work / "store"
    ctx = ExperimentContext(
        cfg, seed=args.seed, ops_scale=args.ops_scale,
        workloads=WORKLOADS, telemetry_dir=work / "tel-dist",
        store=ResultStore(store_dir),
        listen="127.0.0.1:0", lease_ttl=args.lease_ttl,
        max_retries=args.max_retries,
        min_workers=min(args.workers, 2),
        fabric_authkey=GATE_AUTHKEY,
    )
    coordinator = ctx._executor.coordinator()
    address = "%s:%d" % coordinator.address
    blackhole_seconds = 1.2 * args.lease_ttl  # dark for one lease period
    plan = []
    for i in range(args.workers):
        attacks = attack_lists[i % len(attack_lists)].strip()
        workers.append(spawn_worker(address, attacks, blackhole_seconds))
        plan.append(attacks or "none")
    print(f"dist-chaos: {args.workers} workers on {address}, "
          f"first-lease attacks: {', '.join(plan)}")

    t0 = time.perf_counter()
    disturbed = format_speedup_table(ctx.speedup_table(PROTOCOLS),
                                     PROTOCOL_LABELS)
    stats = coordinator.stats
    ctx.close()
    print(f"dist-chaos: disturbed sweep recovered in "
          f"{time.perf_counter() - t0:.1f}s: {stats.as_dict()}")

    check(disturbed == reference,
          "disturbed distributed table differs from the serial "
          "reference")
    check(not ctx.failed_cells,
          f"bounded chaos must always recover; failed cells: "
          f"{ctx.failed_cells}")
    check(manifests(ctx, work / "tel-dist") == ref_manifests,
          "disturbed sweep manifests are not byte-identical to serial")

    kills = sum("kill" in a for a in plan)
    blackholes = sum("blackhole" in a for a in plan)
    dups = sum("dup" in a for a in plan)
    check(stats.worker_eofs >= kills,
          f"expected >= {kills} worker deaths "
          f"(stats {stats.as_dict()})")
    check(stats.reclaims >= max(kills, 1),
          f"adversary did not force any lease reclaims "
          f"(stats {stats.as_dict()})")
    if blackholes:
        check(stats.reclaims_heartbeat + stats.reclaims_deadline >= 1,
              f"black-holed worker was never timed out "
              f"(stats {stats.as_dict()})")
    if dups:
        check(stats.duplicate_results >= 1,
              f"duplicate result frames were not exercised "
              f"(stats {stats.as_dict()})")
    ctx.store.close()

    # Surviving workers must exit 0 on the coordinator's stop
    # broadcast; killed ones died by SIGKILL mid-lease, as planned.
    for proc, attacks in zip(workers, plan):
        try:
            rc = proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            raise ChaosGateFailure(
                f"worker (attacks {attacks!r}) ignored the stop "
                "broadcast")
        if "kill" in attacks:
            check(rc == -signal.SIGKILL,
                  f"kill-attacked worker exited {rc}, expected SIGKILL")
        else:
            check(rc == 0,
                  f"worker (attacks {attacks!r}) exited {rc}, "
                  "expected 0")

    # 3. Warm store: everything replays, nothing simulates.
    store = ResultStore(store_dir)
    warm, warm_ctx = run_serial(cfg, args, store=store)
    check(warm == reference,
          "warm-store sweep table differs from the reference")
    check(warm_ctx._executor.cells_run == 0,
          f"warm store still simulated "
          f"{warm_ctx._executor.cells_run} cells")
    hits = store.stats()["hits"]
    print(f"dist-chaos: warm store replayed everything "
          f"({hits} hits, 0 simulations)")
    store.close()

    print("dist-chaos gate PASSED: multi-host recovery is "
          "deterministic and complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
