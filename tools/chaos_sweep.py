#!/usr/bin/env python
"""Chaos harness: the sweep fabric's recovery acceptance gate.

Runs one small fig8-shaped sweep five ways and asserts the fabric's
whole recovery story end to end, on both of its transports:

1. **Reference.**  An undisturbed serial run; its speedup table text
   and its cell manifests (the completion order and every
   ``*.metrics.json`` byte) are the ground truth everything else must
   reproduce exactly.
2. **Local workers.**  The same sweep under ``--jobs`` with a seeded
   :class:`repro.experiments.chaos.ChaosPlan` adversary riding in every
   worker — SIGKILLs mid-cell, hangs past the cell timeout, transient
   exceptions — plus a results store attached.  The sweep must complete
   with zero permanently failed cells and byte-identical table and
   manifests, and the adversary must actually have attacked (the
   harness picks a chaos seed that guarantees at least one kill, one
   hang and one error on the first attempts).
3. **Fleet.**  The same sweep served over ``--listen`` to worker
   subprocesses that authenticate with an authkey, each carrying a
   targeted attack on its *first* leased cell: one worker SIGKILLs
   itself and the other black-holes its socket (computing in
   silence, then double-delivering its result frame).  The coordinator
   must reclaim the orphaned lease, re-queue the silent worker's cell,
   drop the duplicate frame, and finish with zero failed cells and a
   byte-identical table and manifests; the surviving worker must exit 0
   on the stop broadcast.
4. **Torn write.**  ``truncate_tail`` chops a store shard mid-record —
   the crash-mid-write state of any :class:`~repro.applog.AppendLog`.
   The store must warn, drop only the torn record and recompute it
   (table still byte-identical).
5. **Warm store.**  A fresh ``--jobs`` context over the repaired store
   must replay the whole sweep with a >= 90% hit rate and store
   nothing new, still byte-identical.

Exits non-zero on the first violated property.  Wall time is a few
tens of seconds (dominated by deliberately-injected hangs bounded by
``--cell-timeout`` and the black-holed worker's silence).
"""

from __future__ import annotations

import argparse
import contextlib
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
from repro.experiments.chaos import (  # noqa: E402
    ChaosPlan,
    ChaosSpec,
    truncate_tail,
)
from repro.experiments.runner import (  # noqa: E402
    PROTOCOL_LABELS,
    ExperimentContext,
)
from repro.experiments.store import ResultStore  # noqa: E402

WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "nhcc", "hmg"]

#: The fleet stage always runs with the HMAC handshake on, so recovery
#: is asserted over the authenticated wire path (and an ambient
#: REPRO_FABRIC_AUTHKEY in the caller's environment cannot split the
#: coordinator's and workers' configuration).
GATE_AUTHKEY = "chaos-gate"

#: One fleet worker per entry, each attacking its first leased cell:
#: one dies outright, the other goes dark and then double-delivers.
FLEET_ATTACKS = ("kill", "blackhole,dup")

#: How long the black-holed worker stays silent: longer than the
#: coordinator's 2 s heartbeat timeout, so its cell really is re-queued.
BLACKHOLE_SECONDS = 4.0


class ChaosGateFailure(AssertionError):
    """One of the harness's recovery properties did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosGateFailure(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/chaos_sweep.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", type=float, default=1 / 64)
    parser.add_argument("--ops-scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default 1)")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--kill", type=float, default=0.3,
                        help="per-cell first-attempt SIGKILL fraction")
    parser.add_argument("--hang", type=float, default=0.15,
                        help="per-cell first-attempt hang fraction")
    parser.add_argument("--error", type=float, default=0.2,
                        help="per-cell transient-exception fraction")
    parser.add_argument("--cell-timeout", type=float, default=5.0)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="keep working state under DIR instead of "
                             "a deleted temp directory")
    return parser


def grid_fingerprints(ctx) -> list:
    """Fingerprints of every unique cell the sweep will dispatch, from
    the cells of a context configured like the sweep's."""
    return [
        ctx.cell(workload, protocol).fingerprint
        for workload in WORKLOADS
        for protocol in ["noremote", *PROTOCOLS]
    ]


def pick_chaos_seed(spec: ChaosSpec, fingerprints: list) -> ChaosPlan:
    """A seed whose first-attempt plan includes every attack kind, so
    one harness run provably exercises kill, hang and error recovery."""
    for seed in range(1, 500):
        plan = ChaosPlan(spec, seed=seed)
        kinds = set(plan.planned_attacks(fingerprints).values())
        if kinds >= {"kill", "hang", "error"}:
            return plan
    raise ChaosGateFailure(
        "no chaos seed under 500 attacks with every failure mode; "
        "raise the attack fractions"
    )


def sweep_context(cfg, args, *, jobs: int = 1, telemetry_dir=None,
                  store=None, **fabric) -> ExperimentContext:
    """The context every sweep of the harness runs in."""
    return ExperimentContext(
        cfg, seed=args.seed, ops_scale=args.ops_scale,
        workloads=WORKLOADS, jobs=jobs, store=store,
        telemetry_dir=telemetry_dir,
        cell_timeout=args.cell_timeout, max_retries=args.max_retries,
        **fabric,
    )


def run_sweep(ctx, chaos=None) -> str:
    """One fig8-shaped sweep on ``ctx``; returns its table text."""
    if chaos is not None:
        ctx._executor.chaos = chaos
    table = format_speedup_table(ctx.speedup_table(PROTOCOLS),
                                 PROTOCOL_LABELS)
    ctx.close()
    return table


def manifests(ctx, telemetry_dir: Path) -> tuple:
    """A sweep's byte-identity witness: its cell manifests in completion
    order, and every ``*.metrics.json`` byte for byte."""
    return (list(ctx.manifests_written),
            {path.name: path.read_bytes()
             for path in sorted(telemetry_dir.glob("*.metrics.json"))})


def spawn_worker(address: str, attacks: str):
    """Start one fleet worker subprocess; returns the Popen handle."""
    cmd = [sys.executable, "-m", "repro.experiments", "worker",
           "--connect", address, "--chaos-once", attacks,
           "--blackhole-seconds", str(BLACKHOLE_SECONDS)]
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
        tempfile.mkdtemp(prefix="chaos-sweep-")
    )
    work.mkdir(parents=True, exist_ok=True)
    workers = []
    try:
        return _gate(cfg, args, work, workers)
    except ChaosGateFailure as failure:
        print(f"chaos gate FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        for proc in workers:
            if proc.poll() is None:
                with contextlib.suppress(OSError):
                    os.kill(proc.pid, signal.SIGCONT)  # thaw any freeze
                proc.kill()
            proc.wait()
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


def _gate(cfg, args, work: Path, workers: list) -> int:
    fingerprints = grid_fingerprints(sweep_context(cfg, args))
    spec = ChaosSpec(
        kill_fraction=args.kill, hang_fraction=args.hang,
        error_fraction=args.error,
        hang_seconds=max(6 * args.cell_timeout, 30.0),
    )
    plan = pick_chaos_seed(spec, fingerprints)
    attacks = plan.planned_attacks(fingerprints)
    print(f"chaos: seed {plan.seed} attacks "
          f"{len(attacks)}/{len(fingerprints)} first attempts: "
          + ", ".join(sorted(set(attacks.values()))))

    # 1. Undisturbed serial reference.
    t0 = time.perf_counter()
    ctx = sweep_context(cfg, args, telemetry_dir=work / "tel-serial")
    reference = run_sweep(ctx)
    ref_manifests = manifests(ctx, work / "tel-serial")
    print(f"chaos: reference serial sweep in "
          f"{time.perf_counter() - t0:.1f}s")

    # 2. Disturbed local sweep with the store attached.
    store_dir = work / "store"
    t0 = time.perf_counter()
    ctx = sweep_context(cfg, args, jobs=args.jobs,
                        telemetry_dir=work / "tel-chaos",
                        store=ResultStore(store_dir))
    disturbed = run_sweep(ctx, chaos=plan)
    stats = ctx._executor.fabric_stats
    print(f"chaos: local sweep recovered in "
          f"{time.perf_counter() - t0:.1f}s: {stats.as_dict()}")
    check(disturbed == reference,
          "local sweep table differs from the serial reference")
    check(not ctx.failed_cells,
          f"bounded chaos must always recover; failed cells: "
          f"{ctx.failed_cells}")
    check(manifests(ctx, work / "tel-chaos") == ref_manifests,
          "local sweep manifests are not byte-identical to serial")
    check(stats.retries > 0 and stats.respawns > 0
          and stats.reclaims_deadline > 0,
          f"adversary did not bite (stats {stats.as_dict()})")
    ctx.store.close()

    # 3. Disturbed fleet: worker subprocesses over --listen.
    ctx = sweep_context(cfg, args, telemetry_dir=work / "tel-fleet",
                        listen="127.0.0.1:0",
                        min_workers=len(FLEET_ATTACKS),
                        fabric_authkey=GATE_AUTHKEY)
    address = "%s:%d" % ctx._executor.coordinator().address
    for attack in FLEET_ATTACKS:
        workers.append(spawn_worker(address, attack))
    print(f"chaos: {len(FLEET_ATTACKS)} fleet workers on {address}, "
          f"first-lease attacks: {'; '.join(FLEET_ATTACKS)}")
    t0 = time.perf_counter()
    disturbed = run_sweep(ctx)
    stats = ctx._executor.fabric_stats
    print(f"chaos: fleet sweep recovered in "
          f"{time.perf_counter() - t0:.1f}s: {stats.as_dict()}")
    check(disturbed == reference,
          "fleet sweep table differs from the serial reference")
    check(not ctx.failed_cells,
          f"bounded chaos must always recover; failed cells: "
          f"{ctx.failed_cells}")
    check(manifests(ctx, work / "tel-fleet") == ref_manifests,
          "fleet sweep manifests are not byte-identical to serial")
    check(stats.worker_eofs >= 1 and stats.reclaims_eof >= 1,
          f"the killed worker's lease was not reclaimed "
          f"(stats {stats.as_dict()})")
    check(stats.reclaims_heartbeat + stats.reclaims_deadline >= 1,
          f"black-holed worker was never timed out "
          f"(stats {stats.as_dict()})")
    check(stats.duplicate_results >= 1,
          f"duplicate result frames were not exercised "
          f"(stats {stats.as_dict()})")
    # The surviving worker exits 0 on the coordinator's stop broadcast;
    # the killed one died by SIGKILL mid-lease, as planned.
    for proc, attack in zip(workers, FLEET_ATTACKS):
        try:
            rc = proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            raise ChaosGateFailure(
                f"worker (attacks {attack!r}) ignored the stop broadcast")
        expected = -signal.SIGKILL if "kill" in attack else 0
        check(rc == expected,
              f"worker (attacks {attack!r}) exited {rc}, "
              f"expected {expected}")

    # 4. Torn store record: warn, recompute, identical output.
    shard = max(store_dir.glob("shard-*.jsonl"),
                key=lambda p: p.stat().st_size)
    truncate_tail(shard, nbytes=7)
    store = ResultStore(store_dir)
    repaired = run_sweep(sweep_context(cfg, args, store=store))
    check(repaired == reference,
          "post-truncation sweep table differs from the reference")
    check(store.corrupt_records >= 1,
          "truncated shard was not detected as corrupt")
    check(store.puts >= 1, "torn record was not recomputed")
    print(f"chaos: torn store record detected and recomputed "
          f"({store.stats()})")
    store.close()

    # 5. Warm store: everything replays, nothing is stored anew.
    store = ResultStore(store_dir)
    warm = run_sweep(sweep_context(cfg, args, jobs=args.jobs,
                                   store=store))
    check(warm == reference,
          "warm-store sweep table differs from the reference")
    stats = store.stats()
    hit_rate = stats["hits"] / max(stats["hits"] + stats["misses"], 1)
    check(hit_rate >= 0.9,
          f"warm-store hit rate {hit_rate:.0%} below 90% "
          f"({stats})")
    # Every cell a warm store fails to replay is simulated and put,
    # whether the executor or this process simulates it.
    check(stats["puts"] == 0,
          f"warm store still simulated {stats['puts']} cells ({stats})")
    print(f"chaos: warm store replayed everything "
          f"(hit rate {hit_rate:.0%}, 0 simulations)")
    store.close()

    print("chaos gate PASSED: recovery is deterministic and complete, "
          "locally and over a fleet")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
