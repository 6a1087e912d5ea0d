#!/usr/bin/env python
"""Chaos harness: the sweep fabric's recovery acceptance gate.

Runs one small fig8-shaped sweep four ways and asserts the fabric's
whole recovery story end to end:

1. **Reference.**  An undisturbed ``--jobs 1`` run; its speedup table
   text and its cell manifests (the completion order and every
   ``*.metrics.json`` byte) are the ground truth everything else must
   reproduce exactly.
2. **Disturbed.**  The same sweep on the parallel fabric with a seeded
   :class:`repro.faults.chaos.ChaosPlan` adversary riding in every
   worker — SIGKILLs mid-cell, hangs past the cell timeout, transient
   exceptions — plus a results store attached.  The sweep must complete
   with zero permanently failed cells and byte-identical table and
   manifests, and the adversary must actually have attacked
   (the harness picks a chaos seed that guarantees at least one kill,
   one hang and one error on the first attempts).
3. **Torn write.**  ``truncate_tail`` chops a store shard mid-record —
   the crash-mid-write state of any :class:`~repro.applog.AppendLog`.
   The store must warn, drop only the torn record and recompute it
   (table still byte-identical).
4. **Warm store.**  A fresh context over the repaired store must replay
   the whole sweep with a >= 90% hit rate and **zero** engine
   simulations, still byte-identical.

Exits non-zero on the first violated property.  Wall time is a few
tens of seconds (dominated by deliberately-injected hangs bounded by
``--cell-timeout``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.report import format_speedup_table  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.experiments.parallel import Cell, cell_fingerprint  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    PROTOCOL_LABELS,
    ExperimentContext,
)
from repro.experiments.store import ResultStore  # noqa: E402
from repro.faults.chaos import ChaosPlan, ChaosSpec, truncate_tail  # noqa: E402

WORKLOADS = ["CoMD", "mst"]
PROTOCOLS = ["sw", "nhcc", "hmg"]


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


def grid_fingerprints(cfg) -> list:
    """Fingerprints of every unique cell the sweep will dispatch."""
    return [
        cell_fingerprint(Cell(workload, protocol, cfg))
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


def run_sweep(cfg, args, *, jobs: int, telemetry_dir=None, store=None,
              chaos=None):
    """One fig8-shaped sweep; returns (table_text, context)."""
    ctx = ExperimentContext(
        cfg, seed=args.seed, ops_scale=args.ops_scale,
        workloads=WORKLOADS, jobs=jobs, store=store,
        telemetry_dir=telemetry_dir,
        cell_timeout=args.cell_timeout, max_retries=args.max_retries,
    )
    if chaos is not None:
        ctx._executor.chaos = chaos
    table = ctx.speedup_table(PROTOCOLS)
    return format_speedup_table(table, PROTOCOL_LABELS), ctx


def manifests(ctx, telemetry_dir: Path) -> tuple:
    """A sweep's byte-identity witness: its cell manifests in completion
    order, and every ``*.metrics.json`` byte for byte."""
    return (list(ctx.manifests_written),
            {path.name: path.read_bytes()
             for path in sorted(telemetry_dir.glob("*.metrics.json"))})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = SystemConfig.paper_scaled(args.scale)
    work = Path(args.keep) if args.keep else Path(
        tempfile.mkdtemp(prefix="chaos-sweep-")
    )
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _gate(cfg, args, work)
    except ChaosGateFailure as failure:
        print(f"chaos gate FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


def _gate(cfg, args, work: Path) -> int:
    fingerprints = grid_fingerprints(cfg)
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
    reference, ctx = run_sweep(cfg, args, jobs=1,
                               telemetry_dir=work / "tel-serial")
    ref_manifests = manifests(ctx, work / "tel-serial")
    print(f"chaos: reference serial sweep in "
          f"{time.perf_counter() - t0:.1f}s")

    # 2. Disturbed parallel sweep with the store attached.
    store_dir = work / "store"
    t0 = time.perf_counter()
    disturbed, ctx = run_sweep(
        cfg, args, jobs=args.jobs, telemetry_dir=work / "tel-chaos",
        store=ResultStore(store_dir), chaos=plan,
    )
    stats = ctx._executor.fabric_stats
    print(f"chaos: disturbed sweep recovered in "
          f"{time.perf_counter() - t0:.1f}s: {stats.as_dict()}")
    check(disturbed == reference,
          "disturbed sweep table differs from the serial reference")
    check(not ctx.failed_cells,
          f"bounded chaos must always recover; failed cells: "
          f"{ctx.failed_cells}")
    check(manifests(ctx, work / "tel-chaos") == ref_manifests,
          "disturbed sweep manifests are not byte-identical to serial")
    check(stats.retries > 0 and stats.worker_deaths > 0,
          f"adversary did not bite (stats {stats.as_dict()})")
    ctx.store.close()

    # 3. Torn store record: warn, recompute, identical output.
    shard = max(store_dir.glob("shard-*.jsonl"),
                key=lambda p: p.stat().st_size)
    truncate_tail(shard, nbytes=7)
    store = ResultStore(store_dir)
    repaired, ctx = run_sweep(cfg, args, jobs=1, store=store)
    check(repaired == reference,
          "post-truncation sweep table differs from the reference")
    check(store.corrupt_records >= 1,
          "truncated shard was not detected as corrupt")
    check(ctx._executor.cells_run + store.puts >= 1,
          "torn record was not recomputed")
    print(f"chaos: torn store record detected and recomputed "
          f"({store.stats()})")
    store.close()

    # 4. Warm store: everything replays, nothing simulates.
    store = ResultStore(store_dir)
    warm, ctx = run_sweep(cfg, args, jobs=args.jobs, store=store)
    check(warm == reference,
          "warm-store sweep table differs from the reference")
    stats = store.stats()
    hit_rate = stats["hits"] / max(stats["hits"] + stats["misses"], 1)
    check(hit_rate >= 0.9,
          f"warm-store hit rate {hit_rate:.0%} below 90% "
          f"({stats})")
    check(ctx._executor.cells_run == 0,
          f"warm store still simulated {ctx._executor.cells_run} cells")
    print(f"chaos: warm store replayed everything "
          f"(hit rate {hit_rate:.0%}, 0 simulations)")
    store.close()

    print("chaos gate PASSED: recovery is deterministic and complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
