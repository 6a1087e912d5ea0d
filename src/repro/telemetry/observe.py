"""``python -m repro.experiments observe`` — deep-observe one cell.

Runs a single (workload, protocol) cell with *full* telemetry — Chrome
event trace, interval metrics, manifest — and renders a markdown
report.  This is the drill-down companion to sweep-level ``--telemetry``
manifests: the sweep tells you *which* cell is interesting, observe
tells you *why* (which links it hammers, how wide its invalidation
fan-outs are, how its hit rates evolve).

Artifacts written into ``--out`` (default ``observe-out/``):

* ``trace.json`` — Chrome trace-event JSON; load in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
* ``intervals.jsonl`` — interval metrics time series.
* ``metrics.json`` / ``perf.json`` — the cell manifest + perf sidecar.
* ``report.md`` — the rendered report.  It is built from the
  *re-loaded* artifacts, so every observe run round-trips the formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import SystemConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments observe",
        description="Record one simulation cell with full telemetry "
                    "and render a markdown report.  With --serve, "
                    "start the live observability service instead "
                    "(see 'observe --serve --help').",
    )
    parser.add_argument("--workload", default="mst",
                        help="workload name (default mst)")
    parser.add_argument("--protocol", default="hmg",
                        help="protocol name (default hmg)")
    parser.add_argument("--engine", default="detailed",
                        choices=("detailed", "throughput"),
                        help="timing engine (default detailed: exact "
                             "message timing; throughput: analytic "
                             "per-phase intervals, zero-duration events)")
    parser.add_argument("--scale", type=float, default=1 / 16,
                        help="capacity scale factor (default 1/16)")
    parser.add_argument("--ops-scale", type=float, default=1.0,
                        help="trace-length multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--placement", default="first_touch")
    parser.add_argument("--fault-plan", default=None, metavar="NAME",
                        help="built-in fault plan to apply "
                             "(none/degraded/flaky/lossy)")
    parser.add_argument("--interval", type=float, default=None,
                        metavar="WIDTH",
                        help="sampler bin width (cycles for the "
                             "detailed engine, ops for throughput; "
                             "engine-appropriate default otherwise)")
    parser.add_argument("--out", default="observe-out", metavar="DIR",
                        help="artifact directory (default observe-out)")
    parser.add_argument("--registry", default=None, metavar="DIR",
                        help="run registry to announce this capture in "
                             "(default .repro-registry; the service "
                             "streams its intervals live from there)")
    parser.add_argument("--no-registry", action="store_true",
                        help="do not register the capture")
    return parser


def observe(args) -> Path:
    """Run the cell and write all artifacts; returns the out dir."""
    from repro.engine.simulator import simulate
    from repro.telemetry.interval import read_jsonl
    from repro.telemetry.manifest import (cell_manifest, cell_slug,
                                          perf_sidecar, write_json)
    from repro.telemetry.report import render_report
    from repro.telemetry.session import TelemetrySession
    from repro.trace.workloads import WORKLOADS

    cfg = SystemConfig.paper_scaled(args.scale)
    trace = list(WORKLOADS[args.workload].generate(
        cfg, seed=args.seed, ops_scale=args.ops_scale
    ))
    plan = None
    if args.fault_plan is not None:
        from repro.faults import make_fault_plan

        plan = make_fault_plan(args.fault_plan, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not getattr(args, "no_registry", False):
        # Announce the capture up front so a running observability
        # service can stream its intervals the moment they land.
        from repro.telemetry.session import DEFAULT_REGISTRY, RunRegistry

        RunRegistry(args.registry or DEFAULT_REGISTRY).register_observe(
            out,
            slug=cell_slug(args.workload, args.protocol, cfg,
                           args.placement, plan),
            cell={"workload": args.workload, "protocol": args.protocol,
                  "engine": args.engine, "seed": args.seed},
        )

    time_unit = "cycles" if args.engine == "detailed" else "ops"
    session = TelemetrySession.recording(cfg, interval=args.interval,
                                         time_unit=time_unit)
    result = simulate(
        trace, cfg,
        protocol=args.protocol,
        engine=args.engine,
        placement=args.placement,
        workload_name=args.workload,
        fault_plan=plan,
        telemetry=session,
    )

    session.tracer.write(out / "trace.json")
    session.sampler.write_jsonl(out / "intervals.jsonl")
    manifest = cell_manifest(
        result, workload=args.workload, protocol=args.protocol, cfg=cfg,
        placement=args.placement, fault_plan=plan, seed=args.seed,
        ops_scale=args.ops_scale, engine=args.engine,
    )
    write_json(out / "metrics.json", manifest)
    write_json(out / "perf.json", perf_sidecar(result))

    # Render from the *written* artifacts — every observe run doubles
    # as a round-trip check of the trace and interval formats.
    trace_doc = json.loads((out / "trace.json").read_text())
    intervals = read_jsonl(out / "intervals.jsonl")
    manifest = json.loads((out / "metrics.json").read_text())
    (out / "report.md").write_text(
        render_report(manifest, intervals, trace_doc)
    )
    return out


def build_registry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments observe registry",
        description="Run-registry maintenance.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    prune = sub.add_parser(
        "prune",
        help="compact registry.jsonl to its live records",
        description="Rewrite the registry to just its winning "
                    "(last-writer-wins) records, atomically.  The "
                    "registry is append-only — every status flip adds "
                    "a superseding line — so long-lived registries "
                    "accrete dead history this reclaims.",
    )
    prune.add_argument("--registry", default=None, metavar="DIR",
                       help="registry directory "
                            "(default .repro-registry)")
    prune.add_argument("--drop-missing", action="store_true",
                       help="also drop records whose directory no "
                            "longer exists on disk")
    prune.add_argument("--older-than", type=float, default=None,
                       metavar="DAYS",
                       help="also drop records last registered more "
                            "than DAYS days ago")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be pruned; write nothing")
    return parser


def registry_main(argv) -> int:
    from repro.telemetry.session import DEFAULT_REGISTRY, RunRegistry

    args = build_registry_parser().parse_args(argv)
    registry = RunRegistry(args.registry or DEFAULT_REGISTRY)
    stats = registry.prune(drop_missing=args.drop_missing,
                           older_than_days=args.older_than,
                           dry_run=args.dry_run)
    verb = "would keep" if args.dry_run else "kept"
    print(f"registry {registry.path}: {verb} {stats['kept']} of "
          f"{stats['records_before']} record(s) "
          f"({stats['superseded']} superseded, "
          f"{stats['dropped']} dropped; "
          f"{stats['bytes_before']} -> {stats['bytes_after']} bytes)")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "registry":
        # Registry maintenance ('observe registry prune ...').
        return registry_main(argv[1:])
    if "--serve" in argv:
        # The long-running observability service has its own argument
        # structure; hand everything else through to it.
        from repro.telemetry.serve import main as serve_main

        argv.remove("--serve")
        return serve_main(argv)
    args = build_parser().parse_args(argv)
    try:
        out = observe(args)
    except (KeyError, ValueError) as exc:
        print(f"observe: {exc}", file=sys.stderr)
        return 2
    for name in ("trace.json", "intervals.jsonl", "metrics.json",
                 "perf.json", "report.md"):
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
