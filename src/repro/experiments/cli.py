"""Command-line entry point: ``python -m repro.experiments <id> ...``.

Crash-safe by construction: a ``--journal`` directory records every
completed experiment as it finishes, so a sweep killed mid-run can be
re-issued with ``--resume`` and only the missing experiments execute —
the completed ones are replayed verbatim from the journal.  Without a
``--store`` of its own the journal also keeps the results store, so the
experiment that was interrupted replays its finished cells and
simulates only the rest.  Per-experiment ``--timeout`` (with retry +
backoff for transient failures) and collect-don't-abort error handling
keep one bad workload from taking down ``all``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import time

from repro.config import SystemConfig
from repro.experiments.journal import RunJournal
from repro.experiments.registry import EXPERIMENTS, experiment_ids
from repro.experiments.runner import ExperimentContext

#: Journal directory used when --resume is given without --journal.
DEFAULT_JOURNAL = ".repro-journal"


class ExperimentTimeout(RuntimeError):
    """An experiment exceeded its --timeout budget."""


class SigTermInterrupt(KeyboardInterrupt):
    """SIGTERM, routed through the KeyboardInterrupt machinery.

    Subclassing KeyboardInterrupt means every graceful-interrupt path —
    fabric drain, journal/store/telemetry flush, registry finalization —
    handles SIGTERM exactly like Ctrl-C; only the exit code differs
    (143, the conventional 128+SIGTERM)."""


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as :class:`SigTermInterrupt` for the duration.

    No-op off the main thread or where SIGTERM is unavailable (signal
    handlers can only be installed from the main thread)."""
    import threading

    if (not hasattr(signal, "SIGTERM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _terminated(signum, frame):
        raise SigTermInterrupt("SIGTERM")

    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the HMG paper's tables and figures. "
                    "A leading 'verify' subcommand dispatches to the "
                    "protocol verification tools instead "
                    "(see 'verify --help').",
    )
    parser.add_argument(
        "experiment", nargs="+",
        help=f"experiment id(s): {', '.join(experiment_ids())}, or 'all'",
    )
    parser.add_argument("--scale", type=float, default=1 / 16,
                        help="capacity scale factor (default 1/16)")
    parser.add_argument("--ops-scale", type=float, default=1.0,
                        help="trace-length multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these workloads")
    parser.add_argument("--quick", action="store_true",
                        help="shortcut for --ops-scale 0.25")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the coherence sanitizer inside every "
                             "simulation (DESIGN.md §6 invariants)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep cells "
                             "(default 1 = serial; results are "
                             "byte-identical either way)")
    parser.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="persist generated traces in DIR and "
                             "reuse them across runs and workers")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed results store: completed "
                             "cells persist in DIR (append-only JSONL "
                             "shards, CRC-checked) and replay for free "
                             "on any later run that revisits them")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="serve sweep cells to remote workers from "
                             "this address instead of local processes "
                             "(start workers with 'python -m "
                             "repro.experiments worker --connect "
                             "HOST:PORT'; port 0 picks a free port). "
                             "Output stays byte-identical to serial "
                             "regardless of worker count or failures")
    parser.add_argument("--fabric-authkey", default=None, metavar="KEY",
                        help="shared secret authenticating --listen "
                             "workers via an HMAC handshake (default: "
                             "$REPRO_FABRIC_AUTHKEY); required for "
                             "non-loopback --listen addresses")
    parser.add_argument("--insecure-fabric", action="store_true",
                        help="allow a non-loopback --listen with no "
                             "authkey (the wire format is pickle: "
                             "anyone reaching the port can execute "
                             "code — only for isolated networks)")
    parser.add_argument("--min-workers", type=int, default=1, metavar="N",
                        help="wait for N connected workers before "
                             "leasing the first cell (default 1)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="base lease deadline per cell; an expired "
                             "lease is reclaimed and re-dispatched "
                             "(default 30; jittered 100-150%% per cell)")
    parser.add_argument("--lease-size", type=int, default=1, metavar="N",
                        help="cells handed out per lease (default 1)")
    parser.add_argument("--cell-timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="kill and retry any sweep cell running "
                             "longer than this (0 = unlimited; "
                             "parallel runs only)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="attempts beyond the first for a sweep "
                             "cell that times out or fails transiently "
                             "(default 2); a cell exhausting them is "
                             "reported in the failed-cells manifest "
                             "and rendered as a gap")
    parser.add_argument("--repro-dir", default=None, metavar="DIR",
                        help="dump any sanitizer violation as a "
                             "replayable repro file in DIR (replay with "
                             "'verify repro run <file>')")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="write per-cell metrics.json manifests, "
                             "perf.json sidecars and a run.json index "
                             "into DIR (deterministic: byte-identical "
                             "for --jobs 1 and --jobs N)")
    parser.add_argument("--registry", default=None, metavar="DIR",
                        help="run registry the sweep announces itself "
                             "in when --telemetry/--store are given, so "
                             "'observe --serve' sees it the moment it "
                             "starts (default .repro-registry)")
    parser.add_argument("--no-registry", action="store_true",
                        help="do not register this run")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="record completed experiments in DIR, and "
                             "keep the results store in DIR/store unless "
                             "--store is given (implied "
                             f"'{DEFAULT_JOURNAL}' by --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments already completed in the "
                             "journal, replaying their stored output")
    parser.add_argument("--timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="per-experiment wall-clock budget "
                             "(0 = unlimited)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retry attempts per failed experiment "
                             "(default 2)")
    parser.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="initial backoff between retries, doubling "
                             "each attempt (default 0.5)")
    return parser


@contextlib.contextmanager
def _deadline(seconds: float, experiment_id: str):
    """Raise :class:`ExperimentTimeout` after ``seconds`` of wall time.

    Uses SIGALRM where available (CPython on POSIX); elsewhere — or for
    ``seconds <= 0`` — it is a no-op.
    """
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise ExperimentTimeout(
            f"experiment {experiment_id!r} exceeded {seconds:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_retries(driver, ctx, experiment_id: str, *,
                     timeout: float = 0.0, retries: int = 2,
                     backoff: float = 0.5, sleep=time.sleep):
    """Run one experiment driver with a deadline and retry-and-backoff.

    Transient failures (anything but KeyboardInterrupt/SystemExit) are
    retried up to ``retries`` times with exponentially growing pauses;
    the last failure propagates.
    """
    attempt = 0
    while True:
        try:
            with _deadline(timeout, experiment_id):
                return driver(ctx)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            attempt += 1
            if attempt > retries:
                raise
            delay = backoff * (2 ** (attempt - 1))
            print(f"experiment {experiment_id} failed "
                  f"(attempt {attempt}/{retries + 1}): {exc}; "
                  f"retrying in {delay:g}s", file=sys.stderr)
            sleep(delay)


def main(argv=None) -> int:
    """Entry point; returns a process exit code.

    0: everything ran; 1: at least one experiment failed (the others
    still ran and printed); 2: bad usage (unknown experiment id).
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "verify":
        # The verification CLI has its own sub-structure; hand the rest
        # of the argv straight through.
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "observe":
        # Single-cell deep observation (full tracing + interval metrics
        # + markdown report), or — with --serve — the live
        # observability service; both live with the telemetry subsystem.
        from repro.telemetry.observe import main as observe_main

        return observe_main(argv[1:])
    if argv and argv[0] == "store":
        # Offline results-store queries (scan / get KEY), sharing the
        # query code with the service's /store endpoints.
        from repro.experiments.store import cli_main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "worker":
        # Distributed-sweep worker: joins a coordinator started with
        # --listen and executes leased cells until dismissed.
        from repro.experiments.fabric_net import worker_cli

        return worker_cli(argv[1:])
    args = build_parser().parse_args(argv)
    ids = args.experiment
    if ids == ["all"]:
        ids = experiment_ids()
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"valid ids: {', '.join(experiment_ids())}, or 'all'",
              file=sys.stderr)
        return 2
    ops_scale = 0.25 if args.quick else args.ops_scale

    # Fail fast on an unsafe --listen (non-loopback bind, no authkey,
    # no explicit opt-in) before any sweep state is created.
    fabric_authkey = (args.fabric_authkey
                      or os.environ.get("REPRO_FABRIC_AUTHKEY"))
    if args.listen is not None:
        from repro.experiments.fabric_net import check_listen_security

        try:
            check_listen_security(args.listen, fabric_authkey,
                                  args.insecure_fabric)
        except ValueError as exc:
            print(f"fabric-net: {exc}", file=sys.stderr)
            return 2

    journal = None
    store = args.store
    journal_dir = args.journal
    if journal_dir is None and args.resume:
        journal_dir = DEFAULT_JOURNAL
    if journal_dir is not None:
        journal = RunJournal(journal_dir, context_key={
            "seed": args.seed,
            "scale": args.scale,
            "ops_scale": ops_scale,
            "workloads": args.workloads,
            "sanitize": args.sanitize,
        })
        if not journal.compatible:
            print(f"journal {journal_dir} was written under different "
                  f"settings; it now records this run's, and results "
                  f"from other settings are not replayed",
                  file=sys.stderr)
        if store is None:
            # The journal's own store resumes an interrupted experiment
            # cell by cell.  It stays out of the registry, so a
            # --journal run writes nothing outside its directory.
            store = journal.store_dir

    # Announce the run before the first cell simulates: a live
    # `observe --serve` discovers sweeps through the registry, and
    # "the moment they start" is the contract.  The registry lives
    # outside the telemetry dir, which must stay byte-identical
    # between serial and parallel runs.
    registry = None
    run_settings = {
        "scale": args.scale,
        "ops_scale": ops_scale,
        "seed": args.seed,
        "workloads": args.workloads,
        "sanitize": args.sanitize,
    }
    if not args.no_registry and (args.telemetry or args.store
                                 or args.listen):
        from repro.telemetry.session import DEFAULT_REGISTRY, RunRegistry

        registry = RunRegistry(args.registry or DEFAULT_REGISTRY)
        if args.telemetry:
            registry.register_run(args.telemetry, experiments=ids,
                                  settings=run_settings,
                                  status="running")
        if args.store:
            registry.register_store(args.store)

    # Fleet liveness records (kind="fleet") key on a directory like
    # every registry record; the telemetry dir when present, else a
    # conventional anchor.
    fleet_dir = None
    if args.listen is not None and registry is not None:
        fleet_dir = args.telemetry or ".repro-fabric"

    ctx = ExperimentContext(
        SystemConfig.paper_scaled(args.scale),
        seed=args.seed,
        ops_scale=ops_scale,
        workloads=args.workloads,
        sanitize=args.sanitize,
        jobs=args.jobs,
        trace_cache=args.trace_cache,
        repro_dir=args.repro_dir,
        telemetry_dir=args.telemetry,
        progress=args.jobs > 1,
        store=store,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        listen=args.listen,
        lease_ttl=args.lease_ttl,
        lease_size=args.lease_size,
        min_workers=args.min_workers,
        fleet_registry=registry if fleet_dir is not None else None,
        fleet_dir=fleet_dir,
        fabric_authkey=fabric_authkey,
        insecure_fabric=args.insecure_fabric,
    )

    failures = []
    interrupted = False
    terminated = False
    with _sigterm_as_interrupt():
        for experiment_id in ids:
            if args.resume and journal is not None:
                cached = journal.completed(experiment_id)
                if cached is not None:
                    print(f"{cached['title']}\n"
                          f"{'=' * max(len(cached['title']), 8)}\n"
                          f"{cached['text']}")
                    print(f"\n[{experiment_id}: cached from journal]\n")
                    continue
            start = time.time()
            try:
                result = run_with_retries(
                    EXPERIMENTS[experiment_id], ctx, experiment_id,
                    timeout=args.timeout, retries=args.retries,
                    backoff=args.retry_backoff,
                )
            except KeyboardInterrupt as interrupt:
                # Graceful Ctrl-C/SIGTERM: the fabric has already
                # drained in-flight cells; stop taking new experiments
                # and fall through to the flush below
                # (journal/telemetry/store), then exit 130/143.
                interrupted = True
                terminated = isinstance(interrupt, SigTermInterrupt)
                cause = "SIGTERM" if terminated else "interrupted"
                print(f"\n{cause} during {experiment_id}; flushing "
                      "journal/telemetry and exiting", file=sys.stderr)
                break
            except SystemExit:
                raise
            except Exception as exc:
                failures.append((experiment_id, exc))
                print(f"experiment {experiment_id} FAILED: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            print(str(result))
            print(f"\n[{experiment_id}: {time.time() - start:.1f}s]\n")
            if journal is not None:
                journal.record_experiment(result)

    ctx.close()  # dismisses a --listen fleet; no-op otherwise
    if ctx.store is not None:
        stats = ctx.store.stats()
        print(f"results store: {stats['hits']} replayed, "
              f"{stats['puts']} newly stored"
              + (f", {stats['corrupt_records']} corrupt record(s) "
                 "recomputed" if stats["corrupt_records"] else ""),
              file=sys.stderr)
        ctx.store.close()
    if args.telemetry is not None:
        from pathlib import Path

        from repro.telemetry.manifest import write_json, write_run_manifest

        # The index deliberately omits --jobs and wall times so a
        # serial and a parallel run of the same sweep write identical
        # bytes (the perf.json sidecars carry the host-speed story).
        write_run_manifest(
            args.telemetry,
            experiments=ids,
            settings=run_settings,
            cells=ctx.manifests_written,
        )
        # The fabric's scheduling counters vary between identical runs,
        # so they go to a perf sidecar like every host-speed number.
        # A sidecar this run has nothing for is removed: an earlier
        # run's failures or counters must not pass for this run's.
        stats = ctx._executor.fabric_stats
        counters = stats.as_dict() if stats is not None else {}
        host = stats.HOST_COUNTERS if stats is not None else ()
        sidecars = {
            "failed_cells.json": ctx.failed_cells,
            "fabric.json": {name: value for name, value
                            in counters.items() if name not in host},
            "fabric.perf.json": {name: counters[name] for name in host},
        }
        for name, payload in sidecars.items():
            path = Path(args.telemetry, name)
            if payload:
                write_json(path, payload)
            else:
                path.unlink(missing_ok=True)
    if registry is not None and args.telemetry:
        # Flip the registry record to its final status (last writer
        # wins per directory); dashboards stop showing it as live.
        status = "interrupted" if interrupted else (
            "failed" if failures or ctx.failed_cells else "completed")
        registry.register_run(args.telemetry, experiments=ids,
                              settings=run_settings, status=status,
                              cells=len(ctx.manifests_written))
    if ctx.failed_cells:
        print(f"{len(ctx.failed_cells)} sweep cell(s) failed "
              "permanently and render as gaps:", file=sys.stderr)
        for record in ctx.failed_cells:
            print(f"  {record['workload']}/{record['protocol']}: "
                  f"{record['error']} "
                  f"(after {record['attempts']} attempt(s))",
                  file=sys.stderr)
    if interrupted:
        return 143 if terminated else 130
    if failures:
        failed = ", ".join(experiment_id for experiment_id, _ in failures)
        print(f"{len(failures)} of {len(ids)} experiment(s) failed: "
              f"{failed}", file=sys.stderr)
        print(f"{len(ids) - len(failures)} completed successfully"
              + (f"; results journaled in {journal_dir}" if journal else ""),
              file=sys.stderr)
        return 1
    if ctx.failed_cells:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
