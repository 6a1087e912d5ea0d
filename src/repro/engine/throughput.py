"""Throughput (bottleneck / roofline) timing engine.

GPUs are latency-tolerant and throughput-bound, so execution time is
modelled as the busy time of the most-contended resource:

* per-GPM instruction issue (``ops / issue_rate``) plus exposed
  synchronization stalls,
* per-GPM L2 data banks,
* per-GPM DRAM partitions,
* per-GPU intra-GPU crossbars (inter-GPM network, 2 TB/s),
* per-GPU inter-GPU links (200 GB/s each direction).

The functional coherence model attributes every byte exactly, so the
*relative* ordering of protocols — the paper's actual claim — follows
directly from the byte accounting.  The engine is deterministic and
runs millions of trace ops per second, which is what makes the full
20-workload x 6-protocol x sensitivity sweeps tractable.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Iterator

from repro.config import SystemConfig
from repro.core.protocol import (CoherenceProtocol, MessagePlan,
                                 TrafficSink)
from repro.core.types import MsgType, NodeId
from repro.engine.stats import (
    SimResult,
    aggregate_l1_stats,
    aggregate_l2_stats,
    roll_up,
    total_dram_bytes,
)


class ThroughputSink(TrafficSink):
    """Aggregates message bytes onto interconnect resources.

    A message between GPMs of one GPU crosses that GPU's crossbar once.
    A message between GPUs crosses the source crossbar, the source GPU's
    egress link, the destination GPU's ingress link, and the destination
    crossbar.
    """

    def __init__(self, num_gpus: int):
        self.xbar_bytes = [0] * num_gpus
        self.link_out_bytes = [0] * num_gpus
        self.link_in_bytes = [0] * num_gpus
        #: MessagePlan -> its ``(gpu, bytes)`` deltas on the crossbar,
        #: link-out and link-in vectors (see :meth:`charge`).
        self._routes: dict = {}

    def send(self, mtype: MsgType, src: NodeId, dst: NodeId,
             line: int, size_bytes: int) -> None:
        if src == dst:
            return
        if src.gpu == dst.gpu:
            self.xbar_bytes[src.gpu] += size_bytes
            return
        self.xbar_bytes[src.gpu] += size_bytes
        self.link_out_bytes[src.gpu] += size_bytes
        self.link_in_bytes[dst.gpu] += size_bytes
        self.xbar_bytes[dst.gpu] += size_bytes

    def charge(self, plan: MessagePlan) -> None:
        """Add a plan's per-GPU byte totals, routed once per plan by
        replaying its messages through :meth:`send` on a scratch sink.
        Byte counts are integers, so the totals equal the message-by-
        message sums exactly."""
        route = self._routes.get(plan)
        if route is None:
            scratch = ThroughputSink(len(self.xbar_bytes))
            TrafficSink.charge(scratch, plan)
            route = self._routes[plan] = tuple(
                tuple((gpu, nbytes) for gpu, nbytes in enumerate(vector)
                      if nbytes)
                for vector in (scratch.xbar_bytes, scratch.link_out_bytes,
                               scratch.link_in_bytes))
        for vector, deltas in zip((self.xbar_bytes, self.link_out_bytes,
                                   self.link_in_bytes), route):
            for gpu, nbytes in deltas:
                vector[gpu] += nbytes


class ThroughputEngine:
    """Runs a trace through a protocol and produces a :class:`SimResult`.

    An optional :class:`repro.faults.FaultPlan` degrades interconnect
    resources: the engine has no clock, so each affected resource class
    is charged the plan's duty-cycle time-expansion factor (see
    :meth:`repro.faults.FaultPlan.time_expansion`).  The plan and the
    link rates are read only by :func:`repro.engine.stats.roll_up`,
    after the per-op loop.
    """

    name = "throughput"

    def __init__(self, cfg: SystemConfig, fault_plan=None):
        self.cfg = cfg
        self.fault_plan = fault_plan

    def run(self, protocol: CoherenceProtocol, trace,
            workload_name: str = "trace", sanitizer=None,
            telemetry=None) -> SimResult:
        """Process every op of ``trace`` (an iterable of MemOp).

        ``telemetry`` is an optional
        :class:`repro.telemetry.TelemetrySession`.  The clockless
        engine samples analytically per phase: the sampler's clock is
        the op index, and messages trace as zero-duration instants
        (via :class:`repro.telemetry.session.TallyingSink`, which the
        simulator front-end installs).  ``None`` keeps the
        uninstrumented loops below untouched.
        """
        cfg = self.cfg
        sink = protocol.sink
        if not isinstance(sink, ThroughputSink):
            raise TypeError(
                "protocol must be constructed with a ThroughputSink "
                "(use repro.engine.simulator.simulate)"
            )
        tolerance = cfg.timing.latency_tolerance
        stall = [0.0] * cfg.total_gpms
        # The per-op loop dominates a run's wall clock; bound lookups
        # are hoisted into locals and the sanitizer branch is lifted out
        # of the loop entirely for plain runs.  Telemetry gets its own
        # loop variant for the same reason: plain runs never test for it.
        # Every variant dispatches straight to the protocol's per-kind
        # handlers: the op counts ``process()`` tallies op by op depend
        # only on the trace, so they are added once, after the loop.
        handlers = protocol.handlers()
        gpms_per_gpu = cfg.gpms_per_gpu
        tracer = sampler = None
        if telemetry is not None:
            tracer = telemetry.active_tracer
            protocol.set_tracer(tracer)
            sampler = telemetry.sampler
            if sampler is not None:
                from repro.telemetry.session import make_throughput_snapshot

                sampler.attach(make_throughput_snapshot(
                    protocol, sink, telemetry
                ))
        # The loop allocates millions of short-lived objects (outcomes,
        # cache lines); none of them form cycles, so the cyclic GC's
        # periodic generation scans are pure overhead — pause it for the
        # duration.  Reference counting still frees everything promptly.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # wall_seconds times the loop alone: a column-form trace builds
        # its op list and its op summary here, before the clock starts
        # (a one-shot iterator keeps streaming and is counted as it
        # goes).  A local import, as in the simulator: loading the trace
        # package while the engines import raised peak RSS.
        from repro.trace.stream import OpSummary, Trace

        if isinstance(trace, Trace):
            summary = trace.op_summary()
            trace = trace.ops
        elif isinstance(trace, Iterator):
            summary = OpSummary()
            trace = summary.counting(trace)
        else:
            summary = OpSummary.of(trace)
        start = time.perf_counter()
        try:
            if telemetry is not None:
                has_scope = hasattr(sink, "scope")
                timed = tracer.enabled
                for index, op in enumerate(trace):
                    if timed:
                        tracer.set_time(float(index))
                    if has_scope:
                        sink.scope = op.scope
                    if sampler is not None:
                        sampler.tick(float(index))
                    outcome = handlers[op.op](op)
                    if sanitizer is not None:
                        sanitizer.after_op(protocol, op, outcome, index)
                    if outcome.exposed:
                        node = op.node
                        flat = node.gpu * gpms_per_gpu + node.gpm
                        stall[flat] += outcome.latency / tolerance
            elif sanitizer is None:
                for op in trace:
                    outcome = handlers[op.op](op)
                    if outcome.exposed:
                        node = op.node
                        flat = node.gpu * gpms_per_gpu + node.gpm
                        stall[flat] += outcome.latency / tolerance
            else:
                for index, op in enumerate(trace):
                    outcome = handlers[op.op](op)
                    sanitizer.after_op(protocol, op, outcome, index)
                    if outcome.exposed:
                        node = op.node
                        flat = node.gpu * gpms_per_gpu + node.gpm
                        stall[flat] += outcome.latency / tolerance
        finally:
            wall_seconds = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
        protocol.count_ops(summary)
        ops = summary.total
        if sampler is not None:
            sampler.finish(float(max(ops, 1)))

        timing = cfg.timing
        issue = [
            protocol.ops_per_gpm[i] / timing.issue_rate_per_gpm
            + stall[i]
            + protocol.bulk_invs_per_gpm[i] * timing.bulk_invalidate_cycles
            for i in range(cfg.total_gpms)
        ]
        l2 = [b / timing.l2_bytes_per_cycle
              for b in protocol.l2_bytes_per_gpm]
        dram_bpc = cfg.dram_bytes_per_cycle_per_gpm
        dram = [
            protocol.dram[i].stats.total_bytes / dram_bpc
            for i in range(cfg.total_gpms)
        ]
        link_bytes = [(sink.link_out_bytes[g], sink.link_in_bytes[g])
                      for g in range(cfg.num_gpus)]
        resources, cycles, degradation = roll_up(
            cfg, self.fault_plan, issue=issue, l2=l2, dram=dram,
            xbar_bytes=sink.xbar_bytes, link_bytes=link_bytes,
            msg_counts=protocol.stats.msg_counts)
        return SimResult(
            protocol_name=protocol.name,
            workload_name=workload_name,
            cfg=cfg,
            cycles=cycles,
            resources=resources,
            stats=protocol.stats,
            l1_stats=aggregate_l1_stats(protocol),
            l2_stats=aggregate_l2_stats(protocol),
            dram_bytes=total_dram_bytes(protocol),
            ops=ops,
            link_bytes=link_bytes,
            xbar_bytes=list(sink.xbar_bytes),
            wall_seconds=wall_seconds,
            degradation=degradation,
        )
