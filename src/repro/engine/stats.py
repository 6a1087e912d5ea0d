"""Simulation results, aggregate statistics and the shared roll-up."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.protocol import CoherenceProtocol, ProtocolStats
from repro.core.types import MsgType
from repro.memsys.cache import CacheStats


@dataclass
class ResourceTimes:
    """Busy time, in cycles, of every throughput-limiting resource."""

    issue: list = field(default_factory=list)  # per flat GPM
    l2: list = field(default_factory=list)  # per flat GPM
    dram: list = field(default_factory=list)  # per flat GPM
    xbar: list = field(default_factory=list)  # per GPU
    link: list = field(default_factory=list)  # per GPU (max of in/out)

    def bottleneck(self) -> tuple:
        """(resource_name, index, cycles) of the binding constraint."""
        best = ("none", -1, 0.0)
        for name, values in (
            ("issue", self.issue),
            ("l2", self.l2),
            ("dram", self.dram),
            ("xbar", self.xbar),
            ("link", self.link),
        ):
            for i, v in enumerate(values):
                if v > best[2]:
                    best = (name, i, v)
        return best

    @property
    def max_cycles(self) -> float:
        return self.bottleneck()[2]

    def class_maxima(self) -> dict:
        """Busiest instance of each resource class."""
        return {
            "issue": max(self.issue, default=0.0),
            "l2": max(self.l2, default=0.0),
            "dram": max(self.dram, default=0.0),
            "xbar": max(self.xbar, default=0.0),
            "link": max(self.link, default=0.0),
        }

    def total_cycles(self, overlap_tax: float) -> float:
        """Execution time: the busiest resource class, plus an
        imperfect-overlap tax on the other classes' busy time."""
        maxima = list(self.class_maxima().values())
        peak = max(maxima)
        return peak + overlap_tax * (sum(maxima) - peak)


@dataclass
class DegradationStats:
    """Graceful-degradation counters under a lossy fault plan.

    The detailed engine counts real per-message events (each drop draw
    is deterministic in ``(message index, attempt)``); the throughput
    engine, having no per-message clock, reports the analytic
    expectation from :meth:`repro.faults.FaultPlan.expected_loss_counters`.
    Either way, nonzero counters are the signal that a degraded sweep
    *recovered* rather than stalling.
    """

    #: Retransmissions performed (every drop or timeout triggers one).
    retries: int = 0
    #: Retry timers that expired before the original delivery arrived.
    timeouts: int = 0
    #: Messages the fabric dropped outright.
    dropped_messages: int = 0
    #: Dropped messages whose retransmission eventually delivered.
    recovered_messages: int = 0

    def merge(self, other: "DegradationStats") -> None:
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.dropped_messages += other.dropped_messages
        self.recovered_messages += other.recovered_messages

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "dropped_messages": self.dropped_messages,
            "recovered_messages": self.recovered_messages,
        }


@dataclass
class SimResult:
    """Everything a run produced: time, traffic, coherence events."""

    protocol_name: str
    workload_name: str
    cfg: SystemConfig
    cycles: float
    resources: ResourceTimes
    stats: ProtocolStats
    l1_stats: CacheStats
    l2_stats: CacheStats
    dram_bytes: int
    ops: int
    #: Per-GPU inter-GPU link bytes (out, in).
    link_bytes: list = field(default_factory=list)
    #: Per-GPU intra-GPU crossbar bytes.
    xbar_bytes: list = field(default_factory=list)
    #: Host wall-clock seconds the engine spent in its per-op loop.
    #: Purely observational (simulator throughput, not simulated time):
    #: it varies run to run and is deliberately excluded from journals
    #: and experiment data so replays stay byte-identical.
    wall_seconds: float = 0.0
    #: Message-loss recovery counters; None when the run had no lossy
    #: fault plan.
    degradation: DegradationStats = None
    #: Which engine actually produced this result ("throughput",
    #: "vectorized", or "detailed"); set by
    #: :func:`repro.engine.simulator.simulate` so an accidental
    #: vectorized->scalar fallback is diagnosable from manifests.
    #: Results unpickled from pre-existing stores may lack the
    #: attribute — read via ``getattr(result, "engine_used", "")``.
    engine_used: str = ""

    @property
    def seconds(self) -> float:
        return self.cycles / self.cfg.cycles_per_second

    @property
    def bottleneck(self) -> str:
        name, index, _cycles = self.resources.bottleneck()
        return f"{name}[{index}]"

    def speedup_over(self, baseline: "SimResult") -> float:
        """Normalized speedup: baseline cycles / our cycles."""
        if self.cycles <= 0:
            raise ValueError("cannot compute speedup of a zero-cycle run")
        return baseline.cycles / self.cycles

    @property
    def ops_per_second(self) -> float:
        """Simulator throughput: trace ops processed per host second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops / self.wall_seconds

    @property
    def inv_bandwidth_gbps(self) -> float:
        """Fig 11 metric: invalidation-message bytes per second of
        simulated time, in (decimal) GB/s."""
        if self.seconds <= 0:
            return 0.0
        return self.stats.inv_bytes / self.seconds / 1e9

    @property
    def inter_gpu_bytes(self) -> int:
        return sum(out_b + in_b for out_b, in_b in self.link_bytes)

    def summary(self) -> str:
        """Multi-line human-readable digest of the run."""
        lines = [
            f"workload={self.workload_name} protocol={self.protocol_name}",
            f"  cycles={self.cycles:.0f} ({self.seconds * 1e6:.1f} us)"
            f" bottleneck={self.bottleneck}",
            f"  ops={self.ops} l2_hit_rate={self.l2_stats.hit_rate:.3f}"
            f" l1_hit_rate={self.l1_stats.hit_rate:.3f}",
            f"  inter_gpu_bytes={self.inter_gpu_bytes}"
            f" inv_msgs={self.stats.inv_messages}"
            f" inv_bw={self.inv_bandwidth_gbps:.3f}GB/s",
        ]
        return "\n".join(lines)


def apply_fault_expansion(plan, l2, dram, xbar, link):
    """Degrade busy times under a :class:`repro.faults.FaultPlan`.

    Each affected resource class is stretched by the plan's duty-cycle
    time-expansion factor, and message loss additionally inflates the
    network classes by the expected retransmission attempts.  Returns
    the four (possibly new) lists in the same order.
    """
    if plan is None or plan.is_noop:
        return l2, dram, xbar, link
    l2 = [t * plan.time_expansion("l2") for t in l2]
    dram = [t * plan.time_expansion("dram") for t in dram]
    xbar = [t * plan.time_expansion("xbar") for t in xbar]
    link = [t * plan.time_expansion("link") for t in link]
    if plan.message_loss is not None:
        # Retransmitted requests re-cross the interconnect; the
        # expected extra attempts inflate network busy time (the
        # detailed engine draws the exact per-message retries).
        expansion = plan.retry_expansion()
        xbar = [t * expansion for t in xbar]
        link = [t * expansion for t in link]
    return l2, dram, xbar, link


#: ``SystemConfig`` fields that only :func:`roll_up` reads.  Neither
#: throughput engine's per-op loop sees them, so two runs whose configs
#: differ only here (and whose fault plans differ) produce the same loop
#: totals, and :func:`derive` turns one result into the other.
ROLL_UP_FIELDS = ("inter_gpu_bw_gbps",)

#: Engines whose results :func:`derive` can roll up again: the detailed
#: engine's event loop reads link rates and fault windows itself.
ROLL_UP_ENGINES = ("throughput", "vectorized")


def roll_up(cfg: SystemConfig, fault_plan, *, issue, l2, dram, xbar_bytes,
            link_bytes, msg_counts) -> tuple:
    """Resource times, cycles and loss counters from a run's loop totals.

    The one tail the scalar and vectorized throughput engines share, and
    the only place either reads the link rates or a fault plan.
    ``issue``, ``l2`` and ``dram`` are busy cycles per flat GPM, before
    any fault expansion; ``xbar_bytes`` is per GPU, ``link_bytes`` the
    per-GPU (out, in) pairs and ``msg_counts`` the protocol's message
    tally.  Returns ``(resources, cycles, degradation)``; degradation is
    the analytic expectation of a lossy plan over the requests the run
    emitted (the clockless engines cannot draw per-message drops), and
    None without message loss.
    """
    xbar_bpc = cfg.inter_gpm_bytes_per_cycle
    link_bpc = cfg.inter_gpu_bytes_per_cycle
    xbar = [b / xbar_bpc for b in xbar_bytes]
    link = [max(out_b, in_b) / link_bpc for out_b, in_b in link_bytes]
    l2, dram, xbar, link = apply_fault_expansion(fault_plan, l2, dram,
                                                 xbar, link)
    resources = ResourceTimes(issue=issue, l2=l2, dram=dram, xbar=xbar,
                              link=link)
    cycles = max(resources.total_cycles(cfg.timing.overlap_tax), 1.0)
    degradation = None
    if fault_plan is not None and fault_plan.message_loss is not None:
        requests = sum(msg_counts.get(m, 0)
                       for m in (MsgType.LOAD_REQ, MsgType.STORE_REQ))
        degradation = DegradationStats(
            **fault_plan.expected_loss_counters(requests))
    return resources, cycles, degradation


def functional_config(cfg: SystemConfig) -> SystemConfig:
    """``cfg`` with every :data:`ROLL_UP_FIELDS` entry at its default:
    configs with equal functional configs drive the per-op loop alike."""
    return cfg.replace(**{name: getattr(SystemConfig, name)
                          for name in ROLL_UP_FIELDS})


def derive(result: SimResult, cfg: SystemConfig,
           fault_plan=None) -> SimResult:
    """What ``result``'s run yields on ``cfg`` under ``fault_plan``,
    without running it again.

    ``result`` must come from a throughput engine (scalar or
    vectorized) run with no fault plan or a no-op one, on a config that
    differs from ``cfg`` at most in :data:`ROLL_UP_FIELDS`.  Its issue,
    L2 and DRAM busy times, byte counts and counters are then exactly
    what the loop would produce again, so only :func:`roll_up` runs.
    The new result shares them with ``result`` (a completed result is
    never mutated), and its ``wall_seconds`` is 0.0: no loop ran.
    """
    engine = getattr(result, "engine_used", "")
    if engine not in ROLL_UP_ENGINES:
        raise ValueError(f"cannot derive from a {engine or 'bare'!r} "
                         f"engine result; expected one of "
                         f"{ROLL_UP_ENGINES}")
    if functional_config(cfg) != functional_config(result.cfg):
        raise ValueError("derive() may change only the roll-up fields "
                         f"{ROLL_UP_FIELDS} of the result's config")
    resources, cycles, degradation = roll_up(
        cfg, fault_plan, issue=result.resources.issue,
        l2=result.resources.l2, dram=result.resources.dram,
        xbar_bytes=result.xbar_bytes, link_bytes=result.link_bytes,
        msg_counts=result.stats.msg_counts)
    return dataclasses.replace(result, cfg=cfg, cycles=cycles,
                               resources=resources, wall_seconds=0.0,
                               degradation=degradation)


def aggregate_l1_stats(protocol: CoherenceProtocol) -> CacheStats:
    """Machine-wide L1 counters, summed over every slice."""
    total = CacheStats()
    for slices in protocol.l1:
        for sl in slices:
            total.merge(sl.stats)
    return total


def aggregate_l2_stats(protocol: CoherenceProtocol) -> CacheStats:
    """Machine-wide L2 counters, summed over every partition."""
    total = CacheStats()
    for l2 in protocol.l2:
        total.merge(l2.stats)
    return total


def total_dram_bytes(protocol: CoherenceProtocol) -> int:
    """Bytes moved by every DRAM partition."""
    return sum(d.stats.total_bytes for d in protocol.dram)


def message_byte_breakdown(stats: ProtocolStats) -> dict:
    """Human-keyed message byte totals for reports."""
    return {mtype.name: stats.msg_bytes.get(mtype, 0) for mtype in MsgType}
