"""Trace synthesis: op streams, pattern generators, Table III catalog."""

from repro.trace.generator import (
    GenContext,
    PATTERNS,
    WorkloadSpec,
    partition,
    register_pattern,
)
from repro.trace.io import dump_trace, iter_trace_ops, load_trace
from repro.trace.stream import Trace, interleave
from repro.trace.workloads import (
    FIGURE_ORDER,
    WORKLOADS,
    get_workload,
    workload_names,
)

__all__ = [
    "FIGURE_ORDER", "GenContext", "PATTERNS", "Trace", "WORKLOADS",
    "WorkloadSpec", "dump_trace", "get_workload", "interleave",
    "iter_trace_ops", "load_trace", "partition",
    "register_pattern", "workload_names",
]
