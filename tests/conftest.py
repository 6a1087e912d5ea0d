"""Shared fixtures for the test suite.

Tests run on aggressively scaled configurations (1/64) and short traces
so the whole suite stays fast; correctness of the protocols does not
depend on capacity.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core.protocol import RecordingSink
from repro.core.registry import make_protocol
from repro.core.types import MemOp, NodeId, OpType, Scope


@pytest.fixture
def cfg():
    """Small 4-GPU x 4-GPM platform for protocol tests."""
    return SystemConfig.paper_scaled(1.0 / 64)


@pytest.fixture
def tiny_cfg():
    """Even smaller: tiny directory so evictions are easy to force."""
    return SystemConfig.paper_scaled(
        1.0 / 64, dir_entries_per_gpm=16, dir_ways=4
    )


@pytest.fixture
def two_gpu_cfg():
    return SystemConfig.paper_scaled(1.0 / 64, num_gpus=2)


@pytest.fixture
def single_gpu_cfg():
    return SystemConfig.paper_scaled(1.0 / 64, num_gpus=1)


@pytest.fixture
def bench_cfg():
    """The default experiment platform (what the benches use)."""
    return SystemConfig.paper_scaled()


def make(cfg, name, sink=None, placement="first_touch"):
    return make_protocol(name, cfg, sink=sink, placement=placement)


@pytest.fixture
def recording():
    return RecordingSink()


# ----------------------------------------------------------------------
# Op helpers
# ----------------------------------------------------------------------

def ld(node, addr, scope=Scope.CTA, cta=None, size=128):
    return MemOp(OpType.LOAD, addr, node,
                 cta=cta if cta is not None else 0, scope=scope, size=size)


def st(node, addr, scope=Scope.CTA, cta=None, size=128):
    return MemOp(OpType.STORE, addr, node,
                 cta=cta if cta is not None else 0, scope=scope, size=size)


def atom(node, addr, scope=Scope.GPU, size=16):
    return MemOp(OpType.ATOMIC, addr, node, scope=scope, size=size)


def acq(node, addr, scope=Scope.GPU):
    return MemOp(OpType.ACQUIRE, addr, node, scope=scope, size=8)


def rel(node, addr, scope=Scope.GPU):
    return MemOp(OpType.RELEASE, addr, node, scope=scope, size=8)


def boundary(node):
    return MemOp(OpType.KERNEL_BOUNDARY, 0, node, scope=Scope.SYS)


def bind_home(proto, node, addr=0):
    """First-touch a page so its system home is ``node``."""
    proto.process(st(node, addr))
    assert proto.sys_home(proto.amap.line_of(addr), node) == node
    return proto.amap.line_of(addr)


N00 = NodeId(0, 0)
N01 = NodeId(0, 1)
N02 = NodeId(0, 2)
N10 = NodeId(1, 0)
N11 = NodeId(1, 1)
N20 = NodeId(2, 0)


@pytest.fixture
def manifests():
    """A sweep's byte-identity witness: ``manifests(ctx, telemetry_dir)``
    is its manifest slugs in completion order plus every
    ``*.metrics.json`` under ``telemetry_dir``, byte for byte."""

    def witness(ctx, telemetry_dir):
        return (list(ctx.manifests_written),
                {path.name: path.read_bytes()
                 for path in sorted(telemetry_dir.glob("*.metrics.json"))})

    return witness
