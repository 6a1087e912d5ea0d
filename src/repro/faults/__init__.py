"""Fault injection: deterministic interconnect degradation plans.

See :mod:`repro.faults.plan` for the simulated-fabric model and
:mod:`repro.experiments.faults` for the experiment built on it.  The
host-level sweep adversary is :mod:`repro.experiments.chaos`.
"""

from repro.faults.plan import (
    FAULT_PLANS,
    FaultPlan,
    LinkFaultProfile,
    LinkFaultSpec,
    MessageJitterSpec,
    MessageLossSpec,
    make_fault_plan,
)

__all__ = [
    "FAULT_PLANS",
    "FaultPlan",
    "LinkFaultProfile",
    "LinkFaultSpec",
    "MessageJitterSpec",
    "MessageLossSpec",
    "make_fault_plan",
]
