"""Fault injection and formal/probabilistic verification for the FLOV
handshake (see ``docs/testing.md``).

Three layers:

* :class:`FaultInjector` / :class:`FaultPlan` — deterministic, seedable
  runtime fault source attached to a live :class:`~repro.noc.network.
  Network` (opt-in, ``is not None`` detached contract like ``repro.obs``);
* :mod:`repro.faults.modelcheck` — explicit-state enumeration of the
  handshake-FSM product on small meshes under adversarial interleavings;
* :mod:`repro.faults.soak` — randomized fault soaks with quiescence
  checking and liveness diagnosis, fanned out via
  :class:`~repro.harness.parallel.ParallelSweep`.
"""

from .injector import (FAULTABLE_KINDS, REORDER_SAFE_KINDS,
                       FaultInjector, FaultPlan)
from .modelcheck import CheckResult, ModelConfig, check_model
from .soak import (FaultSoakReport, FaultSoakSpec, diagnose_liveness,
                   run_fault_soak)

__all__ = [
    "FAULTABLE_KINDS",
    "REORDER_SAFE_KINDS",
    "FaultInjector",
    "FaultPlan",
    "CheckResult",
    "ModelConfig",
    "check_model",
    "FaultSoakReport",
    "FaultSoakSpec",
    "diagnose_liveness",
    "run_fault_soak",
]
