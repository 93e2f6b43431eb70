"""Circuit optimisation: a pass-manager pipeline over the circuit IR.

A :class:`Pass` is a pure ``Circuit -> Circuit`` rewrite; a
:class:`PassManager` chains passes and records per-pass statistics;
:func:`transpile` is the convenience front door running the default
pipeline (drop identities, cancel inverse pairs, fuse adjacent gates).
Fusion multiplies with :func:`repro.transpile.fusion.contract`, the one
tensordot kernel that plan ops and ``apply_gate_tensor`` also apply.

The layer depends only on ``repro.circuit``/``repro.gates`` — simulators
opt in via ``RunOptions(optimize=True)`` or ``RunOptions(passes=...)``,
and :func:`repro.plan.compile_plan` runs the pipeline without the
transpiler ever importing a backend.
"""

from repro.transpile.base import Pass, PassManager, PassStats, transpile, default_passes
from repro.transpile.cleanup import CancelInversePairs, DropIdentities
from repro.transpile.fusion import FuseAdjacentGates

__all__ = [
    "CancelInversePairs",
    "DropIdentities",
    "FuseAdjacentGates",
    "Pass",
    "PassManager",
    "PassStats",
    "default_passes",
    "transpile",
]
