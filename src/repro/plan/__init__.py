"""Compiled execution plans: lower once, run many.

:func:`compile_plan` is the one path from a (possibly parametric) circuit
to an :class:`ExecutionPlan`: it runs the requested pass pipeline, lowers
the result, and constructs the plan once.  A plan is a flat sequence of
precomputed ops, with contraction axes resolved and noise-model rules
matched per instruction (each contraction is one call of
:func:`repro.transpile.fusion.contract`):

* :class:`ContractOp` — a gate unitary onto a pure state, or a (fused)
  real Pauli-transfer matrix onto a Pauli vector in ``"ptm"`` plans;
* :class:`DensityUnitaryOp` / :class:`DensityKrausOp` — ``U rho U†`` and
  Kraus sums on a density tensor;
* :class:`TrajectoryKrausOp` — one sampled Kraus branch per application;
* :class:`MeasureOp` / :class:`ResetOp` / :class:`ConditionalOp` — the
  dynamic instructions;
* :class:`ParametricSlotOp` — a parametric gate that
  :meth:`~ExecutionPlan.bind` resolves without re-lowering.

Backends execute plans through one shared tight loop
(:meth:`~repro.sim.BaseBackend.execute_plan`); :func:`run_batched_sweep`
evolves all N bindings of a statevector sweep as a single batch-axis
tensor, one contraction per op.

Plans are cached process-wide (:mod:`repro.plan.cache`) so repeated
execution of the same circuit under the same options skips compilation.
"""

from repro.plan.plan import (
    ConditionalOp,
    ContractOp,
    DensityKrausOp,
    DensityUnitaryOp,
    ExecutionPlan,
    MeasureOp,
    ParametricSlotOp,
    ResetOp,
    TrajectoryKrausOp,
    add_lower_hook,
    compile_plan,
    execute_dynamic_density,
    execute_dynamic_pure,
    remove_lower_hook,
)
from repro.plan.batch import run_batched_sweep
from repro.plan.cache import clear_plan_cache, plan_cache_info

__all__ = [
    "ConditionalOp",
    "ContractOp",
    "DensityKrausOp",
    "DensityUnitaryOp",
    "ExecutionPlan",
    "MeasureOp",
    "ParametricSlotOp",
    "ResetOp",
    "TrajectoryKrausOp",
    "add_lower_hook",
    "clear_plan_cache",
    "compile_plan",
    "execute_dynamic_density",
    "execute_dynamic_pure",
    "plan_cache_info",
    "remove_lower_hook",
    "run_batched_sweep",
]
