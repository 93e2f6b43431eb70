"""Batched sweep execution: N parameter bindings, one contraction per op.

A parameter sweep of N bindings over a statevector plan does not need N
separate evolutions: the N pure states stack into a single
``(N, 2, ..., 2)`` tensor (axis 0 = sweep point) and every op evolves all
of them at once.  Non-parametric ops broadcast — the same gate tensor
contracts onto the shifted target axes of the whole batch in one
``tensordot`` — while parametric slots build a stacked ``(N, 2**k, 2**k)``
matrix (one binding per point) and contract it point-wise via ``einsum``.
The arithmetic per amplitude is identical to N eager runs; the Python and
dispatch overhead is paid once instead of N times.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np

from repro.plan.plan import STATEVECTOR, ExecutionPlan
from repro.utils.exceptions import SimulationError


def _apply_stacked(
    batch: np.ndarray, matrices: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Contract per-point ``(N, 2**k, 2**k)`` matrices onto the batch.

    The target axes move next to the point axis, the state flattens to
    ``(N, 2**k, rest)``, and one ``einsum`` applies matrix ``i`` to state
    ``i`` — the batched analogue of a single gate contraction.
    """
    k = len(targets)
    dim = 1 << k
    points = batch.shape[0]
    shifted = tuple(t + 1 for t in targets)
    moved = np.moveaxis(batch, shifted, tuple(range(1, k + 1)))
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(points, dim, -1)
    out = np.einsum("nij,njr->nir", matrices, flat)
    return np.moveaxis(out.reshape(shape), tuple(range(1, k + 1)), shifted)


def run_batched_sweep(
    plan: ExecutionPlan,
    bindings: Sequence[Mapping[str, float]],
) -> np.ndarray:
    """Evolve all sweep ``bindings`` of ``plan`` as one batched state.

    Parameters
    ----------
    plan:
        A ``"statevector"``-mode :class:`~repro.plan.ExecutionPlan`
        (parametric or fully bound).  Density plans must go point-by-point
        — Kraus sums over an O(4**n) tensor leave no memory headroom for a
        batch axis.
    bindings:
        One mapping of parameter *name* to value per sweep point; every
        plan parameter must appear in every binding.

    Returns
    -------
    numpy.ndarray
        The ``(N,) + (2,) * n`` batch of final states from ``|0...0>``,
        in binding order; slice ``[i]`` is sweep point ``i``.
    """
    if not isinstance(plan, ExecutionPlan):
        raise SimulationError(
            f"expected an ExecutionPlan, got {type(plan).__name__}"
        )
    if plan.mode != STATEVECTOR:
        raise SimulationError(
            f"batched sweeps require a statevector plan, got mode {plan.mode!r}"
        )
    if plan.has_dynamic_ops:
        raise SimulationError(
            "batched sweeps cannot run dynamic circuits: measure/reset/"
            "if_bit collapse each sweep point independently, so there is "
            "no shared batched contraction — use sweep_mode='per_element'"
        )
    points = len(bindings)
    if points == 0:
        raise SimulationError("batched sweep needs at least one binding")
    from repro.circuit.parameter import normalize_binding, validate_binding_names

    names = {parameter.name for parameter in plan.parameters}
    resolved: List[Mapping[str, float]] = []
    for index, binding in enumerate(bindings):
        point = normalize_binding(
            binding, SimulationError, label=f"sweep binding {index}"
        )
        validate_binding_names(
            point,
            names,
            SimulationError,
            label=f"sweep binding {index}",
            subject="plan",
            require_complete=True,
        )
        resolved.append(point)

    n = plan.num_qubits
    batch = np.zeros((points,) + (2,) * n, dtype=plan.dtype)
    batch[(slice(None),) + (0,) * n] = 1.0
    for op in plan.ops:
        if op.is_slot:
            matrices = np.stack(
                [op.resolve_matrix(binding) for binding in resolved]
            ).astype(plan.dtype)
            batch = _apply_stacked(batch, matrices, op.targets, n)
        else:
            batch = op.apply_batched(batch)
    return batch
