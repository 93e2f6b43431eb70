"""Vectorised statevector execution of circuit IR.

The state lives as a ``(2,) * n`` tensor (axis ``q`` = qubit ``q``) and a
``k``-qubit gate is contracted onto its target axes with
:func:`numpy.tensordot` — an O(2**n * 2**k) operation — instead of being
embedded into a dense ``2**n x 2**n`` operator, which would cost O(4**n)
memory and time.  :func:`apply_gate_tensor` is that contraction for a
single ad-hoc application (observables and state queries use it);
circuit evolution itself goes through a compiled
:class:`~repro.plan.ExecutionPlan`, whose ops precompute the same
reshape/axis bookkeeping once per circuit instead of once per call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.noise import NoiseModel

import numpy as np

from repro.sim.registry import BaseBackend, register_backend
from repro.sim.statevector import Statevector
from repro.transpile.fusion import contract
from repro.utils.exceptions import SimulationError


def apply_gate_tensor(
    state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
) -> np.ndarray:
    """Contract a ``2**k x 2**k`` gate onto ``targets`` of a ``(2,) * n`` state.

    ``targets[0]`` is the gate's most significant index bit, matching the
    bitstring convention.  Returns a new ``(2,) * n`` tensor, contracted
    by the plan ops' tensordot kernel :func:`~repro.transpile.fusion.contract`.
    """
    k = len(targets)
    # Match the state's dtype so a complex64 simulation is not silently
    # promoted back to complex128 by the contraction.
    gate_tensor = np.asarray(matrix, dtype=state.dtype).reshape((2,) * (2 * k))
    return contract(
        state, gate_tensor, tuple(targets), tuple(range(k, 2 * k)), tuple(range(k))
    )


class StatevectorBackend(BaseBackend):
    """Executes :class:`~repro.circuit.Circuit` IR on a dense statevector.

    ``run()`` and the evolution loop come from
    :class:`~repro.sim.registry.BaseBackend` — every circuit lowers to a
    ``"statevector"``-mode :class:`~repro.plan.ExecutionPlan` (channel
    instructions are rejected at compile time) and executes through the
    shared ``execute_plan`` loop.  This class supplies only the
    pure-state representation hooks and the noise policy: a
    :class:`~repro.noise.NoiseModel` with gate-noise rules is rejected
    (a pure state cannot represent Kraus mixing — use the
    ``density_matrix`` backend), while a readout-error-only model is
    accepted and applied by the sampling layer, not here.

    Parameters
    ----------
    dtype:
        Amplitude dtype, ``complex128`` (default) or ``complex64`` for
        halved memory on wide registers.
    """

    name = "statevector"
    plan_mode = "statevector"

    def __init__(self, dtype: np.dtype = np.complex128) -> None:
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise SimulationError(f"unsupported amplitude dtype {dtype}")
        self._dtype = dtype

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def _validate_noise(self, noise_model: Optional["NoiseModel"]) -> None:
        if noise_model is not None and getattr(noise_model, "has_gate_noise", False):
            raise SimulationError(
                "the statevector backend cannot apply gate noise; "
                "use backend='density_matrix'"
            )

    def _initial_tensor(
        self, num_qubits: int, initial_state: Union[None, str, Statevector]
    ) -> np.ndarray:
        """The starting ``(2,) * n`` amplitude tensor.

        ``initial_state`` may be ``None`` (``|0...0>``), a bitstring, or
        an existing :class:`Statevector` of matching width.
        """
        if initial_state is None:
            state = np.zeros((2,) * num_qubits, dtype=self._dtype)
            state[(0,) * num_qubits] = 1.0
            return state
        if isinstance(initial_state, str):
            if len(initial_state) != num_qubits:
                raise SimulationError(
                    f"initial bitstring {initial_state!r} has "
                    f"{len(initial_state)} bits, circuit has {num_qubits} qubits"
                )
            return (
                Statevector.from_bitstring(initial_state)
                .tensor()
                .astype(self._dtype)
            )
        if isinstance(initial_state, Statevector):
            if initial_state.num_qubits != num_qubits:
                raise SimulationError(
                    f"initial state has {initial_state.num_qubits} qubits, "
                    f"circuit has {num_qubits}"
                )
            return initial_state.tensor().astype(self._dtype)
        raise SimulationError(
            f"cannot initialise from {type(initial_state).__name__}"
        )

    def _finalize(self, tensor: np.ndarray, num_qubits: int) -> Statevector:
        return Statevector(tensor.reshape(-1), validate=False)


register_backend("statevector", StatevectorBackend)
