"""Expectation values of Pauli observables on simulated states.

Statevectors and density matrices are handled by the same contraction
strategy the simulators use: each non-identity 2x2 Pauli factor is
applied to the state's ``(2,) * n`` (or ``(2,) * 2n``) tensor with
:func:`~repro.sim.apply_gate_tensor`, and the scalar falls out of a
``vdot`` (pure states, ``<psi|P|psi>``) or a trace (mixed states,
``tr(rho P)``).  Cost is O(2**n) per factor for statevectors and
O(4**n) for density matrices — a dense ``2**n x 2**n`` observable matrix
is never built.

:class:`~repro.sim.PauliVector` states are cheaper still: the state *is*
its Pauli expansion, so ``<P>`` is a single component lookup scaled by
``sqrt(2**n)`` — O(1) per Pauli string after the index is assembled.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.observables.pauli import PAULI_MATRICES, Pauli, PauliSum
from repro.sim.backend import apply_gate_tensor
from repro.sim.density import DensityMatrix
from repro.sim.ptm import PauliVector
from repro.sim.statevector import Statevector
from repro.transpile.fusion import contract
from repro.utils.exceptions import ExecutionError

State = Union[Statevector, DensityMatrix, PauliVector]
Observable = Union[Pauli, PauliSum]

# Pauli-basis digit of each non-identity factor (0 is the identity).
_PAULI_DIGITS = {"X": 1, "Y": 2, "Z": 3}


def _check_width(state: State, pauli: Pauli) -> None:
    if pauli.min_width > state.num_qubits:
        raise ExecutionError(
            f"observable acts on qubit {pauli.min_width - 1}, but the state "
            f"has only {state.num_qubits} qubit(s)"
        )


def _pauli_expectation(state: State, pauli: Pauli) -> float:
    _check_width(state, pauli)
    if isinstance(state, PauliVector):
        # tr(rho P) = r[index] * sqrt(2**n): the state already stores its
        # normalised-Pauli components, so the expectation is one lookup.
        n = state.num_qubits
        index = [0] * n
        for qubit, factor in pauli.factors:
            index[qubit] = _PAULI_DIGITS[factor]
        return float(state.tensor()[tuple(index)] * 2.0 ** (n / 2.0))
    if isinstance(state, Statevector):
        applied = state.tensor()
        for qubit, factor in pauli.factors:
            applied = apply_gate_tensor(applied, PAULI_MATRICES[factor], (qubit,))
        value = complex(np.vdot(state.tensor(), applied))
    else:
        # tr(rho P): contract each factor onto the row axes, then trace.
        n = state.num_qubits
        applied = state.tensor()
        for qubit, factor in pauli.factors:
            applied = apply_gate_tensor(applied, PAULI_MATRICES[factor], (qubit,))
        value = complex(np.trace(applied.reshape(1 << n, 1 << n)))
    # <P> of a Hermitian string is real; the residual imaginary part is
    # floating-point noise and is dropped.
    return float(value.real)


def _check_batch_width(num_qubits: int, pauli: Pauli) -> None:
    if pauli.min_width > num_qubits:
        raise ExecutionError(
            f"observable acts on qubit {pauli.min_width - 1}, but the batch "
            f"states have only {num_qubits} qubit(s)"
        )


def _pauli_expectation_batched(states: np.ndarray, pauli: Pauli) -> np.ndarray:
    num_qubits = states.ndim - 1
    _check_batch_width(num_qubits, pauli)
    applied = states
    for qubit, factor in pauli.factors:
        # Contract the 2x2 factor onto the (shifted) qubit axis of every
        # batch element at once; axis 0 stays the batch axis throughout.
        tensor = np.asarray(PAULI_MATRICES[factor], dtype=states.dtype)
        applied = contract(applied, tensor, (qubit + 1,), (1,), (0,))
    points = states.shape[0]
    values = np.einsum(
        "ni,ni->n", states.conj().reshape(points, -1), applied.reshape(points, -1)
    )
    return values.real.astype(np.float64)


def expectation_batched(states: np.ndarray, observable: Observable) -> np.ndarray:
    """Per-element ``<O>`` over a batch of pure states, in one contraction.

    Parameters
    ----------
    states:
        An ``(N,) + (2,) * n`` array of statevector tensors — axis 0 is
        the batch (sweep-point) axis, exactly the layout produced by
        :func:`repro.plan.run_batched_sweep`.
    observable:
        A :class:`Pauli` string or real-weighted :class:`PauliSum`.

    Returns
    -------
    numpy.ndarray
        ``N`` real expectation values, one per batch element, each equal
        (to floating point) to ``expectation(Statevector(states[i]), observable)``.
    """
    states = np.asarray(states)
    if states.ndim < 2 or any(d != 2 for d in states.shape[1:]):
        raise ExecutionError(
            f"expected an (N, 2, ..., 2) batch of state tensors, got "
            f"shape {states.shape}"
        )
    if not np.iscomplexobj(states):
        # Promote real batches up front: casting Pauli factors *down* to a
        # real dtype would silently zero Y's purely imaginary entries.
        states = states.astype(np.complex128)
    if isinstance(observable, Pauli):
        return _pauli_expectation_batched(states, observable)
    if isinstance(observable, PauliSum):
        total = np.zeros(states.shape[0], dtype=np.float64)
        for coefficient, pauli in observable.terms:
            total += coefficient * _pauli_expectation_batched(states, pauli)
        return total
    raise ExecutionError(
        f"cannot interpret {type(observable).__name__} as an observable; "
        "expected a Pauli or PauliSum"
    )


def expectation(state: State, observable: Observable) -> float:
    """``<O>`` of ``observable`` in ``state``.

    Parameters
    ----------
    state:
        A :class:`~repro.sim.Statevector` (``<psi|O|psi>``), a
        :class:`~repro.sim.DensityMatrix` (``tr(rho O)``), or a
        :class:`~repro.sim.PauliVector` (component lookup).
    observable:
        A :class:`Pauli` string or real-weighted :class:`PauliSum`.
    """
    if not isinstance(state, (Statevector, DensityMatrix, PauliVector)):
        raise ExecutionError(
            f"cannot take an expectation on {type(state).__name__}; "
            "expected a Statevector, DensityMatrix, or PauliVector"
        )
    if isinstance(observable, Pauli):
        return _pauli_expectation(state, observable)
    if isinstance(observable, PauliSum):
        return float(
            sum(c * _pauli_expectation(state, p) for c, p in observable.terms)
        )
    raise ExecutionError(
        f"cannot interpret {type(observable).__name__} as an observable; "
        "expected a Pauli or PauliSum"
    )
