"""Independent dense reference for the small circuits' outputs.

Builds each circuit's full ``2**n x 2**n`` unitary from ``numpy.kron`` of
matrices written out here, not taken from the library, so a wrong gate
table or a wrong contraction in the simulator cannot agree with it by
construction.  Qubit 0 is the most significant index bit, as in the library.
Only the ``ry`` and adjacent ``cx`` gates the benchmark generates are known.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _embed(local: np.ndarray, first: int, width: int, num_qubits: int) -> np.ndarray:
    before = np.eye(2**first)
    after = np.eye(2 ** (num_qubits - first - width))
    return np.kron(np.kron(before, local), after)


def dense_unitary(circuit) -> np.ndarray:
    """The circuit's unitary, one ``kron``-embedded gate at a time."""
    n = circuit.num_qubits
    unitary = np.eye(2**n, dtype=complex)
    for instruction in circuit:
        name = instruction.operation.name
        qubits = instruction.qubits
        if name == "ry":
            gate = _embed(_ry(float(instruction.operation.params[0])), qubits[0], 1, n)
        elif name == "cx" and qubits[1] == qubits[0] + 1:
            gate = _embed(_CX, qubits[0], 2, n)
        else:
            raise ValueError(f"oracle knows only ry and adjacent cx, got {name}{qubits}")
        unitary = gate @ unitary
    return unitary


def reference_outputs(circuit) -> Tuple[np.ndarray, float]:
    """``(probabilities, <Z_0>)`` of ``circuit`` applied to ``|0...0>``."""
    n = circuit.num_qubits
    amplitudes = dense_unitary(circuit)[:, 0]
    probabilities = np.abs(amplitudes) ** 2
    # Z on qubit 0 (the most significant bit) is +1 on the first half of indices.
    half = 2 ** (n - 1)
    z0 = float(probabilities[:half].sum() - probabilities[half:].sum())
    return probabilities, z0
