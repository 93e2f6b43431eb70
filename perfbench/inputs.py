"""Seeded inputs for the benchmark, and the CHARTER analysis it drives.

Input generation lives here, inside the benchmark, so that edits to the
library's own bench workloads never change what this benchmark measures.
Every circuit is a function of ``(seed, stream, index)`` only.

CHARTER (Patel, Silver, Tiwari, SC'22) ranks the gates of a noisy circuit by
how much their noise matters: variant ``i`` inserts ``k`` reversal pairs
``g_i g_i^dagger`` right after gate ``i``.  Ideally each pair is the
identity, so a variant only amplifies ``g_i``'s noise.  Gates are ranked by
the total-variation distance (TVD) between each variant's output
distribution and the unmodified baseline's.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro import Circuit

#: Reversal pairs inserted after the analysed gate (the paper's ``k``).
REVERSAL_PAIRS = 3

# One stream id per input family, so families never share random draws.
STREAM_CHARTER = 1
STREAM_SV20 = 2
STREAM_SMALL = 3
STREAM_BATCH = 4
STREAM_CHECKS = 5


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    """The generator for input ``index`` of ``stream`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def layered_circuit(num_qubits: int, layers: int, rng: np.random.Generator) -> Circuit:
    """``layers`` rounds of a seeded ``ry`` on every qubit plus a ``cx`` brickwork.

    The brickwork couples ``(q, q+1)`` for even ``q`` on even layers and odd
    ``q`` on odd layers, so ``n = 8, layers = 8`` gives 64 + 28 = 92 gates.
    """
    circuit = Circuit(num_qubits)
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.ry(float(rng.uniform(0.0, 2.0 * np.pi)), qubit)
        for qubit in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(qubit, qubit + 1)
    return circuit


def charter_variants(base: Circuit, pairs: int = REVERSAL_PAIRS) -> List[Circuit]:
    """The baseline followed by one variant per gate of ``base``.

    Variant ``i`` (element ``i + 1``) repeats ``gate_i, gate_i^dagger``
    ``pairs`` times right after gate ``i``.
    """
    instructions = base.instructions
    inverses = [instruction.inverse() for instruction in instructions]
    circuits = [base]
    for index in range(len(instructions)):
        amplified = instructions[index], inverses[index]
        body = list(instructions[: index + 1])
        body.extend(amplified * pairs)
        body.extend(instructions[index + 1 :])
        circuits.append(Circuit(base.num_qubits).extend(body))
    return circuits


def tvd_from_probabilities(probabilities: Sequence[np.ndarray]) -> np.ndarray:
    """TVD of every variant's distribution against the baseline (element 0)."""
    baseline = probabilities[0]
    variants = np.stack(probabilities[1:])
    return 0.5 * np.abs(variants - baseline).sum(axis=1)


def rank_gates(tvds: np.ndarray) -> np.ndarray:
    """Gate indices, most critical (largest TVD) first; ties keep gate order."""
    return np.argsort(-tvds, kind="stable")


def submitted_gates(circuits: Sequence[Circuit]) -> int:
    """Gates in the circuits as submitted, reversal pairs included."""
    return sum(len(circuit) for circuit in circuits)


def charter_base(seed: int, index: int) -> Circuit:
    """Base circuit of CHARTER request ``index``: 8 qubits, 8 layers, 92 gates."""
    return layered_circuit(8, 8, rng_for(seed, STREAM_CHARTER, index))


def sv20_input(seed: int, index: int) -> Circuit:
    """Circuit of 20-qubit request ``index``: 6 layers, 177 gates."""
    return layered_circuit(20, 6, rng_for(seed, STREAM_SV20, index))


def small_pool(seed: int, size: int = 32) -> List[Circuit]:
    """The pool of 5-qubit, 3-layer (21-gate) circuits small requests cycle through."""
    return [layered_circuit(5, 3, rng_for(seed, STREAM_SMALL, index)) for index in range(size)]


def batch_input(seed: int, index: int, size: int = 8) -> List[Circuit]:
    """The batch of request ``index``: ``size`` 16-qubit, 4-layer (94-gate) circuits."""
    rng = rng_for(seed, STREAM_BATCH, index)
    return [layered_circuit(16, 4, rng) for _ in range(size)]


def charter_tvds(probabilities: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``(tvds, ranking)`` of one analysis from its output distributions."""
    tvds = tvd_from_probabilities(probabilities)
    return tvds, rank_gates(tvds)
