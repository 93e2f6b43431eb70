"""Every engine against an independent dense reference.

The reference builds each gate and Kraus operator as a full
``2**n x 2**n`` matrix: ``np.kron`` with an identity, conjugated by an
explicit permutation matrix that moves the targets to the front.  It then
evolves ``rho <- sum_i K_i rho K_i^dagger`` by plain matrix products, and
applies noise-model rules through its own reading of their documented
semantics.  It shares no contraction, lowering or noise-matching code with
the engines, so ``density_matrix`` and ``ptm`` (which do share lowering and
noise matching) are each checked against something other than each other.
"""

import numpy as np
import pytest

from repro import Circuit, NoiseModel, RunOptions, run
from repro.gates import get_gate
from repro.noise import (
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)

ATOL = 1e-10

ONE_QUBIT_GATES = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 3,
}
TWO_QUBIT_GATES = ("cx", "cz", "swap")


def _channels():
    """One of every channel ``repro.noise`` builds, one- and two-qubit."""
    return [
        depolarizing(0.07),
        depolarizing(0.05, num_qubits=2),
        bit_flip(0.1),
        phase_flip(0.15),
        bit_phase_flip(0.2),
        amplitude_damping(0.25),
        phase_damping(0.3),
    ]


def _permutation(targets, num_qubits):
    """``P`` with ``P |b> = |b'>``, where ``b'`` lists the target bits first.

    Qubit 0 is the most significant bit of a basis index.
    """
    order = list(targets) + [q for q in range(num_qubits) if q not in targets]
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim))
    for old in range(dim):
        bits = [(old >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        new = 0
        for q in order:
            new = (new << 1) | bits[q]
        matrix[new, old] = 1.0
    return matrix


def _embed(operator, targets, num_qubits):
    rest = np.eye(2 ** (num_qubits - len(targets)))
    permutation = _permutation(targets, num_qubits)
    return permutation.T @ np.kron(operator, rest) @ permutation


def _apply(rho, kraus, targets, num_qubits):
    total = np.zeros_like(rho)
    for operator in kraus:
        full = _embed(operator, targets, num_qubits)
        total = total + full @ rho @ full.conj().T
    return total


def _fired(rules, gate_name, qubits):
    """The ``(channel, qubits)`` a rule list attaches after one gate.

    Rules fire in the order added.  A one-qubit channel applies to each of
    the gate's qubits the qubit filter admits; a ``k``-qubit channel fires
    only on ``k``-qubit gates whose qubits all pass the filter.
    """
    out = []
    for channel, gates, allowed in rules:
        if gates is not None and gate_name not in gates:
            continue
        if channel.num_qubits == 1:
            out += [(channel, (q,)) for q in qubits if allowed is None or q in allowed]
        elif channel.num_qubits == len(qubits):
            if allowed is None or set(qubits) <= set(allowed):
                out.append((channel, tuple(qubits)))
    return out


def _reference(num_qubits, program, rules=()):
    """Final rho of ``program``: ``("gate", name, params, qubits)`` /
    ``("channel", channel, qubits)`` steps from ``|0...0>``."""
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for step in program:
        if step[0] == "gate":
            _, name, params, qubits = step
            rho = _apply(rho, [get_gate(name, *params).matrix], qubits, num_qubits)
            for channel, targets in _fired(rules, name, qubits):
                rho = _apply(rho, channel.kraus, targets, num_qubits)
        else:
            _, channel, qubits = step
            rho = _apply(rho, channel.kraus, qubits, num_qubits)
    return rho


def _random_program(num_qubits, seed, depth=14, noisy=True):
    rng = np.random.default_rng(seed)
    # Always include a non-adjacent, reversed-order two-qubit gate.
    program = [("gate", "h", (), (num_qubits - 1,)),
               ("gate", "cx", (), (num_qubits - 1, 0))]
    channels = _channels()
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.45:
            name = str(rng.choice(sorted(ONE_QUBIT_GATES)))
            params = tuple(rng.uniform(-np.pi, np.pi, ONE_QUBIT_GATES[name]))
            program.append(("gate", name, params, (int(rng.integers(num_qubits)),)))
        elif roll < 0.8 or not noisy:
            name = str(rng.choice(TWO_QUBIT_GATES))
            pair = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            program.append(("gate", name, (), pair))
        else:
            channel = channels[int(rng.integers(len(channels)))]
            qubits = tuple(
                int(q) for q in rng.choice(num_qubits, size=channel.num_qubits, replace=False)
            )
            program.append(("channel", channel, qubits))
    if noisy:
        # Every channel appears at least once, whatever the draw.
        for channel in channels:
            qubits = tuple(range(num_qubits - channel.num_qubits, num_qubits))[::-1]
            program.append(("channel", channel, qubits))
    return program


def _circuit(num_qubits, program):
    circuit = Circuit(num_qubits)
    for step in program:
        if step[0] == "gate":
            _, name, params, qubits = step
            circuit.append(get_gate(name, *params), qubits)
        else:
            _, channel, qubits = step
            circuit.channel(channel, qubits)
    return circuit


def _rules(num_qubits):
    return [
        (depolarizing(0.02), None, None),
        (amplitude_damping(0.05), ("cx", "swap"), (0, num_qubits - 1)),
        (depolarizing(0.03, num_qubits=2), ("cz",), None),
        (phase_flip(0.04), ("h", "rx"), None),
    ]


def _model(rules):
    model = NoiseModel()
    for channel, gates, qubits in rules:
        model.add_channel(channel, gates=gates, qubits=qubits)
    return model


def _mixed_state(circuit, backend, options=None):
    state = run(circuit, backend=backend, options=options)
    if backend == "ptm":
        state = state.to_density_matrix()
    return state.data


CASES = [(n, seed) for n in (2, 3, 4, 5) for seed in range(3)]


class TestReference:
    def test_permutation_moves_targets_to_the_front(self):
        # |q0 q1 q2> = |100> has index 4; with targets (2, 0) the reordered
        # bits are q2 q0 q1 = 0 1 0, index 2.
        assert _permutation((2, 0), 3)[2, 4] == 1.0

    def test_embedding_matches_a_known_two_qubit_gate(self):
        # CX with control 1 and target 0 on two qubits, written out.
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        np.testing.assert_array_equal(_embed(get_gate("cx").matrix, (1, 0), 2), expected)

    def test_reference_keeps_trace_and_hermiticity(self):
        rho = _reference(3, _random_program(3, seed=11), _rules(3))
        assert np.trace(rho).real == pytest.approx(1.0, abs=ATOL)
        np.testing.assert_allclose(rho, rho.conj().T, atol=ATOL)


class TestEnginesMatchReference:
    @pytest.mark.parametrize("backend", ["density_matrix", "ptm"])
    @pytest.mark.parametrize("num_qubits,seed", CASES)
    def test_circuit_channels(self, backend, num_qubits, seed):
        program = _random_program(num_qubits, seed)
        expected = _reference(num_qubits, program)
        actual = _mixed_state(_circuit(num_qubits, program), backend)
        np.testing.assert_allclose(actual, expected, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("backend", ["density_matrix", "ptm"])
    @pytest.mark.parametrize("num_qubits,seed", CASES)
    def test_noise_model(self, backend, num_qubits, seed):
        program = _random_program(num_qubits, seed + 100)
        rules = _rules(num_qubits)
        expected = _reference(num_qubits, program, rules)
        options = RunOptions(noise_model=_model(rules))
        actual = _mixed_state(_circuit(num_qubits, program), backend, options)
        np.testing.assert_allclose(actual, expected, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("num_qubits,seed", CASES)
    def test_statevector_on_noiseless_circuits(self, num_qubits, seed):
        program = _random_program(num_qubits, seed + 200, noisy=False)
        expected = _reference(num_qubits, program)
        psi = run(_circuit(num_qubits, program), backend="statevector").data
        np.testing.assert_allclose(np.outer(psi, psi.conj()), expected, atol=ATOL, rtol=0)
