"""Tests for FuseAdjacentGates and the matrix-embedding helper."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.circuit.ptm import kraus_to_ptm
from repro.execution import RunOptions
from repro.gates import get_gate
from repro.plan import compile_plan
from repro.sim import get_backend, run
from repro.transpile import FuseAdjacentGates, embed_matrix
from repro.utils.exceptions import TranspilerError


def _fidelity(a, b):
    return run(a).fidelity(run(b))


def _x_ptm():
    return kraus_to_ptm((get_gate("x").matrix,), 1)


def _cx_ptm():
    return kraus_to_ptm((get_gate("cx").matrix,), 2)


class TestEmbedMatrix:
    """One embedding for both algebras: 2x2 unitaries and 4x4 PTMs per qubit."""

    @pytest.mark.parametrize(
        "matrix, dim", [(get_gate("h").matrix, 2), (_x_ptm(), 4)], ids=["unitary", "ptm"]
    )
    def test_identity_embedding_is_noop(self, matrix, dim):
        assert np.array_equal(embed_matrix(matrix, [0], 1, dim), matrix)

    @pytest.mark.parametrize(
        "matrix, dim", [(get_gate("x").matrix, 2), (_x_ptm(), 4)], ids=["unitary", "ptm"]
    )
    def test_single_qubit_into_two(self, matrix, dim):
        eye = np.eye(dim)
        # Acting on the most significant qubit of a 2-qubit register.
        assert np.allclose(embed_matrix(matrix, [0], 2, dim), np.kron(matrix, eye))
        # Acting on the least significant qubit: qubit 0 is untouched.
        assert np.allclose(embed_matrix(matrix, [1], 2, dim), np.kron(eye, matrix))

    def test_qubit_order_permutation(self):
        cx = get_gate("cx").matrix
        # cx with control = LSB slot, target = MSB slot: |a b> -> |a^b b>.
        swapped = embed_matrix(cx, [1, 0], 2)
        basis = np.eye(4)
        # |01> (index 1: qubit0=0, qubit1=1) -> |11> (index 3)
        assert np.allclose(swapped @ basis[:, 1], basis[:, 3])
        # |10> -> |10> (control qubit1 = 0)
        assert np.allclose(swapped @ basis[:, 2], basis[:, 2])

    def test_ptm_qubit_order_matches_reversed_gate(self):
        swap = get_gate("swap").matrix
        reversed_cx = swap @ get_gate("cx").matrix @ swap
        expected = kraus_to_ptm((reversed_cx,), 2)
        assert np.allclose(embed_matrix(_cx_ptm(), [1, 0], 2, dim=4), expected)

    @pytest.mark.parametrize(
        "matrix, dim, dtype",
        [
            (get_gate("h").matrix, 2, np.complex128),
            (np.eye(2, dtype=int), 2, np.complex128),
            (_x_ptm(), 4, np.float64),
        ],
        ids=["unitary", "int-unitary", "ptm"],
    )
    def test_dtype_follows_algebra(self, matrix, dim, dtype):
        # Unitaries embed as complex whatever their input dtype; PTMs
        # stay real float64.
        assert embed_matrix(matrix, [1], 3, dim).dtype == dtype
        assert embed_matrix(matrix, [0], 1, dim).dtype == dtype

    @pytest.mark.parametrize(
        "one, two, dim",
        [(get_gate("h").matrix, get_gate("cx").matrix, 2), (_x_ptm(), _cx_ptm(), 4)],
        ids=["unitary", "ptm"],
    )
    def test_invalid_positions_rejected(self, one, two, dim):
        with pytest.raises(TranspilerError):
            embed_matrix(one, [0, 0], 2, dim)
        with pytest.raises(TranspilerError):
            embed_matrix(one, [2], 2, dim)
        with pytest.raises(TranspilerError):
            embed_matrix(two, [0], 2, dim)
        with pytest.raises(TranspilerError):
            embed_matrix(two, [0, 1], 1, dim)

    @pytest.mark.parametrize(
        "matrix, positions, dim",
        [
            # A 2-qubit unitary is 4x4, the shape of a 1-qubit PTM: the
            # caller's ``dim`` decides, so it is still rejected.
            (get_gate("cx").matrix, [0], 2),
            (np.eye(8), [0, 1], 2),
            (_x_ptm(), [0], 2),
            (_cx_ptm(), [0], 4),
            (get_gate("h").matrix, [0], 4),
            (np.eye(3), [0], 2),
        ],
        ids=["cx-one-position", "unitary", "ptm-as-unitary", "ptm", "unitary-as-ptm", "neither"],
    )
    def test_shape_mismatch_rejected(self, matrix, positions, dim):
        with pytest.raises(TranspilerError):
            embed_matrix(matrix, positions, 3, dim)

    def test_unknown_local_dimension_rejected(self):
        with pytest.raises(TranspilerError):
            embed_matrix(np.eye(3), [0], 1, dim=3)


class TestFuseAdjacentGates:
    def test_single_qubit_run_fuses_to_one_unitary(self):
        circuit = Circuit(1).h(0).t(0).s(0).rz(0.3, 0)
        fused = FuseAdjacentGates().run(circuit)
        assert len(fused) == 1
        assert fused[0].gate.name == "unitary"
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_h_cx_pair_fuses(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert fused[0].qubits == (0, 1)
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_disjoint_gates_fuse_within_width(self):
        # The width rule alone decides: h(0) and h(1) share no qubit, but
        # their union fits in two qubits.
        circuit = Circuit(2).h(0).h(1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert fused[0].qubits == (0, 1)
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_width_cap_respected(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["cx", "cx"]
        wide = FuseAdjacentGates(max_width=3).run(circuit)
        assert len(wide) == 1
        assert wide[0].qubits == (0, 1, 2)
        assert _fidelity(circuit, wide) == pytest.approx(1.0)

    def test_gate_wider_than_cap_passes_through(self):
        circuit = Circuit(2).h(0).cx(0, 1).h(1)
        fused = FuseAdjacentGates(max_width=1).run(circuit)
        assert [i.gate.name for i in fused] == ["h", "cx", "h"]

    def test_singleton_groups_keep_original_gate(self):
        circuit = Circuit(3).h(0).cx(1, 2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["h", "cx"]
        assert fused.instructions == circuit.instructions

    def test_fused_qubit_order_is_first_touch(self):
        # cx(2, 0) then x(2): group qubits should be (2, 0).
        circuit = Circuit(3).cx(2, 0).x(2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert fused[0].qubits == (2, 0)
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_interleaved_two_qubit_gates(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.7, 1).cx(0, 1).h(0)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_empty_circuit(self):
        assert len(FuseAdjacentGates().run(Circuit(2))) == 0

    def test_invalid_max_width(self):
        with pytest.raises(TranspilerError):
            FuseAdjacentGates(max_width=0)

    def test_fused_matrix_is_unitary(self):
        circuit = Circuit(2).h(0).cx(0, 1).s(1).cx(0, 1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert all(i.gate.is_unitary() for i in fused)

    def test_repr_mentions_width(self):
        assert "max_width=3" in repr(FuseAdjacentGates(max_width=3))


class TestBrickworkPlanOps:
    """Op-count pin: the width rule fuses a 20-qubit ry + cx brickwork."""

    @staticmethod
    def _brickwork(num_qubits=20, layers=6):
        rng = np.random.default_rng(7)
        circuit = Circuit(num_qubits)
        for layer in range(layers):
            for qubit in range(num_qubits):
                circuit.ry(float(rng.uniform(0.0, 2.0 * np.pi)), qubit)
            for qubit in range(layer % 2, num_qubits - 1, 2):
                circuit.cx(qubit, qubit + 1)
        return circuit

    def test_twenty_qubit_brickwork_lowers_to_117_ops(self):
        circuit = self._brickwork()
        assert len(circuit) == 177
        backend = get_backend("statevector")
        options = RunOptions(optimize=True, certify=True)
        fused = compile_plan(circuit, backend, options, use_cache=False)
        plain = compile_plan(circuit, backend, RunOptions(), use_cache=False)
        assert (len(fused.ops), len(plain.ops)) == (117, 177)
        for stats in fused.pass_stats:
            assert stats["certificate"]["status"] == "certified", stats
            assert stats["certificate"]["max_support"] <= 2, stats
        difference = backend.execute_plan(fused).data - backend.execute_plan(plain).data
        assert np.max(np.abs(difference)) <= 1e-12
