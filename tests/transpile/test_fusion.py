"""Tests for FuseAdjacentGates, the Fuser's products and their oracle.

The fuser builds every product by contracting factors onto a running
identity (:func:`repro.transpile.fusion.contract`).  The oracle here is
an independent construction: each factor is embedded into the group's
register by ``kron`` with the identity plus one axis permutation, and the
embedded factors are multiplied as dense matrices.
"""

import numpy as np
import pytest

from repro.circuit import Channel, Circuit
from repro.circuit.ptm import kraus_to_ptm
from repro.execution import RunOptions
from repro.gates import get_gate
from repro.noise import NoiseModel, amplitude_damping, depolarizing
from repro.plan import ContractOp, compile_plan
from repro.sim import get_backend, run
from repro.transpile import FuseAdjacentGates
from repro.transpile.fusion import Fuser
from repro.utils.exceptions import TranspilerError


def embed_matrix(matrix, positions, width, dim=2):
    """Reference: embed a ``k``-qubit operator into a ``width``-qubit register.

    ``matrix`` is ``(dim**k, dim**k)`` with local dimension ``dim`` (2 for
    a unitary, embedded as ``complex``; 4 for a PTM, kept real).
    ``positions[i]`` is the register slot (0 = most significant) that
    qubit ``i`` of ``matrix`` occupies; all other slots act as identity.
    """
    if dim not in (2, 4):
        raise ValueError(f"local dimension must be 2 or 4, got {dim}")
    positions = [int(p) for p in positions]
    k = len(positions)
    if width < k:
        raise ValueError(f"cannot embed {k} qubits into width {width}")
    if len(set(positions)) != k or any(p < 0 or p >= width for p in positions):
        raise ValueError(f"invalid embedding positions {tuple(positions)} for width {width}")
    matrix = np.asarray(matrix)
    if matrix.shape != (dim**k, dim**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} embedding "
            f"position(s) of local dimension {dim}"
        )
    matrix = matrix.astype(complex if dim == 2 else float, copy=False)
    if positions == list(range(width)):
        return matrix
    # kron puts ``matrix`` on slots 0..k-1 and the identity on the rest;
    # one axis permutation routes slot i to ``positions[i]`` and the
    # identity slots to the remaining positions, ascending.
    full = np.kron(matrix, np.eye(dim ** (width - k), dtype=matrix.dtype))
    order = positions + [p for p in range(width) if p not in positions]
    perm = sorted(range(width), key=order.__getitem__)
    tensor = full.reshape((dim,) * (2 * width)).transpose(perm + [p + width for p in perm])
    return tensor.reshape(dim**width, dim**width)


def reference_product(factors, qubits, dim):
    """Dense product of ``(factor qubits, matrix)`` pairs on ``qubits``."""
    width = len(qubits)
    product = np.eye(dim**width)
    for factor_qubits, matrix in factors:
        positions = [qubits.index(q) for q in factor_qubits]
        product = embed_matrix(matrix, positions, width, dim) @ product
    return product


def _fidelity(a, b):
    return run(a).fidelity(run(b))


def _x_ptm():
    return kraus_to_ptm((get_gate("x").matrix,), 1)


def _cx_ptm():
    return kraus_to_ptm((get_gate("cx").matrix,), 2)


class TestEmbedMatrix:
    """The reference embedding, pinned to hand-built answers for both
    algebras (2x2 unitaries and 4x4 PTMs per qubit), so the oracle tests
    below rest on it."""

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
        with pytest.raises(ValueError):
            embed_matrix(one, [0, 0], 2, dim)
        with pytest.raises(ValueError):
            embed_matrix(one, [2], 2, dim)
        with pytest.raises(ValueError):
            embed_matrix(two, [0], 2, dim)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            embed_matrix(matrix, positions, 3, dim)

    def test_unknown_local_dimension_rejected(self):
        with pytest.raises(ValueError):
            embed_matrix(np.eye(3), [0], 1, dim=3)


def _random_unitary(rng, k):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_channel(rng, k):
    """A seeded mixed-unitary channel: asymmetric under qubit reordering."""
    p = float(rng.uniform(0.05, 0.5))
    kraus = (np.sqrt(1.0 - p) * _random_unitary(rng, k), np.sqrt(p) * _random_unitary(rng, k))
    return Channel("mixed", k, kraus)


def _random_targets(rng, num_qubits, k):
    """``k`` distinct qubits in random order: often reversed or non-adjacent."""
    return tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))


def _operator_stream(seed, dim, num_qubits=4, length=40):
    """Seeded ``(qubits, matrix)`` stream of 1-3 qubit operators.

    ``dim=2`` gives unitaries; ``dim=4`` gives gate and channel PTMs.
    The stream opens with a reversed two-qubit operator on non-adjacent
    qubits followed by two one-qubit operators on one of them.
    """
    rng = np.random.default_rng(seed)
    arities = rng.choice([1, 1, 2, 2, 3], size=length - 3)
    targets = [(3, 0), (0,), (0,)] + [_random_targets(rng, num_qubits, k) for k in arities]
    stream = []
    for qubits in targets:
        k = len(qubits)
        if dim == 2:
            matrix = _random_unitary(rng, k)
        elif rng.random() < 0.5:
            matrix = _random_channel(rng, k).ptm
        else:
            matrix = kraus_to_ptm((_random_unitary(rng, k),), k)
        stream.append((qubits, matrix))
    return stream


def _dense_unitary(circuit):
    """The circuit's full-register unitary, built with the reference embedding."""
    n = circuit.num_qubits
    return reference_product(
        [(instruction.qubits, instruction.gate.matrix) for instruction in circuit],
        list(range(n)),
        2,
    )


def _random_circuit(seed, num_qubits=4, length=40):
    """Seeded library and explicit-matrix gates on shuffled qubit tuples.

    The fixed opening (a one-qubit run, then a reversed ``cx`` on
    non-adjacent qubits) fuses at every width.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits).h(3).rz(0.3, 3).cx(3, 0)
    for _ in range(length):
        choice = int(rng.integers(6))
        if choice == 0:
            circuit.cx(*_random_targets(rng, num_qubits, 2))
        elif choice == 1:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
        elif choice == 2:
            circuit.h(int(rng.integers(num_qubits)))
        else:
            k = choice - 2
            circuit.unitary(_random_unitary(rng, k), _random_targets(rng, num_qubits, k))
    return circuit


class TestFusedProductsMatchReference:
    """Fused products against the kron-and-permute reference, to 1e-12."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_width", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 4], ids=["unitary", "ptm"])
    def test_fuser_group_products(self, dim, max_width, seed):
        stream = _operator_stream(seed, dim)
        groups = []
        fuser = Fuser(groups.append, max_width, dim)
        for index, (qubits, matrix) in enumerate(stream):
            fuser.feed(qubits, matrix, index)
        fuser.flush()
        assert [i for group in groups for i in group.members] == list(range(len(stream)))
        assert any(len(group.members) > 1 for group in groups)
        for group in groups:
            expected = reference_product(
                [stream[i] for i in group.members], group.qubits, dim
            )
            product = group.product()
            assert product.dtype == expected.dtype
            np.testing.assert_allclose(product, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4], ids=["unitary", "ptm"])
    def test_singleton_product_is_the_input_matrix(self, dim):
        matrix = _operator_stream(0, dim)[0][1]
        groups = []
        fuser = Fuser(groups.append, 2, dim)
        fuser.feed((3, 0), matrix, "only")
        fuser.flush()
        assert groups[0].product() is matrix

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_width", [1, 2, 3])
    def test_fuse_adjacent_gates_products(self, max_width, seed):
        circuit = _random_circuit(seed)
        fused = FuseAdjacentGates(max_width=max_width).run(circuit)
        assert len(fused) < len(circuit)
        np.testing.assert_allclose(
            _dense_unitary(fused), _dense_unitary(circuit), rtol=0, atol=1e-12
        )
        # Singleton groups pass their gate object through; every new
        # (fused) gate stays within the width bound.
        originals = {id(instruction.gate) for instruction in circuit}
        for instruction in fused:
            if id(instruction.gate) not in originals:
                assert len(instruction.qubits) <= max_width

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ptm_contract_op_tensors(self, seed):
        """Each fused ptm op equals the reference product of its members.

        Members are recovered in program order from the op names: every
        gate, then the noise channels it fires.
        """
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(seed, length=24)
        for _ in range(4):
            k = int(rng.integers(1, 3))
            circuit.channel(_random_channel(rng, k), _random_targets(rng, 4, k))
        noise = (
            NoiseModel()
            .add_channel(amplitude_damping(0.05), gates=["h", "rz"])
            .add_channel(depolarizing(0.02, 2), gates=["cx"])
        )
        stream = []
        for instruction in circuit:
            if instruction.is_channel:
                channel = instruction.operation
                stream.append((channel.name, instruction.qubits, channel.ptm))
                continue
            gate = instruction.gate
            ptm = kraus_to_ptm((gate.matrix,), len(instruction.qubits))
            stream.append((gate.name, instruction.qubits, ptm))
            for channel, qubits in noise.channels_for(instruction):
                stream.append((channel.name, qubits, channel.ptm))
        plan = compile_plan(
            circuit, "ptm", RunOptions(noise_model=noise), use_cache=False
        )
        consumed = 0
        for op in plan.ops:
            assert isinstance(op, ContractOp)
            names = op.name.split("+")
            members = stream[consumed : consumed + len(names)]
            consumed += len(names)
            assert names == [name for name, _, _ in members]
            expected = reference_product(
                [(qubits, ptm) for _, qubits, ptm in members], list(op.targets), 4
            )
            size = 4 ** len(op.targets)
            np.testing.assert_allclose(
                op.tensor.reshape(size, size), expected, rtol=0, atol=1e-12
            )
        assert consumed == len(stream)
        assert any("+" in op.name for op in plan.ops)


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
