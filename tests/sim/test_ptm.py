"""Pauli-transfer-matrix backend: PauliVector, fusion, and density parity.

The PTM engine must be *indistinguishable* from the density-matrix
engine on everything it supports (counts, states, expectations, sweeps,
worker pools) while provably doing less work (gate+channel runs fused into
fewer plan ops).  Both halves of that contract are pinned here.
"""

import pickle

import numpy as np
import pytest

import repro
from repro.analysis import analyze, verify_plan
from repro.bench.workloads import (
    ghz,
    ghz_depolarizing,
    layered_damped,
    parameterized_rotations,
    sweep_bindings,
)
from repro.circuit import Channel, Circuit
from repro.circuit.ptm import (
    kraus_to_ptm,
    ptm_is_trace_preserving,
    ptm_is_unital,
)
from repro.execution import RunOptions
from repro.noise import amplitude_damping, depolarizing, phase_damping
from repro.plan import ContractOp, ParametricSlotOp, compile_plan
from repro.plan.plan import DENSITY as DENSITY_MODE
from repro.plan.plan import PTM as PTM_MODE
from repro.sim import (
    DensityMatrix,
    PauliVector,
    PTMBackend,
    Statevector,
    available_backends,
    get_backend,
    run,
)
from repro.transpile.fusion import is_fusion_barrier
from repro.utils.exceptions import SimulationError

#: The ISSUE-mandated agreement bar between the PTM and density engines.
_PARITY_ATOL = 1e-9


def _noisy_random(num_qubits, num_gates=30, seed=23):
    """Seeded random circuit interleaving gates with random channels."""
    rng = np.random.default_rng(seed)
    channels = (
        depolarizing(0.03),
        amplitude_damping(0.05),
        phase_damping(0.04),
    )
    circuit = Circuit(num_qubits, name=f"noisy_random_{num_qubits}_{seed}")
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.4:
            circuit.rz(float(rng.uniform(0, 6.28)), int(rng.integers(num_qubits)))
            circuit.ry(float(rng.uniform(0, 6.28)), int(rng.integers(num_qubits)))
        elif kind < 0.7:
            a = int(rng.integers(num_qubits))
            b = int(rng.integers(num_qubits - 1))
            if b >= a:
                b += 1
            circuit.cx(a, b)
        else:
            channel = channels[int(rng.integers(len(channels)))]
            circuit.channel(channel, (int(rng.integers(num_qubits)),))
    return circuit


class TestPauliVectorType:
    def test_zero_state(self):
        state = PauliVector.zero_state(2)
        assert state.num_qubits == 2
        assert state.trace() == pytest.approx(1.0)
        assert state.purity() == pytest.approx(1.0)
        probs = state.probabilities()
        assert probs[0] == pytest.approx(1.0)
        assert probs[1:] == pytest.approx(np.zeros(3))

    def test_zero_state_components(self):
        # |0><0| = (I + Z) / 2, i.e. (1, 0, 0, 1)/sqrt(2) per qubit.
        state = PauliVector.zero_state(1)
        assert state.data == pytest.approx(
            np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        )

    def test_from_statevector_roundtrip(self):
        psi = Statevector(np.array([1.0, 1.0j]) / np.sqrt(2))
        state = PauliVector.from_statevector(psi)
        assert state.purity() == pytest.approx(1.0)
        rho = state.to_density_matrix()
        assert np.allclose(
            rho.tensor().reshape(2, 2),
            DensityMatrix.from_statevector(psi).tensor().reshape(2, 2),
        )

    def test_density_roundtrip_mixed(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex))
        state = PauliVector.from_density_matrix(rho)
        back = state.to_density_matrix()
        assert np.allclose(back.tensor(), rho.tensor(), atol=1e-12)
        assert state.purity() < 1.0

    def test_from_bitstring(self):
        state = PauliVector.from_bitstring("10")
        probs = state.probabilities()
        assert probs[2] == pytest.approx(1.0)
        assert state.expectation_z(0) == pytest.approx(-1.0)
        assert state.expectation_z(1) == pytest.approx(1.0)

    def test_from_bad_bitstring(self):
        with pytest.raises(SimulationError):
            PauliVector.from_bitstring("1x")

    def test_rejects_complex_data(self):
        with pytest.raises(SimulationError, match="real"):
            PauliVector(np.ones(4, dtype=complex))

    def test_rejects_bad_size(self):
        with pytest.raises(SimulationError, match="power of four"):
            PauliVector(np.ones(8))

    def test_validation_rejects_bad_trace(self):
        with pytest.raises(SimulationError, match="trace"):
            PauliVector(np.ones(4))

    def test_data_is_copy_tensor_is_readonly(self):
        state = PauliVector.zero_state(1)
        state.data[0] = 99.0
        assert state.trace() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            state.tensor()[0] = 99.0

    def test_expectation_z_range_checked(self):
        with pytest.raises(SimulationError, match="out of range"):
            PauliVector.zero_state(1).expectation_z(1)

    def test_pickle_roundtrip_stays_readonly(self):
        state = PauliVector.from_bitstring("01")
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        with pytest.raises(ValueError):
            clone.tensor()[(0, 0)] = 99.0

    def test_equality(self):
        assert PauliVector.zero_state(2) == PauliVector.from_bitstring("00")
        assert PauliVector.zero_state(2) != PauliVector.from_bitstring("01")
        assert PauliVector.zero_state(1) != PauliVector.zero_state(2)


class TestPTMHelpers:
    def test_gate_ptm_is_trace_preserving_and_unital(self):
        matrix = repro.get_gate("h").matrix
        ptm = kraus_to_ptm((matrix,), 1)
        assert ptm_is_trace_preserving(ptm)
        assert ptm_is_unital(ptm)

    def test_x_gate_ptm(self):
        # X maps I->I, X->X, Y->-Y, Z->-Z.
        ptm = kraus_to_ptm((repro.get_gate("x").matrix,), 1)
        assert ptm == pytest.approx(np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_amplitude_damping_not_unital(self):
        channel = amplitude_damping(0.3)
        assert ptm_is_trace_preserving(channel.ptm)
        assert not ptm_is_unital(channel.ptm)

    def test_depolarizing_unital(self):
        channel = depolarizing(0.1)
        assert ptm_is_trace_preserving(channel.ptm)
        assert ptm_is_unital(channel.ptm)


class TestChannelPTMProperty:
    """Satellite: every Channel freezes its PTM at construction."""

    @pytest.mark.parametrize(
        "channel",
        [depolarizing(0.05), amplitude_damping(0.2), phase_damping(0.15)],
        ids=lambda c: c.name,
    )
    def test_ptm_shape_dtype_frozen(self, channel):
        ptm = channel.ptm
        assert ptm.shape == (4, 4)
        assert ptm.dtype == np.float64
        assert not ptm.flags.writeable
        assert ptm_is_trace_preserving(ptm)

    def test_pickle_roundtrip_keeps_ptm(self):
        channel = amplitude_damping(0.25)
        clone = pickle.loads(pickle.dumps(channel))
        assert clone.ptm == pytest.approx(channel.ptm)
        assert not clone.ptm.flags.writeable

    def test_old_pickle_without_ptm_recomputes_lazily(self):
        channel = depolarizing(0.1)
        expected = channel.ptm.copy()
        # Simulate a pickle written before the _ptm slot existed.
        stale = object.__new__(Channel)
        state = {
            name: getattr(channel, name)
            for name in Channel.__slots__
            if name != "_ptm"
        }
        stale.__setstate__((None, state))
        assert stale.ptm == pytest.approx(expected)
        assert not stale.ptm.flags.writeable

    def test_analysis_flags_corrupted_ptm(self):
        channel = depolarizing(0.1)
        # A stale/corrupted cached PTM (trace row broken) must surface
        # through the non-cptp-channel rule even though the Kraus set is
        # still perfectly valid.
        bad = channel.ptm.copy()
        bad[0, 0] = 0.5
        channel._ptm = bad
        circuit = Circuit(1).h(0).channel(channel, (0,))
        report = analyze(circuit, rules=["non-cptp-channel"])
        messages = [d.message for d in report.diagnostics]
        assert any("Pauli basis" in m for m in messages)


class TestPTMBackendBasics:
    def test_registered(self):
        assert "ptm" in available_backends()
        backend = get_backend("ptm")
        assert isinstance(backend, PTMBackend)
        assert backend.plan_mode == "ptm"

    def test_rejects_non_float64(self):
        with pytest.raises(SimulationError, match="dtype"):
            PTMBackend(dtype=np.float32)

    def test_noiseless_ghz_matches_statevector(self):
        circuit = ghz(3)
        expected = run(circuit).probabilities()
        state = run(circuit, backend="ptm")
        assert isinstance(state, PauliVector)
        assert state.probabilities() == pytest.approx(expected, abs=1e-12)

    def test_initial_state_forms_agree(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        from_string = run(circuit, initial_state="10", backend="ptm")
        psi = Statevector.from_bitstring("10")
        from_state = run(circuit, initial_state=psi, backend="ptm")
        rho = DensityMatrix.from_bitstring("10")
        from_density = run(circuit, initial_state=rho, backend="ptm")
        from_pauli = run(
            circuit, initial_state=PauliVector.from_bitstring("10"), backend="ptm"
        )
        for state in (from_state, from_density, from_pauli):
            assert state == from_string

    def test_initial_state_width_checked(self):
        circuit = Circuit(2).h(0)
        with pytest.raises(SimulationError, match="2 qubits"):
            run(circuit, initial_state="101", backend="ptm")

    def test_initial_state_type_checked(self):
        with pytest.raises(SimulationError, match="cannot initialise"):
            run(Circuit(1).h(0), initial_state=42, backend="ptm")

    def test_dynamic_circuit_rejected_at_lowering(self):
        circuit = Circuit(2, num_clbits=1)
        circuit.h(0)
        circuit.measure(0, 0)
        with pytest.raises(SimulationError, match="dynamic"):
            run(circuit, backend="ptm")

    def test_backend_pickles(self):
        backend = get_backend("ptm")
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.plan_mode == "ptm"
        assert clone.dtype == np.float64


class TestFusionThroughChannels:
    """The tentpole claim: gate+channel runs collapse into fewer ops."""

    def test_layered_damped_has_strictly_fewer_ops(self):
        circuit = layered_damped(4, layers=3)
        density = compile_plan(circuit, get_backend("density_matrix"))
        ptm = compile_plan(circuit, get_backend("ptm"))
        assert len(ptm.ops) < len(density.ops)

    def test_ghz_depolarizing_has_strictly_fewer_ops(self):
        circuit = ghz_depolarizing(4)
        density = compile_plan(circuit, get_backend("density_matrix"))
        ptm = compile_plan(circuit, get_backend("ptm"))
        assert len(ptm.ops) < len(density.ops)

    def test_fused_ops_record_their_members(self):
        circuit = Circuit(1).h(0).channel(depolarizing(0.02), (0,)).x(0)
        plan = compile_plan(circuit, get_backend("ptm"))
        assert len(plan.ops) == 1
        (op,) = plan.ops
        assert isinstance(op, ContractOp)
        assert op.name == "h+depolarizing+x"
        assert op.tensor.shape == (4, 4)
        assert op.tensor.dtype == np.float64

    def test_fusion_width_is_capped(self):
        # Three qubits of overlapping CXs cannot all join one group under
        # the 2-qubit width cap, so at least two ops must survive.
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        plan = compile_plan(circuit, get_backend("ptm"))
        assert len(plan.ops) >= 2
        for op in plan.ops:
            assert len(op.targets) <= 2

    def test_noise_model_channels_fuse_too(self):
        circuit = ghz(3)
        noise = repro.NoiseModel().add_channel(depolarizing(0.02))
        options = RunOptions(noise_model=noise)
        density = compile_plan(
            circuit, get_backend("density_matrix"), options, use_cache=False
        )
        ptm = compile_plan(circuit, get_backend("ptm"), options, use_cache=False)
        assert len(ptm.ops) < len(density.ops)

    def test_parametric_slot_is_a_fusion_barrier(self):
        theta = repro.Parameter("theta")
        circuit = Circuit(1).h(0).rz(theta, 0).x(0)
        plan = compile_plan(circuit, get_backend("ptm"))
        kinds = [type(op).__name__ for op in plan.ops]
        assert kinds == ["ContractOp", "ParametricSlotOp", "ContractOp"]
        bound = plan.bind({"theta": 0.4})
        assert all(isinstance(op, ContractOp) for op in bound.ops)

    def test_lowering_and_barrier_predicate_agree(self):
        # ptm lowering flushes exactly where is_fusion_barrier says so for
        # the plan's mode: channels fuse, parametric gates do not.
        theta = repro.Parameter("theta")
        circuit = (
            Circuit(1).h(0).channel(depolarizing(0.1), (0,)).rz(theta, 0).x(0)
        )
        plan = compile_plan(circuit, get_backend("ptm"), use_cache=False)
        barriers = [is_fusion_barrier(i, plan.mode) for i in circuit]
        assert plan.mode == PTM_MODE
        assert barriers == [False, False, True, False]
        kinds = [type(op).__name__ for op in plan.ops]
        assert kinds == ["ContractOp", "ParametricSlotOp", "ContractOp"]
        assert is_fusion_barrier(circuit[1], DENSITY_MODE)


class TestPTMDensityParity:
    """Property tests: PTM agrees with density to 1e-9 on everything."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_noisy_final_state(self, seed):
        circuit = _noisy_random(3, seed=seed)
        rho = run(circuit, backend="density_matrix")
        pauli = run(circuit, backend="ptm")
        diff = np.abs(pauli.to_density_matrix().tensor() - rho.tensor())
        assert float(diff.max()) < _PARITY_ATOL

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_noisy_counts_identical(self, seed):
        circuit = _noisy_random(3, seed=seed)
        kwargs = dict(shots=2048, seed=97)
        res_density = repro.execute(
            circuit, options=RunOptions(backend="density_matrix", **kwargs)
        )
        res_ptm = repro.execute(circuit, options=RunOptions(backend="ptm", **kwargs))
        assert dict(res_ptm.counts) == dict(res_density.counts)

    def test_pauli_sum_expectations(self):
        circuit = _noisy_random(3, seed=6)
        observable = repro.PauliSum(
            [(0.5, repro.Pauli("ZZI")), (-1.25, repro.Pauli("XIX")),
             (0.75, repro.Pauli("IYY"))]
        )
        rho = run(circuit, backend="density_matrix")
        pauli = run(circuit, backend="ptm")
        expected = repro.expectation(rho, observable)
        actual = repro.expectation(pauli, observable)
        assert actual == pytest.approx(expected, abs=_PARITY_ATOL)

    def test_noiseless_circuit_parity(self):
        circuit = ghz(4)
        rho = run(circuit, backend="density_matrix")
        pauli = run(circuit, backend="ptm")
        diff = np.abs(pauli.to_density_matrix().tensor() - rho.tensor())
        assert float(diff.max()) < _PARITY_ATOL

    def test_parametric_sweep_parity(self):
        circuit, parameters = parameterized_rotations(3, layers=2)
        bindings = sweep_bindings(parameters, points=4)
        noise = repro.NoiseModel().add_channel(amplitude_damping(0.04))
        observable = repro.Pauli("ZZZ")
        results = {}
        for backend in ("density_matrix", "ptm"):
            results[backend] = repro.execute(
                circuit,
                options=RunOptions(
                    backend=backend,
                    noise_model=noise,
                    shots=512,
                    seed=11,
                    observables=(observable,),
                ),
                parameter_sweep=bindings,
            )
        pairs = zip(results["density_matrix"].results, results["ptm"].results)
        for res_density, res_ptm in pairs:
            assert dict(res_ptm.counts) == dict(res_density.counts)
            assert res_ptm.expectation_values[0] == pytest.approx(
                res_density.expectation_values[0], abs=_PARITY_ATOL
            )

    def test_sampling_layer_accepts_pauli_vector(self):
        circuit = ghz(2)
        state = run(circuit, backend="ptm")
        counts = repro.sample_counts(state, shots=256, seed=5)
        reference = repro.sample_counts(
            run(circuit, backend="density_matrix"), shots=256, seed=5
        )
        assert dict(counts) == dict(reference)


class TestVerifyPlanPTM:
    def test_clean_noisy_plan_verifies(self):
        plan = compile_plan(layered_damped(3, layers=2), get_backend("ptm"))
        assert verify_plan(plan).diagnostics == ()

    def test_clean_parametric_plan_verifies(self):
        circuit, _ = parameterized_rotations(2)
        plan = compile_plan(circuit, get_backend("ptm"))
        assert any(isinstance(op, ParametricSlotOp) for op in plan.ops)
        assert verify_plan(plan).diagnostics == ()

    def test_corrupted_tensor_shape_flagged(self):
        plan = compile_plan(
            ghz_depolarizing(3), get_backend("ptm"), use_cache=False
        )
        plan.ops[0].tensor = np.eye(4, dtype=np.float64).reshape(2, 2, 2, 2)
        codes = {d.code for d in verify_plan(plan).diagnostics}
        assert "plan-shape-mismatch" in codes

    def test_corrupted_dtype_flagged(self):
        plan = compile_plan(
            ghz_depolarizing(3), get_backend("ptm"), use_cache=False
        )
        plan.ops[0].tensor = plan.ops[0].tensor.astype(np.float32)
        codes = {d.code for d in verify_plan(plan).diagnostics}
        assert "plan-dtype-mismatch" in codes

    def test_foreign_op_flagged(self):
        ptm_plan = compile_plan(
            ghz_depolarizing(3), get_backend("ptm"), use_cache=False
        )
        density_plan = compile_plan(
            ghz_depolarizing(3), get_backend("density_matrix"), use_cache=False
        )
        ptm_plan._ops = (density_plan.ops[0],) + ptm_plan.ops[1:]
        codes = {d.code for d in verify_plan(ptm_plan).diagnostics}
        assert "plan-mode-mismatch" in codes


class TestSanitizerUnderstandsPauliBasis:
    def test_strict_sanitize_clean_on_mixed_state(self):
        # A deeply noisy run leaves a very mixed state; a sanitizer that
        # read |r|^2 as the norm (pure-state logic) would false-positive.
        circuit = layered_damped(3, layers=3)
        result = repro.execute(
            circuit,
            options=RunOptions(backend="ptm", sanitize="strict", shots=64, seed=2),
        )
        assert sum(result.counts.values()) == 64

    def test_strict_sanitize_catches_trace_leak(self):
        from repro.utils import SanitizerError

        plan = compile_plan(ghz(2), get_backend("ptm"), use_cache=False)
        plan.ops[0].tensor = np.ascontiguousarray(plan.ops[0].tensor) * 1.5
        with pytest.raises(SanitizerError, match="tr\\(rho\\)"):
            get_backend("ptm").execute_plan(plan, sanitize="strict")


class TestServiceParity:
    def test_parallel_batch_matches_serial_density(self):
        circuits = [ghz_depolarizing(3), ghz_depolarizing(2)]
        kwargs = dict(shots=2000, seed=19)
        res_density = repro.execute(
            circuits,
            options=RunOptions(backend="density_matrix", max_workers=1, **kwargs),
        )
        res_ptm = repro.execute(
            circuits, options=RunOptions(backend="ptm", max_workers=2, **kwargs)
        )
        assert res_ptm.metadata["workers"] == 2
        for a, b in zip(res_ptm, res_density):
            assert dict(a.counts) == dict(b.counts)

    def test_parallel_sweep_matches_serial(self):
        circuit, parameters = parameterized_rotations(2)
        bindings = sweep_bindings(parameters, points=3)
        serial = repro.execute(
            circuit,
            options=RunOptions(backend="ptm", shots=256, seed=3),
            parameter_sweep=bindings,
        )
        parallel = repro.execute(
            circuit,
            options=RunOptions(backend="ptm", shots=256, seed=3, max_workers=2),
            parameter_sweep=bindings,
        )
        for a, b in zip(serial.results, parallel.results):
            assert dict(a.counts) == dict(b.counts)
