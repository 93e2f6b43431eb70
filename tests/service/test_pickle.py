"""Pickle round-trip guarantees for everything that crosses a worker pipe.

The parallel service works by shipping compiled plans, options, and
result payloads between processes, so every type on that path must
survive ``pickle.dumps``/``loads`` *semantically* intact: equal values,
immutability flags restored, and — for plans — bitwise-identical
execution on the other side.
"""

import pickle

import numpy as np
import pytest

from repro import (
    Circuit,
    Counts,
    DensityMatrix,
    NoiseModel,
    Parameter,
    Pauli,
    ReadoutError,
    RunOptions,
    Statevector,
    compile_plan,
    depolarizing,
    execute,
    get_backend,
)
from repro.bench.workloads import random_dense


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestCircuitRoundTrip:
    def test_bell_circuit_equal_and_frozen(self):
        circuit = Circuit(2, name="bell").h(0).cx(0, 1)
        copy = roundtrip(circuit)
        assert copy.instructions == circuit.instructions
        assert copy.num_qubits == 2
        for instruction in copy.instructions:
            matrix = instruction.gate.matrix
            assert not matrix.flags.writeable

    @pytest.mark.parametrize("trial", range(5))
    def test_random_circuits_simulate_identically(self, trial):
        circuit = random_dense(3, num_gates=15, seed=500 + trial)
        copy = roundtrip(circuit)
        original = execute(circuit).state.data
        restored = execute(copy).state.data
        assert np.array_equal(original, restored)

    def test_parametric_circuit_keeps_symbols(self):
        theta = Parameter("theta")
        circuit = Circuit(2).h(0).rz(theta, 1)
        copy = roundtrip(circuit)
        assert {p.name for p in copy.parameters()} == {"theta"}
        a = execute(circuit.bind({"theta": 0.7})).state.data
        b = execute(copy.bind({"theta": 0.7})).state.data
        assert np.array_equal(a, b)

    def test_stats_round_trip(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        stats = roundtrip(circuit.stats())
        assert stats.key() == circuit.stats().key()
        assert dict(stats.gate_counts) == dict(circuit.stats().gate_counts)


class TestPlanRoundTrip:
    def test_concrete_plan_executes_bitwise(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        backend = get_backend("statevector")
        plan = compile_plan(circuit, backend)
        copy = roundtrip(plan)
        assert np.array_equal(
            backend.execute_plan(plan).data, backend.execute_plan(copy).data
        )

    @pytest.mark.parametrize("value", (0.0, 0.3, 2.9))
    def test_parametric_plan_binds_bitwise_after_round_trip(self, value):
        theta = Parameter("theta")
        circuit = Circuit(2).h(0).rz(theta, 1).cx(0, 1)
        backend = get_backend("statevector")
        plan = compile_plan(circuit, backend)
        copy = roundtrip(plan)
        original = backend.execute_plan(plan.bind({"theta": value}))
        restored = backend.execute_plan(copy.bind({"theta": value}))
        assert np.array_equal(original.data, restored.data)

    def test_bound_plan_round_trips_with_slots_filled(self):
        # A plan that was already bound (slots resolved) must also ship.
        theta = Parameter("theta")
        circuit = Circuit(2).h(0).rz(theta, 1)
        backend = get_backend("statevector")
        bound = compile_plan(circuit, backend).bind({"theta": 1.1})
        copy = roundtrip(bound)
        assert np.array_equal(
            backend.execute_plan(bound).data, backend.execute_plan(copy).data
        )

    def test_noisy_density_plan_round_trips(self):
        model = NoiseModel().add_channel(depolarizing(0.05), gates=["h"])
        circuit = Circuit(2).h(0).cx(0, 1)
        backend = get_backend("density_matrix")
        plan = compile_plan(circuit, backend, RunOptions(noise_model=model))
        copy = roundtrip(plan)
        a = backend.execute_plan(plan)
        b = backend.execute_plan(copy)
        assert np.array_equal(a.data, b.data)


class TestOptionsAndModelRoundTrip:
    def test_run_options_round_trip(self):
        options = RunOptions(
            shots=128,
            seed=7,
            memory=True,
            observables=(Pauli("ZZ"),),
            max_workers=3,
        )
        copy = roundtrip(options)
        assert copy == options

    def test_noise_model_round_trip_preserves_rules_and_freeze(self):
        model = (
            NoiseModel("demo")
            .add_channel(depolarizing(0.02), gates=["h", "cx"])
            .set_readout_error(ReadoutError(0.01, 0.03))
        )
        copy = roundtrip(model)
        assert copy.readout_error.p1_given_0 == 0.01
        assert not copy.readout_error.confusion_matrix.flags.writeable
        instruction = Circuit(1).h(0).instructions[0]
        channels = copy.channels_for(instruction)
        assert len(channels) == len(model.channels_for(instruction))


class TestResultTypesRoundTrip:
    def test_counts_round_trip_stays_read_only(self):
        counts = Counts({"00": 5, "11": 3})
        copy = roundtrip(counts)
        assert copy == counts
        assert copy.num_qubits == 2
        assert copy.shots == 8
        with pytest.raises(TypeError):
            copy["01"] = 1

    def test_states_round_trip_frozen(self):
        sv = roundtrip(Statevector.zero_state(2))
        assert not sv.tensor().flags.writeable
        dm = roundtrip(DensityMatrix.zero_state(2))
        assert not dm.tensor().flags.writeable

    def test_result_round_trip(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        result = execute(circuit, shots=64, seed=3, observables=Pauli("ZZ"))
        copy = roundtrip(result)
        assert copy.counts == result.counts
        assert copy.expectation_values == result.expectation_values
        assert np.array_equal(copy.state.data, result.state.data)
        assert copy.metadata["seed"] == result.metadata["seed"]

    def test_sweep_result_with_deferred_circuit_round_trips(self):
        # Sweep results hold a circuit *factory*; pickling must resolve
        # it (closures don't cross process boundaries).
        theta = Parameter("theta")
        circuit = Circuit(2).h(0).rz(theta, 1)
        batch = execute(
            circuit, shots=32, seed=5, parameter_sweep=[{"theta": 0.4}]
        )
        copy = roundtrip(batch[0])
        assert copy.counts == batch[0].counts
        assert copy.parameters == {"theta": 0.4}
        assert copy.circuit.num_qubits == 2
