"""Tests for the execute() front door, Job handles, and batch results."""

from collections import Counter

import numpy as np
import pytest

from repro import (
    BatchResult,
    Circuit,
    Parameter,
    Pauli,
    PauliSum,
    Result,
    RunOptions,
    execute,
    sample_counts,
)
from repro.execution import submit
from repro.execution.api import sample_shard
from repro.sampling.sampler import memory_from_probabilities
from repro.transpile import Pass
from repro.utils.bitstrings import index_to_bitstring
from repro.utils.exceptions import ExecutionError


def _bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cx(0, 1)


class CountingPass(Pass):
    """Identity pass recording how many times a pipeline ran it."""

    def __init__(self):
        self.calls = 0

    def run(self, circuit):
        self.calls += 1
        return circuit


class TestSingleCircuit:
    def test_returns_result_with_state(self):
        result = execute(_bell())
        assert isinstance(result, Result)
        assert result.counts is None
        assert result.state.probability("00") == pytest.approx(0.5)

    def test_shots_produce_counts(self):
        result = execute(_bell(), shots=256, seed=11)
        assert result.counts.shots == 256
        assert set(result.counts) <= {"00", "11"}

    def test_matches_sample_counts_seeding(self):
        # Batch element 0 must reproduce the classic entry point exactly.
        circuit = _bell()
        assert execute(circuit, shots=512, seed=5).counts == sample_counts(
            circuit, 512, seed=5
        )

    def test_observables_evaluated(self):
        obs = PauliSum([(1.0, Pauli("ZZ")), (1.0, Pauli("XX"))])
        result = execute(_bell(), observables=[obs, Pauli("ZI")])
        assert result.observables == (obs, Pauli("ZI"))
        assert result.expectation_values[0] == pytest.approx(2.0)
        assert result.expectation_values[1] == pytest.approx(0.0, abs=1e-12)
        assert result.expectations[obs] == pytest.approx(2.0)

    def test_expectation_on_demand(self):
        result = execute(_bell())
        assert result.expectation(Pauli("ZZ")) == pytest.approx(1.0)

    def test_memory_agrees_with_counts(self):
        result = execute(_bell(), shots=64, seed=3, memory=True)
        assert len(result.memory) == 64
        tally = {}
        for outcome in result.memory:
            tally[outcome] = tally.get(outcome, 0) + 1
        assert dict(result.counts) == tally

    def test_memory_agrees_with_counts_at_scale(self):
        # 2**12 outcomes and 50k shots: distinct outcomes are formatted
        # once, yet memory must equal formatting every shot of the same
        # seeded draw, and the counts must tally exactly that memory.
        num_qubits, shots, seed = 12, 50_000, 4
        probs = np.random.default_rng(0).random(1 << num_qubits)
        probs /= probs.sum()
        draw = np.random.default_rng(seed).choice(probs.size, size=shots, p=probs)
        expected = [index_to_bitstring(int(i), num_qubits) for i in draw]
        memory = memory_from_probabilities(
            probs, shots, np.random.default_rng(seed), num_qubits
        )
        assert memory == expected
        counts, shard_memory = sample_shard(probs, shots, seed, num_qubits, True)
        assert shard_memory == expected
        assert dict(counts) == dict(Counter(shard_memory))
        assert counts.num_qubits == num_qubits

    def test_metadata_carries_backend_and_timing(self):
        result = execute(_bell(), shots=16, seed=1)
        metadata = result.metadata
        assert metadata["backend"] == "statevector"
        assert metadata["run_time_s"] >= 0
        assert metadata["sample_time_s"] >= 0
        assert isinstance(metadata["seed"], int)

    def test_density_backend_and_noise(self):
        from repro.noise import NoiseModel, depolarizing

        model = NoiseModel().add_channel(depolarizing(0.1))
        result = execute(
            _bell(), backend="density_matrix", noise_model=model,
            observables=Pauli("ZZ"),
        )
        assert result.metadata["backend"] == "density_matrix"
        assert result.expectation_values[0] < 1.0  # noise shrinks <ZZ>

    def test_options_object_accepted(self):
        options = RunOptions(shots=32, seed=9)
        result = execute(_bell(), options)
        assert result.counts == execute(_bell(), shots=32, seed=9).counts

    def test_unknown_option_rejected(self):
        with pytest.raises(ExecutionError, match="valid options"):
            execute(_bell(), shotz=8)

    def test_non_circuit_rejected(self):
        with pytest.raises(ExecutionError, match="Circuit"):
            execute("bell")
        with pytest.raises(ExecutionError, match="at least one"):
            execute([])

    def test_unbound_parameters_rejected_without_sweep(self):
        circuit = Circuit(1).ry(Parameter("theta"), 0)
        with pytest.raises(ExecutionError, match="unbound"):
            execute(circuit)


class TestBatch:
    def test_acceptance_batch_reproducibility(self):
        # The acceptance criterion, verbatim: a two-circuit batch with
        # shots, observables and a seed is bitwise-reproducible.
        obs = PauliSum([(1.0, Pauli("ZZ")), (0.5, Pauli("XI"))])
        c1, c2 = _bell(), Circuit(2).rx(0.6, 0).cx(0, 1)
        first = execute([c1, c2], shots=1024, observables=[obs], seed=7)
        second = execute([c1, c2], shots=1024, observables=[obs], seed=7)
        assert isinstance(first, BatchResult)
        assert len(first) == 2
        assert first.counts == second.counts
        assert first.expectation_values == second.expectation_values

    def test_batch_elements_have_independent_streams(self):
        circuit = _bell()
        batch = execute([circuit, circuit], shots=4096, seed=21)
        assert batch[0].counts != batch[1].counts
        assert batch[0].counts.shots == batch[1].counts.shots == 4096

    def test_element_seed_independent_of_batch_composition(self):
        # Element i's derived seed depends on (seed, i) only, so the same
        # circuit in the same slot samples identically in any batch.
        a, b = _bell(), Circuit(2).h(0).h(1)
        assert (
            execute([a, b], shots=256, seed=13).counts[1]
            == execute([b, b], shots=256, seed=13).counts[1]
        )

    def test_single_element_list_returns_batch(self):
        batch = execute([_bell()])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 1

    def test_batch_metadata(self):
        from repro import clear_plan_cache

        clear_plan_cache()  # timings describe THIS call; a warm cache reports 0
        batch = execute([_bell(), _bell()], optimize=True)
        metadata = batch.metadata
        assert metadata["backend"] == "statevector"
        assert metadata["total_time_s"] > 0
        assert metadata["transpile_time_s"] > 0
        assert metadata["plan_compile_time_s"] > 0

    def test_optimized_batch_amortizes_transpile_through_plan_cache(self):
        from repro import clear_plan_cache

        clear_plan_cache()
        first = execute([_bell(), _bell()], optimize=True)
        warm = execute([_bell(), _bell()], optimize=True)
        # The second call is all cache hits: no transpile is re-run and
        # the reported timings describe this call, not the original one.
        assert first.metadata["transpile_time_s"] > 0
        assert warm.metadata["transpile_time_s"] == 0.0
        assert warm.metadata["plan_compile_time_s"] <= first.metadata["total_time_s"]
        assert first[0].counts == warm[0].counts  # both shots-free: None


class TestParameterSweep:
    def test_acceptance_single_transpile_for_n_binds(self):
        # The acceptance criterion: an N-point sweep runs through exactly
        # one transpile pass, observed by a counting Pass.
        theta = Parameter("theta")
        circuit = Circuit(2).ry(theta, 0).cx(0, 1)
        counting = CountingPass()
        sweep = [{theta: v} for v in np.linspace(0.0, np.pi, 5)]
        batch = execute(circuit, passes=[counting], parameter_sweep=sweep)
        assert counting.calls == 1
        assert len(batch) == 5

    def test_sweep_values_land_in_results(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        sweep = [{"theta": v} for v in (0.0, np.pi / 2, np.pi)]
        batch = execute(circuit, observables=Pauli("Z"), parameter_sweep=sweep)
        values = [result.expectation_values[0] for result in batch]
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(-1.0)
        assert batch[1].parameters == {"theta": np.pi / 2}

    def test_sweep_is_reproducible(self):
        theta = Parameter("theta")
        circuit = Circuit(2).ry(theta, 0).cx(0, 1)
        sweep = [{theta: v} for v in (0.1, 0.2, 0.3)]
        first = execute(circuit, shots=128, seed=2, parameter_sweep=sweep)
        second = execute(circuit, shots=128, seed=2, parameter_sweep=sweep)
        assert first.counts == second.counts

    def test_sweep_point_missing_parameter(self):
        a, b = Parameter("a"), Parameter("b")
        circuit = Circuit(2).rx(a, 0).ry(b, 1)
        with pytest.raises(ExecutionError, match="unbound"):
            execute(circuit, parameter_sweep=[{a: 0.1}])

    def test_sweep_on_non_parametric_circuit(self):
        with pytest.raises(ExecutionError, match="no unbound parameters"):
            execute(_bell(), parameter_sweep=[{}])

    def test_sweep_rejects_multi_circuit_batch(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        with pytest.raises(ExecutionError, match="one template"):
            execute([circuit, circuit], parameter_sweep=[{theta: 0.1}])

    def test_empty_sweep_rejected(self):
        circuit = Circuit(1).ry(Parameter("theta"), 0)
        with pytest.raises(ExecutionError, match="at least one point"):
            execute(circuit, parameter_sweep=[])


class TestJob:
    def test_lazy_then_cached(self):
        job = submit(_bell(), shots=16, seed=4)
        assert job.status == "created"
        assert job.num_elements == 1
        first = job.result()
        assert job.status == "done"
        assert job.result() is first  # cached, not re-run

    def test_options_exposed(self):
        job = submit(_bell(), shots=16)
        assert job.options.shots == 16

    def test_error_cached_and_reraised(self):
        # Gate noise on the statevector backend fails at run time, not
        # submit time; the job must re-raise consistently.
        from repro.noise import NoiseModel, bit_flip
        from repro.utils.exceptions import SimulationError

        model = NoiseModel().add_channel(bit_flip(0.1))
        job = submit(_bell(), noise_model=model)
        with pytest.raises(SimulationError):
            job.result()
        assert job.status == "error"
        with pytest.raises(SimulationError):
            job.result()


class TestNoiseThroughExecute:
    def test_readout_error_applies_on_statevector_backend(self):
        from repro.noise import NoiseModel, ReadoutError

        # A readout-only model is legal on the pure-state backend; the
        # corruption happens at sampling, so |1> counts leak into '0'.
        model = NoiseModel().set_readout_error(ReadoutError(0.0, 0.25))
        result = execute(Circuit(1).x(0), shots=4096, seed=6, noise_model=model)
        assert result.counts["0"] > 0
        ideal = execute(Circuit(1).x(0), shots=4096, seed=6)
        assert ideal.counts.get("0", 0) == 0

    def test_readout_error_composes_with_gate_noise_and_memory(self):
        from repro.noise import NoiseModel, ReadoutError, depolarizing

        model = (
            NoiseModel()
            .add_channel(depolarizing(0.05))
            .set_readout_error(ReadoutError(0.1, 0.1))
        )
        result = execute(
            Circuit(2).h(0).cx(0, 1),
            backend="density_matrix",
            noise_model=model,
            shots=128,
            seed=9,
            memory=True,
        )
        assert result.counts.shots == 128
        assert len(result.memory) == 128


class TestResultAndBatchValidation:
    def test_result_misaligned_expectations_rejected(self):
        state = execute(_bell()).state
        with pytest.raises(ExecutionError, match="observable"):
            Result(_bell(), state, observables=(Pauli("Z"),), expectation_values=())

    def test_batch_result_rejects_empty_and_non_results(self):
        with pytest.raises(ExecutionError, match="at least one"):
            BatchResult([])
        with pytest.raises(ExecutionError, match="Result"):
            BatchResult(["not a result"])

    def test_sweep_point_must_be_a_mapping(self):
        circuit = Circuit(1).ry(Parameter("theta"), 0)
        with pytest.raises(ExecutionError, match="mapping"):
            execute(circuit, parameter_sweep=[0.5])


class TestReviewRegressions:
    def test_sweep_point_conflicting_values_rejected(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        with pytest.raises(ExecutionError, match="conflicting"):
            execute(circuit, parameter_sweep=[{theta: 0.0, "theta": 3.14}])

    def test_numpy_integer_shots_and_seed_accepted(self):
        result = execute(_bell(), shots=np.int64(64), seed=np.int32(5))
        assert result.counts.shots == 64
        assert result.counts == execute(_bell(), shots=64, seed=5).counts

    def test_run_rejects_backend_in_two_places(self):
        from repro import run
        from repro.utils.exceptions import SimulationError

        with pytest.raises(SimulationError, match="one place"):
            run(_bell(), backend="statevector",
                options=RunOptions(backend="density_matrix"))

    def test_interrupted_job_stays_retryable(self):
        from repro.execution.job import Job

        calls = {"n": 0}

        def runner():
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return execute(_bell())

        job = Job(runner, RunOptions(), 1)
        with pytest.raises(KeyboardInterrupt):
            job.result()
        assert job.status == "created"  # not poisoned
        assert job.result().state.num_qubits == 2


class TestSweepModes:
    """The batched sweep path and its per-element fallback."""

    def _template(self):
        theta = Parameter("theta")
        return Circuit(2).ry(theta, 0).cx(0, 1), theta

    def test_auto_batches_pure_statevector_sweeps(self):
        circuit, theta = self._template()
        batch = execute(circuit, parameter_sweep=[{theta: v} for v in (0.1, 0.2)])
        assert batch.metadata["sweep_mode"] == "batched"
        assert batch.metadata["plan_compile_time_s"] >= 0

    def test_auto_falls_back_for_shots(self):
        circuit, theta = self._template()
        batch = execute(
            circuit, shots=32, seed=1, parameter_sweep=[{theta: 0.1}]
        )
        assert batch.metadata["sweep_mode"] == "per_element"
        assert batch[0].counts.shots == 32

    def test_auto_falls_back_for_density_backend(self):
        circuit, theta = self._template()
        batch = execute(
            circuit, backend="density_matrix", parameter_sweep=[{theta: 0.1}]
        )
        assert batch.metadata["sweep_mode"] == "per_element"

    def test_auto_falls_back_for_noise_model(self):
        from repro.noise import NoiseModel, ReadoutError

        model = NoiseModel().set_readout_error(ReadoutError(0.1, 0.1))
        circuit, theta = self._template()
        batch = execute(
            circuit, noise_model=model, parameter_sweep=[{theta: 0.1}]
        )
        assert batch.metadata["sweep_mode"] == "per_element"

    def test_per_element_forced(self):
        circuit, theta = self._template()
        batch = execute(
            circuit,
            parameter_sweep=[{theta: 0.3}],
            sweep_mode="per_element",
        )
        assert batch.metadata["sweep_mode"] == "per_element"

    def test_batched_demanded_but_unbatchable_raises(self):
        circuit, theta = self._template()
        with pytest.raises(ExecutionError, match="batched"):
            execute(
                circuit,
                shots=16,
                parameter_sweep=[{theta: 0.3}],
                sweep_mode="batched",
            )

    def test_batched_and_per_element_agree(self):
        circuit, theta = self._template()
        sweep = [{theta: v} for v in np.linspace(0.0, np.pi, 6)]
        batched = execute(
            circuit, observables=Pauli("ZI"), parameter_sweep=sweep
        )
        per_element = execute(
            circuit,
            observables=Pauli("ZI"),
            parameter_sweep=sweep,
            sweep_mode="per_element",
        )
        for a, b in zip(batched, per_element):
            assert a.expectation_values[0] == pytest.approx(
                b.expectation_values[0], abs=1e-12
            )
            assert a.parameters == b.parameters

    def test_batched_results_carry_bound_circuits(self):
        circuit, theta = self._template()
        batch = execute(circuit, parameter_sweep=[{theta: 0.7}])
        assert batch[0].circuit.parameters() == ()
        assert batch[0].parameters == {"theta": 0.7}

    def test_sweep_reproducible_across_modes_with_seed(self):
        circuit, theta = self._template()
        sweep = [{theta: v} for v in (0.1, 0.2, 0.3)]
        first = execute(circuit, shots=64, seed=5, parameter_sweep=sweep)
        second = execute(circuit, shots=64, seed=5, parameter_sweep=sweep)
        assert first.counts == second.counts


class TestReviewFixesPlanEra:
    """Regression tests from the PR-5 review pass."""

    class _ProtocolOnlyBackend:
        """A minimal Backend-protocol citizen: name + run, no plan surface."""

        name = "protocol_only"

        def run(self, circuit, initial_state=None, options=None):
            from repro.sim import get_backend

            return get_backend("statevector").run(
                circuit, initial_state, options
            )

    def test_sweep_works_on_protocol_only_backend(self):
        theta = Parameter("theta")
        circuit = Circuit(2).ry(theta, 0).cx(0, 1)
        sweep = [{theta: v} for v in (0.0, np.pi / 2, np.pi)]
        batch = execute(
            circuit,
            backend=self._ProtocolOnlyBackend(),
            observables=Pauli("ZI"),
            parameter_sweep=sweep,
        )
        assert batch.metadata["sweep_mode"] == "per_element"
        assert batch.metadata["backend"] == "protocol_only"
        values = [r.expectation_values[0] for r in batch]
        assert values[0] == pytest.approx(1.0)
        assert values[2] == pytest.approx(-1.0)

    def test_sweep_on_protocol_only_backend_transpiles_once(self):
        theta = Parameter("theta")
        circuit = Circuit(2).ry(theta, 0).cx(0, 1)
        counting = CountingPass()
        batch = execute(
            circuit,
            backend=self._ProtocolOnlyBackend(),
            passes=[counting],
            parameter_sweep=[{theta: v} for v in (0.1, 0.2, 0.3)],
        )
        assert len(batch) == 3
        assert counting.calls == 1

    def test_batched_mode_demanded_on_protocol_backend_raises(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        with pytest.raises(ExecutionError, match="plan-capable"):
            execute(
                circuit,
                backend=self._ProtocolOnlyBackend(),
                parameter_sweep=[{theta: 0.1}],
                sweep_mode="batched",
            )

    def test_stray_sweep_key_rejected_up_front(self):
        # A typo'd key fails identically in every sweep mode, before any
        # state is evolved.
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        for mode in ("auto", "per_element"):
            with pytest.raises(ExecutionError, match="unknown parameter"):
                execute(
                    circuit,
                    parameter_sweep=[{theta: 0.1, "phi": 9.0}],
                    sweep_mode=mode,
                )

    def test_sweep_result_circuit_resolves_lazily_and_correctly(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        batch = execute(circuit, parameter_sweep=[{theta: 0.25}])
        resolved = batch[0].circuit
        assert resolved.parameters() == ()
        assert resolved[0].gate.params == (0.25,)
        assert batch[0].circuit is resolved  # cached after first access
