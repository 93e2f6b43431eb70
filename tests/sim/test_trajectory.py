"""The Monte-Carlo trajectory backend: unbiasedness, determinism, sharding."""

import numpy as np
import pytest

from repro import (
    Circuit,
    NoiseModel,
    Pauli,
    RunOptions,
    TrajectoryBackend,
    amplitude_damping,
    available_backends,
    depolarizing,
    execute,
    get_backend,
)
from repro.execution.api import shard_sizes
from repro.utils.exceptions import ExecutionError


def _ghz(n):
    circuit = Circuit(n).h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


def _layered(n, depth=3):
    circuit = Circuit(n)
    for layer in range(depth):
        for q in range(n):
            circuit.ry(0.3 + 0.1 * (layer + q), q)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
    return circuit


class TestRegistration:
    def test_registered(self):
        assert "trajectory" in available_backends()
        backend = get_backend("trajectory")
        assert isinstance(backend, TrajectoryBackend)
        assert backend.plan_mode == "trajectory"

    def test_accepts_gate_noise(self):
        # Unlike the statevector backend, gate noise is fine: channels
        # lower to sampled-Kraus ops.
        model = NoiseModel().add_channel(depolarizing(0.05))
        options = RunOptions(
            backend="trajectory", shots=16, seed=7, noise_model=model
        )
        result = execute(Circuit(2).h(0).cx(0, 1), options)
        assert result.counts.shots == 16


class TestUnbiasedness:
    """Trajectory averages estimate the exact density-matrix expectations."""

    @pytest.mark.parametrize(
        "circuit, model",
        [
            (_ghz(4), NoiseModel().add_channel(depolarizing(0.05))),
            (_layered(3), NoiseModel().add_channel(amplitude_damping(0.1))),
        ],
        ids=["ghz_depolarizing", "layered_damped"],
    )
    def test_within_five_sigma_of_density(self, circuit, model):
        observables = tuple(
            Pauli("Z", qubits=(q,)) for q in range(circuit.num_qubits)
        )
        exact = execute(
            circuit,
            RunOptions(
                backend="density_matrix", noise_model=model, observables=observables
            ),
        ).expectation_values
        trajectory = execute(
            circuit,
            RunOptions(
                backend="trajectory",
                shots=512,
                seed=11,
                noise_model=model,
                observables=observables,
            ),
        )
        stds = trajectory.metadata["expectation_std"]
        for estimate, reference, std in zip(
            trajectory.expectation_values, exact, stds
        ):
            assert abs(estimate - reference) <= 5 * max(std, 1e-3)

    def test_noiseless_static_circuit_takes_deterministic_fast_path(self):
        # No channels and no dynamic ops: the plan is deterministic, so
        # the trajectory backend computes one exact statevector instead of
        # looping shots (and the final state is retained as usual).
        result = execute(
            _ghz(3),
            RunOptions(
                backend="trajectory",
                shots=8,
                seed=3,
                observables=(Pauli("ZZ", qubits=(0, 1)),),
            ),
        )
        assert result.expectation_values[0] == pytest.approx(1.0, abs=1e-12)
        assert result.state is not None
        assert "expectation_std" not in result.metadata


class TestDeterminism:
    def _run(self, max_workers):
        model = NoiseModel().add_channel(depolarizing(0.03))
        return execute(
            _layered(3),
            RunOptions(
                backend="trajectory",
                shots=64,
                seed=42,
                memory=True,
                noise_model=model,
                observables=(Pauli("Z", qubits=(0,)),),
                max_workers=max_workers,
            ),
        )

    def test_same_seed_same_outcome(self):
        first, second = self._run(1), self._run(1)
        assert first.counts == second.counts
        assert first.memory == second.memory
        assert first.expectation_values == second.expectation_values

    def test_bitwise_identical_across_worker_counts(self):
        serial, parallel = self._run(1), self._run(4)
        assert serial.counts == parallel.counts
        assert serial.memory == parallel.memory
        assert serial.expectation_values == parallel.expectation_values
        assert (
            serial.metadata["expectation_std"]
            == parallel.metadata["expectation_std"]
        )


class TestContract:
    def test_shots_zero_rejected_for_stochastic_plans(self):
        model = NoiseModel().add_channel(depolarizing(0.1))
        with pytest.raises(ExecutionError, match="trajectory"):
            execute(
                Circuit(1).h(0),
                RunOptions(backend="trajectory", noise_model=model),
            )

    def test_no_final_state_retained(self):
        model = NoiseModel().add_channel(depolarizing(0.1))
        result = execute(
            Circuit(1).h(0),
            RunOptions(backend="trajectory", shots=4, seed=0, noise_model=model),
        )
        assert result.state is None
        with pytest.raises(ExecutionError, match="no final state"):
            result.expectation(Pauli("Z", qubits=(0,)))

    def test_counts_are_clbit_register_when_measuring(self):
        circuit = Circuit(2, num_clbits=1).h(0).measure(0, 0)
        result = execute(
            circuit, RunOptions(backend="trajectory", shots=32, seed=5)
        )
        assert result.counts.num_qubits == 1
        assert set(result.counts) <= {"0", "1"}


class TestShardSizes:
    """The split of one element's trajectories across pool workers."""

    @pytest.mark.parametrize(
        "total,num_shards",
        [(0, 1), (1, 1), (10, 3), (10, 10), (1000, 7), (5, 2)],
    )
    def test_sizes_sum_to_total(self, total, num_shards):
        sizes = shard_sizes(total, num_shards)
        assert len(sizes) == num_shards
        assert sum(sizes) == total

    def test_remainder_goes_to_leading_shards(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(11, 4) == [3, 3, 3, 2]

    def test_even_split(self):
        assert shard_sizes(12, 4) == [3, 3, 3, 3]
