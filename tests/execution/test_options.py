"""Tests for the frozen RunOptions bundle."""

import dataclasses

import pytest

from repro import Circuit, Pauli, PauliSum, RunOptions, execute
from repro.utils.exceptions import ExecutionError


class TestConstruction:
    def test_defaults(self):
        options = RunOptions()
        assert options.backend is None
        assert options.shots == 0
        assert options.seed is None
        assert options.optimize is False
        assert options.passes is None
        assert options.noise_model is None
        assert options.observables == ()
        assert options.memory is False

    def test_frozen(self):
        options = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.shots = 7

    def test_single_observable_wrapped(self):
        options = RunOptions(observables=Pauli("Z"))
        assert options.observables == (Pauli("Z"),)

    def test_observable_list_normalised_to_tuple(self):
        obs = PauliSum([(1.0, Pauli("Z"))])
        options = RunOptions(observables=[obs])
        assert options.observables == (obs,)

    def test_replace_revalidates(self):
        options = RunOptions(shots=16)
        assert options.replace(shots=32).shots == 32
        assert options.shots == 16  # original untouched
        with pytest.raises(ExecutionError):
            options.replace(shots=-1)


class TestValidation:
    def test_negative_shots(self):
        with pytest.raises(ExecutionError, match="shots"):
            RunOptions(shots=-1)

    def test_non_integer_shots(self):
        with pytest.raises(ExecutionError, match="shots"):
            RunOptions(shots=12.5)
        with pytest.raises(ExecutionError, match="shots"):
            RunOptions(shots=True)

    def test_non_integer_seed(self):
        import numpy as np

        with pytest.raises(ExecutionError, match="seed"):
            RunOptions(seed=np.random.default_rng(0))
        with pytest.raises(ExecutionError, match="seed"):
            RunOptions(seed="7")

    def test_memory_requires_shots(self):
        with pytest.raises(ExecutionError, match="memory"):
            RunOptions(memory=True)
        assert RunOptions(memory=True, shots=1).memory is True


class TestCoerce:
    def test_kwargs_build_options(self):
        options = RunOptions.coerce(None, shots=8, seed=3)
        assert (options.shots, options.seed) == (8, 3)

    def test_prebuilt_options_pass_through(self):
        options = RunOptions(shots=8)
        assert RunOptions.coerce(options) is options

    def test_mixing_rejected(self):
        with pytest.raises(ExecutionError, match="not both"):
            RunOptions.coerce(RunOptions(), shots=8)

    def test_unknown_keyword_lists_valid_options(self):
        # shard_shots was a real option until shot sharding was removed.
        for unknown in ("shotz", "shard_shots"):
            with pytest.raises(ExecutionError) as excinfo:
                RunOptions.coerce(None, **{unknown: 8})
            message = str(excinfo.value)
            assert repr(unknown) in message and "'shots'" in message

    def test_execute_rejects_removed_shard_shots(self):
        with pytest.raises(ExecutionError, match="shard_shots"):
            execute(Circuit(1).h(0), shots=8, shard_shots=4)

    def test_wrong_type_rejected(self):
        with pytest.raises(ExecutionError, match="RunOptions"):
            RunOptions.coerce({"shots": 8})


class TestSweepMode:
    def test_default_is_auto(self):
        assert RunOptions().sweep_mode == "auto"

    def test_accepted_values(self):
        for mode in ("auto", "batched", "per_element"):
            assert RunOptions(sweep_mode=mode).sweep_mode == mode

    def test_invalid_value_rejected(self):
        with pytest.raises(ExecutionError, match="sweep_mode"):
            RunOptions(sweep_mode="vectorised")

    def test_replace_revalidates(self):
        with pytest.raises(ExecutionError, match="sweep_mode"):
            RunOptions().replace(sweep_mode="nope")


class TestParallelOptions:
    def test_defaults_are_serial(self):
        options = RunOptions()
        assert options.max_workers is None

    def test_max_workers_accepts_positive_ints(self):
        assert RunOptions(max_workers=1).max_workers == 1
        assert RunOptions(max_workers=8).max_workers == 8

    def test_max_workers_rejects_non_positive(self):
        for bad in (0, -2):
            with pytest.raises(ExecutionError, match="max_workers"):
                RunOptions(max_workers=bad)

    def test_max_workers_rejects_non_ints(self):
        for bad in (2.5, "4", True):
            with pytest.raises(ExecutionError, match="max_workers"):
                RunOptions(max_workers=bad)

    def test_replace_revalidates_parallel_fields(self):
        with pytest.raises(ExecutionError, match="max_workers"):
            RunOptions().replace(max_workers=0)
