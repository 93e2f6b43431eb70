"""Tests for the process-wide plan cache and the compile-once contract."""

import numpy as np
import pytest

from repro import (
    Circuit,
    Parameter,
    RunOptions,
    clear_plan_cache,
    compile_plan,
    execute,
    plan_cache_info,
)
from repro.plan import add_lower_hook, remove_lower_hook


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture()
def lowering_counter():
    calls = []
    hook = lambda circuit, plan: calls.append(circuit)  # noqa: E731
    add_lower_hook(hook)
    yield calls
    remove_lower_hook(hook)


def _bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cx(0, 1)


class TestCacheHits:
    def test_same_circuit_and_options_hits(self):
        circuit = _bell()
        first = compile_plan(circuit, "statevector")
        second = compile_plan(circuit, "statevector")
        assert second is first
        info = plan_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1

    def test_identical_content_hits_across_objects(self):
        # Keying is by instruction content, not object identity: two
        # separately built but equal circuits share one plan.
        compile_plan(_bell(), "statevector")
        compile_plan(_bell(), "statevector")
        assert plan_cache_info()["hits"] == 1

    def test_execute_reuses_cached_plan(self, lowering_counter):
        circuit = _bell()
        execute(circuit)
        execute(circuit)
        assert len(lowering_counter) == 1
        assert plan_cache_info()["hits"] >= 1

    def test_use_cache_false_bypasses(self):
        circuit = _bell()
        compile_plan(circuit, "statevector", use_cache=False)
        compile_plan(circuit, "statevector", use_cache=False)
        info = plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0 and info["size"] == 0


class TestCacheMisses:
    def test_differing_backend_misses(self):
        circuit = _bell()
        compile_plan(circuit, "statevector")
        compile_plan(circuit, "density_matrix")
        info = plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2

    def test_differing_dtype_misses(self):
        from repro.sim import StatevectorBackend

        circuit = _bell()
        compile_plan(circuit, StatevectorBackend())
        compile_plan(circuit, StatevectorBackend(dtype=np.complex64))
        info = plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2

    def test_differing_noise_model_misses(self):
        from repro.noise import NoiseModel, bit_flip

        circuit = _bell()
        model_a = NoiseModel().add_channel(bit_flip(0.1))
        model_b = NoiseModel().add_channel(bit_flip(0.1))
        compile_plan(circuit, "density_matrix", RunOptions(noise_model=model_a))
        compile_plan(circuit, "density_matrix", RunOptions(noise_model=model_b))
        compile_plan(circuit, "density_matrix", RunOptions(noise_model=model_a))
        info = plan_cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1  # model_a again does hit

    def test_noise_model_mutation_misses(self):
        from repro.noise import NoiseModel, bit_flip

        circuit = _bell()
        model = NoiseModel().add_channel(bit_flip(0.1))
        compile_plan(circuit, "density_matrix", RunOptions(noise_model=model))
        model.add_channel(bit_flip(0.2))
        plan = compile_plan(
            circuit, "density_matrix", RunOptions(noise_model=model)
        )
        assert plan_cache_info()["misses"] == 2
        # And the recompiled plan carries the new rule's Kraus ops.
        from repro.plan import DensityKrausOp

        kraus_ops = [op for op in plan.ops if isinstance(op, DensityKrausOp)]
        assert len(kraus_ops) == 6  # 2 rules x 3 gate-qubit applications

    def test_differing_passes_misses(self):
        from repro.transpile import DropIdentities

        circuit = _bell()
        compile_plan(circuit, "statevector", RunOptions(passes=[DropIdentities()]))
        compile_plan(circuit, "statevector", RunOptions(passes=[DropIdentities()]))
        info = plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2

    def test_same_passes_object_hits(self):
        from repro.transpile import DropIdentities

        circuit = _bell()
        passes = [DropIdentities()]
        compile_plan(circuit, "statevector", RunOptions(passes=passes))
        compile_plan(circuit, "statevector", RunOptions(passes=passes))
        assert plan_cache_info()["hits"] == 1

    def test_optimize_flag_misses(self):
        circuit = _bell()
        compile_plan(circuit, "statevector")
        compile_plan(circuit, "statevector", RunOptions(optimize=True))
        info = plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2

    def test_appending_to_circuit_misses(self):
        circuit = _bell()
        compile_plan(circuit, "statevector")
        circuit.h(1)
        compile_plan(circuit, "statevector")
        assert plan_cache_info()["misses"] == 2

    def test_differing_num_clbits_misses(self):
        # Identical instructions, but the classical register widths
        # differ, and so do the plans' registers.
        narrow = compile_plan(Circuit(2, num_clbits=1).h(0).cx(0, 1), "statevector")
        wide = compile_plan(Circuit(2, num_clbits=3).h(0).cx(0, 1), "statevector")
        assert wide is not narrow
        assert (narrow.num_clbits, wide.num_clbits) == (1, 3)
        assert plan_cache_info()["misses"] == 2


class TestStatsComputedOnce:
    @pytest.fixture()
    def stats_calls(self, monkeypatch):
        calls = []
        stats = Circuit.stats

        def counted(circuit):
            calls.append(circuit)
            return stats(circuit)

        monkeypatch.setattr(Circuit, "stats", counted)
        return calls

    @pytest.mark.parametrize("optimize", [False, True])
    def test_miss_computes_stats_once_and_hit_never(self, stats_calls, optimize):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).rz(0.2, 2)
        options = RunOptions(optimize=optimize)
        plan = compile_plan(circuit, "statevector", options)
        assert len(stats_calls) == 1
        assert plan.stats == plan.circuit.stats()
        del stats_calls[:]
        assert compile_plan(circuit, "statevector", options) is plan
        assert stats_calls == []


class TestBindNeverRelowers:
    def test_cached_parametric_plan_binds_without_lowering(self, lowering_counter):
        theta = Parameter("theta")
        template = Circuit(2).ry(theta, 0).cx(0, 1)
        plan = compile_plan(template, "statevector")
        assert len(lowering_counter) == 1
        for value in (0.1, 0.2, 0.3):
            plan.bind({theta: value})
        assert len(lowering_counter) == 1
        # A second compile is a cache hit: still exactly one lowering.
        again = compile_plan(template, "statevector")
        assert again is plan
        assert len(lowering_counter) == 1

    def test_sweep_through_execute_lowers_once(self, lowering_counter):
        theta = Parameter("theta")
        template = Circuit(2).ry(theta, 0).cx(0, 1)
        sweep = [{theta: v} for v in np.linspace(0.0, np.pi, 7)]
        execute(template, parameter_sweep=sweep)
        execute(template, parameter_sweep=sweep, sweep_mode="per_element")
        assert len(lowering_counter) == 1


class TestCacheBookkeeping:
    def test_clear_resets_counters(self):
        compile_plan(_bell(), "statevector")
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": info["maxsize"],
        }

    def test_lru_bounded(self):
        maxsize = plan_cache_info()["maxsize"]
        for width in range(1, maxsize + 10):
            circuit = Circuit(1)
            for _ in range(width):
                circuit.h(0)
            compile_plan(circuit, "statevector")
        assert plan_cache_info()["size"] == maxsize


class TestPassManagerMutation:
    def test_appending_to_pass_manager_misses(self):
        # PassManager.append() is public: mutating the pipeline must not
        # hand back the stale pre-append plan.
        from repro import Circuit, run
        from repro.transpile import DropIdentities, PassManager

        circuit = Circuit(1).x(0).rz(0.0, 0)
        manager = PassManager([])
        first = run(circuit, options=RunOptions(passes=manager))
        manager.append(DropIdentities())
        second = run(circuit, options=RunOptions(passes=manager))
        assert plan_cache_info()["misses"] == 2  # no stale hit
        assert np.array_equal(first.data, second.data)  # rz(0) is identity

    def test_replacing_a_list_element_misses(self):
        # In-place replacement of a pass inside a caller-held list must
        # not produce a stale hit: the entry pins the old element, so the
        # new pass can never recycle its id.
        from repro import Circuit, run
        from repro.transpile import CancelInversePairs, DropIdentities

        circuit = Circuit(1).x(0).rz(0.0, 0)
        passes = [DropIdentities()]
        run(circuit, options=RunOptions(passes=passes))
        passes[0] = CancelInversePairs()
        run(circuit, options=RunOptions(passes=passes))
        assert plan_cache_info()["misses"] == 2


class TestThreadSafety:
    def test_concurrent_get_put_info_clear(self):
        # The async service compiles from dispatcher threads while the
        # main thread compiles too; hammer every cache entry point at
        # once and require internally consistent counters at the end.
        import threading

        def distinct_circuit(worker: int, step: int) -> Circuit:
            circuit = Circuit(2)
            for _ in range(1 + (worker * 17 + step) % 8):
                circuit.h(0)
            circuit.cx(0, 1)
            return circuit

        errors = []

        def hammer(worker: int):
            try:
                for step in range(30):
                    compile_plan(distinct_circuit(worker, step), "statevector")
                    plan_cache_info()
                    if worker == 0 and step % 10 == 9:
                        clear_plan_cache()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        info = plan_cache_info()
        assert 0 <= info["size"] <= info["maxsize"]
        assert info["hits"] >= 0 and info["misses"] >= 0
