"""Certifier + sanitizer determinism under concurrency.

The certificates and sanitizer diagnostics are part of the result
surface, so they inherit the library's core parallelism contract:
worker count and thread interleaving must never change them.  These
tests hammer the plan cache from threads and compare parallel
(``max_workers=2``) against serial execution bitwise — states, counts,
certificates, and diagnostics alike.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Circuit, RunOptions, clear_plan_cache, execute
from repro.circuit import Parameter
from repro.plan import compile_plan, plan_cache_info
from repro.sim import get_backend


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _template(num_qubits=4):
    theta = Parameter("theta")
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
        circuit.h(q)  # cancellable: gives the certifier real sites
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    circuit.rz(theta, 0)
    return circuit


class TestPlanCacheUnderThreads:
    def test_concurrent_certified_compiles_share_one_plan(self):
        circuit = _template()
        backend = get_backend("statevector")
        options = RunOptions(optimize=True, certify=True)

        def compile_once(_):
            return compile_plan(circuit, backend, options)

        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(compile_once, range(16)))
        # A thread stampede may compile duplicates (the cache races
        # compile-then-put by design), but it must never corrupt them:
        # every plan carries identical certified certificates...
        reference = [s["certificate"] for s in plans[0].pass_stats]
        assert reference and all(
            c is not None and c["status"] == "certified" for c in reference
        )
        for plan in plans[1:]:
            assert [s["certificate"] for s in plan.pass_stats] == reference
        # ...and once the dust settles the cache serves one instance.
        settled = compile_plan(circuit, backend, options)
        assert compile_plan(circuit, backend, options) is settled

    def test_certified_and_uncertified_plans_are_distinct_entries(self):
        circuit = _template()
        backend = get_backend("statevector")
        plain = compile_plan(
            circuit, backend, RunOptions(optimize=True)
        )
        certified = compile_plan(
            circuit, backend, RunOptions(optimize=True, certify=True)
        )
        assert plain is not certified
        assert all(s["certificate"] is None for s in plain.pass_stats)
        assert all(
            s["certificate"] is not None for s in certified.pass_stats
        )
        assert plan_cache_info()["size"] >= 2

    def test_certificates_identical_across_threads_and_reruns(self):
        circuit = _template()
        backend = get_backend("statevector")
        options = RunOptions(optimize=True, certify=True)

        def certificate_dicts(_):
            plan = compile_plan(circuit, backend, options, use_cache=False)
            return [s["certificate"] for s in plan.pass_stats]

        with ThreadPoolExecutor(max_workers=4) as pool:
            all_runs = list(pool.map(certificate_dicts, range(8)))
        for run_result in all_runs[1:]:
            assert run_result == all_runs[0]


class TestParallelExecutionParity:
    def _sweep(self):
        return [{"theta": 0.1 * i} for i in range(6)]

    def test_states_and_certificates_match_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        circuit = _template()
        common = dict(
            parameter_sweep=self._sweep(),
            sweep_mode="per_element",
            optimize=True,
            certify=True,
            sanitize="warn",
            seed=5,
        )
        serial = execute(circuit, max_workers=1, **common)
        parallel = execute(circuit, max_workers=2, **common)
        ambient = execute(circuit, **common)  # workers from the env var
        for lhs in (parallel, ambient):
            assert len(lhs.results) == len(serial.results)
            for a, b in zip(serial.results, lhs.results):
                np.testing.assert_array_equal(a.state.data, b.state.data)

    def test_sampled_counts_match_serial_with_sanitizer_on(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        circuits = [
            Circuit(3).h(0).cx(0, 1).cx(1, 2),
            Circuit(3).h(0).h(1).cx(1, 2),
        ]
        serial = execute(circuits, shots=256, seed=9, max_workers=1)
        parallel = execute(circuits, shots=256, seed=9, max_workers=2)
        assert parallel.metadata["workers"] == 2
        for a, b in zip(serial, parallel):
            assert a.counts == b.counts

    def test_batched_sweep_sanitized_matches_per_element(self):
        circuit = _template()
        sweep = self._sweep()
        batched = execute(
            circuit,
            parameter_sweep=sweep,
            sweep_mode="batched",
            sanitize="strict",
        )
        per_element = execute(
            circuit,
            parameter_sweep=sweep,
            sweep_mode="per_element",
            sanitize="strict",
        )
        for a, b in zip(batched.results, per_element.results):
            np.testing.assert_allclose(
                a.state.data, b.state.data, atol=1e-12
            )
