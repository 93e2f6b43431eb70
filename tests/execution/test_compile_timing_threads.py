"""Compile timings under two ExecutionService dispatchers.

A batch whose plan comes from the cache reports zero transpile time,
even when another dispatcher's compile misses the cache while the hit's
lookup is still in progress.
"""

import threading

import pytest

import repro.plan.cache as cache_module
from repro import Circuit, RunOptions, clear_plan_cache, compile_plan
from repro.service import ExecutionService


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def test_hit_overlapping_another_miss_reports_no_transpile(monkeypatch):
    options = RunOptions(optimize=True)
    hit = Circuit(2, name="hit").h(0).h(0).cx(0, 1)
    miss = Circuit(3, name="miss").h(0).cx(0, 1).cx(1, 2)
    cached = compile_plan(hit, "statevector", options)
    assert cached.transpile_time_s > 0

    looking = threading.Event()
    missed = threading.Event()
    lookup = cache_module.cache_get

    def interleaved_cache_get(circuit, *args, **kwargs):
        # The "hit" lookup starts first and finishes only after the
        # "miss" lookup has counted its miss.
        if circuit.name == "hit":
            looking.set()
            assert missed.wait(timeout=30), "the other compile never missed"
            return lookup(circuit, *args, **kwargs)
        assert looking.wait(timeout=30), "the cached compile never started"
        plan = lookup(circuit, *args, **kwargs)
        if plan is None:
            missed.set()
        return plan

    monkeypatch.setattr(cache_module, "cache_get", interleaved_cache_get)
    with ExecutionService(max_pending=4, dispatchers=2) as service:
        hit_job = service.submit([hit], options)
        miss_job = service.submit([miss], options)
        hit_batch = hit_job.result(timeout=60)
        miss_batch = miss_job.result(timeout=60)

    assert hit_batch.metadata["transpile_time_s"] == 0.0
    assert miss_batch.metadata["transpile_time_s"] > 0
