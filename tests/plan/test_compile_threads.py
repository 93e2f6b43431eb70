"""compile_plan under threads that share one PassManager.

Each plan must carry the pass statistics of its own circuit's pass run,
even when another thread runs the same manager between that pass run
and the construction of the plan.
"""

import threading

import pytest

import repro.plan.plan as plan_module
from repro import Circuit, RunOptions, compile_plan
from repro.transpile import DropIdentities, PassManager


@pytest.fixture
def paused_lowering(monkeypatch):
    """Hold the lowering of the thread named ``"first"`` until released."""
    release = threading.Event()
    lowering = threading.Event()
    lower = plan_module._lower

    def held_lower(*args, **kwargs):
        if threading.current_thread().name == "first":
            lowering.set()
            assert release.wait(timeout=30), "second compile never finished"
        return lower(*args, **kwargs)

    monkeypatch.setattr(plan_module, "_lower", held_lower)
    return lowering, release


def test_shared_pass_manager_keeps_each_plans_own_stats(paused_lowering):
    lowering, release = paused_lowering
    options = RunOptions(passes=PassManager([DropIdentities()]))
    first = Circuit(2).h(0).rz(0.0, 1).cx(0, 1)
    second = Circuit(3).h(0).cx(0, 1).cx(1, 2).x(2).rz(0.0, 0)
    plans = {}

    def compile_first():
        plans["first"] = compile_plan(first, "statevector", options, use_cache=False)

    thread = threading.Thread(target=compile_first, name="first")
    thread.start()
    try:
        # The first thread has run its passes and now waits inside the
        # lowering step; the second compile runs the same manager meanwhile.
        assert lowering.wait(timeout=30), "first compile never reached lowering"
        plans["second"] = compile_plan(second, "statevector", options, use_cache=False)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()

    for name, circuit in (("first", first), ("second", second)):
        stats = plans[name].pass_stats
        assert stats[0]["gates_before"] == len(circuit), name
        assert stats[0]["gates_after"] == len(plans[name].circuit), name
