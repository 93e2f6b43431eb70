"""Dynamic ops through the plan layer: lowering, execution, batch guard."""

import numpy as np
import pytest

from repro import (
    Circuit,
    Instruction,
    NoiseModel,
    Parameter,
    RunOptions,
    compile_plan,
    depolarizing,
)
from repro.gates import get_gate
from repro.plan import (
    ConditionalOp,
    MeasureOp,
    ResetOp,
    TrajectoryKrausOp,
    execute_dynamic_density,
    execute_dynamic_pure,
    run_batched_sweep,
)
from repro.sim import DensityMatrixBackend, StatevectorBackend, get_backend
from repro.utils.exceptions import SimulationError


def _dynamic_circuit():
    return (
        Circuit(2, num_clbits=1)
        .h(0)
        .measure(0, 0)
        .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
        .reset(0)
    )


class TestLowering:
    def test_statevector_lowering_op_types(self):
        plan = compile_plan(_dynamic_circuit(), StatevectorBackend(), use_cache=False)
        assert plan.has_dynamic_ops
        assert plan.num_clbits == 1
        kinds = [type(op).__name__ for op in plan.ops]
        assert "MeasureOp" in kinds
        assert "ConditionalOp" in kinds
        assert "ResetOp" in kinds

    def test_density_lowering_op_types(self):
        plan = compile_plan(_dynamic_circuit(), DensityMatrixBackend(), use_cache=False)
        assert plan.has_dynamic_ops
        assert plan.num_clbits == 1

    def test_trajectory_mode_lowers_channels_to_sampled_kraus(self):
        from repro import RunOptions

        model = NoiseModel().add_channel(depolarizing(0.1))
        plan = compile_plan(
            Circuit(1).h(0),
            get_backend("trajectory"),
            RunOptions(noise_model=model),
            use_cache=False,
        )
        assert any(isinstance(op, TrajectoryKrausOp) for op in plan.ops)
        assert plan.has_dynamic_ops

    def test_static_plan_reports_no_dynamic_ops(self):
        plan = compile_plan(Circuit(1).h(0), StatevectorBackend(), use_cache=False)
        assert not plan.has_dynamic_ops
        assert plan.num_clbits == 0

    def test_dynamic_ops_refuse_static_apply(self):
        op = MeasureOp(0, 0, 1)
        with pytest.raises(SimulationError):
            op.apply(np.array([1.0, 0.0], dtype=np.complex128))


class TestDynamicExecution:
    def test_pure_trajectory_records_bits(self):
        plan = compile_plan(_dynamic_circuit(), StatevectorBackend(), use_cache=False)
        tensor = np.zeros((2, 2), dtype=np.complex128)
        tensor[0, 0] = 1.0
        state, bits = execute_dynamic_pure(plan, tensor, np.random.default_rng(0))
        assert bits in ((0,), (1,))
        # Qubit 0 was reset; if the measurement read 1, qubit 1 was flipped.
        expected = np.zeros((2, 2), dtype=np.complex128)
        expected[0, bits[0]] = 1.0
        np.testing.assert_allclose(np.abs(state), np.abs(expected), atol=1e-12)

    def test_density_distribution_is_exact(self):
        plan = compile_plan(_dynamic_circuit(), DensityMatrixBackend(), use_cache=False)
        tensor = np.zeros((2, 2, 2, 2), dtype=np.complex128)
        tensor[0, 0, 0, 0] = 1.0
        rho, distribution = execute_dynamic_density(plan, tensor)
        assert distribution["0"] == pytest.approx(0.5)
        assert distribution["1"] == pytest.approx(0.5)
        trace = np.trace(rho.reshape(4, 4))
        assert trace.real == pytest.approx(1.0, abs=1e-12)

    def test_conditional_op_applies_only_on_match(self):
        from repro.plan import ContractOp

        inner = ContractOp("x", get_gate("x").matrix, (0,), np.complex128)
        op = ConditionalOp(0, 1, inner)
        state = np.array([1.0, 0.0], dtype=np.complex128)
        untouched = op.apply_pure(state, np.random.default_rng(0), [0])
        np.testing.assert_array_equal(untouched, state)
        flipped = op.apply_pure(state, np.random.default_rng(0), [1])
        np.testing.assert_array_equal(flipped, np.array([0.0, 1.0]))


class TestBatchGuard:
    def test_batched_sweep_rejects_dynamic_plans(self):
        theta = Parameter("theta")
        circuit = Circuit(1, num_clbits=1).ry(theta, 0).measure(0, 0)
        plan = compile_plan(circuit, StatevectorBackend(), use_cache=False)
        with pytest.raises(SimulationError, match="dynamic") as info:
            run_batched_sweep(plan, [{theta: 0.1}, {theta: 0.2}])
        # The remedy it names must be a sweep_mode RunOptions accepts.
        assert "sweep_mode='per_element'" in str(info.value)
        RunOptions(sweep_mode="per_element")
