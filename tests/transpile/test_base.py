"""Tests for the Pass / PassManager / transpile core."""

import pytest

from repro.circuit import Circuit
from repro.transpile import (
    DropIdentities,
    FuseAdjacentGates,
    Pass,
    PassManager,
    default_passes,
    transpile,
)
from repro.transpile.base import as_pass_manager
from repro.utils.exceptions import TranspilerError


class _Renamer(Pass):
    """Test pass: returns a copy with a new name (no instruction changes)."""

    def run(self, circuit):
        return circuit.copy(name="renamed")


class _WidthChanger(Pass):
    """Broken pass: silently changes the register width."""

    def run(self, circuit):
        return Circuit(circuit.num_qubits + 1)


class _NotACircuit(Pass):
    """Broken pass: returns the wrong type."""

    def run(self, circuit):
        return [i for i in circuit]


class TestPass:
    def test_name_defaults_to_class_name(self):
        assert _Renamer().name == "_Renamer"
        assert DropIdentities().name == "DropIdentities"

    def test_call_invokes_run(self):
        circuit = Circuit(2).h(0)
        assert _Renamer()(circuit).name == "renamed"

    def test_pass_is_abstract(self):
        with pytest.raises(TypeError):
            Pass()


class TestPassManager:
    def test_runs_passes_in_order(self):
        circuit = Circuit(2).h(0).h(0).rz(0.0, 1)
        manager = PassManager(default_passes())
        result = manager.run(circuit)
        assert len(result) == 0

    def test_append_chains(self):
        manager = PassManager().append(DropIdentities()).append(FuseAdjacentGates())
        assert len(manager) == 2
        assert [p.name for p in manager.passes] == [
            "DropIdentities",
            "FuseAdjacentGates",
        ]

    def test_rejects_non_pass(self):
        with pytest.raises(TranspilerError):
            PassManager([DropIdentities(), "not a pass"])

    def test_rejects_non_circuit_input(self):
        with pytest.raises(TranspilerError):
            PassManager().run("not a circuit")

    def test_width_change_detected(self):
        with pytest.raises(TranspilerError, match="register width"):
            PassManager([_WidthChanger()]).run(Circuit(2).h(0))

    def test_non_circuit_result_detected(self):
        with pytest.raises(TranspilerError, match="expected a Circuit"):
            PassManager([_NotACircuit()]).run(Circuit(2).h(0))

    def test_last_stats_records_each_pass(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        manager = PassManager(default_passes())
        manager.run(circuit)
        stats = manager.last_stats
        assert [s.pass_name for s in stats] == [
            "DropIdentities",
            "CancelInversePairs",
            "FuseAdjacentGates",
        ]
        assert stats[0].gates_before == 3
        assert stats[1].gates_after == 1  # h·h cancelled
        assert stats[-1].as_dict()["pass"] == "FuseAdjacentGates"

    def test_run_with_stats_returns_its_own_stats(self):
        manager = PassManager([DropIdentities()])
        manager.run(Circuit(1).h(0))
        before = manager.last_stats
        result, stats = manager._run_with_stats(Circuit(1).rz(0.0, 0).h(0))
        assert len(result) == 1
        assert [s.gates_before for s in stats] == [2]
        # last_stats belongs to run(); the stats-returning entry point
        # leaves it alone so concurrent callers never see each other's.
        assert manager.last_stats is before

    def test_empty_manager_is_identity(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        assert PassManager().run(circuit) == circuit


class TestTranspile:
    def test_default_pipeline(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        result = transpile(circuit)
        assert len(result) < len(circuit)

    def test_input_never_mutated(self):
        circuit = Circuit(2).h(0).h(0)
        before = circuit.instructions
        transpile(circuit)
        assert circuit.instructions == before

    def test_explicit_pass_sequence(self):
        circuit = Circuit(2).rz(0.0, 0).h(1)
        result = transpile(circuit, passes=[DropIdentities()])
        assert len(result) == 1

    def test_prebuilt_pass_manager(self):
        manager = PassManager([DropIdentities()])
        circuit = Circuit(2).rz(0.0, 0).h(1)
        assert len(transpile(circuit, passes=manager)) == 1
        assert manager.last_stats[0].gates_after == 1

    def test_max_fused_width_forwarded(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        wide = transpile(circuit, max_fused_width=3)
        assert len(wide) == 1  # everything fuses into one 3-qubit unitary

    def test_as_pass_manager_builds_the_default_pipeline(self):
        manager = as_pass_manager(None)
        manager.run(Circuit(2).h(0).h(0))
        assert manager.last_stats[1].gates_after == 0
        assert as_pass_manager(manager) is manager

    def test_lowering_keywords_are_gone(self):
        with pytest.raises(TypeError):
            transpile(Circuit(1).h(0), lower=lambda circuit: circuit)
        with pytest.raises(TypeError):
            transpile(Circuit(1).h(0), pass_manager_out=[])
