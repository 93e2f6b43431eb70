"""Built-in circuit lint rules and the rule registry."""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisContext,
    AnalysisError,
    Diagnostic,
    Rule,
    analyze,
    available_rules,
    get_rule,
    register_rule,
)
from repro.analysis.rules import _RULES
from repro.circuit import Channel, Circuit, Instruction
from repro.gates import get_gate
from repro.noise import depolarizing
from repro.plan import compile_plan

_BUILTINS = (
    "unused-qubit",
    "unused-clbit",
    "clbit-read-before-write",
    "dead-conditional",
    "measure-overwrite",
    "non-cptp-channel",
    "fusion-barrier-density",
    "resource-limit",
)


def _codes(circuit, **kwargs):
    return analyze(circuit, **kwargs).codes()


class TestRegistry:
    def test_builtins_registered_sorted(self):
        assert available_rules() == tuple(sorted(_BUILTINS))

    def test_get_rule_round_trip(self):
        assert get_rule("unused-qubit").code == "unused-qubit"

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("Unused-Qubit") is get_rule("unused-qubit")

    def test_unknown_rule_lists_registered_codes(self):
        with pytest.raises(AnalysisError, match="unused-qubit"):
            get_rule("no-such-rule")

    def test_unknown_rule_message_matches_registry_contract(self):
        with pytest.raises(AnalysisError, match="available:"):
            get_rule("no-such-rule")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="already registered"):
            register_rule(get_rule("unused-qubit"))

    def test_replace_allows_override(self):
        original = get_rule("unused-qubit")
        try:
            register_rule(original, replace=True)
            assert get_rule("unused-qubit") is original
        finally:
            _RULES["unused-qubit"] = original

    def test_rule_without_code_rejected(self):
        class Bad:
            def check(self, circuit, context):
                return ()

        with pytest.raises(AnalysisError, match="code"):
            register_rule(Bad())

    def test_rule_without_check_rejected(self):
        class Bad:
            code = "bad-rule"

        with pytest.raises(AnalysisError, match="check"):
            register_rule(Bad())

    def test_builtin_rules_satisfy_protocol(self):
        for code in _BUILTINS:
            assert isinstance(get_rule(code), Rule)


class TestUnusedQubit:
    def test_fires_per_untouched_qubit(self):
        report = analyze(Circuit(3).h(0), rules=("unused-qubit",))
        assert len(report.warnings) == 2
        assert "qubit 1" in report[0].message

    def test_clean_when_all_touched(self):
        assert not analyze(Circuit(2).h(0).cx(0, 1), rules=("unused-qubit",))


class TestUnusedClbit:
    def test_fires_for_never_touched_clbit(self):
        circuit = Circuit(1, num_clbits=2).measure(0, 1)
        report = analyze(circuit, rules=("unused-clbit",))
        assert [d.message for d in report] == [
            "clbit 0 is never measured into nor branched on"
        ]

    def test_branched_on_counts_as_used(self):
        circuit = Circuit(1).measure(0, 0).if_bit(
            0, 1, Instruction(get_gate("x"), (0,))
        )
        assert not analyze(circuit, rules=("unused-clbit",))


class TestReadBeforeWrite:
    def test_fires_when_conditional_precedes_measure(self):
        circuit = (
            Circuit(2)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
            .measure(0, 0)
        )
        report = analyze(circuit, rules=("clbit-read-before-write",))
        assert report[0].site == 0
        assert "before the first" in report[0].message

    def test_clean_when_measure_comes_first(self):
        circuit = (
            Circuit(2)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
        )
        assert not analyze(circuit, rules=("clbit-read-before-write",))

    def test_never_written_clbit_is_not_this_rules_finding(self):
        circuit = Circuit(1).if_bit(0, 1, Instruction(get_gate("x"), (0,)))
        assert not analyze(circuit, rules=("clbit-read-before-write",))


class TestDeadConditional:
    def test_fires_on_never_written_clbit(self):
        circuit = Circuit(1).if_bit(3, 1, Instruction(get_gate("x"), (0,)))
        report = analyze(circuit, rules=("dead-conditional",))
        assert "never applies" in report[0].message

    def test_value_zero_branch_always_applies(self):
        circuit = Circuit(1).if_bit(3, 0, Instruction(get_gate("x"), (0,)))
        report = analyze(circuit, rules=("dead-conditional",))
        assert "always" in report[0].message

    def test_clean_when_clbit_written_anywhere(self):
        circuit = (
            Circuit(1)
            .if_bit(0, 1, Instruction(get_gate("x"), (0,)))
            .measure(0, 0)
        )
        # Written later: read-before-write's finding, not dead-conditional's.
        assert not analyze(circuit, rules=("dead-conditional",))


class TestMeasureOverwrite:
    def test_fires_on_unread_remeasure(self):
        circuit = Circuit(2).measure(0, 0).measure(1, 0)
        report = analyze(circuit, rules=("measure-overwrite",))
        assert report[0].site == 1
        assert "outcome is lost" in report[0].message

    def test_conditional_read_clears_the_overwrite(self):
        circuit = (
            Circuit(2)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
            .measure(1, 0)
        )
        assert not analyze(circuit, rules=("measure-overwrite",))

    def test_distinct_clbits_are_clean(self):
        circuit = Circuit(2).measure(0, 0).measure(1, 1)
        assert not analyze(circuit, rules=("measure-overwrite",))


class TestNonCptpChannel:
    def test_leaky_channel_is_an_error(self):
        leaky = Channel(
            "leaky", 1, [np.eye(2) * 0.5], validate=False
        )
        circuit = Circuit(1).channel(leaky, (0,))
        report = analyze(circuit, rules=("non-cptp-channel",))
        assert report.has_errors
        assert "trace preserving" in report[0].message

    def test_valid_channel_is_clean(self):
        from repro.noise import depolarizing

        circuit = Circuit(1).channel(depolarizing(0.1), (0,))
        assert not analyze(circuit, rules=("non-cptp-channel",))

    def test_corrupted_kraus_shape_is_an_error(self):
        channel = Channel("dep", 1, [np.eye(2)], validate=False)
        # Simulate pickle corruption: swap in a wrong-shape operator.
        channel._kraus = (np.eye(4),)
        circuit = Circuit(1).append(channel, (0,))
        report = analyze(circuit, rules=("non-cptp-channel",))
        assert report.has_errors
        assert "shape" in report[0].message


class TestFusionBarrierDensity:
    def test_fires_on_barrier_dominated_circuit(self):
        circuit = Circuit(2).h(0).measure(0, 0).reset(1).measure(1, 1)
        report = analyze(circuit, rules=("fusion-barrier-density",))
        assert len(report.infos) == 1
        assert "fusion barriers" in report[0].message

    def test_short_circuits_are_exempt(self):
        circuit = Circuit(1).measure(0, 0)
        assert not analyze(circuit, rules=("fusion-barrier-density",))

    def test_gate_dominated_circuit_is_clean(self):
        circuit = Circuit(2).h(0).cx(0, 1).h(1).cx(1, 0).measure(0, 0)
        assert not analyze(circuit, rules=("fusion-barrier-density",))

    @staticmethod
    def _noisy_gates():
        # 8 gates, each followed by a channel: half the circuit is channels.
        circuit = Circuit(2)
        for qubit in (0, 1, 0, 1, 0, 1, 0, 1):
            circuit.h(qubit).channel(depolarizing(0.01), (qubit,))
        return circuit

    def test_channels_are_not_barriers_in_ptm_mode(self):
        # ptm lowering fuses the whole body into one op, so no finding.
        circuit = self._noisy_gates()
        assert len(compile_plan(circuit, "ptm", use_cache=False).ops) == 1
        context = AnalysisContext(mode="ptm")
        assert not analyze(circuit, rules=("fusion-barrier-density",), context=context)

    def test_channels_are_barriers_in_density_mode(self):
        context = AnalysisContext(mode="density")
        report = analyze(self._noisy_gates(), rules=("fusion-barrier-density",), context=context)
        assert len(report.infos) == 1
        assert "8 of 16" in report[0].message


class TestResourceRule:
    def test_pure_state_estimate_warns_over_threshold(self):
        context = AnalysisContext(warn_memory_bytes=0, max_memory_bytes=10**12)
        report = analyze(Circuit(4).h(0), rules=("resource-limit",), context=context)
        assert len(report.warnings) == 1
        assert "2**n" in report[0].message

    def test_density_mode_uses_quartic_scaling(self):
        context = AnalysisContext(
            mode="density", warn_memory_bytes=0, max_memory_bytes=10**12
        )
        report = analyze(Circuit(4).h(0), rules=("resource-limit",), context=context)
        assert "4**n" in report[0].message
        assert "density matrix" in report[0].message

    def test_over_hard_limit_is_an_error(self):
        context = AnalysisContext(warn_memory_bytes=0, max_memory_bytes=0)
        report = analyze(Circuit(4).h(0), rules=("resource-limit",), context=context)
        assert report.has_errors
        assert "will not fit" in report[0].message

    def test_small_circuit_is_clean_by_default(self):
        assert not analyze(Circuit(4).h(0), rules=("resource-limit",))


class TestContextFiltering:
    """Ruff-style select / ignore / per-code severity on AnalysisContext."""

    def _noisy_circuit(self):
        # unused-qubit warnings + a measure-overwrite warning.
        return Circuit(3).h(0).measure(0, 0).measure(1, 0)

    def test_select_keeps_only_listed_codes(self):
        report = analyze(
            self._noisy_circuit(),
            context=AnalysisContext(select=("unused-qubit",)),
        )
        assert set(report.codes()) == {"unused-qubit"}

    def test_ignore_drops_listed_codes(self):
        report = analyze(
            self._noisy_circuit(),
            context=AnalysisContext(ignore=("unused-qubit",)),
        )
        assert "unused-qubit" not in report.codes()
        assert "measure-overwrite" in report.codes()

    def test_ignore_applies_after_select(self):
        context = AnalysisContext(
            select=("unused-qubit",), ignore=("unused-qubit",)
        )
        assert not analyze(self._noisy_circuit(), context=context)

    def test_select_accepts_a_bare_string(self):
        context = AnalysisContext(select="unused-qubit")
        report = analyze(self._noisy_circuit(), context=context)
        assert set(report.codes()) == {"unused-qubit"}

    def test_codes_are_case_insensitive(self):
        context = AnalysisContext(select=("Unused-Qubit",))
        report = analyze(self._noisy_circuit(), context=context)
        assert set(report.codes()) == {"unused-qubit"}

    def test_severity_override_promotes_to_error(self):
        context = AnalysisContext(
            severity_overrides={"unused-qubit": "error"}
        )
        report = analyze(self._noisy_circuit(), context=context)
        assert report.has_errors
        assert all(
            d.severity == "error"
            for d in report
            if d.code == "unused-qubit"
        )

    def test_severity_override_demotes_to_info(self):
        context = AnalysisContext(
            severity_overrides={"unused-qubit": "info"}
        )
        report = analyze(Circuit(2).h(0), context=context)
        assert not report.warnings
        assert report.infos

    def test_invalid_severity_level_rejected(self):
        with pytest.raises(AnalysisError, match="severity"):
            AnalysisContext(severity_overrides={"unused-qubit": "fatal"})

    def test_invalid_code_entry_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisContext(select=(42,))

    def test_context_stays_hashable(self):
        context = AnalysisContext(
            select=("a",), ignore=("b",), severity_overrides={"c": "error"}
        )
        assert hash(context) == hash(context)
        assert context == AnalysisContext(
            select=("a",), ignore=("b",), severity_overrides={"c": "error"}
        )

    def test_apply_is_idempotent(self):
        context = AnalysisContext(
            select=("unused-qubit",),
            severity_overrides={"unused-qubit": "error"},
        )
        report = analyze(self._noisy_circuit(), context=context)
        assert context.apply(tuple(report)) == tuple(report)


class TestAnalyzeDriver:
    def test_requires_a_circuit(self):
        with pytest.raises(AnalysisError, match="Circuit"):
            analyze("not a circuit")

    def test_runs_all_rules_by_default(self):
        circuit = Circuit(2).h(0)  # qubit 1 unused
        assert "unused-qubit" in _codes(circuit)

    def test_subset_by_code(self):
        circuit = Circuit(2).h(0)
        report = analyze(circuit, rules=("unused-clbit",))
        assert not report  # unused-qubit rule not selected

    def test_ad_hoc_rule_object(self):
        class AdHoc:
            code = "ad-hoc"

            def check(self, circuit, context):
                yield Diagnostic("info", self.code, "hello")

        report = analyze(Circuit(1).h(0), rules=(AdHoc(),))
        assert report.codes() == ("ad-hoc",)

    def test_invalid_rules_entry_rejected(self):
        with pytest.raises(AnalysisError, match="codes or Rule"):
            analyze(Circuit(1).h(0), rules=(42,))

    def test_clean_circuit_empty_report(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        assert not analyze(circuit)
