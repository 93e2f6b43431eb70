"""Semantic equivalence certification of transpile-pass rewrites."""

import numpy as np
import pytest

from repro.analysis import Certificate, certify_rewrite
from repro.bench.workloads import default_workloads
from repro.circuit import Circuit, Instruction
from repro.gates import get_gate
from repro.noise import depolarizing
from repro.transpile import (
    CancelInversePairs,
    DropIdentities,
    FuseAdjacentGates,
    Pass,
    PassManager,
    transpile,
)
from repro.transpile.base import default_passes
from repro.utils import AnalysisError, CertificationError


def _rebuilt(circuit, instructions):
    """A circuit over the same registers holding ``instructions``."""
    clone = Circuit(
        circuit.num_qubits, num_clbits=circuit.num_clbits
    )
    clone.extend(list(instructions))
    return clone


class _DropFirstGate(Pass):
    """A deliberately broken pass: silently deletes the first instruction."""

    def run(self, circuit):
        return _rebuilt(circuit, circuit.instructions[1:])


class _FlipFirstToX(Pass):
    """A deliberately broken pass: rewrites the first gate to X in place."""

    def run(self, circuit):
        first = circuit.instructions[0]
        swapped = Instruction(get_gate("x"), first.qubits[:1])
        return _rebuilt(circuit, (swapped,) + circuit.instructions[1:])


class _Identity(Pass):
    def run(self, circuit):
        return circuit.copy()


class TestCertificate:
    def test_as_dict_shape(self):
        cert = certify_rewrite(Circuit(1).h(0), Circuit(1).h(0), "noop")
        payload = cert.as_dict()
        assert set(payload) == {
            "pass",
            "status",
            "sites",
            "max_support",
            "max_deviation",
            "diagnostics",
        }
        assert payload["pass"] == "noop"
        assert payload["status"] == "certified"

    def test_raise_if_failed_chains_on_success(self):
        cert = certify_rewrite(Circuit(1).h(0), Circuit(1).h(0))
        assert cert.raise_if_failed() is cert

    def test_raise_if_failed_raises_with_diagnostics(self):
        cert = certify_rewrite(Circuit(1).h(0), Circuit(1).x(0), "bad")
        assert not cert.ok
        with pytest.raises(CertificationError, match="certify-not-equivalent"):
            cert.raise_if_failed()

    def test_input_validation(self):
        with pytest.raises(AnalysisError, match="Circuit"):
            certify_rewrite("nope", Circuit(1))
        with pytest.raises(AnalysisError, match="max_support"):
            certify_rewrite(Circuit(1), Circuit(1), max_support=0)


class TestEquivalentRewrites:
    def test_unchanged_circuit_has_zero_sites(self):
        cert = certify_rewrite(Circuit(2).h(0).cx(0, 1), Circuit(2).h(0).cx(0, 1))
        assert cert.ok and cert.sites == 0 and cert.max_support == 0

    def test_adjacent_inverse_pair_cancellation(self):
        before = Circuit(1).h(0).h(0).x(0)
        after = Circuit(1).x(0)
        cert = certify_rewrite(before, after)
        assert cert.ok
        assert cert.sites == 1
        assert cert.max_support == 1

    def test_cross_gap_cancellation(self):
        # The pair h(0)...h(0) straddles a gate on a *different* qubit;
        # hunk-local diffing sees two separate one-gate deletions, each
        # locally non-equivalent.  The certifier must escalate and prove
        # them jointly (regression: CancelInversePairs on random_dense).
        before = Circuit(2).h(0).rz(0.7, 1).h(0).cx(0, 1)
        after = Circuit(2).rz(0.7, 1).cx(0, 1)
        cert = certify_rewrite(before, after)
        assert cert.ok, cert.diagnostics
        assert cert.max_support == 1

    def test_cross_gap_cancellation_absorbs_entangling_gap(self):
        # Here the interleaved gap shares a qubit with the cancelled
        # pair, so it cannot be commuted out: the site must absorb the
        # CX on both sides (support widens to 2) and still certify.
        before = Circuit(2).x(0).x(1).cx(0, 1).x(1).x(0)
        after = Circuit(2).cx(0, 1)
        # x(0) and x(1) each self-cancel only because x commutes with
        # its own CX role here: x0 (control side) does NOT commute with
        # CX, so equivalence must be judged on the joint 2-qubit site.
        cert = certify_rewrite(before, after)
        # This particular rewrite is NOT equivalent (X on the control
        # does not commute through CX) — the certifier must say so
        # rather than certify it from the hunk structure alone.
        assert not cert.ok
        assert cert.diagnostics[0].code == "certify-not-equivalent"

    def test_commuting_gap_with_shared_qubit_certifies(self):
        # rz(0) commutes with rz(t) on the same qubit: the pair
        # rz(t)...rz(-t) cancels across it and the merged site proves it.
        before = Circuit(1).rz(0.4, 0).z(0).rz(-0.4, 0)
        after = Circuit(1).z(0)
        cert = certify_rewrite(before, after)
        assert cert.ok, cert.diagnostics

    def test_fusion_rewrite(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).rz(0.3, 0)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        cert = certify_rewrite(circuit, fused, "FuseAdjacentGates")
        assert cert.ok, cert.diagnostics
        assert cert.max_support <= 2

    def test_unfused_gate_repeating_a_group_member_stays_local(self):
        # s(0) closes the circuit unfused, but an identical s(0) sits in
        # the first fused group; anchoring the two together would smear
        # every fused group into one site across the register.
        circuit = (
            Circuit(6).cx(3, 0).s(0).t(4).rx(0.3, 5).x(1).cz(5, 2).ry(0.2, 5).s(0)
        )
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["unitary"] * 2 + ["x", "unitary", "s"]
        cert = certify_rewrite(circuit, fused, "FuseAdjacentGates")
        assert cert.ok, cert.diagnostics
        assert cert.max_support == 2

    def test_global_phase_option(self):
        phase = np.exp(1j * 0.9)
        before = Circuit(1).unitary(np.eye(2), (0,)).x(0)
        after = Circuit(1).unitary(phase * np.eye(2), (0,)).x(0)
        assert not certify_rewrite(before, after).ok
        assert certify_rewrite(before, after, up_to_global_phase=True).ok


class TestMutationsFailByExactCode:
    """A broken pass must fail certification with its precise code."""

    def test_dropped_gate_is_not_equivalent(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        cert = certify_rewrite(circuit, _DropFirstGate().run(circuit), "drop")
        assert not cert.ok
        assert [d.code for d in cert.diagnostics] == ["certify-not-equivalent"]

    def test_flipped_gate_is_not_equivalent(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        cert = certify_rewrite(circuit, _FlipFirstToX().run(circuit), "flip")
        assert not cert.ok
        assert cert.diagnostics[0].code == "certify-not-equivalent"
        assert cert.diagnostics[0].site is not None

    def test_register_width_change(self):
        cert = certify_rewrite(Circuit(2).h(0), Circuit(3).h(0), "widen")
        assert [d.code for d in cert.diagnostics] == ["certify-register-width"]

    def test_clbit_width_change(self):
        before = Circuit(1, num_clbits=1).measure(0, 0)
        after = Circuit(1, num_clbits=2).measure(0, 0)
        cert = certify_rewrite(before, after)
        assert [d.code for d in cert.diagnostics] == ["certify-register-width"]

    def test_dropped_measure_moves_a_barrier(self):
        before = Circuit(1, num_clbits=1).h(0).measure(0, 0)
        after = Circuit(1, num_clbits=1).h(0)
        cert = certify_rewrite(before, after)
        assert [d.code for d in cert.diagnostics] == ["certify-barrier-moved"]
        assert "1 -> 0 barrier" in cert.diagnostics[0].message

    def test_dropped_channel_moves_a_barrier(self):
        noise = depolarizing(0.05)
        before = Circuit(1).h(0).channel(noise, (0,))
        after = Circuit(1).h(0)
        cert = certify_rewrite(before, after)
        assert [d.code for d in cert.diagnostics] == ["certify-barrier-moved"]
        assert "barrier" in cert.diagnostics[0].message

    def test_reordered_conditional_moves_a_barrier(self):
        branch = Instruction(get_gate("x"), (0,))
        before = (
            Circuit(2, num_clbits=1).measure(0, 0).if_bit(0, 1, branch).h(1)
        )
        after = (
            Circuit(2, num_clbits=1).if_bit(0, 1, branch).measure(0, 0).h(1)
        )
        cert = certify_rewrite(before, after)
        assert [d.code for d in cert.diagnostics] == ["certify-barrier-moved"]

    def test_oversized_site_fails_support_width(self):
        before = Circuit(3).cx(0, 1).cx(1, 2)
        after = transpile(before, passes=(FuseAdjacentGates(max_width=3),))
        cert = certify_rewrite(before, after, max_support=2)
        assert not cert.ok
        assert [d.code for d in cert.diagnostics] == ["certify-support-width"]
        # The same rewrite proves fine once the cap admits its width.
        assert certify_rewrite(before, after, max_support=3).ok

    def test_broken_pass_raises_through_pass_manager(self):
        manager = PassManager([_DropFirstGate()], certify=True)
        with pytest.raises(CertificationError) as excinfo:
            manager.run(Circuit(2).h(0).cx(0, 1))
        codes = [d.code for d in excinfo.value.diagnostics]
        assert codes == ["certify-not-equivalent"]

    def test_uncertified_run_lets_the_broken_pass_through(self):
        # The mutation control: without certify the bug sails through,
        # which is exactly why the certificate exists.
        manager = PassManager([_DropFirstGate()])
        out = manager.run(Circuit(2).h(0).cx(0, 1))
        assert len(out) == 1


class TestPipelineCertification:
    def test_all_builtin_passes_on_bench_workloads(self):
        # Every built-in pass over every smoke workload — channel
        # circuits included — must carry a certified Certificate.
        manager = PassManager(default_passes(), certify=True)
        for workload in default_workloads(smoke=True):
            manager.run(workload.build())
            stats = manager.last_stats
            assert len(stats) == 3
            for entry in stats:
                assert entry.certificate is not None
                assert entry.certificate.ok, entry.certificate.diagnostics

    def test_dynamic_circuit_certifies_across_barriers(self):
        circuit = Circuit(2, num_clbits=2)
        circuit.h(0).cx(0, 1)
        circuit.rz(0.3, 0).rz(-0.3, 0)
        circuit.measure(0, 0)
        circuit.if_bit(0, 1, Instruction(get_gate("x"), (1,)))
        circuit.reset(0)
        circuit.h(1).h(1)
        circuit.measure(1, 1)
        manager = PassManager(default_passes(), certify=True)
        out = manager.run(circuit)
        assert all(s.certificate.ok for s in manager.last_stats)
        # The h(1) pair after the measurement cancelled *within* its
        # segment; the barrier subsequence survived verbatim.
        assert out.stats().num_dynamic == circuit.stats().num_dynamic

    def test_support_stays_local_on_wide_registers(self):
        # The acceptance bound: certifying a 16-qubit workload must
        # never widen a site anywhere near the register — the proof
        # obligation stays a handful of qubits (no dense 2^n operator).
        from repro.bench.workloads import layered_rotations, random_dense

        manager = PassManager(default_passes(), certify=True)
        for circuit in (random_dense(16), layered_rotations(16)):
            manager.run(circuit)
            for entry in manager.last_stats:
                assert entry.certificate.ok, entry.certificate.diagnostics
                assert entry.certificate.max_support <= 4

    def test_identity_pass_certifies_with_zero_sites(self):
        manager = PassManager([_Identity()], certify=True)
        manager.run(Circuit(3).h(0).cx(0, 1).cx(1, 2))
        (stats,) = manager.last_stats
        assert stats.certificate.ok and stats.certificate.sites == 0

    def test_per_run_override_beats_manager_default(self):
        manager = PassManager([_DropFirstGate()], certify=True)
        # certify=False on the call disables the manager default...
        out = manager.run(Circuit(2).h(0).cx(0, 1), certify=False)
        assert len(out) == 1
        assert manager.last_stats[0].certificate is None
        # ...and certify=True on an uncertified manager enables it.
        relaxed = PassManager([_DropFirstGate()])
        with pytest.raises(CertificationError):
            relaxed.run(Circuit(2).h(0).cx(0, 1), certify=True)

    def test_certificates_ride_on_pass_stats_dicts(self):
        manager = PassManager(default_passes(), certify=True)
        manager.run(Circuit(2).h(0).h(0).cx(0, 1))
        for row in manager.last_stats_dicts():
            assert row["certificate"] is not None
            assert row["certificate"]["status"] == "certified"

    def test_uncertified_stats_have_none_certificate(self):
        manager = PassManager(default_passes())
        manager.run(Circuit(2).h(0))
        assert all(
            row["certificate"] is None for row in manager.last_stats_dicts()
        )


class TestParametricBarriers:
    def test_unbound_parametric_gate_is_preserved(self):
        from repro.circuit import Parameter

        theta = Parameter("theta")
        circuit = Circuit(1).h(0).h(0)
        circuit.rz(theta, 0)
        out = PassManager(default_passes(), certify=True).run(circuit)
        assert any(inst.is_parametric for inst in out)

    def test_rewriting_a_parametric_gate_fails(self):
        from repro.circuit import Parameter

        theta = Parameter("theta")
        phi = Parameter("phi")
        before = Circuit(1)
        before.rz(theta, 0)
        after = Circuit(1)
        after.rz(phi, 0)
        cert = certify_rewrite(before, after)
        assert [d.code for d in cert.diagnostics] == ["certify-barrier-moved"]
