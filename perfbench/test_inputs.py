"""Tests of the benchmark's own seeded inputs and oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import inputs
from perfbench.oracle import reference_outputs
from perfbench.workloads import CharterPTM
from repro import Pauli, RunOptions, execute

GENERATORS = [
    lambda seed: [inputs.charter_base(seed, 0), inputs.charter_base(seed, 1)],
    lambda seed: [inputs.sv20_input(seed, 0)],
    lambda seed: inputs.small_pool(seed),
    lambda seed: inputs.batch_input(seed, 3),
]


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_gives_identical_circuits(generate):
    first, second = generate(7), generate(7)
    assert [c.instructions for c in first] == [c.instructions for c in second]


@pytest.mark.parametrize("generate", GENERATORS)
def test_different_seed_gives_different_circuits(generate):
    first, second = generate(7), generate(8)
    assert all(a.instructions != b.instructions for a, b in zip(first, second))


def test_circuit_sizes_match_the_workload_definitions():
    assert len(inputs.charter_base(1, 0)) == 92
    assert len(inputs.sv20_input(1, 0)) == 177
    assert {len(c) for c in inputs.small_pool(1)} == {21}
    assert {len(c) for c in inputs.batch_input(1, 0)} == {94}


def test_charter_variants_insert_reversal_pairs_after_each_gate():
    base = inputs.charter_base(1, 0)
    circuits = inputs.charter_variants(base)
    assert len(circuits) == len(base) + 1 and circuits[0] is base
    pairs = inputs.REVERSAL_PAIRS
    for index, variant in enumerate(circuits[1:]):
        assert len(variant) == len(base) + 2 * pairs
        gate = base.instructions[index]
        inserted = variant.instructions[index + 1 : index + 1 + 2 * pairs]
        assert inserted == (gate, gate.inverse()) * pairs
        assert variant.instructions[: index + 1] == base.instructions[: index + 1]


def test_charter_ranking_is_reproducible_per_seed():
    rankings = []
    for _ in range(2):
        workload = CharterPTM(seed=5)
        workload.setup()
        tvds, ranking = workload.request(workload.make_input(0))[:2]
        rankings.append((tvds, ranking))
    assert np.array_equal(rankings[0][0], rankings[1][0])
    assert np.array_equal(rankings[0][1], rankings[1][1])
    assert np.all(np.diff(rankings[0][0][rankings[0][1]]) <= 0.0)


def test_dense_oracle_agrees_with_the_library():
    circuit = inputs.small_pool(3)[0]
    probabilities, z0 = reference_outputs(circuit)
    result = execute(circuit, RunOptions(observables=(Pauli("Z", (0,)),)))
    assert np.allclose(result.state.probabilities(), probabilities, atol=1e-12)
    assert abs(result.expectation_values[0] - z0) <= 1e-12
