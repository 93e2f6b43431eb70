"""Benchmark harness: canonical workloads timed with and without fusion.

``run_suite`` executes each workload unfused and transpiled on its
backend (statevector or density-matrix, noisy families included), records
wall-times, gate counts and seeded counts/expectation-equivalence checks
through the unified ``repro.execute`` front door, and returns a
JSON-stable report (``schema_version`` 8).  On noisy (density-matrix)
rows the same fused circuit is also raced on the Pauli-transfer-matrix
backend, recording ``ptm_speedup_vs_density`` alongside counts- and
expectation-equivalence checks.  ``python -m repro.bench --json`` is the
CLI entry point; ``--smoke`` selects the small configuration CI runs on
every push, ``--sweep`` adds the batched parameter-sweep benchmark.
"""

from repro.bench.harness import SCHEMA_VERSION, run_suite
from repro.bench.workloads import (
    Workload,
    brickwork_depolarized,
    default_workloads,
    ghz,
    ghz_depolarizing,
    layered_damped,
    layered_rotations,
    parameterized_rotations,
    random_dense,
    sweep_bindings,
)

__all__ = [
    "SCHEMA_VERSION",
    "Workload",
    "brickwork_depolarized",
    "default_workloads",
    "ghz",
    "ghz_depolarizing",
    "layered_damped",
    "layered_rotations",
    "parameterized_rotations",
    "random_dense",
    "run_suite",
    "sweep_bindings",
]
