"""The bench driver: time each workload unfused vs. transpiled vs. planned.

Report schema (``schema_version`` 8) — stable from this PR onward so CI
artifacts stay comparable across commits::

    {
      "schema_version": 8,
      "config": {"smoke": bool, "shots": int, "seed": int,
                 "repeats": int, "max_fused_width": int,
                 "backend": str,
                 "noise_model": str | null,   # suite-wide model label
                 "sweep": bool,               # was --sweep requested
                 "parallel": bool,            # was --parallel requested
                 "workers": int,              # --workers value
                 "trajectory": bool},         # was --trajectory requested
      "workloads": [
        {
          "name": str, "num_qubits": int,
          "backend": str,              # backend the workload ran on
          "noise": str | null,         # embedded-channel and/or model
                                       # label, null when noiseless
          "gates_unfused": int, "gates_fused": int,   # Circuit.stats()
          "depth_unfused": int, "depth_fused": int,   # Circuit.stats()
          "transpile_time_s": float,   # pass pipeline only
          "plan_compile_ms": float,    # fused-circuit lowering only
          "run_time_unfused_s": float, # plan execution only — compile
          "run_time_fused_s": float,   # and transpile excluded, so the
                                       # speedup is attributed honestly
          "speedup": float | null,     # unfused / fused wall-time; null
                                       # when the fused time measured 0
                                       # (Infinity is not valid JSON)
          "counts_match": bool,        # seeded sampling equivalence
          "expectation_z0": float,     # <Z_0> on the unfused final state
          "expectations_match": bool,  # fused <Z_0> agrees to 1e-9
          "eager_matches_plan": bool,  # run() (compile+execute) and
                                       # precompiled-plan execution give
                                       # bitwise-identical states
          # --- PTM columns: non-null only on density-matrix rows ------
          "run_time_ptm_s": float | null,   # same fused circuit on the
                                            # ptm backend, plan execution
          "ptm_speedup_vs_density": float | null,  # fused density time /
                                            # ptm time; null off-density
                                            # or when ptm measured 0
          "ptm_counts_match": bool | null,  # ptm counts == density
                                            # counts under the same seed
          "ptm_expectations_match": bool | null,  # ptm <Z_0> agrees with
                                            # density to 1e-9
          "plan_ops_density": int | null,   # fused-circuit density plan
          "plan_ops_ptm": int | null,       # fused-circuit ptm plan
          "ptm_fewer_ops": bool | null      # fusion through channels
                                            # strictly shrank the plan
        }, ...
      ],
      "sweep": null | {                # present (non-null) with --sweep
        "name": str, "num_qubits": int, "points": int,
        "parameters": int,             # symbols bound per point
        "transpile_calls": int,        # MUST be 1: one compile, N binds
        "plan_compile_ms": float,      # template lowering, fresh/uncached
        "run_time_batched_s": float,   # all points, one batched tensor
        "run_time_per_element_s": float,  # same plan, bound per point
        "batched_speedup": float | null,  # per-element / batched
        "expectations": [float, ...],  # batched <Z_0> per sweep point
        "expectations_match": bool,    # batched vs per-element to 1e-9
        "reproducible": bool           # batched re-run is bitwise equal
      },
      "parallel": null | {             # present (non-null) with --parallel
        "workers": int,                # worker processes for parallel legs
        "cpu_count": int | null,       # os.cpu_count() on the bench host —
                                       # speedup gates only make sense >= 2
        "sweep": {                     # per-element (density+noise) sweep
          "name": str, "backend": str, "num_qubits": int,
          "points": int, "shots": int,
          "run_time_serial_s": float,     # max_workers=1
          "run_time_parallel_s": float,   # max_workers=workers, warm pool
          "parallel_speedup": float | null,  # serial / parallel
          "results_match": bool,          # parallel bitwise == serial
          "workers1_matches_serial": bool # max_workers=1 bitwise == default
        }
      },
      "trajectory": null | {           # present (non-null) with --trajectory
        "trajectories": int,           # Monte-Carlo shots per workload
        "workloads": [                 # noisy density-cap-sized workloads
          {
            "name": str, "num_qubits": int,
            "expectation_density": float,     # exact <Z_0>, one density run
            "expectation_trajectory": float,  # trajectory-averaged <Z_0>
            "std_error": float,               # standard error of the mean
            "agreement": bool,     # |diff| <= 5 * max(std_error, floor)
            "run_time_density_s": float,      # exact mixed-state evolution
            "run_time_trajectory_s": float,   # all trajectories, serial
            "trajectory_speedup": float | null  # density / trajectory
          }, ...
        ]
      }
    }

Schema history: version 1 lacked the ``backend``/``noise`` fields and
emitted ``float("inf")`` speedups; version 2 predates the execution
layer — no expectation columns and no ``sweep`` section; version 3
predates compiled execution plans — no ``plan_compile_ms`` /
``eager_matches_plan`` columns, a single sweep ``run_time_s``, and
workload timings measured through ``run()`` (which now compiles), so
compile cost leaked into the headline numbers; version 4 predates the
parallel execution service — no ``parallel`` section and no
``parallel``/``workers`` config keys; version 5 predates the
Monte-Carlo trajectory backend — no ``trajectory`` section and no
``trajectory`` config key; version 6 predates the Pauli-transfer-matrix
backend — no ``run_time_ptm_s`` / ``ptm_speedup_vs_density`` /
``ptm_counts_match`` / ``ptm_expectations_match`` /
``plan_ops_density`` / ``plan_ops_ptm`` / ``ptm_fewer_ops`` workload
columns (and no ``brickwork_depolarized`` family); version 7 carried a
second ``parallel`` leg, ``sharded_shots``, removed together with shot
sharding.

Counts and expectation values are produced through the unified
:func:`repro.execute` front door, so the harness exercises exactly the
surface users are told to call.  Wall-times are best-of-``repeats``
``perf_counter`` measurements of *plan execution* alone — circuit
construction, transpilation, and plan lowering are each timed in their
own columns — so the headline number isolates the amplitude-array
sweeps that fusion and batching are meant to reduce.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.workloads import (
    Workload,
    default_workloads,
    parameterized_rotations,
    sweep_bindings,
)
from repro.circuit import Circuit
from repro.execution import RunOptions, execute
from repro.observables import Pauli
from repro.plan import compile_plan
from repro.sim import get_backend
from repro.transpile import Pass, transpile
from repro.utils.exceptions import SimulationError

SCHEMA_VERSION = 8

# Mixed-state cost is O(4**n) memory *per contraction temporary*: n = 12
# is already ~270 MB a copy (minutes of bench wall-time), n = 16 would be
# 64 GiB before the first gate.  Refuse early with a clear message
# instead of dying in np.zeros or grinding for hours.
DENSITY_WIDTH_CAP = 10

_EXPECTATION_ATOL = 1e-9


class _CountingPass(Pass):
    """Identity pass that records how many times the pipeline ran.

    Appended to the sweep pipeline so the report can *prove* the
    one-transpile-N-binds contract instead of asserting it in prose.
    """

    def __init__(self) -> None:
        self.calls = 0

    def run(self, circuit: Circuit) -> Circuit:
        self.calls += 1
        return circuit


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_workload(
    workload: Workload,
    backend,
    circuit: Circuit,
    shots: int,
    seed: int,
    repeats: int,
    max_fused_width: int,
    noise_model,
    noise_label: "Optional[str]",
) -> Dict[str, object]:
    start = time.perf_counter()
    fused = transpile(circuit, max_fused_width=max_fused_width)
    transpile_time = time.perf_counter() - start

    # Lower both circuits to plans up front (uncached, so the compile
    # column measures real lowering work) and time *plan execution* only:
    # run() would re-resolve the cache and fold compile cost into the
    # first repeat, mis-attributing the fusion speedup.
    run_options = RunOptions(noise_model=noise_model)
    plan_unfused = compile_plan(circuit, backend, run_options, use_cache=False)
    t0 = time.perf_counter()
    plan_fused = compile_plan(fused, backend, run_options, use_cache=False)
    plan_compile_ms = (time.perf_counter() - t0) * 1000.0
    run_unfused = _best_time(
        lambda: backend.execute_plan(plan_unfused), repeats
    )
    run_fused = _best_time(
        lambda: backend.execute_plan(plan_fused), repeats
    )
    # The refactor's invariant, proven per workload: the thin run()
    # wrapper (compile + execute) and direct execution of a precompiled
    # plan are the same code path, bit for bit.
    eager_matches_plan = bool(
        np.array_equal(
            backend.run(fused, options=run_options).data,
            backend.execute_plan(plan_fused).data,
        )
    )

    # Counts and expectations come through the unified front door; the
    # same seed both ways makes the fused/unfused comparison exact.
    observable = Pauli("Z", qubits=(0,))
    options = RunOptions(
        backend=backend,
        shots=shots,
        seed=seed,
        noise_model=noise_model,
        observables=(observable,),
    )
    result_unfused = execute(circuit, options)
    result_fused = execute(fused, options)
    expectation_unfused = result_unfused.expectation_values[0]
    expectation_fused = result_fused.expectation_values[0]

    # PTM columns: the same fused circuit on the Pauli-transfer engine,
    # raced against the density backend (the other exact mixed-state
    # engine).  Rows on any other backend carry nulls — a statevector
    # baseline would compare different physics.
    ptm_columns: Dict[str, object] = {
        "run_time_ptm_s": None,
        "ptm_speedup_vs_density": None,
        "ptm_counts_match": None,
        "ptm_expectations_match": None,
        "plan_ops_density": None,
        "plan_ops_ptm": None,
        "ptm_fewer_ops": None,
    }
    if backend.name == "density_matrix":
        ptm_backend = get_backend("ptm")
        plan_ptm = compile_plan(fused, ptm_backend, run_options, use_cache=False)
        run_ptm = _best_time(lambda: ptm_backend.execute_plan(plan_ptm), repeats)
        result_ptm = execute(
            fused,
            RunOptions(
                backend=ptm_backend,
                shots=shots,
                seed=seed,
                noise_model=noise_model,
                observables=(observable,),
            ),
        )
        ptm_columns.update(
            run_time_ptm_s=run_ptm,
            ptm_speedup_vs_density=(
                run_fused / run_ptm if run_ptm > 0 else None
            ),
            ptm_counts_match=result_ptm.counts == result_fused.counts,
            ptm_expectations_match=abs(
                result_ptm.expectation_values[0] - expectation_fused
            )
            <= _EXPECTATION_ATOL,
            plan_ops_density=len(plan_fused.ops),
            plan_ops_ptm=len(plan_ptm.ops),
            ptm_fewer_ops=len(plan_ptm.ops) < len(plan_fused.ops),
        )

    stats_unfused = circuit.stats()
    stats_fused = fused.stats()
    return {
        "name": workload.name,
        "num_qubits": workload.num_qubits,
        "backend": backend.name,
        "noise": noise_label,
        "gates_unfused": stats_unfused.num_instructions,
        "gates_fused": stats_fused.num_instructions,
        "depth_unfused": stats_unfused.depth,
        "depth_fused": stats_fused.depth,
        "transpile_time_s": transpile_time,
        "plan_compile_ms": plan_compile_ms,
        "run_time_unfused_s": run_unfused,
        "run_time_fused_s": run_fused,
        # null, not float("inf"): json.dumps would emit the non-standard
        # ``Infinity`` token and break strict parsers of the CI artifact.
        "speedup": run_unfused / run_fused if run_fused > 0 else None,
        "counts_match": result_unfused.counts == result_fused.counts,
        "expectation_z0": expectation_unfused,
        "expectations_match": abs(expectation_unfused - expectation_fused)
        <= _EXPECTATION_ATOL,
        "eager_matches_plan": eager_matches_plan,
        **ptm_columns,
    }


def _bench_sweep(
    smoke: bool, seed: int, max_fused_width: int, repeats: int
) -> Dict[str, object]:
    """Benchmark the batched-sweep workload: one plan, two execution modes.

    The layered-rotation template sweeps the same seeded bindings twice
    through ``execute()`` — once with ``sweep_mode="batched"`` (all
    points as one stacked state tensor) and once with
    ``sweep_mode="per_element"`` (the same compiled plan, bound per
    point) — so ``batched_speedup`` compares identical arithmetic and
    differs only in how it is dispatched.  An instrumented pass pipeline
    makes ``transpile_calls`` a measurement, not an assumption;
    ``reproducible`` re-runs the batched sweep and compares expectations
    bitwise; ``plan_compile_ms`` lowers the template fresh (uncached)
    after the counting snapshot is taken.
    """
    from repro.transpile.base import default_passes

    num_qubits = 4 if smoke else 8
    points = 8 if smoke else 16
    template, parameters = parameterized_rotations(num_qubits, layers=2)
    bindings = sweep_bindings(parameters, points, seed=seed)
    counting = _CountingPass()
    passes = list(default_passes(max_fused_width)) + [counting]
    observable = Pauli("Z", qubits=(0,))

    def run_sweep(mode: str):
        return execute(
            template,
            seed=seed,
            passes=passes,
            observables=(observable,),
            parameter_sweep=bindings,
            sweep_mode=mode,
        )

    # Cold run first: compiles the template plan (cached for every run
    # below) and snapshots the one-compile-per-sweep contract.  (No floor
    # division over later runs — that would round 3 calls down to 1 and
    # hide a regression.)
    batch = run_sweep("batched")
    transpile_calls = counting.calls

    # Both timed legs are warm (plan-cache hits), so the comparison is
    # pure execution; best-of-at-least-3 keeps the CI gate off the noise
    # floor even in single-repeat smoke runs.
    sweep_repeats = max(repeats, 3)
    run_batched = _best_time(lambda: run_sweep("batched"), sweep_repeats)
    run_per_element = _best_time(lambda: run_sweep("per_element"), sweep_repeats)

    per_element = run_sweep("per_element")
    expectations_match = all(
        abs(a[0] - b[0]) <= _EXPECTATION_ATOL
        for a, b in zip(batch.expectation_values, per_element.expectation_values)
    )
    repeat = run_sweep("batched")
    reproducible = batch.expectation_values == repeat.expectation_values

    # Fresh, uncached lowering of the template — measured after the
    # counting snapshot so the extra pipeline run cannot pollute it.
    backend = get_backend(None)
    t0 = time.perf_counter()
    plan = compile_plan(
        template, backend, RunOptions(passes=passes), use_cache=False
    )
    compile_ms = (time.perf_counter() - t0 - plan.transpile_time_s) * 1000.0

    return {
        "name": template.name,
        "num_qubits": num_qubits,
        "points": points,
        "parameters": len(parameters),
        "transpile_calls": transpile_calls,
        "plan_compile_ms": compile_ms,
        "run_time_batched_s": run_batched,
        "run_time_per_element_s": run_per_element,
        # null, not Infinity, when the batched leg measured 0 (see the
        # workload speedup column).
        "batched_speedup": (
            run_per_element / run_batched if run_batched > 0 else None
        ),
        "expectations": [values[0] for values in batch.expectation_values],
        "expectations_match": bool(expectations_match),
        "reproducible": bool(reproducible),
    }


def _bench_parallel(
    smoke: bool, seed: int, repeats: int, workers: int
) -> Dict[str, object]:
    """Benchmark the parallel execution service against its serial twin.

    One leg, ``sweep``, times the *same options* with ``max_workers=1``
    versus ``max_workers=workers`` so the columns differ only in
    scheduling: a per-element density-matrix sweep with depolarizing
    gate noise, the workload the service spreads element-wise.  Heavy
    per-point contractions amortise the pickle-and-ship cost, so this
    is where multi-process wins first.

    The leg also records parity booleans (parallel results bitwise
    equal to serial) so CI gates on correctness even on hosts where the
    speedup gate is meaningless — ``cpu_count`` is in the report
    precisely because a 1-CPU runner cannot be expected to go faster.
    The speedup is ``null``, never Infinity, when the parallel leg
    measured 0.  The first parallel run is untimed warm-up: it forks
    the worker pool so pool start-up cost stays out of the steady-state
    columns.
    """
    from repro.noise import NoiseModel, depolarizing

    timing_repeats = max(repeats, 3)

    # Sized so even the smoke leg has tens of milliseconds of serial
    # work per run: lighter legs drown in fork/pickle overhead and make
    # the multi-core speedup gate flaky.
    num_qubits = 6
    points = 8 if smoke else 16
    shots = 512 if smoke else 1024
    template, parameters = parameterized_rotations(num_qubits, layers=2)
    bindings = sweep_bindings(parameters, points, seed=seed)
    model = NoiseModel("bench-depolarizing").add_channel(depolarizing(0.02))

    def run_sweep(max_workers: Optional[int]):
        return execute(
            template,
            backend="density_matrix",
            noise_model=model,
            shots=shots,
            seed=seed,
            parameter_sweep=bindings,
            sweep_mode="per_element",
            max_workers=max_workers,
        )

    serial = run_sweep(None)
    workers1 = run_sweep(1)
    parallel = run_sweep(workers)  # warm-up: forks the pool, fills caches
    results_match = all(
        a.counts == b.counts
        and a.expectation_values == b.expectation_values
        and np.array_equal(a.state.tensor(), b.state.tensor())
        for a, b in zip(serial, parallel)
    )
    workers1_matches_serial = all(
        a.counts == b.counts
        and np.array_equal(a.state.tensor(), b.state.tensor())
        for a, b in zip(serial, workers1)
    )
    sweep_serial_s = _best_time(lambda: run_sweep(1), timing_repeats)
    sweep_parallel_s = _best_time(lambda: run_sweep(workers), timing_repeats)

    sweep_leg = {
        "name": template.name,
        "backend": "density_matrix",
        "num_qubits": num_qubits,
        "points": points,
        "shots": shots,
        "run_time_serial_s": sweep_serial_s,
        "run_time_parallel_s": sweep_parallel_s,
        "parallel_speedup": (
            sweep_serial_s / sweep_parallel_s if sweep_parallel_s > 0 else None
        ),
        "results_match": bool(results_match),
        "workers1_matches_serial": bool(workers1_matches_serial),
    }

    return {
        "workers": int(workers),
        "cpu_count": os.cpu_count(),
        "sweep": sweep_leg,
    }


#: Agreement-gate floor for the trajectory-vs-density check: a noiseless
#: observable can have zero sampling variance, and gating on 5 * 0 would
#: demand exact float equality between two different algorithms.
_TRAJECTORY_STD_FLOOR = 1e-3


def _bench_trajectory(smoke: bool, seed: int, repeats: int) -> Dict[str, object]:
    """Benchmark Monte-Carlo trajectories against exact density evolution.

    Runs the two noisy workload families at the density width cap —
    exactly where the O(4**n) mixed-state representation hurts most and
    the O(2**n)-per-trajectory unraveling is supposed to win — and
    checks statistical agreement: the trajectory estimate of ``<Z_0>``
    must land within five standard errors of the exact density value
    (with a small floor so a zero-variance observable cannot demand
    float equality).  CI gates on ``agreement``, not on the speedup —
    wall-clock is host-dependent, the estimator contract is not.
    """
    from repro.bench.workloads import ghz_depolarizing, layered_damped

    num_qubits = DENSITY_WIDTH_CAP
    trajectories = 128 if smoke else 256
    layers = 2 if smoke else 4
    observable = Pauli("Z", qubits=(0,))
    rows: List[Dict[str, object]] = []
    for circuit in (
        ghz_depolarizing(num_qubits),
        layered_damped(num_qubits, layers=layers),
    ):

        def run_density(circuit=circuit):
            return execute(
                circuit, backend="density_matrix", observables=(observable,)
            )

        def run_trajectory(circuit=circuit):
            return execute(
                circuit,
                backend="trajectory",
                shots=trajectories,
                seed=seed,
                observables=(observable,),
            )

        density = run_density()
        trajectory = run_trajectory()
        density_s = _best_time(run_density, repeats)
        trajectory_s = _best_time(run_trajectory, repeats)
        exact = density.expectation_values[0]
        estimate = trajectory.expectation_values[0]
        std_error = trajectory.metadata["expectation_std"][0]
        rows.append(
            {
                "name": circuit.name,
                "num_qubits": num_qubits,
                "expectation_density": exact,
                "expectation_trajectory": estimate,
                "std_error": std_error,
                "agreement": bool(
                    abs(estimate - exact)
                    <= 5 * max(std_error, _TRAJECTORY_STD_FLOOR)
                ),
                "run_time_density_s": density_s,
                "run_time_trajectory_s": trajectory_s,
                "trajectory_speedup": (
                    density_s / trajectory_s if trajectory_s > 0 else None
                ),
            }
        )
    return {"trajectories": trajectories, "workloads": rows}


def run_suite(
    workloads: Optional[Sequence[Workload]] = None,
    smoke: bool = False,
    shots: int = 1024,
    seed: int = 1234,
    repeats: Optional[int] = None,
    max_fused_width: int = 2,
    backend: Optional[str] = None,
    noise_model=None,
    sweep: bool = False,
    parallel: bool = False,
    workers: int = 2,
    trajectory: bool = False,
) -> Dict[str, object]:
    """Run the benchmark suite and return the schema-8 report dict.

    Parameters
    ----------
    workloads:
        Explicit workload list; defaults to :func:`default_workloads`
        at full or ``smoke`` size.
    smoke:
        Small/fast configuration for CI gating: fewer/smaller workloads
        and — unless ``repeats`` is given explicitly — a single timing
        repeat.
    shots, seed:
        Sampling configuration for the counts-equivalence check; the same
        seed is used for the unfused and fused run so the Counts must be
        identical.
    repeats:
        Wall-times are the best of this many runs.  ``None`` (default)
        resolves to 1 in smoke mode and 3 otherwise.
    max_fused_width:
        Width cap handed to the default transpile pipeline.
    backend:
        Default backend — a registered name or a configured instance —
        for workloads that do not pin one (``Workload.backend`` always
        wins); ``None`` means ``"statevector"``.
    noise_model:
        Optional :class:`~repro.noise.NoiseModel` applied to every
        workload (beyond any channels already embedded in the circuits).
        A model with gate-noise rules requires every workload to run on
        the density-matrix backend — combine it with
        ``backend="density_matrix"`` and density-sized workloads, or the
        first statevector-backed workload raises ``SimulationError``.
        Note that attaching per-gate noise makes the fused run a
        *different* open system, so expect ``counts_match`` to fail —
        useful for measuring that effect, not for CI gating.
    sweep:
        Also benchmark a batched parameter sweep through
        :func:`repro.execute` (see :func:`_bench_sweep`); the report's
        top-level ``"sweep"`` entry is ``null`` otherwise.
    parallel:
        Also benchmark the parallel execution service (see
        :func:`_bench_parallel`): a per-element sweep, serial vs.
        ``workers`` processes, with parity checks.  The report's
        top-level ``"parallel"`` entry is ``null`` otherwise.
    workers:
        Worker-process count for the parallel legs (ignored unless
        ``parallel`` is set).  Speedup columns only mean something when
        the host has at least that many cores — the report records
        ``cpu_count`` so consumers can tell.
    trajectory:
        Also benchmark the Monte-Carlo trajectory backend against exact
        density-matrix evolution on the noisy workload families at the
        density width cap (see :func:`_bench_trajectory`); the report's
        top-level ``"trajectory"`` entry is ``null`` otherwise.
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    if workloads is None:
        workloads = default_workloads(smoke=smoke)
    # Normalise a name *or instance* to the live backend once, so the cap
    # check and the JSON report always see the backend's registered name
    # (get_backend(None) resolves the registry default).
    default_backend = get_backend(backend)
    has_gate_noise = noise_model is not None and getattr(
        noise_model, "has_gate_noise", False
    )
    model_label = (
        (getattr(noise_model, "name", None) or "noise_model")
        if has_gate_noise
        else None
    )
    # Validate the whole plan upfront — caps, backend compatibility — and
    # build each circuit once: refusing (or crashing on) workload k after
    # benching workloads 0..k-1 would throw their measurements away.
    plan = []
    for w in workloads:
        w_backend = get_backend(w.backend) if w.backend else default_backend
        if w_backend.name == "density_matrix" and w.num_qubits > DENSITY_WIDTH_CAP:
            raise SimulationError(
                f"workload {w.name!r} has {w.num_qubits} qubits; the "
                f"density-matrix backend needs O(4**n) memory and is capped "
                f"at {DENSITY_WIDTH_CAP} qubits in the bench suite — use "
                "smoke sizes or an explicit workload list"
            )
        circuit = w.build()
        if w_backend.name == "statevector" and (
            has_gate_noise or circuit.has_channels()
        ):
            raise SimulationError(
                f"workload {w.name!r} runs on the statevector backend, which "
                "cannot apply gate noise (noise-model rules or embedded "
                "channels) — pass backend='density_matrix' (and "
                "density-sized workloads)"
            )
        # The row label records all noise in play: channels embedded in
        # the circuit and/or the suite-wide model's gate noise.
        noise_label = " + ".join(filter(None, [w.noise, model_label])) or None
        plan.append((w, w_backend, circuit, noise_label))
    results: List[Dict[str, object]] = [
        _bench_workload(
            w,
            w_backend,
            circuit,
            shots,
            seed,
            repeats,
            max_fused_width,
            noise_model,
            noise_label,
        )
        for w, w_backend, circuit, noise_label in plan
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "smoke": bool(smoke),
            "shots": int(shots),
            "seed": int(seed),
            "repeats": int(repeats),
            "max_fused_width": int(max_fused_width),
            "backend": default_backend.name,
            "noise_model": model_label,
            "sweep": bool(sweep),
            "parallel": bool(parallel),
            "workers": int(workers),
            "trajectory": bool(trajectory),
        },
        "workloads": results,
        "sweep": (
            _bench_sweep(smoke, seed, max_fused_width, repeats) if sweep else None
        ),
        "parallel": (
            _bench_parallel(smoke, seed, repeats, workers) if parallel else None
        ),
        "trajectory": (
            _bench_trajectory(smoke, seed, repeats) if trajectory else None
        ),
    }
