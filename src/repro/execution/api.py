"""The unified execution front door: ``submit()`` and ``execute()``.

One entry point for everything the stack can do: simulate one circuit or
a batch, sample counts/memory, evaluate observables, and sweep a
parameterized circuit over many bindings — all configured by a single
:class:`~repro.execution.RunOptions` object.

Batching semantics worth knowing:

* **Seeding** — batch element ``i`` samples from
  ``derive_seed(options.seed, i)``, so results are bitwise-reproducible
  across repeated calls and independent of batch composition.  Element 0
  matches ``sample_counts(circuit, shots, seed=seed)`` exactly.
* **Parameter sweeps** — a sweep compiles the *parametric template once*
  into an :class:`~repro.plan.ExecutionPlan` (one transpile + one
  lowering, reused through the plan cache).  Statevector sweeps with no
  shots or noise then evolve **batched**: all N bindings stack into one
  ``(N, 2, ..., 2)`` state tensor and every op applies to the whole
  batch in a single contraction (see :func:`repro.plan.run_batched_sweep`).
  Sweeps that sample or carry noise fall back to per-element plan
  execution — still never re-transpiling or re-lowering.  The
  ``sweep_mode`` option pins either path explicitly.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.circuit import Circuit, Parameter
from repro.execution.job import BatchResult, Job, Result
from repro.execution.options import RunOptions, resolve_sanitize_mode
from repro.observables import expectation
from repro.sampling.counts import Counts
from repro.sampling.sampler import (
    counts_and_memory_from_probabilities,
    counts_from_probabilities,
    readout_probabilities,
)
from repro.sim.registry import get_backend
from repro.utils.bitstrings import bitstring_to_index, index_to_bitstring
from repro.utils.exceptions import ExecutionError
from repro.utils.rng import derive_seed, ensure_rng

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.plan.plan import ExecutionPlan

Sweep = Sequence[Mapping[Union[Parameter, str], float]]


def _normalise_sweep(parameter_sweep: Sweep, circuit: Circuit) -> List[Dict[str, float]]:
    from repro.circuit.parameter import normalize_binding, validate_binding_names

    names = {p.name for p in circuit.parameters()}
    if not names:
        raise ExecutionError(
            "parameter_sweep given, but the circuit has no unbound parameters"
        )
    points: List[Dict[str, float]] = []
    for index, binding in enumerate(parameter_sweep):
        if not isinstance(binding, Mapping):
            raise ExecutionError(
                f"sweep point {index} must be a mapping of parameters to "
                f"values, got {type(binding).__name__}"
            )
        # Strays and gaps are both rejected up front — every execution
        # mode downstream (batched, per-element, legacy backend) then
        # sees the same fully-validated points.
        point = normalize_binding(
            binding, ExecutionError, label=f"sweep point {index}"
        )
        validate_binding_names(
            point,
            names,
            ExecutionError,
            label=f"sweep point {index}",
            require_complete=True,
        )
        points.append(point)
    if not points:
        raise ExecutionError("parameter_sweep must contain at least one point")
    return points


def sample_shard(
    probs: np.ndarray,
    shots: int,
    seed: Optional[int],
    num_qubits: int,
    memory: bool,
) -> Tuple[Counts, Optional[List[str]]]:
    """Counts (and optional per-shot memory) for one element's shots.

    The unit of sampling work: one probability vector, one shot budget,
    one derived seed.  With ``memory`` the counts are tallied from the
    same per-shot draw, so the two views of one experiment always agree.
    """
    rng = ensure_rng(seed)
    if memory:
        return counts_and_memory_from_probabilities(probs, shots, rng, num_qubits)
    return counts_from_probabilities(probs, shots, rng, num_qubits), None


def _sample(
    state: Any,
    options: RunOptions,
    index: int,
    readout: Optional[Tuple[np.ndarray, int]],
) -> Tuple[Counts, Optional[List[str]]]:
    """Counts/memory of element ``index``, seeded by ``derive_seed(seed, index)``.

    Draws from ``readout``, a ``(probabilities, num_bits)`` pair, or by
    default from the state's own readout distribution (noise-model
    readout error applied).
    """
    if readout is None:
        readout = (
            readout_probabilities(state, options.noise_model),
            state.num_qubits,
        )
    probs, num_bits = readout
    return sample_shard(
        probs,
        options.shots,
        derive_seed(options.seed, index),
        num_bits,
        options.memory,
    )


def _state_payload(
    index: int,
    state: Any,
    options: RunOptions,
    run_time: float,
    readout: Optional[Tuple[np.ndarray, int]] = None,
    values: Optional[Tuple[float, ...]] = None,
) -> Dict[str, Any]:
    """The per-element payload of one final state: sample, then measure.

    Shots draw through :func:`_sample` (``readout`` overrides the
    state's own distribution).  ``values`` skips the expectation
    evaluation when the caller already has them (the batched sweep).
    Returns a plain dict so the payload crosses process boundaries
    without dragging Result construction into workers.
    """
    counts = memory = None
    sample_time = 0.0
    if options.shots:
        t0 = time.perf_counter()
        counts, memory = _sample(state, options, index, readout)
        sample_time = time.perf_counter() - t0
    if values is None:
        values = tuple(
            expectation(state, observable) for observable in options.observables
        )
    return {
        "index": index,
        "state": state,
        "counts": counts,
        "memory": memory,
        "values": values,
        "run_time_s": run_time,
        "sample_time_s": sample_time,
    }


def element_payload(
    plan: "ExecutionPlan",
    point: Optional[Mapping[str, float]],
    index: int,
    options: RunOptions,
    backend: Any,
    workers: int = 1,
) -> Dict[str, Any]:
    """Execute one compiled element: bind (sweeps), evolve, sample, measure.

    The shared per-element body of per-element sweeps and batches.  It
    runs identically on the parent (serial path) and inside a worker
    process (the pool's ``_element_task`` calls it with the unpickled
    plan), which is the bitwise-parity guarantee for ``max_workers``.

    Dynamic plans (measure/reset/if_bit, or trajectory Kraus sampling)
    route through :func:`_dynamic_payload` — shot-resolved per-shot
    trajectories on pure-state backends, exact branch bookkeeping on the
    density backend.
    """
    bound = plan.bind(point) if point is not None else plan
    if bound.has_dynamic_ops:
        return _dynamic_payload(bound, index, options, backend, workers)
    t0 = time.perf_counter()
    state = backend.execute_plan(bound, sanitize=options.sanitize)
    return _state_payload(index, state, options, time.perf_counter() - t0)


def shard_sizes(total: int, num_shards: int) -> List[int]:
    """Split ``total`` trajectories into ``num_shards`` near-equal parts.

    The first ``total % num_shards`` shards carry one extra trajectory,
    so the split is deterministic and ``sum(shard_sizes(n, k)) == n``.
    """
    base, extra = divmod(total, num_shards)
    return [base + (1 if i < extra else 0) for i in range(num_shards)]


def trajectory_shard(
    plan: "ExecutionPlan",
    element_index: int,
    start: int,
    count: int,
    options: RunOptions,
    backend: Any,
) -> Dict[str, Any]:
    """Run trajectories ``[start, start + count)`` of one element.

    The unit of trajectory work: trajectory ``t`` (absolute index,
    whatever the shard split) seeds its own stream from
    ``derive_seed(seed, element_index, t)``, evolves one stochastic pure
    state, records one outcome — the clbit string when the circuit
    measures into clbits, otherwise one terminal readout draw from the
    same stream — and evaluates each requested observable exactly on
    that trajectory's state.  Because every
    per-trajectory quantity depends only on ``(seed, element_index, t)``,
    any shard split (serial, or ``max_workers`` pool shards) merges to
    bitwise-identical results.
    """
    tally: Dict[str, int] = {}
    memory: Optional[List[str]] = [] if options.memory else None
    values: List[List[float]] = []
    for t in range(start, start + count):
        rng = ensure_rng(derive_seed(options.seed, element_index, t))
        classical: Dict[str, Any] = {}
        state = backend.execute_plan(
            plan, rng=rng, classical=classical, sanitize=options.sanitize
        )
        if plan.num_clbits:
            outcome = classical["bits"]
        else:
            # No clbits (e.g. reset-only or pure Kraus-noise circuits):
            # draw one terminal readout outcome from the trajectory's own
            # stream, readout error included.
            probs = readout_probabilities(state, options.noise_model)
            outcome = index_to_bitstring(
                int(rng.choice(probs.size, p=probs)), plan.num_qubits
            )
        tally[outcome] = tally.get(outcome, 0) + 1
        if memory is not None:
            memory.append(outcome)
        values.append(
            [expectation(state, observable) for observable in options.observables]
        )
    return {
        "tally": tally,
        "memory": memory,
        "num_bits": plan.num_clbits or plan.num_qubits,
        "values": values,
    }


def _trajectory_element(
    plan: "ExecutionPlan",
    index: int,
    options: RunOptions,
    backend: Any,
    workers: int,
) -> Dict[str, Any]:
    """Shot-resolved dynamic execution: ``shots`` independent trajectories.

    Counts/memory tally the per-trajectory outcomes; expectation values
    are the trajectory **means** of the per-trajectory exact values, with
    the standard error of each mean surfaced as ``expectation_std`` (the
    statistical handle the bench agreement gate uses).  Trajectories
    shard across the worker pool, merged in shard order over
    absolute-index seeds, so ``max_workers`` never changes the result.
    """
    t0 = time.perf_counter()
    shots = options.shots
    if workers > 1 and shots > 1:
        from repro.service.pool import _trajectory_task, dump_plan, run_tasks

        blob = dump_plan(plan)
        shipped = _worker_options(options)
        sizes = shard_sizes(shots, min(workers, shots))
        tasks = []
        cursor = 0
        for size in sizes:
            tasks.append((blob, index, cursor, size, shipped, backend))
            cursor += size
        parts = run_tasks(_trajectory_task, tasks, workers)
    else:
        parts = [trajectory_shard(plan, index, 0, shots, options, backend)]
    tally: Dict[str, int] = {}
    for part in parts:
        for outcome, count in part["tally"].items():
            tally[outcome] = tally.get(outcome, 0) + count
    counts = Counts(tally, num_qubits=parts[0]["num_bits"])
    memory: Optional[List[str]] = None
    if options.memory:
        memory = []
        for part in parts:
            memory.extend(part["memory"])
    # Concatenate per-trajectory values in absolute trajectory order and
    # reduce over the full (T, n_obs) array: the mean/std are then
    # computed identically for every shard split, keeping expectation
    # values (not just counts) invariant under max_workers.
    stacked = np.asarray(
        [row for part in parts for row in part["values"]], dtype=np.float64
    ).reshape(shots, len(options.observables))
    means = stacked.mean(axis=0)
    variances = np.maximum(np.mean(stacked**2, axis=0) - means**2, 0.0)
    stds = np.sqrt(variances / shots)
    return {
        "index": index,
        # No single final state exists for a trajectory average; counts,
        # memory and expectation means carry the result.
        "state": None,
        "counts": counts,
        "memory": memory,
        "values": tuple(float(v) for v in means),
        "expectation_std": tuple(float(s) for s in stds),
        "run_time_s": time.perf_counter() - t0,
        "sample_time_s": 0.0,
    }


def _dynamic_payload(
    plan: "ExecutionPlan",
    index: int,
    options: RunOptions,
    backend: Any,
    workers: int,
) -> Dict[str, Any]:
    """Per-element payload for a plan with dynamic ops.

    Density mode stays deterministic: one branch-bookkeeping evolution
    yields the ensemble-average state *and* the exact clbit distribution,
    which is sampled directly (readout error models qubit measurement
    hardware and is deliberately not applied to clbit registers).  Pure
    modes are stochastic: with shots they run per-shot trajectories;
    without shots the statevector backend runs a single seeded trajectory
    (the trajectory backend instead demands shots — its whole output is
    the trajectory average).
    """
    if plan.mode == "density":
        t0 = time.perf_counter()
        classical: Dict[str, Any] = {}
        state = backend.execute_plan(
            plan, classical=classical, sanitize=options.sanitize
        )
        run_time = time.perf_counter() - t0
        readout = None
        if options.shots and plan.num_clbits:
            probs = np.zeros(1 << plan.num_clbits, dtype=np.float64)
            for bits, weight in classical["distribution"].items():
                probs[bitstring_to_index(bits)] = weight
            readout = (probs / probs.sum(), plan.num_clbits)
        return _state_payload(index, state, options, run_time, readout)
    if options.shots == 0:
        if plan.mode == "trajectory":
            raise ExecutionError(
                "the trajectory backend needs shots >= 1: each shot is one "
                "Monte-Carlo trajectory and the result is their average; "
                "set shots= in RunOptions (or use backend='density_matrix' "
                "for the exact state)"
            )
        # Statevector + dynamic ops, no shots: one stochastic collapse,
        # seeded as trajectory 0 of this element for reproducibility.
        t0 = time.perf_counter()
        rng = ensure_rng(derive_seed(options.seed, index, 0))
        state = backend.execute_plan(plan, rng=rng, sanitize=options.sanitize)
        return _state_payload(index, state, options, time.perf_counter() - t0)
    return _trajectory_element(plan, index, options, backend, workers)


def _circuit_reports(
    circuits: Sequence[Circuit], backend: Any, options: RunOptions
) -> Optional[List["AnalysisReport"]]:
    """Static-analysis reports per circuit, or ``None`` when validation is off.

    Runs :func:`repro.analysis.analyze` on the circuits *as submitted*
    (pre-transpile), so diagnostic sites index the user's instructions.
    The import is lazy: ``validate="off"`` (the default) keeps the hot
    path free of the analysis layer entirely.
    """
    if options.validate == "off":
        return None
    from repro.analysis import AnalysisContext, analyze

    context = AnalysisContext(mode=getattr(backend, "plan_mode", None))
    return [analyze(circuit, context=context) for circuit in circuits]


def _enforce_validation(
    reports: Optional[Sequence["AnalysisReport"]], options: RunOptions
) -> None:
    """Under ``validate="strict"``, raise on any error-severity finding."""
    if options.validate != "strict":
        return
    for index, report in enumerate(reports):
        subject = f"circuit {index}" if len(reports) > 1 else "the circuit"
        report.raise_if_errors(subject)


def _effective_workers(options: RunOptions) -> int:
    from repro.service.pool import resolve_max_workers

    return resolve_max_workers(options.max_workers)


def _worker_options(options: RunOptions) -> RunOptions:
    """The options shipped to workers: compile-side knobs stripped.

    Workers receive already-compiled plans, so ``passes`` (arbitrary,
    possibly unpicklable pass objects) and the ``backend`` field (the
    live instance ships separately) would only widen the pickle surface.
    """
    return options.replace(passes=None, backend=None)


def _plan_payloads(
    plans: Sequence["ExecutionPlan"],
    points: Sequence[Optional[Dict[str, float]]],
    options: RunOptions,
    backend: Any,
    workers: int,
) -> List[Dict[str, Any]]:
    """Per-element payloads of compiled plans, in index order.

    With ``workers > 1`` and more than one element the elements fan out
    to the pool: each distinct plan pickles once in the parent and
    workers only bind/execute/sample.  Per-element seeds derive from the
    element index, so the fan-out is results-invisible.
    """
    if workers > 1 and len(plans) > 1:
        from repro.service.pool import _element_task, dump_plan, run_tasks

        shipped = _worker_options(options)
        blobs: Dict[int, bytes] = {}
        tasks = []
        for index, (plan, point) in enumerate(zip(plans, points)):
            if id(plan) not in blobs:
                blobs[id(plan)] = dump_plan(plan)
            tasks.append((blobs[id(plan)], point, index, shipped, backend))
        return run_tasks(_element_task, tasks, workers)
    return [
        element_payload(plan, point, index, options, backend, workers=workers)
        for index, (plan, point) in enumerate(zip(plans, points))
    ]


def _protocol_payload(
    backend: Any,
    circuit: Circuit,
    index: int,
    options: RunOptions,
    element_options: RunOptions,
) -> Dict[str, Any]:
    """One element on a protocol-only backend: ``run()``, then sample."""
    t0 = time.perf_counter()
    state = backend.run(circuit, options=element_options)
    return _state_payload(index, state, options, time.perf_counter() - t0)


def _payload_result(
    payload: Mapping[str, Any],
    circuit: Any,
    parameters: Optional[Dict[str, float]],
    options: RunOptions,
    backend_name: str,
    diagnostics: Optional[Tuple[Any, ...]],
) -> Result:
    """The :class:`Result` of one element payload."""
    metadata = {
        "backend": backend_name,
        "seed": derive_seed(options.seed, payload["index"]),
        "run_time_s": payload["run_time_s"],
        "sample_time_s": payload["sample_time_s"],
    }
    if "expectation_std" in payload:
        metadata["expectation_std"] = payload["expectation_std"]
    if diagnostics is not None:
        metadata["diagnostics"] = diagnostics
    return Result(
        circuit,
        payload["state"],
        counts=payload["counts"],
        memory=payload["memory"],
        observables=options.observables,
        expectation_values=payload["values"],
        parameters=parameters,
        metadata=metadata,
    )


def _compile_timed(
    circuit: Circuit, backend: Any, options: RunOptions
) -> Tuple["ExecutionPlan", float, float]:
    """Compile via the plan cache, attributing only THIS call's work.

    Returns ``(plan, compile_time_s, transpile_time_s)`` where both
    timings describe the current call: a cache hit costs only the lookup
    and contributes zero transpile time, instead of echoing the original
    compile's wall times (which could exceed this call's own total).
    The compile path reports whether this call hit the cache, so this
    holds while other threads (e.g. a second dispatcher) compile too.
    """
    from repro.plan.plan import _compile_plan

    t0 = time.perf_counter()
    plan, compiled = _compile_plan(circuit, backend, options, use_cache=True)
    compile_time = time.perf_counter() - t0
    return plan, compile_time, (plan.transpile_time_s if compiled else 0.0)


def _sweep_is_batchable(
    template: Circuit, backend: Any, options: RunOptions
) -> bool:
    """Whether a sweep can stack into one batched state evolution.

    Batched evolution is pure-state arithmetic with no per-element
    randomness, so it requires the statevector lowering, no
    shots/memory/noise, and no dynamic ops (measure/reset/if_bit collapse
    each sweep point independently); everything else falls back to
    per-element plan execution (same compiled plan, bound per point).
    """
    return (
        getattr(backend, "plan_mode", None) == "statevector"
        and options.shots == 0
        and not options.memory
        and options.noise_model is None
        and not template.has_dynamic_ops()
    )


def _batched_payloads(
    plan: "ExecutionPlan",
    bindings: List[Dict[str, float]],
    options: RunOptions,
    backend: Any,
) -> List[Dict[str, Any]]:
    """Payloads of a batched sweep: one stacked evolution for all points."""
    from repro.observables import expectation_batched
    from repro.plan import run_batched_sweep

    t0 = time.perf_counter()
    batch_states = run_batched_sweep(plan, bindings)
    run_time = time.perf_counter() - t0
    sanitize_mode = resolve_sanitize_mode(options.sanitize)
    if sanitize_mode != "off":
        # Batched evolution has no per-op hook; run the final-state
        # checks on every element of the stack (lazy import keeps the
        # default path analysis-free, like _circuit_reports).
        from repro.analysis.sanitize import sanitize_batch

        sanitize_batch(plan, batch_states, sanitize_mode)
    per_observable = [
        expectation_batched(batch_states, observable)
        for observable in options.observables
    ]
    element_time = run_time / len(bindings)
    return [
        _state_payload(
            index,
            backend._finalize(batch_states[index], plan.num_qubits),
            options,
            element_time,
            values=tuple(values[index] for values in per_observable),
        )
        for index in range(len(bindings))
    ]


def _run_sweep(
    template: Circuit,
    backend: Any,
    options: RunOptions,
    bindings: List[Dict[str, float]],
    start: float,
) -> BatchResult:
    """Execute a parameter sweep off one compiled template.

    On a plan-capable backend (one declaring ``plan_mode``) the template
    compiles exactly once (transpile + lowering, via the plan cache);
    bindings then either evolve together as a single ``(N, 2, ..., 2)``
    batch (one contraction per op) or bind the plan per element — never
    re-lowering either way.  A backend satisfying only the
    :class:`~repro.sim.Backend` protocol still sweeps: one transpile of
    the template, then ``bind() + run()`` per point.
    """
    plan_capable = getattr(backend, "plan_mode", None) is not None
    batchable = plan_capable and _sweep_is_batchable(template, backend, options)
    if options.sweep_mode == "batched" and not batchable:
        if template.has_dynamic_ops():
            raise ExecutionError(
                "sweep_mode='batched' cannot run dynamic circuits: "
                "measure/reset/if_bit collapse each sweep point "
                "independently, so there is no shared batched evolution — "
                "use sweep_mode='auto' or 'per_element'"
            )
        raise ExecutionError(
            "sweep_mode='batched' requires a plan-capable statevector "
            "backend with shots=0, memory=False and no noise model; use "
            "'auto' to fall back to per-element execution"
        )
    use_batched = batchable and options.sweep_mode != "per_element"
    reports = _circuit_reports([template], backend, options)

    plan = None
    if plan_capable:
        plan, compile_time, transpile_time = _compile_timed(
            template, backend, options
        )
        bound_template = plan.circuit
    else:
        compile_time = 0.0
        transpile_time = 0.0
        bound_template = template
        if options.optimize or options.passes is not None:
            from repro.transpile import transpile

            t0 = time.perf_counter()
            bound_template = transpile(template, passes=options.passes)
            transpile_time = time.perf_counter() - t0

    diagnostics = None
    if reports is not None:
        # Every sweep element runs the same template, so one report
        # (circuit + compiled-plan findings) covers the whole sweep.
        report = reports[0]
        if plan is not None:
            from repro.analysis import verify_plan

            report = report + verify_plan(plan)
        _enforce_validation([report], options)
        diagnostics = tuple(report)

    workers = _effective_workers(options)
    if use_batched:
        payloads = _batched_payloads(plan, bindings, options, backend)
    elif plan_capable:
        payloads = _plan_payloads(
            [plan] * len(bindings), bindings, options, backend, workers
        )
    else:
        # Protocol-only backends have no plan to ship; they sweep serially.
        element_options = options.replace(optimize=False, passes=None)
        payloads = [
            _protocol_payload(
                backend, bound_template.bind(point), index, options, element_options
            )
            for index, point in enumerate(bindings)
        ]
    results = [
        _payload_result(
            payload,
            # Deferred: Result.circuit resolves the bound circuit on first
            # access, so an N-point sweep does not pay N full template
            # re-binds just to fill a field most consumers never read.
            lambda point=point: bound_template.bind(point),
            point,
            options,
            backend.name,
            diagnostics,
        )
        for payload, point in zip(payloads, bindings)
    ]
    return BatchResult(
        results,
        metadata={
            "backend": backend.name,
            "sweep_mode": "batched" if use_batched else "per_element",
            "workers": 1 if use_batched else workers,
            "transpile_time_s": transpile_time,
            "plan_compile_time_s": compile_time,
            "total_time_s": time.perf_counter() - start,
        },
    )


def _run_batch(
    circuits: List[Circuit],
    options: RunOptions,
    bindings: Optional[List[Dict[str, float]]],
    single: bool,
) -> Union[Result, BatchResult]:
    start = time.perf_counter()
    backend = get_backend(options.backend)

    if bindings is not None:
        return _run_sweep(circuits[0], backend, options, bindings, start)

    plan_capable = getattr(backend, "plan_mode", None) is not None
    reports = _circuit_reports(circuits, backend, options)
    transpile_time = 0.0
    compile_time = 0.0
    workers = _effective_workers(options)
    if plan_capable:
        # Compile every element in the parent (through the plan cache)
        # with the *full* options, so transpile + lowering amortise
        # together across repeated execute() calls — workers never
        # compile, whatever the worker count.
        plans = []
        for circuit in circuits:
            plan, element_compile, element_transpile = _compile_timed(
                circuit, backend, options
            )
            compile_time += element_compile
            transpile_time += element_transpile
            plans.append(plan)
        if reports is not None:
            from repro.analysis import verify_plan

            reports = [
                report + verify_plan(plan)
                for report, plan in zip(reports, plans)
            ]
            _enforce_validation(reports, options)
        result_circuits = [plan.circuit for plan in plans]
        payloads = _plan_payloads(
            plans, [None] * len(plans), options, backend, workers
        )
    else:
        if options.optimize or options.passes is not None:
            # Protocol-only backends know nothing of plans: transpile
            # here, then hand them pre-optimised circuits with
            # optimisation off.
            from repro.transpile import transpile

            t0 = time.perf_counter()
            circuits = [transpile(c, passes=options.passes) for c in circuits]
            transpile_time = time.perf_counter() - t0
        if reports is not None:
            _enforce_validation(reports, options)
        result_circuits = circuits
        element_options = options.replace(optimize=False, passes=None)
        payloads = [
            _protocol_payload(backend, circuit, index, options, element_options)
            for index, circuit in enumerate(circuits)
        ]
    results = [
        _payload_result(
            payload,
            circuit,
            None,
            options,
            backend.name,
            None if reports is None else tuple(reports[payload["index"]]),
        )
        for payload, circuit in zip(payloads, result_circuits)
    ]
    if single:
        return results[0]
    return BatchResult(
        results,
        metadata={
            "backend": backend.name,
            "workers": workers,
            "transpile_time_s": transpile_time,
            "plan_compile_time_s": compile_time,
            "total_time_s": time.perf_counter() - start,
        },
    )


def submit(
    circuits: Union[Circuit, Iterable[Circuit]],
    options: Optional[RunOptions] = None,
    *,
    parameter_sweep: Optional[Sweep] = None,
    **kwargs: Any,
) -> Job:
    """Build a lazy :class:`Job` for ``circuits`` under ``options``.

    Accepts either a prebuilt :class:`RunOptions` or the same fields as
    loose keywords (``backend=``, ``shots=``, ``seed=``, ``optimize=``,
    ``passes=``, ``noise_model=``, ``observables=``, ``memory=``).
    """
    options = RunOptions.coerce(options, **kwargs)

    single = isinstance(circuits, Circuit)
    circuit_list = [circuits] if single else list(circuits)
    if not circuit_list:
        raise ExecutionError("execute() needs at least one circuit")
    for index, circuit in enumerate(circuit_list):
        if not isinstance(circuit, Circuit):
            raise ExecutionError(
                f"batch element {index} is {type(circuit).__name__}, "
                "expected a Circuit"
            )

    bindings: Optional[List[Dict[str, float]]] = None
    if parameter_sweep is not None:
        if len(circuit_list) != 1:
            raise ExecutionError(
                f"a parameter sweep runs one template circuit, got "
                f"{len(circuit_list)}"
            )
        bindings = _normalise_sweep(parameter_sweep, circuit_list[0])
        single = False  # a sweep always yields a BatchResult
    else:
        for index, circuit in enumerate(circuit_list):
            unbound = circuit.parameters()
            if unbound:
                raise ExecutionError(
                    f"batch element {index} has unbound parameter(s) "
                    f"{[p.name for p in unbound]}; bind them "
                    "(Circuit.bind) or pass parameter_sweep="
                )

    num_elements = len(bindings) if bindings is not None else len(circuit_list)
    return Job(
        lambda: _run_batch(circuit_list, options, bindings, single),
        options,
        num_elements,
    )


def execute(
    circuits: Union[Circuit, Iterable[Circuit]],
    options: Optional[RunOptions] = None,
    *,
    parameter_sweep: Optional[Sweep] = None,
    **kwargs: Any,
) -> Union[Result, BatchResult]:
    """Execute circuits and return their results — the one front door.

    A single :class:`Circuit` yields a :class:`Result`; a sequence of
    circuits, or a ``parameter_sweep`` over one parametric template,
    yields a :class:`BatchResult` in submission order.  See
    :class:`RunOptions` for every knob and the module docstring for the
    seeding and sweep-transpile guarantees.
    """
    return submit(
        circuits, options, parameter_sweep=parameter_sweep, **kwargs
    ).result()
