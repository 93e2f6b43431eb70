"""The four benchmark workloads.

Each workload is a closed loop: one client in one process sends its next
request only after the previous one returned.  Requests go through the
library's public API only.  A workload provides:

* ``setup()`` -- the work ``setup_s`` covers besides importing ``repro``:
  the lazy set-up a first call triggers and the caches the loop reuses;
* ``make_input(i)`` -- request ``i``'s seeded input (not timed);
* ``request(inp)`` -- the timed call;
* ``record(i, inp, out)`` -- the compact facts the output checks need;
* ``check(records)`` -- one verdict per request, against an independent
  oracle, run after the measured phase;
* ``replay(inp, tracer)`` -- the traced run's layer-by-layer replay of a
  request, calling each layer's public function in the order ``execute()``
  does, one span per call.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Circuit,
    NoiseModel,
    Pauli,
    RunOptions,
    compile_plan,
    depolarizing,
    execute,
    expectation,
    get_backend,
    plan_cache_info,
    sample_counts,
    sample_memory,
)
from repro.service import shutdown_pool

from perfbench import inputs
from perfbench.oracle import reference_outputs
from perfbench.spans import Tracer

Z0 = Pauli("Z", (0,))


class LayerCounts:
    """Exact per-request counts at the layer boundaries of a replay.

    The replay only appends what it compiled; the counts are derived after
    the request span has closed, so their cost lands outside it.
    """

    def __init__(self) -> None:
        self.compiled: List[Tuple[Circuit, Any, bool]] = []

    def finish(self) -> None:
        self.compiles = len(self.compiled)
        self.hits = sum(hit for _, _, hit in self.compiled)
        self.transpile_s = sum(plan.transpile_time_s for _, plan, hit in self.compiled if not hit)
        self.gates_in = sum(len(circuit) for circuit, _, _ in self.compiled)
        self.gates_out = sum(len(plan.circuit) for _, plan, _ in self.compiled)
        self.plan_ops = sum(len(plan.ops) for _, plan, _ in self.compiled)
        # Computed, not measured: every op reads and writes the whole state once.
        self.bytes_moved = sum(2 * _state_elements(plan) * np.dtype(plan.dtype).itemsize
                               * len(plan.ops) for _, plan, _ in self.compiled)
        self.compiled = []


def _state_elements(plan: Any) -> int:
    return 4**plan.num_qubits if plan.mode in ("ptm", "density") else 2**plan.num_qubits


def traced_compile(circuit: Circuit, backend: Any, options: RunOptions,
                   tracer: Tracer, counts: LayerCounts) -> Any:
    hits = plan_cache_info()["hits"]
    with tracer.span("plan.compile"):
        plan = compile_plan(circuit, backend, options)
    counts.compiled.append((circuit, plan, plan_cache_info()["hits"] > hits))
    return plan


def traced_execute_plan(backend: Any, plan: Any, tracer: Tracer) -> Any:
    with tracer.span("sim.execute_plan"):
        return backend.execute_plan(plan)


def busy_seconds(results: Sequence[Any]) -> float:
    """Element time the program reports: simulation plus sampling."""
    return sum(r.metadata["run_time_s"] + r.metadata["sample_time_s"] for r in results)


def output_digest(results: Sequence[Any]) -> str:
    """Digest of counts, per-shot memory and expectation values, in order."""
    return _digest_parts([(r.counts, r.memory, r.expectation_values) for r in results])


class Workload:
    name = ""
    #: Layers a request never reaches; their per-layer metrics read 0.  The
    #: worker pool's metrics are only reported by workloads that reach it.
    not_reached: Tuple[str, ...] = ()
    #: Whether every request submits circuits the plan cache has not seen.
    cold_cache = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def first_call(self, options: RunOptions, circuits: Sequence[Circuit]) -> None:
        """One tiny ``execute()`` to trigger the lazy set-up a first call does."""
        execute(list(circuits), options)

    def results(self, out: Any) -> Sequence[Any]:
        """The ``Result`` objects of a request's ``execute()`` call."""
        return [out]

    def busy(self, out: Any) -> Tuple[float, int]:
        """``(element seconds the program reports, workers)`` of one request."""
        results = self.results(out)
        workers = getattr(results, "metadata", {}).get("workers", 1)
        return busy_seconds(results), workers

    def execute_seconds(self, out: Any, latency: float) -> float:
        """Wall time of the request's ``execute()`` call, given its whole latency."""
        return latency

    def digest(self, out: Any) -> str:
        """Digest of a request's outputs, comparable with ``replay_digest``."""
        return output_digest(self.results(out))

    def replay_digest(self, replayed: Any) -> str:
        return _digest_parts(replayed)

    def teardown(self) -> None:
        pass

    def children_peak_kb(self) -> int:
        return 0


class SingleCircuit(Workload):
    """A request is one ``execute()`` of one circuit with shots and ⟨Z0⟩."""

    def gates(self, inp: Circuit) -> int:
        return len(inp)

    def request(self, inp: Circuit) -> Any:
        return execute(inp, self.options)

    def replay(self, inp: Circuit, tracer: Tracer, counts: LayerCounts) -> Any:
        plan = traced_compile(inp, self.backend, self.options, tracer, counts)
        state = traced_execute_plan(self.backend, plan, tracer)
        with tracer.span("sampling"):
            sampled = sample_counts(state, self.options.shots, seed=self.options.seed)
        with tracer.span("observables"):
            value = expectation(state, Z0)
        return [(sampled, None, (value,))]


class SmallCircuits(SingleCircuit):
    """The Python overhead floor of the front door.

    5-qubit, 21-gate circuits cost ~20 us per op in dispatch, not in bytes
    moved, so this isolates ``execute()``'s front door, the plan-cache key
    and lookup (every request hits: the 32 circuits are compiled during
    set-up), sampling and expectations.  Bandwidth work does not show here.
    """

    name = "small_circuits"
    not_reached = ("transpile",)
    cold_cache = False

    def setup(self) -> None:
        self.pool = inputs.small_pool(self.seed)
        self.options = RunOptions(shots=1024, seed=self.seed, observables=(Z0,))
        self.backend = get_backend(None)
        for circuit in self.pool:
            compile_plan(circuit, self.backend, self.options)
        self.first_call(self.options, self.pool[:1])
        self.references: Dict[int, Tuple[np.ndarray, float]] = {}

    def make_input(self, index: int) -> Circuit:
        return self.pool[index % len(self.pool)]

    def record(self, index: int, inp: Circuit, out: Any) -> bool:
        slot = index % len(self.pool)
        if slot not in self.references:
            self.references[slot] = reference_outputs(inp)
        probabilities, z0 = self.references[slot]
        # Checked here, so that a long run keeps one bool per request.
        return bool(
            out.counts.shots == self.options.shots
            and abs(out.expectation_values[0] - z0) <= 1e-9
            and float(np.abs(out.state.probabilities() - probabilities).max()) <= 1e-9
        )

    def check(self, records: List[bool]) -> List[bool]:
        return records


class Statevector20(SingleCircuit):
    """Kernels dominate: one 20-qubit, 177-gate circuit per request.

    The 16 MiB state is several times the per-core L2, and >90 % of a
    request is spent in ``execute_plan``, so fusion and kernel work
    (fewer or cheaper passes over the state) shows here and front-door
    work does not.  ``optimize=True`` runs the transpiler on every request.
    """

    name = "statevector_20q"

    def setup(self) -> None:
        self.options = RunOptions(optimize=True, shots=1024, seed=self.seed, observables=(Z0,))
        self.backend = get_backend("statevector")
        self.first_call(self.options, [Circuit(1).ry(0.5, 0)])

    def make_input(self, index: int) -> Circuit:
        return inputs.sv20_input(self.seed, index)

    def record(self, index: int, inp: Circuit, out: Any) -> Tuple[int, int, float]:
        return index, out.counts.shots, out.expectation_values[0]

    def check(self, records: List[Tuple[int, int, float]]) -> List[bool]:
        verdicts = [shots == self.options.shots and abs(z0) <= 1.0 + 1e-12
                    for _, shots, z0 in records]
        index, _, z0 = records[0]
        unoptimized = execute(self.make_input(index),
                              RunOptions(observables=(Z0,))).expectation_values[0]
        verdicts[0] = verdicts[0] and abs(z0 - unoptimized) <= 1e-9
        return verdicts


class CharterPTM(Workload):
    """The paper's workload: one CHARTER analysis per request.

    A fresh seeded 8-qubit, 92-gate circuit with depolarizing(0.01) after
    every gate, on the ``ptm`` backend.  The baseline and one variant per
    gate (k = 3 reversal pairs) go to ``execute()`` as one batch, so
    batch-level reuse such as prefix sharing shows without editing the
    benchmark.  Every variant misses the plan cache, so compile and
    PTM lowering/fusion weigh as much as the kernels here.
    """

    name = "charter_ptm"
    not_reached = ("transpile", "sampling", "observables")
    #: Variants checked against the oracles in each of two sampled requests.
    checked_variants = 2

    def setup(self) -> None:
        self.noise = NoiseModel().add_channel(depolarizing(0.01))
        self.options = RunOptions(backend="ptm", noise_model=self.noise)
        self.backend = get_backend("ptm")
        self.first_call(self.options, [Circuit(1).ry(0.5, 0)])

    def make_input(self, index: int) -> Circuit:
        return inputs.charter_base(self.seed, index)

    def gates(self, inp: Circuit) -> int:
        pairs = 2 * inputs.REVERSAL_PAIRS
        return len(inp) * (len(inp) + 1) + pairs * len(inp)

    def request(self, inp: Circuit) -> Any:
        circuits = inputs.charter_variants(inp)
        start = time.perf_counter()
        batch = execute(circuits, self.options)
        execute_s = time.perf_counter() - start
        tvds, ranking = inputs.charter_tvds([r.state.probabilities() for r in batch])
        return tvds, ranking, batch, execute_s

    def record(self, index: int, inp: Circuit, out: Any) -> Dict[str, Any]:
        tvds, ranking = out[:2]
        return {"index": index, "tvds": tvds, "ranking": ranking, "gates": len(inp)}

    def results(self, out: Any) -> Sequence[Any]:
        return out[2]

    def execute_seconds(self, out: Any, latency: float) -> float:
        return out[3]

    def digest(self, out: Any) -> str:
        return _digest_tvds(out[0], out[1])

    def check(self, records: List[Dict[str, Any]]) -> List[bool]:
        verdicts = []
        for r in records:
            tvds, ranking = r["tvds"], r["ranking"]
            verdicts.append(
                tvds.shape == (r["gates"],)
                and bool(np.all(np.isfinite(tvds)))
                and bool(np.all((tvds >= 0.0) & (tvds <= 1.0)))
                and sorted(ranking.tolist()) == list(range(r["gates"]))
                and bool(np.all(np.diff(tvds[ranking]) <= 0.0))
            )
        rng = inputs.rng_for(self.seed, inputs.STREAM_CHECKS, 0)
        sampled = [0] + ([int(rng.integers(1, len(records)))] if len(records) > 1 else [])
        for position in sampled:
            verdicts[position] = verdicts[position] and self._oracle_check(records[position], rng)
        return verdicts

    def _oracle_check(self, record: Dict[str, Any], rng: np.random.Generator) -> bool:
        """Sampled variants against the density-matrix engine, and noiseless."""
        base = self.make_input(record["index"])
        circuits = inputs.charter_variants(base)
        gates = rng.choice(len(base), size=self.checked_variants, replace=False)
        chosen = [circuits[0]] + [circuits[1 + g] for g in gates]
        density = execute(chosen, RunOptions(backend="density_matrix", noise_model=self.noise))
        tvds = inputs.tvd_from_probabilities([r.state.probabilities() for r in density])
        noiseless = execute(chosen, RunOptions())
        ideal = inputs.tvd_from_probabilities([r.state.probabilities() for r in noiseless])
        return bool(np.all(np.abs(tvds - record["tvds"][gates]) <= 1e-9)
                    and np.all(ideal <= 1e-12))

    def replay(self, inp: Circuit, tracer: Tracer, counts: LayerCounts) -> Any:
        with tracer.span("circuit.build"):
            circuits = inputs.charter_variants(inp)
        plans = [traced_compile(c, self.backend, self.options, tracer, counts) for c in circuits]
        states = [traced_execute_plan(self.backend, plan, tracer) for plan in plans]
        with tracer.span("charter.tvd"):
            return inputs.charter_tvds([s.probabilities() for s in states])

    def replay_digest(self, replayed: Any) -> str:
        return _digest_tvds(*replayed)


class BatchPool(Workload):
    """The only workload that reaches ``repro.service`` and per-shot memory.

    Each request is a batch of 8 seeded 16-qubit circuits with 4096 shots,
    ``memory=True`` and ``max_workers=2``, so pool dispatch, pickling of
    plans and per-shot memory strings are on the critical path.  The runner
    leaves the BLAS thread count as a user gets it; forked workers each
    keep OpenBLAS's default, which oversubscribes a 2-CPU host.
    """

    name = "batch_pool"
    not_reached = ("transpile",)

    def setup(self) -> None:
        self.options = RunOptions(shots=4096, memory=True, seed=self.seed,
                                  observables=(Z0,), max_workers=2)
        self.backend = get_backend("statevector")
        # Starts the worker pool: a two-element batch is the smallest that
        # is dispatched to it.
        self.first_call(self.options, [Circuit(1).ry(0.5, 0), Circuit(1).ry(0.25, 0)])
        self.serial_latencies: List[float] = []

    def make_input(self, index: int) -> List[Circuit]:
        return inputs.batch_input(self.seed, index)

    def gates(self, inp: List[Circuit]) -> int:
        return inputs.submitted_gates(inp)

    def request(self, inp: List[Circuit]) -> Any:
        return execute(inp, self.options)

    def record(self, index: int, inp: List[Circuit], out: Any) -> Tuple[int, str, int]:
        return index, output_digest(out), out.metadata["workers"]

    def results(self, out: Any) -> Sequence[Any]:
        return out

    def check(self, records: List[Tuple[int, str, int]]) -> List[bool]:
        serial = self.options.replace(max_workers=1)
        verdicts = []
        for index, digest, workers in records:
            start = time.perf_counter()
            batch = execute(self.make_input(index), serial)
            self.serial_latencies.append(time.perf_counter() - start)
            verdicts.append(workers == 2 and output_digest(batch) == digest)
        return verdicts

    def replay(self, inp: List[Circuit], tracer: Tracer, counts: LayerCounts) -> Any:
        plans = [traced_compile(c, self.backend, self.options, tracer, counts) for c in inp]
        parts = []
        for index, plan in enumerate(plans):
            state = traced_execute_plan(self.backend, plan, tracer)
            with tracer.span("sampling"):
                memory = sample_memory(state, self.options.shots, seed=self.options.seed,
                                       repetition=index)
                tally: Dict[str, int] = {}
                for outcome in memory:
                    tally[outcome] = tally.get(outcome, 0) + 1
            with tracer.span("observables"):
                value = expectation(state, Z0)
            parts.append((tally, memory, (value,)))
        return parts

    def teardown(self) -> None:
        shutdown_pool()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join(timeout=30)

    def children_peak_kb(self) -> int:
        total = 0
        for child in multiprocessing.active_children():
            total += _peak_rss_kb(child.pid)
        return total


def _peak_rss_kb(pid: Optional[int]) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _digest_parts(parts: Sequence[Tuple[Dict[str, int], Optional[List[str]], Sequence[float]]]
                  ) -> str:
    digest = hashlib.sha256()
    for counts, memory, values in parts:
        digest.update(json.dumps([sorted(counts.items()), memory, list(values)]).encode())
    return digest.hexdigest()


def _digest_tvds(tvds: np.ndarray, ranking: np.ndarray) -> str:
    return hashlib.sha256(tvds.tobytes() + ranking.tobytes()).hexdigest()


WORKLOADS = {
    cls.name: cls for cls in (CharterPTM, Statevector20, SmallCircuits, BatchPool)
}
