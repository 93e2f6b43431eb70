"""Benchmark runner: one workload, one seed, one measured phase.

    python3 perfbench/run.py --workload charter_ptm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run
of the same seed.  The line before it holds the run's context: host, BLAS,
versions, seed, request counts and the tail percentiles.

Timing rules that keep the figures steady on a small shared host:

* every latency figure pools all requests of a run and is a median, never
  one sample;
* ``setup_s`` is the median over several fresh processes, each timed from
  its launch until the workload is ready for its first request; it covers
  importing ``repro``, the lazy set-up a first call triggers and filling
  caches the loop reuses, but never a full request;
* the measured phase excludes the runner's own bookkeeping (input
  generation and recording outputs); the output checks run after it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
COVERAGE_FLOOR = 0.95
HOST_COPY_BYTES = 16 * 2**20


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"cannot import repro from {src}: {exc}\n")
        raise SystemExit(2) from None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"repro imported from {repro.__file__}, not from {src}\n")
        raise SystemExit(2)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, report ready, and exit (internal)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# context
# ----------------------------------------------------------------------

def blas_context() -> Dict[str, Any]:
    """The BLAS numpy was built against and its effective thread count."""
    import numpy as np

    info: Dict[str, Any] = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = set(re.findall(r"\S*openblas\S*\.so\S*", handle.read()))
    except OSError:
        libraries = set()
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in getters:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def cache_sizes() -> Dict[str, str]:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return sizes


def run_context(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas": blas_context(),
        "numpy": np.__version__, "python": platform.python_version(),
        "caches": cache_sizes(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def host_probes() -> Dict[str, float]:
    """In-cache copy bandwidth at the 16 MiB state size, and a pure-Python probe.

    Context only: no metric is ever rescaled by these.
    """
    import numpy as np

    src = np.ones(HOST_COPY_BYTES // 8)
    dst = np.empty_like(src)
    copies, loops = [], []
    for _ in range(15):
        start = time.perf_counter()
        np.copyto(dst, src)
        copies.append(time.perf_counter() - start)
        start = time.perf_counter()
        sum(i * i for i in range(20000))
        loops.append(time.perf_counter() - start)
    return {"copy_gbps": 2 * HOST_COPY_BYTES / statistics.median(copies) / 1e9,
            "py_probe_ms": statistics.median(loops) * 1e3}


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def setup_probe(args: argparse.Namespace) -> int:
    """Child side of ``setup_s``: import, set up, report ready, tear down."""
    import_library()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    workload.teardown()
    return 0


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Seconds from launching a fresh process until its workload is set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}, exit {child.returncode}")
        samples.append(ready - start)
    return samples


# ----------------------------------------------------------------------
# measured phases
# ----------------------------------------------------------------------

def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_latency(latencies: List[float]) -> Dict[str, Any]:
    """The highest of p99/p90 with at least ten samples beyond it, if any."""
    for q in (99, 90):
        if len(latencies) * (100 - q) / 100 >= 10:
            return {f"latency_p{q}_ms": percentile(latencies, q) * 1e3,
                    "samples": len(latencies)}
    return {"samples": len(latencies), "note": "too few requests for a tail percentile"}


def latency_spread(latencies: List[float]) -> Dict[str, float]:
    """Quartiles and extremes of one run's request latencies, in ms."""
    if len(latencies) < 2:
        return {}
    q1, q2, q3 = statistics.quantiles(latencies, n=4)
    return {"min_ms": min(latencies) * 1e3, "q1_ms": q1 * 1e3, "median_ms": q2 * 1e3,
            "q3_ms": q3 * 1e3, "max_ms": max(latencies) * 1e3}


def peak_rss_kb(workload: Any) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.children_peak_kb()


def timed_run(workload: Any, args: argparse.Namespace, context: Dict[str, Any]) -> Dict[str, Any]:
    start = time.perf_counter()
    workload.setup()
    context["setup_in_process_s"] = time.perf_counter() - start

    latencies: List[float] = []
    records: List[Any] = []
    gates = raised = 0
    bookkeeping = 0.0
    phase_start = time.perf_counter()
    index = 0
    while time.perf_counter() - phase_start - bookkeeping < args.seconds:
        t0 = time.perf_counter()
        inp = workload.make_input(index)
        t1 = time.perf_counter()
        try:
            out = workload.request(inp)
        except Exception as exc:  # a failed request is counted, not fatal
            sys.stderr.write(f"request {index} raised {exc!r}\n")
            raised += 1
            index += 1
            bookkeeping += t1 - t0
            continue
        t2 = time.perf_counter()
        latencies.append(t2 - t1)
        gates += workload.gates(inp)
        records.append(workload.record(index, inp, out))
        del out
        bookkeeping += (t1 - t0) + (time.perf_counter() - t2)
        index += 1
    phase_s = time.perf_counter() - phase_start - bookkeeping

    peak_kb = peak_rss_kb(workload)
    workload.teardown()
    passed = sum(workload.check(records)) if records else 0
    setup_samples = measure_setup(args)

    attempted = index
    context.update({"requests": attempted, "raised": raised, "phase_s": phase_s,
                    "setup_samples_s": setup_samples, "latency_tail": tail_latency(latencies),
                    "latency_quartiles": latency_spread(latencies)})
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "latency_p50_ms": (statistics.median(latencies or [0.0]) * 1e3, "ms"),
        "throughput_rps": (len(latencies) / phase_s, "1/s"),
        "sim_gates_per_s": (gates / phase_s, "gates/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (passed / attempted, "frac"),
    }
    return {"correct": passed == attempted, "attempted": attempted,
            "failed": attempted - passed, "metrics": metrics}


def traced_run(workload: Any, args: argparse.Namespace, context: Dict[str, Any]) -> Dict[str, Any]:
    from repro import clear_plan_cache

    from perfbench import spans
    from perfbench.workloads import LayerCounts

    workload.setup()
    host_start = host_probes()
    tracer = spans.Tracer()
    rows: List[Dict[str, Any]] = []
    records: List[Any] = []
    phase_start = time.perf_counter()
    index = 0
    while time.perf_counter() - phase_start < args.seconds:
        with tracer.span("circuit.build", request=index):
            inp = workload.make_input(index)
        try:
            start = time.perf_counter()
            out = workload.request(inp)
            latency = time.perf_counter() - start
            counts = LayerCounts()
            if workload.cold_cache:
                clear_plan_cache()  # the untraced request compiled these circuits
            with tracer.span("request"):
                replayed = workload.replay(inp, tracer, counts)
            counts.finish()
        except Exception as exc:  # a failed request is counted, not fatal
            sys.stderr.write(f"request {index} raised {exc!r}\n")
            index += 1
            continue
        busy_s, workers = workload.busy(out)
        rows.append({"latency": latency, "execute_s": workload.execute_seconds(out, latency),
                     "counts": counts, "gates": workload.gates(inp),
                     "busy_s": busy_s, "workers": workers,
                     "replay_matches": workload.replay_digest(replayed) == workload.digest(out)})
        records.append(workload.record(index, inp, out))
        del out
        index += 1
    host_end = host_probes()
    workload.teardown()
    verdicts = workload.check(records) if records else []

    by_request = tracer.by_request()
    per_request = [by_request[i] for i in sorted(by_request)
                   if any(s.name == "request" for s in by_request[i])]
    coverages = [spans.coverage(s) for s in per_request] or [0.0]
    traced_s = [spans.duration(s, "request") for s in per_request]
    run_coverage = sum(c * t for c, t in zip(coverages, traced_s)) / max(sum(traced_s), 1e-12)
    coverage_median = statistics.median(coverages)
    passed = sum(v and row["replay_matches"] for v, row in zip(verdicts, rows))
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(str(trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))

    metrics = layer_metrics(workload, rows, per_request, host_start, host_end)
    metrics["trace.coverage_median"] = (coverage_median, "frac")
    metrics["trace.coverage_min"] = (min(coverages), "frac")
    context.update({
        "requests": index, "host_start": host_start, "host_end": host_end,
        "replay_mismatches": sum(not row["replay_matches"] for row in rows),
        "coverage": {
            "floor": COVERAGE_FLOOR, "run": run_coverage, "median": coverage_median,
            "min": min(coverages),
            "requests_below_floor": sum(c < COVERAGE_FLOOR for c in coverages),
        },
        "layers_not_reached": list(workload.not_reached),
        "sim_gbps_note": "computed bytes (2 x state bytes x plan ops) per kernel second; "
                         "compare with host.copy_gbps, an in-cache np.copyto, not DRAM",
    })
    correct = passed == index and min(coverage_median, run_coverage) >= COVERAGE_FLOOR
    return {"correct": correct, "attempted": index, "failed": index - passed,
            "metrics": metrics}


def layer_metrics(workload: Any, rows: List[Dict[str, Any]], per_request: List[list],
                  host_start: Dict[str, float], host_end: Dict[str, float]) -> Dict[str, Any]:
    """Per-layer metrics: per-request medians of span self times, and exact counts."""
    from perfbench import spans

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    def layer_ms(name: str) -> float:
        return med([spans.self_time(s, name) for s in per_request]) * 1e3

    kernel = [spans.self_time(s, "sim.execute_plan") for s in per_request]
    replay = [spans.duration(s, "request") for s in per_request]
    counts = [row["counts"] for row in rows]
    ops = sum(c.plan_ops for c in counts)
    moved = sum(c.bytes_moved for c in counts)
    overhead = [row["execute_s"] - row["busy_s"] / row["workers"] for row in rows]
    pooled = [row for row in rows if row["workers"] > 1]
    serial = getattr(workload, "serial_latencies", [])
    untraced = serial if pooled else [row["latency"] for row in rows]
    metrics = {
        "sim.kernel_ms": (med(kernel) * 1e3, "ms"),
        "sim.op_us": (sum(kernel) / ops * 1e6 if ops else 0.0, "us"),
        "sim.bytes_moved_mb": (med([c.bytes_moved / 1e6 for c in counts]), "MB"),
        "sim.gbps": (moved / sum(kernel) / 1e9 if kernel else 0.0, "GB/s"),
        "plan.ops": (med([c.plan_ops for c in counts]), "count"),
        "plan.compile_ms": (layer_ms("plan.compile"), "ms"),
        "plan.cache_hit_frac": (sum(c.hits for c in counts) / max(sum(c.compiles for c in counts), 1),
                                "frac"),
        "transpile.ms": (med([c.transpile_s for c in counts]) * 1e3, "ms"),
        "transpile.gates_out_per_in": (sum(c.gates_out for c in counts)
                                       / max(sum(c.gates_in for c in counts), 1), "ratio"),
        "circuit.build_ms": (layer_ms("circuit.build"), "ms"),
        "circuit.gates": (med([row["gates"] for row in rows]), "count"),
        "execution.overhead_ms": (med(overhead) * 1e3, "ms"),
        "sampling.ms": (layer_ms("sampling"), "ms"),
        "observables.ms": (layer_ms("observables"), "ms"),
        "host.copy_gbps": (med([host_start["copy_gbps"], host_end["copy_gbps"]]), "GB/s"),
        "host.py_probe_ms": (med([host_start["py_probe_ms"], host_end["py_probe_ms"]]), "ms"),
        "trace.overhead_ms": ((med(replay) - med(untraced)) * 1e3, "ms"),
    }
    if pooled:  # only workloads that reach the worker pool report its layer
        metrics.update({
            "service.overhead_ms": (med([r["execute_s"] - r["busy_s"] / r["workers"]
                                         for r in pooled]) * 1e3, "ms"),
            "service.busy_frac": (med([r["busy_s"] / (r["workers"] * r["execute_s"])
                                       for r in pooled]), "frac"),
            "service.speedup_vs_serial": (med(replay) / med([r["execute_s"] for r in pooled]),
                                          "x"),
        })
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_library()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    context = run_context(args)
    run = traced_run if args.trace else timed_run
    result = run(workload, args, context)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
