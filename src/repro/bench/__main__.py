"""CLI for the benchmark suite: ``python -m repro.bench [--json] [--smoke]``.

Prints a human-readable table by default, the schema-8 JSON report with
``--json``; ``--sweep`` adds the batched parameter-sweep benchmark run
through ``repro.execute``, ``--parallel`` adds the parallel execution
service leg (per-element sweep, serial vs. ``--workers`` processes),
and ``--trajectory`` adds the Monte-Carlo
trajectory backend vs. exact density-matrix evolution on the noisy
workload families.  Exits non-zero if any workload's fused execution
fails the seeded counts/expectation-equivalence checks, if run() and
precompiled-plan execution diverge, if the sweep is not reproducible,
transpiles more than once, drifts between batched and per-element
execution, or runs *slower* batched than per-element, if any parallel
parity boolean fails, or if a trajectory estimate falls outside five
standard errors of the exact density expectation — CI treats all of
those as regressions.  Parallel *speedup* is only gated when the host
reports at least two CPUs (a 1-CPU runner cannot be expected to go
faster); the trajectory speedup column is reported but never gated.

The density-matrix rows additionally race the Pauli-transfer-matrix
backend on the same fused circuit.  PTM equivalence (counts and
expectations vs. density) and the fewer-plan-ops invariant are gated
unconditionally; the ``ptm_speedup_vs_density`` column is gated at
``>= 1.0`` — if fusing noise into gates cannot beat Kraus evolution,
that is a regression in the whole point of the backend.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.bench.harness import run_suite
from repro.sim import available_backends
from repro.utils.exceptions import SimulationError


def _format_table(report: dict) -> str:
    header = (
        f"{'workload':<22} {'n':>3} {'backend':>15} {'gates':>11} {'depth':>9} "
        f"{'t_unfused':>10} {'t_fused':>10} {'speedup':>8} {'ptm':>8} {'counts':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in report["workloads"]:
        speedup = row["speedup"]
        speedup_cell = f"{speedup:>7.2f}x" if speedup is not None else f"{'n/a':>8}"
        ptm = row["ptm_speedup_vs_density"]
        ptm_cell = f"{ptm:>7.2f}x" if ptm is not None else f"{'-':>8}"
        lines.append(
            f"{row['name']:<22} {row['num_qubits']:>3} {row['backend']:>15} "
            f"{row['gates_unfused']:>4}->{row['gates_fused']:<5} "
            f"{row['depth_unfused']:>3}->{row['depth_fused']:<4} "
            f"{row['run_time_unfused_s']:>10.2g} {row['run_time_fused_s']:>10.2g} "
            f"{speedup_cell} {ptm_cell} {'ok' if row['counts_match'] else 'FAIL':>7}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulation backends with and without gate fusion.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the schema-8 JSON report on stdout"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small/fast CI configuration (fewer qubits, single repeat)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also benchmark a batched parameter sweep through repro.execute",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="also benchmark the parallel execution service "
        "(per-element sweep, serial vs. --workers processes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the --parallel legs (default 2)",
    )
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="also benchmark the Monte-Carlo trajectory backend against "
        "exact density-matrix evolution on the noisy workloads",
    )
    parser.add_argument("--shots", type=int, default=1024, help="shots for the counts check")
    parser.add_argument("--seed", type=int, default=1234, help="sampling seed")
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (default 3, 1 with --smoke)"
    )
    parser.add_argument(
        "--max-fused-width", type=int, default=2, help="fusion width cap (qubits)"
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        choices=sorted(available_backends()),
        help="default backend for workloads that do not pin one",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="also write the JSON report to this path"
    )
    args = parser.parse_args(argv)

    try:
        report = run_suite(
            smoke=args.smoke,
            shots=args.shots,
            seed=args.seed,
            repeats=args.repeats,
            max_fused_width=args.max_fused_width,
            backend=args.backend,
            sweep=args.sweep,
            parallel=args.parallel,
            workers=args.workers,
            trajectory=args.trajectory,
        )
    except SimulationError as exc:
        # E.g. --backend density_matrix at full statevector sizes: the
        # harness refuses O(4**n) blowups with a clear message.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        print(_format_table(report))
        sweep = report["sweep"]
        if sweep is not None:
            speedup = sweep["batched_speedup"]
            speedup_cell = f"{speedup:.2f}x" if speedup is not None else "n/a"
            print(
                f"sweep: {sweep['name']} x {sweep['points']} points, "
                f"batched {sweep['run_time_batched_s']:.2g}s vs per-element "
                f"{sweep['run_time_per_element_s']:.2g}s ({speedup_cell}, "
                f"{sweep['transpile_calls']} transpile call), reproducible: "
                f"{'ok' if sweep['reproducible'] else 'FAIL'}"
            )
        parallel = report["parallel"]
        if parallel is not None:
            leg = parallel["sweep"]
            speedup = leg["parallel_speedup"]
            speedup_cell = f"{speedup:.2f}x" if speedup is not None else "n/a"
            print(
                f"parallel/sweep: {leg['name']}, serial "
                f"{leg['run_time_serial_s']:.2g}s vs "
                f"{parallel['workers']} workers "
                f"{leg['run_time_parallel_s']:.2g}s ({speedup_cell}), "
                f"parity: {'ok' if leg['results_match'] else 'FAIL'}"
            )
        trajectory = report["trajectory"]
        if trajectory is not None:
            for row in trajectory["workloads"]:
                speedup = row["trajectory_speedup"]
                speedup_cell = f"{speedup:.2f}x" if speedup is not None else "n/a"
                print(
                    f"trajectory: {row['name']}, density "
                    f"{row['run_time_density_s']:.2g}s vs "
                    f"{trajectory['trajectories']} trajectories "
                    f"{row['run_time_trajectory_s']:.2g}s ({speedup_cell}), "
                    f"<Z0> {row['expectation_trajectory']:.4f} vs exact "
                    f"{row['expectation_density']:.4f} "
                    f"(sigma {row['std_error']:.2g}), agreement: "
                    f"{'ok' if row['agreement'] else 'FAIL'}"
                )

    failed = False
    mismatched = [w["name"] for w in report["workloads"] if not w["counts_match"]]
    if mismatched:
        print(
            f"counts mismatch after fusion: {', '.join(mismatched)}", file=sys.stderr
        )
        failed = True
    drifted = [
        w["name"] for w in report["workloads"] if not w["expectations_match"]
    ]
    if drifted:
        print(
            f"expectation drift after fusion: {', '.join(drifted)}",
            file=sys.stderr,
        )
        failed = True
    diverged = [
        w["name"] for w in report["workloads"] if not w["eager_matches_plan"]
    ]
    if diverged:
        print(
            f"run() diverges from precompiled-plan execution: "
            f"{', '.join(diverged)}",
            file=sys.stderr,
        )
        failed = True
    # PTM gates run on every row that has PTM columns (density rows).
    # Equivalence and the fewer-ops invariant are correctness contracts;
    # the speedup floor is the backend's reason to exist.
    ptm_rows = [
        w for w in report["workloads"] if w["ptm_counts_match"] is not None
    ]
    ptm_mismatched = [
        w["name"]
        for w in ptm_rows
        if not (w["ptm_counts_match"] and w["ptm_expectations_match"])
    ]
    if ptm_mismatched:
        print(
            f"ptm backend diverges from density evolution: "
            f"{', '.join(ptm_mismatched)}",
            file=sys.stderr,
        )
        failed = True
    ptm_unfused = [w["name"] for w in ptm_rows if not w["ptm_fewer_ops"]]
    if ptm_unfused:
        print(
            f"ptm plan is not smaller than the density plan (fusion through "
            f"channels regressed): {', '.join(ptm_unfused)}",
            file=sys.stderr,
        )
        failed = True
    ptm_slow = [
        (w["name"], w["ptm_speedup_vs_density"])
        for w in ptm_rows
        if w["ptm_speedup_vs_density"] is not None
        and w["ptm_speedup_vs_density"] < 1.0
    ]
    if ptm_slow:
        detail = ", ".join(f"{name} ({value:.2f}x)" for name, value in ptm_slow)
        print(
            f"ptm backend slower than density evolution: {detail}",
            file=sys.stderr,
        )
        failed = True
    sweep = report["sweep"]
    if sweep is not None:
        if not sweep["reproducible"]:
            print("sweep results are not reproducible", file=sys.stderr)
            failed = True
        if sweep["transpile_calls"] != 1:
            print(
                f"sweep transpiled {sweep['transpile_calls']} times, "
                "expected exactly 1",
                file=sys.stderr,
            )
            failed = True
        if not sweep["expectations_match"]:
            print(
                "batched sweep expectations drift from per-element execution",
                file=sys.stderr,
            )
            failed = True
        speedup = sweep["batched_speedup"]
        if speedup is not None and speedup < 1.0:
            print(
                f"batched sweep is slower than per-element execution "
                f"({speedup:.2f}x)",
                file=sys.stderr,
            )
            failed = True
    parallel = report["parallel"]
    if parallel is not None:
        for flag, message in (
            (
                parallel["sweep"]["results_match"],
                "parallel sweep results diverge from serial execution",
            ),
            (
                parallel["sweep"]["workers1_matches_serial"],
                "max_workers=1 sweep diverges from the default serial path",
            ),
        ):
            if not flag:
                print(message, file=sys.stderr)
                failed = True
        # Speedup is host-dependent: only gate it where more than one
        # core exists, and leave headroom (0.9x) for scheduler noise at
        # smoke sizes — correctness gates above are unconditional.
        cpu_count = parallel["cpu_count"]
        speedup = parallel["sweep"]["parallel_speedup"]
        if (
            cpu_count is not None
            and cpu_count >= 2
            and speedup is not None
            and speedup < 0.9
        ):
            print(
                f"parallel sweep is slower than serial execution "
                f"({speedup:.2f}x with {parallel['workers']} workers "
                f"on {cpu_count} CPUs)",
                file=sys.stderr,
            )
            failed = True
    trajectory = report["trajectory"]
    if trajectory is not None:
        disagreeing = [
            row["name"]
            for row in trajectory["workloads"]
            if not row["agreement"]
        ]
        if disagreeing:
            print(
                "trajectory expectations outside 5 sigma of exact density "
                f"evolution: {', '.join(disagreeing)}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
