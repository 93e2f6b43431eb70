"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/steadiness.py --workloads charter_ptm small_circuits --seeds 1-10

For every workload and end-to-end metric this prints, as a markdown table,
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.
Runs are sequential: the benchmark measures one client on the whole host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", help="append every run's result line to this JSON-lines file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            command = config["command"] + ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(args.seconds), "--trace", "0"]
            output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                    check=True).stdout.strip().splitlines()
            result = json.loads(output[-1])
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             "context": json.loads(output[-2])["context"],
                                             "result": result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        print("| workload | metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"| {workload} | {name} | {median:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} "
                  f"| {bounds[name]} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
