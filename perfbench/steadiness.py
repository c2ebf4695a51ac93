"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload sha_2workers --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
inter-quartile distance as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json`` and a third of it, the target for a steady benchmark.
Runs are sequential, so nothing else of the benchmark competes with them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness.stats import median, spread  # noqa: E402


def seeds_arg(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        took = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, correct "
                  f"{None if result is None else result['correct']}\n{done.stderr[-2000:]}")
            if result is None:
                continue
        print(f"seed {seed} ({took:.1f} s): " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        bound = bounds.get(name)
        shown = "" if bound is None else f" bound {bound:.3f} target {bound / 3:.3f}"
        if len(series) >= 2 and median(series) != 0:
            print(f"{name:<32} median {median(series):.5g} spread {spread(series):.4f}{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
