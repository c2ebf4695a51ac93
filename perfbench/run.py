"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sha_2workers --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its layer table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything else (machine record, every check, the counter
cross-check, the layer table and, when traced, the spans) is written to
``.perfbench/results/``.  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: BLAS runs one thread per process, set before numpy loads.  Unpinned,
#: OpenBLAS starts a spinning thread per core in the parent and in each
#: pool worker, so two workers ask for twice the cores of a two-core
#: machine and every timing follows the machine's other load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'repro'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {src}")
    return repro


def print_table(table) -> None:
    from harness.layers import LAYERS, WORKER_SIDE

    wall = table["wall_s"]
    print(
        f"layer table: {table['threads']} thread(s) x {table['window_s']:.3f} s window "
        f"= {wall:.3f} s"
    )
    for layer in LAYERS:
        value = table["rows"].get(layer, 0.0)
        pooled = table["worker_side_untraced"] and layer in WORKER_SIDE
        note = "  (pool workers not traced)" if pooled else ""
        print(f"  {layer:<18} {value:10.4f} s {100 * value / wall:6.2f} %{note}")
    print(f"  {'other':<18} {table['other_s']:10.4f} s {100 * table['other_s'] / wall:6.2f} %")
    print(
        f"  {'sum':<18} {table['sum_s']:10.4f} s  (error {100 * table['sum_error']:.4f} %, "
        f"tolerance {100 * table['tolerance']:.1f} %)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    os.environ.update(BLAS_THREADS)
    import_program(root)
    sys.path.insert(0, str(HERE))
    from harness.layers import PER_LAYER
    from harness.machine import machine_record
    from harness.workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / ".perfbench"
    workdir = out_dir / "work" / run_name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    machine = machine_record(root, args.seed)
    print("machine: " + json.dumps(machine, sort_keys=True))

    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, units = outcome.layer_metrics, PER_LAYER
    else:
        values, units = outcome.end_to_end(), END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    correct = all(outcome.checks.values())
    error_rate = outcome.failed / outcome.attempted

    for name, ok in outcome.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (ours, theirs) in outcome.crosscheck.items():
        flag = "agree   " if ours == theirs else "MISMATCH"
        print(f"counter {flag} {name}: {ours:g} vs {theirs:g}")
    print(f"error_rate: {error_rate:.6f} ({outcome.failed}/{outcome.attempted} failed)")
    if "job_tail" in outcome.notes:
        tail = outcome.notes["job_tail"]
        print(f"job_tail_s is p{tail['percentile']:.1f} of {tail['samples']} jobs")
    if "inputs" in outcome.notes:
        print(f"inputs: {outcome.notes['inputs']}")
    if outcome.layer_table is not None:
        print_table(outcome.layer_table)
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:.6g} {metric['unit']}")

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "metrics": metrics,
        "checks": outcome.checks,
        "crosscheck": {k: list(v) for k, v in outcome.crosscheck.items()},
        "layer_table": outcome.layer_table,
        "jobs": [vars(job) for job in outcome.jobs],
        "setups": outcome.setups,
        "notes": outcome.notes,
    }
    (results / f"{run_name}.json").write_text(json.dumps(record, indent=2, default=str))
    if outcome.spans is not None:
        with open(results / f"{run_name}-spans.jsonl", "w") as handle:
            for span in outcome.spans:
                handle.write(json.dumps(span) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
