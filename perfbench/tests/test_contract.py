"""The metric names and units the command prints agree with BENCHMARK.json."""

import json
import re
import subprocess
import sys

from conftest import BENCH, ROOT
from harness.layers import PER_LAYER
from harness.workloads import END_TO_END, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_name_matches_the_pattern_and_is_unique():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names + list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert NAME.fullmatch(name), name


def test_pattern_rejects_bad_names():
    for bad in ("", "_lead", "has space", "slash/name", "x" * 65, "ünïcode"):
        assert not NAME.fullmatch(bad)


def test_spec_lists_exactly_the_metrics_the_command_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(UNIT.fullmatch(unit) for unit in list(END_TO_END.values()) + list(PER_LAYER.values()))
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_command_fails_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sha_2workers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
