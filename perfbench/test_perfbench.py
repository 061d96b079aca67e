"""Checks on the benchmark itself.

From the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def inputs_bytes(workload, seed):
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return repr(WORKLOADS[workload].setup(rng, run.Tracer(False))).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs_bytes(workload, 7)
    assert inputs_bytes(workload, 7) == first
    assert inputs_bytes(workload, 8) != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_run_supports_p90(workload):
    w = WORKLOADS[workload]
    inputs = w.setup(random.Random(1), run.Tracer(False))
    assert len(w.round(inputs)) * run.MIN_ROUNDS >= 100    # ten samples beyond p90


def test_benchmark_json_names_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
