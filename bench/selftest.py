"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest bench/selftest.py

Counts from a traced run, and the items attempted and failed, depend on the
inputs alone, so two runs with one seed must report identical counts whatever
the host's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = ("calls_per_item", "errors", "bytes_out_per_item")


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def traced(workload, seed=3):
    # long enough that the traced half runs past the counted requests
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "4", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def exact_counts(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.endswith(EXACT)}


@pytest.mark.parametrize("workload", ["sweep", "phase_map", "operating_points"])
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = traced(workload), traced(workload)
    assert first["correct"] and second["correct"]
    assert exact_counts(first) == exact_counts(second)
    # every run checks the whole pool, whatever the loop reached in time
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])
    if workload == "sweep":
        calls = first["metrics"]["analysis.currents_at.calls_per_item"]
        assert calls["value"] == 1.0


def test_untraced_run_reports_every_end_to_end_metric():
    done = bench("--workload", "operating_points", "--seed", "5",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert result["correct"] and result["attempted"] >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
