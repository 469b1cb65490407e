"""The package as shipped: its documented example runs, importing it
pulls in no test-only code, and the benchmark under bench/ finds what it
uses of it."""

import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from trithermal.cli import main
from trithermal.model import BathSpec, DeviceConfig, SystemParams

from reference import exact_uncoupled_currents

ROOT = Path(__file__).resolve().parent.parent

#: top-level modules only the tests may import
TEST_ONLY = re.compile(r"(scipy|hypothesis|_?pytest)(\..*)?|reference|test_.*")


def test_readme_library_example_runs():
    """The README's Python example runs as written, so it cannot name a
    function the package no longer has."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme,
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Each `trithermal` line of the README's command block runs through
    cli.main and exits 0: the JSON document as device.json and, as the
    block's comment says, that document at g = 0 as device-g0.json."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    document, = re.findall(r"^```json\n(.*?)^```$", readme,
                           flags=re.MULTILINE | re.DOTALL)
    config = json.loads(document)
    (tmp_path / "device.json").write_text(json.dumps(config))
    config["system"]["g"] = 0.0
    (tmp_path / "device-g0.json").write_text(json.dumps(config))
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", readme,
                                          flags=re.MULTILINE | re.DOTALL)
             for line in block.splitlines()
             if line.startswith("trithermal ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_package_imports_no_test_only_module():
    """A fresh interpreter importing the package and its CLI loads none of
    the tests' dependencies or modules."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, trithermal, trithermal.cli; print(*sys.modules)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        check=True)
    loaded = done.stdout.split()
    assert "trithermal.cli" in loaded
    assert [name for name in loaded if TEST_ONLY.fullmatch(name)] == []


def bench_module(name, monkeypatch):
    """bench/<name>.py, imported as the module bench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_finds_what_it_uses_of_the_package(monkeypatch):
    """bench/ imports the g = 0 oracle, which no command calls, and patches
    CurrentReport.csv_row, which nothing under src/ calls: the oracle's
    currents come out of the names bench/workloads.py imports, and the
    tracer installs and restores its wrappers."""
    workloads = bench_module("workloads", monkeypatch)
    config = DeviceConfig(SystemParams(1.0, 0.8, 0.0),
                          (BathSpec("h", 1.0, 0.008, 50.0),
                           BathSpec("c", 0.85, 0.008, 50.0),
                           BathSpec("w", 4.0, 0.008, 50.0)))
    report = workloads.uncoupled_currents(
        config, workloads.analytic_diagonal_steady_state(config))
    currents = (report.j_h, report.j_c, report.j_w)
    for value, exact in zip(currents, exact_uncoupled_currents(config)):
        assert math.isclose(value, exact, rel_tol=1e-12)
    tracer = bench_module("tracer", monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        tracer.close()
