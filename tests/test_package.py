"""The package as shipped: its documented example runs, and importing it
pulls in no test-only code."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
