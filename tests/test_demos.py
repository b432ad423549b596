"""Every narrative script in demos/, and README's library quickstart, runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(cwd, *args):
    """``python *args`` in ``cwd`` with the source tree on the path, as a user would run it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(tmp_path, demo):
    proc = run_python(tmp_path, str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart_runs(tmp_path):
    # the first python block after the heading, run as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quickstart (library)\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python(tmp_path, "-c", block)
    assert proc.returncode == 0, proc.stderr
    tight, gap = proc.stdout.splitlines()[0].split()
    assert tight == "True" and 0.0 <= float(gap) <= 1e-9
    assert proc.stdout.splitlines()[-1] == "SrgParameters(n=10, k=3, a=0, c=1)"
