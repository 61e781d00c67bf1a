"""Each demo runs to completion and prints exactly its recorded stdout."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / f"demo-{demo.removesuffix('.py')}.txt").read_text()


def test_readme_library_tour_runs():
    """The README's library tour, its one fenced python block, runs as
    written at n = 2."""
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    assert "TensorGroup(2)" in block
    exec(compile(block, "README.md", "exec"), {})
