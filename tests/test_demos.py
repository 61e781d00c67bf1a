"""Each demo runs to completion and prints its key results."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


KEY_LINES = {
    "01_group_structure.py": ["derived == center: True", "mixed-dihedral: True"],
    "02_graphs_and_cover.py": ["clique graph == coset graph: True",
                               "quotient is complete bipartite: (4, 4)"],
    "03_symmetry.py": ["generated symmetry order: 18432 == formula: True",
                       "Cayley graph transitivity: {'vertex': True, 'edge': True, 'arc': True, "
                       "'2-arc': False, '2-geodesic': True, '1-distance': True, "
                       "'2-distance': True, '3-distance': False}",
                       "coset graph 2-arc-transitive: True"],
}


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    out = r.stdout.splitlines()
    for line in KEY_LINES[demo]:
        assert line in out
