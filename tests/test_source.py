"""Checks on the package's source text, with the standard library only."""

import ast
from pathlib import Path

import pytest

import mdg

MODULES = sorted(Path(mdg.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that a top-level import binds and the module never reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_a_planted_unused_import():
    source = "import json\nimport numpy as np\nfrom . import graphs, groups\n" \
             "x = np.zeros(graphs.N)\n"
    assert unused_imports(source) == ["json", "groups"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_has_an_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
