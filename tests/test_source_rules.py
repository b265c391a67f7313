"""Rules on the package source: no module reads the environment.

Every behaviour of rankprune is set by its config file and command-line
flags, so identical config and seed mean identical runs. A module that read
os.environ or getenv would add a setting outside both.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankprune"
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Line numbers of each use of an environment name in source: an attribute
    (os.environ), a bare name (getenv) or an import (from os import environ)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        if ENVIRONMENT_NAMES.intersection(names):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "source, expected",
    [
        ('import os\nn = os.environ.get("N", "1")\n', [2]),
        ('import os\nn = os.getenv("N")\n', [2]),
        ('from os import environ as env\n\nn = env["N"]\n', [1]),
        ('from os import getenv\nn = getenv("N")\n', [1, 2]),
        ('import os\nn = os.cpu_count()\n', []),
    ],
)
def test_rule_finds_environment_reads(source, expected):
    assert environment_reads(source) == expected


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_no_environment(module):
    assert environment_reads((SRC / module).read_text(encoding="utf-8")) == []
