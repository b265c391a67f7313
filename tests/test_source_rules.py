"""Rules on the package source: no module reads the environment or draws
random numbers from an unseeded source.

Every behaviour of rankprune is set by its config file and command-line
flags, so identical config and seed mean identical runs. A module that read
os.environ or getenv would add a setting outside both; one that built a
numpy generator without a seed, or drew from numpy's legacy global state,
would add a random source outside both.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankprune"
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}
# numpy.random's seedable constructors, and with them its seeded API
SEEDED = {"default_rng", "SeedSequence", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
SEEDED_API = SEEDED | {"Generator", "BitGenerator"}


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


def _is_numpy_random(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def unseeded_randomness(source: str) -> list[int]:
    """Line numbers of each numpy generator built without a seed (a SEEDED
    constructor called with no argument or with None first) and of each use
    of numpy's legacy global API (np.random.rand, from numpy.random import seed)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            first = [*node.args, *(k.value for k in node.keywords)][:1]
            if name in SEEDED and (not first or isinstance(first[0], ast.Constant) and first[0].value is None):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and _is_numpy_random(node.value):
            if node.attr not in SEEDED_API:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            if any(alias.name not in SEEDED_API for alias in node.names):
                lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np\nrng = np.random.default_rng()\n", [2]),
        ("import numpy as np\nseq = np.random.SeedSequence()\n", [2]),
        ("from numpy.random import PCG64\nbits = PCG64(None)\n", [2]),
        ("import numpy\nrng = numpy.random.default_rng(seed=None)\n", [2]),
        ("import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n", [2, 3]),
        ("import numpy as np\nstate = np.random.RandomState(0)\n", [2]),
        ("from numpy.random import default_rng, randint\n", [1]),
        ("import numpy as np\nrng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence([0, 1])))\n", []),
        ("import numpy as np\nrng = np.random.Generator(np.random.PCG64(seed=3))\n", []),
        ("import numpy as np\ndef draw(rng: np.random.Generator):\n    return rng.integers(0, 9)\n", []),
    ],
)
def test_rule_finds_unseeded_randomness(source, expected):
    assert unseeded_randomness(source) == expected


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_draws_only_seeded_randomness(module):
    assert unseeded_randomness((SRC / module).read_text(encoding="utf-8")) == []
