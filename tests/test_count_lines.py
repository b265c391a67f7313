"""scripts/count_lines.py's code-line rule, the count ROADMAP aim 2 tracks."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


@pytest.mark.parametrize(
    "source, expected",
    [
        # module, class and function docstrings, one- and multi-line
        ('''
        """Module
        docstring."""
        class A:
            """Class docstring."""
            def f(self):
                """Function
                docstring."""
                return 1
        async def g():
            """Coroutine docstring."""
        ''', 4),
        # comments and blank lines
        ("""
        # a comment

        x = 1  # trailing comment
            # indented comment
        """, 1),
        # a statement over several lines counts each of its lines
        ('''
        total = sum(
            [1,
             2],
        )
        text = """a
        b"""
        ''', 6),
        # a string that is not the first statement of its body is code
        ('''
        x = 1
        """not a docstring"""
        def f():
            y = 2
            "not a docstring either"
        ''', 5),
    ],
)
def test_code_lines(source, expected):
    assert count_lines.code_lines(textwrap.dedent(source)) == expected
