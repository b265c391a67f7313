"""The benchmark's self-test, run as the benchmark runs it.

perfbench/selftest.py checks that every function the tracer wraps still
exists, that a traced run writes the same bytes as an untraced one, and the
number of forward passes a short run makes. Running it here makes a change
to src/ that breaks one of those fail under pytest, not at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SELFTEST), str(tmp_path)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
