"""Self-test of the benchmark's own arithmetic and wrapping; prints the machine record.

Usage: ``python3 perfbench/selftest.py [WORK_DIR]``, where WORK_DIR (default
``.perfbench-work`` in the checkout) receives its scratch files. It exits
non-zero on the first failed check. ``run.py`` runs it before every
measurement, in a fresh process that also warms the byte-code cache, and
reads the machine record from its last line of output.
"""

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import stats  # noqa: E402


def check_self_times():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [12, 13] is a second tree.
    tree = [
        ["a", 0.0, 10.0, -1, False, 0],
        ["b", 1.0, 4.0, 0, False, 0],
        ["c", 5.0, 9.0, 0, False, 0],
        ["d", 6.0, 7.0, 2, False, 0],
        ["e", 12.0, 13.0, -1, False, 0],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0, 1.0], spans.self_times(tree)


def check_stats():
    values = [float(v) for v in range(1, 21)]
    # statistics.quantiles' default "exclusive" method on 1..20: positions (n+1)p.
    assert stats.quartiles(values) == (5.25, 10.5, 15.75), stats.quartiles(values)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    # 20 samples: p90 has 2 beyond it, p50 has 10, so p50 is the highest reportable.
    assert stats.tail_percentile(values) == (50.0, 10.0), stats.tail_percentile(values)
    many = [float(v) for v in range(1, 1001)]
    assert stats.tail_percentile(many) == (99.0, 990.0), stats.tail_percentile(many)
    assert stats.tail_percentile(values[:15]) is None


def check_tally():
    ok = {"exit_code": 0, "problems": [], "digest": "x"}
    reps = [
        ok,
        dict(ok),
        dict(ok, exit_code=1),
        dict(ok, digest="y"),
        dict(ok, problems=["bad summary"]),
    ]
    assert stats.tally(reps) == (5, 3), stats.tally(reps)
    assert stats.tally([ok, ok]) == (2, 0)


def _layer_functions():
    found = {}
    for name, module, attr, _ in (spans.BOUNDARY,) + spans.LAYER_SPANS:
        owner = sys.modules[module]
        found[name] = (owner, attr)
    for name, module, cls, attr in spans.LAYER_COUNTS:
        found[name] = (getattr(sys.modules[module], cls), attr)
    return found


def check_wrapping(work):
    import rankprune.cli  # noqa: F401  (loads every module the tracer patches)

    functions = _layer_functions()
    originals = {name: getattr(owner, attr) for name, (owner, attr) in functions.items()}

    def wrapped():
        return {name for name, (owner, attr) in functions.items() if getattr(owner, attr) is not originals[name]}

    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tracer = spans.Tracer(tmp)
        tracer.install(traced=False)
        assert wrapped() == {"trainer.train"}, wrapped()
        tracer.uninstall()
        assert wrapped() == set(), wrapped()
        tracer.install(traced=True)
        assert wrapped() == set(functions), set(functions) - wrapped()
        tracer.uninstall()
        assert wrapped() == set(), wrapped()


def check_traced_training(work):
    """A traced run writes the same bytes as an untraced one, and train's children add up."""
    from rankprune import cli

    text = """[model]\ninput = 8\nlayers = dense:16\nclasses = 3\n
[dataset]\nkind = synthetic\nfeatures = 8\nsamples_per_class = 20\nseed = 1\n
[train]\nfinal_sparsity = 0.8\nprune_steps = 40\nupdate_interval = 10\ntotal_steps = 50\nlambda = 0.1\n"""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        (tmp / "c.cfg").write_text(text)
        outputs = []
        for traced in (False, True):
            tracer = spans.Tracer(tmp / f"trace-{traced}")
            tracer.install(traced=traced)
            try:
                with open(os.devnull, "w") as null:
                    stdout, sys.stdout = sys.stdout, null
                    try:
                        code = cli.main(["train", "--config", str(tmp / "c.cfg"), "--out", str(tmp / "out")])
                    finally:
                        sys.stdout = stdout
            finally:
                tracer.uninstall()
            assert code == 0
            outputs.append([(tmp / "out" / n).read_bytes() for n in ("metrics.csv", "checkpoint.bin")])
        assert outputs[0] == outputs[1], "traced run changed metrics.csv or checkpoint.bin"
        trees, counts = spans.read_trace_dir(tmp / "trace-True")
        train = [(tree, i) for tree in trees for i, s in enumerate(tree) if s[0] == "trainer.train"]
        assert len(train) == 1
        tree, i = train[0]
        own = spans.self_times(tree)
        inside = sum(o for j, o in enumerate(own) if _descends(tree, j, i))
        span = tree[i][2] - tree[i][1]
        assert abs(inside - span) < 1e-9, (inside, span)
        assert tree[i][5] == 50 and counts["model.effective"] > 0
        calls = sum(1 for s in tree if s[0] == "model.forward")
        assert calls == 50 + 4 + 5, calls  # every step, again at 4 mask steps, eval at 5 records
        untraced, _ = spans.read_trace_dir(tmp / "trace-False")
        assert [s[0] for tree in untraced for s in tree] == ["trainer.train"]


def _descends(tree, j, root):
    while j >= 0:
        if j == root:
            return True
        j = tree[j][3]
    return False


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    work = Path(argv[0]) if argv else ROOT / ".perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    check_self_times()
    check_stats()
    check_tally()
    check_wrapping(work)
    check_traced_training(work)
    print(json.dumps(machine()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
