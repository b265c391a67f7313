"""Span recording around rankprune's public functions, from outside the package.

Each wrapper is installed where the caller looks the function up (for
example ``rankprune.trainer.forward``, the name ``train`` calls), so the
package's own code runs unchanged. A span is ``[name, start, end, parent,
raised, amount]``: start and end come from ``time.monotonic`` (one clock for
every process on the machine), parent is the index of the enclosing span in
the same process or -1, raised says the call ended in an exception, and
amount is a per-call quantity such as steps trained or bytes written.

Spans stay in memory while a call tree is open. When a process's outermost
span closes, the finished tree is appended as one JSON line to
``<trace_dir>/<pid>.jsonl``. That also covers forked pool workers, which are
killed without running exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

CLOCK = time.monotonic


def _steps(args, kwargs, result):
    return len(result.metrics)


def _svd_work(args, kwargs, result):
    m, n = args[0].shape
    return m * n * min(m, n)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (metric name, module where the caller looks it up, attribute, amount hook)
BOUNDARY = ("trainer.train", "rankprune.trainer", "train", _steps)
LAYER_SPANS = (
    ("config.parse_config", "rankprune.cli", "parse_config", None),
    ("datasets.make_blobs", "rankprune.datasets", "make_blobs", None),
    ("datasets.load_idx_images", "rankprune.datasets", "load_idx_images", None),
    ("model.build_network", "rankprune.model", "build_network", None),
    ("model.forward", "rankprune.trainer", "forward", None),
    ("model.backward", "rankprune.trainer", "backward", None),
    ("trainer.combined_gradient", "rankprune.trainer", "combined_gradient", None),
    ("trainer.sgd_step", "rankprune.trainer", "sgd_step", None),
    ("trainer.average_delta_rank", "rankprune.trainer", "average_delta_rank", None),
    ("rank.layer_rank_term", "rankprune.rank", "layer_rank_term", None),
    ("rank.delta_rank", "rankprune.rank", "delta_rank", None),
    ("linalg.svd", "rankprune.rank", "svd", _svd_work),
    ("sparsity.update_masks", "rankprune.sparsity", "update_masks", None),
    ("sparsity.global_density_split", "rankprune.sparsity", "global_density_split", None),
    ("sparsity.prune_layer", "rankprune.sparsity", "prune_layer", None),
    ("sparsity.grow_layer", "rankprune.sparsity", "grow_layer", None),
    ("checkpoint.save_checkpoint", "rankprune.checkpoint", "save_checkpoint", _file_bytes),
    ("checkpoint.load_checkpoint", "rankprune.checkpoint", "load_checkpoint", None),
    ("svgplot.line_chart", "rankprune.svgplot", "line_chart", None),
    ("svgplot.dual_axis_chart", "rankprune.svgplot", "dual_axis_chart", None),
)
# Called several times per step: counted, not timed, to keep the overhead low.
# (metric name, module, class, method)
LAYER_COUNTS = (
    ("model.effective", "rankprune.model", "MaskedTensor", "effective"),
    ("model.sparsity", "rankprune.model", "Network", "sparsity"),
)


class Tracer:
    """Installs span wrappers and writes finished call trees to a directory.

    ``install(traced=False)`` wraps only ``trainer.train``, the boundary
    that set-up time and steps/s are measured from; ``traced=True`` also
    wraps every layer in LAYER_SPANS and LAYER_COUNTS. ``uninstall`` puts
    back the original objects.
    """

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self._saved: list[tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def install(self, traced: bool) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        specs = (BOUNDARY,) + (LAYER_SPANS if traced else ())
        for name, module, attr, amount in specs:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._span(name, getattr(owner, attr), amount))
        if traced:
            for name, module, cls, attr in LAYER_COUNTS:
                owner = getattr(importlib.import_module(module), cls)
                self._patch(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn, amount):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = CLOCK()
                rec[4] = True
                tracer._close()
                raise
            rec[2] = CLOCK()
            if amount is not None:
                rec[5] = amount(args, kwargs, result)
            tracer._close()
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _close(self) -> None:
        self.stack.pop()
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        """Append this process's finished spans and counts as one line, then drop them."""
        if self.stack or not (self.spans or self.counts):
            return
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as f:
            f.write(line + "\n")
        self._reset()


def read_trace_dir(trace_dir) -> tuple[list[list], dict[str, int]]:
    """All spans and summed counts written under trace_dir, one tree list per line."""
    trees: list[list] = []
    counts: dict[str, int] = {}
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            chunk = json.loads(line)
            trees.append(chunk["spans"])
            for name, n in chunk["counts"].items():
                counts[name] = counts.get(name, 0) + n
    return trees, counts


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
