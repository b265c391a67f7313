"""Two-stage sparse training: gradual prune-and-grow, then fixed-mask finetune.

Stage 1 walks the sparsity schedule. At every mask-update step the gradient of
the combined objective (task loss plus lambda times the per-layer rank loss)
is computed once and used both to regrow connections and to update weights;
on all other steps only the task loss trains the active weights, which keeps
the spectrum cost amortized over the update interval. Stage 2 freezes the masks and
finetunes.

Batch selection is stateless: step t's indices are the draw of a generator
seeded by (seed, t), made DRAW_BLOCK steps at a time, so resuming from a
checkpoint is bitwise identical to never having stopped.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import model, rank, sparsity
from .linalg import frobenius_norm
from .model import Batch, Network, accuracy, backward, forward, loss_and_dout
from .rank import DegenerateSpectrumError, DegenerateWeightError, RankLossConfig
from .sparsity import GrowSchedule, ScheduleError, SparsitySchedule

__all__ = [
    "DivergenceError",
    "TrainConfig",
    "OptimizerState",
    "MetricsRecord",
    "TrainResult",
    "combined_gradient",
    "sgd_step",
    "train",
    "average_delta_rank",
]


class DivergenceError(ValueError):
    """A training step's task loss is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    schedule: SparsitySchedule
    grow: GrowSchedule
    rank_cfg: RankLossConfig
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    seed: int = 0
    cosine_lr: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0,1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.schedule.prune_steps % self.schedule.update_interval != 0:
            # final sparsity is only reached at an update step; an indivisible
            # pair would silently end the ramp short of the target
            raise ScheduleError(
                f"prune_steps {self.schedule.prune_steps} must be a multiple of "
                f"update_interval {self.schedule.update_interval}"
            )


@dataclass
class OptimizerState:
    """Momentum buffers, one per weight/bias tensor."""

    weight_buffers: list[np.ndarray]
    bias_buffers: list[np.ndarray]

    @classmethod
    def zeros_like(cls, net: Network) -> "OptimizerState":
        return cls(
            weight_buffers=[np.zeros_like(l.params.weight) for l in net.layers],
            bias_buffers=[np.zeros_like(l.bias) for l in net.layers],
        )

    def mask_pruned(self, net: Network) -> None:
        """Zero buffers at masked positions so regrown weights restart cold."""
        for buf, layer in zip(self.weight_buffers, net.layers):
            buf *= layer.params.mask


@dataclass(slots=True)
class MetricsRecord:
    """One metrics.csv row.

    task_loss and train_acc come from the step's batch before its update. The
    rank metrics and eval_acc, filled at update-interval steps and the last
    step, describe the network after the step: the state the checkpoint holds.
    """

    step: int
    sparsity: float
    task_loss: float
    rank_loss: float | None
    avg_delta_rank: float | None
    train_acc: float
    eval_acc: float | None

    CSV_FIELDS: ClassVar[tuple[str, ...]]  # the field names, set below the class
    CSV_HEADER: ClassVar[str]

    def csv_row(self) -> str:
        return ",".join(["" if (v := getattr(self, name)) is None else repr(v) for name in self.CSV_FIELDS])


MetricsRecord.CSV_FIELDS = tuple(f.name for f in fields(MetricsRecord))
MetricsRecord.CSV_HEADER = ",".join(MetricsRecord.CSV_FIELDS)


@dataclass
class TrainResult:
    net: Network
    metrics: list[MetricsRecord]  # or the object passed to train as metrics
    optimizer: OptimizerState
    final_step: int


# steps whose batch indices are drawn together
DRAW_BLOCK = 100
# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashes(const: int, mult: int):
    """(xor, multiplier) of SeedSequence's successive hashes: each xors the
    constant in, advances it by mult and multiplies by the new constant."""
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield const, nxt
        const = nxt


def _hash(words: np.ndarray, hashes) -> np.ndarray:
    xor, mul = next(hashes)
    words = (words ^ xor) * mul
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _draw_block(seed: int, first: int, count: int, n: int, batch_size: int) -> np.ndarray:
    """(count, batch_size) with-replacement draws; row i is step first+i's,
    Generator(PCG64(SeedSequence([seed, 1, first + i]))).integers(0, n,
    batch_size), so each step's batch depends on (seed, step) alone.

    SeedSequence's pool (4 words) and its generate_state(4, uint64) run on
    uint32 arrays over the block's steps, which must each fit one uint32;
    PCG64's seeding runs on Python ints and one reused PCG64 takes each
    step's state. Drawing a block in one loop saves the per-step
    constructors, which run cold between a step's numpy work."""
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)] + [1]
    entropy = [np.full(count, w, np.uint32) for w in words] + [np.arange(first, first + count, dtype=np.uint32)]
    hashes = _hashes(_INIT_A, _MULT_A)
    pool = [_hash(w, hashes) for w in (entropy + [np.zeros(count, np.uint32)])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], hashes))
    for extra, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hash(extra, hashes))
    hashes = _hashes(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % 4], hashes) for i in range(8)], axis=1).astype("<u4").view("<u8")
    bits = np.random.PCG64(0)  # every draw sets its state first
    gen = np.random.Generator(bits)
    out = np.empty((count, batch_size), np.int64)
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, state.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        bits.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        row[:] = gen.integers(0, n, size=batch_size)
    return out


def combined_gradient(net: Network, batch: Batch, rank_cfg: RankLossConfig):
    """Dense gradients of task loss + lambda * sum of layer rank losses.

    Returns a list of (dweight, dbias) per layer, with lambda times the rank
    term added into the task's dweight in place, mapped back through the conv
    reshape.
    Layers whose weight is degenerate (near-zero norm, tied spectrum at the
    truncation boundary, or rank bound 1) contribute task gradient only, and
    are logged on this module's logger; logging is imported only then.
    """
    logits, cache = forward(net, batch)
    dout = loss_and_dout(logits, batch.labels)[1]
    del logits  # each array goes once read, the logits before backward allocates
    grads = backward(net, cache, dout)  # which empties the cache
    del cache, dout  # before the rank terms
    lam = rank_cfg.lam
    if lam == 0.0:
        return grads
    for idx, layer in enumerate(net.layers):
        try:
            term = rank.layer_rank_term(model.reshape_to_matrix(layer), rank_cfg)
        except (DegenerateWeightError, DegenerateSpectrumError) as exc:
            import logging

            logging.getLogger(__name__).info("rank term skipped for %s: %s", layer.name, exc)
            continue
        dw = grads[idx][0]
        dw += lam * term.gradient.reshape(dw.shape)
    return grads


def sgd_step(net: Network, grads, opt: OptimizerState, lr: float, momentum: float, weight_decay: float) -> None:
    """Momentum SGD with weight decay on active weights and biases.

    Masked positions receive no update and their stored values stay zero.
    Weights, biases and momentum buffers are updated in place; each weight and
    each bias update allocates one temporary.
    """
    for layer, (dw, db), wbuf, bbuf in zip(net.layers, grads, opt.weight_buffers, opt.bias_buffers):
        w = layer.params.weight  # "w -= ..." on the attribute would call its setter, a copy
        g = np.multiply(w, weight_decay)
        g += dw
        g *= layer.params.mask
        wbuf *= momentum
        wbuf += g
        w -= np.multiply(wbuf, lr, out=g)
        gb = np.multiply(layer.bias, weight_decay)
        gb += db
        bbuf *= momentum
        bbuf += gb
        layer.bias -= np.multiply(bbuf, lr, out=gb)
    net.touch()


def average_delta_rank(net: Network, delta: float, rank_cfg: RankLossConfig | None = None) -> tuple[float, float]:
    """(mean delta-rank, summed rank loss) of the effective weight matrices
    over all prunable layers, from one eigvalsh of each layer's Gram.

    The loss is 0.0 without rank_cfg; layers whose rank loss is undefined add
    nothing to it.
    """
    total = 0.0
    ranks = []
    for layer in net.layers:
        _, drank, loss = rank.layer_spectrum(model.reshape_to_matrix(layer), delta, rank_cfg)
        if loss is not None:
            total += loss
        ranks.append(drank)
    return float(np.mean(ranks)), total


def _divergence(net: Network, cache, step: int, loss: float) -> DivergenceError:
    """The error for a non-finite loss: it names the step and the first layer
    whose weights or activations are not finite."""
    for layer, out in zip(net.layers, cache["steps"]):
        for what, values in (("weights", layer.params.weight), ("activations", out["pre"])):
            if not np.all(np.isfinite(values)):
                return DivergenceError(
                    f"step {step}: task loss is {loss}; the {what} of layer {layer.name} are not finite"
                )
    return DivergenceError(f"step {step}: task loss is {loss}; every weight and activation is finite")


def _check_weight_norms(net: Network, step: int) -> None:
    """Raise DivergenceError naming the first layer whose weight norm is not
    finite: finite weights can still overflow the norm the rank metrics divide by."""
    for layer in net.layers:
        with np.errstate(over="ignore"):
            norm = frobenius_norm(layer.params.weight)
        if not np.isfinite(norm):
            raise DivergenceError(f"step {step}: the weight norm of layer {layer.name} is {norm}")


def _evaluate(net: Network, inputs: np.ndarray, labels: np.ndarray, batch_size: int) -> float:
    """Accuracy on the eval set, NaN if it is empty.

    The set runs in slices of batch_size rows, so no eval forward is wider than
    a training one: a conv layer's patch matrix and the cached activations grow
    with the rows, and a whole-set forward would set the run's peak memory.
    The hits are counted over the slices and divided once, the same double as
    the mean over all rows.
    """
    if len(labels) == 0:
        return float("nan")
    hits = 0
    for lo in range(0, len(labels), batch_size):
        rows = slice(lo, lo + batch_size)
        logits = forward(net, Batch(inputs[rows], labels[rows]))[0]  # the cache goes before the next slice
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == labels[rows]))
    return hits / len(labels)


# glibc's mallopt parameters; the value both are fixed at while train runs,
# the ceiling of glibc's own dynamic mmap threshold; and glibc's default trim
# threshold, which holds again after train
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_THRESHOLD = 32 << 20
_DEFAULT_TRIM_THRESHOLD = 128 << 10


def _libc():
    """The C library this process runs on, with the signatures of its malloc
    tuning calls declared where it has them; None where ctypes cannot open it."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    for name, argtypes in (("mallopt", [ctypes.c_int, ctypes.c_int]), ("malloc_trim", [ctypes.c_size_t])):
        call = getattr(libc, name, None)
        if call is not None:
            call.argtypes, call.restype = argtypes, ctypes.c_int
    return libc


def _blas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles in numpy.libs, with their signatures declared; None where numpy
    bundles no such library or ctypes cannot open it."""
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
        blas = ctypes.CDLL(os.path.join(libs, name))
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _steady_heap():
    """Keep the memory a training step frees for the next step and run BLAS
    on one thread; hand the free heap back to the system and restore the
    BLAS thread count when the block ends, however it ends.

    glibc moves its mmap threshold with the sizes it frees and returns the
    free top of the heap to the system, so a step's arrays would be unmapped
    and faulted back in at every step. Both thresholds are fixed instead.
    The mmap threshold stays fixed for the rest of the process, as glibc has
    no way back to its moving one; the trim threshold goes back to glibc's
    default when the block ends, so later work hands its free heap top
    back as it would under glibc's defaults. The trim threshold is set only where the mmap threshold took:
    set alone, it would freeze the mmap threshold at its 128 KiB start. A C
    library without mallopt or malloc_trim runs as it is.

    OpenBLAS splits a product or a decomposition over its threads, and the
    split changes the order of its sums, so the last bits of a run would
    depend on the thread count the environment sets. One thread makes them
    the same under any count. Where _blas finds no library, BLAS runs at the
    count the environment sets.
    """
    libc = _libc()
    mallopt = getattr(libc, "mallopt", None)
    pinned = mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) == 1
    if pinned:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)
    get_threads, set_threads = _blas() or (None, None)
    if set_threads is not None:
        threads = get_threads()
        set_threads(1)
    try:
        yield
    finally:
        trim = getattr(libc, "malloc_trim", None)
        if trim is not None:
            trim(0)
        if pinned:
            mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM_THRESHOLD)
        if set_threads is not None:
            set_threads(threads)


@_steady_heap()
def train(
    net: Network,
    dataset,
    cfg: TrainConfig,
    start_step: int = 0,
    optimizer: OptimizerState | None = None,
    stop_after: int | None = None,
    delta: float = rank.DEFAULT_DELTA,
    metrics=None,
) -> TrainResult:
    """Run steps start_step+1 .. total_steps (or stop_after) of the schedule.

    dataset provides train_x/train_y/eval_x/eval_y arrays. One MetricsRecord,
    with delta-ranks at tolerance delta, is appended per step to metrics: a
    new list, or any object with an append method that the caller passes.
    The result's metrics is that object. Schedule
    problems raise, they are never clamped away, and a delta that is not
    positive raises before the first step; a non-finite task loss
    raises DivergenceError before the step updates anything, and a weight
    norm that overflows raises it at the next step that records rank metrics.

    A mask step drops its forward cache before combined_gradient runs its
    own forward and backward, so no backward runs beside a second cache; a
    plain step's cache is emptied by its own backward; and every step drops
    its gradients after sgd_step, so neither the eval nor the next forward
    runs beside a finished step's cache or gradients. That leaves the top
    of the heap free between steps, and train runs on _steady_heap so that
    the next forward reuses it: under glibc's default thresholds it goes
    back to the system and is faulted back in, which cut conv-s90 from 278
    to 191 steps/s. The mmap threshold stays fixed for the rest of the
    process; the bytes are the same either way. _steady_heap also runs
    BLAS on one thread, so the bytes do not depend on the thread count the
    environment sets, and restores that count when train returns or raises.
    """
    sched = cfg.schedule
    opt = optimizer if optimizer is not None else OptimizerState.zeros_like(net)
    n = dataset.train_x.shape[0]
    if n < 1:
        raise ValueError("dataset is empty")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    last = sched.total_steps if stop_after is None else min(stop_after, sched.total_steps)
    if metrics is None:
        metrics = []
    step = start_step
    sparsity_now = net.sparsity()  # masks change only in update_masks
    for step in range(start_step + 1, last + 1):
        row = (step - start_step - 1) % DRAW_BLOCK
        if row == 0:
            block = _draw_block(cfg.seed, step, min(DRAW_BLOCK, last + 1 - step), n, cfg.batch_size)
        idx = block[row]
        batch = Batch(dataset.train_x[idx], dataset.train_y[idx])
        lr = cfg.learning_rate
        if cfg.cosine_lr:
            lr = lr * 0.5 * (1.0 + np.cos(np.pi * step / sched.total_steps))

        update_step = step % sched.update_interval == 0
        mask_step = update_step and step <= sched.prune_steps
        logits, cache = forward(net, batch)
        loss, dout = loss_and_dout(logits, batch.labels)
        if not math.isfinite(loss):
            raise _divergence(net, cache, step, loss)
        acc = accuracy(logits, batch.labels)
        if mask_step:
            del cache  # combined_gradient runs its own forward and backward
            grads = combined_gradient(net, batch, cfg.rank_cfg)
            sparsity.update_masks(net, [dw for dw, _ in grads], sched, cfg.grow, step)
            opt.mask_pruned(net)
            sparsity_now = net.sparsity()
        else:
            grads = backward(net, cache, dout)  # which empties the cache
        sgd_step(net, grads, opt, lr, cfg.momentum, cfg.weight_decay)
        del grads  # the eval and the next step run without them

        rank_loss = avg_rank = eval_acc = None
        if update_step or step == sched.total_steps:
            _check_weight_norms(net, step)
            avg_rank, rank_loss = average_delta_rank(net, delta, cfg.rank_cfg)
            eval_acc = _evaluate(net, dataset.eval_x, dataset.eval_y, cfg.batch_size)
        metrics.append(
            MetricsRecord(
                step=step,
                sparsity=sparsity_now,
                task_loss=loss,
                rank_loss=rank_loss,
                avg_delta_rank=avg_rank,
                train_acc=acc,
                eval_acc=eval_acc,
            )
        )
    return TrainResult(net=net, metrics=metrics, optimizer=opt, final_step=step)
