#!/usr/bin/env python3
"""rankprune benchmark: one workload, one seed, a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh ``python3 perfbench/child.py`` process that calls
``rankprune.cli.main`` on inputs generated from the seed; the next one
starts after the previous one has exited. Repetitions start while they are
expected to end within ``--seconds``, and at least one always runs.

``--trace 0`` measures the end-to-end metrics on unwrapped code: only the
``trainer.train`` boundary is wrapped, two clock reads per training run.
``--trace 1``
alternates untraced and traced repetitions and reports per-layer metrics:
exact call counts, self times (span minus child spans) and the tracing
overhead. Every repetition must write the same bytes as the first one of
the invocation, traced or not, or it counts as failed.

Workloads (``workloads.py``): ``toy-s99`` (the toy benchmark, then
``analyze`` and ``plot``), ``rank-s99`` (mask updates every 10 steps),
``conv-s90`` (conv net on generated IDX files) and ``sweep`` (``sweep-lambda``
over four lambdas in two worker processes with the BLAS thread variables
unset, then ``analyze`` and ``plot``). ``sweep`` is runnable but not listed
in BENCHMARK.json: its run time is not steady, see that file.

Lines before the last one are for people: the machine, the BLAS thread
variables the workload ran with, and each metric's median, quartiles and
sample count. The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
CLOCK = spans.CLOCK
STARTED = CLOCK()
# The whole invocation has to end within 180 s.
DEADLINE_S = 165.0

SELF_S = (
    "model.forward", "model.backward", "model.build_network",
    "trainer.train", "trainer.sgd_step", "trainer.combined_gradient", "trainer.average_delta_rank",
    "rank.layer_rank_term", "rank.delta_rank", "linalg.svd",
    "sparsity.update_masks", "sparsity.global_density_split", "sparsity.prune_layer", "sparsity.grow_layer",
    "config.parse_config", "datasets.make_blobs", "datasets.load_idx_images",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "svgplot.line_chart", "svgplot.dual_axis_chart",
)
CALLS = (
    "model.forward", "model.backward", "trainer.combined_gradient", "trainer.average_delta_rank",
    "rank.layer_rank_term", "rank.delta_rank", "linalg.svd", "sparsity.update_masks",
)
COUNTED = ("model.effective", "model.sparsity")
PER_CALL = ("model.forward", "model.backward", "linalg.svd")
END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "final_avg_delta_rank": "rank",
    "final_eval_acc": "share",
    "ok_share": "share",
}


PER_LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.calls": "count" for n in CALLS + COUNTED},
    "rank.layer_rank_term.skip_ratio": "share",
    "linalg.svd.work_mnr": "count",
    "checkpoint.save_checkpoint.bytes": "B",
    "cli.sweep.child_cpu_s": "s",
    "cli.sweep.child_invol_csw": "count",
    "trainer.train.child_share": "share",
    "trace.overhead": "x",
}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a repetition's process group and wait until it is empty."""
    _kill_group(pgid)
    end = CLOCK() + timeout
    while CLOCK() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RuntimeError(f"processes of group {pgid} did not end")


def child_env(workload: workloads.Workload) -> dict[str, str]:
    env = dict(os.environ)
    for name in workloads.BLAS_THREAD_VARS + ("RANKPRUNE_THREADS",):
        env.pop(name, None)
    if workload.blas_threads is not None:
        env.update({name: workload.blas_threads for name in workloads.BLAS_THREAD_VARS})
    if workload.sweep_workers is not None:
        env["RANKPRUNE_THREADS"] = str(workload.sweep_workers)
    return env


def run_repetition(workload, commands, work: Path, index: int, traced: bool) -> dict:
    out, rep = work / "out", work / f"rep{index}"
    shutil.rmtree(out, ignore_errors=True)
    rep.mkdir()
    spec = {
        "src": str(ROOT / "src"),
        "commands": commands,
        "traced": traced,
        "trace_dir": str(rep / "trace"),
        "stdout": str(rep / "stdout.txt"),
        "result": str(rep / "result.json"),
        "blas_vars": list(workloads.BLAS_THREAD_VARS),
    }
    (rep / "spec.json").write_text(json.dumps(spec))
    with open(rep / "stderr.txt", "w") as err:
        spawned = CLOCK()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(rep / "spec.json")],
            cwd=ROOT, env=child_env(workload), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(max(0.0, STARTED + DEADLINE_S - spawned), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = CLOCK()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)

    r = {
        "traced": traced,
        "exit_code": proc.returncode,
        "problems": [],
        "digest": None,
        "run_s": ended - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode != 0:
        r["problems"].append((rep / "stderr.txt").read_text()[-2000:])
        return r
    child = json.loads((rep / "result.json").read_text())
    trees, counts = spans.read_trace_dir(rep / "trace")
    train = [s for tree in trees for s in tree if s[0] == "trainer.train"]
    try:
        r["values"], r["problems"] = workloads.check_outputs(
            workload, out, (rep / "stdout.txt").read_text().splitlines()
        )
        r["digest"] = workloads.digest(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        r["problems"].append(f"output check failed: {exc!r}")
    if not train:
        r["problems"].append("trainer.train was never entered")
        return r
    r["blas_env"] = child["blas_env"]
    r["setup_s"] = min(s[1] for s in train) - spawned
    r["steps_per_s"] = sum(s[5] for s in train) / sum(s[2] - s[1] for s in train)
    if traced:
        r["layers"], r["durations"] = layer_metrics(trees, counts, child)
    shutil.rmtree(rep)
    return r


def layer_metrics(trees, counts, child) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer values of one traced repetition, summed over its processes,
    and the per-call durations of the layers called once or more per step."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    raised: dict[str, int] = {}
    amount: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for tree in trees:
        for s, self_s in zip(tree, spans.self_times(tree)):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_s
            total[name] = total.get(name, 0.0) + (s[2] - s[1])
            raised[name] = raised.get(name, 0) + bool(s[4])
            amount[name] = amount.get(name, 0) + s[5]
            durations.setdefault(name, []).append(s[2] - s[1])
    m = {f"{n}.self_s": own.get(n, 0.0) for n in SELF_S}
    m.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    m.update({f"{n}.calls": counts.get(n, 0) for n in COUNTED})
    term_calls = calls.get("rank.layer_rank_term", 0)
    m["rank.layer_rank_term.skip_ratio"] = raised.get("rank.layer_rank_term", 0) / term_calls if term_calls else 0.0
    m["linalg.svd.work_mnr"] = amount.get("linalg.svd", 0)
    m["checkpoint.save_checkpoint.bytes"] = amount.get("checkpoint.save_checkpoint", 0)
    m["cli.sweep.child_cpu_s"] = child["child_cpu_s"]
    m["cli.sweep.child_invol_csw"] = child["child_invol_csw"]
    train_total = total.get("trainer.train", 0.0)
    m["trainer.train.child_share"] = 1.0 - own.get("trainer.train", 0.0) / train_total if train_total else 0.0
    return m, {n: durations.get(n, []) for n in PER_CALL}


def measure(workload, commands, work: Path, seconds: float, trace: bool) -> list[dict]:
    reps: list[dict] = []
    begin = CLOCK()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_repetition(workload, commands, work, len(reps), traced))
        if reps[-1]["exit_code"] != 0:
            break
        next_traced = trace and len(reps) % 2 == 1
        if trace and len(reps) < 2:
            continue
        same_kind = [r["run_s"] for r in reps if r["traced"] == next_traced]
        expected = stats.quartiles(same_kind)[1]
        now = CLOCK()
        if now - begin + expected > seconds or now + expected > STARTED + DEADLINE_S:
            break
    return reps


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = stats.quartiles(values)
    line = f"  {name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
    tail = stats.tail_percentile(values)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.6g}"
    return line


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, list[float]]:
    good = [r for r in reps if "steps_per_s" in r and not r["problems"]]
    if not good:
        return {}
    found = {k: [r[k] for r in good] for k in ("setup_s", "steps_per_s", "run_s", "peak_rss_mb")}
    found["final_avg_delta_rank"] = [good[0]["values"]["avg_delta_rank"]]
    found["final_eval_acc"] = [good[0]["values"]["eval_accuracy"]]
    found["ok_share"] = [(attempted - failed) / attempted]
    return found


def per_layer(reps: list[dict]) -> dict[str, list[float]]:
    traced = [r for r in reps if r.get("layers")]
    untraced = [r["run_s"] for r in reps if not r["traced"] and not r["problems"]]
    if not traced or not untraced:
        return {}
    found = {k: [r["layers"][k] for r in traced] for k in PER_LAYER_UNITS if k != "trace.overhead"}
    found["trace.overhead"] = [stats.quartiles([r["run_s"] for r in traced])[1] / stats.quartiles(untraced)[1]]
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rankprune benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rankprune" / "cli.py").is_file():
        print(f"error: no rankprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        commands = workloads.prepare(workload, args.seed, work / "inputs", work / "out")
        check = subprocess.run(
            [sys.executable, str(HERE / "selftest.py"), str(work)],
            cwd=ROOT, env=child_env(workload), capture_output=True, text=True, timeout=60,
        )
        if check.returncode != 0:
            print(f"error: benchmark self-test failed:\n{check.stderr}", file=sys.stderr)
            return 1
        machine = json.loads(check.stdout.splitlines()[-1])
        reps = measure(workload, commands, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed = stats.tally(reps)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name} seed {args.seed}: {attempted} runs, {failed} failed")
    print(f"  BLAS thread variables: {json.dumps(reps[0].get('blas_env'))}")
    for r in reps:
        for p in r["problems"]:
            print(f"  problem: {p}")
    if args.trace:
        units = PER_LAYER_UNITS
        found = per_layer(reps)
        for name in PER_CALL:
            calls = [d for r in reps if r.get("durations") for d in r["durations"][name]]
            if calls:
                print(describe(f"{name} per call", [d * 1e3 for d in calls], "ms"))
        for traced in (False, True):
            print(describe(f"run_s {'traced' if traced else 'untraced'}", [r["run_s"] for r in reps if r["traced"] == traced], "s"))
    else:
        units = END_TO_END_UNITS
        found = end_to_end(reps, attempted, failed)
    metrics = {}
    for name, values in found.items():
        print(describe(name, values, units[name]))
        metrics[name] = {"value": stats.quartiles(values)[1], "unit": units[name]}
    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
