"""Benchmark of mbca: cold classification, membership and warm ranking.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach|loops|words|rank \\
        --seed N --seconds S --trace 0|1

One process runs the named workload as a closed loop with one client: one op
at a time, each timed from outside mbca around a public entry point.  Every
output is checked against a computation made apart from the program.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Progress and problems go to standard error.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, unit_of

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
HASH_SEED = "0"  # peak RSS moves with the hash seed; the work done does not
OP_TIMEOUT_S = 150
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "op_geomean_ms": "ms", "peak_rss_mb": "MB",
}


# -- statistics ----------------------------------------------------------------------


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    Every run attempts at least 40 ops (``workloads.MIN_ROUNDS``); only when
    ops fail can fewer samples arrive, and then the highest one is reported.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# -- processes -------------------------------------------------------------------------


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child; return (result, child rusage).

    The result comes back pickled through a pipe; the pipe is drained before
    the child is reaped.  An exception in the child is raised here as a
    RuntimeError carrying the child's traceback.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns from here, whatever happens
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps(("ok", fn(*args)))
            except BaseException:
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(write_end, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        raise RuntimeError(f"child exited without a result (wait status {status})")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise RuntimeError(value)
    return value, usage


def _cold_op(op, mods, index, tracer):
    signal.alarm(OP_TIMEOUT_S)
    # Every child starts from the same collector state, and the pages the
    # collector's sweep copies from the parent are copied before the clock starts.
    gc.collect()
    if tracer is not None:
        tracer.reset(index)
    ms, problem = workloads.run_classify(op, mods, tracer)
    return ms, problem, tracer.export() if tracer is not None else None


def _timed_setup(workload, seed, workdir):
    start = perf_counter()
    workloads.setup(workload, seed, workdir)
    return perf_counter() - start


# -- one pass: set-up, then rounds of ops --------------------------------------------------


def run_pass(workload: str, seed: int, seconds: float, samples: int, tracer=None) -> dict:
    """Set up and run every round; return figures, failures and problems."""
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = []
        for k in range(samples - 1):  # fresh processes, so each one imports mbca again
            sample_dir = workdir / f"sample{k}"
            sample_dir.mkdir()
            setup_s.append(in_child(_timed_setup, workload, seed, sample_dir)[0])
        start = perf_counter()
        inputs = workloads.setup(workload, seed, workdir, tracer)
        setup_s.append(perf_counter() - start)
        return _run_ops(workload, seed, seconds, inputs, setup_s, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_ops(workload, seed, seconds, inputs, setup_s, tracer) -> dict:
    rng = random.Random(seed)
    ops, mods = inputs.ops, inputs.mods
    op_ms, rss_kb, problems, timed = [], [], [], []
    failed = attempted = 0
    wrong = False
    index = 0
    for _ in range(workloads.rounds(workload, seconds)):
        order = list(range(len(ops)))
        rng.shuffle(order)
        verdicts: dict = {}
        outcome = {}
        for k in order:
            op = ops[k]
            attempted += 1
            try:
                if inputs.cold:
                    (ms, problem, spans), usage = in_child(_cold_op, op, mods, index, tracer)
                    rss_kb.append(usage.ru_maxrss)
                    if spans is not None:
                        tracer.merge(spans)
                else:
                    if tracer is not None:
                        tracer.op = index
                    ms, problem = workloads.run_warm(op, mods, verdicts)
            except Exception as exc:  # a failed op is counted, and the run goes on
                failed += 1
                problems.append(f"{op.label}: {str(exc).strip().splitlines()[-1]}")
                index += 1
                continue
            op_ms.append(ms)
            timed.append((op.label, ms))
            outcome[k] = problem
            index += 1
        for k, problem in workloads.mirror_problems(ops, verdicts).items():
            outcome[k] = outcome.get(k) or problem
        for k, problem in outcome.items():
            if problem is not None:
                failed += 1
                wrong = True
                problems.append(f"{ops[k].label}: {problem}")
    if not inputs.cold:
        rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(op_ms) / 1000,
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms),
            "op_geomean_ms": geomean(op_ms),
            "peak_rss_mb": max(rss_kb) / 1024,
        },
        "ops": timed,
    }


def _traced_pass(workload, seed, seconds):
    tracer = Tracer()
    result = run_pass(workload, seed, seconds, 1, tracer)
    tracer.paused = True
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json.gz")
    result["layers"] = tracer.metrics()
    result["absent"] = tracer.absent_metrics()
    return result


# -- entry point ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not workloads.mbca_present():
        print("error: no mbca sources under src/ in this checkout", file=sys.stderr)
        return 2
    workloads.use_checkout_source()

    if args.trace:
        plain, _ = in_child(run_pass, args.workload, args.seed, args.seconds, 1)
        result, _ = in_child(_traced_pass, args.workload, args.seed, args.seconds)
        result["correct"] = result["correct"] and plain["correct"]
        result["problems"] += plain["problems"]
        figures = result.pop("layers")
        figures["trace.overhead_s"] = result["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in figures.items()}
        if result["absent"]:
            print(f"absent in this version, reported as 0: {result['absent']}", file=sys.stderr)
    else:
        result = run_pass(args.workload, args.seed, args.seconds, workloads.SETUP_SAMPLES[args.workload])
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in result["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result["ops"]))
    for line in result["problems"][:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
