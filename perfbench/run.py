"""tropmoduli benchmark runner.

    python3 perfbench/run.py --workload enumerate|harmonic|complex|cli|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from ./src and
the test oracles from ./tests.  A run measures set-up time in fresh
interpreters, then repeats the workload's seeded batch of ops a fixed
number of times (REPETITIONS), stopping early if S seconds would be
exceeded, then checks every op's output.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it repeats the batch untraced and then
with every layer wrapped, each within S/2 seconds, reports per-layer
metrics and writes the spans of the last traced batch to
.perfbench_spans/<workload>.jsonl.

Standard output carries one detail line per workload (work counts, output
digest, traffic shares, error rate with its base, tail percentile) and then,
as the last line, the result object {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 after a completed run and 2 when the
checkout is incomplete.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"
SETUP_STARTS = 8
# Repetitions of the batch per run.  Every commit gets the same number of
# draws for each op's fastest repetition; at the baseline they take 40 to
# 50 seconds, so only a run slowed by more than about 10% reaches a
# 55-second limit and is cut short.
REPETITIONS = {"enumerate": 12, "harmonic": 40, "complex": 8, "cli": 26}
SETUP_CODE = "import tropmoduli, tropmoduli.cli; tropmoduli.cli.build_parser()"
MAX_FAILURES_LISTED = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB", "error_rate": "ratio"}
LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows_mean": "rows",
               "cols_mean": "cols", "stable_ratio": "ratio", "distinct_ratio": "ratio",
               "nonempty_ratio": "ratio", "types_found": "count", "bytes_out": "B",
               "overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name == "family.validate_family.calls":
        return "calls/op"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


@dataclass
class Rep:
    wall: float
    times: list
    digests: list
    errors: list


def setup_starts(starts: int, warm: bool = False) -> list:
    """Wall times of fresh interpreters that import the package and the CLI
    and build the parser; with ``warm``, one untimed start first writes the
    bytecode cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_batches(wl, seed, size, workdir, budget, wanted, tracer=None, keep=None,
                setup_times=None):
    """Repeat the batch ``wanted`` times, or fewer (at least once) if the
    next repetition would end after ``budget`` seconds.  Inputs are rebuilt
    for every repetition; the outputs of the first one are kept in ``keep``
    for checking.  Between repetitions, cold starts are added to
    ``setup_times`` at even intervals until it holds SETUP_STARTS of them."""
    reps, layer_runs = [], []
    start = time.perf_counter()
    while True:
        ops = wl.make_batch(seed, size, workdir)
        gc.collect()
        times, outs, errors = [], [], []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            b0 = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.begin_op(op.kind)
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # a failed op is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
                outs.append(out)
                errors.append(err)
            wall = time.perf_counter() - b0
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests = [None if err else op.digest(out) for op, out, err in zip(ops, outs, errors)]
        reps.append(Rep(wall, times, digests, errors))
        if tracer is not None:
            metrics = tracer.metrics()
            layer_runs.append((metrics, tracer.exact_counts(), tracer.traffic(metrics)))
        if keep is not None and not keep:
            keep.extend([ops, outs])
        if setup_times is not None:
            due = SETUP_STARTS * len(reps) // wanted - len(setup_times)
            if due > 0:
                setup_times += setup_starts(due)
        elapsed = time.perf_counter() - start
        if len(reps) >= wanted or elapsed + statistics.median(r.wall for r in reps) > budget:
            return reps, layer_runs


def tail(values):
    """(value, percentile, samples) at the highest percentile with at least
    ten samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return sorted(values)[i], 100.0 * (i + 1) / n, n


def run_workload(name, seed, seconds, trace, size="full", spans_path=None):
    """Run one workload; returns (detail report, result object)."""
    import workloads
    from layers import Tracer

    wl = workloads.WORKLOADS[name]
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        # the cold starts are spread over the whole run, so that one slow
        # spell of the machine does not set their median
        setup_times = setup_starts(1, warm=True)
        if wl.prepare is not None:
            wl.prepare(seed, size, workdir)
        first = []
        wanted = REPETITIONS[name]
        if trace:
            plain, _ = run_batches(wl, seed, size, workdir, seconds / 2, wanted, keep=first,
                                   setup_times=setup_times)
            tracer = Tracer()
            traced, layer_runs = run_batches(wl, seed, size, workdir, seconds / 2, wanted,
                                             tracer=tracer)
            if spans_path:
                tracer.write_spans(spans_path)
        else:
            plain, _ = run_batches(wl, seed, size, workdir, seconds, wanted, keep=first,
                                   setup_times=setup_times)
            traced, layer_runs = [], []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += setup_starts(SETUP_STARTS - len(setup_times))
        setup_s = statistics.median(setup_times)
        ops, outs = first
        problems = [[err] if err else op.check(out)
                    for op, out, err in zip(ops, outs, plain[0].errors)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    # an op fails in a repetition if it raised, if its output differs from
    # the first repetition, or if the first repetition's output failed a check
    base = plain[0]
    attempted = failed = 0
    failures = []
    for rep in plain + traced:
        for i, op in enumerate(ops):
            attempted += 1
            if rep.errors[i]:
                why = f"raised {rep.errors[i]}"
            elif rep.digests[i] != base.digests[i]:
                why = "output differs from the first repetition"
            elif problems[i]:
                why = "; ".join(problems[i])
            else:
                continue
            failed += 1
            if len(failures) < MAX_FAILURES_LISTED:
                failures.append({"op": i, "kind": op.kind, "input": op.describe, "problem": why})

    # Each op's time is its fastest repetition: a shared 2-vCPU VM switches
    # between speeds every few seconds, and medians over repetitions
    # followed the VM, not the program (see README.md).  wall_s is the sum
    # of these fastest times, not the wall time of any one repetition.
    n = len(ops)
    op_times = [min(rep.times[i] for rep in plain) for i in range(n)]
    wall_s = sum(op_times)
    completed = sum(1 for err in base.errors if err is None)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": completed / wall_s,
        "op_p50_ms": statistics.median(op_times) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
    }
    tail_at = tail(op_times)
    if tail_at is not None:
        e2e["op_tail_ms"] = tail_at[0] * 1000.0

    work = wl.work_counts(outs)
    detail = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "op": wl.op_definition,
        "ops_per_batch": n,
        "repetitions": {"wanted": wanted, "untraced": len(plain), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "error_rate": {"failed": failed, "attempted": attempted},
        "failures": failures,
        "op_tail": None if tail_at is None else {"percentile": tail_at[1],
                                                 "samples": tail_at[2]},
        "op_ms_by_kind": {kind: statistics.median(t * 1000.0 for op, t in zip(ops, op_times)
                                                  if op.kind == kind)
                          for kind in dict.fromkeys(op.kind for op in ops)},
        "batch_walls_s": [rep.wall for rep in plain],
        "setup_starts_s": setup_times,
        "work": work,
        "digest": workloads.digest_texts(d or "" for d in base.digests),
        "traffic": wl.traffic(work, ops),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }

    if trace:
        layer_metrics = {}
        for key in layer_runs[0][0]:
            values = [m[key] for m, _, _ in layer_runs]
            # times vary between repetitions; counts and ratios repeat exactly
            timed = key.endswith(".s") or key.endswith("_s")
            layer_metrics[key] = min(values) if timed else values[0]
        layer_metrics["documents.bytes_out"] = detail["work"].get("bytes_out", 0)
        traced_s = sum(min(rep.times[i] for rep in traced) for i in range(n))
        layer_metrics["trace.overhead_ratio"] = traced_s / wall_s
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer_metrics.items()}
        detail["layer_counts"] = layer_runs[0][1]
        detail["layer_counts_repeat"] = all(c == layer_runs[0][1] for _, c, _ in layer_runs)
        detail["traffic"].update(layer_runs[0][2])
        detail["spans"] = None if spans_path is None else os.path.relpath(spans_path, ROOT)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items() if k != "error_rate"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "harmonic", "complex", "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropmoduli" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} is not a tropmoduli checkout "
              "(src/tropmoduli and tests/oracles.py are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tropmoduli
    if Path(tropmoduli.__file__).resolve().parent != SRC / "tropmoduli":
        print(f"perfbench: imported tropmoduli from {tropmoduli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = ("enumerate", "harmonic", "complex", "cli") if args.workload == "all" \
        else (args.workload,)
    for name in names:
        spans_path = None
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"{name}.jsonl"
        detail, result = run_workload(name, args.seed, args.seconds, args.trace,
                                      spans_path=spans_path)
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
