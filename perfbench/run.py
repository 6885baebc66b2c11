"""tanhspec benchmark: one command, four workloads, oracles, optional trace.

    python3 perfbench/run.py --workload fast_expand --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The line before it holds the details
(environment, tail percentile, fail fraction, known defects, oracle
messages).  Both are also written to .perfbench_out/.
"""

import time

_T0 = time.perf_counter()  # workload process start, as far as Python can see it

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fast_expand", "quad_eval", "solve_ft", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes (self-test)")
    p.add_argument("--corrupt", type=int, default=0,
                   help="corrupt every K-th output before its oracle (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def src_digest():
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(SRC, "tanhspec")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args, nproc):
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(REPO, ".git")):  # a plain checkout has no commit
        try:
            commit = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": ("wall-clock figures from a machine shared with other jobs; "
                 "no machine settings were changed to steady them"),
    }


def tail(times, pct):
    """Nearest-rank `pct` percentile and the number of samples beyond it.

    Each workload fixes `pct` as the highest of 99/95/90/75/50 that leaves at
    least forty samples beyond it in a typical run (the median when none
    has), so later changes are compared at the same
    percentile; the count is recorded with the value.  Forty, not ten: on a
    machine whose speed changes within seconds, a percentile with only ten
    samples beyond it follows the few slowest tasks' luck.
    """
    s = sorted(times)
    i = max(0, -(-int(pct * len(s)) // 100) - 1)
    return s[i], len(s) - 1 - i


def make_workload(args, rng, workdir, rec=None):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli_batch":
        child = None
        if rec is not None:
            child = lambda: [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py"),
                             rec.child_spans_path()] if rec.installed else None
        return cls(rng, args.tiny, repo=REPO, workdir=workdir, child=child)
    wrap = rec.sample_wrapper if rec is not None else None
    return cls(rng, args.tiny, wrap=wrap)


def timed_loop(wl, seconds, first_cycle, corrupt_every, trace_rec=None):
    """Closed loop over whole cycles until `seconds` of wall time have passed."""
    results = []  # (kind, n, seconds, error or None)
    start = time.perf_counter()
    i = first_cycle
    while time.perf_counter() - start < seconds:
        for task in wl.cycle(i):
            if trace_rec:
                trace_rec.enabled = True
                idx = trace_rec.open("task", {"n": task.n})
            t0 = time.perf_counter()
            try:
                out = task.run()
                err = None
            except Exception as exc:  # a task that raises is a failed task
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if trace_rec:
                trace_rec.close(idx)
                trace_rec.enabled = False
            if err is None:
                if corrupt_every and (len(results) + 1) % corrupt_every == 0:
                    out = wl.corrupt(out)
                try:
                    err = task.check(out)
                except Exception as exc:
                    err = f"oracle raised {type(exc).__name__}: {exc}"
            results.append((task.kind, task.n, dt, err))
        i += 1
    return results, i


def child_setup_times(args):
    """Set-up time of fresh workload processes (import, inputs, warm-up)."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        if args.tiny:
            cmd.append("--tiny")
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=REPO)
        if p.returncode != 0:
            raise RuntimeError(f"set-up child failed: {p.stderr.strip()[-500:]}")
        out.append(json.loads(p.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def summarise(results, tail_pct):
    times = [r[2] for r in results]
    failed = [r for r in results if r[3] is not None]
    tail_value, beyond = tail(times, tail_pct)
    kinds = {}
    for kind, n, dt, err in results:
        kinds.setdefault(kind, []).append(dt)
    return {
        "attempted": len(results),
        "failed": len(failed),
        "fail_frac": len(failed) / len(results),
        "task_s_p50": statistics.median(times),
        "tail_percentile": tail_pct,
        "task_s_tail": tail_value,
        "tail_samples_beyond": beyond,
        "tail_undersampled": beyond < 10,
        "tasks_per_s": len(times) / sum(times),
        "timed_s": sum(times),
        "per_kind_p50_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
        "failures": sorted({r[3] for r in failed})[:20],
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tanhspec", "__init__.py")):
        print("error: run from a checkout that holds src/tanhspec", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for v in BLAS_VARS:
        os.environ[v] = str(nproc)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import numpy as np

    import tracing

    rng = np.random.default_rng(args.seed)
    work_root = os.path.join(REPO, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rec = tracing.BenchRecorder(workdir) if args.trace else None
        wl = make_workload(args, rng, workdir, rec)
        wl.warmup()
        setup_own = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        env = environment(args, nproc)
        if args.trace:
            metrics, detail, results = traced_run(args, wl, rec)
        else:
            results, _ = timed_loop(wl, args.seconds, 0, args.corrupt)
            ru = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" else resource.RUSAGE_SELF
            peak_mib = resource.getrusage(ru).ru_maxrss / 1024.0
            detail = summarise(results, wl.TAIL_PCT)
            detail["known_defects"] = wl.known_defects()
            setups = [setup_own] + child_setup_times(args)
            detail["setup_runs_s"] = setups
            unit = lambda v, u: {"value": v, "unit": u}
            metrics = {
                "task_s_p50": unit(detail["task_s_p50"], "s"),
                "task_s_tail": unit(detail["task_s_tail"], "s"),
                "tasks_per_s": unit(detail["tasks_per_s"], "1/s"),
                "setup_s": unit(statistics.median(setups), "s"),
                "peak_rss_mib": unit(peak_mib, "MiB"),
            }
        detail["environment"] = env
        out_dir = os.path.join(REPO, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump({"metrics": metrics, "detail": detail, "tasks": results,
                       "spans": rec.dump() if rec else None}, fh)
        print(json.dumps({"detail": detail}, default=str))
        print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                          "failed": detail["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def overhead(base, traced):
    """Traced over untraced wall time, on the traced task mix.

    Tasks are grouped by kind and power-of-two size so that the two halves,
    which ran different cycles, are compared class by class.
    """
    def classes(results):
        out = {}
        for kind, n, dt, _ in results:
            out.setdefault((kind, round(math.log2(n)) if n else 0), []).append(dt)
        return out

    b, t = classes(base), classes(traced)
    common = [k for k in t if k in b]
    if not common:  # too short a run to match classes: compare plain means
        return statistics.mean(r[2] for r in traced) / statistics.mean(r[2] for r in base) - 1.0
    untraced = sum(len(t[k]) * statistics.median(b[k]) for k in common)
    return sum(len(t[k]) * statistics.median(t[k]) for k in common) / untraced - 1.0


def traced_run(args, wl, rec):
    """Untraced first half for the overhead baseline, traced second half for spans."""
    half = args.seconds / 2.0
    base, next_cycle = timed_loop(wl, half, 0, args.corrupt)
    absent = rec.install()
    traced, _ = timed_loop(wl, half, next_cycle, args.corrupt, trace_rec=rec)
    detail = summarise(traced, wl.TAIL_PCT)
    import layers

    metrics, notes = layers.per_layer(rec, traced, wl)
    metrics["trace.overhead_frac"] = {"value": overhead(base, traced), "unit": "fraction"}
    detail.update(notes)
    detail["absent_targets"] = absent
    detail["failed"] += sum(r[3] is not None for r in base)
    detail["attempted"] += len(base)
    detail["fail_frac"] = detail["failed"] / detail["attempted"]
    return metrics, detail, base + traced


if __name__ == "__main__":
    sys.exit(main())
