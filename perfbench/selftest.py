"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every implemented workload: an untraced and a traced run emit exactly the metrics
that BENCHMARK.json names, each with its unit; a run that corrupts every
second output counts the corrupted tasks as failed; and a directory that
holds only the benchmark (no src/) makes the command fail without a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(workload, *extra, cwd=REPO, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def last_json(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    # every implemented workload, gated in BENCHMARK.json or not
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    from workloads import WORKLOADS

    for w in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = run(w, "--trace", trace)
            expect(p.returncode == 0, f"{w} trace={trace} exits 0 ({p.stderr.strip()[-300:]})")
            if p.returncode:
                continue
            r = last_json(p)
            expect(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{w} trace={trace} result keys")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace} correct with no failures")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{w} trace={trace} emits every {key} metric with its unit")
            expect(all(isinstance(v["value"], float) for v in r["metrics"].values()),
                   f"{w} trace={trace} values are numbers")
        p = run(w, "--trace", "0", "--corrupt", "2")
        r = last_json(p) if p.returncode == 0 else {}
        expect(r.get("failed", 0) >= 1 and r.get("correct") is False,
               f"{w} corrupted outputs are counted as failed ({r.get('failed')}/{r.get('attempted')})")

    bare = tempfile.mkdtemp(dir=os.path.join(REPO, ".perfbench_work")
                            if os.path.isdir(os.path.join(REPO, ".perfbench_work")) else REPO)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run("fast_expand", cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        expect(p.returncode != 0 and not p.stdout.strip(), "without src/ the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
