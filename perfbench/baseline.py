"""Re-measure the ROADMAP baseline rows and give the ratio to each.

    python3 perfbench/baseline.py

Same protocol as the ROADMAP table: library rows are the best of 3
in-process calls (the quadrature n=4096 row and the operator rows once),
CLI rows the best of 3 subprocess runs.  Prints a markdown table, then a
JSON line with the same figures and the environment.
"""

import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

# (row, size, ROADMAP seconds); the import row quotes the middle of 0.62-0.69 s
ROADMAP = [
    ("import tanhspec.cli", "-", 0.655),
    ("CLI expand, fast path, sech", "n = 65536", 1.25),
    ("CLI solve", "n = 4096, M = 8", 1.44),
    ("analyze_full fast (-1/2,-1/2)", "65536", 1.9e-3),
    ("analyze_full quadrature (1.3,0.2)", "256", 4.9e-3),
    ("analyze_full quadrature (1.3,0.2)", "1024", 76e-3),
    ("analyze_full quadrature (1.3,0.2)", "4096", 730e-3),
    ("MultOp.apply", "N = 4096, M = 8", 63e-3),
    ("assemble_first_order", "N = 4096, M = 8", 100e-3),
    ("solve_first_order", "N = 4096, M = 8", 389e-3),
]


def best(fn, repeats):
    out = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - t0)
    return out


def main():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC, **{v: str(nproc) for v in
                                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    os.environ.update({k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    cli = [sys.executable, "-c", "import sys; sys.argv[0] = 'tanhspec'; "
           "from tanhspec.cli import entrypoint; entrypoint()"]

    def sub(args):
        return lambda: subprocess.run(args, env=env, capture_output=True, check=True)

    measured = [
        best(sub([sys.executable, "-c", "import tanhspec.cli"]), 3),
        best(sub(cli + ["expand", "--alpha", "-0.5", "--beta", "-0.5", "--n", "65536", "--fn", "sech"]), 3),
        best(sub(cli + ["solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "4096", "--a-fn", "gaussian",
                        "--f-fn", "sech", "--bandwidth", "8"]), 3),
    ]
    sys.path.insert(0, SRC)
    import numpy as np

    import tanhspec as ts

    sech = lambda x: 1.0 / np.cosh(x)
    T = ts.BasisSpec(ts.JacobiParams(-0.5, -0.5))
    Q = ts.BasisSpec(ts.JacobiParams(1.3, 0.2))
    measured.append(best(lambda: ts.analyze_full(T, sech, 65536), 3))
    for n, k in ((256, 3), (1024, 3), (4096, 1)):
        measured.append(best(lambda: ts.analyze_full(Q, sech, n), k))
    n, m = 4096, 8
    a = np.array([2.0] + [0.05 * (-1) ** k for k in range(m)])
    mult = ts.mult_op(a, m, n)
    d = ts.diff_coeffs(T.params, n + m + 1)
    rhs = ts.analyze_full(T, sech, n)
    measured.append(best(lambda: mult.apply(rhs.coeffs), 1))
    measured.append(best(lambda: ts.assemble_first_order(d, mult, n), 1))
    measured.append(best(lambda: ts.solve_first_order(d, mult, rhs, n), 1))

    print("| stage | size | ROADMAP | measured | ratio |")
    print("| --- | --- | --- | --- | --- |")
    rows = []
    for (name, size, ref), got in zip(ROADMAP, measured):
        print(f"| {name} | {size} | {ref:.4g} s | {got:.4g} s | {got / ref:.2f} |")
        rows.append({"stage": name, "size": size, "roadmap_s": ref, "measured_s": got, "ratio": got / ref})
    print(json.dumps({"rows": rows, "nproc": nproc, "loadavg": os.getloadavg(),
                      "python": sys.version.split()[0], "numpy": np.__version__}))


if __name__ == "__main__":
    main()
