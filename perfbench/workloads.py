"""The four benchmark workloads: inputs from a seed, timed tasks, oracles.

Each workload is one client in a closed loop.  `cycle(i)` returns the next
block of tasks; the runner keeps starting cycles until the run time is
used up, so every run sees the same mix of task sizes and the medians and
tails are read from a fixed multiset.  A task is a pair of callables:
`run()` is timed, `check(out)` is the oracle and runs outside the timed
region.  Oracles use closed forms computed here with numpy/scipy, not the
library under test, except where noted.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import k0e

import tanhspec
from tanhspec import basis as B
from tanhspec import fourier as FO
from tanhspec import operators as OP
from tanhspec import transforms as T


@dataclass
class Task:
    kind: str
    n: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------------------
# test functions with closed-form derivative, squared L2 norm and transform
# F[f](xi) = (2 pi)^{-1/2} int f(x) e^{-i x xi} dx (the package's convention)


def _sech(r):
    return lambda x: 1.0 / np.cosh(r * x)


def _gaussian(r):
    return lambda x: np.exp(-r * x * x)


def _sech_tanh(r):
    return lambda x: np.tanh(r * x) / np.cosh(r * x)


def _bump(r):
    return lambda x: np.exp(-r * np.sinh(x) ** 2)


FUNCS = {
    "sech": (_sech, lambda r: lambda x: -r * np.tanh(r * x) / np.cosh(r * x), lambda r: 2.0 / r),
    "gaussian": (_gaussian, lambda r: lambda x: -2.0 * r * x * np.exp(-r * x * x),
                 lambda r: math.sqrt(math.pi / (2.0 * r))),
    "sech_tanh": (_sech_tanh, lambda r: lambda x: r * (1.0 - 2.0 * np.tanh(r * x) ** 2) / np.cosh(r * x),
                  lambda r: 2.0 / (3.0 * r)),
    "bump": (_bump, lambda r: lambda x: -r * np.sinh(2.0 * x) * np.exp(-r * np.sinh(x) ** 2),
             lambda r: float(k0e(r))),
}

FOURIER = {
    "sech": lambda r: lambda xi: math.sqrt(math.pi / 2.0) / r / np.cosh(math.pi * xi / (2.0 * r)),
    "gaussian": lambda r: lambda xi: np.exp(-xi * xi / (4.0 * r)) / math.sqrt(2.0 * r),
}

# Oracle tolerances, pinned from what the seed achieves on these inputs
# (worst case over every size, pair and function the workloads draw,
# times about ten).
# Exponentially decaying functions converge algebraically on some pairs,
# super-exponentially decaying ones to rounding; hence two families.
SLOW = ("sech", "sech_tanh")
TOL = {
    "parseval_slow": 1e-5, "parseval_fast": 1e-14,
    "tail_slow": 3e-4, "tail_fast": 2e-10,
    "value_slow": 5e-3, "value_fast": 3e-7,
    "deriv_slow": 2e-2, "deriv_fast": 3e-6,
    "residual_slow": 5e-7, "solution_slow": 3e-8, "fourier_slow": 5e-7,
    "residual_fast": 1e-9, "solution_fast": 1e-10, "fourier_fast": 5e-10,
}


def _family(name):
    return "slow" if name in SLOW else "fast"


def _spec(a, b, mode="full"):
    return tanhspec.BasisSpec(tanhspec.JacobiParams(a, b), mode)


def _even_smooth(lo, hi):
    """Even 5-smooth lengths in [lo, hi] (mixed-radix FFT sizes)."""
    out = set()
    for i in range(1, 18):
        for j in range(12):
            for k in range(8):
                n = 2**i * 3**j * 5**k
                if lo <= n <= hi:
                    out.add(n)
    return sorted(out)


# ---------------------------------------------------------------------------


class FastExpand:
    """Fast O(N log N) transforms at the four half-integer pairs and a = +-1/2."""

    MODES = [("full", -0.5, -0.5), ("full", 0.5, 0.5), ("full", 0.5, -0.5),
             ("full", -0.5, 0.5), ("half", -0.5, -0.5), ("half", 0.5, 0.5)]
    TAIL_PCT = 99.0
    RATES = {"sech": (1.0, 1.5, 2.0), "gaussian": (0.5, 1.0, 2.0),
             "sech_tanh": (1.0, 1.5, 2.0), "bump": (0.5, 1.0, 2.0)}

    def __init__(self, rng, tiny=False, wrap=None):
        self.rng = rng
        self.wrap = wrap or (lambda f: f)
        # every other even 5-smooth length: ~110 sizes, more than the 64-entry
        # grid caches hold, log-uniform over 2^10..2^17
        self.sizes = [1024, 1280, 1536, 2048] if tiny else _even_smooth(1024, 2**17)[::2]

    def warmup(self):
        for mode, a, b in self.MODES:
            self._task(mode, a, b, 256, "gaussian", 1.0).run()

    def cycle(self, i):
        combos = [(m, n) for m in self.MODES for n in self.sizes]
        # the order of sizes comes from the cycle index, not the seed, so the
        # grid caches hold the same entries (and memory) in every run
        order = np.random.default_rng(i).permutation(len(combos))
        tasks = []
        for k in order:
            (mode, a, b), n = combos[k]
            name = sorted(self.RATES)[self.rng.integers(4)]
            r = float(self.rng.choice(self.RATES[name]))
            tasks.append(self._task(mode, a, b, n, name, r))
        return tasks

    def _task(self, mode, a, b, n, name, r):
        spec = _spec(a, b, mode)
        f = self.wrap(FUNCS[name][0](r))
        norm2 = FUNCS[name][2](r)
        fam = _family(name)

        def run():
            # looked up at call time so that trace wrappers apply
            fn = T.analyze_half if mode == "half" else T.analyze_full
            return fn(spec, f, n).coeffs

        def check(c):
            if not np.all(np.isfinite(c)):
                return "non-finite coefficient"
            err = abs(float(c @ c) - norm2) / norm2
            if err > TOL["parseval_" + fam]:
                return f"Parseval error {err:.2e} for {name}:{r}"
            if abs(c[-1]) > TOL["tail_" + fam]:
                return f"tail |c_N-1| = {abs(c[-1]):.2e} for {name}:{r}"
            return None

        return Task(f"{mode}({a:+.1f},{b:+.1f})", n, run, check)

    @staticmethod
    def corrupt(c):
        c = c.copy()
        c[0] *= 1.01
        return c

    def known_defects(self):
        return []


class QuadEval:
    """Gauss-Jacobi expansions at generic pairs, then Clenshaw values and a derivative."""

    PAIRS = [("full", 1.3, 0.2), ("full", 0.0, 0.0), ("full", -0.9, -0.9), ("full", 2.0, 5.0),
             ("half", 0.0, 0.0), ("half", 1.3, 1.3), ("half", -0.9, -0.9), ("half", 2.0, 2.0)]
    FUNS = [("gaussian", 1.0), ("gaussian", 2.0), ("bump", 1.0), ("bump", 0.5),
            ("sech", 2.0), ("sech_tanh", 2.0)]
    # Per cycle, eight sizes log-uniform over 128..2048 (full and half mode
    # alternating), each serving three functions.  The sizes come from the
    # cycle index, so every run has the same smooth mix of task times: a
    # percentile then moves smoothly, not in steps, when the machine speeds
    # up or slows down during a run.
    SIZES_PER_CYCLE = 8
    TAIL_PCT = 90.0
    POINTS = 300

    def __init__(self, rng, tiny=False, wrap=None):
        self.rng = rng
        self.wrap = wrap or (lambda f: f)
        self.lo, self.hi = (128, 192) if tiny else (128, 2048)
        self.big = 256 if tiny else 4096

    def warmup(self):
        for mode, a, b in self.PAIRS[::3]:
            self._task(mode, a, b, 64, "gaussian", 1.0).run()

    def cycle(self, i):
        tasks = []
        k = self.SIZES_PER_CYCLE
        shift = (i * 0.618034) % 1.0
        for j in range(k):
            n = 2 * round(self.lo * (self.hi / self.lo) ** ((j + shift) / k) / 2)
            pair = self.PAIRS[self.rng.integers(4) + (4 * ((i + j) % 2))]
            # one (a, b, N) serves three functions: work that could be shared
            for f in self.rng.choice(len(self.FUNS), 3, replace=False):
                tasks.append(self._task(*pair, n, *self.FUNS[f]))
        tasks = [tasks[k] for k in self.rng.permutation(len(tasks))]
        if i == 0:
            # one full-mode N = 4096 task per run, first: its N^2 Vandermonde
            # sets the peak memory, the same in every run
            tasks.insert(0, self._task(*self.PAIRS[self.rng.integers(4)], self.big, "gaussian", 1.0))
        return tasks

    def _task(self, mode, a, b, n, name, r):
        spec = _spec(a, b, mode)
        f = self.wrap(FUNCS[name][0](r))
        df = FUNCS[name][1](r)
        half = float(self.rng.uniform(4.0, 8.0))
        x = np.linspace(-half, half, self.POINTS)
        fam = _family(name)

        def run():
            e = (T.analyze_half if mode == "half" else T.analyze_full)(spec, f, n)
            values = T.synthesize(e, x)
            d = B.diff_coeffs(spec.params, n + 1)
            de = B.Expansion(spec, OP.diff_apply(d, np.concatenate([e.coeffs, [0.0]])))
            return values, T.synthesize(de, x)

        def check(out):
            values, deriv = out
            ev = float(np.max(np.abs(values - f(x))))
            ed = float(np.max(np.abs(deriv - df(x))))
            if not (ev <= TOL["value_" + fam]):
                return f"value error {ev:.2e} for {name}:{r}"
            if not (ed <= TOL["deriv_" + fam]):
                return f"derivative error {ed:.2e} for {name}:{r}"
            return None

        return Task(f"{mode}({a:+.1f},{b:+.1f})", n, run, check)

    @staticmethod
    def corrupt(out):
        return out[0] + 1e-3, out[1]

    def known_defects(self):
        return []


class SolveFT:
    """Manufactured first-order solves u' + a u = f, residual, Fourier transform.

    The timed solves use the Chebyshev-T pair (-1/2, -1/2): `mult_op` is the
    multiplication operator only in that basis, and the other half-integer
    pairs are probed as a known defect instead (see known_defects).
    """

    PAIR = (-0.5, -0.5)
    # Per cycle, ten sizes log-uniform over 256..4096 from the cycle index,
    # each paired with a bandwidth M from 1..16; every M meets many sizes,
    # which gives the fixed-bandwidth scaling fit.  A fresh N per task, as
    # users vary it: the Fourier cache is keyed on N, so this is where it
    # misses.
    SIZES_PER_CYCLE = 10
    BANDWIDTHS = (1, 2, 4, 8, 16)
    EXACT = [("sech", 3.0), ("gaussian", 1.0), ("gaussian", 2.0)]
    TAIL_PCT = 75.0
    XI_POINTS = 200

    def __init__(self, rng, tiny=False, wrap=None):
        self.rng = rng
        self.wrap = wrap or (lambda f: f)
        self.lo, self.hi = (256, 320) if tiny else (256, 4096)

    def warmup(self):
        self._task(*self.PAIR, 64, 2, "gaussian", 1.0, 10.0).run()

    def cycle(self, i):
        tasks = []
        k = self.SIZES_PER_CYCLE
        shift = (i * 0.618034) % 1.0
        for j in range(k):
            n = 2 * round(self.lo * (self.hi / self.lo) ** ((j + shift) / k) / 2)
            m = self.BANDWIDTHS[(i + 3 * j) % len(self.BANDWIDTHS)]
            name, r = self.EXACT[self.rng.integers(len(self.EXACT))]
            tasks.append(self._task(*self.PAIR, n, m, name, r, float(self.rng.uniform(10.0, 50.0))))
        return [tasks[k] for k in self.rng.permutation(len(tasks))]

    def _coefficient_a(self, m):
        a = np.empty(m + 1)
        a[0] = self.rng.uniform(2.0, 3.0)
        a[1:] = self.rng.uniform(-1.0, 1.0, m) * (0.5 / m)
        return a

    def _task(self, a, b, n, m, name, r, xi_max):
        spec = _spec(a, b)
        acoef = self._coefficient_a(m)
        u = FUNCS[name][0](r)
        du = FUNCS[name][1](r)

        def a_of_x(x):
            theta = np.arccos(np.tanh(x))
            k = np.arange(1, m + 1)
            return acoef[0] / math.sqrt(2.0) + np.cos(np.outer(theta, k)) @ acoef[1:]

        f = self.wrap(lambda x: du(x) + a_of_x(x) * u(x))
        xi = np.linspace(-xi_max, xi_max, self.XI_POINTS)
        Fu = FOURIER[name](r)
        fam = _family(name)

        def run():
            rhs = T.analyze_full(spec, f, n)
            d = B.diff_coeffs(spec.params, n + m + 1)
            mult = OP.mult_op(acoef, m, n)
            sol = OP.solve_first_order(d, mult, rhs, n)
            # independent residual |L u - f| / |f| on a window long enough for exact action
            w = np.zeros(n + m + 1)
            w[:n] = sol.expansion.coeffs
            lu = OP.diff_apply(d, w) + OP.MultOp(acoef, n + m + 1).apply(w)
            fw = np.zeros(n + m + 1)
            fw[:n] = rhs.coeffs
            residual = float(np.linalg.norm(lu - fw) / np.linalg.norm(fw))
            return sol.expansion.coeffs, residual, FO.fourier_transform(sol.expansion, xi)

        def check(out):
            coeffs, residual, ft = out
            if not (residual <= TOL["residual_" + fam]):
                return f"residual {residual:.2e}"
            exact = T.analyze_full(spec, u, n).coeffs  # transform layer, not the solver
            eu = float(np.max(np.abs(coeffs - exact)))
            if not (eu <= TOL["solution_" + fam]):
                return f"solution coefficient error {eu:.2e}"
            ef = float(np.max(np.abs(ft - Fu(xi))))
            if not (ef <= TOL["fourier_" + fam]):
                return f"Fourier error {ef:.2e} for {name}:{r}"
            return None

        return Task(f"({a:+.1f},{b:+.1f})M{m}", n, run, check)

    @staticmethod
    def corrupt(out):
        return out[0], out[1] * 1e6 + 1e-9, out[2]

    def known_defects(self):
        """F at |xi| = 1e3 must be ~0, not NaN; solves off the T pair must be right."""
        out = []
        e = T.analyze_full(_spec(-0.5, -0.5), FUNCS["sech"][0](1.0), 512)
        with np.errstate(all="ignore"):
            ft = FO.fourier_transform(e, np.array([-1000.0, 600.0, 1000.0]))
        out.append({"name": "fourier_nan_large_xi",
                    "passes": bool(np.all(np.isfinite(ft)) and np.max(np.abs(ft)) < 1e-6),
                    "detail": f"sech n=512 at xi=-1e3,600,1e3 gives {ft.tolist()!r}"})
        u = FUNCS["gaussian"][0](1.0)
        for a, b in [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]:
            coeffs = self._task(a, b, 256, 2, "gaussian", 1.0, 10.0).run()[0]
            err = float(np.max(np.abs(coeffs - T.analyze_full(_spec(a, b), u, 256).coeffs)))
            out.append({"name": f"solve_variable_a_pair_{a:+.1f}_{b:+.1f}",
                        "passes": err <= TOL["solution_fast"],
                        "detail": f"u = exp(-x^2), M = 2, N = 256: max coefficient error {err:.2e}"})
        return out


# ---------------------------------------------------------------------------


def entry_point_code(repo):
    """Python source that runs the declared console-script entry point."""
    import tomllib

    with open(os.path.join(repo, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tanhspec"]
    module, _, func = target.partition(":")
    return f"import sys; sys.argv[0] = 'tanhspec'; from {module} import {func} as f; sys.exit(f())"


class CliBatch:
    """One fresh interpreter per task running the declared entry point."""

    TAIL_PCT = 50.0  # about thirty tasks a run

    def __init__(self, rng, tiny=False, repo=".", workdir=".", child=None):
        self.rng = rng
        self.work = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        self.code = entry_point_code(repo)
        # while tracing, `child()` gives the command prefix of a traced interpreter
        self.child = child
        self.import_logs = []
        self._tables()
        self.deck = self._deck()
        self.pos = len(self.deck)

    def _path(self, name):
        return os.path.join(self.work, name)

    def _tables(self):
        """Input tables written with the library in-process (set-up work)."""
        x = np.linspace(-8.0, 8.0, 161)
        with open(self._path("samples.csv"), "w") as fh:
            fh.write("x,value\n" + "".join(f"{float(v)!r},{1.0 / math.cosh(v)!r}\n" for v in x))
        # variable coefficients bounded away from zero, so u' + a u = f has an L2 solution
        with open(self._path("a_samples.csv"), "w") as fh:
            fh.write("x,value\n" + "".join(f"{float(v)!r},{2.0 + 1.0 / math.cosh(v)!r}\n" for v in x))
        with open(self._path("a_coeffs.csv"), "w") as fh:
            fh.write("m,c\n0,2.0\n1,0.3\n2,-0.1\n3,0.05\n")
        for (a, b), n, fmt in [((-0.5, -0.5), 64, "csv"), ((0.5, 0.5), 96, "json"),
                               ((0.0, 0.0), 48, "csv"), ((0.5, -0.5), 128, "csv")]:
            c = T.analyze_full(_spec(a, b), _sech(1.0), n).coeffs
            rows = [{"m": m, "c": float(v)} for m, v in enumerate(c)]
            name = self._path(f"c_{a:+.1f}_{b:+.1f}.{fmt}")
            if fmt == "json":
                with open(name, "w") as fh:
                    json.dump(rows, fh)
            else:
                with open(name, "w") as fh:
                    fh.write("m,c\n" + "".join(f"{r['m']},{r['c']!r}\n" for r in rows))

    def _deck(self):
        """Twenty commands per deck: all six subcommands and one contract case.

        Solves stay on the Chebyshev-T pair, where `mult_op` is exact (the
        other pairs are a known defect, probed by the solve_ft workload).
        """
        P = self._path
        out = P("out.csv")
        cmds = [
            (["expand", "--alpha", "-0.5", "--beta", "-0.5", "--n", "256", "--fn", "sech"], ("rows", 256)),
            (["expand", "--alpha", "0.5", "--beta", "0.5", "--n", "1024", "--fn", "gaussian:2"], ("rows", 1024)),
            (["expand", "--alpha", "0", "--beta", "0", "--n", "128", "--fn", "bump", "--format", "json"], ("json", 128)),
            (["expand", "--alpha", "-0.5", "--beta", "-0.5", "--mode", "half", "--n", "64", "--in", P("samples.csv")], ("rows", 64)),
            (["eval", "--alpha", "-0.5", "--beta", "-0.5", "--in", P("c_-0.5_-0.5.csv"), "--points", "lin:-5:5:200"], ("rows", 200)),
            (["eval", "--alpha", "0.5", "--beta", "0.5", "--in", P("c_+0.5_+0.5.json"), "--points", "lin:-4:4:100", "--format", "json"], ("json", 100)),
            (["eval", "--alpha", "0", "--beta", "0", "--in", P("c_+0.0_+0.0.csv"), "--points", "0,0.5,1,2", "--out", out], ("file", 4)),
            (["diff", "--alpha", "-0.5", "--beta", "-0.5", "--in", P("c_-0.5_-0.5.csv"), "--points", "lin:-5:5:200"], ("rows", 200)),
            (["diff", "--alpha", "0", "--beta", "0", "--in", P("c_+0.0_+0.0.csv"), "--points", "lin:-3:3:50"], ("rows", 50)),
            (["diff", "--alpha", "0.5", "--beta", "-0.5", "--in", P("c_+0.5_-0.5.csv"), "--points", "lin:-6:6:120", "--out", out], ("file", 120)),
            (["ft", "--alpha", "-0.5", "--beta", "-0.5", "--in", P("c_-0.5_-0.5.csv"), "--points", "lin:-20:20:201"], ("rows", 201)),
            (["ft", "--alpha", "0", "--beta", "0", "--in", P("c_+0.0_+0.0.csv"), "--points", "lin:-10:10:50"], ("rows", 50)),
            (["ft", "--alpha", "0.5", "--beta", "-0.5", "--in", P("c_+0.5_-0.5.csv"), "--points", "lin:0:30:100", "--format", "json"], ("json", 100)),
            (["solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "256", "--a-fn", "runge_tanh", "--f-fn", "sech", "--bandwidth", "4"], ("solve", 256)),
            (["solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "512", "--a-in", P("a_coeffs.csv"), "--f-fn", "gaussian", "--bandwidth", "3"], ("solve", 512)),
            (["solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "128", "--a-in", P("a_samples.csv"), "--f-fn", "bump", "--bandwidth", "6", "--points", "lin:-3:3:30", "--values-out", P("v.csv")], ("solve", 128)),
            (["basis", "--alpha", "-0.5", "--beta", "-0.5", "--m-list", "0,1,2,5", "--points", "lin:-6:6:200"], ("rows", 200)),
            (["basis", "--alpha", "1.3", "--beta", "0.2", "--m-list", "0,3,7", "--points", "lin:-4:4:100", "--format", "json"], ("json", 100)),
            (["basis", "--alpha", "0", "--beta", "0", "--m-list", "10", "--points", "0,1,2"], ("rows", 3)),
        ]
        contract = [
            ["expand", "--alpha", "-1", "--beta", "0", "--n", "16", "--fn", "sech"],
            ["expand", "--alpha", "0", "--beta", "0", "--n", "16", "--fn", "sinc"],
            ["eval", "--alpha", "0", "--beta", "0", "--in", P("missing.csv"), "--points", "0"],
            ["expand", "--alpha", "0.5", "--beta", "0", "--mode", "half", "--n", "16", "--fn", "sech"],
            ["solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "8", "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "8"],
        ]
        deck = [(argv, expect) for argv, expect in cmds]
        deck.append((contract[self.rng.integers(len(contract))], ("error", 2)))
        return deck

    def warmup(self):
        pass  # the set-up import already compiled and cached the package

    def cycle(self, i):
        if self.pos >= len(self.deck):
            self.deck = [self.deck[k] for k in self.rng.permutation(len(self.deck))]
            self.pos = 0
        argv, expect = self.deck[self.pos]
        self.pos += 1
        return [self._task(argv, expect)]

    def _task(self, argv, expect):
        prefix = self.child() if self.child else None
        cmd = (prefix or [sys.executable, "-c", self.code]) + list(argv)

        def run():
            p = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
            stderr = p.stderr
            if prefix:
                lines = stderr.splitlines(keepends=True)
                self.import_logs.append([ln for ln in lines if ln.startswith("import time:")])
                stderr = "".join(ln for ln in lines if not ln.startswith("import time:"))
            return p.returncode, p.stdout, stderr

        def check(out):
            return check_cli(out, expect, self._path("out.csv"))

        return Task(argv[0] if expect[0] != "error" else "contract", 0, run, check)

    @staticmethod
    def corrupt(out):
        return 1, out[1], out[2]

    def known_defects(self):
        P = self._path
        probes = [
            ("module_form_is_noop", [sys.executable, "-m", "tanhspec.cli"],
             ["expand", "--alpha", "-0.5", "--beta", "-0.5", "--n", "16", "--fn", "sech"], ("rows", 16)),
            ("builtin_extra_parameter_traceback", [sys.executable, "-c", self.code],
             ["expand", "--alpha", "-0.5", "--beta", "-0.5", "--n", "16", "--fn", "gaussian:1,2",
              "--out", P("g.csv")], ("error_or_file", 16)),
        ]
        out = []
        for name, prefix, argv, expect in probes:
            p = subprocess.run(prefix + argv, env=self.env, capture_output=True, text=True, timeout=120)
            err = check_cli((p.returncode, p.stdout, p.stderr), expect, P("g.csv"))
            out.append({"name": name, "passes": err is None,
                        "detail": err or "ok", "argv": " ".join(prefix[-1:] + argv)})
        return out


def _finite_rows(text, fmt):
    if fmt == "json":
        rows = json.loads(text)
        vals = [v for row in rows for v in row.values()]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()][1:]
        rows = lines
        vals = [float(v) for ln in lines for v in ln.split(",")]
    return len(rows), all(math.isfinite(v) for v in vals)


def check_cli(out, expect, out_file):
    """Exit code and output shape of one CLI run; None when correct."""
    code, stdout, stderr = out
    kind, count = expect
    err_lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if kind == "error" or (kind == "error_or_file" and code != 0):
        if code != 2:
            return f"exit {code}, expected 2"
        if len(err_lines) != 1 or not err_lines[0].startswith("error:"):
            return f"stderr is not one error: line ({len(err_lines)} lines)"
        return None
    if code != 0:
        return f"exit {code}: {err_lines[-1] if err_lines else ''}"
    if kind in ("file", "error_or_file"):
        with open(out_file) as fh:
            text = fh.read()
        fmt = "csv"
    elif kind == "json":
        text, fmt = stdout, "json"
    else:
        text, fmt = stdout, "csv"
        if kind == "solve":
            lines = stdout.splitlines()
            if not lines or not lines[-1].startswith("residual="):
                return "no residual line"
            # the least-squares residual reflects how well N terms resolve u,
            # so only its presence and finiteness are checked
            if not math.isfinite(float(lines[-1].split("=", 1)[1])):
                return f"non-finite residual {lines[-1]}"
            text = "\n".join(lines[:-1])
    try:
        rows, finite = _finite_rows(text, fmt)
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    if rows != count:
        return f"{rows} rows, expected {count}"
    if not finite:
        return "non-finite value in output"
    return None


WORKLOADS = {"fast_expand": FastExpand, "quad_eval": QuadEval, "solve_ft": SolveFT, "cli_batch": CliBatch}
