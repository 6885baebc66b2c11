"""Analysis error at a = b on exactly rounded band-limited samples.

A seeded N/2-term expansion is evaluated in 32-digit arithmetic at every x
the analysis asks for and rounded once, so the samples carry no synthesis
error; the relative 2-norm error of the N analysed coefficients is printed
per mode.  Not collected by pytest (takes about a minute):

    PYTHONPATH=src python tests/bandlimited_accuracy.py [MODES] [ALPHAS] [SIZES]

with comma-separated lists, by default full,half -0.999,-0.9,0,2,80,1000
256,1024.
"""

import sys

import mpmath
import numpy as np

from oracles import _jacobi_matrix_mp
from tanhspec import BasisSpec, JacobiParams, analyze_full, analyze_half


def exact_samples(a: float, coeffs: np.ndarray):
    """f(x) = sum_m coeffs[m] phi_m(x) of the (a, a) pair, each value from 32 digits, rounded once."""
    B, e, g0 = _jacobi_matrix_mp(a, a, len(coeffs))
    signed = [mpmath.mpf(float(v)) * (-1) ** m for m, v in enumerate(coeffs)]
    q0, cache = 1 / mpmath.sqrt(g0), {}

    def value(x):
        x = mpmath.mpf(x)
        t, w = mpmath.tanh(x), mpmath.sech(x) ** (mpmath.mpf(a) + 1)
        prev, q, total = mpmath.mpf(0), q0, signed[0] * q0
        for m in range(len(signed) - 1):
            prev, q = q, ((t - B[m]) * q - (e[m - 1] if m else 0) * prev) / e[m]
            total += signed[m + 1] * q
        return float(total * w)

    def f(x):
        flat = [float(v) for v in np.ravel(x)]
        for v in flat:
            if v not in cache:
                cache[v] = value(v)
        return np.reshape([cache[v] for v in flat], np.shape(x))

    return f


def main(argv):
    modes = argv[0].split(",") if argv else ["full", "half"]
    alphas = [float(v) for v in argv[1].split(",")] if len(argv) > 1 else [-0.999, -0.9, 0.0, 2.0, 80.0, 1000.0]
    sizes = [int(v) for v in argv[2].split(",")] if len(argv) > 2 else [256, 1024]
    with mpmath.workdps(32):
        for n in sizes:
            for a in alphas:
                c = np.random.default_rng(int(1000 * a) % 2**32 + n).standard_normal(n // 2)
                want = np.concatenate([c, np.zeros(n - c.size)])
                f = exact_samples(a, c)
                row = [f"n={n} a={a}"]
                for mode in modes:
                    analyze = analyze_half if mode == "half" else analyze_full
                    got = analyze(BasisSpec(JacobiParams(a, a), mode), f, n).coeffs
                    row.append(f"{mode} {np.linalg.norm(got - want) / np.linalg.norm(want):.2e}")
                print("  ".join(row), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
