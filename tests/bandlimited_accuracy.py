"""Analysis error on exactly rounded band-limited samples.

A seeded N/2-term expansion is evaluated in 32-digit arithmetic at every x
the analysis asks for and rounded once, so the samples carry no synthesis
error; the relative 2-norm error of the N analysed coefficients is printed
per mode.  Not collected by pytest (the default run takes about a minute):

    PYTHONPATH=src python tests/bandlimited_accuracy.py [MODES] [PAIRS] [SIZES]

with comma-separated lists, by default full,half -0.999,-0.9,0,2,80,1000
256,1024.  A pair is a for (a, a) or a:b for (a, b); half mode, which
needs a = b, prints "-" at the others.
"""

import sys

import mpmath
import numpy as np

from oracles import _jacobi_matrix_mp
from tanhspec import BasisSpec, JacobiParams, analyze_full, analyze_half


def exact_samples(a: float, b: float, coeffs: np.ndarray):
    """f(x) = sum_m coeffs[m] phi_m(x) of the (a, b) pair, each value from 32 digits, rounded once."""
    B, e, g0 = _jacobi_matrix_mp(a, b, len(coeffs))
    signed = [mpmath.mpf(float(v)) * (-1) ** m for m, v in enumerate(coeffs)]
    q0, cache = 1 / mpmath.sqrt(g0), {}
    ha, hb = (mpmath.mpf(a) + 1) / 2, (mpmath.mpf(b) + 1) / 2

    def value(x):
        x = mpmath.mpf(x)
        t = mpmath.tanh(x)
        # 1 - t and 1 + t as 2 / (1 + e^{+-2x}), which keep their digits where t rounds to +-1
        w = (2 / (1 + mpmath.exp(2 * x))) ** ha * (2 / (1 + mpmath.exp(-2 * x))) ** hb
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


def _pair(text: str) -> tuple[float, float]:
    a, _, b = text.partition(":")
    return float(a), float(b or a)


def main(argv):
    modes = argv[0].split(",") if argv else ["full", "half"]
    pairs = [_pair(v) for v in argv[1].split(",")] if len(argv) > 1 else [
        (a, a) for a in (-0.999, -0.9, 0.0, 2.0, 80.0, 1000.0)]
    sizes = [int(v) for v in argv[2].split(",")] if len(argv) > 2 else [256, 1024]
    with mpmath.workdps(32):
        for n in sizes:
            for a, b in pairs:
                c = np.random.default_rng(int(1000 * a) % 2**32 + n).standard_normal(n // 2)
                want = np.concatenate([c, np.zeros(n - c.size)])
                f = exact_samples(a, b, c)
                row = [f"n={n} a={a}" if a == b else f"n={n} a={a} b={b}"]
                for mode in modes:
                    if mode == "half" and a != b:
                        row.append("half -")
                        continue
                    analyze = analyze_half if mode == "half" else analyze_full
                    got = analyze(BasisSpec(JacobiParams(a, b), mode), f, n).coeffs
                    row.append(f"{mode} {np.linalg.norm(got - want) / np.linalg.norm(want):.2e}")
                print("  ".join(row), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
