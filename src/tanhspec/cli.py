"""Command-line front end.

Named test functions or sampled data in; CSV/JSON coefficient tables,
derivative values, Fourier-transform profiles, first-order ODE solutions
and basis plot data out.  Exit codes: 0 success, 2 usage/domain error,
3 numerical failure.  Error paths print a single `error: ...` line on
stderr.
"""

import argparse
import json
import math
import sys

import numpy as np

from .basis import BasisSpec, Expansion, diff_coeffs, phi_full
from .fourier import fourier_transform
from .operators import diff_apply, mult_op, solve_first_order
from .special import JacobiParams
from .transforms import analyze_full, analyze_half, analyze_unweighted, synthesize

__all__ = ["main", "entrypoint"]

_USAGE_ERROR = 2
_NUMERICAL_ERROR = 3


# ---------------------------------------------------------------------------
# builtin test functions


def _gaussian(rate=1.0):
    return lambda x: np.exp(-rate * np.asarray(x, dtype=float) ** 2)


def _sech(rate=1.0):
    return lambda x: 1.0 / np.cosh(rate * np.asarray(x, dtype=float))


def _sech_tanh(rate=1.0):
    def f(x):
        x = rate * np.asarray(x, dtype=float)
        return np.tanh(x) / np.cosh(x)

    return f


def _runge_tanh(scale=25.0):
    return lambda x: 1.0 / (1.0 + scale * np.tanh(np.asarray(x, dtype=float)) ** 2)


def _bump(rate=1.0):
    return lambda x: np.exp(-rate * np.sinh(np.asarray(x, dtype=float)) ** 2)


_BUILTINS = {
    "gaussian": _gaussian,
    "sech": _sech,
    "sech_tanh": _sech_tanh,
    "runge_tanh": _runge_tanh,
    "bump": _bump,
}


def _barycentric(x_samples: np.ndarray, values: np.ndarray, blend: int = 3):
    """Rational barycentric interpolant (Floater-Hormann, blend degree 3).

    Works directly in x, where sample grids are typically near-uniform:
    stable for arbitrary strictly increasing nodes (no spurious poles),
    exact on polynomials of degree <= blend, locally O(h^{blend+1})
    accurate, and constant beyond the sampled window (expansion grids reach
    far into the tails, where decayed samples pin the interpolant).
    """
    nodes = np.asarray(x_samples, dtype=float)
    n = nodes.size
    d = min(blend, n - 1)
    w = np.zeros(n)
    for k in range(n):
        for i in range(max(0, k - d), min(k, n - 1 - d) + 1):
            prod = 1.0
            for j in range(i, i + d + 1):
                if j != k:
                    prod /= nodes[k] - nodes[j]
            w[k] += (-1.0) ** i * prod

    def f(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            if xi <= nodes[0]:
                out[i] = values[0]
            elif xi >= nodes[-1]:
                out[i] = values[-1]
            else:
                hit = np.nonzero(nodes == xi)[0]
                if hit.size:
                    out[i] = values[hit[0]]
                else:
                    r = w / (xi - nodes)
                    out[i] = float(r @ values / r.sum())
        return out if np.ndim(x) else float(out[0])

    return f


def parse_function(spec: str | None, path: str | None):
    """Resolve --fn NAME[:p1,p2] or a samples file into a callable."""
    if (spec is None) == (path is None):
        raise ValueError("exactly one of a builtin name or a samples file is required")
    if spec is not None:
        name, _, argstr = spec.partition(":")
        if name not in _BUILTINS:
            raise ValueError(f"unknown builtin {name!r}; choices: {', '.join(sorted(_BUILTINS))}")
        args = [float(p) for p in argstr.split(",")] if argstr else []
        try:
            return _BUILTINS[name](*args)
        except TypeError:
            raise ValueError(f"builtin {name!r} takes at most one parameter (got {len(args)})") from None
    rows = read_table(path, ("x", "value"))
    xs = np.array([r["x"] for r in rows])
    vals = np.array([r["value"] for r in rows])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vals))):
        raise ValueError(f"sample file {path!r} holds a non-finite x or value")
    if xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("sample files need at least two strictly increasing x values")
    return _barycentric(xs, vals)


# ---------------------------------------------------------------------------
# tables:  coefficient (m, c) / value (x, value) / complex (xi, re, im)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_table(path: str | None, columns: tuple[str, ...], rows, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = [{c: (int(row[c]) if c == "m" else float(row[c])) for c in columns} for row in rows]
        text = json.dumps(payload, indent=1) + "\n"
    else:
        raise ValueError(f"format must be csv or json (got {fmt!r})")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def read_table(path: str, columns: tuple[str, ...]):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"empty table file {path!r}")
    if stripped.startswith("["):
        rows = json.loads(text)
        if not rows:
            raise ValueError(f"empty table file {path!r}")
        out = []
        for row in rows:
            missing = [c for c in columns if c not in row]
            if missing:
                raise ValueError(f"malformed table {path!r}: missing column(s) {missing}")
            out.append({c: float(row[c]) for c in columns})
        return out
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"malformed table {path!r}: missing column(s) {missing}")
    idx = {c: header.index(c) for c in columns}
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"malformed table {path!r}: ragged row {ln!r}")
        try:
            out.append({c: float(parts[idx[c]]) for c in columns})
        except ValueError as exc:
            raise ValueError(f"malformed table {path!r}: {exc}") from exc
    if not out:
        raise ValueError(f"empty table file {path!r}")
    return out


def read_coefficients(path: str) -> np.ndarray:
    rows = read_table(path, ("m", "c"))
    rows.sort(key=lambda r: r["m"])
    for want, row in enumerate(rows):
        if int(row["m"]) != want:
            raise ValueError(f"malformed coefficient table {path!r}: indices must be 0..N-1")
    return np.array([r["c"] for r in rows])


def sniff_table(path: str) -> str:
    """'coeffs' for (m, c) tables, 'samples' for (x, value) tables."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"empty table file {path!r}")
    if stripped.startswith("["):
        rows = json.loads(text)
        keys = set(rows[0]) if rows else set()
    else:
        keys = {h.strip() for h in stripped.splitlines()[0].split(",")}
    if {"m", "c"} <= keys:
        return "coeffs"
    if {"x", "value"} <= keys:
        return "samples"
    raise ValueError(f"table {path!r} is neither a coefficient nor a sample table")


def parse_points(spec: str) -> np.ndarray:
    """Point grids: 'lin:LO:HI:COUNT' or a comma-separated list."""
    if spec.startswith("lin:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad points spec {spec!r}; expected lin:LO:HI:COUNT")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if count < 1:
            raise ValueError("point count must be positive")
        return np.linspace(lo, hi, count)
    try:
        return np.array([float(p) for p in spec.split(",") if p.strip()])
    except ValueError as exc:
        raise ValueError(f"bad points spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _basis_spec(args) -> BasisSpec:
    return BasisSpec(params=JacobiParams(args.alpha, args.beta), mode=args.mode)


def cmd_expand(args) -> int:
    spec = _basis_spec(args)
    f = parse_function(args.fn, getattr(args, "infile", None))
    if spec.mode == "half":
        e = analyze_half(spec, f, args.n)
    else:
        e = analyze_full(spec, f, args.n)
    rows = [{"m": m, "c": c} for m, c in enumerate(e.coeffs)]
    write_table(args.out, ("m", "c"), rows, args.format)
    print(f"tail |c_{args.n - 1}| = {abs(e.coeffs[-1]):.6e}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    spec = _basis_spec(args)
    coeffs = read_coefficients(args.infile)
    e = Expansion(spec=spec, coeffs=coeffs)
    pts = parse_points(args.points)
    vals = synthesize(e, pts)
    rows = [{"x": x, "value": v} for x, v in zip(pts, vals)]
    write_table(args.out, ("x", "value"), rows, args.format)
    return 0


def cmd_diff(args) -> int:
    spec = _basis_spec(args)
    coeffs = read_coefficients(args.infile)
    # one-slot zero pad so the derivative window is exact
    padded = np.concatenate([coeffs, [0.0]])
    d = diff_coeffs(spec.params, padded.size)
    derivative = Expansion(spec=spec, coeffs=diff_apply(d, padded))
    pts = parse_points(args.points)
    vals = synthesize(derivative, pts)
    rows = [{"x": x, "value": v} for x, v in zip(pts, vals)]
    write_table(args.out, ("x", "value"), rows, args.format)
    return 0


def cmd_ft(args) -> int:
    spec = _basis_spec(args)
    if spec.mode != "full":
        raise ValueError("the Fourier transform command requires full-mode expansions")
    coeffs = read_coefficients(args.infile)
    e = Expansion(spec=spec, coeffs=coeffs)
    xi = parse_points(args.points)
    vals = fourier_transform(e, xi)
    rows = [{"xi": x, "re": v.real, "im": v.imag} for x, v in zip(xi, vals)]
    write_table(args.out, ("xi", "re", "im"), rows, args.format)
    return 0


def cmd_solve(args) -> int:
    spec = _basis_spec(args)
    if spec.mode != "full":
        raise ValueError("the solver works on full-mode expansions")
    if args.bandwidth >= args.n:
        raise ValueError(f"bandwidth must be smaller than n (got M={args.bandwidth}, n={args.n})")
    # file inputs may carry either samples (expanded here) or ready-made
    # coefficient tables (used verbatim)
    if args.a_in is not None and sniff_table(args.a_in) == "coeffs":
        a_coeffs = read_coefficients(args.a_in)
        if a_coeffs.size > args.bandwidth + 1 and np.any(a_coeffs[args.bandwidth + 1 :] != 0.0):
            raise ValueError("coefficients of a exceed the declared bandwidth")
        a_coeffs = a_coeffs[: args.bandwidth + 1]
    else:
        a_coeffs = analyze_unweighted(parse_function(args.a_fn, args.a_in), args.bandwidth)
    mult = mult_op(a_coeffs, args.bandwidth, args.n)
    if args.f_in is not None and sniff_table(args.f_in) == "coeffs":
        coeffs = read_coefficients(args.f_in)
        padded = np.zeros(args.n)
        padded[: min(coeffs.size, args.n)] = coeffs[: args.n]
        rhs = Expansion(spec, padded)
    else:
        rhs = analyze_full(spec, parse_function(args.f_fn, args.f_in), args.n)
    d = diff_coeffs(spec.params, args.n + max(1, args.bandwidth))
    result = solve_first_order(d, mult, rhs, args.n)
    rows = [{"m": m, "c": c} for m, c in enumerate(result.expansion.coeffs)]
    write_table(args.out, ("m", "c"), rows, args.format)
    if args.points is not None:
        pts = parse_points(args.points)
        vals = synthesize(result.expansion, pts)
        vrows = [{"x": x, "value": v} for x, v in zip(pts, vals)]
        write_table(args.values_out, ("x", "value"), vrows, args.format)
    print(f"residual={result.residual!r}")
    return 0


def cmd_basis(args) -> int:
    spec = _basis_spec(args)
    try:
        ms = [int(p) for p in args.m_list.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad m list {args.m_list!r}: {exc}") from exc
    if not ms or any(m < 0 for m in ms):
        raise ValueError("m list must hold nonnegative integers")
    pts = parse_points(args.points)
    columns = ["x"] + [f"phi_{m}" for m in ms]
    cols = {m: np.atleast_1d(phi_full(BasisSpec(spec.params, "full"), m, pts)) for m in ms}
    rows = []
    for i, x in enumerate(pts):
        row = {"x": x}
        for m in ms:
            row[f"phi_{m}"] = cols[m][i]
        rows.append(row)
    write_table(args.out, tuple(columns), rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="Jacobi exponent alpha (> -1)")
    p.add_argument("--beta", type=float, required=True, help="Jacobi exponent beta (> -1)")
    p.add_argument("--mode", choices=("full", "half"), default="full")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tanhspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expansion coefficients of a function")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of coefficients")
    p.add_argument("--fn", default=None, help="builtin NAME[:params]")
    p.add_argument("--in", dest="infile", default=None, help="samples file (x,value)")
    p.set_defaults(fn_cmd=cmd_expand)

    p = sub.add_parser("eval", help="evaluate a coefficient table at points")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="coefficient table (m,c)")
    p.add_argument("--points", required=True, help="'lin:LO:HI:N' or comma list")
    p.set_defaults(fn_cmd=cmd_eval)

    p = sub.add_parser("diff", help="evaluate the derivative of a coefficient table")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="coefficient table (m,c)")
    p.add_argument("--points", required=True)
    p.set_defaults(fn_cmd=cmd_diff)

    p = sub.add_parser("ft", help="Fourier transform of a coefficient table")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="coefficient table (m,c)")
    p.add_argument("--points", required=True, help="xi grid")
    p.set_defaults(fn_cmd=cmd_ft)

    p = sub.add_parser("solve", help="solve u' + a(x) u = f")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-fn", default=None, help="builtin for the variable coefficient a")
    p.add_argument("--a-in", default=None, help="samples file for a")
    p.add_argument("--f-fn", default=None, help="builtin for the right-hand side f")
    p.add_argument("--f-in", default=None, help="samples file for f")
    p.add_argument("--bandwidth", type=int, default=8, help="coefficient count of a minus one")
    p.add_argument("--points", default=None, help="optional sampling grid for u")
    p.add_argument("--values-out", default=None, help="where sampled u goes")
    p.set_defaults(fn_cmd=cmd_solve)

    p = sub.add_parser("basis", help="tabulate basis functions for plotting")
    _add_common(p)
    p.add_argument("--m-list", required=True, help="comma-separated degrees")
    p.add_argument("--points", required=True)
    p.set_defaults(fn_cmd=cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn_cmd(args)
    # LinAlgError subclasses ValueError, so the numerical branch comes first
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
