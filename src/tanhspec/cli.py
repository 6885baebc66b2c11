"""Command-line front end.

Named test functions or sampled data in; CSV/JSON coefficient tables,
derivative values, Fourier-transform profiles, first-order ODE solutions
and basis plot data out.  Exit codes: 0 success, 2 usage/domain error,
3 numerical failure.  Error paths print a single `error: ...` line on
stderr.  `solve` reads its a(x) as a T~_k(tanh x) series on every pair.
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
#: `solve` warns on stderr when |L u - f| / |f| exceeds this: the equation may
#: have no L2 solution (say a(x) -> 0 at both ends), or N may be too small
_RESIDUAL_WARNING = 1e-2


# ---------------------------------------------------------------------------
# builtin test functions; parse_function has checked that the parameter is finite


def _gaussian(rate=1.0):
    if rate < 0.0:
        raise ValueError(f"gaussian rate must be >= 0 (got {rate})")
    return lambda x: np.exp(-rate * np.asarray(x, dtype=float) ** 2)


def _sech_of(y: np.ndarray) -> np.ndarray:
    # 2 e^{-|y|} / (1 + e^{-2|y|}): no cosh, which overflows past |y| = 710
    e = np.exp(-np.abs(y))
    return 2.0 * e / (1.0 + e * e)


def _sech(rate=1.0):
    return lambda x: _sech_of(rate * np.asarray(x, dtype=float))


def _sech_tanh(rate=1.0):
    def f(x):
        x = rate * np.asarray(x, dtype=float)
        return np.tanh(x) * _sech_of(x)

    return f


def _runge_tanh(scale=25.0):
    if scale <= -1.0:
        raise ValueError(f"runge_tanh scale must exceed -1 (got {scale})")
    return lambda x: 1.0 / (1.0 + scale * np.tanh(np.asarray(x, dtype=float)) ** 2)


def _bump(rate=1.0):
    if rate < 0.0:
        raise ValueError(f"bump rate must be >= 0 (got {rate})")
    return lambda x: np.exp(-rate * np.sinh(np.asarray(x, dtype=float)) ** 2)


_BUILTINS = {
    "gaussian": _gaussian,
    "sech": _sech,
    "sech_tanh": _sech_tanh,
    "runge_tanh": _runge_tanh,
    "bump": _bump,
}


# entries of one (points x nodes) block of the barycentric sum, 2 MiB in float64
_BLOCK_ENTRIES = 1 << 18


def _fh_weights(nodes: np.ndarray, d: int) -> np.ndarray:
    """Floater-Hormann weights w_k = sum_i (-1)^i prod_{j=i..i+d, j!=k} 1/(x_k - x_j).

    One array pass per (position in the window, partner) pair over all
    windows i; the divisions (ascending j) and the sum over windows
    (ascending i) run in the order of the textbook triple loop, so the
    weights match it bit for bit.
    """
    starts = nodes.size - d
    sign = np.where(np.arange(starts) % 2, -1.0, 1.0)
    w = np.zeros(nodes.size)
    for p in range(d, -1, -1):  # node k = i + p, so descending p is ascending i
        prod = np.ones(starts)
        for q in range(d + 1):
            if q != p:
                prod /= nodes[p : p + starts] - nodes[q : q + starts]
        w[p : p + starts] += sign * prod
    return w


def _barycentric(x_samples: np.ndarray, values: np.ndarray):
    """Rational barycentric interpolant (Floater-Hormann, blend degree 3).

    Works directly in x, where sample grids are typically near-uniform:
    stable for arbitrary strictly increasing nodes (no spurious poles),
    exact on cubics, locally O(h^4) accurate, and constant beyond the
    sampled window (expansion grids reach far into the tails, where decayed
    samples pin the interpolant).
    """
    nodes = np.asarray(x_samples, dtype=float)
    w = _fh_weights(nodes, min(3, nodes.size - 1))
    block = max(1, _BLOCK_ENTRIES // nodes.size)  # points per block

    def f(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # the end sample beyond the window, a node's own sample on it, else the sum
        k = np.minimum(np.searchsorted(nodes, xs), nodes.size - 1)
        out = values[k]
        (free,) = np.nonzero(~((xs <= nodes[0]) | (xs >= nodes[-1]) | (nodes[k] == xs)))
        for s in range(0, free.size, block):
            idx = free[s : s + block]
            r = w / (xs[idx, None] - nodes)
            out[idx] = (r @ values) / r.sum(axis=1)
        return out if np.ndim(x) else float(out[0])

    return f


def parse_function(spec: str | None, path: str | None):
    """Resolve --fn NAME[:p1,p2] or a samples file into a callable."""
    if (spec is None) == (path is None):
        raise ValueError("exactly one of a builtin name or a samples file is required")
    if spec is None:
        return _interpolant(read_table(path), path)
    name, _, argstr = spec.partition(":")
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; choices: {', '.join(sorted(_BUILTINS))}")
    args = [float(p) for p in argstr.split(",")] if argstr else []
    if not all(map(math.isfinite, args)):
        raise ValueError(f"builtin {name!r} parameters must be finite (got {argstr!r})")
    try:
        return _BUILTINS[name](*args)
    except TypeError:
        raise ValueError(f"builtin {name!r} takes at most one parameter (got {len(args)})") from None


def _interpolant(table: dict, path: str):
    xs, vals = _columns(table, path, ("x", "value"))
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vals))):
        raise ValueError(f"sample file {path!r} holds a non-finite x or value")
    if xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("sample files need at least two strictly increasing x values")
    return _barycentric(xs, vals)


# ---------------------------------------------------------------------------
# tables: name -> column; coefficient (m, c) / value (x, value) / complex (xi, re, im)


def write_table(path: str | None, table: dict, fmt: str) -> None:
    """Write equal-length columns as rows; integer columns print as integers."""
    names = list(table)
    rows = list(zip(*(np.asarray(col).tolist() for col in table.values())))
    if fmt == "csv":
        text = "\n".join([",".join(names)] + [",".join(map(repr, row)) for row in rows]) + "\n"
    elif fmt == "json":
        text = json.dumps([dict(zip(names, row)) for row in rows], indent=1) + "\n"
    else:
        raise ValueError(f"format must be csv or json (got {fmt!r})")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def read_table(path: str) -> dict:
    """Parse a CSV or JSON table file once into name -> float column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    malformed = f"malformed table {path!r}"
    if text.lstrip().startswith("["):
        try:
            rows = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{malformed}: {exc}") from None
        if not all(isinstance(row, dict) for row in rows):
            raise ValueError(f"{malformed}: every row must be an object")
        names = list(rows[0]) if rows else []
        try:
            cells = [[row[c] for c in names] for row in rows]
        except KeyError as exc:
            raise ValueError(f"{malformed}: a row lacks column {exc}") from None
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        names = [h.strip() for h in lines[0].split(",")] if lines else []
        cells = [ln.split(",") for ln in lines[1:]]
        ragged = [ln for ln, row in zip(lines[1:], cells) if len(row) != len(names)]
        if ragged:
            raise ValueError(f"{malformed}: ragged row {ragged[0]!r}")
    if not cells:
        raise ValueError(f"empty table file {path!r}")
    try:
        data = np.array([[float(v) for v in row] for row in cells])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{malformed}: {exc}") from None
    return dict(zip(names, data.T))


def _columns(table: dict, path: str, names: tuple[str, ...]) -> list:
    missing = [c for c in names if c not in table]
    if missing:
        raise ValueError(f"malformed table {path!r}: missing column(s) {missing}")
    return [table[c] for c in names]


def _coefficients(table: dict, path: str) -> np.ndarray:
    m, c = _columns(table, path, ("m", "c"))
    order = np.argsort(m, kind="stable")
    if not np.array_equal(m[order], np.arange(m.size)):
        raise ValueError(f"malformed coefficient table {path!r}: indices must be the integers 0..N-1")
    return c[order]


def read_coefficients(path: str) -> np.ndarray:
    return _coefficients(read_table(path), path)


def parse_points(spec: str) -> np.ndarray:
    """Point grids: 'lin:LO:HI:COUNT' or a comma-separated list, all finite."""
    not_finite = f"bad points spec {spec!r}: points must be finite"
    if spec.startswith("lin:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad points spec {spec!r}; expected lin:LO:HI:COUNT")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ValueError(f"bad points spec {spec!r}: {exc}") from exc
        if count < 1:
            raise ValueError("point count must be positive")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(not_finite)
        return np.linspace(lo, hi, count)
    try:
        pts = np.array([float(p) for p in spec.split(",") if p.strip()])
    except ValueError as exc:
        raise ValueError(f"bad points spec {spec!r}: {exc}") from exc
    if pts.size == 0:
        raise ValueError(f"bad points spec {spec!r}: names no point")
    if not np.all(np.isfinite(pts)):
        raise ValueError(not_finite)
    return pts


# ---------------------------------------------------------------------------
# commands


def _basis_spec(args) -> BasisSpec:
    return BasisSpec(params=JacobiParams(args.alpha, args.beta), mode=args.mode)


def _write_values(e: Expansion, pts: np.ndarray, path: str | None, fmt: str) -> None:
    write_table(path, {"x": pts, "value": synthesize(e, pts)}, fmt)


def cmd_expand(args) -> int:
    spec = _basis_spec(args)
    f = parse_function(args.fn, args.infile)
    e = (analyze_half if spec.mode == "half" else analyze_full)(spec, f, args.n)
    write_table(args.out, {"m": np.arange(args.n), "c": e.coeffs}, args.format)
    print(f"tail |c_{args.n - 1}| = {abs(e.coeffs[-1]):.6e}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    e = Expansion(_basis_spec(args), read_coefficients(args.infile))
    _write_values(e, parse_points(args.points), args.out, args.format)
    return 0


def cmd_diff(args) -> int:
    spec = _basis_spec(args)
    # one-slot zero pad so the derivative window is exact
    padded = np.append(read_coefficients(args.infile), 0.0)
    derivative = Expansion(spec, diff_apply(diff_coeffs(spec.params, padded.size), padded))
    _write_values(derivative, parse_points(args.points), args.out, args.format)
    return 0


def cmd_ft(args) -> int:
    e = Expansion(_basis_spec(args), read_coefficients(args.infile))
    xi = parse_points(args.points)
    vals = fourier_transform(e, xi)
    write_table(args.out, {"xi": xi, "re": vals.real, "im": vals.imag}, args.format)
    return 0


def _solve_input(fn: str | None, path: str | None):
    """--X-fn as a callable, or the --X-in table read once: file inputs carry
    either ready-made (m, c) coefficients (used verbatim) or (x, value)
    samples (returned as their interpolant, for the caller to expand)."""
    if path is None or fn is not None:
        return parse_function(fn, path)
    table = read_table(path)
    return _coefficients(table, path) if {"m", "c"} <= table.keys() else _interpolant(table, path)


def cmd_solve(args) -> int:
    spec = _basis_spec(args)
    if spec.mode != "full":
        raise ValueError("the solver works on full-mode expansions")
    if args.bandwidth < 0:
        raise ValueError(f"--bandwidth must be nonnegative (got {args.bandwidth})")
    pts = None if args.points is None else parse_points(args.points)
    a = _solve_input(args.a_fn, args.a_in)
    a_coeffs = a if isinstance(a, np.ndarray) else analyze_unweighted(a, args.bandwidth)
    mult = mult_op(a_coeffs, args.bandwidth, args.n)
    f = _solve_input(args.f_fn, args.f_in)
    if isinstance(f, np.ndarray):
        padded = np.zeros(args.n)
        padded[: f.size] = f[: args.n]
        rhs = Expansion(spec, padded)
    else:
        rhs = analyze_full(spec, f, args.n)
    d = diff_coeffs(spec.params, args.n + max(1, args.bandwidth))
    result = solve_first_order(d, mult, rhs, args.n)
    write_table(args.out, {"m": np.arange(args.n), "c": result.expansion.coeffs}, args.format)
    if pts is not None:
        _write_values(result.expansion, pts, args.values_out, args.format)
    print(f"residual={result.residual!r}")
    size = np.linalg.norm(rhs.coeffs)
    if result.residual > _RESIDUAL_WARNING * size:
        print(f"warning: relative residual {result.residual / size:.2g} > {_RESIDUAL_WARNING:g}: "
              "the equation may have no L2 solution, or --n is too small to resolve it", file=sys.stderr)
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
    write_table(args.out, {"x": pts} | {f"phi_{m}": phi_full(spec, m, pts) for m in ms}, args.format)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="Jacobi exponent alpha (> -1)")
    p.add_argument("--beta", type=float, required=True, help="Jacobi exponent beta (> -1)")
    p.add_argument("--mode", choices=("full", "half"), default="full")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so that main prints it as one `error:` line; subparsers inherit it."""

    def error(self, message):
        raise ValueError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tanhspec", description=__doc__)
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


#: options whose value may start with '-': argparse reads '-1e-3' or '-1,0,1'
#: as an option name, so main glues such a value on as '--opt=value'
_SIGNED_OPTIONS = ("--alpha", "--beta", "--points")


def _glue_signed_values(argv: list[str]) -> list[str]:
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and len(tok) > 1 and tok[0] == "-" and tok[1] in "0123456789.":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_glue_signed_values(sys.argv[1:] if argv is None else list(argv)))
        # an overflow or NaN anywhere is a numerical failure, not NaN output
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn_cmd(args)
    # LinAlgError subclasses ValueError, so the numerical branch comes first
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except OverflowError as exc:  # the math module's message is only "math range error"
        print(f"error: overflow: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
