"""Jacobi polynomial evaluation and Gauss-Jacobi quadrature.

Each three-term recurrence t q_m = e_{m-1} q_{m-1} + B_m q_m + e_m q_{m+1}
is built once per (pair, family, length) into a read-only table
(recurrence: the Jacobi matrix in t, or B = 0, e = b_m in Fourier space),
the one place that knows its layout.  One kernel, orthonormal_blocks,
streams the orthonormal polynomials of a table in blocks of rescaled rows
(one BLAS product per block, then one multiply and one subtract per degree
and point), with a log scale per point.  The Gauss weights, the sums
(forward_sum: every pointwise value of basis and fourier) and their
transpose, the quadrature projections of transforms (project), reduce a
block with one product.  Gauss-Jacobi rules come from the same kernel:
Newton sweeps in theta = arccos t from O(n) Liouville-Green angles
(gauss_jacobi), each weight a log from the sweep that finishes its node, and
a rule certified by Sturm's spacing bound.  The rules double as the slow,
fully general transform path and the fast paths' oracle.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .special import JacobiParams, log_jacobi_norm

__all__ = [
    "QuadratureRule",
    "recurrence",
    "orthonormal_blocks",
    "forward_sum",
    "project",
    "gauss_jacobi",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Jacobi nodes and log weights ln w_k for the weight (1-t)^alpha (1+t)^beta.

    angles are the nodes' theta in (0, pi), decreasing, with nodes == cos(angles).
    """

    nodes: np.ndarray
    log_weights: np.ndarray
    params: JacobiParams
    angles: np.ndarray

    @property
    def weights(self) -> np.ndarray:  # exp(log_weights): inf or 0 where a weight leaves the float range
        return np.exp(self.log_weights)


class Recurrence(NamedTuple):
    """The table of one three-term recurrence t q_m = e_{m-1} q_{m-1} + B_m q_m + e_m q_{m+1}, m < n (_table)."""

    B: np.ndarray
    e: np.ndarray
    s: np.ndarray  # s_m = 1 / sigma_m, sigma_0 = sigma_1 = 1, sigma_{m+1} = sigma_{m-1} e_m / e_{m-1}
    C: np.ndarray  # 0 in row 0, [g_{m-1}, -g_{m-1} B_{m-1}] in row m > 0, g_m = sigma_{m+1} / (sigma_m e_m)
    b: np.ndarray  # the couplings b_m that recurrence builds e from (e itself in 'carlitz' and in a _table)


def _table(B: np.ndarray, e: np.ndarray) -> Recurrence:
    """The Recurrence of (B, e), one length: C[m] @ [t; 1] is g_{m-1} (t - B_{m-1}), the factor of row m."""
    sigma = np.ones(len(B) + 1)
    ratio = e[1:] / e[:-1]
    sigma[2::2] = np.cumprod(ratio[0::2])
    sigma[3::2] = np.cumprod(ratio[1::2])
    C = np.zeros((len(B), 2))
    C[1:, 0] = sigma[1:-1] / (sigma[:-2] * e[:-1])
    C[1:, 1] = -C[1:, 0] * B[:-1]
    return Recurrence(B, e, 1.0 / sigma[:-1], C, e)


_TABLES: dict = {}  # recurrence's cache


def recurrence(params: JacobiParams, family: str, n: int) -> Recurrence:
    """The read-only table of the first n rows of the pair's recurrence: a prefix of one table per (params, family).

    Here alone the differentiation couplings b_m = sqrt[(m+1)(a+m+1)(b+m+1)(a+b+m+1) / ((a+b+2m+1)(a+b+2m+3))]
    are computed, into the table's b (diff_coeffs and the Newton step read the 'jacobi' one); their factor
    (a+b+m+1)/(a+b+2m+1) is 1 at m = 0, which resolves the removable 0/0 at a+b = -1.  'jacobi' is the
    orthonormal Jacobi matrix in t: e_m = C_m sqrt(g_{m+1}/g_m) = 2 b_m / (a+b+2m+2), and B_0 = (b-a)/(a+b+2)
    the cancelled form of B_m = (b^2-a^2)/((a+b+2m)(a+b+2m+2)), 0/0 at m = 0 when a+b = 0; 'carlitz' is the
    Fourier side, xi p_m = b_{m-1} p_{m-1} + b_m p_{m+1}: B = 0, e = b.  Each array is elementwise in m or a
    running product over m, so n rows of a longer table are the n-row table bit for bit: a request within the
    pair's longest table returns views of its first n rows, a longer one rebuilds it once at n rows.  16 (params,
    family) entries are kept, the least recently used leaving first, of 48 n bytes (3.1 MB at n = 4096).  Raises
    OverflowError where a+b is past the float range."""
    if family not in ("jacobi", "carlitz"):
        raise ValueError(f"unknown recurrence family {family!r}")
    if n < 1:
        raise ValueError(f"count must be positive (got {n})")
    table = _TABLES.pop((params, family), None)
    if table is None or len(table.s) < n:
        a, b = params.alpha, params.beta
        s = a + b
        if math.isinf(s):
            raise OverflowError(f"alpha + beta is past the float range at {params}")
        m, B = np.arange(n, dtype=float), np.zeros(n)
        factor = np.divide(s + m + 1.0, s + 2.0 * m + 1.0, out=np.ones(n), where=m > 0.0)
        e = couplings = np.sqrt((m + 1.0) * (a + m + 1.0) * (b + m + 1.0) / (s + 2.0 * m + 3.0) * factor)
        if family == "jacobi":
            e = 2.0 * couplings / (a + b + 2.0 * m + 2.0)
            B[0] = (b - a) / (a + b + 2.0)
            B[1:] = (b - a) * (b + a) / ((a + b + 2.0 * m[1:]) * (a + b + 2.0 * m[1:] + 2.0))
        table = _table(B, e)._replace(b=couplings)
        for arr in table:
            arr.flags.writeable = False
    _TABLES[params, family] = table
    if len(_TABLES) > 16:
        del _TABLES[next(iter(_TABLES))]
    return table if n == len(table.s) else Recurrence(*(arr[:n] for arr in table))


#: Byte budget of one K-row block of orthonormal_blocks; K is clamped to
#: 8..64 rows, so small point sets still get long blocks and large ones stay
#: within a few hundred KiB.
_BLOCK_BYTES = 256 * 1024


def _blocking(table: Recurrence, t: np.ndarray) -> tuple[int, int]:
    """Rows K per block (within _BLOCK_BYTES) and blocks between carry checks, so that the given table's rows at t
    grow by at most e^250 between checks: |p_{m+1}| <= (1 + max g max|t - B|) max(|p_m|, |p_{m-1}|), m < n - 1."""
    g, B = table.C[1:, 0].max(initial=0.0), np.abs(table.B[:-1]).max(initial=0.0)
    most = math.log1p(g * (np.fmax.reduce(np.abs(t), None, initial=0.0) + B))
    k = min(64, max(8, _BLOCK_BYTES // (8 * max(t.size, 1)) - 1), max(1, int(250.0 / max(most, 1.0))))
    return k, max(1, int(250.0 / max(k * most, 1.0)))


def _fill(C: np.ndarray, F: np.ndarray, lo: int, out: np.ndarray) -> None:
    """Write the factors C[m] @ F of the rows m = lo, lo+1, ... of one block into out by one BLAS product.
    BLAS rounds a product with one row or one column by another path, so a one-row block runs doubled and F
    has two columns (orthonormal_blocks runs one point as two): a factor does not depend on the block's shape."""
    rows = C[lo : lo + len(out)]
    if len(rows) != 1:
        np.matmul(rows, F, out=out)
    else:
        out[:] = (np.repeat(rows, 2, axis=0) @ F)[:1]


def orthonormal_blocks(table: Recurrence, points: np.ndarray, log_scale):
    """Yield q_0(t), ..., q_{n-1}(t) at the 1-d `points` as blocks (s, P, log_scale): q_m = s_m P_m e^log_scale.

    The q_m are orthonormal for the recurrence of the table (recurrence, or
    _table of any (B, e)), q_0 = exp(log_scale), one value or one per point.
    The rows run p_{m+1} = g_m (t - B_m) p_m - p_{m-1} from the carries
    (p_{-2}, p_{-1}) = (-1, 0): row 0's factor is 0, so the first step gives
    p_0 = 1.  One BLAS product per block of K <= n rows writes the factors
    into their rows (_fill), rounded as fl(fl(g t) - g B), possibly fused,
    where a subtraction first gives fl(g fl(t - B)); for B = 0 both are
    fl(g t).  P is a contiguous (K, points) view of one reused buffer (one
    point runs as two equal columns, at half the cost per row, and P copies
    the first), the caller's to overwrite until the next block; the last block
    may be shorter.  Every few blocks (_blocking) a point whose carry rows pass
    2^128 has them divided by a power of two, whose log joins a new log_scale
    array (until then, the argument); rows stay below 2^128 e^250, so their
    squares are finite.
    """
    t = np.asarray(points, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"points must be 1-d (got shape {t.shape})")
    u = np.repeat(t, 2) if t.size == 1 else t
    s, C, F = table.s, table.C, np.array([u, np.ones(u.size)])
    k, every = _blocking(table, t)
    k = min(k, len(s))
    # buf[:2] carry p_{lo-2}, p_{lo-1} into the rows lo.. in buf[2:], copied before a yield (the caller may write)
    buf = np.zeros((k + 2, u.size))
    buf[0] = -1.0  # (p_{-2}, p_{-1}) = (-1, 0)
    steps = [(buf[i], buf[i - 1], buf[i - 2]) for i in range(2, k + 2)]  # (p_m, p_{m-1}, p_{m-2})
    for lo in range(0, len(s), k):
        size = min(k, len(s) - lo)
        if lo and lo % (k * every) == 0 and np.fmax.reduce(big := np.abs(buf[:2, : t.size]), axis=None) > 2.0**128:
            shift = np.where(big > 2.0**128, np.frexp(big)[1], 0).max(axis=0)
            np.ldexp(buf[:2], -shift, out=buf[:2])
            log_scale = log_scale + shift * math.log(2.0)
        _fill(C, F, lo, buf[2 : size + 2])
        for p, p1, p2 in steps[:size]:
            p *= p1
            p -= p2
        buf[:2] = buf[size : size + 2]
        yield s[lo : lo + size], np.ascontiguousarray(buf[2 : size + 2, : t.size]), log_scale


def forward_sum(table: Recurrence, coeffs: np.ndarray, points: np.ndarray, log_start) -> np.ndarray:
    """sum_m coeffs[..., m] q_m(points) over the q_m of orthonormal_blocks, one product per block."""
    acc, unit, m = np.zeros(coeffs.shape[:-1] + np.shape(points)), log_start, 0  # acc in units of exp(unit)
    for s, P, log_scale in orthonormal_blocks(table, points, log_start):
        if log_scale is not unit:
            acc, unit = acc * np.exp(unit - log_scale), log_scale
        acc += (coeffs[..., m : m + len(s)] * s) @ P
        m += len(s)
    return acc * np.exp(unit)


def project(table: Recurrence, values: np.ndarray, points: np.ndarray, log_start) -> np.ndarray:
    """sum_k values[..., k] q_m(points[k]), m < n, over the q_m of orthonormal_blocks: the transpose of
    forward_sum, one product per block."""
    scaled, out = values * np.exp(log_start), []  # values in units of exp(-log_scale): q_m = s_m P_m exp(log_scale)
    for s, P, log_scale in orthonormal_blocks(table, points, log_start):
        if log_scale is not log_start:
            scaled, log_start = values * np.exp(log_scale), log_scale
        out.append(s * (P @ scaled[..., None])[..., 0])
    return np.concatenate(out, axis=-1)


#: A Newton node is finished in the sweep whose step would move t by at most this.
_STEP_TOL = 4e-16
#: Newton sweeps after which a rule with unfinished nodes raises.
_MAX_SWEEPS = 8
#: The least ratio of node gap to Sturm's spacing bound (_spacing) a rule may show: 1 in exact arithmetic.
_SPACING_SLACK = 1e-9


def _sweep(params: JacobiParams, n: int, t: np.ndarray):
    """q_{n-1}(t), q_n(t) in units of one scale per point, and log weights -2 log scale - ln sum_{m<n} p_m(t)^2
    = -ln sum q_m^2, from one orthonormal_blocks pass, finite where sum q_m^2 is not."""
    unit = -0.5 * log_jacobi_norm(params)
    total, last, lo = np.zeros(t.size), np.zeros((2, t.size)), 0
    for s, P, log_scale in orthonormal_blocks(recurrence(params, "jacobi", n + 1), t, unit):
        if log_scale is not unit:  # total in units of exp(2 unit), last of exp(unit)
            total, last, unit = total * np.exp(2.0 * (unit - log_scale)), last * np.exp(unit - log_scale), log_scale
        if lo + len(s) >= n:  # the rows of q_{n-1} and q_n; the buffer is reused, and the weights sum rows m < n
            last += (np.eye(2, len(s), n - 1 - lo) * s) @ P
            s, P = s[: n - lo], P[: n - lo]
        total += (s * s) @ np.square(P, out=P)
        lo += len(s)
    return *last, -2.0 * unit - np.log(total)


def _newton_sweep(params: JacobiParams, n: int, theta: np.ndarray, log_weights: np.ndarray,
                  active: np.ndarray) -> np.ndarray:
    """One Newton sweep at theta[active], in place; returns the nodes still active.

    The step is Newton's on u = sin(theta/2)^(a+1/2) cos(theta/2)^(b+1/2)
    q_n(cos theta), which solves u'' + Q u = 0 (Szego 4.24.2); since u'' = 0
    at a node, the factor 1 - Q d^2/3 removes the leading error Q d^3/3 of
    the plain step d.  A node whose step would move t by at most _STEP_TOL
    is finished: it keeps the angle it was evaluated at and takes its log
    weight -ln sum_{m<n} q_m^2 from this sweep.  Steps are not safeguarded:
    two angles started in one basin show in gauss_jacobi's certificate.
    """
    a, b = params.alpha, params.beta
    s = a + b
    th = theta[active]
    t = np.cos(th)
    q_prev, q_n, w = _sweep(params, n, t)
    # (1 - t^2) q_n' = (c - n t) q_n + D q_{n-1}, with D = (2n+a+b+1) e_{n-1}
    c = n * (a - b) / (2.0 * n + s)
    D = 2.0 * recurrence(params, "jacobi", n + 1).b[n - 1] * (2.0 * n + s + 1.0) / (2.0 * n + s)
    sin_h, cos_h = np.sin(0.5 * th), np.cos(0.5 * th)
    sin_t = 2.0 * sin_h * cos_h
    # d = -u/u', where u'/u = dlog - (1 - t^2) q_n' / (sin(theta) q_n) and
    # dlog is the derivative of the log of u's prefactor
    dlog = 0.5 * ((a + 0.5) * cos_h / sin_h - (b + 0.5) * sin_h / cos_h)
    step = q_n * sin_t / ((c - n * t) * q_n + D * q_prev - dlog * sin_t * q_n)
    done = np.abs(sin_t * step) <= _STEP_TOL
    rho = n + 0.5 * (s + 1.0)
    Q = rho * rho + (0.25 - a * a) / (4.0 * sin_h**2) + (0.25 - b * b) / (4.0 * cos_h**2)
    step *= 1.0 - Q * step**2 / 3.0
    log_weights[active[done]] = w[done]
    theta[active[~done]] += step[~done]
    return active[~done]


def _start_angles(params: JacobiParams, n: int) -> np.ndarray:
    """Liouville-Green angles of the n-point rule's nodes, increasing (Olver, ch. 6 and 11).  Q of _newton_sweep,
    with Langer's change 1/4 - a^2 -> -a^2, has turning points x_-, x_+ in x = cos theta = c_0 + r cos psi, and
    node k solves Phi(psi) = rho psi - |a| atan(rho (1 - x_-) tan(psi/2) / |a|) - |b| atan(|b| tan(psi/2) /
    (rho (1 + x_+))) = (k - 1/4 + min(a, 0)) pi, by Newton steps safeguarded by bisection.  Then come the 1/4
    that Langer drops, cot(theta) / (8 rho^2), and the next term of McMahon's Bessel zeros at each end.  Next to
    p < -1/2, where Phi has no root, the end node is j / kappa: j the first zero of J_p as a series in p + 1,
    kappa^2 the constant term of Q at that end.  The angles stay where their cosines are inside (-1, 1)."""
    a, b, m = params.alpha, params.beta, n + 0.5
    rho = m + 0.5 * (a + b)
    # r = (x_+ - x_-) / 2, minus = 1 - x_-, plus = 1 + x_+ and 2 sin^2, 2 cos^2 of theta/2 as sums of positive terms
    r = math.sqrt((m + a) / rho * ((m + b) / rho)) * math.sqrt(m / rho * (max(m + a + b, 0.0) / rho))
    minus = (m + 0.5 * a) / rho * ((rho + 0.5 * b) / rho) + (0.5 * a / rho) ** 2 + r
    plus = (m + 0.5 * b) / rho * ((rho + 0.5 * a) / rho) + (0.5 * b / rho) ** 2 + r
    target = (np.arange(a < -0.5, n - (b < -0.5)) + 0.75 + min(a, 0.0)) * math.pi
    psi = target / (rho - 0.5 * (abs(a) + abs(b)))  # Phi(pi) = pi (rho - (|a| + |b|) / 2)
    lo, hi, active = np.zeros(psi.size), np.full(psi.size, math.pi), np.arange(psi.size)
    for _ in range(60):  # bisection alone narrows [0, pi] below 1e-17 in 60 steps
        x = psi[active]
        u = np.tan(0.5 * x)
        ua, ub = rho * minus * u / abs(a), abs(b) * u / (rho * plus)
        f = rho * x - abs(a) * np.arctan(ua) - abs(b) * np.arctan(ub) - target[active]
        step = f / (0.5 * (1.0 + u * u) * (rho * minus / (1.0 + ua**2) + b * b / (rho * plus) / (1.0 + ub**2)) - rho)
        lo[active], hi[active] = np.where(f < 0.0, x, lo[active]), np.where(f < 0.0, hi[active], x)
        wild = ~((lo[active] <= x + step) & (x + step <= hi[active]))
        psi[active] = np.where(wild, 0.5 * (lo[active] + hi[active]), x + step)
        if not (active := active[wild | (np.abs(step) > 1e-5 * math.pi / rho)]).size:
            break
    sin2 = np.sin(0.5 * psi) ** 2  # 1 - x = (1 - x_+) + 2 r sin^2(psi/2), 1 - x_+ = (a / rho)^2 / minus
    theta = 2.0 * np.arctan2(np.sqrt(0.5 * (a / rho) ** 2 / minus + r * sin2),
                             np.sqrt(0.5 * (b / rho) ** 2 / plus + r - r * sin2))
    edge = ((a * a / 3.0 - 31.0 / 384.0) / theta**3 - (b * b / 3.0 - 31.0 / 384.0) / (math.pi - theta) ** 3) / rho**2
    theta += (0.125 / np.tan(theta) + edge) / rho**2

    def end(p, q):  # the end angle next to p < -1/2
        e = p + 1.0
        j2 = e * (4.0 + e * (2.0 - e * (1.0 / 3.0 - 7.0 * e / 36.0)))
        return math.sqrt(j2 / ((m + 0.5 * p) * (m + 0.5 * p + q) + (1.0 - p * p) / 12.0))

    head = [end(a, b)] if a < -0.5 else []
    tail = [math.pi - end(b, a)] if b < -0.5 else []
    theta = np.concatenate([head, theta, tail])[:n]  # at n = 1 with a, b < -1/2: head alone
    return np.clip(theta, math.acos(1.0 - 2.0**-53), math.pi - math.acos(1.0 - 2.0**-53))


def _spacing(params: JacobiParams, angles: np.ndarray) -> float:
    """The least gap of adjacent angles in units of pi / sqrt(max Q), Q of _newton_sweep over the gap: at least 1
    between consecutive zeros of u (Sturm), with max Q <= rho^2 + max(0, 1/4 - a^2) / (4 sin^2(theta_k / 2))
    + max(0, 1/4 - b^2) / (4 cos^2(theta_k+1 / 2)) over [theta_k, theta_k+1]."""
    a, b, th = params.alpha, params.beta, angles[::-1]
    rho = len(angles) + 0.5 * (a + b + 1.0)
    most = (rho * rho + max(0.0, 0.25 - a * a) / (4.0 * np.sin(0.5 * th[:-1]) ** 2)
            + max(0.0, 0.25 - b * b) / (4.0 * np.cos(0.5 * th[1:]) ** 2))
    return float(np.min(np.diff(th) * np.sqrt(most), initial=np.inf)) / math.pi


def gauss_jacobi(params: JacobiParams, n: int) -> QuadratureRule:
    """n-point Gauss-Jacobi rule: Newton's method on the recurrence kernel from Liouville-Green angles.

    Nodes t_k = cos theta_k come from O(n) angles (_start_angles) polished by two or three Newton sweeps of
    orthonormal_blocks (_newton_sweep) over the nodes not yet finished; each log weight -ln sum_m q_m(t_k)^2
    comes from the sweep that finished its node; the angles decrease, with nodes == cos(angles) bitwise.  At a = b
    the sweeps run on the (n + 1) // 2 angles up to pi/2, and the rest are pi - theta_k with the same log weights,
    a swept angle moved first (by at most 3 ulps of its mirror) where that makes the mirror's cosine -t_k.  No
    floating-point error is raised; the log weights are finite also where the weights are not (at (0, 1500) they
    sum to 2^(a+b+1) B(a+1, b+1) > 1.8e308).  A RuntimeError names the cause unless the rule passes its
    certificate: every node finished within _MAX_SWEEPS sweeps, finite log weights, nodes strictly increasing
    inside (-1, 1), and no two nodes on one root (_spacing).
    """
    if n < 1:
        raise ValueError(f"rule size must be positive (got {n})")
    swept = (n + 1) // 2 if params.alpha == params.beta else n  # a = b: the angles up to pi/2, then mirrored
    with np.errstate(all="ignore"):
        theta = _start_angles(params, n)[:swept]
        log_weights, active = np.empty(swept), np.arange(swept)
        for _ in range(_MAX_SWEEPS):
            if active.size:
                active = _newton_sweep(params, n, theta, log_weights, active)
        mirrored, phi = theta[: n - swept], math.pi - theta[: n - swept]  # pi - (pi - phi) == phi (Sterbenz)
        t = np.cos(mirrored)
        for alt in (phi + ulps * np.spacing(phi) for ulps in (1, -1, 2, -2, 3, -3)):
            move = (np.cos(phi) != -t) & (np.cos(alt) == -t) & (np.cos(math.pi - alt) == t)
            mirrored[move], phi[move] = math.pi - alt[move], alt[move]
        # the certificate is on t, not theta: the rows run in t, so distinct angles whose cosines
        # round onto one node, or onto t = +-1 where the weight is singular, make no rule
        angles = np.concatenate([phi, theta[::-1]])
        log_w = np.concatenate([log_weights[: n - swept], log_weights[::-1]])
        nodes = np.cos(angles)
        if active.size:
            cause = f"has nodes unfinished after {_MAX_SWEEPS} Newton sweeps"
        elif not np.all(np.isfinite(log_w)):
            cause = "has log weights that are not finite"
        elif not (0.0 < angles[-1] <= angles[0] < math.pi and -1.0 < nodes[0] <= nodes[-1] < 1.0
                  and np.all(np.diff(nodes) > 0.0)):
            cause = "has nodes that are not strictly increasing inside (-1, 1)"
        elif not (spacing := _spacing(params, angles)) >= 1.0 - _SPACING_SLACK:
            cause = f"has two nodes {spacing:.3g} of Sturm's spacing apart: two on one root"
        else:
            return QuadratureRule(nodes=nodes, log_weights=log_w, params=params, angles=angles)
    raise RuntimeError(f"Gauss-Jacobi rule at {params} {cause}")
