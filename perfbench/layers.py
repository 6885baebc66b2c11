"""Per-layer metrics of a traced run, one set per module of src/tanhspec.

Times and counts are per task of the traced half of the run (unit
"s/task", "count/task"); medians and fitted exponents are per call.  A
layer absent from a workload reports 0, and notes say why.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from tracing import has_descendant, self_times

CLI_COMMANDS = ("expand", "eval", "diff", "ft", "solve", "basis")

# name -> (unit, better)
METRICS = {
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    **{f"cli.main_s.{c}": ("s", "lower") for c in CLI_COMMANDS},
    "cli.write_table_s": ("s/task", "lower"),
    "cli.read_table_s": ("s/task", "lower"),
    "cli.parse_function_s": ("s/task", "lower"),
    "transforms.analyze_s": ("s/task", "lower"),
    "transforms.analyze_calls": ("count/task", "lower"),
    "transforms.sample_s": ("s/task", "lower"),
    "transforms.sample_points": ("count/task", "lower"),
    "transforms.dct_s": ("s/task", "lower"),
    "transforms.dct_points": ("count/task", "lower"),
    "transforms.fast_self_s": ("s/task", "lower"),
    "transforms.fast_scaling_exp": ("exponent", "lower"),
    "transforms.quad_self_s": ("s/task", "lower"),
    "jacobi.gauss_jacobi_s": ("s/task", "lower"),
    "jacobi.gauss_jacobi_calls": ("count/task", "lower"),
    "jacobi.eig_s": ("s/task", "lower"),
    "jacobi.vandermonde_s": ("s/task", "lower"),
    "jacobi.quad_scaling_exp": ("exponent", "lower"),
    "jacobi.vandermonde_bytes": ("B/task", "lower"),
    "jacobi.vandermonde_peak_bytes": ("B", "lower"),
    "jacobi.rule_repeat_share": ("fraction", "lower"),
    "basis.clenshaw_s": ("s/task", "lower"),
    "basis.clenshaw_calls": ("count/task", "lower"),
    "basis.clenshaw_terms": ("count/task", "lower"),
    "basis.diff_coeffs_s": ("s/task", "lower"),
    "operators.mult_op_s": ("s/task", "lower"),
    "operators.apply_s": ("s/task", "lower"),
    "operators.entry_calls": ("count/task", "lower"),
    "operators.assemble_s": ("s/task", "lower"),
    "operators.qr_s": ("s/task", "lower"),
    "operators.matvec_s": ("s/task", "lower"),
    "operators.solve_self_s": ("s/task", "lower"),
    "operators.solve_scaling_exp": ("exponent", "lower"),
    "fourier.rep_s": ("s/task", "lower"),
    "fourier.rep_calls": ("count/task", "lower"),
    "fourier.normalisation_s": ("s/task", "lower"),
    "fourier.normalisation_calls": ("count/task", "lower"),
    "fourier.mass_check_s": ("s/task", "lower"),
    "fourier.g_weight_s": ("s/task", "lower"),
    "fourier.g_weight_points": ("count/task", "lower"),
    "fourier.transform_self_s": ("s/task", "lower"),
    "special.norm_ratio_calls": ("count/task", "lower"),
    "special.log_gamma_complex_calls": ("count/task", "lower"),
    "special.log_jacobi_norm_calls": ("count/task", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.covered_frac": ("fraction", "higher"),
}


def fit_exponent(samples, groups=None):
    """Least-squares p in log t = p log n + c_g, one intercept per group.

    `samples` holds (n, t) or, with groups, (n, g, t); groups with a single
    distinct n carry no information on p and are dropped.  Returns None
    when fewer than two distinct n remain.
    """
    by = defaultdict(list)
    for s in samples:
        by[s[1] if groups else 0].append((s[0], s[-1]))
    rows, ys, keys = [], [], [g for g, v in by.items() if len({n for n, _ in v}) > 1]
    for j, g in enumerate(keys):
        per_n = defaultdict(list)
        for n, t in by[g]:
            per_n[n].append(t)
        for n, ts in per_n.items():
            row = [math.log(n)] + [0.0] * len(keys)
            row[1 + j] = 1.0
            rows.append(row)
            ys.append(math.log(statistics.median(ts)))
    if not keys or max(r[0] for r in rows) - min(r[0] for r in rows) < math.log(4.0):
        return None  # fewer than two sizes, or a range too narrow to fit
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(ys), rcond=None)
    return float(coef[0])


def parse_importtime(lines):
    """(package import s, scipy import s) from `python -X importtime` output.

    The package figure sums the top-level `tanhspec*` lines; the scipy one
    sums the cumulative time of scipy modules not imported by another scipy
    module, which is what a lazy import would save.
    """
    entries = []
    for ln in lines:
        parts = ln.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip("\n")
        level = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((level, field.strip(), int(parts[1]) * 1e-6))
    pkg = sum(c for lvl, name, c in entries if lvl == 0 and name.split(".")[0] == "tanhspec")
    scipy_s, stack = 0.0, []
    for level, name, cum in reversed(entries):  # reversed post-order lists parents first
        while stack and stack[-1][0] >= level:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_s += cum
        stack.append((level, name))
    return pkg, scipy_s


def _median_subprocess(cmd, env, repeats=3, parse=None):
    vals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        vals.append(parse(p.stderr.splitlines()) if parse else (wall,))
    return [statistics.median(v[i] for v in vals) for i in range(len(vals[0]))]


def per_layer(rec, results, wl):
    """Per-layer metrics and notes from the recorder of a traced run."""
    is_cli = hasattr(wl, "import_logs")
    if is_cli:
        rec.merge_children()
    spans = rec.spans
    own = self_times(spans)
    n_tasks = len(results)
    task_total = sum(r[2] for r in results)
    quad = has_descendant(spans, "jacobi.gauss_jacobi")
    normed = has_descendant(spans, "fourier.normalisation")
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def total(name, pick=lambda i: True, f=dur):
        return sum(f(i) for i in by[name] if pick(i)) / n_tasks

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in by[name]) / n_tasks

    def calls(name):
        return len(by[name]) / n_tasks

    own_of = own.__getitem__
    m, notes = {}, {}
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

    # cli
    m["cli.interp_s"] = _median_subprocess([sys.executable, "-c", "pass"], env)[0]
    if is_cli:
        parsed = [parse_importtime(lines) for lines in wl.import_logs]
        m["cli.import_s"] = statistics.median(p[0] for p in parsed)
        m["cli.import_scipy_s"] = statistics.median(p[1] for p in parsed)
    else:
        m["cli.import_s"], m["cli.import_scipy_s"] = _median_subprocess(
            [sys.executable, "-X", "importtime", "-c", "import tanhspec.cli"], env, parse=parse_importtime)
    for c in CLI_COMMANDS:
        ts = [dur(i) for i in by["cli.main"] if spans[i][4] and spans[i][4]["cmd"] == c]
        m[f"cli.main_s.{c}"] = statistics.median(ts) if ts else 0.0
    m["cli.write_table_s"] = total("cli.write_table")
    m["cli.read_table_s"] = total("cli.read_table")
    m["cli.parse_function_s"] = total("cli.parse_function")

    # transforms
    m["transforms.analyze_s"] = total("transforms.analyze")
    m["transforms.analyze_calls"] = calls("transforms.analyze")
    m["transforms.sample_s"] = total("transforms.sample")
    m["transforms.sample_points"] = attr_sum("transforms.sample", "points")
    m["transforms.dct_s"] = total("transforms.dct")
    m["transforms.dct_points"] = attr_sum("transforms.dct", "points")
    m["transforms.fast_self_s"] = total("transforms.analyze", lambda i: not quad[i], own_of)
    m["transforms.quad_self_s"] = total("transforms.analyze", lambda i: quad[i], own_of)
    fast = [(spans[i][4]["n"], dur(i)) for i in by["transforms.analyze"] if not quad[i]]
    p = fit_exponent(fast)
    m["transforms.fast_scaling_exp"] = p or 0.0
    if p is not None:
        ns = sorted({n for n, _ in fast})
        notes["fast_scaling_reference_nlogn"] = fit_exponent([(n, n * math.log(n)) for n in ns])
        notes["fast_scaling_n_range"] = [ns[0], ns[-1]]
        # per-call overhead flattens the small sizes; the top decade shows the kernel
        notes["fast_scaling_exp_top_decade"] = fit_exponent([s for s in fast if s[0] >= ns[-1] / 10])

    # jacobi
    m["jacobi.gauss_jacobi_s"] = total("jacobi.gauss_jacobi")
    m["jacobi.gauss_jacobi_calls"] = calls("jacobi.gauss_jacobi")
    m["jacobi.eig_s"] = total("jacobi.eig")
    m["jacobi.vandermonde_s"] = total("jacobi.vandermonde")
    gj = [(spans[i][4]["n"], dur(i)) for i in by["jacobi.gauss_jacobi"]]
    p = fit_exponent(gj)
    m["jacobi.quad_scaling_exp"] = p or 0.0
    if p is not None:
        top = max(n for n, _ in gj)
        notes["quad_scaling_n_range"] = [min(n for n, _ in gj), top]
        notes["quad_scaling_exp_top_decade"] = fit_exponent([s for s in gj if s[0] >= top / 10])
    m["jacobi.vandermonde_bytes"] = attr_sum("jacobi.vandermonde", "bytes")
    m["jacobi.vandermonde_peak_bytes"] = float(max((spans[i][4]["bytes"] for i in by["jacobi.vandermonde"]),
                                                   default=0))
    keys = [tuple(spans[i][4]["key"]) for i in by["jacobi.gauss_jacobi"]]
    m["jacobi.rule_repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0

    # basis
    m["basis.clenshaw_s"] = total("basis.clenshaw")
    m["basis.clenshaw_calls"] = calls("basis.clenshaw")
    m["basis.clenshaw_terms"] = attr_sum("basis.clenshaw", "terms")
    m["basis.diff_coeffs_s"] = total("basis.diff_coeffs")

    # operators
    m["operators.mult_op_s"] = total("operators.mult_op")
    m["operators.apply_s"] = total("operators.apply")
    m["operators.entry_calls"] = rec.counts.get("operators.entry", 0) / n_tasks
    m["operators.assemble_s"] = total("operators.assemble")
    m["operators.qr_s"] = total("operators.qr")
    m["operators.matvec_s"] = total("operators.matvec")
    m["operators.solve_self_s"] = total("operators.solve", f=own_of)
    solves = [(spans[i][4]["n"], spans[i][4]["M"], dur(i)) for i in by["operators.solve"]]
    p = fit_exponent(solves, groups=True)
    m["operators.solve_scaling_exp"] = p or 0.0
    if p is not None:
        notes["solve_scaling_bandwidths"] = sorted({s[1] for s in solves})

    # fourier
    m["fourier.rep_s"] = total("fourier.rep")
    m["fourier.rep_calls"] = calls("fourier.rep")
    m["fourier.normalisation_s"] = total("fourier.normalisation")
    m["fourier.normalisation_calls"] = calls("fourier.normalisation")
    # on a cache miss the rest of fourier_rep is the unit-mass check
    m["fourier.mass_check_s"] = total("fourier.rep", lambda i: normed[i], own_of)
    m["fourier.g_weight_s"] = total("fourier.g_weight")
    m["fourier.g_weight_points"] = attr_sum("fourier.g_weight", "points")
    m["fourier.transform_self_s"] = total("fourier.transform", f=own_of)

    # special (counts only)
    for name in ("norm_ratio", "log_gamma_complex", "log_jacobi_norm"):
        m[f"special.{name}_calls"] = rec.counts.get(f"special.{name}", 0) / n_tasks

    # coverage: the part of task time inside some library span
    uncovered = total("task", f=own_of) * n_tasks
    if is_cli:
        # a traced child's own time outside spans is interpreter start and imports
        uncovered -= len(results) * (m["cli.interp_s"] + m["cli.import_s"])
    m["trace.covered_frac"] = 1.0 - uncovered / task_total
    share = defaultdict(float)
    for i, s in enumerate(spans):
        share[s[0].split(".")[0]] += own[i]
    if is_cli:
        share["task"] -= len(results) * (m["cli.interp_s"] + m["cli.import_s"])
        share["interp+import"] = len(results) * (m["cli.interp_s"] + m["cli.import_s"])
    notes["layer_self_share"] = {k: v / task_total for k, v in sorted(share.items())}
    notes["absent_layers"] = sorted(k for k in ("cli", "transforms", "jacobi", "basis", "operators",
                                                "fourier") if not any(
        s[0].startswith(k + ".") for s in spans))
    metrics = {k: {"value": float(v), "unit": METRICS[k][0]} for k, v in m.items()}
    return metrics, notes
