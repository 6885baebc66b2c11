"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every binding of a
target function in a loaded ``tanhspec`` module (the defining module and
each module that imported it by name) is replaced by one shared wrapper,
so calls made inside the library are seen too.  Spans live in memory and
are written out once when the run ends.  A target that a later refactor
renamed or removed is reported as absent instead of failing the run.
"""

import json
import os
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.  Each span records its parent, so self times can be derived.
SPAN_TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "write_table", "cli.write_table"),
    ("cli", "read_table", "cli.read_table"),
    ("cli", "parse_function", "cli.parse_function"),
    ("transforms", "analyze_full", "transforms.analyze"),
    ("transforms", "analyze_half", "transforms.analyze"),
    ("transforms", "dct", "transforms.dct"),
    ("jacobi", "gauss_jacobi", "jacobi.gauss_jacobi"),
    ("jacobi", "eigh_tridiagonal", "jacobi.eig"),
    ("jacobi", "orthonormal_eval_batch", "jacobi.vandermonde"),
    ("basis", "clenshaw_eval", "basis.clenshaw"),
    ("basis", "diff_coeffs", "basis.diff_coeffs"),
    ("operators", "mult_op", "operators.mult_op"),
    ("operators", "MultOp.apply", "operators.apply"),
    ("operators", "assemble_first_order", "operators.assemble"),
    ("operators", "banded_qr_lstsq", "operators.qr"),
    ("operators", "BandedMatrix.matvec", "operators.matvec"),
    ("operators", "solve_first_order", "operators.solve"),
    ("operators", "diff_apply", "operators.diff_apply"),
    ("fourier", "fourier_rep", "fourier.rep"),
    ("fourier", "normalisation_constant", "fourier.normalisation"),
    ("fourier", "g_weight", "fourier.g_weight"),
    ("fourier", "fourier_transform", "fourier.transform"),
]

# Scalar functions called thousands of times per task: counted only, since a
# timing wrapper would cost more than the call it measures.
COUNT_TARGETS = [
    ("special", "norm_ratio", "special.norm_ratio"),
    ("special", "log_gamma_complex", "special.log_gamma_complex"),
    ("special", "log_jacobi_norm", "special.log_jacobi_norm"),
    ("operators", "MultOp.entry", "operators.entry"),
]


def _size(x):
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _attrs(name, args, kwargs):
    """Sizes recorded with a span (n, points, bytes) from its call arguments."""
    if name == "transforms.analyze":
        return {"n": args[2] if len(args) > 2 else kwargs.get("n")}
    if name in ("transforms.dct", "fourier.g_weight"):
        return {"points": _size(args[1])}
    if name == "jacobi.gauss_jacobi":
        p = args[0]
        return {"n": args[1], "key": (p.alpha, p.beta, args[1])}
    if name == "jacobi.vandermonde":
        rows, cols = args[1] + 1, _size(args[2])
        return {"n": rows, "bytes": 8 * rows * cols}
    if name == "basis.clenshaw":
        return {"terms": len(args[0]) * _size(args[1])}
    if name == "operators.solve":
        return {"n": args[3], "M": args[1].bandwidth}
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return {"cmd": argv[0] if argv else None}
    return None


class Recorder:
    """In-memory span list.  A span is (name, parent index, t0, t1, attrs)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []
        self.enabled = True  # wrappers call straight through while False
        self.installed = False

    def open(self, name, attrs=None):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def span_wrapper(self, name, fn):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = rec.open(name, _attrs(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn):
        rec, counts = self, self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if rec.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every binding of each target; returns the list of absent targets.

        Targets in modules this process never imported are skipped, not absent.
        """
        self.installed = True
        mods = {n[len("tanhspec."):]: m for n, m in list(sys.modules.items())
                if n.startswith("tanhspec.") and m is not None}
        for targets, make in ((SPAN_TARGETS, self.span_wrapper), (COUNT_TARGETS, self.count_wrapper)):
            for modname, attr, name in targets:
                mod = mods.get(modname)
                if mod is None and modname == "cli":
                    continue
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None or not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapped = make(name, fn)
                if owner_name:
                    setattr(owner, meth, wrapped)
                    continue
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
                pkg = sys.modules.get("tanhspec")
                for key, val in list(vars(pkg).items()) if pkg else ():
                    if val is fn:
                        setattr(pkg, key, wrapped)
        return self.absent

    def dump(self):
        """The spans, counts and absent targets, ready for json.dump."""
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def has_descendant(spans, name):
    """Flags, per span, whether some descendant span is called `name`."""
    flag = [False] * len(spans)
    for s in spans:
        if s[0] == name:
            p = s[1]
            while p >= 0 and not flag[p]:
                flag[p] = True
                p = spans[p][1]
    return flag


class BenchRecorder(Recorder):
    """The benchmark process's recorder: sampling spans and traced CLI children."""

    def __init__(self, workdir):
        super().__init__()
        self.enabled = False  # on only while a traced task runs
        self.workdir = workdir
        self.child_paths = []

    def sample_wrapper(self, f):
        """Span around the user callable that the transforms sample."""
        rec = self

        def sampled(x):
            if not rec.enabled:
                return f(x)
            idx = rec.open("transforms.sample", {"points": _size(x)})
            try:
                return f(x)
            finally:
                rec.close(idx)

        return sampled

    def child_spans_path(self):
        path = os.path.join(self.workdir, f"spans-{len(self.child_paths)}.json")
        self.child_paths.append(path)
        return path

    def merge_children(self):
        """Attach each traced child's spans below the task span that ran it."""
        tasks = [i for i, s in enumerate(self.spans) if s[0] == "task"]
        for task_idx, path in zip(tasks, self.child_paths):
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                child = json.load(fh)
            offset = len(self.spans)
            for name, parent, t0, t1, attrs in child["spans"]:
                if t1 is None:  # the child died inside this span
                    continue
                self.spans.append([name, task_idx if parent < 0 else parent + offset, t0, t1, attrs])
            for name, c in child["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + c
            for name in child["absent"]:
                if name not in self.absent:
                    self.absent.append(name)
