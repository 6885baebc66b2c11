"""End-to-end command-line behaviour: tables, exit codes, round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tanhspec
import tanhspec.cli as cli
from tanhspec.cli import main, parse_points, read_coefficients, read_table, write_table

from oracles import barycentric_rowwise, fd_derivative, golub_welsch, one_basin


def _cols(rows):
    """Row dicts as the name -> column mapping that write_table takes."""
    return {c: [r[c] for r in rows] for c in rows[0]}


def _rows(table):
    """The name -> column mapping that read_table returns, as row dicts."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def run(*argv):
    return main(list(argv))


def _python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tanhspec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _expand_sech(tmp_path, fmt="csv", mode="full", alpha="-0.5", beta="-0.5", n="64"):
    out = tmp_path / f"coeffs.{fmt}"
    code = run(
        "expand", "--fn", "sech", "--alpha", alpha, "--beta", beta,
        "--mode", mode, "--n", n, "--out", str(out), "--format", fmt,
    )
    return code, out


class TestExpand:
    def test_sech_chebyshev_t(self, tmp_path, capsys):
        code, out = _expand_sech(tmp_path)
        assert code == 0
        coeffs = read_coefficients(str(out))
        assert coeffs.size == 64
        assert abs(coeffs[-1]) < 1e-10
        assert "tail |c_63|" in capsys.readouterr().err

    def test_large_pair_builds_its_rule(self, tmp_path):
        # (1000, 1000), n = 600: the Gauss weights come as logs, -2 log scale - ln sum p^2,
        # so the sum of q_m^2, beyond the float range here, is never formed
        out = tmp_path / "c.csv"
        code = run("expand", "--alpha", "1000", "--beta", "1000", "--n", "600", "--fn", "gaussian", "--out", str(out))
        assert code == 0
        assert np.all(np.isfinite(read_coefficients(str(out))))

    def test_two_point_rule_of_a_large_pair(self, tmp_path, monkeypatch):
        # both nodes of the (20, -1/2) rule on distinct roots: c_1 is negative, the projection onto the
        # Golub-Welsch rule (-0.437); two nodes on one root give +0.205
        import tanhspec.transforms as transforms_mod

        coeffs = []
        for rule in (transforms_mod.gauss_jacobi, golub_welsch):
            monkeypatch.setattr(transforms_mod, "gauss_jacobi", rule)
            transforms_mod._rule_nodes.cache_clear()
            out = tmp_path / f"c{len(coeffs)}.csv"
            assert run("expand", "--alpha", "20", "--beta", "-0.5", "--n", "2", "--fn", "sech", "--out", str(out)) == 0
            coeffs.append(read_coefficients(str(out)))
        transforms_mod._rule_nodes.cache_clear()
        got, want = coeffs
        assert got[1] < 0.0 and np.allclose(got, want, rtol=1e-12, atol=0.0), (got, want)

    def test_half_mode_next_to_minus_one(self, tmp_path, capsys):
        # the rule nodes next to t = +-1 have angles of 1.5e-8 from the end, whose
        # cosines lie one float inside +-1: samples and coefficients stay finite
        a = repr(math.nextafter(-1.0, 0.0))
        code, out = _expand_sech(tmp_path, mode="half", alpha=a, beta=a)
        assert code == 0, capsys.readouterr().err
        assert np.all(np.isfinite(read_coefficients(str(out))))

    def test_alpha_domain_error(self, tmp_path, capsys):
        code, _ = _expand_sech(tmp_path, alpha="-1.0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha must exceed -1" in err

    def test_half_mode_parameter_mismatch(self, tmp_path, capsys):
        code = run(
            "expand", "--fn", "sech", "--alpha", "0.5", "--beta", "0.0",
            "--mode", "half", "--n", "16", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "half mode requires alpha = beta" in capsys.readouterr().err

    def test_unknown_builtin(self, tmp_path, capsys):
        code = run(
            "expand", "--fn", "sinc", "--alpha", "0.0", "--beta", "0.0",
            "--n", "8", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_builtin_extra_parameter(self, tmp_path, capsys):
        code = run(
            "expand", "--fn", "gaussian:1,2", "--alpha", "0.0", "--beta", "0.0",
            "--n", "8", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at most one parameter" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "fn", ["gaussian:-1", "runge_tanh:-4", "runge_tanh:-1", "bump:-0.5", "sech:nan", "gaussian:inf"]
    )
    def test_invalid_builtin_parameter(self, tmp_path, capsys, fn):
        out = tmp_path / "x.csv"
        code = run("expand", "--fn", fn, "--alpha", "-0.5", "--beta", "-0.5", "--n", "8", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_steep_sech_does_not_overflow(self, tmp_path):
        # rate |x| reaches 720 on the 1024-point grid, past where cosh overflows
        out = tmp_path / "c.csv"
        assert run("expand", "--fn", "sech:100", "--alpha", "-0.5", "--beta", "-0.5", "--n", "1024", "--out", str(out)) == 0
        assert np.all(np.isfinite(read_coefficients(str(out))))

    @pytest.mark.parametrize("column", ["x", "value"])
    def test_samples_must_be_finite(self, tmp_path, capsys, column):
        rows = [{"x": float(x), "value": 1.0 / math.cosh(x)} for x in range(-4, 5)]
        rows[3][column] = math.nan
        sf = tmp_path / "nan.csv"
        write_table(str(sf), _cols(rows), "csv")
        code = run(
            "expand", "--in", str(sf), "--alpha", "0.0", "--beta", "0.0",
            "--n", "8", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "non-finite x or value" in capsys.readouterr().err

    def test_module_form_runs(self, tmp_path):
        out = tmp_path / "c.csv"
        p = _python(
            "-m", "tanhspec.cli", "expand", "--fn", "sech", "--alpha", "-0.5", "--beta", "-0.5",
            "--n", "16", "--out", str(out),
        )
        assert p.returncode == 0, p.stderr
        assert read_coefficients(str(out)).size == 16

    def test_samples_input_exact_on_low_degree(self, tmp_path):
        # the rational barycentric scheme reproduces cubics in x exactly
        # (the expansion grid for n=8 stays inside the sampled window)
        xs = np.linspace(-8.0, 8.0, 33)
        rows = [{"x": x, "value": x**3 - 2.0 * x} for x in xs]
        sf = tmp_path / "samples.csv"
        write_table(str(sf), _cols(rows), "csv")
        out = tmp_path / "c.csv"
        code = run(
            "expand", "--in", str(sf), "--alpha", "-0.5", "--beta", "-0.5",
            "--n", "8", "--out", str(out),
        )
        assert code == 0
        from tanhspec import BasisSpec, JacobiParams, analyze_full

        want = analyze_full(
            BasisSpec(JacobiParams(-0.5, -0.5)), lambda x: x**3 - 2.0 * x, 8
        ).coeffs
        got = read_coefficients(str(out))
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_samples_input_smooth_function(self, tmp_path):
        xs = np.linspace(-10.0, 10.0, 161)
        rows = [{"x": x, "value": 1.0 / math.cosh(x)} for x in xs]
        sf = tmp_path / "samples.csv"
        write_table(str(sf), _cols(rows), "csv")
        out = tmp_path / "c.csv"
        assert run(
            "expand", "--in", str(sf), "--alpha", "-0.5", "--beta", "-0.5",
            "--n", "16", "--out", str(out),
        ) == 0
        direct = _expand_sech(tmp_path, n="16")[1]
        got = read_coefficients(str(out))
        want = read_coefficients(str(direct))
        # fourth-order interpolation of densely sampled sech
        assert np.max(np.abs(got[:6] - want[:6])) < 1e-6

    def test_samples_must_increase(self, tmp_path, capsys):
        sf = tmp_path / "bad.csv"
        write_table(str(sf), _cols([{"x": 1.0, "value": 0.1}, {"x": 0.0, "value": 0.2}]), "csv")
        code = run(
            "expand", "--in", str(sf), "--alpha", "0.0", "--beta", "0.0",
            "--n", "8", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err


_NEXT = math.nextafter(-1.0, 0.0)
#: A reduced parameter scan: every pair of these values at n = 1, 2, 64 in full mode, and a = b at n = 2, 64
#: in half mode.  It keeps every kind of cell of the scan over {_NEXT, -0.999999, -1/2, 0, 1/2, 3, 80, 1e3,
#: 1e4}: weights past the float range (a 1e4 partner; (1e3, _NEXT) at n = 64; half mode at (1e4, 1e4),
#: through the (1e4, -1/2) rule), and rule nodes that round onto t = -+1 (_NODE_ROUNDING).
_SCAN_VALUES = (_NEXT, -0.5, 0.0, 3.0, 1e3, 1e4)
_SCAN = [("full", a, b, n) for a in _SCAN_VALUES for b in _SCAN_VALUES for n in (1, 2, 64)] + [
    ("half", a, a, n) for a in _SCAN_VALUES for n in (2, 64)
]
#: Of the 21 full-mode cells whose node next to -+1 rounds onto it (40 digits), where the weight is singular, and
#: which the rule keeps one float inside, these four (partner 1e3, n = 1, 2; the node within 2.2e-19 of the end)
#: are held to a round trip of _NODE_ROUNDING_BOUND, about 2.6 times the 7.6e-6 measured at n = 2 (2.2e-16 at
#: n = 1).
_NODE_ROUNDING = {("full", a, b, n) for a, b in ((1e3, _NEXT), (_NEXT, 1e3)) for n in (1, 2)}
_NODE_ROUNDING_BOUND = 2e-5
#: Round-trip bounds of the other 31 cells with a parameter at _NEXT, by the larger parameter and then n = 1, 2, 64
#: (half mode at (_NEXT, _NEXT) is the full transform of its pair): 3.0 to 4.0 times the round trips measured at a
#: cell and its mirror, from 2.2e-16 at n = 1 to 3.0e-4 and 3.8e-4 at (1e4, _NEXT) and its mirror, n = 64.  The
#: rules lose these digits next to -1 (test_quadrature_next_to_minus_one); a cure tightens them.
_NEXT_BOUNDS = {_NEXT: (5e-15, 6e-15, 4e-6), -0.5: (7e-16, 5e-8, 1.2e-5), 0.0: (7e-16, 4e-8, 6e-6),
                3.0: (7e-16, 1.2e-7, 6e-6), 1e3: (None, None, 1.5e-4), 1e4: (7e-16, 2e-4, 1.2e-3)}


def _expand_bandlimited(monkeypatch, tmp_path, mode, a, b, n):
    """`expand` through cli.main of f = sum_{m<k} c_m phi_m, k = max(1, n/2), seeded normal c_m, as the builtin
    'bandlimited': the exit code, the table and the relative 2-norm error of its coefficients (None on failure)."""
    c = np.random.default_rng(0).standard_normal(max(1, n // 2))
    e = tanhspec.Expansion(tanhspec.BasisSpec(tanhspec.JacobiParams(a, b)), c)
    monkeypatch.setitem(cli._BUILTINS, "bandlimited", lambda: lambda x: tanhspec.synthesize(e, x))
    out = tmp_path / "c.csv"
    code = run("expand", "--alpha", repr(a), "--beta", repr(b), "--mode", mode, "--n", str(n),
               "--fn", "bandlimited", "--out", str(out))
    if code:
        return code, out, None
    got = read_coefficients(str(out))
    got[: c.size] -= c
    return code, out, float(np.linalg.norm(got) / np.linalg.norm(c))


class TestParameterScan:
    def test_scan(self, tmp_path, capsys, monkeypatch):
        # in-process, RuntimeWarnings as errors (pyproject.toml): each cell expands a band-limited function,
        # then runs eval, diff, ft and basis on its table, and solve at n = 64 in full mode.  A cell with a
        # parameter next to -1 is held to its own round-trip bound (_NODE_ROUNDING_BOUND or _NEXT_BOUNDS)
        bad = []
        for cell in _SCAN:
            mode, a, b, n = cell
            code, table, err = _expand_bandlimited(monkeypatch, tmp_path, *cell)
            stderr = capsys.readouterr().err
            bound = (_NODE_ROUNDING_BOUND if cell in _NODE_ROUNDING else 1e-10 if min(a, b) >= -0.5
                     else _NEXT_BOUNDS[max(a, b)][(1, 2, 64).index(n)])
            if code != 0 or err > bound:
                bad.append((cell, "expand", code, err, stderr))
                continue
            common = ["--alpha", repr(a), "--beta", repr(b), "--mode", mode]
            commands = [
                ["eval", *common, "--in", str(table), "--points", "lin:-3:3:7"],
                ["diff", *common, "--in", str(table), "--points", "lin:-3:3:7"],
                ["ft", *common, "--in", str(table), "--points", "0,1,10"],
                ["basis", *common, "--m-list", "0,1,2", "--points", "lin:-3:3:7"],
            ]
            if mode == "full" and n == 64:
                commands.append(["solve", *common, "--n", "64", "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "4"])
            for argv in commands:
                code = run(*argv)
                out, stderr = capsys.readouterr()
                if code != 0 or "nan" in out.lower() or "inf" in out.lower():
                    bad.append((cell, argv[0], code, stderr))
        assert not bad

    @pytest.mark.parametrize("argv", [
        ["basis", "--alpha", "1.7e308", "--beta", "0", "--m-list", "0,1", "--points", "0,1"],  # math.lgamma of ln g_0
        ["expand", "--alpha", "1e308", "--beta", "1e308", "--n", "4", "--fn", "sech"],  # a + b = inf
    ], ids=["basis", "expand"])
    def test_overflow_at_the_top_of_the_float_range(self, argv, capsys):
        code = run(*argv)
        stderr = capsys.readouterr().err
        assert code == 3 and stderr.startswith("error: overflow") and stderr.count("\n") == 1

    def test_weights_past_the_top_of_the_float_range(self, tmp_path, monkeypatch):
        # the weights of the (1e6, 0) rule sum to 2^(1e6+1) / (1e6+1); their logs are finite, but lie
        # near ln g_0 = 6.9e5, whose ulp, 1.2e-10, is a relative error in a weight: 9.1e-11 is measured
        code, _, err = _expand_bandlimited(monkeypatch, tmp_path, "full", 1e6, 0.0, 4)
        assert code == 0 and err <= 4.0 * math.ulp(6.9e5)

    def test_boundary_weight_below_the_float_range(self, tmp_path):
        # (1000, 1000), n = 800: the divisor (1-t)^{(a+1)/2} (1+t)^{(b+1)/2} of F = f / divisor underflows at
        # the outer nodes; it joins the log weights in the projection's start scale, so F is never formed
        out = tmp_path / "c.csv"
        code = run("expand", "--alpha", "1000", "--beta", "1000", "--n", "800", "--fn", "gaussian", "--out", str(out))
        assert code == 0
        assert np.all(np.isfinite(read_coefficients(str(out))))


class TestEvalAndDiff:
    def test_eval_basis_vector(self, tmp_path):
        cf = tmp_path / "c.csv"
        write_table(str(cf), _cols([{"m": 0, "c": 1.0}]), "csv")
        out = tmp_path / "v.csv"
        code = run(
            "eval", "--in", str(cf), "--alpha", "-0.5", "--beta", "-0.5",
            "--points", "0", "--out", str(out),
        )
        assert code == 0
        rows = _rows(read_table(str(out)))
        assert math.isclose(rows[0]["value"], 1.0 / math.sqrt(math.pi), rel_tol=1e-12)

    def test_diff_matches_finite_difference_of_eval(self, tmp_path):
        _, cf = _expand_sech(tmp_path, n="48")
        vout = tmp_path / "d.csv"
        code = run(
            "diff", "--in", str(cf), "--alpha", "-0.5", "--beta", "-0.5",
            "--points", "0.7", "--out", str(vout),
        )
        assert code == 0
        deriv = _rows(read_table(str(vout)))[0]["value"]

        def eval_at(x):
            out = tmp_path / "tmp_eval.csv"
            assert run(
                "eval", "--in", str(cf), "--alpha", "-0.5", "--beta", "-0.5",
                "--points", repr(x), "--out", str(out),
            ) == 0
            return _rows(read_table(str(out)))[0]["value"]

        fd = fd_derivative(eval_at, 0.7, 1e-4)
        assert abs(deriv - fd) <= 1e-6

    def test_empty_coefficient_file(self, tmp_path, capsys):
        cf = tmp_path / "empty.csv"
        cf.write_text("m,c\n")
        code = run(
            "eval", "--in", str(cf), "--alpha", "0.0", "--beta", "0.0",
            "--points", "0", "--out", str(tmp_path / "v.csv"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "ft"])
@pytest.mark.parametrize("points", ["nan", "lin:0:inf:3", "inf,-inf", "0,nan"])
def test_non_finite_points_rejected(tmp_path, capsys, command, points):
    cf = tmp_path / "c.csv"
    write_table(str(cf), _cols([{"m": 0, "c": 1.0}]), "csv")
    out = tmp_path / "o.csv"
    code = run(command, "--in", str(cf), "--alpha", "0.0", "--beta", "0.0", f"--points={points}", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and len(err.splitlines()) == 1
    assert not out.exists()


_POINTS_COMMANDS = {
    "eval": "eval --alpha 0.0 --beta 0.0 --in {c} --out {o}",
    "diff": "diff --alpha 0.0 --beta 0.0 --in {c} --out {o}",
    "ft": "ft --alpha 0.0 --beta 0.0 --in {c} --out {o}",
    "basis": "basis --alpha 0.0 --beta 0.0 --m-list 0,1 --out {o}",
    "solve": "solve --alpha -0.5 --beta -0.5 --n 16 --a-fn gaussian:0 --f-fn sech --bandwidth 0 --out {o} --values-out {o}",
}


@pytest.mark.parametrize("command", list(_POINTS_COMMANDS))
@pytest.mark.parametrize("points", ["", ","], ids=["empty", "comma"])
def test_points_spec_naming_no_point_rejected(tmp_path, capsys, command, points):
    cf = tmp_path / "c.csv"
    write_table(str(cf), _cols([{"m": 0, "c": 1.0}]), "csv")
    out = tmp_path / "o.csv"
    argv = _POINTS_COMMANDS[command].format(c=cf, o=out).split()
    assert run(*argv, f"--points={points}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "names no point" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "expand --alpha 0 --beta 0 --n x --fn sech",
    "expand --alpha 0 --beta 0 --fn sech",
    "eval --alpha 0 --beta 0 --in c.csv --points 0 --bogus 1",
    "",
    "frobnicate",
    "diff --alpha 0 --beta 0 --in c.csv --points 0 --format xml",
], ids=["bad-int", "missing-option", "unknown-option", "no-command", "unknown-command", "bad-choice"])
def test_argparse_usage_error_is_one_error_line(capsys, argv):
    assert run(*argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: tanhspec")


@pytest.mark.parametrize("command", ["eval", "diff", "basis", "ft"])
def test_points_at_the_top_of_the_float_range(tmp_path, command):
    # the weight is exactly 0.0 from |x| = 1e300 (|xi| = 1e300 for ft), so
    # these points give 0.0 rather than an overflow of 2x or of ln Gamma
    cf = tmp_path / "c.csv"
    write_table(str(cf), _cols([{"m": m, "c": 1.0} for m in range(3)]), "csv")
    out = tmp_path / "o.csv"
    top = "-1e308,1e308" if command == "ft" else "-1.7976931348623157e308,-9e307,9e307,1.7976931348623157e308"
    assert run(*_POINTS_COMMANDS[command].format(c=cf, o=out).split(), "--points", top) == 0
    table = read_table(str(out))
    assert all(np.all(col == 0.0) for name, col in table.items() if name not in ("x", "xi"))


@pytest.mark.parametrize("options", [
    "--alpha -1e-3 --beta 0 --points 0.5", "--alpha 0.3 --beta -2e-1 --points 0.5", "--alpha 0.3 --beta 0 --points -1,0,1",
])
def test_negative_values_need_no_equals_sign(tmp_path, capsys, options):
    # argparse takes '-1e-3' and '-1,0,1' for option names unless they are glued on
    cf = tmp_path / "c.csv"
    write_table(str(cf), _cols([{"m": m, "c": 1.0} for m in range(3)]), "csv")
    spaced = options.split()
    outs = []
    for spelling in (spaced, [f"{opt}={v}" for opt, v in zip(spaced[::2], spaced[1::2])]):
        assert run("eval", "--in", str(cf), *spelling) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") > 1


class TestFourierCommand:
    def test_profile(self, tmp_path):
        cf = tmp_path / "c.csv"
        write_table(str(cf), _cols([{"m": 0, "c": 1.0}]), "csv")
        out = tmp_path / "ft.csv"
        code = run(
            "ft", "--in", str(cf), "--alpha", "0.0", "--beta", "0.0",
            "--points", "0,1,2", "--out", str(out),
        )
        assert code == 0
        rows = _rows(read_table(str(out)))
        ratios = [r["re"] * math.cosh(math.pi * r["xi"] / 2.0) for r in rows]
        assert max(ratios) - min(ratios) <= 1e-12
        assert all(abs(r["im"]) <= 1e-14 for r in rows)

    def test_large_xi_rows_are_finite(self, tmp_path):
        _, cf = _expand_sech(tmp_path, n="256")
        out = tmp_path / "ft.csv"
        code = run(
            "ft", "--in", str(cf), "--alpha", "-0.5", "--beta", "-0.5",
            "--points=-1e6,600,1e6", "--out", str(out),
        )
        assert code == 0
        for row in _rows(read_table(str(out))):
            assert math.isfinite(row["re"]) and math.isfinite(row["im"])
            assert math.hypot(row["re"], row["im"]) < 1e-6

    def test_large_pair_is_finite(self, tmp_path):
        # the normalisation constant C underflows to 0 here; ln C does not
        cf = tmp_path / "c.csv"
        write_table(str(cf), _cols([{"m": 0, "c": 1.0}, {"m": 1, "c": 0.5}]), "csv")
        out = tmp_path / "ft.csv"
        code = run("ft", "--in", str(cf), "--alpha", "400", "--beta", "400", "--points", "0,3", "--out", str(out))
        assert code == 0
        rows = _rows(read_table(str(out)))
        assert rows[0]["re"] > 0.0 and all(math.isfinite(r["re"]) and math.isfinite(r["im"]) for r in rows)

    def test_half_mode_equals_full(self, tmp_path, capsys):
        # a half-mode table names the same function as the full-mode one, so
        # its transform has the same bits; solve still expands f in full mode
        cf = tmp_path / "c.csv"
        write_table(str(cf), _cols([{"m": m, "c": 0.5**m} for m in range(6)]), "csv")
        tables = []
        for mode in ("full", "half"):
            out = tmp_path / f"{mode}.csv"
            code = run(
                "ft", "--in", str(cf), "--alpha", "2", "--beta", "2",
                "--mode", mode, "--points", "0,1,10", "--out", str(out),
            )
            assert code == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        code = run(
            "solve", "--alpha", "2", "--beta", "2", "--mode", "half", "--n", "16",
            "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "2",
        )
        assert code == 2
        assert "full-mode" in capsys.readouterr().err


class TestSolve:
    def test_manufactured_residual(self, tmp_path, capsys):
        # u = sech^{1/2} x tanh x solves u' + u = f with f carrying exactly
        # three coefficients: sqrt(pi/2) (b0, -1, -b1)
        s = math.sqrt(math.pi / 2.0)
        f_rows = [
            {"m": 0, "c": s * math.sqrt(2.0) / 4.0},
            {"m": 1, "c": -s},
            {"m": 2, "c": -s * 0.75},
        ]
        f_in = tmp_path / "f.csv"
        write_table(str(f_in), _cols(f_rows), "csv")
        out = tmp_path / "u.json"
        vals = tmp_path / "uvals.json"
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "96",
            "--a-fn", "gaussian:0", "--f-in", str(f_in), "--bandwidth", "0",
            "--points", "lin:-2:2:5", "--values-out", str(vals),
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        captured = capsys.readouterr()
        line = [ln for ln in captured.out.splitlines() if ln.startswith("residual=")][0]
        assert float(line.split("=", 1)[1]) <= 1e-9
        coeffs = read_coefficients(str(out))
        assert math.isclose(coeffs[1], -s, rel_tol=1e-10)
        vrows = _rows(read_table(str(vals)))
        for r in vrows:
            want = math.cosh(r["x"]) ** -0.5 * math.tanh(r["x"])
            assert abs(r["value"] - want) <= 1e-9

    def test_solution_roundtrips_through_eval(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "64",
            "--a-fn", "gaussian:0", "--f-fn", "sech", "--bandwidth", "0",
            "--out", str(out), "--format", "json",
        ) == 0
        vout = tmp_path / "v.json"
        assert run(
            "eval", "--in", str(out), "--alpha", "-0.5", "--beta", "-0.5",
            "--points", "lin:-1:1:3", "--out", str(vout), "--format", "json",
        ) == 0
        rows = _rows(read_table(str(vout)))
        assert len(rows) == 3 and all(np.isfinite(r["value"]) for r in rows)

    def test_bandwidth_too_large(self, tmp_path, capsys):
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "8",
            "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "8",
            "--out", str(tmp_path / "u.csv"),
        )
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err

    def test_negative_bandwidth_names_the_option(self, tmp_path, capsys):
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "8",
            "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "-1",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --bandwidth must be nonnegative")

    def test_zero_coefficient_rejected(self, tmp_path, capsys):
        # a = 0 builtin: gaussian scaled by zero is the constant 1, so use
        # a sampled file of zeros instead
        sf = tmp_path / "zeros.csv"
        write_table(str(sf), _cols([{"x": float(x), "value": 0.0} for x in range(-4, 5)]), "csv")
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "16",
            "--a-in", str(sf), "--f-fn", "sech", "--bandwidth", "2",
            "--out", str(tmp_path / "u.csv"),
        )
        assert code == 2
        assert "singular operator" in capsys.readouterr().err

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (0.0, 0.0), (1.3, 0.2)])
    def test_variable_coefficient_any_pair(self, tmp_path, capsys, a, b):
        # u = exp(-x^2) solves u' + a_M u = f, with a_M the truncated T~ series
        # of runge_tanh:-0.5 that the CLI builds from --a-fn; f goes in as
        # its coefficients in the pair's basis
        n, m = 256, 8
        spec = tanhspec.BasisSpec(tanhspec.JacobiParams(a, b), "full")
        a_m = tanhspec.analyze_unweighted(cli.parse_function("runge_tanh:-0.5", None), m)

        def f(x):
            theta = np.arccos(np.tanh(x))
            a_of_x = a_m[0] / math.sqrt(2.0) + np.cos(np.outer(theta, np.arange(1, m + 1))) @ a_m[1:]
            return (a_of_x - 2.0 * x) * np.exp(-x**2)

        f_in, out = tmp_path / "f.csv", tmp_path / "u.csv"
        write_table(str(f_in), {"m": np.arange(n), "c": tanhspec.analyze_full(spec, f, n).coeffs}, "csv")
        code = run(
            "solve", "--alpha", str(a), "--beta", str(b), "--n", str(n), "--a-fn", "runge_tanh:-0.5",
            "--f-in", str(f_in), "--bandwidth", str(m), "--out", str(out),
        )
        assert code == 0
        assert "warning:" not in capsys.readouterr().err
        want = tanhspec.analyze_full(spec, lambda x: np.exp(-x**2), n).coeffs
        assert np.max(np.abs(read_coefficients(str(out)) - want)) <= 1e-9

    def test_large_relative_residual_warns(self, tmp_path, capsys):
        # u' + sech(x) u = sech(x) has no L2 solution: every solution is
        # 1 + C exp(-2 arctan e^x), which cannot vanish at both ends.  The
        # residual stays near 0.3 against |f| = 1.41; the exit code and stdout
        # are those of any solve, and stderr carries one warning line
        out = tmp_path / "u.csv"
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "64",
            "--a-fn", "sech", "--f-fn", "sech", "--bandwidth", "4", "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("residual=") and len(captured.out.splitlines()) == 1
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: relative residual 0.21 > 0.01")
        assert read_coefficients(str(out)).size == 64

    def test_resolved_solve_prints_no_warning(self, tmp_path, capsys):
        # a -> 2/3 at both ends: relative residual 4e-3 at N = 1024
        assert run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "1024", "--a-fn", "runge_tanh:0.5",
            "--f-fn", "sech", "--bandwidth", "8", "--out", str(tmp_path / "u.csv"),
        ) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.0, 0.0)])
    def test_constant_coefficient_any_pair(self, tmp_path, a, b):
        # a = 1 (gaussian:0) acts as the identity in every basis: u = phi_1
        # solves u' + u = f for f = -b_0 phi_0 + phi_1 + b_1 phi_2
        bm = tanhspec.diff_coeffs(tanhspec.JacobiParams(a, b), 2).b
        f_in = tmp_path / "f.csv"
        write_table(str(f_in), _cols([{"m": 0, "c": -bm[0]}, {"m": 1, "c": 1.0}, {"m": 2, "c": bm[1]}]), "csv")
        out = tmp_path / "u.csv"
        assert run(
            "solve", "--alpha", str(a), "--beta", str(b), "--n", "32",
            "--a-fn", "gaussian:0", "--f-in", str(f_in), "--bandwidth", "2", "--out", str(out),
        ) == 0
        assert np.allclose(read_coefficients(str(out)), np.eye(32)[1], atol=1e-12)


class TestBasisCommand:
    def test_center_values(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(
            "basis", "--alpha", "-0.5", "--beta", "-0.5", "--m-list", "0,1,2,3,4",
            "--points", "lin:-5:5:11", "--out", str(out),
        )
        assert code == 0
        rows = _rows(read_table(str(out)))
        center = [r for r in rows if r["x"] == 0.0][0]
        assert math.isclose(center["phi_0"], 1.0 / math.sqrt(math.pi), rel_tol=1e-12)
        assert abs(center["phi_1"]) <= 1e-15
        assert math.isclose(center["phi_2"], -math.sqrt(2.0 / math.pi), rel_tol=1e-12)

    def test_l2_normalisation_by_trapezoid(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(
            "basis", "--alpha", "-0.5", "--beta", "-0.5", "--m-list", "0,1,2,3,4",
            "--points", "lin:-30:30:1201", "--out", str(out),
        ) == 0
        rows = _rows(read_table(str(out)))
        xs = np.array([r["x"] for r in rows])
        for m in range(5):
            vals = np.array([r[f"phi_{m}"] for r in rows])
            mass = float(np.trapezoid(vals * vals, xs))
            assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-12


# runs one CLI command, then prints the scipy modules the process loaded as its last stdout line
_SCIPY_AFTER = (
    "import json, sys; from tanhspec.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); sys.exit(code)"
)


def _scipy_loaded_by(*argv, code=0):
    p = _python("-c", _SCIPY_AFTER, *argv)
    assert p.returncode == code, p.stderr
    return set(json.loads(p.stdout.splitlines()[-1]))


class TestScipyImportContract:
    """No command loads scipy, which the tests alone use."""

    def test_import_loads_no_scipy(self):
        p = _python("-c", "import sys, tanhspec.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv,code", [
        ("eval --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-3:3:7", 0),
        ("diff --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-3:3:7", 0),
        ("eval --alpha 1.3 --beta 0.2 --in {coeffs} --points lin:-3:3:7", 0),
        ("diff --alpha 1.3 --beta 0.2 --in {coeffs} --points lin:-3:3:7", 0),
        ("basis --alpha -0.5 --beta -0.5 --m-list 0,1,4 --points lin:-3:3:7", 0),
        ("ft --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-5:5:11", 0),
        ("expand --alpha -1 --beta 0 --n 16 --fn sech", 2),
        ("expand --alpha 0.5 --beta -0.5 --n 64 --fn sech --out {out}", 0),
        ("expand --alpha 0 --beta 0 --n 16 --fn sech --out {out}", 0),
        ("expand --alpha 0.5 --beta 0.5 --mode half --n 64 --fn sech --out {out}", 0),
        ("solve --alpha -0.5 --beta -0.5 --n 64 --a-fn gaussian:0.5 --f-fn sech --bandwidth 4 --out {out}", 0),
        ("expand --alpha -0.5 --beta -0.5 --mode half --n 64 --in {samples} --out {out}", 0),
        ("solve --alpha -0.5 --beta -0.5 --n 64 --a-in {a_coeffs} --f-fn sech --bandwidth 4 --out {out}", 0),
        ("solve --alpha 0.5 --beta 0.5 --n 256 --a-fn runge_tanh:-0.5 --f-fn gaussian --bandwidth 8 --out {out}", 0),
        ("solve --alpha 1.3 --beta 0.2 --n 256 --a-fn runge_tanh:-0.5 --f-fn gaussian --bandwidth 8 --out {out}", 0),
        ("expand --alpha 80 --beta 80 --n 64 --fn gaussian --out {out}", 0),
        ("expand --alpha 1000 --beta 1000 --n 600 --fn gaussian --out {out}", 0),
    ], ids=["eval", "diff", "eval-generic", "diff-generic", "basis", "ft", "usage-error", "expand-fast", "expand-quadrature", "expand-half-fast", "solve-fast",
            "expand-half-samples", "solve-a-coefficients", "solve-variable-a-half-integer", "solve-variable-a-generic",
            "expand-large-pair", "expand-larger-pair"])
    def test_commands_without_scipy(self, tmp_path, argv, code):
        _, coeffs = _expand_sech(tmp_path)
        samples, a_coeffs = tmp_path / "samples.csv", tmp_path / "a.csv"
        xs = np.linspace(-8.0, 8.0, 161)
        write_table(str(samples), {"x": xs, "value": 1.0 / np.cosh(xs)}, "csv")
        write_table(str(a_coeffs), {"m": np.arange(3), "c": [2.0, 0.3, -0.1]}, "csv")
        argv = [a.format(coeffs=coeffs, out=tmp_path / "out.csv", samples=samples, a_coeffs=a_coeffs)
                for a in argv.split()]
        assert _scipy_loaded_by(*argv, code=code) == set()

    def test_expand_with_scipy_unimportable(self, tmp_path):
        # scipy unimportable: a small pair and two large ones
        for a, n in (("1.3", "64"), ("80", "64"), ("1000", "600")):
            p = _python("-c", "import sys; sys.modules['scipy'] = None; from tanhspec.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "expand", "--fn", "gaussian", "--alpha", a, "--beta", a,
                        "--n", n, "--out", str(tmp_path / "c.csv"))
            assert p.returncode == 0, p.stderr
            assert len(read_coefficients(str(tmp_path / "c.csv"))) == int(n)


class TestTablesAndDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        rows = [{"m": m, "c": float(v)} for m, v in enumerate(rng.standard_normal(9))]
        path = tmp_path / f"t.{fmt}"
        write_table(str(path), _cols(rows), fmt)
        back = _rows(read_table(str(path)))
        for a, b in zip(rows, back):
            assert a["c"] == b["c"] and float(a["m"]) == b["m"]

    def test_byte_identical_reruns(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        p1 = _expand_sech(d1)[1]
        p2 = _expand_sech(d2)[1]
        assert p1.read_bytes() == p2.read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import tanhspec.cli as cli_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("rank-deficient system: synthetic")

        monkeypatch.setattr(cli_mod, "solve_first_order", boom)
        code = run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "16",
            "--a-fn", "gaussian:0", "--f-fn", "sech", "--bandwidth", "0",
            "--out", str(tmp_path / "u.csv"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_unfinished_rule_exit_code(self, capsys, monkeypatch):
        import tanhspec.jacobi as jacobi_mod

        monkeypatch.setattr(jacobi_mod, "_MAX_SWEEPS", 1)
        assert run("expand", "--alpha", "81.5", "--beta", "80", "--n", "33", "--fn", "gaussian") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unfinished" in err and err.count("\n") == 1

    def test_two_nodes_on_one_root_exit_code(self, capsys, monkeypatch):
        # start angle 4 in the basin of angle 3: the rule fails its spacing certificate
        import tanhspec.jacobi as jacobi_mod
        import tanhspec.transforms as transforms_mod

        monkeypatch.setattr(jacobi_mod, "_start_angles", one_basin(jacobi_mod._start_angles))
        transforms_mod._rule_nodes.cache_clear()
        try:
            assert run("expand", "--alpha", "1.3", "--beta", "0.2", "--n", "64", "--fn", "sech") == 3
        finally:
            transforms_mod._rule_nodes.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spacing" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--alpha", "1e300", "--beta", "0", "--m-list", "0,1,2", "--points", "lin:-3:3:7"],
            ["eval", "--alpha", "1e300", "--beta", "0", "--in", "c.csv", "--points", "0,1"],
            ["diff", "--alpha", "1e300", "--beta", "0", "--in", "c.csv", "--points", "0,1"],
            # 10^15 float64 entries are 8 PB: every machine refuses the allocation
            ["expand", "--alpha", "0.5", "--beta", "-0.5", "--n", "1000000000000000", "--fn", "sech"],
            ["expand", "--alpha", "0", "--beta", "0", "--n", "1000000000000000", "--fn", "sech"],
            ["basis", "--alpha", "0", "--beta", "0", "--m-list", "1000000000000000", "--points", "0"],
            ["eval", "--alpha", "0", "--beta", "0", "--in", "c.csv", "--points", "lin:0:1:1000000000000000"],
        ],
        ids=["basis", "eval", "diff", "alloc-expand-fast", "alloc-expand-quad", "alloc-basis", "alloc-eval"],
    )
    def test_overflow_is_one_error_line(self, tmp_path, argv):
        # in a child process, so that a stray RuntimeWarning would show on stderr
        write_table(str(tmp_path / "c.csv"), _cols([{"m": m, "c": 1.0} for m in range(3)]), "csv")
        argv = [str(tmp_path / a) if a == "c.csv" else a for a in argv]
        proc = _python("-m", "tanhspec.cli", *argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_parse_points(self):
        assert np.allclose(parse_points("lin:0:1:3"), [0.0, 0.5, 1.0])
        assert np.allclose(parse_points("1,2.5,-3"), [1.0, 2.5, -3.0])
        with pytest.raises(ValueError):
            parse_points("lin:0:1")
        for spec in ("lin:0:1:1e3", "lin:a:1:3"):
            with pytest.raises(ValueError, match=f"^bad points spec '{spec}': "):
                parse_points(spec)


# every command that takes a table file, with the bad table in the slot it reads
_TABLE_SLOTS = {
    "eval --in": "eval --alpha -0.5 --beta -0.5 --in {t} --points 0",
    "expand --in": "expand --alpha -0.5 --beta -0.5 --n 16 --in {t}",
    "solve --a-in": "solve --alpha -0.5 --beta -0.5 --n 16 --a-in {t} --f-fn sech --bandwidth 2",
    "solve --f-in": "solve --alpha -0.5 --beta -0.5 --n 16 --a-fn gaussian:0 --f-in {t} --bandwidth 0",
}


def _run_slot(tmp_path, slot, text):
    table = tmp_path / "t.json"
    table.write_text(text)
    return run(*_TABLE_SLOTS[slot].format(t=table).split(), "--out", str(tmp_path / "o.csv"))


class TestTableInput:
    @pytest.mark.parametrize("slot", list(_TABLE_SLOTS))
    @pytest.mark.parametrize("text", [
        '[{"m": 0, "c": null}]', "[1, 2]", "[null]", '[{"x": 0, "value": [1]}]',
        '[{"x": 0, "value": 1}, {"x": 1}]', '[{"m": 0, "c": 1}', "[" * 100_000,
    ], ids=["null-cell", "bare-numbers", "null-row", "list-cell", "short-row", "unterminated", "deep"])
    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys, slot, text):
        assert _run_slot(tmp_path, slot, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed table") and len(err.splitlines()) == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("slot", ["eval --in", "solve --a-in", "solve --f-in"])
    @pytest.mark.parametrize("m", [[0, 1.5, 2], [0, 1, 1], [1, 2, 3], [0, -1, 1]])
    def test_indices_must_be_integers_from_zero(self, tmp_path, capsys, slot, m):
        assert _run_slot(tmp_path, slot, json.dumps([{"m": k, "c": 1.0} for k in m])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed coefficient table") and "integers 0..N-1" in err

    def test_indices_in_any_order(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"m": 2, "c": 3.0}, {"m": 0, "c": 1.0}, {"m": 1.0, "c": 2.0}]))
        assert read_coefficients(str(path)).tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("slot", list(_TABLE_SLOTS))
    @pytest.mark.parametrize("text", ["[]", " \n", "m,c\n"])
    def test_empty_table_has_one_message(self, tmp_path, capsys, slot, text):
        assert _run_slot(tmp_path, slot, text) == 2
        assert capsys.readouterr().err.startswith("error: empty table file")

    @pytest.mark.parametrize("a_kind,f_kind", [("coeffs", "samples"), ("samples", "coeffs")])
    def test_solve_opens_each_table_once(self, tmp_path, monkeypatch, a_kind, f_kind):
        xs = np.linspace(-8.0, 8.0, 161)
        tables = {
            "coeffs": {"m": np.arange(3), "c": [2.0, 0.3, -0.1]},
            "samples": {"x": xs, "value": 2.0 + 1.0 / np.cosh(xs)},
        }
        a_in, f_in = str(tmp_path / "a.csv"), str(tmp_path / "f.csv")
        write_table(a_in, tables[a_kind], "csv")
        write_table(f_in, tables[f_kind], "csv")
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert run(
            "solve", "--alpha", "-0.5", "--beta", "-0.5", "--n", "32", "--a-in", a_in, "--f-in", f_in,
            "--bandwidth", "4", "--out", str(tmp_path / "u.csv"),
        ) == 0
        assert opened.count(a_in) == 1 and opened.count(f_in) == 1


def _increasing_nodes(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.3 * n, rng.standard_normal(n)


class TestBarycentric:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 33, 161, 1000])
    def test_weights_bitwise_equal_to_rowwise_loop(self, n):
        nodes, values = _increasing_nodes(n, seed=n)
        want, _ = barycentric_rowwise(nodes, values)
        got = cli._fh_weights(nodes, min(3, n - 1))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [2, 5, 33, 161, 1000])
    def test_values_match_rowwise_evaluation(self, n):
        nodes, values = _increasing_nodes(n, seed=n)
        _, want = barycentric_rowwise(nodes, values)
        got = cli._barycentric(nodes, values)
        rng = np.random.default_rng(n)
        # the nodes themselves, points beyond either end, and (from n = 33 on)
        # more interior points than one block holds
        inside = rng.uniform(nodes[0], nodes[-1], min(cli._BLOCK_ENTRIES // n, 20_000) + 7)
        beyond = np.array([nodes[0] - 5.0, nodes[0] - 1e-9, nodes[-1] + 1e-9, nodes[-1] + 5.0])
        pts = rng.permutation(np.concatenate([nodes, inside, beyond]))
        a, b = want(pts), got(pts)
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))
        assert np.array_equal(got(nodes), values)
        x = float(inside[0])
        assert isinstance(got(x), float) and abs(got(x) - want(x)) <= 1e-14 * np.max(np.abs(a))
