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

from oracles import barycentric_rowwise, fd_derivative


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

    def test_half_mode_rejected(self, tmp_path, capsys):
        cf = tmp_path / "c.csv"
        write_table(str(cf), _cols([{"m": 0, "c": 1.0}, {"m": 1, "c": 0.0}]), "csv")
        code = run(
            "ft", "--in", str(cf), "--alpha", "0.5", "--beta", "0.5",
            "--mode", "half", "--points", "0", "--out", str(tmp_path / "o.csv"),
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

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (0.0, 0.0)])
    def test_variable_coefficient_needs_chebyshev_t(self, tmp_path, capsys, a, b):
        # mult_op is the multiplication operator of the (-1/2, -1/2) pair only;
        # elsewhere the solve returned wrong coefficients with a small residual
        out = tmp_path / "u.csv"
        code = run(
            "solve", "--alpha", str(a), "--beta", str(b), "--n", "256",
            "--a-fn", "gaussian", "--f-fn", "sech", "--bandwidth", "2", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Chebyshev-T" in err and len(err.splitlines()) == 1
        assert not out.exists()

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
    """scipy is imported by the code that uses it, so a run loads only what it needs."""

    def test_import_loads_no_scipy(self):
        p = _python("-c", "import sys, tanhspec.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv,code", [
        ("eval --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-3:3:7", 0),
        ("diff --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-3:3:7", 0),
        ("basis --alpha -0.5 --beta -0.5 --m-list 0,1,4 --points lin:-3:3:7", 0),
        ("ft --alpha -0.5 --beta -0.5 --in {coeffs} --points lin:-5:5:11", 0),
        ("expand --alpha -1 --beta 0 --n 16 --fn sech", 2),
        ("expand --alpha 0.5 --beta -0.5 --n 64 --fn sech --out {out}", 0),
        ("expand --alpha 0.5 --beta 0.5 --mode half --n 64 --fn sech --out {out}", 0),
        ("solve --alpha -0.5 --beta -0.5 --n 64 --a-fn gaussian:0.5 --f-fn sech --bandwidth 4 --out {out}", 0),
        ("expand --alpha -0.5 --beta -0.5 --mode half --n 64 --in {samples} --out {out}", 0),
        ("solve --alpha -0.5 --beta -0.5 --n 64 --a-in {a_coeffs} --f-fn sech --bandwidth 4 --out {out}", 0),
    ], ids=["eval", "diff", "basis", "ft", "usage-error", "expand-fast", "expand-half-fast", "solve-fast",
            "expand-half-samples", "solve-a-coefficients"])
    def test_commands_without_scipy(self, tmp_path, argv, code):
        _, coeffs = _expand_sech(tmp_path)
        samples, a_coeffs = tmp_path / "samples.csv", tmp_path / "a.csv"
        xs = np.linspace(-8.0, 8.0, 161)
        write_table(str(samples), {"x": xs, "value": 1.0 / np.cosh(xs)}, "csv")
        write_table(str(a_coeffs), {"m": np.arange(3), "c": [2.0, 0.3, -0.1]}, "csv")
        argv = [a.format(coeffs=coeffs, out=tmp_path / "out.csv", samples=samples, a_coeffs=a_coeffs)
                for a in argv.split()]
        assert _scipy_loaded_by(*argv, code=code) == set()

    def test_quadrature_expand_loads_linalg(self, tmp_path):
        loaded = _scipy_loaded_by("expand", "--fn", "sech", "--alpha", "0", "--beta", "0",
                                  "--n", "16", "--out", str(tmp_path / "c.csv"))
        assert "scipy.linalg" in loaded
        assert "scipy.fft" not in loaded


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

    def test_import_leaves_out_scipy_integrate(self):
        p = _python("-c", "import sys, tanhspec.cli; print('scipy.integrate' in sys.modules)")
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "False"

    def test_parse_points(self):
        assert np.allclose(parse_points("lin:0:1:3"), [0.0, 0.5, 1.0])
        assert np.allclose(parse_points("1,2.5,-3"), [1.0, 2.5, -3.0])
        with pytest.raises(ValueError):
            parse_points("lin:0:1")


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
