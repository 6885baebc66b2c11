"""The public namespace: what the package and its modules export."""

import importlib
import inspect

import numpy as np
import pytest

import tanhspec
from tanhspec import BasisSpec, Expansion, JacobiParams

MODULES = ["basis", "cli", "fourier", "jacobi", "operators", "special", "transforms"]


@pytest.mark.parametrize("name", [None] + MODULES)
def test_every_exported_name_resolves(name):
    mod = tanhspec if name is None else importlib.import_module(f"tanhspec.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_package_exports_exactly_its_imports():
    imported = {n for n, v in vars(tanhspec).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(tanhspec.__all__) == imported


def test_fixed_settings_take_no_parameter():
    from tanhspec.cli import _barycentric
    from tanhspec.operators import banded_qr_lstsq
    from tanhspec.transforms import analyze_unweighted

    assert list(inspect.signature(analyze_unweighted).parameters) == ["f", "m_max"]
    assert list(inspect.signature(banded_qr_lstsq).parameters) == ["mat", "rhs"]
    assert list(inspect.signature(_barycentric).parameters) == ["x_samples", "values"]


_SPEC = BasisSpec(JacobiParams(1.3, 0.2))
_EXPANSION = Expansion(_SPEC, np.linspace(1.0, 0.1, 12))


@pytest.mark.parametrize("call,points", [
    (lambda x: tanhspec.phi_full(_SPEC, 5, x), np.linspace(-3.0, 3.0, 6)),
    (lambda x: tanhspec.derivative_pointwise(_SPEC, 5, x), np.linspace(-3.0, 3.0, 6)),
    (lambda x: tanhspec.clenshaw_eval(_EXPANSION, x), np.linspace(-3.0, 3.0, 6)),
    (lambda x: tanhspec.synthesize(_EXPANSION, x), np.linspace(-3.0, 3.0, 6)),
    (lambda xi: tanhspec.carlitz_eval(_SPEC.params, 5, xi), np.linspace(-20.0, 20.0, 6)),
    (lambda xi: tanhspec.fourier_transform(_EXPANSION, xi), np.linspace(-20.0, 20.0, 6)),
], ids=["phi_full", "derivative_pointwise", "clenshaw_eval", "synthesize", "carlitz_eval", "fourier_transform"])
def test_points_of_any_shape(call, points):
    # values shaped like their points, bit for bit those of the flat call
    got, flat = call(points.reshape(2, 3)), call(points)
    assert got.shape == (2, 3) and got.tobytes() == flat.tobytes()


@pytest.mark.parametrize("call", [
    lambda x: tanhspec.phi_full(_SPEC, 2, x),
    lambda x: tanhspec.derivative_pointwise(_SPEC, 2, x),
    lambda x: tanhspec.clenshaw_eval(_EXPANSION, x),
    lambda x: tanhspec.synthesize(_EXPANSION, x),
], ids=["phi_full", "derivative_pointwise", "clenshaw_eval", "synthesize"])
def test_nan_points_raise_infinite_points_vanish(call):
    # a NaN x has no value; the weight makes every function exactly 0 at x = +-inf
    with pytest.raises(ValueError, match="x must not be NaN"):
        call(np.array([np.nan, np.inf, -np.inf, 0.5]))
    got = call(np.array([np.inf, -np.inf, 0.5]))
    assert got[:2].tolist() == [0.0, 0.0] and got[2] != 0.0
