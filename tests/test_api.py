"""The public namespace: what the package and its modules export."""

import importlib
import inspect

import pytest

import tanhspec

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
    from tanhspec.operators import banded_qr_lstsq
    from tanhspec.transforms import analyze_unweighted

    assert list(inspect.signature(analyze_unweighted).parameters) == ["f", "m_max"]
    assert list(inspect.signature(banded_qr_lstsq).parameters) == ["mat", "rhs"]
