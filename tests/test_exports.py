"""The package namespace exports exactly what its modules export."""

import importlib
import pkgutil

import wedgepower


def _exporting_modules():
    modules = (
        importlib.import_module(f"wedgepower.{info.name}")
        for info in pkgutil.iter_modules(wedgepower.__path__)
    )
    return [module for module in modules if hasattr(module, "__all__")]


def test_package_exports_the_union_of_module_exports():
    union = {"__version__"}
    for module in _exporting_modules():
        union.update(module.__all__)
    assert len(wedgepower.__all__) == len(set(wedgepower.__all__))
    assert set(wedgepower.__all__) == union


def test_every_export_resolves():
    for module in _exporting_modules():
        for name in module.__all__:
            assert getattr(wedgepower, name) is getattr(module, name), name
    assert isinstance(wedgepower.__version__, str)


def test_test_only_helpers_are_not_exported():
    # regularized_incomplete_beta moved to tests/f_oracle.py
    for name in ("regularized_incomplete_beta", "dataset_from_csv"):
        assert name not in wedgepower.__all__
        assert not hasattr(wedgepower, name)
