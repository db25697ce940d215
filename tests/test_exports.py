"""Every exported name resolves, so a deleted definition cannot linger in an export list."""
import ast
import importlib
import pathlib

import pytest

import twostage

MODULES = ("bootstrap", "cli", "coupling", "designs", "estimators", "frame", "montecarlo", "rng")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"twostage.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"twostage.{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(twostage.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"twostage.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"twostage/__init__.py imports undefined names {missing}"


def test_the_normality_screen_lives_in_the_tests():
    """Only the acceptance and Monte Carlo tests screen pivots; the library does not."""
    import twostage.montecarlo as montecarlo

    for name in ("normality_screen", "anderson_darling_normal", "NormalityScreen"):
        assert not hasattr(twostage, name) and not hasattr(montecarlo, name), name
