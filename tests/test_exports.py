"""Every exported name resolves, so a deleted definition cannot linger in an export list."""
import ast
import importlib
import pathlib
import sys

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


# montecarlo no longer calls si_order, but perfbench's tracer test wraps it at that import site
UNUSED_IMPORT_EXCEPTIONS = {("montecarlo", "si_order")}


def _unused_imports(path: pathlib.Path) -> set[str]:
    """Names a module imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {ast.literal_eval(e) for e in node.value.elts}
    return imported - read


def test_modules_use_what_they_import():
    """A deletion leaves no dead import behind (the package's __init__ only re-exports)."""
    package = pathlib.Path(twostage.__file__).parent
    unused = {(path.stem, name) for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)}
    assert unused == UNUSED_IMPORT_EXCEPTIONS


def test_only_rng_reads_a_generators_bit_generator():
    """numpy's streams are replayed from raw words in one module, so a stream change edits one."""
    package = pathlib.Path(twostage.__file__).parent
    readers = sorted(path.stem for path in package.glob("*.py") if path.name != "rng.py"
                     and any(isinstance(node, ast.Attribute) and node.attr == "bit_generator"
                             for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == []


def test_coupling_derives_keys_in_one_helper():
    """The verification helpers take their keys from ``_key_blocks``, which derives them a
    chunk at a time, so no loop pays a derivation's fixed cost per block."""
    tree = ast.parse((pathlib.Path(twostage.__file__).parent / "coupling.py").read_text())

    def calls(root) -> int:  # by name or as an attribute, anywhere under ``root``
        return sum(isinstance(node, ast.Call) and "substream_keys" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(root))

    helper = next(fn for fn in tree.body if getattr(fn, "name", None) == "_key_blocks")
    assert calls(tree) == calls(helper) > 0


def test_only_numpy_beyond_the_standard_library():
    """The one runtime dependency is numpy: every other import is the standard library's or
    the package's own."""
    package = pathlib.Path(twostage.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside |= {(path.stem, root) for root in roots if root not in allowed}
    assert outside == set()
