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


def _calls(root, names) -> list[str]:
    """The names among ``names`` that calls under ``root`` make, by name or as an attribute."""
    called = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(root) if isinstance(node, ast.Call)]
    return [name for name in called if name in names]


def _package_trees() -> dict:
    package = pathlib.Path(twostage.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _function(tree, name):
    return next(fn for fn in tree.body if getattr(fn, "name", None) == name)


def test_replicate_keys_are_derived_in_one_walk():
    """Every ``substream_keys`` call sits in ``rng.key_blocks``, which derives a chunk of keys
    at a time, so no replicate loop walks its keys another way."""
    trees = _package_trees()
    calls = {name: len(_calls(tree, {"substream_keys"})) for name, tree in trees.items()}
    walk = len(_calls(_function(trees["rng"], "key_blocks"), {"substream_keys"}))
    assert walk > 0
    assert calls == {name: walk if name == "rng" else 0 for name in trees}


def test_coupling_draws_from_a_stream_only_in_its_two_scalar_draws():
    """The block decoders replay numpy's first-stage draws from raw words; only
    ``coupled_be_si`` and ``coupled_sir_si`` make them on a generator, so no scalar copy of
    either draw grows back."""
    tree = _package_trees()["coupling"]
    draws = {"si_order", "si_order_excluding", "integers", "random"}
    inside = [call for name in ("coupled_be_si", "coupled_sir_si")
              for call in _calls(_function(tree, name), draws)]
    assert inside and sorted(_calls(tree, draws)) == sorted(inside)


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
