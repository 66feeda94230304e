"""The package's public surface is exactly what ``__all__`` lists, every
module in it is reached, nothing outside its arguments and input files
steers it, and its sources parse at the oldest Python it supports."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import lmtkauffman


def test_star_import_and_all_agree_with_the_public_names():
    namespace: dict = {}
    exec("from lmtkauffman import *", namespace)
    assert all(name in namespace for name in lmtkauffman.__all__)
    assert len(set(lmtkauffman.__all__)) == len(lmtkauffman.__all__)
    public = {
        name
        for name, value in vars(lmtkauffman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(lmtkauffman.__all__) - {"__version__"}


def test_no_module_reads_the_environment():
    # one engine path: no environment variable switches a cache or a check
    modules = [lmtkauffman] + [
        importlib.import_module(f"lmtkauffman.{m.name}")
        for m in pkgutil.iter_modules(lmtkauffman.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        source = inspect.getsource(module)
        assert "environ" not in source and "getenv" not in source, module.__name__


def test_every_module_is_reached():
    # a module that neither the package nor its command line imports runs
    # for no verb and no export
    reached = {"cli"}
    for module in (lmtkauffman, importlib.import_module("lmtkauffman.cli")):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                reached.update([node.module] if node.module else [a.name for a in node.names])
    assert {m.name for m in pkgutil.iter_modules(lmtkauffman.__path__)} <= reached


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
