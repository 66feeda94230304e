"""The examples in the package's docstrings run and hold.

Each module is run through ``doctest.testmod`` here rather than by
``--doctest-modules``, which would also import ``bench/``.
"""

import doctest
import importlib
import pkgutil

import lmtkauffman


def test_docstring_examples():
    modules = [lmtkauffman] + [
        importlib.import_module(f"lmtkauffman.{info.name}")
        for info in pkgutil.iter_modules(lmtkauffman.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    # laurent's five examples and canonical_code's three
    assert attempted >= 8
