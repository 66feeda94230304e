"""The package's public surface is exactly what ``__all__`` lists."""

import types

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
