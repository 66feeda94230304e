"""A diagram's end structure and braid closures against ``boundary_oracle``.

Each diagram derives its end array, strands, sign table and components
at each crossing in one pass when it is made, checked or trusted; the
oracle derives each of them on its own.  ``braid_closure`` lays out raw
edge ids flat and closes them through a list; the oracle joins them
through a dict.
"""

import random

import boundary_oracle
import pytest
from moves import distant_union

from lmtkauffman.braid import braid_closure, random_word
from lmtkauffman.corpus import CORPUS
from lmtkauffman.diagram import Crossing, Diagram, _trusted


def _assert_structure(d):
    mate, strands, sign_table, crossing_comps = boundary_oracle.end_structure(d.crossings)
    assert d._mate == mate
    assert d._strands == strands
    assert d._sign_table == sign_table
    assert d._crossing_comps == crossing_comps
    assert d.num_components == len(strands) + d.free_loops


def _diagrams():
    rng = random.Random(29)
    closures = [braid_closure(*random_word(rng, 10, max_strands=6)) for _ in range(300)]
    assert sum(1 for d in closures if d.free_loops and d.crossings) >= 20
    out = [e.diagram() for e in CORPUS] + closures
    for d in out[:60]:
        for ci in range(len(d.crossings)):
            out += [d.switch(ci), d.smooth(ci, "A"), d.smooth(ci, "B")]
    out += [distant_union(a, b) for a, b in zip(closures[:40], closures[40:80])]
    return out


def test_end_structure_matches_the_separate_derivations():
    diagrams = _diagrams()
    assert len(diagrams) > 1000
    for d in diagrams:
        for made in (d, Diagram(d.crossings, d.free_loops), _trusted(d.crossings, d.free_loops)):
            _assert_structure(made)


def test_braid_closure_matches_the_dict_based_closure():
    # 2,500 seeded words of 0-12 letters on 1-7 strands
    rng = random.Random(30)
    for _ in range(2500):
        strands = rng.randint(1, 7)
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 12) if strands > 1 else 0)
        ]
        d = braid_closure(word, strands)
        records, loops = boundary_oracle.braid_closure(word, strands)
        assert d.crossings == records and d.free_loops == loops, (word, strands)
        assert all(type(c) is Crossing for c in d.crossings)
        _assert_structure(d)


def test_braid_closure_refuses_as_the_dict_based_closure():
    for word, strands in (([2], 2), ([0], 2), ([], 0), ([1, -3], 3), ([1, 1, 5, 0], 4)):
        with pytest.raises(ValueError) as want:
            boundary_oracle.braid_closure(word, strands)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            braid_closure(word, strands)
