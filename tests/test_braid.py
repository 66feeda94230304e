import random

import pytest
from moves import random_knot_closure

from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.diagram import Diagram, parse_pd
from lmtkauffman.kauffman import lambda_poly
from lmtkauffman.laurent import LaurentAZ


def test_empty_word_closes_to_loops():
    assert braid_closure([], 1) == Diagram((), 1)
    assert braid_closure([], 3) == Diagram((), 3)


def test_single_letters_close_to_curls():
    # positive letters put the left strand on top, which is the -1 tag
    assert lambda_poly(braid_closure([1], 2)) == LaurentAZ.monomial(1, -1)
    assert lambda_poly(braid_closure([-1], 2)) == LaurentAZ.monomial(1, 1)


def test_untouched_strands_become_loops():
    d = braid_closure([1], 3)
    assert d.free_loops == 1
    assert d.num_components == 2


def test_closure_matches_explicit_clasp():
    clasp = braid_closure([-1, -1], 2)
    assert clasp == parse_pd("Xr 1 3 4 2\nXr 3 1 2 4\n")


def test_word_validation():
    with pytest.raises(ValueError):
        braid_closure([2], 2)
    with pytest.raises(ValueError):
        braid_closure([0], 2)
    with pytest.raises(ValueError):
        braid_closure([], 0)


def test_component_counts():
    assert braid_closure([1, 1, 1], 2).num_components == 1
    assert braid_closure([1, 1], 2).num_components == 2
    assert braid_closure([1, -2, 1, -2, 1], 3).num_components == 2
    assert braid_closure([1, -2, 1, -2, 1, -2], 3).num_components == 3


def test_writhe_is_minus_letter_sum():
    rng = random.Random(30)
    for _ in range(50):
        word, k = random_word(rng, 8)
        d = braid_closure(word, k)
        assert d.writhe(0) == -sum(1 if w > 0 else -1 for w in word)


def test_random_word_deterministic():
    w1 = random_word(random.Random(99), 8)
    w2 = random_word(random.Random(99), 8)
    assert w1 == w2
    d1 = random_closure(random.Random(99), 8)
    d2 = random_closure(random.Random(99), 8)
    assert d1 == d2


def test_random_closure_bounds():
    rng = random.Random(31)
    for _ in range(100):
        d = random_closure(rng, 5)
        assert 1 <= len(d.crossings) <= 5


def test_random_knot_closure_single_component():
    rng = random.Random(32)
    for _ in range(20):
        assert random_knot_closure(rng, 7).num_components == 1
