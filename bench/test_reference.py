"""Checks of the benchmark's independent reference against closed forms.

Run with ``python3 -m pytest bench``.  The words are the corpus's braid
words; the expected values follow from the sublink formula by hand.
"""

import pytest

from reference import Closure, parse_poly, parse_poly_a, random_words, scale

KNOTS = {
    "trefoil_right": ([-1, -1, -1], 2),
    "trefoil_left": ([1, 1, 1], 2),
    "figure_eight": ([1, -2, 1, -2], 3),
    "granny_sum": ([1, 1, 1, 2, 2, 2], 3),
    "sigma1_sigma2inv_5": ([1, -2] * 5, 3),
}


def test_hopf_pos_closed_form():
    c = Closure([-1, -1], 2)
    assert c.components == 2
    assert c.writhe() == 2
    assert c.linking_number(0b01) == 1
    assert c.sublink_side() == {-4: -1, 0: -1}


def test_hopf_neg_and_torus_2_4():
    assert Closure([1, 1], 2).sublink_side() == {4: -1, 0: -1}
    assert Closure([-1] * 4, 2).sublink_side() == {-8: -1, 0: -1}


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_every_knot_gives_one(name):
    c = Closure(*KNOTS[name])
    assert c.components == 1
    assert c.sublink_side() == {0: 1}
    assert c.orientation_sum() == {c.writhe(): -2}


def test_component_counts():
    assert Closure([1, -2, 1, -2, 1], 3).components == 2  # whitehead
    assert Closure([1, -2] * 3, 3).components == 3  # borromean
    assert Closure([], 3).components == 3
    assert Closure([-1, -1], 5).components == 5


def test_borromean_linking_numbers_vanish():
    c = Closure([1, -2] * 3, 3)
    assert all(c.linking_number(s) == 0 for s in range(8))
    assert c.sublink_side() == {0: 4}


def test_writhe_is_minus_letter_sign_sum():
    for word, strands in random_words(5, 40, 8):
        c = Closure(word, strands)
        assert c.writhe() == -sum(1 if x > 0 else -1 for x in word)
        # Reversing a sublink shifts the writhe by -4 lk.
        for s in range(1 << c.components):
            assert c.writhe(s) - c.writhe() == -4 * c.linking_number(s)


def test_orientation_sum_is_minus_two_framed_sublink_side():
    # The orientation sum matches -2 times the framed value, which is the
    # oriented one times a^writhe.
    for word, strands in random_words(11, 60, 8):
        c = Closure(word, strands)
        w = c.writhe()
        framed = {e + w: k for e, k in c.sublink_side().items()}
        assert c.orientation_sum() == scale(framed, -2)


def test_split_circles_scale_by_minus_two():
    small = Closure([-1, -1, -3, -3, -3, -3], 4)
    for k in range(4):
        big = Closure([-1, -1, -3, -3, -3, -3], 4 + k)
        assert big.components == 4 + k
        assert big.sublink_side() == scale(small.sublink_side(), (-2) ** k)


def test_random_words_replay_is_deterministic():
    assert random_words(3, 50, 8) == random_words(3, 50, 8)
    words = random_words(3, 200, 8)
    assert all(2 <= s <= 4 and 1 <= len(w) <= 8 for w, s in words)


def test_parse_poly():
    assert parse_poly_a("-a^-4 - 1") == {-4: -1, 0: -1}
    assert parse_poly_a("1") == {0: 1}
    assert parse_poly_a("0") == {}
    assert parse_poly("-a^-1*z^-1 + a^-1*z + 1 - a*z^-1 + a*z") == {
        (-1, -1): -1,
        (-1, 1): 1,
        (0, 0): 1,
        (1, -1): -1,
        (1, 1): 1,
    }
    assert parse_poly("2*a^-3*z^2 - 12*z") == {(-3, 2): 2, (0, 1): -12}
    with pytest.raises(ValueError):
        parse_poly("a +")
    with pytest.raises(ValueError):
        parse_poly_a("z")
