import importlib.util
import random
from pathlib import Path

import pytest
from moves import invert_a

from lmtkauffman.braid import random_closure
from lmtkauffman.kauffman import _a_delta, f_oriented, lambda_poly
from lmtkauffman.laurent import (
    LaurentA,
    LaurentAZ,
    SpecializationError,
    format_poly,
)

DELTA = LaurentAZ({(1, -1): 1, (-1, -1): 1, (0, 0): -1})


def rand_a(rng, size=4):
    return LaurentA({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(size)})


def rand_az(rng, size=4):
    return LaurentAZ(
        {(rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-9, 9) for _ in range(size)}
    )


def test_zero_coefficients_dropped():
    assert LaurentA({3: 0, 1: 2}) == LaurentA({1: 2})
    assert not LaurentAZ({(1, 1): 0})
    assert LaurentAZ({(0, 0): 5}) == 5
    assert LaurentA({0: -1}) == -1


def test_hash_consistent_with_eq():
    assert hash(LaurentA({1: 2, 0: 0})) == hash(LaurentA({1: 2}))
    assert hash(LaurentAZ({(1, 0): 1})) == hash(LaurentAZ({(1, 0): 1, (5, 5): 0}))


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(1000):
        p, q, r = rand_a(rng), rand_a(rng), rand_a(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == LaurentA.zero()
        assert p * LaurentA.one() == p


def test_ring_axioms_random_two_variable():
    rng = random.Random(43)
    for _ in range(1000):
        p, q, r = rand_az(rng), rand_az(rng), rand_az(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == LaurentAZ.zero()


def test_pow():
    p = LaurentA({1: 1, -1: 1})
    assert p ** 0 == LaurentA.one()
    assert p ** 3 == p * p * p
    assert DELTA ** 2 == DELTA * DELTA
    with pytest.raises(ValueError):
        p ** -1


def test_pow_squares_no_further_than_it_needs(monkeypatch):
    # the power agrees with repeated multiplication, and squaring stops
    # once the exponent's top bit is used: DELTA ** 1 forms no square
    mul = LaurentAZ.__mul__
    expected = [LaurentAZ.one()]
    for _ in range(40):
        expected.append(mul(expected[-1], DELTA))
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentAZ, "__mul__", counted)
    for n in range(41):
        calls.clear()
        assert DELTA ** n == expected[n]
        # one product per set bit, one square per bit below the top one
        squares = max(0, n.bit_length() - 1)
        assert len(calls) <= squares + bin(n).count("1") <= 2 * n.bit_length(), (n, len(calls))


def test_substitute_z_on_circle_value():
    # delta = (a + a^-1) z^-1 - 1 collapses to -2 at z = -a - a^-1
    assert DELTA.substitute_z() == LaurentA({0: -2})
    for k in range(6):
        assert (DELTA ** k).substitute_z() == LaurentA({0: (-2) ** k})


def test_substitute_z_simple():
    az = LaurentAZ({(1, 1): 1})
    assert az.substitute_z() == LaurentA({2: -1, 0: -1})
    assert LaurentAZ.zero().substitute_z() == LaurentA.zero()
    assert LaurentAZ.one().substitute_z() == LaurentA.one()


def rand_plain_z(rng, size=3):
    # nonnegative z powers, where the substitution is always defined
    return LaurentAZ(
        {(rng.randint(-4, 4), rng.randint(0, 4)): rng.randint(-9, 9) for _ in range(size)}
    )


def test_substitute_z_is_a_ring_map():
    rng = random.Random(45)
    for _ in range(200):
        p = rand_plain_z(rng)
        q = rand_plain_z(rng)
        assert (p + q).substitute_z() == p.substitute_z() + q.substitute_z()
        assert (p * q).substitute_z() == p.substitute_z() * q.substitute_z()
        # multiplying by the loop value survives the z^-1 clearing step
        assert (p * DELTA).substitute_z() == -2 * p.substitute_z()


def test_substitute_z_not_laurent():
    with pytest.raises(SpecializationError):
        LaurentAZ({(0, -1): 1}).substitute_z()


def test_substitute_z_division_edges():
    # delta + 2 = (a + a^-1) z^-1 + 1 is 0 at z = -a - a^-1, though it
    # has a negative z power, and so is its square
    zero_value = DELTA + 2
    for p in (zero_value, zero_value * zero_value):
        value = p.substitute_z()
        assert value == LaurentA.zero() and type(value) is LaurentA
    # (a + a^-1) z^-1 is -1: one division by 1 + a^2 leaves no remainder
    assert LaurentAZ({(1, -1): 1, (-1, -1): 1}).substitute_z() == LaurentA({0: -1})
    # 1 + a^2 + a^3 leaves a remainder in its top exponent alone,
    # 1 + a + a^2 in the exponent just below its top alone
    for a_exps in ((0, 2, 3), (0, 1, 2)):
        with pytest.raises(SpecializationError, match="^specialization not Laurent$"):
            LaurentAZ({(e, -1): 1 for e in a_exps}).substitute_z()
    # (a + a^-1) z^-2 divides by 1 + a^2 once but not twice
    with pytest.raises(SpecializationError):
        LaurentAZ({(1, -2): 1, (-1, -2): 1}).substitute_z()


def _long_divide(num, den):
    # num / den for one-variable dicts, top term first; den's top
    # coefficient is 1 or -1.  An exact quotient reaches no lower than
    # min(num) - min(den), so what is left then is a remainder.
    num = {e: c for e, c in num.items() if c}
    top = max(den)
    bottom = min(num, default=0) - min(den)
    quot = {}
    while num and max(num) - top >= bottom:
        e = max(num) - top
        q = quot[e] = num[max(num)] * den[top]
        for de, dc in den.items():
            num[e + de] = num.get(e + de, 0) - q * dc
            if not num[e + de]:
                del num[e + de]
    if num:
        raise SpecializationError("specialization not Laurent")
    return quot


def _per_term_substitute_z(p):
    # every term times its own power of -a - a^-1 after clearing negative
    # z powers, then one long division by the power that cleared them
    if not p:
        return LaurentA.zero()
    neg = LaurentA({1: -1, -1: -1})
    shift = max(0, -min(z for _, z in p.terms))
    acc = LaurentA.zero()
    for (a_exp, z_exp), c in p.terms.items():
        acc = acc + LaurentA({a_exp: c}) * neg ** (z_exp + shift)
    return LaurentA(_long_divide(acc.terms, (neg**shift).terms))


def test_substitute_z_matches_per_term_evaluation():
    rng = random.Random(46)
    for _ in range(40):
        d = random_closure(rng, 7)
        for p in (lambda_poly(d), f_oriented(d)):
            assert p.substitute_z() == _per_term_substitute_z(p)
    # arbitrary polynomials, most with no Laurent specialization
    outcomes = set()
    for _ in range(200):
        p = rand_az(rng)
        try:
            want = _per_term_substitute_z(p)
        except SpecializationError:
            with pytest.raises(SpecializationError):
                p.substitute_z()
            outcomes.add("refused")
        else:
            assert p.substitute_z() == want
            outcomes.add("value")
    assert outcomes == {"refused", "value"}
    # delta^(k - 1), the value of k free loops, collapses to (-2)^(k - 1)
    for k in range(1, 129):
        assert _a_delta(0, k - 1).substitute_z() == LaurentA({0: (-2) ** (k - 1)})


def test_format_examples():
    assert format_poly(LaurentAZ.zero()) == "0"
    assert format_poly(LaurentAZ.one()) == "1"
    assert format_poly(LaurentAZ({(1, 0): 1})) == "a"
    assert format_poly(LaurentAZ({(-1, 0): -2, (0, 2): 1})) == "-2*a^-1 + z^2"
    assert format_poly(LaurentAZ({(1, 1): 1})) == "a*z"
    assert format_poly(DELTA) == "a^-1*z^-1 - 1 + a*z^-1"
    assert format_poly(LaurentA({3: -1, 0: 4})) == "4 - a^3"


def _reference_parse_poly():
    # the benchmark's parser of CLI output, which never imports the package
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.parse_poly


def test_parse_format_roundtrip_random():
    parse_poly = _reference_parse_poly()
    rng = random.Random(46)
    for _ in range(300):
        p = rand_az(rng, 5)
        assert LaurentAZ(parse_poly(format_poly(p))) == p
    for _ in range(300):
        p = rand_a(rng, 5)
        assert LaurentAZ(parse_poly(format_poly(p))) == p


def test_invert_a():
    p = LaurentA({3: 2, -1: 5})
    assert invert_a(p) == LaurentA({-3: 2, 1: 5})
    q = LaurentAZ({(2, 1): 7})
    assert invert_a(q) == LaurentAZ({(-2, 1): 7})
    rng = random.Random(47)
    for _ in range(100):
        p, q = rand_az(rng), rand_az(rng)
        assert invert_a(p * q) == invert_a(p) * invert_a(q)


def test_immutability():
    p = LaurentA({1: 1})
    with pytest.raises(AttributeError):
        p._terms = {}
    t = p.terms
    t[99] = 1
    assert p == LaurentA({1: 1})


def test_one_variable_face_and_mixed_operands():
    p = LaurentA({1: 1, -1: 1})
    z = LaurentAZ.monomial(1, 0, 1)
    assert p.terms == {1: 1, -1: 1}
    assert repr(p) == "LaurentA({1: 1, -1: 1})"
    for q in (p * p, p + 1, 1 - p, 2 * p, p ** 3, -p, invert_a(p)):
        assert type(q) is LaurentA
    for q in (p * z, z * p, p + z, z - p):
        assert type(q) is LaurentAZ
    assert p * z == LaurentAZ({(1, 1): 1, (-1, 1): 1})
    az = LaurentAZ({(1, 0): 1, (-1, 0): 1})
    assert p == az and hash(p) == hash(az)
    assert LaurentA.one() == LaurentAZ.one() == 1
