"""Exact Laurent polynomial arithmetic over the integers.

One sparse representation, ``LaurentAZ``, keyed by ``(a exponent, z
exponent)``, holds all of the arithmetic between polynomials.  The two
hottest sums, a skein node's value (``kauffman``) and the two sides of
the orientation-sum skein check (``transfer``), add into plain term dicts
instead and build one polynomial at the end, as ``substitute_z`` does.
``LaurentA`` is its face for polynomials in ``a`` alone: it stores terms
with z exponent 0 and speaks of a exponents only.  Coefficients are
Python ints, so nothing here can overflow.  The term dict is canonical
(no zero coefficients), which makes equality and hashing structural,
also between the two classes.

``LaurentAZ.substitute_z`` evaluates at z = -a - a^-1, the specialization
the package checks.  It works on a plain dict of a exponents: Horner's
rule gives z^N times the value, where z^-N is the lowest z power, and it
divides by (1 + a^2)^N itself.

:func:`format_poly` prints the text form, a sum of signed monomials
``c*a^i*z^j`` with the parts equal to 1 left out, for example
``-2*a^-1 + z^2`` or ``a + a^-1``.  Terms come in ascending order of
``(a exponent, z exponent)``, so equal polynomials print alike.
"""

from __future__ import annotations

from typing import Mapping


class SpecializationError(ArithmeticError):
    """Substituting z did not produce a Laurent polynomial in a."""


def _coerce(other):
    """other as a polynomial, an int as a constant LaurentA, else None."""
    if isinstance(other, LaurentAZ):
        return other
    if isinstance(other, int):
        return LaurentA._from_pairs({(0, 0): other})
    return None


def _result(p, q) -> type:
    """The class of a result: LaurentA only when both operands are."""
    return type(p) if isinstance(q, LaurentA) else LaurentAZ


class LaurentAZ:
    """A Laurent polynomial in ``a`` and ``z`` with integer coefficients.

    Terms are keyed by ``(a_exp, z_exp)``.  This class holds all of the
    arithmetic; :class:`LaurentA` is its one-variable face.  Operands may
    be ints, LaurentA or LaurentAZ in any mix, and a result is a LaurentAZ
    as soon as one operand is.

    >>> delta = LaurentAZ({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
    >>> str(delta)
    'a^-1*z^-1 - 1 + a*z^-1'
    >>> delta.substitute_z() == LaurentA({0: -2})
    True
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        object.__setattr__(self, "_terms", {e: c for e, c in (terms or {}).items() if c})

    @classmethod
    def _from_pairs(cls, terms: dict) -> "LaurentAZ":
        """An instance of cls over a dict keyed by (a_exp, z_exp)."""
        p = object.__new__(cls)
        LaurentAZ.__init__(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls) -> "LaurentAZ":
        return cls._from_pairs({})

    @classmethod
    def one(cls) -> "LaurentAZ":
        return cls._from_pairs({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, a_exp: int = 0, z_exp: int = 0) -> "LaurentAZ":
        return cls({(a_exp, z_exp): coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentAZ":
        return self._from_pairs({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "LaurentAZ":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return _result(self, other)._from_pairs(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentAZ":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentAZ":
        return (-self) + other

    def __mul__(self, other) -> "LaurentAZ":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for (a1, z1), c1 in self._terms.items():
            for (a2, z2), c2 in other._terms.items():
                e = (a1 + a2, z1 + z2)
                out[e] = out.get(e, 0) + c1 * c2
        return _result(self, other)._from_pairs(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentAZ":
        """self ** n by squaring: at most 2 * n.bit_length() products."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def substitute_z(self) -> LaurentA:
        """Evaluate at z = -a - a^-1 and return the result in a alone.

        The terms are grouped by z exponent and the groups evaluated by
        Horner's rule on a plain {a_exp: coeff} dict, down to z^-N for the
        most negative exponent -N, which gives z^N times the value.  As
        z^N = (-1)^N a^-N (1 + a^2)^N, N synthetic divisions by 1 + a^2,
        each read from the lowest exponent up, remove that factor.  A
        nonzero remainder in the top two exponents means the value is not
        a Laurent polynomial in a, which no well-formed invariant computed
        here can produce, so it is raised as SpecializationError.
        """
        if not self:
            return LaurentA.zero()
        groups: dict[int, dict[int, int]] = {}
        for (a_exp, z_exp), c in self._terms.items():
            groups.setdefault(z_exp, {})[a_exp] = c
        shift = max(0, -min(groups))
        acc: dict[int, int] = {}
        for z_exp in range(max(groups), -shift - 1, -1):
            nxt = dict(groups.get(z_exp, {}))
            for e, c in acc.items():
                nxt[e - 1] = nxt.get(e - 1, 0) - c
                nxt[e + 1] = nxt.get(e + 1, 0) - c
            acc = nxt
        acc = {e: c for e, c in acc.items() if c}
        if not acc:
            return LaurentA.zero()
        for _ in range(shift):
            hi = max(acc)
            quot: dict[int, int] = {}
            for e in range(min(acc), hi - 1):
                c = acc.pop(e, 0)
                if c:
                    quot[e] = c
                    acc[e + 2] = acc.get(e + 2, 0) - c
            if acc.get(hi - 1, 0) or acc.get(hi, 0):
                raise SpecializationError("specialization not Laurent")
            acc = quot
        sign = (-1) ** shift
        return LaurentA({e + shift: sign * c for e, c in acc.items()})

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentAZ({self._terms!r})"


class LaurentA(LaurentAZ):
    """A Laurent polynomial in ``a`` with integer coefficients.

    The one-variable face of :class:`LaurentAZ`: terms are stored with z
    exponent 0, and ``terms`` and ``monomial`` speak of the a
    exponent alone.  Results stay LaurentA while every operand is a
    LaurentA or an int.

    >>> p = LaurentA({1: 1, -1: 1})
    >>> str(p * p)
    'a^-2 + 2 + a^2'
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, int] | None = None):
        super().__init__({(e, 0): c for e, c in (terms or {}).items()})

    # Own entries in the class dict: bench/tracing.py wraps each class's operators.
    __mul__ = __rmul__ = LaurentAZ.__mul__
    __add__ = __radd__ = LaurentAZ.__add__
    __pow__ = LaurentAZ.__pow__

    @classmethod
    def monomial(cls, coeff: int, a_exp: int = 0) -> "LaurentA":
        return cls({a_exp: coeff})

    @property
    def terms(self) -> dict:
        return {a: c for (a, _), c in self._terms.items()}

    def __repr__(self) -> str:
        return f"LaurentA({self.terms!r})"


def format_poly(p) -> str:
    """Render a LaurentA or LaurentAZ as signed monomial text."""
    pieces = []
    for (a_exp, z_exp), c in sorted(p._terms.items()):
        factors = []
        if a_exp:
            factors.append("a" if a_exp == 1 else f"a^{a_exp}")
        if z_exp:
            factors.append("z" if z_exp == 1 else f"z^{z_exp}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces) if pieces else "0"

