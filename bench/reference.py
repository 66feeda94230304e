"""Linking data of braid closures, computed from the braid word alone.

This module never imports the package: it is the independent side of the
benchmark's output checks.  Conventions follow the package's braid
closures: strands run downward, letter i crosses positions i and i+1, and
under the downward orientation a negative letter is a +1 crossing and a
positive letter a -1 crossing.  Components are the cycles of the word's
permutation, so a strand position no letter touches is a free circle.

Laurent polynomials in ``a`` are plain dicts ``{exponent: coefficient}``
with no zero coefficients.
"""

from __future__ import annotations

import random
from typing import Sequence


class Closure:
    """Components and signed crossings of the closure of one braid word."""

    def __init__(self, word: Sequence[int], strands: int):
        for letter in word:
            if not 0 < abs(letter) < strands:
                raise ValueError(f"letter {letter} does not fit {strands} strands")
        self.word = tuple(word)
        self.strands = strands
        # start[p]: the top position the strand now at position p started from.
        start = list(range(strands))
        for letter in word:
            i = abs(letter)
            start[i - 1], start[i] = start[i], start[i - 1]
        # A strand starting at top position start[p] ends at bottom position p,
        # which the closure joins back to top position p.
        succ = {start[p]: p for p in range(strands)}
        comp = [-1] * strands
        com = 0
        for q in range(strands):
            if comp[q] < 0:
                while comp[q] < 0:
                    comp[q] = com
                    q = succ[q]
                com += 1
        self.components = com
        # (component, component, sign) for each letter, in word order.
        start = list(range(strands))
        self.crossings: list[tuple[int, int, int]] = []
        for letter in word:
            i = abs(letter)
            left, right = comp[start[i - 1]], comp[start[i]]
            self.crossings.append((left, right, 1 if letter < 0 else -1))
            start[i - 1], start[i] = start[i], start[i - 1]

    def writhe(self, mask: int = 0) -> int:
        """Total sign with the components in mask reversed."""
        total = 0
        for u, o, sign in self.crossings:
            total += -sign if ((mask >> u) ^ (mask >> o)) & 1 else sign
        return total

    def linking_number(self, submask: int) -> int:
        """Linking number of the components in submask with all the others."""
        total = sum(
            sign
            for u, o, sign in self.crossings
            if ((submask >> u) ^ (submask >> o)) & 1
        )
        if total % 2:
            raise ArithmeticError("odd crossing count between a sublink and the rest")
        return total // 2

    def orientation_sum(self) -> dict[int, int]:
        """Sum of (-1)^com * a^writhe over all 2^com orientations."""
        sign = (-1) ** self.components
        terms: dict[int, int] = {}
        for mask in range(1 << self.components):
            w = self.writhe(mask)
            terms[w] = terms.get(w, 0) + sign
        return {e: c for e, c in terms.items() if c}

    def sublink_side(self) -> dict[int, int]:
        """(-1)^(com-1)/2 times the sum of a^(-4 lk(S, rest)) over sublinks S."""
        terms: dict[int, int] = {}
        for s in range(1 << self.components):
            e = -4 * self.linking_number(s)
            terms[e] = terms.get(e, 0) + 1
        sign = (-1) ** (self.components - 1)
        out = {}
        for e, c in terms.items():
            if c % 2:
                raise ArithmeticError("odd sublink count; S and its complement must pair")
            out[e] = sign * c // 2
        return out


def scale(poly: dict[int, int], factor: int) -> dict[int, int]:
    """The polynomial times an integer."""
    return {e: c * factor for e, c in poly.items() if c * factor}


def random_words(seed: int, count: int, max_crossings: int) -> list[tuple[list[int], int]]:
    """The braid words ``verify --random count --seed seed`` closes.

    Replays the documented generator: a Random(seed) draws the strand
    count in 2..4, the length in 1..max_crossings, then for each letter a
    position and a sign, in that order.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 4)
        length = rng.randint(1, max(1, max_crossings))
        word = []
        for _ in range(length):
            i = rng.randint(1, strands - 1)
            word.append(i if rng.random() < 0.5 else -i)
        out.append((word, strands))
    return out


def parse_poly(text: str) -> dict[tuple[int, int], int]:
    """Parse the CLI's signed monomial text, ``c*a^i*z^j`` terms, into a dict.

    Keys are (a exponent, z exponent).  Only the exact form the CLI prints
    is accepted; anything else raises ValueError.
    """
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple[int, int], int] = {}
    tokens = text.split(" ")
    first = True
    i = 0
    while i < len(tokens):
        if first:
            body = tokens[i]
            sign = -1 if body.startswith("-") else 1
            body = body.lstrip("-")
            i += 1
        else:
            if tokens[i] not in ("+", "-") or i + 1 >= len(tokens):
                raise ValueError(f"bad polynomial text {text!r}")
            sign = -1 if tokens[i] == "-" else 1
            body = tokens[i + 1]
            i += 2
        first = False
        coeff, ea, ez = 1, 0, 0
        for factor in body.split("*"):
            if factor.isdigit():
                coeff = int(factor)
            elif factor == "a" or factor.startswith("a^"):
                ea = int(factor[2:]) if factor != "a" else 1
            elif factor == "z" or factor.startswith("z^"):
                ez = int(factor[2:]) if factor != "z" else 1
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        if (ea, ez) in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[(ea, ez)] = sign * coeff
    return out


def parse_poly_a(text: str) -> dict[int, int]:
    """Parse CLI text of a polynomial in ``a`` alone."""
    out = {}
    for (ea, ez), c in parse_poly(text).items():
        if ez:
            raise ValueError(f"unexpected z in {text!r}")
        out[ea] = c
    return out
