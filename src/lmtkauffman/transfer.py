"""Summing a framed-link weight over all orientations.

Each of the 2^com orientations of a diagram contributes
(-1)^com * a^writhe; ``g_tau`` is the total.  The normalization makes
the zero-crossing circle come out as -2, and the sum then satisfies two
identities that are checked here exactly:

* at any crossing, the values of the diagram and its switch add up to
  (-a - a^-1) times the sum of the values of the two smoothings, which
  is the z = -a - a^-1 shadow of the skein rule;
* the total equals -2 times the specialized framed polynomial, so this
  module is an independent cross-check of the skein engine that never
  touches the skein recursion itself.
"""

from __future__ import annotations

from .diagram import Diagram
from .kauffman import lambda_poly
from .laurent import LaurentA
from .report import VerificationReport, compare

# Specialization of z.
NEG_A_PAIR = LaurentA({1: -1, -1: -1})


def orientations(d: Diagram) -> range:
    """All orientation masks of the diagram."""
    return range(1 << d.num_components)


def g_tau(d: Diagram) -> LaurentA:
    """Sum of (-1)^com * a^writhe over every orientation, as one polynomial.

    The writhe under a mask is the framing of that oriented diagram, so
    the sum collects (-1)^com * a^writhe over all masks.
    """
    com = d.num_components
    sign = (-1) ** com
    terms: dict[int, int] = {}
    for mask in orientations(d):
        w = d.writhe(mask)
        terms[w] = terms.get(w, 0) + sign
    return LaurentA(terms)


def check_skein_identity(
    d: Diagram, ci: int, subject: str = "", g: LaurentA | None = None
) -> VerificationReport:
    """Check the switch/smooth relation of g_tau at one crossing.

    g, if given, is g_tau(d), so that a caller checking every crossing
    sums the diagram's orientations once.
    """
    lhs = (g_tau(d) if g is None else g) + g_tau(d.switch(ci))
    rhs = NEG_A_PAIR * (g_tau(d.smooth(ci, "A")) + g_tau(d.smooth(ci, "B")))
    return compare(subject, f"orientation-sum-skein[{ci}]", lhs, rhs)


def check_specialization_identity(
    d: Diagram, memo: dict | None = None, subject: str = "", g: LaurentA | None = None
) -> VerificationReport:
    """Check g_tau against -2 times the specialized framed polynomial.

    g, if given, is g_tau(d).
    """
    lhs = g_tau(d) if g is None else g
    rhs = -2 * lambda_poly(d, memo=memo).substitute_z()
    return compare(subject, "orientation-sum-vs-engine", lhs, rhs)
