"""The sublink formula for the specialized polynomial.

At z = -a - a^-1 the oriented polynomial of a link collapses to a sum
of linking data: with com components,

    specialized F  =  (-1)^(com - 1) / 2  *  sum over sublinks S
                      of a^(-4 lk(S, rest)).

The division by two is exact because S and its complement contribute
equally.  ``verify_sublink_formula`` checks the identity with the skein
engine on the left and pure crossing counts on the right; the writhe
shift that powers it, writhe(reversed) - writhe = -4 lk, is checked
separately by ``check_reversal_writhe``.
"""

from __future__ import annotations

from .diagram import Diagram, InternalInvariantError
from .kauffman import specialized_f
from .laurent import LaurentA
from .report import VerificationReport, compare
from .transfer import check_skein_identity, check_specialization_identity, g_tau


def lmt_rhs(d: Diagram, mask: int = 0) -> LaurentA:
    """The sublink side of the formula, from linking numbers alone."""
    com = d.num_components
    total: dict[int, int] = {}
    for s in range(1 << com):
        e = -4 * d.linking_number(mask, s)
        total[e] = total.get(e, 0) + 1
    sign = (-1) ** (com - 1)
    half: dict[int, int] = {}
    for e, c in total.items():
        q, r = divmod(c, 2)
        if r:
            raise InternalInvariantError("sublink sum has an odd coefficient")
        half[e] = sign * q
    return LaurentA(half)


def check_reversal_writhe(
    d: Diagram, mask: int, submask: int, subject: str = ""
) -> VerificationReport:
    """Reversing a sublink shifts the writhe by -4 times its linking."""
    lhs = d.writhe(mask ^ submask) - d.writhe(mask)
    rhs = -4 * d.linking_number(mask, submask)
    return compare(subject, f"reversal-writhe[{submask:b}]", lhs, rhs)


def verify_sublink_formula(
    d: Diagram, mask: int = 0, memo: dict | None = None, subject: str = ""
) -> VerificationReport:
    """Skein engine versus linking data, compared exactly."""
    lhs = specialized_f(d, mask, memo=memo)
    rhs = lmt_rhs(d, mask)
    return compare(subject, "sublink-formula", lhs, rhs)


def verify_all(d: Diagram, mask: int = 0, subject: str = "") -> list[VerificationReport]:
    """Every check this package knows, sharing one skein cache and one g_tau(d)."""
    memo: dict = {}
    reports = [verify_sublink_formula(d, mask, memo=memo, subject=subject)]
    g = g_tau(d)
    reports.append(check_specialization_identity(d, memo=memo, subject=subject, g=g))
    for ci in range(len(d.crossings)):
        reports.append(check_skein_identity(d, ci, subject=subject, g=g))
    for s in range(1 << d.num_components):
        reports.append(check_reversal_writhe(d, mask, s, subject=subject))
    return reports
