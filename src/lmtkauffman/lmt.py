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

The sublinks are not enumerated one by one.  lk(S, rest) is half the sum
of C[u, o] * e_u * e_o over the pairs of components that S separates
(``Diagram.pair_signs``), so -4 lk(S, rest) is a sum over the edges of
the linking graph and the sum over S is a product over its connected
pieces (``transfer.sum_over_masks``); a component that links nothing
just doubles it, a component linked to one other factors out as
(1 + a^(-2 C)), and only the 2-core left of a piece once such leaves are
stripped is enumerated, so a chain costs linear time.  The right side
still comes from crossing signs alone, independent of the skein
recursion on the left.  The reversal-writhe checks are one report per
sublink, so ``verify_all`` still returns 2^com of them, and refuses
diagrams above ``MAX_VERIFY_COMPONENTS``.  It computes far fewer:
reversing a component that is in no pair of the flat pair table changes
neither the writhe nor a linking number, so the report for sublink S has
the sides and verdict of the one for S's linked part, and each linked
part is checked once, through ``Diagram.writhe`` and
``Diagram.linking_number``.  The 2^com sides are listed in one pass, one
component at a time: an unlinked component doubles the list; for a
linked one, each new sublink with an unlinked component looks up its
linked part, listed before it, and each other one is checked.  Each
report is made by ``tuple.__new__``, as the named tuple's ``_make`` does,
so no Python-level constructor runs 2^com times.

``verify_all`` specializes lambda once, lambda(z = -a - a^-1), and hands
it to the sublink formula and to the specialization identity.  Setting z
commutes with multiplying by a power of a, so a^(-writhe) times it is
exactly ``specialized_f``; the sublink formula shifts its exponents by
-writhe as a dict.
"""

from __future__ import annotations

from .diagram import Diagram, DiagramError, InternalInvariantError
from .kauffman import lambda_poly
from .laurent import LaurentA
from .transfer import (
    VerificationReport,
    check_skein_identity,
    check_specialization_identity,
    compare,
    g_tau,
    sum_over_masks,
    summed_components,
)

# verify_all reports one reversal-writhe check per sublink, 2^com lines;
# 16 components give 65,536 of them, however few it has to compute.
MAX_VERIFY_COMPONENTS = 16


def lmt_rhs(d: Diagram, mask: int = 0) -> LaurentA:
    """The sublink side of the formula, from linking numbers alone.

    A pair that S separates adds C[u, o] * e_u * e_o to 2 lk(S, rest),
    so it weighs -2 times that in the exponent, and 0 when S keeps the
    pair together.  Two components of a diagram cross an even number of
    times (its constructor refuses records that are not planar), so the
    linking numbers are integers.
    """
    com = summed_components(d.num_components, "sublink sum")
    weights = {pair: (0, -2 * c) for pair, c in d.pair_signs(mask).items()}
    total = sum_over_masks(com, weights)
    sign = (-1) ** (com - 1)
    half: dict[int, int] = {}
    for e, c in total.items():
        q, r = divmod(c, 2)
        if r:
            raise InternalInvariantError("sublink sum has an odd coefficient")
        half[e] = sign * q
    return LaurentA(half)


def check_reversal_writhe(
    d: Diagram, mask: int, submask: int, subject: str = "", writhe: int | None = None
) -> VerificationReport:
    """Reversing a sublink shifts the writhe by -4 times its linking.

    writhe, if given, is d.writhe(mask), so that a caller checking every
    sublink computes it once.  The linking number comes first, so a bad
    submask is refused as a sublink mask.
    """
    rhs = -4 * d.linking_number(mask, submask)
    lhs = d.writhe(mask ^ submask) - (d.writhe(mask) if writhe is None else writhe)
    return compare(subject, f"reversal-writhe[{submask:b}]", lhs, rhs)


def verify_sublink_formula(
    d: Diagram,
    mask: int = 0,
    subject: str = "",
    lam: LaurentA | None = None,
) -> VerificationReport:
    """Skein engine versus linking data, compared exactly.

    The left side is specialized_f(d, mask).  lam, if given, is
    lambda_poly(d).substitute_z(), so that a caller checking it against
    more than one identity specializes it once.
    """
    w = d.writhe(mask)
    if lam is None:
        lam = lambda_poly(d).substitute_z()
    lhs = LaurentA._from_pairs({(e - w, 0): c for (e, _), c in lam._terms.items()})
    rhs = lmt_rhs(d, mask)
    return compare(subject, "sublink-formula", lhs, rhs)


def verify_all(d: Diagram, subject: str = "") -> list[VerificationReport]:
    """Every check this package knows, sharing one specialized lambda, g_tau and writhe.

    A diagram of more than MAX_VERIFY_COMPONENTS components raises
    DiagramError before any check runs.
    """
    com = d.num_components
    if com > MAX_VERIFY_COMPONENTS:
        raise DiagramError(
            f"verify handles at most {MAX_VERIFY_COMPONENTS} components, this diagram "
            f"has {com}: it would report 2^{com} reversal-writhe checks"
        )
    w = d.writhe()
    lam = lambda_poly(d).substitute_z()
    reports = [verify_sublink_formula(d, subject=subject, lam=lam)]
    g = g_tau(d)
    reports.append(check_specialization_identity(d, subject=subject, g=g, lam=lam))
    reports += [
        check_skein_identity(d, ci, subject=subject, g=g) for ci in range(len(d.crossings))
    ]
    # rows[s] is sublink s's sides, for s below 2^(i + 1) once component
    # i is added: an unlinked component repeats the rows; a new sublink
    # with an unlinked component looks up its linked part s & linked,
    # listed before it, and each submask of linked is checked once
    linked = 0
    for u, o, _ in d._sign_table[1]:
        linked |= 1 << u | 1 << o
    rows = [check_reversal_writhe(d, 0, 0, writhe=w)[2:]]
    for i in range(com):
        bit = 1 << i
        if linked & bit:
            for s in range(bit, 2 * bit):
                rows.append(
                    rows[s & linked]
                    if s & ~linked
                    else check_reversal_writhe(d, 0, s, writhe=w)[2:]
                )
        else:
            rows += rows
    # tuple.__new__ is what the named tuple's _make calls: no Python-level
    # __new__ per report
    new = tuple.__new__
    reports += [
        new(VerificationReport, (subject, f"reversal-writhe[{s:b}]", lhs, rhs, passed))
        for s, (lhs, rhs, passed) in enumerate(rows)
    ]
    return reports
