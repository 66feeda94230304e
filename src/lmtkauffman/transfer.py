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

The sum is not enumerated over all 2^com masks.  Under a mask the writhe
is the self-writhe + sum of C[u, o] * e_u * e_o over pairs of components
(``Diagram.pair_signs``), so it splits into one term per connected piece
of the linking graph, whose edges are the pairs with C != 0, and the sum
over masks is a product over the pieces: 2^k masks for a piece of k
components, and a factor 2 for each component that links nothing.
``sum_over_masks`` does this for any weight that is a sum over those
pairs, and ``lmt.lmt_rhs`` uses it too.  Every value still comes from
crossing signs alone, so the check against the engine stays independent
of the recursion; only the order of summation changes.

``check_skein_identity`` builds no diagram: the switch's sum is the
diagram's sign table with one sign changed, and each smoothing's comes
from the table (``diagram._sign_table_of``) of the strands that
``diagram._walk`` finds in a copy of the end array with the crossing
unplugged.  The sums stay plain {a_exp: coeff} dicts: each side adds
its two into one dict, the factor -a - a^-1 of the smoothings as two
exponent shifts, and becomes a ``LaurentA`` once, for the report.

``check_specialization_identity`` takes the specialized polynomial
lambda(z = -a - a^-1) from its caller when it has one: ``lmt.verify_all``
computes it once for this identity and the sublink formula together.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .diagram import SMOOTHING, TAG_SIGN, Diagram, DiagramError, InvalidDiagramError
from .diagram import _sign_table_of, _unplug, _walk
from .kauffman import EmptyDiagramError, lambda_poly
from .laurent import LaurentA
from .report import VerificationReport, compare

# g_tau and lmt_rhs have coefficients up to 2^com; 4096 components keep
# them within 1,234 digits, which print at once.
MAX_SUM_COMPONENTS = 4096


def sum_over_masks(
    com: int, weights: Mapping[tuple[int, int], tuple[int, int]]
) -> dict[int, int]:
    """Sum of a^(weight of x) over the 2^com masks x, as exponent -> count.

    weights maps a pair u < o of components to (w_same, w_cut); the
    weight of x sums w_same over the pairs whose bits agree in x and
    w_cut over the pairs they separate.  The sum is a product over the
    connected pieces of the graph on those pairs, each piece enumerated
    alone, times 2 for every component in no pair.
    """
    adjacent: dict[int, list[int]] = {}
    for u, o in weights:
        adjacent.setdefault(u, []).append(o)
        adjacent.setdefault(o, []).append(u)
    seen: set[int] = set()
    total = {0: 1 << (com - len(adjacent))}
    for root in adjacent:
        if root in seen:
            continue
        seen.add(root)
        piece = [root]
        for v in piece:
            for x in adjacent[v]:
                if x not in seen:
                    seen.add(x)
                    piece.append(x)
        bit = {v: i for i, v in enumerate(piece)}
        edges = [(bit[u], bit[o], w) for (u, o), w in weights.items() if u in bit]
        terms: dict[int, int] = {}
        for x in range(1 << len(piece)):
            e = sum(w[((x >> i) ^ (x >> j)) & 1] for i, j, w in edges)
            terms[e] = terms.get(e, 0) + 1
        product: dict[int, int] = {}
        for e, c in total.items():
            for f, k in terms.items():
                product[e + f] = product.get(e + f, 0) + c * k
        total = product
    return total


def summed_components(com: int, what: str) -> int:
    """The component count com of a diagram whose masks are to be summed.

    Raises EmptyDiagramError for the empty diagram, and DiagramError
    above MAX_SUM_COMPONENTS.
    """
    if com == 0:
        raise EmptyDiagramError(f"the empty diagram has no {what}")
    if com > MAX_SUM_COMPONENTS:
        raise DiagramError(
            f"the {what} handles at most {MAX_SUM_COMPONENTS} components, this diagram "
            f"has {com}: its coefficients would run to 2^{com}"
        )
    return com


def _orientation_terms(com: int, self_w: int, pairs: Iterable[tuple]) -> dict[int, int]:
    # g_tau from a sign table (Diagram._sign_table), as {a_exp: coeff};
    # reversing one of two linked components negates their count C, so
    # each pair weighs (C, -C)
    summed_components(com, "orientation sum")
    weights = {(u, o): (c, -c) for u, o, c in pairs}
    sign = (-1) ** com
    return {self_w + e: sign * c for e, c in sum_over_masks(com, weights).items()}


def g_tau(d: Diagram) -> LaurentA:
    """Sum of (-1)^com * a^writhe over every orientation, as one polynomial.

    The writhe under a mask is the framing of that oriented diagram, so
    the sum collects (-1)^com * a^writhe over all masks.
    """
    return LaurentA(_orientation_terms(d.num_components, *d._sign_table))


def _switched_sum(d: Diagram, ci: int) -> dict[int, int]:
    # g_tau(d.switch(ci)): the same components, crossing ci's sign changed
    c = d.crossings[ci]
    shift = TAG_SIGN[c.switched().tag] - TAG_SIGN[c.tag]
    self_w, pairs = d._sign_table
    u, o = sorted(d._crossing_comps[ci])
    between = {(p, q): k for p, q, k in pairs}
    if u == o:
        self_w += shift
    else:
        between[u, o] = between.get((u, o), 0) + shift
    return _orientation_terms(
        d.num_components, self_w, [(*p, k) for p, k in between.items() if k]
    )


def _smoothed_sum(d: Diagram, ci: int, which: str) -> dict[int, int]:
    # g_tau(d.smooth(ci, which)): the strands of the rewired end array
    mate = list(d._mate)
    loops = _unplug(mate, ci, SMOOTHING[which])
    strands = _walk((h for h in range(len(d.crossings)) if h != ci), mate)
    com = len(strands) + d.free_loops + loops
    return _orientation_terms(com, *_sign_table_of(strands, len(mate)))


def check_skein_identity(
    d: Diagram, ci: int, subject: str = "", g: LaurentA | None = None
) -> VerificationReport:
    """Check the switch/smooth relation of g_tau at one crossing.

    g, if given, is g_tau(d), so that a caller checking every crossing
    sums the diagram's orientations once.
    """
    if not 0 <= ci < len(d.crossings):
        raise InvalidDiagramError(f"crossing not found: {ci}")
    lhs = (g_tau(d) if g is None else g).terms
    for e, c in _switched_sum(d, ci).items():
        lhs[e] = lhs.get(e, 0) + c
    rhs: dict[int, int] = {}
    for which in "AB":
        for e, c in _smoothed_sum(d, ci, which).items():
            rhs[e + 1] = rhs.get(e + 1, 0) - c
            rhs[e - 1] = rhs.get(e - 1, 0) - c
    return compare(subject, f"orientation-sum-skein[{ci}]", LaurentA(lhs), LaurentA(rhs))


def check_specialization_identity(
    d: Diagram,
    subject: str = "",
    g: LaurentA | None = None,
    lam: LaurentA | None = None,
) -> VerificationReport:
    """Check g_tau against -2 times the specialized framed polynomial.

    g, if given, is g_tau(d), and lam, if given, is
    lambda_poly(d).substitute_z().
    """
    lhs = g_tau(d) if g is None else g
    rhs = -2 * (lambda_poly(d).substitute_z() if lam is None else lam)
    return compare(subject, "orientation-sum-vs-engine", lhs, rhs)
