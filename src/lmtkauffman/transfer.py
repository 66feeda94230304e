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
over masks is a product over the pieces, with a factor 2 for each
component that links nothing.  A component linked to one other adds
a^C or a^-C whichever way that one is oriented, so it factors out as
(a^C + a^-C), and its partner may then be left with one link in turn.
Only what remains of a piece after these leaves are stripped, its
2-core, is enumerated: 2^k masks for a core of k components, none for a
forest such as a chain.  A diagram with no linked pair at all sums to
(-2)^com * a^self-writhe at once.  ``sum_over_masks`` does this for any
weight that is a sum over those pairs, and ``lmt.lmt_rhs`` uses it too.
Every value still comes from crossing signs alone, so the check against
the engine stays independent of the recursion; only the order of
summation changes.

``check_skein_identity`` builds no diagram: the switch's sum is the
diagram's sign table with one sign changed, which at a self-crossing
shifts the diagram's own sum.  Each smoothing's is walked afresh in the
end array, a strand reaching the crossing going on from the slot the
smoothing joins it to, with its signs read from the slots where its
strands arrive: nothing is copied or rewired, and nothing is taken from
the diagram's strands or sign table, so a fault in those fails the
check instead of passing into both sides.  The sums stay plain dicts:
the left side copies the diagram's terms and adds the switch's, at a
self-crossing the same terms shifted; the right side adds the two
smoothings', the factor -a - a^-1 as two exponent shifts, and a
smoothing with no linked pair sums to (-2)^com * a^self-writhe at once.
The sides are compared as dicts, then each becomes a ``LaurentA``.

``check_specialization_identity`` takes the specialized polynomial
lambda(z = -a - a^-1) from its caller when it has one: ``lmt.verify_all``
computes it once for this identity and the sublink formula together.
It scales that polynomial's terms by -2 as a dict, not by a product.

Every check, here and in ``lmt``, returns a ``VerificationReport``, built
by this module's ``compare``; ``lmt.verify_all`` builds its 2^com
reversal-writhe reports the same way, with ``tuple.__new__``.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .diagram import SMOOTHING, TAG_SIGN, Diagram, DiagramError, InvalidDiagramError
from .kauffman import EmptyDiagramError, lambda_poly
from .laurent import LaurentA

# g_tau and lmt_rhs have coefficients up to 2^com; 4096 components keep
# them within 1,234 digits, which print at once.
MAX_SUM_COMPONENTS = 4096


class VerificationReport(NamedTuple):
    """One checked identity: the two compared values, plus the verdict.

    lhs and rhs are the values the check computed, a LaurentA for a
    polynomial claim and an int for a reversal-writhe claim; they are
    rendered as text only where they are printed, which ``verify`` does
    for a failing report alone.  ``passed`` is always their literal
    equality, never a tolerance.  A named tuple, so immutable.  ``verify``
    makes one per sublink, 2^com in all, so the package builds every
    report with ``tuple.__new__``, as ``_make`` does, and never calls the
    class's Python-level ``__new__``.
    """

    subject: str
    claim: str
    lhs: LaurentA | int
    rhs: LaurentA | int
    passed: bool


def compare(subject: str, claim: str, lhs, rhs) -> VerificationReport:
    """Build a report from two exactly comparable values."""
    return tuple.__new__(VerificationReport, (subject, claim, lhs, rhs, lhs == rhs))


def sum_over_masks(
    com: int, weights: Mapping[tuple[int, int], tuple[int, int]]
) -> dict[int, int]:
    """Sum of a^(weight of x) over the 2^com masks x, as exponent -> count.

    weights maps a pair u < o of components to (w_same, w_cut); the
    weight of x sums w_same over the pairs whose bits agree in x and
    w_cut over the pairs they separate.  A component in exactly one pair
    adds w_same for one of its bits and w_cut for the other, whichever
    way its partner's bit is set, so it factors out as
    (a^w_same + a^w_cut) and its partner may become such a leaf in turn.
    What is left is a product over the connected pieces of the graph on
    the remaining pairs (its 2-core), each piece enumerated alone, times
    2 for every component left in no pair.  A forest costs linear time.
    """
    adjacent: dict[int, dict[int, tuple[int, int]]] = {}
    for (u, o), w in weights.items():
        adjacent.setdefault(u, {})[o] = w
        adjacent.setdefault(o, {})[u] = w
    factors = []
    leaves = [v for v, partners in adjacent.items() if len(partners) == 1]
    for v in leaves:
        partners = adjacent[v]
        if len(partners) != 1:  # its partner was stripped first
            continue
        ((p, w),) = partners.items()
        del adjacent[v]
        del adjacent[p][v]
        factors.append(w)
        if len(adjacent[p]) == 1:
            leaves.append(p)
    core = {v: partners for v, partners in adjacent.items() if partners}
    total = {0: 1 << (com - len(core) - len(factors))}
    for same, cut in factors:
        product: dict[int, int] = {}
        for e, c in total.items():
            product[e + same] = product.get(e + same, 0) + c
            product[e + cut] = product.get(e + cut, 0) + c
        total = product
    seen: set[int] = set()
    for root in core:
        if root in seen:
            continue
        seen.add(root)
        piece = [root]
        for v in piece:
            for x in core[v]:
                if x not in seen:
                    seen.add(x)
                    piece.append(x)
        bit = {v: i for i, v in enumerate(piece)}
        edges = [(bit[u], bit[o], w) for u in piece for o, w in core[u].items() if u < o]
        terms: dict[int, int] = {}
        for x in range(1 << len(piece)):
            e = sum(w[((x >> i) ^ (x >> j)) & 1] for i, j, w in edges)
            terms[e] = terms.get(e, 0) + 1
        product = {}
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


def _orientation_terms(com: int, self_w: int, pairs: Sequence[tuple]) -> dict[int, int]:
    # g_tau from a sign table (Diagram._sign_table), as {a_exp: coeff};
    # reversing one of two linked components negates their count C, so
    # each pair weighs (C, -C), and with no pair every mask has the
    # self-writhe
    summed_components(com, "orientation sum")
    if not pairs:
        return {self_w: (-2) ** com}
    weights = {(u, o): (c, -c) for u, o, c in pairs}
    sign = (-1) ** com
    return {self_w + e: sign * c for e, c in sum_over_masks(com, weights).items()}


def g_tau(d: Diagram) -> LaurentA:
    """Sum of (-1)^com * a^writhe over every orientation, as one polynomial.

    The writhe under a mask is the framing of that oriented diagram, so
    the sum collects (-1)^com * a^writhe over all masks.
    """
    return LaurentA(_orientation_terms(d.num_components, *d._sign_table))


def _smoothed_sum(d: Diagram, ci: int, which: str) -> dict[int, int]:
    # g_tau(d.smooth(ci, which)), from a fresh walk of d's end array in
    # which a strand reaching ci's slot s goes on from slot pairing[s].
    # Nothing is read from d's strands or sign table.  Each strand starts
    # at the smallest end not yet passed, taken as an arrival, so it may
    # pass a crossing against d's direction; a sign is read from the two
    # slots where its strands arrive.
    mate = d._mate
    pairing = SMOOTHING[which]
    b = 4 * ci
    comp = [-1] * len(mate)  # component at an arrival end, -2 once passed
    comp[b : b + 4] = (-2,) * 4
    com = hops = 0
    for start in range(len(mate)):
        if comp[start] != -1:
            continue
        x = start
        while comp[x] == -1:
            comp[x] = com
            comp[x ^ 2] = -2
            x = mate[x ^ 2]
            while x >> 2 == ci:
                x = mate[b + pairing[x & 3]]
                hops += 1
        com += 1
    r, l = TAG_SIGN["r"], TAG_SIGN["l"]
    self_w = 0
    between: dict[tuple[int, int], int] = {}
    for h in range(0, len(mate), 4):
        if h == b:
            continue
        under = h if comp[h] >= 0 else h + 2
        over = h + 1 if comp[h + 1] >= 0 else h + 3
        u, o = comp[under], comp[over]
        sign = r if (over - under) % 4 == 3 else l
        if u == o:
            self_w += sign
        else:
            key = (u, o) if u < o else (o, u)
            between[key] = between.get(key, 0) + sign
    # each of ci's two slot pairs that no strand hopped closes a loop of
    # its own, unless no strand hopped at all: ci is then a whole
    # component, whose two edges close one loop, or two where they join
    # the slots the pairing joins
    com += d.free_loops + (2 - hops if hops else 1 + (mate[b] == b + pairing[0]))
    pairs = [(*p, c) for p, c in between.items() if c]
    if pairs or com > MAX_SUM_COMPONENTS:  # where _orientation_terms refuses
        return _orientation_terms(com, self_w, pairs)
    return {self_w: (-2) ** com}


def check_skein_identity(
    d: Diagram, ci: int, subject: str = "", g: LaurentA | None = None
) -> VerificationReport:
    """Check the switch/smooth relation of g_tau at one crossing.

    g, if given, is g_tau(d), so that a caller checking every crossing
    sums the diagram's orientations once.
    """
    if not 0 <= ci < len(d.crossings):
        raise InvalidDiagramError(f"crossing not found: {ci}")
    terms = (g_tau(d) if g is None else g)._terms
    # the switch has d's components with crossing ci's sign changed, which
    # at a self-crossing shifts every writhe alike
    tag = d.crossings[ci].tag
    shift = TAG_SIGN["l" if tag == "r" else "r"] - TAG_SIGN[tag]
    u, o = d._crossing_comps[ci]
    lhs = dict(terms)
    if u == o:
        for (e, _), c in terms.items():
            lhs[e + shift, 0] = lhs.get((e + shift, 0), 0) + c
    else:
        self_w, pairs = d._sign_table
        between = {(p, q): k for p, q, k in pairs}
        key = (u, o) if u < o else (o, u)
        between[key] = between.get(key, 0) + shift
        pairs = [(*p, k) for p, k in between.items() if k]
        for e, c in _orientation_terms(d.num_components, self_w, pairs).items():
            lhs[e, 0] = lhs.get((e, 0), 0) + c
    rhs: dict[int, int] = {}
    for which in "AB":
        for e, c in _smoothed_sum(d, ci, which).items():
            rhs[e + 1] = rhs.get(e + 1, 0) - c
            rhs[e - 1] = rhs.get(e - 1, 0) - c
    # every term of lhs has the sign (-1)^com, so only rhs can hold a zero
    rhs = {(e, 0): c for e, c in rhs.items() if c}
    return tuple.__new__(
        VerificationReport,
        (subject, f"orientation-sum-skein[{ci}]", LaurentA._of(lhs), LaurentA._of(rhs), lhs == rhs),
    )


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
    if lam is None:
        lam = lambda_poly(d).substitute_z()
    rhs = LaurentA._from_pairs({k: -2 * c for k, c in lam._terms.items()})
    return compare(subject, "orientation-sum-vs-engine", lhs, rhs)
