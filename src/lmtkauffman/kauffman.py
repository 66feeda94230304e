"""The two-variable polynomial of framed link diagrams.

``lambda_poly`` is the framed (regular isotopy) invariant fixed by three
rules: the zero-crossing circle has value 1, a positive or negative curl
multiplies the value by a or a^-1, and at any crossing the values of the
switched pair and the two smoothings satisfy

    V(crossing) + V(switched) = z * (V(smooth A) + V(smooth B)).

A union with a split circle multiplies the value by
delta = (a + a^-1) z^-1 - 1.

The computation descends on diagrams: walking the strands from their
basepoints, a crossing first met on its under-strand is a defect.  With
no defects the diagram is a stack of unknotted components and the value
is a^(self writhe) * delta^(components - 1); otherwise the first defect
is resolved with the switch rule above.  Switching never touches the
strand structure, so the defect count drops by exactly one, and each
smoothing removes a crossing, which makes the recursion finite.

Before a defect is looked for, these exact rules are tried in order,
and the first that applies gives the value:

1. memo: a diagram met before takes its stored value (see below).
2. split circles: k free loops beside crossings multiply the value of
   the same records with no free loops by delta^k, the split circle
   rule applied k times.
3. curl: a crossing whose two adjacent slots s, s+1 hold the same edge
   is worth a or a^-1 by its tag times the value of the smoothing that
   untwists it (``B`` for even s, ``A`` for odd s; the other one would
   split off a circle), by the curl rule.
4. R2: a bigon face whose two edges each lie on one level at both of
   their crossings (one strand over the other at both) is undone by a
   second Reidemeister move, which removes both crossings and lets the
   strands pass straight through.  The value is a regular isotopy
   invariant, so the move leaves it unchanged.

``f_oriented`` rescales by a^(-writhe), which makes the value stable
under curls as well, and ``specialized_f`` evaluates that at
z = -a - a^-1.

Intermediate results are cached per invocation under the diagram's
crossing records and free-loop count.  Smoothings and removals renumber
their result deterministically and switches keep every label, so equal
records mean an equal diagram and the key costs no search.  Set the
environment variable LMT_NO_MEMO=1 to compute with no cache; results
are identical either way.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from .diagram import STRAIGHT, TAG_SIGN, Diagram, _remove_crossings, _trusted
from .laurent import LaurentA, LaurentAZ

# Value of one extra split circle.
DELTA = LaurentAZ({(1, -1): 1, (-1, -1): 1, (0, 0): -1})

_Z = LaurentAZ({(0, 1): 1})


class EmptyDiagramError(ValueError):
    """The invariant is defined for nonempty links only."""


def first_defect(
    d: Diagram,
    component_order: Sequence[int] | None = None,
    basepoints: Sequence[int] | Mapping[int, int] | None = None,
) -> int | None:
    """First crossing met on its under-strand, or None if descending."""
    seen: set[int] = set()
    for ci, under in d.passages(component_order, basepoints):
        if ci in seen:
            continue
        seen.add(ci)
        if under:
            return ci
    return None


def _find_curl(d: Diagram) -> tuple[int, str] | None:
    """A curl as (crossing, untwisting smoothing), or None if there is none.

    A curl is an edge joining two adjacent slots of one crossing.
    """
    for ci, c in enumerate(d.crossings):
        e = c.edges
        for s in range(4):
            if e[s] == e[(s + 1) % 4]:
                return ci, "B" if s % 2 == 0 else "A"
    return None


def _find_r2(d: Diagram) -> tuple[int, int] | None:
    """The two crossings of an R2 bigon, or None if there is none.

    A bigon is a face with two arrival ends (c1, s) and (c2, t) at
    distinct crossings (see ``diagram.faces``); its edges join
    (c1, s - 1) to (c2, t) and (c2, t - 1) to (c1, s).  Even slots are
    under, so the edges lie on one level at both ends when s - 1 and t
    have the same parity.
    """
    m = d.end_matching()
    for c1 in range(len(d.crossings)):
        for s in range(4):
            c2, t = m[(c1, (s - 1) % 4)]
            if c2 != c1 and (s - 1) % 2 == t % 2 and m[(c2, (t - 1) % 4)] == (c1, s):
                return c1, c2
    return None


def lambda_poly(
    d: Diagram,
    *,
    component_order: Sequence[int] | None = None,
    basepoints: Sequence[int] | Mapping[int, int] | None = None,
    memo: dict | None = None,
) -> LaurentAZ:
    """The framed-link polynomial of the diagram.

    component_order and basepoints pick the traversal; any choice gives
    the same polynomial.  memo, if given, is shared across calls, which
    is safe for exactly that reason.  A diagram that is not planar
    (``Diagram.check_planar``) has no such value; it raises
    InvalidDiagramError.
    """
    if d.num_components == 0:
        raise EmptyDiagramError("the empty diagram has no polynomial")
    d.check_planar()
    if memo is None and os.environ.get("LMT_NO_MEMO") != "1":
        memo = {}
    return _lambda(d, component_order, basepoints, memo)


def _lambda(d, order, bps, memo) -> LaurentAZ:
    if memo is not None:
        key = (d.crossings, d.free_loops)
        hit = memo.get(key)
        if hit is not None:
            return hit
    if d.free_loops and d.crossings:
        bare = _trusted(
            d.crossings,
            0,
            strand_components=d.strand_components,
            _in_end=d._in_end,
            _out_end=d._out_end,
        )
        val = DELTA ** d.free_loops * _lambda(bare, order, bps, memo)
    elif (curl := _find_curl(d)) is not None:
        ci, which = curl
        sign = TAG_SIGN[d.crossings[ci].tag]
        val = LaurentAZ.monomial(1, sign) * _lambda(d.smooth(ci, which), None, None, memo)
    elif (bigon := _find_r2(d)) is not None:
        val = _lambda(_remove_crossings(d, dict.fromkeys(bigon, STRAIGHT)), None, None, memo)
    else:
        x = first_defect(d, order, bps)
        if x is None:
            val = LaurentAZ.monomial(1, d.self_writhe()) * DELTA ** (d.num_components - 1)
        else:
            val = -_lambda(d.switch(x), order, bps, memo) + _Z * (
                _lambda(d.smooth(x, "A"), None, None, memo)
                + _lambda(d.smooth(x, "B"), None, None, memo)
            )
    if memo is not None:
        memo[key] = val
    return val


def f_oriented(d: Diagram, mask: int = 0, **kwargs) -> LaurentAZ:
    """The curl-stable polynomial a^(-writhe) * lambda under mask."""
    return LaurentAZ.monomial(1, -d.writhe(mask)) * lambda_poly(d, **kwargs)


def specialized_f(d: Diagram, mask: int = 0, **kwargs) -> LaurentA:
    """f_oriented evaluated at z = -a - a^-1."""
    return f_oriented(d, mask, **kwargs).substitute_z()
