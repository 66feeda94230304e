"""The two-variable polynomial of framed link diagrams.

``lambda_poly`` is the framed (regular isotopy) invariant fixed by three
rules: the zero-crossing circle has value 1, a positive or negative curl
multiplies the value by a or a^-1, and at any crossing the values of the
switched pair and the two smoothings satisfy

    V(crossing) + V(switched) = z * (V(smooth A) + V(smooth B)).

A union with a split circle multiplies the value by
delta = (a + a^-1) z^-1 - 1.

The recursion runs on nodes, not on ``Diagram``s.  A node is an end array
(entry 4h + s is the end that the edge at slot s of crossing h runs to,
the even slots the under-strand, as ``Diagram._mate``) and its strands,
the cycles of ends the edges arrive at (``Diagram._strands``).  Walking
the strands in order, a crossing first met on its under-strand is a
defect.  With no defects the diagram is a stack of unknotted components
and the value is a^(self writhe) * delta^(components - 1); otherwise the
first defect is resolved with the switch rule above, its value
-V(switched) + z * (V(smooth A) + V(smooth B)) formed in one pass over
the three children's terms, with no intermediate polynomial.  The switch
(``diagram._switched``) keeps the strands, so the defect count drops by
exactly one, and each smoothing removes a crossing, which makes the
recursion finite.

Only reduced nodes are expanded: no curl, no R2 bigon, no free loop.
``_reduce`` builds each child of an expanded node (its switch, its A and
B smoothings), and the input itself, on a copy of the parent's end
array.  It first removes the crossing being smoothed, then takes a
crossing at a time from a work list and applies the first of these
exact rules that fits, until the list is empty:

1. curl: slots s and s + 1 of one crossing are joined by an edge.  The
   smoothing that keeps the strand whole (``B`` for even s, ``A`` for
   odd s) removes it, times a for even s and a^-1 for odd s, by the curl
   rule.
2. R2 bigon: a face with two arrival ends at distinct crossings whose
   edges each lie on one level at both crossings (one strand over the
   other at both).  Both crossings go, the strands passing straight
   through, by a second Reidemeister move; the value is a regular
   isotopy invariant, so the move leaves it unchanged.

A removal touches O(1) entries of the array and puts the crossings next
to it on the list, which is where a new curl or bigon can appear.
Strands that close up with no crossing left are split circles, worth
delta each, as are free loops beside crossings.  A child that lost
crossings is walked and renumbered in one pass by ``diagram._renumber``;
a child the rules leave whole is kept as it is.  A child's factor a^k
with no split circle shifts the a exponents of its value's terms.  A
curl's sign comes from slot parity: even slots stay the under-strand, so
which two adjacent slots a curl joins fixes its sign, whichever way the
strands run.

A skein tree deeper than the interpreter's stack, such as that of the
100-crossing closure of (s1 s2^-1)^50, is refused with a ``DiagramError``
naming the cause; the stack limit is left as it is.

``f_oriented`` rescales by a^(-writhe), which makes the value stable
under curls as well, and ``specialized_f`` evaluates that at
z = -a - a^-1.

Intermediate results are cached per invocation under the end array of
each reduced node.  The array fixes the diagram (slots counterclockwise,
the even ones under), so equal keys have equal values whatever the
strands, and it holds no edge ids, so the key costs no search.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, Sequence

from .diagram import SMOOTHING, STRAIGHT, Diagram, DiagramError, Node
from .diagram import _renumber, _sign_table_of, _switched, _unplug
from .laurent import LaurentA, LaurentAZ

# Value of one extra split circle.
DELTA = LaurentAZ({(1, -1): 1, (-1, -1): 1, (0, 0): -1})


class EmptyDiagramError(DiagramError):
    """The invariant is defined for nonempty links only."""


def _a_delta(k: int, loops: int) -> LaurentAZ:
    """a^k * DELTA^loops, written out from the binomial expansion.

    DELTA = (a + a^-1) z^-1 - 1, so DELTA^loops is the sum over m and i of
    C(loops, m) (-1)^(loops - m) C(m, i) a^(2i - m) z^-m, every (m, i)
    giving its own term; no product is formed.
    """
    return LaurentAZ._from_pairs(
        {
            (k + 2 * i - m, -m): (-1) ** (loops - m) * comb(loops, m) * comb(m, i)
            for m in range(loops + 1)
            for i in range(m + 1)
        }
    )


def first_defect(strands: Iterable[Sequence[int]]) -> int | None:
    """First crossing met under along a node's strands, or None if descending."""
    seen: set[int] = set()
    for cyc in strands:
        for x in cyc:
            h = x >> 2
            if h not in seen:
                if not x & 1:
                    return h
                seen.add(h)
    return None


def _reduce(
    node: Node, pairings: Mapping[int, Sequence[int]], check: Iterable[int]
) -> tuple[int, int, Node | None]:
    """node with pairings' crossings removed, then stripped by the exact rules.

    pairings maps crossings to slot pairings (``SMOOTHING``).  check
    names the crossings of node that may carry a curl or an R2 bigon; the
    neighbours of each removed crossing are checked as well, which is
    where new ones appear.  Returns (k, loops, r) such that the value of
    the result is a^k * delta^loops times the value of r, a node with no
    curl, no R2 bigon and no free loop, or None when no crossing is left,
    standing for one circle.
    """
    mate = list(node[0])
    n = len(mate) // 4
    alive = [True] * n
    k = loops = removed = 0
    todo = list(check)
    drop = pairings.items()  # crossings to remove now, with their pairings
    while drop or todo:
        for h, pairing in drop:
            alive[h] = False
            b = 4 * h
            todo += (mate[b] >> 2, mate[b + 1] >> 2, mate[b + 2] >> 2, mate[b + 3] >> 2)
            loops += _unplug(mate, h, pairing)
        removed += len(drop)
        drop = ()
        while todo and not drop:
            h = todo.pop()
            if not alive[h]:
                continue
            b = 4 * h
            # slot s with the slots after and before it, counterclockwise
            for s, after, before in (0, 1, 3), (1, 2, 0), (2, 3, 1), (3, 0, 2):
                if mate[b + s] == b + after:
                    # a curl on slots s, s + 1: even s is worth a, odd s a^-1
                    k += 1 - 2 * (s & 1)
                    drop = ((h, SMOOTHING["A" if s & 1 else "B"]),)
                    break
                # the bigon with arrival ends (h, s) and y = (h2, t), if any:
                # its edges run (h, s - 1)-(h2, t) and (h2, t - 1)-(h, s) and
                # each lie on one level when s - 1 and t share parity
                y = mate[b + before]
                if y >> 2 != h and (s + y) & 1 and mate[y - 1 if y & 3 else y + 3] == b + s:
                    drop = ((h, STRAIGHT), (y >> 2, STRAIGHT))
                    break
    if removed == n:
        return k, loops - 1, None
    return k, loops, _renumber([h for h in range(n) if alive[h]], mate) if removed else node


def lambda_poly(d: Diagram, *, memo: dict | None = None) -> LaurentAZ:
    """The framed-link polynomial of the diagram.

    The defects are read along ``Diagram._strands``, one fixed traversal.
    Any other component order or starting edges give the same
    polynomial; the tests reach every such traversal by renumbering the
    edges along it.  memo, if given, maps end arrays to values and is
    shared across calls, which is safe for that reason.  Every diagram is
    planar (its constructor refuses records that are not), so every
    nonempty one has a value, but a skein tree deeper than the
    interpreter's stack is refused with a DiagramError.
    """
    if d.num_components == 0:
        raise EmptyDiagramError("the empty diagram has no polynomial")
    memo = {} if memo is None else memo
    try:
        return _child((d._mate, d._strands), {}, range(len(d.crossings)), memo, d.free_loops)
    except RecursionError:
        raise DiagramError(
            f"the skein recursion on these {len(d.crossings)} crossings runs deeper "
            "than the interpreter's stack allows"
        ) from None


def _child(node, pairings, check, memo, loops=0) -> LaurentAZ:
    # the value of node with pairings' crossings removed, beside loops
    # split circles
    k, more, r = _reduce(node, pairings, check)
    loops += more
    if r is None:
        return _a_delta(k, loops)
    val = _lambda(r, memo)
    if loops:
        return _a_delta(k, loops) * val
    if not k:
        return val
    # a^k alone shifts the a exponents
    return LaurentAZ._from_pairs({(a + k, z): c for (a, z), c in val._terms.items()})


def _lambda(node, memo) -> LaurentAZ:
    # node is reduced, so its children need checking only where they
    # changed: a switch can make a bigon only at the switched crossing,
    # and a smoothing only next to the smoothed one
    mate, strands = node
    hit = memo.get(mate)
    if hit is not None:
        return hit
    x = first_defect(strands)
    if x is None:
        val = _a_delta(_sign_table_of(strands, len(mate))[0], len(strands) - 1)
    else:
        # -switch + z * (A + B), added up in one dict
        switch = _child(_switched(mate, strands, x), {}, (x,), memo)
        terms = {e: -c for e, c in switch._terms.items()}
        for which in "AB":
            for (a, z), c in _child(node, {x: SMOOTHING[which]}, (), memo)._terms.items():
                terms[a, z + 1] = terms.get((a, z + 1), 0) + c
        val = LaurentAZ._from_pairs(terms)
    memo[mate] = val
    return val


def f_oriented(d: Diagram, mask: int = 0) -> LaurentAZ:
    """The curl-stable polynomial a^(-writhe) * lambda under mask."""
    return LaurentAZ.monomial(1, -d.writhe(mask)) * lambda_poly(d)


def specialized_f(d: Diagram, mask: int = 0) -> LaurentA:
    """f_oriented evaluated at z = -a - a^-1."""
    return f_oriented(d, mask).substitute_z()
