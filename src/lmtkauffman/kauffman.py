"""The two-variable polynomial of framed link diagrams.

``lambda_poly`` is the framed (regular isotopy) invariant fixed by three
rules: the zero-crossing circle has value 1, a positive or negative curl
multiplies the value by a or a^-1, and at any crossing the values of the
switched pair and the two smoothings satisfy

    V(crossing) + V(switched) = z * (V(smooth A) + V(smooth B)).

A union with a split circle multiplies the value by
delta = (a + a^-1) z^-1 - 1.

The computation descends on diagrams: walking each strand from its
smallest edge, a crossing first met on its under-strand is a defect.  With
no defects the diagram is a stack of unknotted components and the value
is a^(self writhe) * delta^(components - 1); otherwise the first defect
is resolved with the switch rule above.  Switching never touches the
strand structure, so the defect count drops by exactly one, and each
smoothing removes a crossing, which makes the recursion finite.

Only reduced diagrams are expanded: no curl, no R2 bigon, no free loop.
``_reduce`` builds each child of an expanded diagram (its switch, its A
and B smoothings), and the input itself, on a copy of the parent's flat
end array ``Diagram._mate`` (entry 4h + s is the end that the edge at
slot s of crossing h runs to).  It first removes the crossing being
smoothed, then takes a crossing at a time from a work list and applies
the first of these exact rules that fits, until the list is empty:

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
delta each, as are free loops beside crossings.  The child's records are
then rebuilt once, by ``_reassemble``; a child the rules leave whole
keeps its records, and a switch keeps every label.

A curl's sign comes from slot parity, not from the crossing's tag.  The
array keeps each crossing's slots, and even slots stay the under-strand,
so which two adjacent slots a curl joins fixes its sign.  The tag is
relative to the record's reference direction, which a smoothing
elsewhere can reverse, so after removals on the array the parent's tags
no longer describe the strands: reading the sign from them gets even
the clasp wrong.

``f_oriented`` rescales by a^(-writhe), which makes the value stable
under curls as well, and ``specialized_f`` evaluates that at
z = -a - a^-1.

Intermediate results are cached per invocation under the crossing
records of the reduced diagrams.  Reassembly renumbers deterministically
and switches keep every label, so equal records mean an equal diagram
and the key costs no search.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, Sequence

from .diagram import SMOOTHING, STRAIGHT, Diagram, DiagramError, _reassemble, _trusted, _unplug
from .laurent import LaurentA, LaurentAZ

# Value of one extra split circle.
DELTA = LaurentAZ({(1, -1): 1, (-1, -1): 1, (0, 0): -1})

_Z = LaurentAZ({(0, 1): 1})


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


def first_defect(d: Diagram) -> int | None:
    """First crossing met on its under-strand, or None if descending."""
    seen: set[int] = set()
    for ci, under in d.passages():
        if ci in seen:
            continue
        seen.add(ci)
        if under:
            return ci
    return None


def _reduce(
    d: Diagram, pairings: Mapping[int, Sequence[int]], check: Iterable[int]
) -> tuple[int, int, Diagram | None]:
    """d with pairings' crossings removed, then stripped by the exact rules.

    pairings maps crossings to slot pairings (``SMOOTHING``).  check
    names the crossings of d that may carry a curl or an R2 bigon; the
    neighbours of each removed crossing are checked as well, which is
    where new ones appear.  Returns (k, loops, r) such that the value of
    the result is a^k * delta^loops times the value of r, where r has no
    curl, no R2 bigon and no free loop; r is None when no crossing is
    left, standing for one circle.
    """
    n = len(d.crossings)
    mate = list(d._mate)
    alive = [True] * n
    k = 0
    loops = d.free_loops
    todo = list(check)

    def remove(h: int, pairing: Sequence[int]) -> None:
        nonlocal loops
        alive[h] = False
        todo.extend(mate[x] >> 2 for x in range(4 * h, 4 * h + 4))
        loops += _unplug(mate, h, pairing)

    for h, pairing in pairings.items():
        remove(h, pairing)
    while todo:
        h = todo.pop()
        if not alive[h]:
            continue
        b = 4 * h
        for s in range(4):
            if mate[b + s] == b + (s + 1) % 4:
                # a curl on slots s, s + 1: even s is worth a, odd s a^-1
                k += 1 - 2 * (s & 1)
                remove(h, SMOOTHING["A" if s & 1 else "B"])
                break
            # the bigon with arrival ends (h, s) and y = (h2, t), if any:
            # its edges run (h, s - 1)-(h2, t) and (h2, t - 1)-(h, s) and
            # each lie on one level when s - 1 and t share parity
            y = mate[b + (s - 1) % 4]
            if y >> 2 != h and (s + y) & 1 and mate[y - 1 if y & 3 else y + 3] == b + s:
                remove(h, STRAIGHT)
                remove(y >> 2, STRAIGHT)
                break
    kept = [h for h in range(n) if alive[h]]
    if not kept:
        return k, loops - 1, None
    if len(kept) < n:
        return k, loops, _reassemble(kept, mate, 0)
    if not d.free_loops:
        return 0, 0, d
    return 0, loops, _trusted(d.crossings, 0, _strands=d._strands, _mate=d._mate)


def lambda_poly(d: Diagram, *, memo: dict | None = None) -> LaurentAZ:
    """The framed-link polynomial of the diagram.

    The defects are read along ``Diagram.passages``, one fixed traversal.
    Any other component order or starting edges give the same
    polynomial; the tests reach every such traversal by renumbering the
    edges along it.  memo, if given, is shared across calls, which is
    safe for that reason.  Every diagram is planar (its constructor
    refuses records that are not), so every nonempty one has a value.
    """
    if d.num_components == 0:
        raise EmptyDiagramError("the empty diagram has no polynomial")
    return _child(d, {}, range(len(d.crossings)), {} if memo is None else memo)


def _child(d, pairings, check, memo) -> LaurentAZ:
    # the value of d with pairings' crossings removed
    k, loops, r = _reduce(d, pairings, check)
    if r is None:
        return _a_delta(k, loops)
    val = _lambda(r, memo)
    return _a_delta(k, loops) * val if k or loops else val


def _lambda(d, memo) -> LaurentAZ:
    # d is reduced, so its children need checking only where they changed:
    # a switch can make a bigon only at the switched crossing, and a
    # smoothing only next to the smoothed one
    hit = memo.get(d.crossings)
    if hit is not None:
        return hit
    x = first_defect(d)
    if x is None:
        val = _a_delta(d.self_writhe(), d.num_components - 1)
    else:
        val = -_child(d.switch(x), {}, (x,), memo) + _Z * (
            _child(d, {x: SMOOTHING["A"]}, (), memo)
            + _child(d, {x: SMOOTHING["B"]}, (), memo)
        )
    memo[d.crossings] = val
    return val


def f_oriented(d: Diagram, mask: int = 0) -> LaurentAZ:
    """The curl-stable polynomial a^(-writhe) * lambda under mask."""
    return LaurentAZ.monomial(1, -d.writhe(mask)) * lambda_poly(d)


def specialized_f(d: Diagram, mask: int = 0) -> LaurentA:
    """f_oriented evaluated at z = -a - a^-1."""
    return f_oriented(d, mask).substitute_z()
