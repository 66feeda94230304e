"""Scripted local moves for exercising invariance.

Curls (``add_kink``) change the framed polynomial by a known factor of
a or a^-1.  The two-crossing poke (``poke``) slides one edge over
another across a face they both border, and must not change it at all;
likewise the braid-word moves ``insert_cancelling_pair`` and
``triangle_pair``.  ``mirror`` switches every crossing, which
``invert_a`` (a -> a^-1) undoes on the framed polynomial.
``distant_union`` places two diagrams side by side, where both
polynomials multiply, the framed one with one more factor delta.
"""

import random
from typing import Sequence

from edge_walk import arrivals

from lmtkauffman.braid import random_closure
from lmtkauffman.diagram import (
    Crossing,
    Diagram,
    InvalidDiagramError,
    _reassemble,
    _trusted,
    faces,
)
from lmtkauffman.laurent import LaurentAZ


def mirror(d: Diagram) -> Diagram:
    """Exchange over and under strands everywhere."""
    return Diagram(tuple(c.switched() for c in d.crossings), d.free_loops)


def distant_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side with nothing shared.

    The second diagram's edge ids move up past the first's, so the
    records stay valid and are left unchecked.
    """
    shift = 2 * len(d1.crossings)
    shifted = tuple(Crossing(tuple(e + shift for e in c.edges), c.tag) for c in d2.crossings)
    return _trusted(d1.crossings + shifted, d1.free_loops + d2.free_loops)


def invert_a(p: LaurentAZ) -> LaurentAZ:
    """Substitute a -> a^-1, leaving z alone; a LaurentA stays one."""
    return type(p)._from_pairs({(-a, z): c for (a, z), c in p._terms.items()})


def random_knot_closure(rng: random.Random, max_crossings: int, attempts: int = 1000) -> Diagram:
    """A random closure with exactly one component."""
    for _ in range(attempts):
        d = random_closure(rng, max_crossings)
        if d.num_components == 1:
            return d
    raise RuntimeError("no single-component closure found")


def add_kink(d: Diagram, edge: int | None = None, positive: bool = True) -> Diagram:
    """Add a curl on an edge, or on a free loop when edge is None.

    The new crossing is a self-crossing of sign +1 for positive, -1
    otherwise, so it multiplies the framed polynomial by a or a^-1.
    """
    n = len(d.crossings)
    delta, gamma = 2 * n + 1, 2 * n + 2
    if edge is None:
        if d.free_loops < 1:
            raise InvalidDiagramError("no free loop to curl")
        if positive:
            rec = Crossing((delta, delta, gamma, gamma), "r")
        else:
            rec = Crossing((delta, gamma, gamma, delta), "l")
        return _trusted(d.crossings + (rec,), d.free_loops - 1)
    arrive = arrivals(d)
    if edge not in arrive:
        raise InvalidDiagramError(f"no edge {edge}")
    ci, s = arrive[edge]
    cs = list(d.crossings)
    es = list(cs[ci].edges)
    es[s] = delta
    cs[ci] = Crossing(tuple(es), cs[ci].tag)
    if positive:
        kink = Crossing((edge, delta, gamma, gamma), "r")
    else:
        kink = Crossing((edge, gamma, gamma, delta), "l")
    return _trusted(tuple(cs) + (kink,), d.free_loops)


def poke(d: Diagram, over_end: int, under_end: int) -> Diagram:
    """Push the edge arriving at over_end across a shared face, over
    the edge arriving at under_end.

    Ends are numbered 4h + s as in ``faces``.  Both must lie on one face
    and belong to different edges.  The result differs from d by a single
    two-crossing slide, so every framed invariant must agree on the two
    diagrams.
    """
    for f in faces(d):
        if over_end in f and under_end in f:
            break
    else:
        raise InvalidDiagramError("the two ends do not border a common face")
    n = len(d.crossings)
    x_e, x_f = over_end, under_end
    mate = list(d._mate) + [0] * 8
    if mate[x_e] == x_f or x_e == x_f:
        raise InvalidDiagramError("poke needs two distinct edges")
    ha, hb = 4 * n, 4 * n + 4  # first ends of the two new crossings
    p_e, p_f = mate[x_e], mate[x_f]

    def link(x, y):
        mate[x] = y
        mate[y] = x

    # The poked edge crosses over at both new crossings: its ends sit on
    # the odd slots.
    link(p_e, ha + 3)
    link(ha + 1, hb + 1)
    link(hb + 3, x_e)
    link(p_f, hb + 0)
    link(hb + 2, ha + 0)
    link(ha + 2, x_f)
    return _reassemble(range(n + 2), mate, d.free_loops)


def first_poke(d: Diagram) -> Diagram:
    """A deterministic poke: the first eligible pair of face ends."""
    return all_pokes(d, limit=1)[0]


def all_pokes(d: Diagram, limit: int | None = None) -> list[Diagram]:
    """Every distinct poke of the diagram, optionally capped."""
    mate = d._mate
    out = []
    for f in faces(d):
        for i in range(len(f)):
            for j in range(len(f)):
                if i == j or mate[f[i]] == f[j]:
                    continue
                out.append(poke(d, f[i], f[j]))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def insert_cancelling_pair(
    word: Sequence[int], position: int, index: int, sign: int = 1
) -> list[int]:
    """A braid word with sigma_index sigma_index^-1 spliced in."""
    return [*word[:position], sign * index, -sign * index, *word[position:]]


def triangle_pair(word: Sequence[int], index: int) -> tuple[list[int], list[int]]:
    """Two braid words whose closures differ by one triangle slide.

    Appends the two sides of sigma_i sigma_{i+1} sigma_i =
    sigma_{i+1} sigma_i sigma_{i+1}; close both on at least index + 2
    strands.
    """
    return [*word, index, index + 1, index], [*word, index + 1, index, index + 1]
