"""Strand structure read from crossing records by walking edge ids.

A reference for the package's end-array traversal that shares no code
with it.  In a record the edges at slot 0 and at the over entry (slot 3
for ``r``, slot 1 for ``l``) arrive; an edge arriving at slot s goes on
as the edge at slot s + 2 of the same record.

``renumbered`` turns a traversal choice into edge numbering, which is
how the tests reach every traversal of the package's engine.

``walk_strands`` and ``renumber_node`` are a plain two-pass form of
``diagram._renumber``: first walk the strands of an end array, then
number the crossings along them.  Equal nodes mean equal memo keys.
"""

from lmtkauffman.diagram import TAG_SIGN, Diagram


def arrivals(d):
    """Edge id -> (crossing, slot) where the edge arrives."""
    out = {}
    for i, c in enumerate(d.crossings):
        for s in (0, 3 if c.tag == "r" else 1):
            out[c.edges[s]] = (i, s)
    return out


def components(d):
    """Edge cycles, each from its smallest id, ordered by that id."""
    arrive = arrivals(d)
    seen = set()
    comps = []
    for e in sorted(arrive):
        cyc = []
        while e not in seen:
            seen.add(e)
            cyc.append(e)
            i, s = arrive[e]
            e = d.crossings[i].edges[(s + 2) % 4]
        if cyc:
            comps.append(tuple(cyc))
    return tuple(comps)


def crossing_comps(d):
    """(component of the under-strand, of the over-strand) per crossing."""
    comp = {e: k for k, cyc in enumerate(components(d)) for e in cyc}
    return tuple((comp[c.edges[0]], comp[c.edges[1]]) for c in d.crossings)


def crossing_sign(d, ci, mask=0):
    """Sign of crossing ci under the orientation that reverses mask's components."""
    u, o = crossing_comps(d)[ci]
    sign = TAG_SIGN[d.crossings[ci].tag]
    return -sign if ((mask >> u) ^ (mask >> o)) & 1 else sign


def _edges_along(d, order, basepoints):
    # edge ids in traversal order: components in order (default: as
    # indexed), each from its basepoint (default: its smallest edge);
    # basepoints is indexed by component, not by order position
    comps = components(d)
    for k in range(len(comps)) if order is None else order:
        cyc = comps[k]
        i0 = 0 if basepoints is None else cyc.index(basepoints[k])
        yield from cyc[i0:] + cyc[:i0]


def passages(d, order=None, basepoints=None):
    """(crossing, is_under) per edge arrival, component by component."""
    arrive = arrivals(d)
    return [(i, s % 2 == 0) for i, s in map(arrive.get, _edges_along(d, order, basepoints))]


def renumbered(d, order=None, basepoints=None):
    """d with its edges numbered 1, 2, ... along another traversal.

    The records keep their positions and tags, so the result is the same
    diagram, and ``passages(d, order, basepoints)`` is its own default
    traversal.
    """
    new = {e: i for i, e in enumerate(_edges_along(d, order, basepoints), 1)}
    cs = tuple(c._replace(edges=tuple(new[e] for e in c.edges)) for c in d.crossings)
    return Diagram(cs, d.free_loops)


def walk_strands(handles, mate):
    """The strands of handles' crossings in an end array, as cycles of arrival ends.

    Each is walked from the smallest end not yet passed, taken as an
    arrival, and its cycle ends there.
    """
    seen = [True] * len(mate)  # the ends of other handles count as passed
    for h in handles:
        seen[4 * h : 4 * h + 4] = [False] * 4
    strands = []
    for start in range(len(mate)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while x != start or not cyc:
            seen[x] = seen[x ^ 2] = True
            x = mate[x ^ 2]
            cyc.append(x)
        strands.append(cyc)
    return strands


def renumber_node(handles, mate):
    """(end array, strands) of handles' crossings, walked by ``walk_strands``.

    The crossings are numbered in the order the walk meets them, each
    from the end where its under-strand arrives (slot 0 or 2) on,
    counterclockwise.
    """
    strands = walk_strands(handles, mate)
    arrives = {x for cyc in strands for x in cyc}
    moved = [-1] * len(mate)  # old end -> new end
    old_ends = []
    for cyc in strands:
        for x in (cyc[-1], *cyc):  # the walk starts at cyc[-1]
            b = x & ~3
            if moved[b] < 0:
                x0 = b if b in arrives else b + 2
                for y in (x0, x0 + 1, x0 ^ 2, x0 ^ 3):
                    moved[y] = len(old_ends)
                    old_ends.append(y)
    renumbered = tuple(tuple(moved[x] for x in cyc) for cyc in strands)
    return tuple(moved[mate[x]] for x in old_ends), renumbered
