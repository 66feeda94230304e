"""Strand structure read from crossing records by walking edge ids.

A reference for the package's end-array traversal that shares no code
with it.  In a record the edges at slot 0 and at the over entry (slot 3
for ``r``, slot 1 for ``l``) arrive; an edge arriving at slot s goes on
as the edge at slot s + 2 of the same record.
"""


def _arrivals(d):
    # edge id -> (crossing, slot) where it arrives
    out = {}
    for i, c in enumerate(d.crossings):
        for s in (0, 3 if c.tag == "r" else 1):
            out[c.edges[s]] = (i, s)
    return out


def components(d):
    """Edge cycles, each from its smallest id, ordered by that id."""
    arrive = _arrivals(d)
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


def passages(d, order=None, basepoints=None):
    """(crossing, is_under) per edge arrival, component by component."""
    comps = components(d)
    arrive = _arrivals(d)
    out = []
    for k in range(len(comps)) if order is None else order:
        cyc = comps[k]
        i0 = 0 if basepoints is None else cyc.index(basepoints[k])
        for e in cyc[i0:] + cyc[:i0]:
            i, s = arrive[e]
            out.append((i, s % 2 == 0))
    return out
