"""The input boundary as it read text and checked records with dicts.

``parse_pd`` and ``check`` keep the earlier text reader and
``Diagram(...)`` checks: records made per line through generators, edge
ids counted with a ``Counter``, the end array paired through a dict,
strands found from a dict of arrivals and connected pieces counted by a
union-find over every face end.  They return records and a loop count,
or raise what the package raised, so the package's boundary can be
compared with them on any text.  Only the record and error types and
``_sign_table_of`` are shared with the package.

``end_structure`` keeps the derivations a diagram once made separately,
each on first use: the end array, the strands, the sign table and the
components at each crossing.  ``braid_closure`` keeps the closure that
joined edges through a dict and a set and made each record from a
generator.
"""

from collections import Counter

from lmtkauffman.diagram import (
    Crossing,
    InvalidDiagramError,
    PDSyntaxError,
    _sign_table_of,
)

_OVER_ENTRY = {"r": 3, "l": 1}


def parse_pd(text):
    """(records, loops) of diagram text, or the refusal it gets."""
    loops = 0
    records = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "loops":
            if not header_allowed:
                raise PDSyntaxError("loops header must be the first record", lineno)
            count = toks[1] if len(toks) == 2 else ""
            try:
                loops = int(count) if count.isascii() and count.isdigit() else -1
            except ValueError:
                loops = -1
            if loops < 0:
                raise PDSyntaxError("loops header needs one nonnegative count", lineno)
            header_allowed = False
            continue
        header_allowed = False
        if toks[0] not in ("Xr", "Xl"):
            raise PDSyntaxError(f"unknown record {toks[0]!r}", lineno)
        if len(toks) != 5:
            raise PDSyntaxError("crossing record needs 4 edge ids", lineno)
        try:
            edges = tuple(int(t) for t in toks[1:])
        except ValueError:
            raise PDSyntaxError("edge ids must be integers", lineno) from None
        if any(e <= 0 for e in edges):
            raise PDSyntaxError("edge ids must be positive", lineno)
        if not all(t.isascii() and t.isdigit() for t in toks[1:]):
            raise PDSyntaxError("edge ids must be integers", lineno)
        records.append(Crossing(edges, toks[0][1]))
    ids = sorted({e for c in records for e in c.edges})
    remap = {e: i for i, e in enumerate(ids, start=1)}
    normalized = tuple(Crossing(tuple(remap[e] for e in c.edges), c.tag) for c in records)
    check(normalized, loops)
    return normalized, loops


def _mate(crossings):
    mate = [0] * (4 * len(crossings))
    first = {}
    for x, e in enumerate(e for c in crossings for e in c.edges):
        y = first.pop(e, None)
        if y is None:
            first[e] = x
        else:
            mate[x] = y
            mate[y] = x
    return mate


def _strands(crossings, mate):
    arrival = {}
    for h, c in enumerate(crossings):
        o = _OVER_ENTRY[c.tag]
        arrival[c.edges[0]] = 4 * h
        arrival[c.edges[o]] = 4 * h + o
    seen = [False] * len(mate)
    strands = []
    for e in range(1, 2 * len(crossings) + 1):
        x = arrival[e]
        if seen[x]:
            continue
        cyc = []
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = mate[x ^ 2]
        strands.append(tuple(cyc))
    return strands


def _faces(mate):
    seen = [False] * len(mate)
    out = []
    for start in range(len(mate)):
        face = []
        x = start
        while not seen[x]:
            seen[x] = True
            face.append(x)
            x = mate[x - 1 if x & 3 else x + 3]
        if face:
            out.append(face)
    return out


def check(crossings, free_loops=0):
    """Refuse records as ``Diagram(crossings, free_loops)`` did, in its order."""
    if type(crossings) is not tuple or type(free_loops) is not int:
        raise InvalidDiagramError("a diagram needs a tuple of crossings and an int loop count")
    if free_loops < 0:
        raise InvalidDiagramError("negative free loop count")
    n = len(crossings)
    arrives = [False] * (4 * n)
    for h, c in enumerate(crossings):
        if type(c) is not Crossing or type(c.edges) is not tuple:
            raise InvalidDiagramError(f"crossing {h}: not a Crossing with a tuple of edges")
        if c.tag not in ("r", "l"):
            raise InvalidDiagramError(f"crossing {h}: unknown tag {c.tag!r}")
        if len(c.edges) != 4:
            raise InvalidDiagramError(f"crossing {h}: needs exactly 4 edges")
        arrives[4 * h] = arrives[4 * h + _OVER_ENTRY[c.tag]] = True
    ends = [e for c in crossings for e in c.edges]
    uses = Counter(ends)
    if uses.keys() != set(range(1, 2 * n + 1)):
        raise InvalidDiagramError("edge ids must be exactly 1..2n")
    mate = _mate(crossings)
    for x, e in enumerate(ends):
        if type(e) is not int:
            raise InvalidDiagramError(f"edge id {e!r} is not an integer")
        if uses[e] != 2:
            raise InvalidDiagramError(f"edge {e} appears {uses[e]} times, expected 2")
        if arrives[x] == arrives[mate[x]]:
            raise InvalidDiagramError(f"edge {e} must leave one crossing and enter one crossing")
    strands = _strands(crossings, mate)
    comp = [0] * (4 * n)
    for k, cyc in enumerate(strands):
        for x in cyc:
            comp[x] = comp[x ^ 2] = k
    crossing_comps = list(zip(comp[0::4], comp[1::4]))
    for u, o, c in _sign_table_of(strands, 4 * n)[1]:
        if c % 2:
            k = sum(1 for p in crossing_comps if p in ((u, o), (o, u)))
            raise InvalidDiagramError(
                f"components {u} and {o} cross an odd number of times ({k}), "
                "which no planar diagram allows"
            )
    piece = list(range(n))

    def root(i):
        while piece[i] != i:
            piece[i] = piece[piece[i]]
            i = piece[i]
        return i

    fs = _faces(mate)
    for f in fs:
        r = root(f[0] >> 2)
        for x in f:
            piece[root(x >> 2)] = r
    pieces = sum(1 for i in range(n) if piece[i] == i)
    if len(fs) != n + 2 * pieces:
        raise InvalidDiagramError(
            f"{n} crossings in {pieces} connected piece(s) have {len(fs)} faces, "
            f"not {n + 2 * pieces}, so they cannot be drawn in the plane"
        )


def end_structure(crossings):
    """(mate, strands, sign table, crossing comps) of well-formed records."""
    mate = [0] * (4 * len(crossings))
    first = [-1] * (len(mate) // 2 + 1)  # per edge id
    for x, e in enumerate([e for c in crossings for e in c.edges]):
        y = first[e]
        if y < 0:
            first[e] = x
        else:
            mate[x] = y
            mate[y] = x
    arrival = [0] * (2 * len(crossings) + 1)  # per edge id
    for h, c in enumerate(crossings):
        o = _OVER_ENTRY[c.tag]
        arrival[c.edges[0]] = 4 * h
        arrival[c.edges[o]] = 4 * h + o
    seen = [False] * len(mate)
    strands = []
    for x in arrival[1:]:
        if seen[x]:
            continue
        cyc = []
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = mate[x ^ 2]
        strands.append(tuple(cyc))
    comp = [0] * (4 * len(crossings))
    for k, cyc in enumerate(strands):
        for x in cyc:
            comp[x] = comp[x ^ 2] = k
    return (
        tuple(mate),
        tuple(strands),
        _sign_table_of(strands, len(mate)),
        tuple(zip(comp[0::4], comp[1::4])),
    )


def braid_closure(word, strands):
    """(records, loops) of the closure of a braid word, or its ValueError."""
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    for letter in word:
        if not 0 < abs(letter) < strands:
            raise ValueError(f"letter {letter} does not fit {strands} strands")
    cur = list(range(1, strands + 1))
    next_id = strands + 1
    raw = []
    for letter in word:
        i = abs(letter)
        a, b = cur[i - 1], cur[i]
        c, d = next_id, next_id + 1
        next_id += 2
        if letter > 0:
            raw.append(("l", (b, a, c, d)))
        else:
            raw.append(("r", (a, c, d, b)))
        cur[i - 1], cur[i] = c, d
    joined = {cur[p]: p + 1 for p in range(strands)}
    merged = [(tag, tuple(joined.get(e, e) for e in edges)) for tag, edges in raw]
    used = {e for _, edges in merged for e in edges}
    loops = sum(cur[p] == p + 1 for p in range(strands))
    remap = {e: i for i, e in enumerate(sorted(used), start=1)}
    records = tuple(Crossing(tuple(remap[e] for e in edges), tag) for tag, edges in merged)
    return records, loops
