"""Planar diagrams of framed links as crossing lists.

A diagram is a set of 4-valent crossing records plus a count of
crossing-free loops.  Each record lists its four incident edge ends
counterclockwise starting from the incoming under-strand edge, so slot 0
is always the under-strand entry and slot 2 its exit.  The tag says
where the over-strand enters: ``r`` at slot 3, ``l`` at slot 1.  Under
the reference orientation (every strand traversed the way the records
point) an ``r`` crossing counts +1 and an ``l`` crossing -1.

Edges are numbered 1..2n with every id appearing exactly twice, once
leaving a crossing and once entering one.  Components are indexed by
their smallest edge id, with crossing-free loops last.  Orientation
masks and sublink masks are plain ints whose bit i addresses component
i.

A diagram keeps one end structure, derived from the records in one pass
when it is made.  End 4h + s is slot s of crossing h; ``_mate`` pairs
each end with the end its edge runs to, and ``_strands`` lists, per
component, the ends its edges arrive at in traversal order.
Components, the strands at each crossing and the traversal order are
all read from these two.

Orientation data is read from one flat pair table, built in that pass:
the self-writhe, plus one ``(u, o, C)`` for each pair of
components whose signed crossing count C is not zero.  ``writhe``,
``linking_number`` and ``pair_signs`` under any mask loop over it, so
their cost follows the number of linked pairs, not the crossings.

The text format accepted by :func:`parse_pd` has an optional first line
``loops k`` followed by one crossing per line, ``Xr a b c d`` or
``Xl a b c d``.  ``#`` starts a comment.

Input is validated once, where it enters: ``Diagram(...)`` checks types,
edge ids (counted in a list) and roles, and that each piece can be drawn in
the plane, so every diagram is well formed and planar.  Edits that are
valid by construction (switch, smoothing and braid closures) build trusted
diagrams through ``_trusted``, which skips the checks.  The skein
recursion builds no diagram: it works on end arrays and strands (a
``Node``), with ``_switched`` and ``_renumber``, which walks and renumbers
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class DiagramError(ValueError):
    """Base for rejected diagram input."""


class PDSyntaxError(DiagramError):
    """Diagram text that does not match the record grammar."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidDiagramError(DiagramError):
    """Structurally broken crossing data."""


class InternalInvariantError(RuntimeError):
    """A quantity the mathematics forces came out wrong; engine bug."""


# Crossing sign under the reference orientation, keyed by tag.
TAG_SIGN = {"r": 1, "l": -1}

# Record slot where the over-strand enters, keyed by tag.  Edges arrive at
# slot 0 and this slot of a record and leave from the other two.
_OVER_ENTRY = {"r": 3, "l": 1}

OrientationMask = int
SublinkMask = int

# Slot pairings for removing a crossing, slot s joining slot pairing[s]:
# the two smoothings, and both strands passing straight through.
SMOOTHING = {"A": (1, 0, 3, 2), "B": (3, 2, 1, 0)}
STRAIGHT = (2, 3, 0, 1)


class Crossing(NamedTuple):
    """One crossing record: four edge ids counterclockwise plus a tag."""

    edges: tuple[int, int, int, int]
    tag: str

    def switched(self) -> "Crossing":
        """The same crossing with the other strand on top.

        The record is re-rooted at the new under-strand entry (the old
        over-strand entry), which keeps the counterclockwise order and
        every edge's role intact.
        """
        e1, e2, e3, e4 = self.edges
        if self.tag == "r":
            return Crossing((e4, e1, e2, e3), "l")
        return Crossing((e2, e3, e4, e1), "r")


@dataclass(frozen=True)
class Diagram:
    """An unoriented framed link diagram.

    Immutable; all editing operations return new diagrams.  The end
    structure (``_mate``, ``_strands``), the sign table and the components
    at each crossing are derived in one pass when it is made.
    """

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self):
        """Reject records that are malformed or that no planar diagram has.

        Types come first (tuples of ``Crossing`` records of int edge ids,
        an int loop count), so every diagram hashes and writes its text.
        Then the edge ids, counted in a list: 1..2n, each joining the end
        where it leaves one crossing to the end where it enters one.  Then
        two distinct components of a planar diagram cross an even number
        of times, and a signed count has the parity of the plain one.
        Last, each connected piece of n crossings (n vertices, 2n edges)
        must have n + 2 faces, as V - E + F = 2, and 2g fewer on a surface
        of genus g.  The pieces are the classes of components joined by
        crossings; ``_face_count`` traces each on its own, and none has more
        than n + 2, so the total count decides.
        """
        if type(self.crossings) is not tuple or type(self.free_loops) is not int:
            raise InvalidDiagramError("a diagram needs a tuple of crossings and an int loop count")
        if self.free_loops < 0:
            raise InvalidDiagramError("negative free loop count")
        n = len(self.crossings)
        arrives = [False] * (4 * n)  # per end, as in _mate
        for h, c in enumerate(self.crossings):
            if type(c) is not Crossing or type(c.edges) is not tuple:
                raise InvalidDiagramError(f"crossing {h}: not a Crossing with a tuple of edges")
            if c.tag not in ("r", "l"):
                raise InvalidDiagramError(f"crossing {h}: unknown tag {c.tag!r}")
            if len(c.edges) != 4:
                raise InvalidDiagramError(f"crossing {h}: needs exactly 4 edges")
            arrives[4 * h] = arrives[4 * h + _OVER_ENTRY[c.tag]] = True
        ends = [e for c in self.crossings for e in c.edges]
        uses = [0] * (2 * n + 2)  # per id; the last counts ids out of range
        for e in ends:
            if type(e) is not int:
                raise InvalidDiagramError(f"edge id {e!r} is not an integer")
            uses[e if 0 < e <= 2 * n else -1] += 1
        if uses[-1] or 0 in uses[1:-1]:
            raise InvalidDiagramError("edge ids must be exactly 1..2n")
        self._derive(ends)  # an edge used twice has its two ends paired
        mate = self._mate
        for x, e in enumerate(ends):
            if uses[e] != 2:
                raise InvalidDiagramError(f"edge {e} appears {uses[e]} times, expected 2")
            if arrives[x] == arrives[mate[x]]:
                raise InvalidDiagramError(
                    f"edge {e} must leave one crossing and enter one crossing"
                )
        for u, o, c in self._sign_table[1]:
            if c % 2:
                k = sum(1 for p in self._crossing_comps if p in ((u, o), (o, u)))
                raise InvalidDiagramError(
                    f"components {u} and {o} cross an odd number of times ({k}), "
                    "which no planar diagram allows"
                )
        root = list(range(len(self._strands)))
        pieces = len(root)
        for u, o in self._crossing_comps:
            while root[u] != u:
                u = root[u]
            while root[o] != o:
                o = root[o]
            if u != o:
                root[u] = o
                pieces -= 1
        f = _face_count(self)
        if f != n + 2 * pieces:
            raise InvalidDiagramError(
                f"{n} crossings in {pieces} connected piece(s) have {f} faces, "
                f"not {n + 2 * pieces}, so they cannot be drawn in the plane"
            )

    def _derive(self, ends: list[int]) -> None:
        # ends holds the records' edge ids in order.  A strand arriving at
        # x leaves through x ^ 2 and next arrives at mate[x ^ 2]; each is
        # walked from where its smallest edge arrives.  comp, the component
        # at each end, marks the walk; slots 0 and 1 are under and over.
        n = len(self.crossings)
        mate = [0] * (4 * n)
        first = [-1] * (2 * n + 1)  # per edge id
        for x, e in enumerate(ends):
            y = first[e]
            if y < 0:
                first[e] = x
            else:
                mate[x] = y
                mate[y] = x
        arrival = [0] * (2 * n + 1)  # per edge id
        for h, c in enumerate(self.crossings):
            x = 4 * h + _OVER_ENTRY[c.tag]
            arrival[ends[4 * h]] = 4 * h
            arrival[ends[x]] = x
        comp = [-1] * (4 * n)
        strands = []
        for x in arrival[1:]:
            if comp[x] >= 0:
                continue
            k = len(strands)
            cyc = []
            while comp[x] < 0:
                comp[x] = comp[x ^ 2] = k
                cyc.append(x)
                x = mate[x ^ 2]
            strands.append(tuple(cyc))
        self.__dict__.update(
            _mate=tuple(mate),
            _strands=tuple(strands),
            _sign_table=_sign_table_of(strands, 4 * n),
            _crossing_comps=tuple(zip(comp[0::4], comp[1::4])),
        )

    @property
    def num_components(self) -> int:
        return len(self._strands) + self.free_loops

    # -- orientation data -------------------------------------------------

    def _check_mask(self, mask: int, what: str) -> None:
        if mask < 0:
            raise InvalidDiagramError(f"{what} {mask:#b} is negative")
        com = self.num_components
        if mask >> com:
            raise InvalidDiagramError(f"{what} {mask:#b} addresses more than {com} components")

    def pair_signs(self, mask: OrientationMask = 0) -> dict[tuple[int, int], int]:
        """C[u, o] * e_u * e_o for each pair u < o of components with C != 0.

        C[u, o] is the signed crossing count between components u and o
        under the reference orientation, and e_i is -1 if mask reverses
        component i, else +1.  Reversing one of the two flips every
        crossing between them, reversing both flips none, so under mask

            writhe = the self-writhe + sum of all values,
            lk(S, rest) = half the sum over the pairs that S separates.

        These are the edges of the linking graph: a sum over masks of a
        quantity built from them factors over its connected pieces.
        """
        self._check_mask(mask, "orientation mask")
        return {
            (u, o): -c if ((mask >> u) ^ (mask >> o)) & 1 else c
            for u, o, c in self._sign_table[1]
        }

    def writhe(self, mask: OrientationMask = 0) -> int:
        self._check_mask(mask, "orientation mask")
        total, pairs = self._sign_table
        for u, o, c in pairs:
            total += -c if ((mask >> u) ^ (mask >> o)) & 1 else c
        return total

    def linking_number(self, mask: OrientationMask, submask: SublinkMask) -> int:
        """Linking number of the sublink in submask with everything else.

        Half the signed count of crossings between the two parts.  The
        count is forced even, so an odd total is reported as an engine
        bug rather than rounded.
        """
        self._check_mask(submask, "sublink mask")
        self._check_mask(mask, "orientation mask")
        total = 0
        for u, o, c in self._sign_table[1]:
            if ((submask >> u) ^ (submask >> o)) & 1:
                total += -c if ((mask >> u) ^ (mask >> o)) & 1 else c
        if total % 2:
            raise InternalInvariantError(
                "odd crossing count between a sublink and its complement"
            )
        return total // 2

    # -- editing ----------------------------------------------------------

    def switch(self, ci: int) -> "Diagram":
        """Exchange over and under strands at one crossing."""
        if not 0 <= ci < len(self.crossings):
            raise InvalidDiagramError(f"crossing not found: {ci}")
        cs = list(self.crossings)
        cs[ci] = cs[ci].switched()
        return _trusted(tuple(cs), self.free_loops)

    def smooth(self, ci: int, which: str) -> "Diagram":
        """Remove a crossing by joining its ends in pairs.

        ``A`` joins slots 0-1 and 2-3, ``B`` joins slots 0-3 and 1-2.
        Either way the two strands are rewired without crossing, so the
        result has one crossing fewer; strands that close up with no
        crossings left become free loops.  A joined pair can fuse two
        entries or two exits, so the whole diagram is retraversed and
        its records rebuilt from scratch.
        """
        n = len(self.crossings)
        if not 0 <= ci < n:
            raise InvalidDiagramError(f"crossing not found: {ci}")
        if which not in ("A", "B"):
            raise InvalidDiagramError(f"smoothing must be 'A' or 'B', got {which!r}")
        mate = list(self._mate)
        loops = _unplug(mate, ci, SMOOTHING[which])
        return _reassemble([h for h in range(n) if h != ci], mate, self.free_loops + loops)

    # -- canonical form ---------------------------------------------------

    def canonical_code(self) -> str:
        r"""A string that is equal for diagrams differing only by labels.

        Each connected piece of the crossing graph is coded on its own as
        the least of its end arrays renumbered from an under-strand end,
        and the sorted piece codes follow a ``free_loops,n`` header.  The
        start's crossing comes first, turned half-way round if need be so
        that the start is slot 0; each other crossing is named in the order
        the renumbered slots first reach it, turned so that the end that
        reached it keeps its level (slot 0 or 1).  No relabelling, half-turn
        or strand reversal changes the set of under-strand ends, so the
        clasp and its mirror, whose records differ by reversing a strand,
        share the code.  The skein recursion reads all it needs from the end
        array, so equal codes mean equal polynomials.  A piece of k
        crossings costs 2k renumberings of O(k) steps.

        >>> hopf = parse_pd("Xr 1 3 4 2\nXr 3 1 2 4\n")
        >>> relabeled = parse_pd("Xr 2 4 1 3\nXr 4 2 3 1\n")
        >>> relabeled.canonical_code() == hopf.canonical_code()
        True
        """
        mate = self._mate

        def renumbered(start: int) -> tuple[list[int], list[int]]:
            # the piece's renumbered end array, and per new crossing the old
            # end that is its slot 0; old end y is new end label[y >> 2] ^ (y & 3)
            label = {start >> 2: start & 3}
            zeros = [start]
            code = []
            for z in zeros:
                for s in range(4):
                    y = mate[z ^ s]
                    new = label.get(y >> 2)
                    if new is None:
                        new = label[y >> 2] = 4 * len(zeros) + (y & 2)
                        zeros.append(y & ~1)
                    code.append(new ^ (y & 3))
            return code, zeros

        pieces = []
        seen = set()
        for h in range(len(self.crossings)):
            if h not in seen:
                zeros = renumbered(4 * h)[1]
                seen.update(z >> 2 for z in zeros)
                pieces.append(min(renumbered(z ^ t)[0] for z in zeros for t in (0, 2)))
        return "|".join(
            [f"{self.free_loops},{len(self.crossings)}"]
            + [",".join(map(str, p)) for p in sorted(pieces)]
        )


def _trusted(crossings: tuple[Crossing, ...], free_loops: int) -> Diagram:
    """A Diagram of records that are valid by construction, left unchecked."""
    d = object.__new__(Diagram)
    d.__dict__.update(crossings=crossings, free_loops=free_loops)
    d._derive([e for c in crossings for e in c.edges])
    return d


def _sign_table_of(strands: Iterable[Sequence[int]], ends: int) -> tuple[int, tuple]:
    # (self-writhe, flat pair table) of strand cycles of arrival ends over
    # that many ends: (u, o, C) for each pair u < o of components whose
    # signs sum to C != 0, twice their linking number with the parity of
    # their crossing count.  Every crossing's under-strand arrives at slot
    # 0; it counts TAG_SIGN["r"] when the over-strand arrives at slot 3,
    # else TAG_SIGN["l"].
    comp = [-1] * ends
    for k, cyc in enumerate(strands):
        for x in cyc:
            comp[x] = k
    r, l = TAG_SIGN["r"], TAG_SIGN["l"]
    self_w = 0
    between: dict[tuple[int, int], int] = {}
    for b in range(0, ends, 4):
        over = b + 1 if comp[b + 1] >= 0 else b + 3
        u, o = comp[b], comp[over]
        sign = r if over & 2 else l
        if u == o:
            self_w += sign
        else:
            key = (u, o) if u < o else (o, u)
            between[key] = between.get(key, 0) + sign
    return self_w, tuple((u, o, c) for (u, o), c in between.items() if c)


def _unplug(mate: list[int], h: int, pairing: Sequence[int]) -> int:
    """Remove crossing h from an end array, joining slot s to pairing[s].

    mate is the list form of ``Diagram._mate`` and is edited in place:
    the ends that ran to h now run to each other, and h's own entries
    are left stale.  Returns the number of loops that close on h alone,
    which is where an edge joins two slots that the pairing joins too.
    """
    b = 4 * h
    loops = 0
    for s in range(4):
        t = pairing[s]
        if s < t:
            x, y = mate[b + s], mate[b + t]
            if x == b + t:
                loops += 1
            else:
                mate[x] = y
                mate[y] = x
    return loops


def _face_count(d: Diagram) -> int:
    # faces are cycles of arrival ends: turning right at end 4h + s, the
    # next edge of the face is the one arriving from slot s - 1
    mate = d._mate
    seen = [False] * len(mate)
    count = 0
    for start in range(len(mate)):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = mate[x - 1 if x & 3 else x + 3]
    return count


# A diagram as the skein recursion holds it: an end array over crossings
# 0..n-1 whose even slots are the under-strand, and its strands.
Node = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _switched(mate: Sequence[int], strands: Sequence[Sequence[int]], x: int) -> Node:
    """The node with crossing x's levels exchanged, its strands running as before.

    x's slots each move one place, the old over-strand entry to slot 0.
    """
    b = 4 * x
    turn = 1 if any(b + 3 in cyc for cyc in strands) else 3

    def moved(y: int) -> int:
        return b + (y + turn) % 4 if y >> 2 == x else y

    out = list(mate)
    for y in range(b, b + 4):
        z = moved(mate[y])
        out[moved(y)] = z
        out[z] = moved(y)
    return tuple(out), tuple(tuple(map(moved, cyc)) for cyc in strands)


def _renumber(handles: Iterable[int], mate: Sequence[int]) -> Node:
    """handles' crossings in an end array as a node, walked and renumbered in one pass.

    Each strand is walked from the smallest end not yet passed, taken as
    an arrival, and its cycle ends there.  The crossings are numbered in
    the order the walk meets them, each from the end where its
    under-strand arrived (slot 0 or 2) on, counterclockwise; the walk's
    per-end states tell which end that was.
    """
    state = [2] * len(mate)  # per end: 0 unpassed, 1 an arrival, 2 passed
    for h in handles:  # the ends of other handles count as passed
        b = 4 * h
        state[b] = state[b + 1] = state[b + 2] = state[b + 3] = 0
    met: list[int] = []  # the crossings' slot 0 ends, in the order the walk meets them
    strands = []
    for start in range(len(mate)):
        if state[start]:
            continue
        cyc = []
        x = start
        while x != start or not cyc:
            if not state[x ^ 1]:  # the other strand not passed: x's crossing is new
                met.append(x & ~3)
            state[x] = 1
            y = x ^ 2
            state[y] = 2
            x = mate[y]
            cyc.append(x)
        strands.append(cyc)
    unders = [b if state[b] == 1 else b + 2 for b in met]  # where under-strands arrive
    old_ends = [y ^ t for y in unders for t in (0, 1, 2, 3)]
    moved = [0] * len(mate)  # old end -> new end
    for i, y in enumerate(old_ends):
        moved[y] = i
    renumbered = tuple([tuple([moved[x] for x in cyc]) for cyc in strands])
    return tuple([moved[mate[y]] for y in old_ends]), renumbered


def _reassemble(handles: Iterable[int], mate: Sequence[int], free_loops: int) -> Diagram:
    """Rebuild crossing records from bare crossing geometry.

    handles name the surviving crossings; mate is an end array over
    them (see ``Diagram._mate``) whose even slots are the under-strand;
    entries of other handles are ignored.  ``_renumber`` numbers the
    crossings and walks their strands; edges are numbered along the
    strands, and each tag is read from where the over-strand enters.
    """
    mate, strands = _renumber(handles, mate)
    edges = [0] * len(mate)
    tags = ["r"] * (len(mate) // 4)
    for e, x in enumerate((x for cyc in strands for x in cyc), 1):
        edges[x] = edges[mate[x]] = e
        if x & 3 == 1:
            tags[x >> 2] = "l"
    records = tuple(Crossing(tuple(edges[4 * h : 4 * h + 4]), t) for h, t in enumerate(tags))
    return _trusted(records, free_loops)


def parse_pd(text: str) -> Diagram:
    """Parse diagram text into a Diagram.

    Edge ids in the text may be any distinct positive integers; they are
    renumbered to 1..2n preserving order.  Crossing data that no planar
    diagram has is rejected, see :class:`Diagram`.
    """
    loops = 0
    tags = []
    ids: list[int] = []  # four per record
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "loops":
            if not header_allowed:
                raise PDSyntaxError("loops header must be the first record", lineno)
            count = toks[1] if len(toks) == 2 else ""
            try:
                # ASCII digits only; int() refuses counts of too many digits
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
        _, a, b, c, e = toks
        try:
            edges = int(a), int(b), int(c), int(e)
        except ValueError:
            raise PDSyntaxError("edge ids must be integers", lineno) from None
        if min(edges) <= 0:
            raise PDSyntaxError("edge ids must be positive", lineno)
        digits = a + b + c + e
        if not (digits.isascii() and digits.isdigit()):
            # int() also reads signs, underscores and non-ASCII digits
            raise PDSyntaxError("edge ids must be integers", lineno)
        ids += edges
        tags.append(toks[0][1])
    it = map(dict(zip(sorted(set(ids)), range(1, len(ids) + 1))).__getitem__, ids)
    # each record made as Crossing._make does
    records = [tuple.__new__(Crossing, r) for r in zip(zip(it, it, it, it), tags)]
    return Diagram(tuple(records), loops)


def to_pd_text(d: Diagram) -> str:
    """Diagram text that parses back to an equal diagram."""
    lines = []
    if d.free_loops:
        lines.append(f"loops {d.free_loops}")
    for c in d.crossings:
        lines.append(f"X{c.tag} {c.edges[0]} {c.edges[1]} {c.edges[2]} {c.edges[3]}")
    return "\n".join(lines) + ("\n" if lines else "")
