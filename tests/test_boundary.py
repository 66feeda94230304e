"""The input boundary against the dict-based reader kept in ``boundary_oracle``.

Every text is read by both: an accepted one must give equal records and
loop counts, a refused one the same exception class and message.
"""

import random

import boundary_oracle
import pytest
from moves import distant_union
from test_mutations import mutants

from lmtkauffman.braid import random_closure
from lmtkauffman.corpus import CORPUS
from lmtkauffman.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    InvalidDiagramError,
    _trusted,
    parse_pd,
)


def _outcome(read, arg):
    try:
        return "accepted", read(arg)
    except DiagramError as exc:
        return "refused", type(exc), str(exc)


def _package(text):
    d = parse_pd(text)
    assert all(type(c) is Crossing and type(c.edges) is tuple for c in d.crossings)
    return d.crossings, d.free_loops


def _checked(crossings):
    Diagram(crossings)


def _dressed(d, rng):
    # d's text with its edge ids sent to other distinct positive ids, a
    # comment line, a trailing comment and a loops header
    ids = range(1, 2 * len(d.crossings) + 1)
    remap = dict(zip(ids, rng.sample(range(1, 20 * len(ids) + 2), len(ids))))
    lines = [f"loops {rng.randrange(4)}", "# dressed"]
    for c in d.crossings:
        note = "  # note" if rng.random() < 0.3 else ""
        lines.append(f"X{c.tag} " + " ".join(str(remap[e]) for e in c.edges) + note)
    return "\n".join(lines) + "\n"


# each token and line rule of the text format, met one at a time
_EDGE_CASES = (
    "",
    "Xr 1 1 2 2",
    "Xr\t7\t7\t9\t9\u00a0# tabs, no-break space\r\n",
    "Xr 1 1 2 2\x1cXr 3 3 4 4\u2028Xl 5 6 6 5\n",
    *(f"Xr {t} 1 2 2\n" for t in ("-1", "+1", "1_0", "\u0663", "0", "00", "x", "1.0")),
    "Xr 3 3 4 " + "9" * 4301 + "\n",
    "Xr 3 3 4 " + "9" * 4300 + "\n",
    "Xr 1 1 2\n",
    "Xr 1 1 2 2 2\n",
    "Xq 1 1 2 2\n",
    "xr 1 1 2 2\n",
    *(f"loops {k}\n" for k in ("", "-1", "+1", "\u0663", "1 2", "0", "007", "9" * 4301)),
    "loops 1\nloops 1\n",
    "Xr 1 1 2 2\nloops 1\n",
    "# only a comment\nloops 3\n",
)


def _texts():
    rng = random.Random(28)
    yield from _EDGE_CASES
    yield from (e.pd_text for e in CORPUS)
    for _ in range(300):
        yield _dressed(random_closure(rng, 8), rng)
    yield from mutants(seed=7, count=500)


def test_parse_pd_matches_the_dict_based_reader():
    accepted = refused = 0
    for text in _texts():
        want = _outcome(boundary_oracle.parse_pd, text)
        assert _outcome(_package, text) == want, text
        if want[0] == "accepted":
            accepted += 1
        else:
            refused += 1
    # both outcomes are common, so each is compared
    assert min(accepted, refused) > 150, (accepted, refused)


# acceptance (None) and the refusals that edge ids alone can cause
_KINDS = ("None", "exactly 1..2n", "expected 2", "must leave", "odd number", "in the plane")


def test_constructor_matches_the_dict_based_checks():
    # records with each id in 0..2n+1 drawn at random, so ids out of range,
    # missing, used once or three times and wrong roles all come up
    rng = random.Random(5)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            ids = [rng.randint(1, 2 * n) for _ in range(4 * n)]
        else:
            ids = list(range(1, 2 * n + 1)) * 2
            rng.shuffle(ids)
        if rng.random() < 0.1:
            ids[rng.randrange(4 * n)] = rng.choice([0, 2 * n + 1])
        cs = tuple(Crossing(tuple(ids[4 * i : 4 * i + 4]), rng.choice("rl")) for i in range(n))
        want = _outcome(boundary_oracle.check, cs)
        assert _outcome(_checked, cs) == want, cs
        seen.update(k for k in _KINDS if k in str(want[-1]))
    assert seen == set(_KINDS)


@pytest.mark.parametrize("bad", [[1], {}, 1.5, 2.0, True, "1", None])
def test_non_int_edge_ids_are_refused_as_invalid(bad):
    for cs in (
        (Crossing((bad, 1, 2, 2), "r"),),
        (Crossing((1, 1, 2, 2), "r"), Crossing((3, bad, 4, 4), "l")),
    ):
        with pytest.raises(InvalidDiagramError, match=r"^edge id .* is not an integer$"):
            Diagram(cs)


def test_split_unions_are_accepted_piece_by_piece():
    rng = random.Random(3)
    for k in range(1, 5):
        for loops in (0, 2):
            d = random_closure(rng, 6)
            for _ in range(k - 1):
                d = distant_union(d, random_closure(rng, 6))
            boundary_oracle.check(d.crossings, loops)
            assert Diagram(d.crossings, loops) == _trusted(d.crossings, loops)


def test_non_planar_piece_beside_planar_ones_names_every_piece():
    bad = _trusted((Crossing((4, 3, 2, 1), "r"), Crossing((3, 2, 4, 1), "l")), 0)
    kink = parse_pd("Xr 1 1 2 2\n")
    hopf = parse_pd("Xr 1 3 4 2\nXr 3 1 2 4\n")
    d = bad
    for planar in range(4):
        n = len(d.crossings)
        with pytest.raises(InvalidDiagramError) as exc:
            Diagram(d.crossings)
        with pytest.raises(InvalidDiagramError) as old:
            boundary_oracle.check(d.crossings)
        assert str(exc.value) == str(old.value)
        faces = 2 + (n - 2) + 2 * planar  # n_i + 2 faces for each planar piece
        assert str(exc.value) == (
            f"{n} crossings in {planar + 1} connected piece(s) have {faces} faces, "
            f"not {n + 2 * (planar + 1)}, so they cannot be drawn in the plane"
        )
        d = distant_union(d, (kink, hopf)[planar % 2])
