import itertools
import random

import edge_walk
import pytest
from moves import add_kink, all_pokes, distant_union, mirror

from lmtkauffman import cli, diagram, kauffman
from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import (
    Crossing,
    Diagram,
    InternalInvariantError,
    InvalidDiagramError,
    PDSyntaxError,
    parse_pd,
    _reassemble,
    _sign_table_of,
    _switched,
    to_pd_text,
)
from lmtkauffman.kauffman import lambda_poly
from lmtkauffman.lmt import lmt_rhs, verify_all
from lmtkauffman.transfer import g_tau

KINK_POS = "Xr 1 1 2 2\n"
KINK_NEG = "Xl 1 2 2 1\n"
HOPF_POS = "Xr 1 3 4 2\nXr 3 1 2 4\n"


def test_parse_unknot_and_unlinks():
    d = parse_pd("loops 1\n")
    assert d.num_components == 1
    assert d.crossings == ()
    assert parse_pd("loops 3").num_components == 3
    assert parse_pd("").num_components == 0


def test_parse_comments_and_whitespace():
    d = parse_pd("# a curl\n\n  Xr   1 1   2 2   # trailing\n")
    assert d == parse_pd(KINK_POS)


def test_parse_renumbers_edges():
    d = parse_pd("Xr 10 10 70 70\n")
    assert d == parse_pd(KINK_POS)


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("Xq 1 2 3 4\n")
    with pytest.raises(PDSyntaxError):
        parse_pd("Xr 1 2 3\n")
    with pytest.raises(PDSyntaxError):
        parse_pd("Xr 1 2 3 x\n")
    with pytest.raises(PDSyntaxError):
        parse_pd("Xr 0 1 2 2\n")
    with pytest.raises(PDSyntaxError):
        parse_pd("Xr 1 1 2 2\nloops 1\n")
    with pytest.raises(PDSyntaxError):
        parse_pd("loops -1\n")
    err = None
    try:
        parse_pd("Xr 1 1 2 2\nbogus\n")
    except PDSyntaxError as e:
        err = e
    assert err is not None and err.line == 2


def test_edge_occurrence_validation():
    # edge 1 used three times
    with pytest.raises(InvalidDiagramError):
        parse_pd("Xr 1 1 1 2\n")
    # both occurrences incoming
    with pytest.raises(InvalidDiagramError):
        Diagram((Crossing((1, 2, 3, 4), "r"), Crossing((1, 3, 2, 4), "l")))
    # ids must be 1..2n when building records directly
    with pytest.raises(InvalidDiagramError):
        Diagram((Crossing((1, 1, 3, 3), "r"),))
    with pytest.raises(InvalidDiagramError):
        Diagram((), -1)


def test_odd_crossings_between_two_components_rejected():
    # two components that cross once: not a planar diagram
    with pytest.raises(InvalidDiagramError, match="odd number"):
        parse_pd("Xr 1 2 1 2\n")
    assert parse_pd(HOPF_POS).num_components == 2


def test_non_planar_codes_rejected():
    # one component, and two components crossing twice: each is a single
    # piece of 2 crossings with 2 faces, where a planar one has 4
    for text in ("Xr 4 3 2 1\nXl 3 2 4 1\n", "Xl 2 4 1 3\nXl 1 3 2 4\n"):
        with pytest.raises(InvalidDiagramError, match="cannot be drawn in the plane"):
            parse_pd(text)
    # two split curls: 6 faces for 2 crossings overall, but 3 per piece
    split = parse_pd("Xl 1 3 3 1\nXl 4 2 2 4\n")
    assert split.num_components == 2


def test_constructor_refusals_and_their_order():
    # edge checks before planarity; among the edges, the first to appear
    # that fails says why, whether by its count or by its roles
    def refused(crossings, free_loops=0):
        with pytest.raises(InvalidDiagramError) as exc:
            Diagram(tuple(Crossing(e, t) for e, t in crossings), free_loops)
        return str(exc.value)

    assert refused([], -1) == "negative free loop count"
    assert refused([((1, 2, 1, 2), "q")]) == "crossing 0: unknown tag 'q'"
    assert refused([((1, 1, 2), "r")]) == "crossing 0: needs exactly 4 edges"
    assert refused([((1, 1, 2, 5), "r")]) == "edge ids must be exactly 1..2n"
    assert refused([((1, 1, 1, 2), "r")]) == "edge 1 appears 3 times, expected 2"
    assert (
        refused([((1, 2, 2, 1), "r"), ((3, 3, 3, 4), "r")])
        == "edge 1 must leave one crossing and enter one crossing"
    )
    assert (
        refused([((1, 2, 1, 2), "r")])
        == "components 0 and 1 cross an odd number of times (1), which no planar diagram allows"
    )
    assert refused([((4, 3, 2, 1), "r"), ((3, 2, 4, 1), "l")]) == (
        "2 crossings in 1 connected piece(s) have 2 faces, not 4, "
        "so they cannot be drawn in the plane"
    )


def test_constructor_refuses_wrong_types():
    # values that compare equal to good ones but are not ints, and
    # containers that are not the record types, are refused where they
    # enter; what is accepted hashes and writes text that parses back
    kink = Crossing((1, 1, 2, 2), "r")
    for crossings, loops in [
        ((), 1.5),
        ((), True),
        ((kink,), 1.0),
        ((Crossing((1, 1, 2.0, 2), "r"),), 0),
        ((Crossing((True, 1, 2, 2), "r"),), 0),
        ([kink], 0),
        ((Crossing([1, 1, 2, 2], "r"),), 0),
        ((((1, 1, 2, 2), "r"),), 0),
    ]:
        with pytest.raises(InvalidDiagramError):
            Diagram(crossings, loops)
    for d in (Diagram((), 2), Diagram((kink,)), Diagram((kink, Crossing((3, 4, 4, 3), "l")), 1)):
        hash(d)
        assert parse_pd(to_pd_text(d)) == d


def test_planarity_is_checked_once_per_diagram(monkeypatch, tmp_path, capsys):
    # the constructor that parse_pd calls traces the faces, and no verb
    # traces them again
    calls = []
    traced = diagram.faces

    def counted(d):
        calls.append(d)
        return traced(d)

    monkeypatch.setattr(diagram, "faces", counted)
    path = tmp_path / "hopf.pd"
    path.write_text(HOPF_POS)
    for verb in ("verify", "compute", "lmt"):
        calls.clear()
        assert cli.main([verb, str(path)]) == 0
        assert len(calls) == 1, verb
    capsys.readouterr()
    # a directly built non-planar diagram is refused at construction
    calls.clear()
    with pytest.raises(InvalidDiagramError, match="cannot be drawn in the plane"):
        Diagram((Crossing((4, 3, 2, 1), "r"), Crossing((3, 2, 4, 1), "l")))
    assert len(calls) == 1


def test_planar_check_separates_random_codes():
    # random records with each edge id twice: Diagram refuses some for
    # their edge roles and some as non-planar; the ones it accepts get one
    # value for every component order (reached by renumbering the edges
    # along it), and the mask sums, verify and every linking number run
    # without an engine error
    rng = random.Random(13)
    accepted = rejected = 0
    while accepted + rejected < 200:
        n = rng.randint(1, 4)
        ids = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(ids)
        cs = tuple(Crossing(tuple(ids[4 * i : 4 * i + 4]), rng.choice("rl")) for i in range(n))
        try:
            d = Diagram(cs)
        except InvalidDiagramError as exc:
            if "odd number" in str(exc) or "cannot be drawn in the plane" in str(exc):
                rejected += 1
            continue
        accepted += 1
        k = len(edge_walk.components(d))
        orders = itertools.permutations(range(k))
        values = {lambda_poly(edge_walk.renumbered(d, o)) for o in orders}
        assert len(values) == 1, d
        g_tau(d)
        lmt_rhs(d)
        assert all(r.passed for r in verify_all(d)), d
        for submask in range(1 << d.num_components):
            d.linking_number(0, submask)
    assert accepted > 50 and rejected > 50


def test_components_of_clasp():
    d = parse_pd(HOPF_POS)
    assert edge_walk.components(d) == ((1, 4), (2, 3))
    assert d.num_components == 2
    k = parse_pd(KINK_POS)
    assert edge_walk.components(k) == ((1, 2),)


def test_component_indexing_puts_loops_last():
    d = parse_pd("loops 2\n" + HOPF_POS)
    assert d.num_components == 4
    assert len(edge_walk.components(d)) == 2
    # reversing a free loop changes no crossing sign
    assert d.writhe(0b0100) == d.writhe(0)
    assert d.writhe(0b1100) == d.writhe(0)


def test_signs_and_writhe():
    d = parse_pd(HOPF_POS)
    assert edge_walk.crossing_sign(d, 0) == 1
    assert d.writhe() == 2
    assert d.writhe(0b01) == -2
    assert d.writhe(0b10) == -2
    assert d.writhe(0b11) == 2
    k = parse_pd(KINK_POS)
    # a self-crossing keeps its sign under reversal
    assert edge_walk.crossing_sign(k, 0, 0) == edge_walk.crossing_sign(k, 0, 1) == 1
    assert parse_pd(KINK_NEG).writhe() == -1


def test_self_writhe_splits_writhe():
    rng = random.Random(5)
    for _ in range(100):
        d = random_closure(rng, 7)
        mixed = d.writhe(0) - d._sign_table[0]
        total = 0
        for i in range(len(d.crossings)):
            u, o = d._crossing_comps[i]
            if u != o:
                total += edge_walk.crossing_sign(d, i)
        assert mixed == total


def test_linking_number_clasp():
    d = parse_pd(HOPF_POS)
    assert d.linking_number(0, 0b01) == 1
    assert d.linking_number(0, 0b10) == 1
    assert d.linking_number(0, 0b00) == 0
    assert d.linking_number(0, 0b11) == 0
    assert d.linking_number(0b01, 0b01) == -1


def test_linking_number_matches_complement():
    rng = random.Random(6)
    for _ in range(100):
        d = random_closure(rng, 7)
        com = d.num_components
        mask = rng.randrange(1 << com)
        s = rng.randrange(1 << com)
        full = (1 << com) - 1
        assert d.linking_number(mask, s) == d.linking_number(mask, full ^ s)


def test_mask_bounds_checked():
    d = parse_pd(HOPF_POS)
    with pytest.raises(InvalidDiagramError):
        d.writhe(4)
    with pytest.raises(InvalidDiagramError):
        d.linking_number(0, 1 << 5)


def test_switch_is_involution_and_flips_sign():
    rng = random.Random(7)
    for _ in range(60):
        d = random_closure(rng, 7)
        for ci in range(len(d.crossings)):
            assert d.switch(ci).switch(ci) == d
            assert edge_walk.crossing_sign(d.switch(ci), ci) == -edge_walk.crossing_sign(d, ci)
    d = parse_pd(HOPF_POS)
    with pytest.raises(InvalidDiagramError):
        d.switch(2)


def test_mirror_negates_writhe_under_every_mask():
    rng = random.Random(8)
    for _ in range(60):
        d = random_closure(rng, 7)
        m = mirror(d)
        assert mirror(m) == d
        for mask in range(1 << d.num_components):
            assert m.writhe(mask) == -d.writhe(mask)


def test_smooth_kink():
    k = parse_pd(KINK_POS)
    assert k.smooth(0, "A") == Diagram((), 2)
    assert k.smooth(0, "B") == Diagram((), 1)


def test_smooth_clasp_gives_single_curl():
    d = parse_pd(HOPF_POS)
    a = d.smooth(0, "A")
    b = d.smooth(0, "B")
    assert len(a.crossings) == len(b.crossings) == 1
    assert a.canonical_code() == parse_pd(KINK_POS).canonical_code()
    assert b.canonical_code() == parse_pd(KINK_NEG).canonical_code()


def test_smooth_always_drops_one_crossing():
    rng = random.Random(9)
    for _ in range(80):
        d = random_closure(rng, 7)
        n = len(d.crossings)
        ci = rng.randrange(n)
        for which in "AB":
            s = d.smooth(ci, which)
            assert len(s.crossings) == n - 1
    with pytest.raises(InvalidDiagramError):
        d.smooth(0, "C")
    with pytest.raises(InvalidDiagramError):
        d.smooth(len(d.crossings), "A")


def test_distant_union():
    d1 = parse_pd(HOPF_POS)
    d2 = parse_pd(KINK_POS)
    u = distant_union(d1, d2)
    assert u.num_components == 3
    assert u.writhe(0) == d1.writhe(0) + d2.writhe(0)
    assert distant_union(u, Diagram((), 0)) == u
    assert distant_union(Diagram((), 0), d1) == d1


def test_union_corpus_entry_is_the_trefoil_beside_a_circle():
    # the entry is built as a 3-strand closure whose idle strand closes
    # into the circle; it must stay the text of the union itself
    union = distant_union(braid_closure([1, 1, 1], 2), Diagram((), 1))
    assert get("union_trefoil_unknot").pd_text == to_pd_text(union)


def _passages(d):
    # (crossing, is_under) per arrival along _strands, the traversal the
    # skein engine reads defects from: components in index order, each
    # from its smallest edge
    return [(x >> 2, not x & 1) for cyc in d._strands for x in cyc]


def test_passages_and_basepoints():
    d = parse_pd(HOPF_POS)
    assert _passages(d) == [(0, True), (1, False), (0, False), (1, True)]
    # other traversals are the defaults of renumbered copies
    assert _passages(edge_walk.renumbered(d, (1, 0))) == [
        (0, False),
        (1, True),
        (0, True),
        (1, False),
    ]
    assert _passages(edge_walk.renumbered(d, None, (4, 2))) == [
        (1, False),
        (0, True),
        (0, False),
        (1, True),
    ]


def test_strand_structure_matches_an_edge_walk():
    # components, the strands at each crossing and the traversal, read
    # from the end structure, against a walk over edge ids; the outputs of
    # switch, smoothing, curls and pokes carry the structure the operation
    # that made them handed over
    rng = random.Random(16)
    bases = [e.diagram() for e in CORPUS] + [random_closure(rng, 7) for _ in range(40)]
    checked = 0
    for d in bases:
        family = [d]
        for ci in range(len(d.crossings)):
            family += [d.switch(ci), d.smooth(ci, "A"), d.smooth(ci, "B")]
        for e in range(1, 2 * len(d.crossings) + 1):
            family.append(add_kink(d, e, positive=e % 2 == 0))
        if d.free_loops:
            family.append(add_kink(d))
        family += all_pokes(d)
        for x in family:
            comps = edge_walk.components(x)
            assert x.num_components == len(comps) + x.free_loops
            assert x._crossing_comps == edge_walk.crossing_comps(x)
            assert _passages(x) == edge_walk.passages(x)
            order = rng.sample(range(len(comps)), len(comps))
            bps = [rng.choice(c) for c in comps]
            want = edge_walk.passages(x, order, bps)
            assert _passages(edge_walk.renumbered(x, order, bps)) == want
            checked += 1
    assert checked > 3000


def test_to_pd_text_roundtrip():
    rng = random.Random(10)
    for _ in range(60):
        d = random_closure(rng, 7)
        assert parse_pd(to_pd_text(d)) == d
    assert parse_pd(to_pd_text(Diagram((), 2))) == Diagram((), 2)


def test_canonical_code_ignores_labels():
    d = parse_pd(HOPF_POS)
    relabeled = parse_pd("Xr 2 4 1 3\nXr 4 2 3 1\n")
    assert relabeled.canonical_code() == d.canonical_code()


def test_canonical_code_separates_basic_diagrams():
    codes = [
        parse_pd("loops 1\n").canonical_code(),
        parse_pd(KINK_POS).canonical_code(),
        parse_pd(KINK_NEG).canonical_code(),
        parse_pd(HOPF_POS).canonical_code(),
        braid_closure([1, 1], 2).canonical_code(),
        braid_closure([1, 1, 1], 2).canonical_code(),
        braid_closure([-1, -1, -1], 2).canonical_code(),
    ]
    # the mirror curls and the mirror trefoils stay apart: self-crossing
    # handedness does not depend on traversal direction
    assert codes[1] != codes[2]
    assert codes[5] != codes[6]
    # the two clasps collide: reversing one strand flips the handedness
    # of both crossings, and the code minimizes over directions
    assert codes[3] == codes[4]
    assert len(set(codes)) == 6


def test_colliding_codes_carry_equal_polynomials():
    # the code identifies the two clasps, so their framed values must
    # genuinely agree; a memo shared between them stays transparent even
    # though the skein memo keys by crossing records, not by this code
    from lmtkauffman.kauffman import lambda_poly

    d1 = parse_pd(HOPF_POS)
    d2 = braid_closure([1, 1], 2)
    assert d1.canonical_code() == d2.canonical_code()
    fresh1, fresh2 = lambda_poly(d1), lambda_poly(d2)
    assert fresh1 == fresh2
    shared: dict = {}
    assert lambda_poly(d1, memo=shared) == fresh1
    assert lambda_poly(d2, memo=shared) == fresh2
    # the oriented, writhe-corrected values still differ, via the writhe
    assert d1.writhe(0) == 2 and d2.writhe(0) == -2
    # a seeded family of closures, their mirrors and switches: every
    # diagram sharing a code shares its framed value
    rng = random.Random(13)
    groups: dict[str, list[Diagram]] = {}
    for _ in range(30):
        d = random_closure(rng, 5)
        for x in [d, mirror(d)] + [d.switch(ci) for ci in range(len(d.crossings))]:
            groups.setdefault(x.canonical_code(), []).append(x)
    assert any(len({x.crossings for x in g}) > 1 for g in groups.values())
    for g in groups.values():
        assert len({lambda_poly(x) for x in g}) == 1


def test_canonical_code_stable_under_rebuild():
    # braid closures relabel edges very differently from parse order
    rng = random.Random(11)
    for _ in range(40):
        d = random_closure(rng, 6)
        again = parse_pd(to_pd_text(d))
        assert again.canonical_code() == d.canonical_code()


def _relabeled(d, rng):
    # the same unoriented diagram rebuilt from its geometry with the
    # crossings renamed and some turned half-way round, which moves the
    # strands' reference directions, then with its edge ids and its
    # crossing order shuffled
    n = len(d.crossings)
    name = rng.sample(range(n), n)
    turn = [rng.choice((0, 2)) for _ in range(n)]

    def moved(x):
        return 4 * name[x >> 2] + (x + turn[x >> 2]) % 4

    m = [0] * (4 * n)
    for x, y in enumerate(d._mate):
        m[moved(x)] = moved(y)
    d = _reassemble(range(n), m, d.free_loops)
    n2 = 2 * n
    perm = list(range(1, n2 + 1))
    rng.shuffle(perm)
    remap = dict(zip(range(1, n2 + 1), perm))
    cs = [Crossing(tuple(remap[e] for e in c.edges), c.tag) for c in d.crossings]
    rng.shuffle(cs)
    return Diagram(tuple(cs), d.free_loops)


def _kinked_circles(signs):
    u = Diagram((), 0)
    for positive in signs:
        u = distant_union(u, parse_pd(KINK_POS if positive else KINK_NEG))
    return u


def test_canonical_code_invariant_under_random_relabel():
    rng = random.Random(12)
    closures = [random_closure(rng, 6) for _ in range(40)]
    for d in closures:
        assert _relabeled(d, rng).canonical_code() == d.canonical_code()
    # split unions, in both orders
    for d1, d2 in zip(closures, closures[1:]):
        u = distant_union(d1, d2)
        assert distant_union(d2, d1).canonical_code() == u.canonical_code()
        assert _relabeled(u, rng).canonical_code() == u.canonical_code()
    # unions of 2-12 kinked circles: the code sees only how many curl each way
    for k in range(2, 13):
        signs = [rng.random() < 0.5 for _ in range(k)]
        d = _kinked_circles(signs)
        assert _relabeled(d, rng).canonical_code() == d.canonical_code()
        assert _kinked_circles(sorted(signs)).canonical_code() == d.canonical_code()
        if 0 < sum(signs) < k:
            assert _kinked_circles([True] * k).canonical_code() != d.canonical_code()


def test_canonical_code_of_many_components():
    # the code walks each piece from each of its ends, so it needs no
    # search over component orders: 12 split circles and a 24-component
    # chain are coded directly
    rng = random.Random(15)
    chain = braid_closure([i for j in range(1, 24) for i in (j, j)], 24)
    for d in (_kinked_circles([True] * 12), chain):
        assert _relabeled(d, rng).canonical_code() == d.canonical_code()
    assert chain.num_components == 24


def test_internal_invariant_error_is_runtime_error():
    assert issubclass(InternalInvariantError, RuntimeError)


def _audit(x):
    # the validating constructor accepts a trusted diagram's records, so
    # it is well formed and planar
    assert Diagram(x.crossings, x.free_loops) == x


def _audit_node(node):
    # a skein node is an end array and its strands: rebuilt as records it
    # is a planar diagram, and its strands walk the array, arriving at
    # each crossing once at an even (under) end and once at an odd one,
    # with the self-writhe and components of the rebuilt diagram
    mate, strands = node
    n = len(mate) // 4
    d = _reassemble(range(n), mate, 0)
    _audit(d)
    for cyc in strands:
        assert all(mate[x ^ 2] == y for x, y in zip(cyc, cyc[1:] + cyc[:1]))
    ends = sorted((x >> 2, x & 1) for cyc in strands for x in cyc)
    assert ends == [(h, p) for h in range(n) for p in (0, 1)]
    assert len(strands) == d.num_components
    assert _sign_table_of(strands, len(mate))[0] == d._sign_table[0]


def test_trusted_constructions_match_validated_ones(monkeypatch):
    rng = random.Random(14)
    diagrams = [e.diagram() for e in CORPUS]
    for _ in range(40):
        word, strands = random_word(rng, 7)
        d = braid_closure(word, strands)
        _audit(d)
        diagrams.append(d)
    for d, other in zip(diagrams, diagrams[1:] + diagrams[:1]):
        outputs = [mirror(d), distant_union(d, other)]
        for ci in range(len(d.crossings)):
            s = d.switch(ci)
            cj = rng.randrange(len(d.crossings))
            t = s.switch(cj)
            # the skein engine's switch on the end array agrees with the
            # structure the switched records give
            assert _switched(d._mate, d._strands, ci) == (s._mate, s._strands)
            assert _switched(s._mate, s._strands, cj) == (t._mate, t._strands)
            outputs += [s, t, d.smooth(ci, "A"), d.smooth(ci, "B")]
        for e in range(1, 2 * len(d.crossings) + 1):
            outputs.append(add_kink(d, e, positive=e % 2 == 0))
        if d.free_loops:
            outputs += [add_kink(d), add_kink(d, positive=False)]
        pokes = all_pokes(d, limit=6)
        outputs += pokes
        for p in pokes:
            # each poke makes an R2 bigon, which the skein engine's reducer removes
            r = kauffman._reduce((p._mate, p._strands), {}, range(len(p.crossings)))[2]
            if r is not None:
                assert len(r[0]) < len(p._mate)
                _audit_node(r)
        for x in outputs:
            _audit(x)
    # every node the reducer is given and every one it builds; a diagram
    # with free loops beside its crossings is reduced from its own node
    calls = []
    inner = kauffman._reduce

    def recording(x, pairings, check):
        out = inner(x, pairings, check)
        calls.append((x, out[2]))
        return out

    monkeypatch.setattr(kauffman, "_reduce", recording)
    roots = []
    for d in diagrams[:20]:
        looped = distant_union(d, Diagram((), 2))
        roots.append((looped, len(calls)))
        lambda_poly(looped)
        if d.crossings:
            lambda_poly(all_pokes(d, limit=1)[0])
    # loop-stripped: the free loops are counted apart and the node kept
    assert any(
        u.crossings and calls[i][0][0] is u._mate and calls[i][1] is calls[i][0]
        for u, i in roots
    )
    # reassembled
    assert any(r is not None and r[0] is not x[0] for x, r in calls)
    for x, r in calls:
        _audit_node(x)
        if r is not None:
            _audit_node(r)
            # checked everywhere, a reduced node has nothing left to strip
            assert inner(r, {}, range(len(r[0]) // 4)) == (0, 0, r)


def _same_end_arrays(d1, d2):
    # the definition the code must decide: some naming of the crossings,
    # each turned half-way round or not, carries one end array onto the
    # other; brute force, for a few crossings only
    m1, m2 = d1._mate, d2._mate
    n = len(d1.crossings)
    if len(d2.crossings) != n:
        return False
    for name in itertools.permutations(range(n)):
        for turn in itertools.product((0, 2), repeat=n):

            def moved(x):
                return 4 * name[x >> 2] + ((x & 3) ^ turn[x >> 2])

            if all(m2[moved(x)] == moved(y) for x, y in enumerate(m1)):
                return True
    return False


def test_canonical_code_decides_end_array_isomorphism():
    # two codes are equal exactly when the loop counts match and the end
    # arrays are the same up to names and half-turns, over small closures,
    # their mirrors, switches and smoothings, the two clasps and a union
    # of opposite curls
    rng = random.Random(27)
    family = [
        parse_pd(HOPF_POS),
        braid_closure([1, 1], 2),
        distant_union(parse_pd(KINK_POS), parse_pd(KINK_NEG)),
    ]
    for _ in range(25):
        d = random_closure(rng, 4)
        family += [d, mirror(d)]
        for ci in range(len(d.crossings)):
            family += [d.switch(ci), d.smooth(ci, "A"), d.smooth(ci, "B")]
    codes = [d.canonical_code() for d in family]
    same = apart = 0
    for (d1, c1), (d2, c2) in itertools.combinations(zip(family, codes), 2):
        if d1.free_loops != d2.free_loops or len(d1.crossings) != len(d2.crossings):
            assert c1 != c2
            continue
        iso = _same_end_arrays(d1, d2)
        assert (c1 == c2) == iso, (d1, d2)
        if d1.crossings != d2.crossings:
            same += iso
            apart += not iso
    assert same > 200 and apart > 2000
