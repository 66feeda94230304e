import random

import pytest
from moves import add_kink, all_pokes, first_poke, insert_cancelling_pair, poke, triangle_pair

from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.corpus import get
from lmtkauffman.diagram import Diagram, InvalidDiagramError, faces, parse_pd
from lmtkauffman.kauffman import lambda_poly
from lmtkauffman.laurent import LaurentAZ
from lmtkauffman.lmt import verify_all

A = LaurentAZ.monomial(1, 1)
A_INV = LaurentAZ.monomial(1, -1)


def test_kink_on_free_loop():
    circle = parse_pd("loops 1\n")
    assert lambda_poly(add_kink(circle)) == A
    assert lambda_poly(add_kink(circle, positive=False)) == A_INV
    k = add_kink(circle)
    assert len(k.crossings) == 1 and k.free_loops == 0


def test_kink_needs_a_free_loop():
    with pytest.raises(InvalidDiagramError):
        add_kink(Diagram((), 0))


def test_kink_multiplies_lambda_by_a():
    rng = random.Random(70)
    for _ in range(12):
        d = random_closure(rng, 6)
        base = lambda_poly(d)
        edge = rng.randint(1, 2 * len(d.crossings))
        assert lambda_poly(add_kink(d, edge)) == A * base
        assert lambda_poly(add_kink(d, edge, positive=False)) == A_INV * base


def test_kink_changes_writhe_not_linking():
    d = get("hopf_pos").diagram()
    k = add_kink(d, edge=1)
    assert k.writhe(0) == d.writhe(0) + 1
    assert k.linking_number(0, 0b01) == d.linking_number(0, 0b01)


def test_opposite_kinks_cancel():
    d = get("trefoil_right").diagram()
    twice = add_kink(add_kink(d, 1), 1, positive=False)
    assert lambda_poly(twice) == lambda_poly(d)
    assert twice.canonical_code() != d.canonical_code()


def test_faces_cover_every_end_once():
    for name in ("trefoil_right", "hopf_pos", "figure_eight"):
        d = get(name).diagram()
        ends = sorted(x for f in faces(d) for x in f)
        assert ends == list(range(4 * len(d.crossings)))


def test_poke_preserves_lambda():
    rng = random.Random(71)
    for _ in range(10):
        d = random_closure(rng, 5)
        if not d.crossings:
            continue
        p = first_poke(d)
        assert len(p.crossings) == len(d.crossings) + 2
        assert lambda_poly(p) == lambda_poly(d)


def test_all_pokes_of_the_clasp():
    d = get("hopf_pos").diagram()
    base = lambda_poly(d)
    pokes = all_pokes(d, limit=6)
    assert len(pokes) == 6
    for p in pokes:
        assert lambda_poly(p) == base


def test_poked_diagrams_still_verify():
    for name in ("hopf_pos", "trefoil_left"):
        p = first_poke(get(name).diagram())
        assert all(r.passed for r in verify_all(p, subject=name))


def test_poke_rejects_bad_ends():
    d = get("hopf_pos").diagram()
    f = faces(d)[0]
    with pytest.raises(InvalidDiagramError):
        poke(d, f[0], f[0])
    with pytest.raises(InvalidDiagramError):
        poke(d, f[0], d._mate[f[0]])


def test_cancelling_pair_in_braid_word():
    rng = random.Random(72)
    for _ in range(10):
        word, strands = random_word(rng, 6)
        base = lambda_poly(braid_closure(word, strands))
        pos = rng.randint(0, len(word))
        idx = rng.randint(1, strands - 1)
        sign = rng.choice([1, -1])
        w2 = insert_cancelling_pair(word, pos, idx, sign)
        assert lambda_poly(braid_closure(w2, strands)) == base


def test_triangle_pair_closures_agree():
    rng = random.Random(73)
    for _ in range(8):
        word, strands = random_word(rng, 5, min_strands=3)
        idx = rng.randint(1, strands - 2)
        left, right = triangle_pair(word, idx)
        dl = braid_closure(left, strands)
        dr = braid_closure(right, strands)
        assert dl.crossings != dr.crossings
        assert lambda_poly(dl) == lambda_poly(dr)
