"""Acceptance suite: nine criteria, one printed PASS/FAIL line each.

Every comparison is exact integer Laurent arithmetic, tolerance zero.
Random inputs are seeded, so the whole module is deterministic.
"""

import itertools
import random
import time

import edge_walk
import moves

from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.kauffman import DELTA, lambda_poly, specialized_f
from lmtkauffman.laurent import LaurentA, LaurentAZ
from lmtkauffman.lmt import check_reversal_writhe, lmt_rhs, verify_sublink_formula
from lmtkauffman.transfer import check_skein_identity, check_specialization_identity, g_tau

ONE_A = LaurentA.one()
ONE_AZ = LaurentAZ.one()
Z = LaurentAZ.monomial(1, 0, 1)


def _finish(capsys, label, problems, elapsed=None, budget=None):
    if budget is not None and elapsed > budget:
        problems.append(f"took {elapsed:.1f}s, budget {budget}s")
    status = "PASS" if not problems else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"{status} {label}{timing}")
    assert not problems, problems[:5]


def test_criterion_1_knots_specialize_to_one(capsys):
    problems = []
    start = time.perf_counter()
    try:
        for e in CORPUS:
            if e.diagram().num_components != 1:
                continue
            if specialized_f(e.diagram()) != ONE_A:
                problems.append(f"corpus {e.name}")
        rng = random.Random(101)
        for i in range(50):
            d = moves.random_knot_closure(rng, 8)
            if specialized_f(d) != ONE_A:
                problems.append(f"random knot {i}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 1: every knot specializes to 1",
        problems,
        time.perf_counter() - start,
        budget=10.0,
    )


def test_criterion_2_sublink_formula(capsys):
    problems = []
    start = time.perf_counter()
    try:
        for e in CORPUS:
            if not verify_sublink_formula(e.diagram(), subject=e.name).passed:
                problems.append(f"corpus {e.name}")
        rng = random.Random(102)
        for i in range(200):
            d = random_closure(rng, 8)
            if not verify_sublink_formula(d).passed:
                problems.append(f"random {i}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 2: sublink formula, corpus + 200 random closures",
        problems,
        time.perf_counter() - start,
        budget=60.0,
    )


def test_criterion_3_orientation_sum_skein(capsys):
    problems = []
    try:
        for e in CORPUS:
            d = e.diagram()
            for ci in range(len(d.crossings)):
                if not check_skein_identity(d, ci).passed:
                    problems.append(f"{e.name}[{ci}]")
        rng = random.Random(103)
        pairs = 0
        while pairs < 100:
            d = random_closure(rng, 8)
            if not d.crossings:
                continue
            ci = rng.randrange(len(d.crossings))
            if not check_skein_identity(d, ci).passed:
                problems.append(f"random pair {pairs}")
            pairs += 1
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 3: orientation-sum skein identity at every crossing",
        problems,
    )


def test_criterion_4_orientation_sum_is_minus_two_specialized(capsys):
    problems = []
    try:
        circle = get("unknot").diagram()
        if g_tau(circle) != LaurentA.monomial(-2, 0):
            problems.append("circle sum is not -2")
        if -2 * lambda_poly(circle).substitute_z() != LaurentA.monomial(-2, 0):
            problems.append("circle engine value is not 1")
        for e in CORPUS:
            if not check_specialization_identity(e.diagram(), subject=e.name).passed:
                problems.append(e.name)
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 4: orientation sum equals -2 times the specialized polynomial",
        problems,
    )


def test_criterion_5_reversal_writhe(capsys):
    problems = []
    try:
        for e in CORPUS:
            d = e.diagram()
            com = d.num_components
            if com > 3:
                continue
            for mask in range(1 << com):
                for sub in range(1 << com):
                    if not check_reversal_writhe(d, mask, sub).passed:
                        problems.append(f"{e.name} {mask} {sub}")
        rng = random.Random(105)
        for i in range(500):
            d = random_closure(rng, 8)
            com = d.num_components
            mask = rng.randrange(1 << com)
            sub = rng.randrange(1 << com)
            if not check_reversal_writhe(d, mask, sub).passed:
                problems.append(f"random {i}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 5: reversing a sublink shifts the writhe by -4 lk",
        problems,
    )


def test_criterion_6_axioms_and_moves(capsys):
    problems = []
    try:
        if lambda_poly(get("unknot").diagram()) != ONE_AZ:
            problems.append("circle value")
        if lambda_poly(get("unknot_kink_pos").diagram()) != LaurentAZ.monomial(1, 1):
            problems.append("positive curl")
        if lambda_poly(get("unknot_kink_neg").diagram()) != LaurentAZ.monomial(1, -1):
            problems.append("negative curl")
        for name in ("trefoil_right", "hopf_pos", "whitehead"):
            d = get(name).diagram()
            base = lambda_poly(d)
            if lambda_poly(moves.add_kink(d, 1)) != LaurentAZ.monomial(1, 1) * base:
                problems.append(f"kink up on {name}")
            down = moves.add_kink(d, 1, positive=False)
            if lambda_poly(down) != LaurentAZ.monomial(1, -1) * base:
                problems.append(f"kink down on {name}")
        for e in CORPUS:
            d = e.diagram()
            lam = lambda_poly(d)
            for ci in range(len(d.crossings)):
                lhs = lam + lambda_poly(d.switch(ci))
                rhs = Z * (lambda_poly(d.smooth(ci, "A")) + lambda_poly(d.smooth(ci, "B")))
                if lhs != rhs:
                    problems.append(f"skein {e.name}[{ci}]")
        for name in ("hopf_pos", "trefoil_left", "figure_eight"):
            d = get(name).diagram()
            if lambda_poly(moves.first_poke(d)) != lambda_poly(d):
                problems.append(f"poke on {name}")
        rng = random.Random(106)
        for i in range(5):
            word, strands = random_word(rng, 5, min_strands=3)
            base = lambda_poly(braid_closure(word, strands))
            w2 = moves.insert_cancelling_pair(word, rng.randint(0, len(word)), 1)
            if lambda_poly(braid_closure(w2, strands)) != base:
                problems.append(f"cancelling pair {i}")
            left, right = moves.triangle_pair(word, 1)
            if lambda_poly(braid_closure(left, strands)) != lambda_poly(
                braid_closure(right, strands)
            ):
                problems.append(f"triangle {i}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 6: defining axioms and scripted slide moves",
        problems,
    )


def test_criterion_7_independent_enumeration_matches_engine(capsys):
    problems = []
    try:
        for e in CORPUS:
            d = e.diagram()
            com = d.num_components
            terms: dict[int, int] = {}
            for mask in range(1 << com):
                w = d.writhe(mask)
                terms[w] = terms.get(w, 0) + (-1) ** com
            if LaurentA(terms) != -2 * lambda_poly(d).substitute_z():
                problems.append(e.name)
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 7: orientation enumeration agrees with the skein engine",
        problems,
    )


def test_criterion_8_mirror_and_union(capsys):
    problems = []
    try:
        for e in CORPUS:
            d = e.diagram()
            if lambda_poly(moves.mirror(d)) != moves.invert_a(lambda_poly(d)):
                problems.append(f"mirror {e.name}")
        pairs = [
            ("trefoil_right", "hopf_pos"),
            ("figure_eight", "unlink2"),
            ("unknot_kink_neg", "borromean"),
            ("unknot", "whitehead"),
        ]
        for n1, n2 in pairs:
            d1, d2 = get(n1).diagram(), get(n2).diagram()
            u = moves.distant_union(d1, d2)
            if lambda_poly(u) != DELTA * lambda_poly(d1) * lambda_poly(d2):
                problems.append(f"union lambda {n1}+{n2}")
            if specialized_f(u) != -2 * specialized_f(d1) * specialized_f(d2):
                problems.append(f"union specialized {n1}+{n2}")
            if lmt_rhs(u) != -2 * lmt_rhs(d1) * lmt_rhs(d2):
                problems.append(f"union sublink side {n1}+{n2}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 8: mirror symmetry and distant-union structure",
        problems,
    )


def test_criterion_9_determinism_and_cache_transparency(capsys):
    problems = []
    try:
        small = [e for e in CORPUS if len(e.diagram().crossings) <= 6]
        baseline = {e.name: lambda_poly(e.diagram()) for e in small}
        shared: dict = {}
        for e in small:
            if lambda_poly(e.diagram(), memo=shared) != baseline[e.name]:
                problems.append(f"shared memo changes {e.name}")
        # every component order with random basepoints, reached by
        # numbering the edges along that traversal
        rng = random.Random(9)
        for e in small:
            d = e.diagram()
            comps = edge_walk.components(d)
            for perm in itertools.permutations(range(len(comps))):
                bps = [rng.choice(c) for c in comps]
                if lambda_poly(edge_walk.renumbered(d, perm, bps)) != baseline[e.name]:
                    problems.append(f"order {perm} from {bps} changes {e.name}")
            if lambda_poly(e.diagram()) != baseline[e.name]:
                problems.append(f"rerun changes {e.name}")
    except Exception as exc:
        problems.append(f"exception: {exc!r}")
    _finish(
        capsys,
        "criterion 9: a shared memo, traversal choice, and reruns all agree",
        problems,
    )
