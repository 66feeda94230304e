"""The factored orientation and sublink sums against plain enumeration.

``g_tau`` and ``lmt_rhs`` sum over all 2^com masks as a product over the
pieces of the linking graph, and ``writhe`` and ``linking_number`` read
a flat per-pair sign table.  The references here enumerate every mask
and every sublink and re-sum every crossing through
``edge_walk.crossing_sign``, with the components at each crossing taken
from a walk over edge ids.
``verify_all``, which specializes lambda once for two of its checks, is
held to reports rebuilt the same plain way.
"""

import random

import edge_walk
from moves import distant_union

from lmtkauffman.braid import braid_closure, random_closure
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import Diagram, parse_pd
from lmtkauffman.kauffman import lambda_poly, specialized_f
from lmtkauffman.laurent import LaurentA
from lmtkauffman.lmt import lmt_rhs, verify_all
from lmtkauffman.transfer import VerificationReport, g_tau, sum_over_masks

MAX_COM = 8

# Specialization of z.
NEG_A_PAIR = LaurentA({1: -1, -1: -1})


def _plain_signs(d, mask):
    return [edge_walk.crossing_sign(d, ci, mask) for ci in range(len(d.crossings))]


def _plain_linking(comps, signs, submask):
    total = 0
    for (u, o), sign in zip(comps, signs):
        if u != o and ((submask >> u) ^ (submask >> o)) & 1:
            total += sign
    assert total % 2 == 0
    return total // 2


def _plain_g_tau(d):
    terms = {}
    for mask in range(1 << d.num_components):
        w = sum(_plain_signs(d, mask))
        terms[w] = terms.get(w, 0) + (-1) ** d.num_components
    return LaurentA(terms)


def _plain_lmt_rhs(d, mask):
    # also checks linking_number on every sublink of this mask
    signs = _plain_signs(d, mask)
    comps = edge_walk.crossing_comps(d)
    terms = {}
    for s in range(1 << d.num_components):
        lk = _plain_linking(comps, signs, s)
        assert d.linking_number(mask, s) == lk, (mask, s)
        terms[-4 * lk] = terms.get(-4 * lk, 0) + 1
    assert all(c % 2 == 0 for c in terms.values())
    sign = (-1) ** (d.num_components - 1)
    return LaurentA({e: sign * c // 2 for e, c in terms.items()})


def _check(d):
    assert g_tau(d) == _plain_g_tau(d), d
    for mask in range(1 << d.num_components):
        assert d.writhe(mask) == sum(_plain_signs(d, mask)), (d, mask)
        assert lmt_rhs(d, mask) == _plain_lmt_rhs(d, mask), (d, mask)


def _small(diagrams):
    return [d for d in diagrams if 0 < d.num_components <= MAX_COM]


def test_corpus_matches_plain_enumeration():
    for e in CORPUS:
        _check(e.diagram())


def test_random_closures_switches_and_smoothings_match_plain_enumeration():
    rng = random.Random(70)
    checked = 0
    for _ in range(40):
        d = random_closure(rng, 7)
        family = [d]
        for ci in range(len(d.crossings)):
            family += [d.switch(ci), d.smooth(ci, "A"), d.smooth(ci, "B")]
        for x in _small(family):
            _check(x)
            checked += 1
    assert checked > 500


def test_split_unions_with_free_loops_match_plain_enumeration():
    rng = random.Random(71)
    checked = 0
    for _ in range(10):
        d = distant_union(random_closure(rng, 3), random_closure(rng, 3))
        for loops in range(4):
            for x in _small([Diagram(d.crossings, d.free_loops + loops)]):
                _check(x)
                checked += 1
    assert checked > 20


def _plain_sum_over_masks(com, weights):
    terms = {}
    for x in range(1 << com):
        e = sum(w[((x >> u) ^ (x >> o)) & 1] for (u, o), w in weights.items())
        terms[e] = terms.get(e, 0) + 1
    return terms


def _shapes(n, rng):
    # edge lists on vertices 0..n-1, by shape
    path = [(i, i + 1) for i in range(n - 1)]
    shapes = {
        "path": path,
        "star": [(0, i) for i in range(1, n)],
        "forest": [(i, rng.randrange(i)) for i in range(1, n) if rng.random() < 0.8],
        "pairs": [(i, i + 1) for i in range(0, n - 1, 2)],
        "random": [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3],
    }
    if n >= 3:
        cycle = path + [(n - 1, 0)]
        shapes["cycle"] = cycle
        # a cycle with trees hung on it: leaves strip down to the cycle
        shapes["cycle+trees"] = [(0, 1), (1, 2), (2, 0)] + [
            (i, rng.randrange(i)) for i in range(3, n)
        ]
    if n <= 8:
        shapes["complete"] = [(i, j) for j in range(n) for i in range(j)]
    if n >= 7:
        # two triangles joined by a path, and a chord across a cycle
        shapes["dumbbell"] = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
        shapes["chorded"] = path + [(n - 1, 0), (0, n // 2)]
    return shapes


def test_sum_over_masks_matches_plain_enumeration_on_weight_graphs():
    # synthetic weight graphs of up to 12 components, relabelled at random,
    # some components left in no pair and some pairs with w_same == w_cut
    rng = random.Random(73)
    checked = set()
    for n in range(1, 13):
        for name, edges in _shapes(n, rng).items():
            for _ in range(2):
                com = rng.randint(n, 12)
                label = rng.sample(range(com), com)
                weights = {}
                for i, j in edges:
                    u, o = sorted((label[i], label[j]))
                    same = rng.randint(-4, 4)
                    weights[u, o] = (same, same if rng.random() < 0.2 else rng.randint(-4, 4))
                assert sum_over_masks(com, weights) == _plain_sum_over_masks(com, weights), (
                    name,
                    com,
                    weights,
                )
                checked.add(name)
    assert len(checked) == 10


def _chain(k):
    # the closure of s1^2 s2^2 ... s_(k-1)^2: each component links the next
    return braid_closure([i for i in range(1, k) for _ in range(2)], k)


def test_unenumerable_sizes_take_their_closed_forms():
    # 2^40 masks could not be enumerated; forty free loops link nothing
    d = Diagram((), 40)
    assert g_tau(d) == LaurentA({0: (-2) ** 40})
    assert lmt_rhs(d) == LaurentA({0: (-2) ** 39})
    # chain 40 links each component with the next: its linking graph is a
    # path of 39 pairs, so both sums are products of one factor per pair
    d = _chain(40)
    assert d.num_components == 40
    degree = [0] * 40
    for u, o in d.pair_signs():
        degree[u] += 1
        degree[o] += 1
    assert sorted(degree) == [1, 1] + [2] * 38
    for mask in (0, 0b1011 << 20):
        counts = d.pair_signs(mask).values()
        assert len(counts) == 39 and all(abs(c) == 2 for c in counts)
        if mask == 0:
            self_w = d.writhe() - sum(counts)
            want = LaurentA({self_w: 2})
            for c in counts:
                want = want * LaurentA({c: 1, -c: 1})
            assert g_tau(d) == want
        want = LaurentA({0: -1})
        for c in counts:
            want = want * LaurentA({0: 1, -2 * c: 1})
        assert lmt_rhs(d, mask) == want, mask


def _plain_report(subject, claim, lhs, rhs):
    return VerificationReport(subject, claim, lhs, rhs, lhs == rhs)


def _plain_verify_all(d, subject):
    # every report of verify_all, each side from plain enumeration or from
    # the engine's own specialized_f and lambda_poly, each called afresh
    com = d.num_components
    comps = edge_walk.crossing_comps(d)
    signs = _plain_signs(d, 0)
    reports = [
        _plain_report(subject, "sublink-formula", specialized_f(d), _plain_lmt_rhs(d, 0)),
        _plain_report(
            subject,
            "orientation-sum-vs-engine",
            _plain_g_tau(d),
            -2 * lambda_poly(d).substitute_z(),
        ),
    ]
    for ci in range(len(d.crossings)):
        lhs = _plain_g_tau(d) + _plain_g_tau(d.switch(ci))
        rhs = NEG_A_PAIR * (_plain_g_tau(d.smooth(ci, "A")) + _plain_g_tau(d.smooth(ci, "B")))
        reports.append(_plain_report(subject, f"orientation-sum-skein[{ci}]", lhs, rhs))
    for s in range(1 << com):
        lhs = sum(_plain_signs(d, s)) - sum(signs)
        rhs = -4 * _plain_linking(comps, signs, s)
        reports.append(_plain_report(subject, f"reversal-writhe[{s:b}]", lhs, rhs))
    return reports


def _plain_linked(d):
    # the components in a pair whose crossings have a nonzero signed count
    between = {}
    for (u, o), sign in zip(edge_walk.crossing_comps(d), _plain_signs(d, 0)):
        if u != o:
            key = (min(u, o), max(u, o))
            between[key] = between.get(key, 0) + sign
    linked = 0
    for (u, o), c in between.items():
        if c:
            linked |= 1 << u | 1 << o
    return linked


def test_verify_all_matches_reports_rebuilt_plainly():
    # corpus entries, hopf + T(2,4) with 0-3 free loops, seeded closures,
    # both one-crossing curls, whose smoothings close loops on the crossing
    # alone, with and without free loops, and split unions: verify_all
    # shares one reversal report among the sublinks with the same linked
    # part, so some unions put unlinked components between linked ones
    # and some pair the Hopf link with links whose pairs cross with C = 0
    subjects = [(e.name, e.diagram()) for e in CORPUS]
    for loops in range(4):
        d = braid_closure([-1, -1, -3, -3, -3, -3], 4 + loops)
        subjects.append((f"hopf+t24+{loops}", d))
    rng = random.Random(72)
    subjects += [(f"random[{i}]", random_closure(rng, 8)) for i in range(40)]
    for curl in ("Xr 1 1 2 2\n", "Xl 1 2 2 1\n"):
        for header in ("", "loops 2\n"):
            text = header + curl
            subjects.append((text.replace("\n", " ").strip(), parse_pd(text)))
    union = distant_union(random_closure(rng, 5), random_closure(rng, 5))
    subjects.append(("union", union))
    unions = [
        ("trefoil_right", "hopf_pos"),
        ("hopf_pos", "trefoil_left", "hopf_neg"),
        ("torus_2_4", "unlink2", "unknot_kink_neg", "hopf_pos"),
        ("whitehead", "hopf_pos"),
        ("hopf_neg", "borromean"),
    ]
    for names in unions:
        d = get(names[0]).diagram()
        for name in names[1:]:
            d = distant_union(d, get(name).diagram())
        subjects.append(("+".join(names), d))
    for i in range(4):
        d = distant_union(random_closure(rng, 4), get("figure_eight").diagram())
        subjects.append((f"union[{i}]", distant_union(d, random_closure(rng, 4))))
    gapped = [name for name, d in subjects if (m := _plain_linked(d)) & (m + 1)]
    assert "hopf_pos+trefoil_left+hopf_neg" in gapped and "whitehead+hopf_pos" in gapped
    for name, d in subjects:
        reports = verify_all(d, subject=name)
        plain = _plain_verify_all(d, name)
        assert reports == plain, name
        # the text verify prints for each side
        assert [(str(r.lhs), str(r.rhs)) for r in reports] == [
            (str(r.lhs), str(r.rhs)) for r in plain
        ], name
        assert all(r.passed for r in reports), name
