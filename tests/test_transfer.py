import random
from collections import Counter

import pytest
from moves import distant_union, invert_a, mirror

from lmtkauffman import cli
from lmtkauffman import diagram as diagram_module
from lmtkauffman import laurent as laurent_module
from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import Diagram, InvalidDiagramError, parse_pd, to_pd_text
from lmtkauffman.kauffman import lambda_poly
from lmtkauffman.laurent import LaurentA
from lmtkauffman.lmt import verify_all
from lmtkauffman.transfer import (
    _smoothed_sum,
    check_skein_identity,
    check_specialization_identity,
    g_tau,
)


def test_g_tau_small_cases():
    assert g_tau(parse_pd("loops 1\n")) == LaurentA({0: -2})
    assert g_tau(Diagram((), 2)) == LaurentA({0: 4})
    assert g_tau(Diagram((), 3)) == LaurentA({0: -8})
    assert g_tau(parse_pd("Xr 1 1 2 2\n")) == LaurentA({1: -2})
    assert g_tau(get("hopf_pos").diagram()) == LaurentA({2: 2, -2: 2})


def test_g_tau_total_weight_counts_orientations():
    rng = random.Random(50)
    for e in CORPUS:
        d = e.diagram()
        assert sum(map(abs, g_tau(d).terms.values())) == 2 ** d.num_components
    for _ in range(30):
        d = random_closure(rng, 7)
        assert sum(map(abs, g_tau(d).terms.values())) == 2 ** d.num_components


def test_g_tau_exponent_parity_is_constant():
    # reversing components shifts the writhe by multiples of 4
    rng = random.Random(51)
    for _ in range(30):
        d = random_closure(rng, 7)
        exps = sorted(g_tau(d).terms)
        assert all((e - exps[0]) % 4 == 0 for e in exps)


def test_g_tau_mirror():
    rng = random.Random(52)
    for _ in range(30):
        d = random_closure(rng, 7)
        assert g_tau(mirror(d)) == invert_a(g_tau(d))


def test_g_tau_multiplies_over_distant_union():
    rng = random.Random(53)
    for _ in range(15):
        d1 = random_closure(rng, 5)
        d2 = random_closure(rng, 5)
        assert g_tau(distant_union(d1, d2)) == g_tau(d1) * g_tau(d2)


def test_skein_identity_everywhere_in_corpus():
    for e in CORPUS:
        d = e.diagram()
        for ci in range(len(d.crossings)):
            r = check_skein_identity(d, ci, subject=e.name)
            assert r.passed, (e.name, ci, r.lhs, r.rhs)


def test_skein_identity_on_random_closures():
    rng = random.Random(54)
    for i in range(40):
        d = random_closure(rng, 7)
        for ci in range(len(d.crossings)):
            assert check_skein_identity(d, ci).passed, (i, ci)


def test_smoothed_sums_match_the_smoothed_diagrams():
    # each smoothing's orientation sum, walked in the parent's end array,
    # against the smoothed diagram built and summed plainly, at
    # self-crossings (curls among them, and crossings that are a whole
    # component) and at crossings between two components
    rng = random.Random(57)
    closures = [braid_closure(*random_word(rng, 12, max_strands=7)) for _ in range(320)]
    curls = [parse_pd(t) for t in ("Xr 1 1 2 2\n", "Xl 1 2 2 1\n")]
    curls += [Diagram(c.crossings, 2) for c in curls]
    diagrams = [e.diagram() for e in CORPUS] + closures + curls
    diagrams += [distant_union(a, b) for a, b in zip(closures[:40], closures[40:80])]
    diagrams += [distant_union(c, b) for c in curls for b in closures[:5]]
    kinds = Counter()
    for d in diagrams:
        for ci in range(len(d.crossings)):
            u, o = d._crossing_comps[ci]
            kinds["self" if u == o else "between"] += 1
            for which in "AB":
                want = g_tau(d.smooth(ci, which))
                assert LaurentA(_smoothed_sum(d, ci, which)) == want, (to_pd_text(d), ci, which)
    assert min(kinds.values()) > 1000, kinds
    assert any(d.free_loops and d.crossings for d in closures)


def test_skein_check_reads_the_smoothings_apart_from_the_sign_table(monkeypatch):
    # a diagram sign table whose self-writhe is off by two fails every
    # orientation-sum skein report: the smoothings are walked afresh, so
    # they do not inherit the fault
    sign_table_of = diagram_module._sign_table_of

    def corrupted(strands, ends):
        self_w, pairs = sign_table_of(strands, ends)
        return self_w + 2, pairs

    monkeypatch.setattr(diagram_module, "_sign_table_of", corrupted)
    entries = 0
    for e in CORPUS:
        d = e.diagram()
        if not d.crossings:
            continue
        entries += 1
        reports = [
            r for r in verify_all(d, subject=e.name)
            if r.claim.startswith("orientation-sum-skein[")
        ]
        assert len(reports) == len(d.crossings), e.name
        assert not any(r.passed for r in reports), e.name
    assert entries == 13


def test_skein_identity_refuses_crossings_the_diagram_lacks():
    # an index of -1 must not read the last crossing
    hopf = get("hopf_pos").diagram()
    for d, ci in ((hopf, -1), (hopf, len(hopf.crossings)), (Diagram((), 2), 0)):
        for g in (None, g_tau(d)):
            with pytest.raises(InvalidDiagramError, match=f"^crossing not found: {ci}$"):
                check_skein_identity(d, ci, g=g)


def test_specialization_identity_on_corpus():
    for e in CORPUS:
        r = check_specialization_identity(e.diagram(), subject=e.name)
        assert r.passed, (e.name, r.lhs, r.rhs)


def test_specialization_identity_on_random_closures():
    rng = random.Random(55)
    for i in range(40):
        assert check_specialization_identity(random_closure(rng, 7)).passed, i


def test_specialization_identity_shares_memo():
    memo = {}
    d = get("granny_sum").diagram()
    lam = lambda_poly(d, memo=memo).substitute_z()
    r = check_specialization_identity(d, lam=lam)
    assert r.passed and memo
    # the cached values must match a fresh run
    assert lambda_poly(d) == lambda_poly(d, memo=memo)


def test_report_fields(monkeypatch, capsys):
    r = check_skein_identity(get("hopf_pos").diagram(), 0, subject="clasp")
    assert r.subject == "clasp"
    assert r.claim == "orientation-sum-skein[0]"
    assert r.passed is (r.lhs == r.rhs)
    # the sides are the compared values, rendered as text only when printed
    for e in CORPUS:
        for r in verify_all(e.diagram(), subject=e.name):
            want = int if r.claim.startswith("reversal-writhe[") else LaurentA
            assert type(r.lhs) is want and type(r.rhs) is want, (e.name, r.claim)
    calls = []
    format_poly = laurent_module.format_poly
    monkeypatch.setattr(laurent_module, "format_poly", lambda p: calls.append(p) or format_poly(p))
    assert str(LaurentA({1: 1})) == "a" and len(calls) == 1
    calls.clear()
    assert cli.main(["--porcelain", "verify", "--corpus"]) == 0
    assert capsys.readouterr().out.endswith("result=pass\n")
    assert calls == []


def test_values_stay_canonical():
    # equal to a rebuild from their own terms, hash included, and no zero
    # coefficient: a sum that kept a cancelled term would compare unequal
    def canonical(p):
        assert p == type(p)(p.terms) and hash(p) == hash(type(p)(p.terms)), p
        assert 0 not in p.terms.values(), p

    rng = random.Random(56)
    diagrams = [e.diagram() for e in CORPUS] + [random_closure(rng, 7) for _ in range(40)]
    for d in diagrams:
        canonical(lambda_poly(d))
        for r in verify_all(d):
            if not r.claim.startswith("reversal-writhe["):
                canonical(r.lhs)
                canonical(r.rhs)
