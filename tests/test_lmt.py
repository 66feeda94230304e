import pickle
import random

import pytest
from moves import distant_union, random_knot_closure

from lmtkauffman import diagram as diagram_module
from lmtkauffman import kauffman, lmt, transfer
from lmtkauffman.braid import braid_closure, random_closure
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    InvalidDiagramError,
    parse_pd,
)
from lmtkauffman.kauffman import EmptyDiagramError, specialized_f
from lmtkauffman.laurent import LaurentA, LaurentAZ
from lmtkauffman.lmt import (
    MAX_VERIFY_COMPONENTS,
    check_reversal_writhe,
    lmt_rhs,
    verify_all,
    verify_sublink_formula,
)
from lmtkauffman.transfer import VerificationReport, g_tau

ONE = LaurentA.one()


def test_lmt_rhs_knots_are_one():
    for name in ("unknot", "trefoil_right", "figure_eight", "unknot_kink_pos"):
        assert lmt_rhs(get(name).diagram()) == ONE


def test_lmt_rhs_frozen_values():
    assert lmt_rhs(get("hopf_pos").diagram()) == LaurentA({0: -1, -4: -1})
    assert lmt_rhs(get("hopf_neg").diagram()) == LaurentA({0: -1, 4: -1})
    assert lmt_rhs(get("torus_2_4").diagram()) == LaurentA({0: -1, -8: -1})
    # linking number zero everywhere collapses the sum to a constant
    assert lmt_rhs(get("whitehead").diagram()) == LaurentA({0: -2})
    assert lmt_rhs(get("borromean").diagram()) == LaurentA({0: 4})


def test_lmt_rhs_depends_only_on_linking():
    # the two-component unlink and the whitehead link agree on the rhs
    assert lmt_rhs(get("unlink2").diagram()) == lmt_rhs(get("whitehead").diagram())


def test_lmt_rhs_mask_flip():
    d = get("hopf_pos").diagram()
    # reversing one component negates the linking numbers
    assert lmt_rhs(d, 0b01) == LaurentA({0: -1, 4: -1})
    assert lmt_rhs(d, 0b11) == lmt_rhs(d, 0b00)


def test_reversal_writhe_exhaustive_on_corpus():
    for e in CORPUS:
        d = e.diagram()
        for mask in range(1 << d.num_components):
            for sub in range(1 << d.num_components):
                r = check_reversal_writhe(d, mask, sub, subject=e.name)
                assert r.passed, (e.name, mask, sub)


def test_reversal_writhe_random():
    rng = random.Random(60)
    for _ in range(50):
        d = random_closure(rng, 8)
        com = d.num_components
        mask = rng.randrange(1 << com)
        sub = rng.randrange(1 << com)
        assert check_reversal_writhe(d, mask, sub).passed


def test_sublink_formula_on_corpus():
    for e in CORPUS:
        r = verify_sublink_formula(e.diagram(), subject=e.name)
        assert r.passed, (e.name, r.lhs, r.rhs)


def test_sublink_formula_all_masks():
    for name in ("hopf_pos", "whitehead", "borromean", "union_trefoil_unknot"):
        d = get(name).diagram()
        for mask in range(1 << d.num_components):
            assert verify_sublink_formula(d, mask).passed, (name, mask)


def test_sublink_formula_random_closures():
    rng = random.Random(61)
    for i in range(30):
        assert verify_sublink_formula(random_closure(rng, 7)).passed, i


def test_random_knots_specialize_to_one():
    rng = random.Random(62)
    for _ in range(15):
        d = random_knot_closure(rng, 7)
        assert specialized_f(d) == ONE
        assert lmt_rhs(d) == ONE


def test_union_multiplies_up_to_the_normalization():
    rng = random.Random(63)
    for _ in range(10):
        d1 = random_closure(rng, 5)
        d2 = random_closure(rng, 5)
        u = distant_union(d1, d2)
        assert lmt_rhs(u) == -2 * lmt_rhs(d1) * lmt_rhs(d2)
        assert specialized_f(u) == -2 * specialized_f(d1) * specialized_f(d2)


def test_verify_all_corpus_passes():
    for e in CORPUS:
        for r in verify_all(e.diagram(), subject=e.name):
            assert r.passed, (e.name, r.claim)


def test_verify_all_report_shape():
    d = get("hopf_pos").diagram()
    reports = verify_all(d, subject="clasp")
    claims = [r.claim for r in reports]
    assert claims[0] == "sublink-formula"
    assert claims[1] == "orientation-sum-vs-engine"
    assert sum(c.startswith("orientation-sum-skein[") for c in claims) == 2
    assert sum(c.startswith("reversal-writhe[") for c in claims) == 4
    assert all(r.subject == "clasp" for r in reports)


def test_verify_all_computes_the_base_writhe_once(monkeypatch):
    # the base writhe once for all reversal checks and once for the
    # specialized polynomial, then one writhe and one linking number per
    # reversed linked part: the 2^2 sublinks of the Hopf link, however
    # many free loops sit beside it
    d = distant_union(get("hopf_pos").diagram(), Diagram((), 4))
    masks = []
    submasks = []
    writhe, linking_number = Diagram.writhe, Diagram.linking_number

    def counted_writhe(self, mask=0):
        masks.append(mask)
        return writhe(self, mask)

    def counted_linking(self, mask, submask):
        submasks.append(submask)
        return linking_number(self, mask, submask)

    monkeypatch.setattr(Diagram, "writhe", counted_writhe)
    monkeypatch.setattr(Diagram, "linking_number", counted_linking)
    reports = verify_all(d)
    assert all(r.passed for r in reports)
    assert sum(r.claim.startswith("reversal-writhe[") for r in reports) == 1 << 6
    assert len(masks) == 2 + (1 << 2)
    assert sorted(submasks) == [0b00, 0b01, 0b10, 0b11]


def test_verify_all_specializes_lambda_once(monkeypatch):
    # the sublink formula and the specialization identity share one
    # lambda(z = -a - a^-1)
    d = distant_union(get("hopf_pos").diagram(), get("torus_2_4").diagram())
    calls = {"lambda_poly": 0, "substitute_z": 0}
    lambda_poly = kauffman.lambda_poly
    substitute_z = LaurentAZ.substitute_z

    def counted_lambda(*args, **kwargs):
        calls["lambda_poly"] += 1
        return lambda_poly(*args, **kwargs)

    def counted_substitute(self):
        calls["substitute_z"] += 1
        return substitute_z(self)

    for module in (kauffman, lmt, transfer):
        monkeypatch.setattr(module, "lambda_poly", counted_lambda)
    monkeypatch.setattr(LaurentAZ, "substitute_z", counted_substitute)
    reports = verify_all(d)
    assert all(r.passed for r in reports)
    assert calls == {"lambda_poly": 1, "substitute_z": 1}


def test_bad_masks_are_named_in_the_refusal():
    # hopf + T(2,4) + 7 free circles: 11 components
    d = braid_closure([-1, -1, -3, -3, -3, -3], 11)
    assert d.num_components == 11
    with pytest.raises(
        InvalidDiagramError,
        match=r"^sublink mask 0b100000000000 addresses more than 11 components$",
    ):
        check_reversal_writhe(d, 0, 1 << 11)
    with pytest.raises(InvalidDiagramError, match=r"^sublink mask -0b1 is negative$"):
        check_reversal_writhe(d, 0, -1)
    with pytest.raises(InvalidDiagramError, match=r"^orientation mask -0b10 is negative$"):
        check_reversal_writhe(d, -2, 0)
    with pytest.raises(InvalidDiagramError, match=r"^orientation mask -0b1 is negative$"):
        d.writhe(-1)


def test_report_is_an_immutable_named_tuple():
    assert VerificationReport._fields == ("subject", "claim", "lhs", "rhs", "passed")
    r = verify_all(get("hopf_pos").diagram())[0]
    with pytest.raises(AttributeError):
        r.passed = False


def test_verify_all_at_the_component_limit():
    d = distant_union(get("hopf_pos").diagram(), Diagram((), MAX_VERIFY_COMPONENTS - 2))
    assert d.num_components == MAX_VERIFY_COMPONENTS
    reports = verify_all(d, subject="edge")
    assert len(reports) == 2 + 2 + (1 << MAX_VERIFY_COMPONENTS)
    claims = ["sublink-formula", "orientation-sum-vs-engine"]
    claims += ["orientation-sum-skein[0]", "orientation-sum-skein[1]"]
    claims += [f"reversal-writhe[{s:b}]" for s in range(1 << MAX_VERIFY_COMPONENTS)]
    assert [r.claim for r in reports] == claims
    assert all(r.passed and r.subject == "edge" for r in reports)


def _seeded_union(rng, com, first_linked):
    # a distant union of com components, from pieces that link (Hopf
    # links, T(2,4)) and pieces that link nothing (a curl, a trefoil, two
    # circles crossing twice with linking number 0), then free loops;
    # component numbers follow the pieces, the free loops last
    linked = [get("hopf_pos").diagram(), get("hopf_neg").diagram(), get("torus_2_4").diagram()]
    unlinked = [get("unknot_kink_pos").diagram(), get("trefoil_right").diagram()]
    unlinked.append(braid_closure([1, -1], 2))
    # an unlinked first piece has one component, so that com = 1 fits
    pieces = [rng.choice(linked if first_linked else unlinked[:2])]
    left = com - pieces[0].num_components
    while left and rng.random() < 0.8:
        piece = rng.choice(linked + unlinked)
        if piece.num_components <= left:
            pieces.append(piece)
            left -= piece.num_components
    d = Diagram((), left)
    for piece in reversed(pieces):
        d = distant_union(piece, d)
    assert d.num_components == com
    return d


def test_each_reversal_report_is_its_sublinks_own_check():
    # verify_all shares one side among the sublinks with the same linked
    # part; with unlinked components below, between and above the linked
    # ones, a side given to the wrong sublink shows here
    rng = random.Random(26)
    seen = set()
    for com in range(1, 13):
        for first_linked in (False, True)[:com]:
            d = _seeded_union(rng, com, first_linked)
            linked = 0
            for u, o, _ in d._sign_table[1]:
                linked |= 1 << u | 1 << o
            seen.add("0 linked" if linked & 1 else "0 unlinked")
            lo, hi = (linked & -linked).bit_length() - 1, linked.bit_length() - 1
            for i in range(com):
                if linked and not linked >> i & 1:
                    seen.add("below" if i < lo else "above" if i > hi else "between")
            reports = verify_all(d, subject=f"u{com}")
            assert all(type(r) is VerificationReport for r in reports)
            got = reports[2 + len(d.crossings) :]
            want = [
                VerificationReport(
                    f"u{com}", f"reversal-writhe[{s:b}]", *check_reversal_writhe(d, 0, s)[2:]
                )
                for s in range(1 << com)
            ]
            assert got == want
            for r, w in zip(got, want):
                assert r._asdict() == w._asdict()
                flipped = r._replace(passed=False)
                assert type(flipped) is VerificationReport and flipped == w._replace(passed=False)
                assert repr(r) == repr(w)
                back = pickle.loads(pickle.dumps(r))
                assert type(back) is VerificationReport and back == w
    assert seen == {"0 linked", "0 unlinked", "below", "between", "above"}


def test_verify_all_refuses_more_than_the_component_limit():
    d = Diagram((), MAX_VERIFY_COMPONENTS + 1)
    with pytest.raises(DiagramError, match="at most 16 components"):
        verify_all(d)


def test_empty_diagram_has_no_sums():
    with pytest.raises(EmptyDiagramError):
        lmt_rhs(Diagram(()))
    with pytest.raises(EmptyDiagramError):
        g_tau(Diagram(()))


def test_lmt_rhs_rejects_odd_crossings():
    # built directly, so parse_pd never sees it: two components crossing once
    with pytest.raises(InvalidDiagramError, match="odd number"):
        lmt_rhs(Diagram((Crossing((1, 2, 1, 2), "r"),)))


def test_corrupted_crossing_signs_fail_the_formula(monkeypatch):
    # force both crossing tags to count +1 and watch the checks go red;
    # diagrams with no crossings at all are the only survivors, and every
    # orientation-sum skein report of the others fails
    monkeypatch.setitem(diagram_module.TAG_SIGN, "l", 1)
    failures = 0
    crossingless = 0
    for e in CORPUS:
        d = e.diagram()
        if not d.crossings:
            crossingless += 1
            continue
        reports = verify_all(d, subject=e.name)
        if not all(r.passed for r in reports):
            failures += 1
        skein = [r for r in reports if r.claim.startswith("orientation-sum-skein[")]
        assert len(skein) == len(d.crossings), e.name
        assert not any(r.passed for r in skein), e.name
    assert crossingless == 3
    assert failures == len(CORPUS) - 3


def test_corruption_is_cleaned_up():
    # the monkeypatch in the previous test must not leak
    assert diagram_module.TAG_SIGN == {"r": 1, "l": -1}
