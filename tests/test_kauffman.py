import itertools
import random
import time
from collections import Counter

import edge_walk
import pytest
from moves import (
    add_kink,
    all_pokes,
    distant_union,
    first_poke,
    insert_cancelling_pair,
    invert_a,
    mirror,
)

from lmtkauffman import diagram as diagram_module
from lmtkauffman import kauffman
from lmtkauffman.braid import braid_closure, random_closure, random_word
from lmtkauffman.corpus import CORPUS, get
from lmtkauffman.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    InvalidDiagramError,
    _reassemble,
    _switched,
    parse_pd,
    to_pd_text,
)
from lmtkauffman.kauffman import (
    DELTA,
    EmptyDiagramError,
    f_oriented,
    first_defect,
    lambda_poly,
    specialized_f,
)
from lmtkauffman.laurent import LaurentA, LaurentAZ

Z = LaurentAZ.monomial(1, 0, 1)


def test_circle_is_one():
    assert lambda_poly(parse_pd("loops 1\n")) == LaurentAZ.one()


def test_split_circles_multiply_by_delta():
    for k in range(1, 5):
        assert lambda_poly(Diagram((), k)) == DELTA ** (k - 1)


def test_closed_form_of_curls_and_circles():
    power = LaurentAZ.one()
    for loops in range(30):
        for k in (-3, 0, 2):
            assert kauffman._a_delta(k, loops) == LaurentAZ.monomial(1, k) * power
        power = power * DELTA


def test_empty_diagram_rejected():
    with pytest.raises(EmptyDiagramError):
        lambda_poly(Diagram((), 0))


def test_skein_tree_deeper_than_the_stack_is_refused():
    # the closure of (s1 s2^-1)^50 recurses deeper than the interpreter's
    # stack: a DiagramError naming the cause, not a RecursionError
    d = braid_closure([1, -2] * 50, 3)
    start = time.perf_counter()
    with pytest.raises(DiagramError, match="100 crossings runs deeper than the"):
        lambda_poly(d)
    assert time.perf_counter() - start < 2


def test_single_curls():
    assert lambda_poly(parse_pd("Xr 1 1 2 2\n")) == LaurentAZ.monomial(1, 1)
    assert lambda_poly(parse_pd("Xl 1 2 2 1\n")) == LaurentAZ.monomial(1, -1)


def test_clasp_value_frozen():
    # switching one clasp crossing lets the components pull apart, so the
    # switched diagram is worth delta; the smoothings are the two single
    # curls (a and a^-1); the relation then forces this value
    expected = LaurentAZ({(1, 1): 1, (-1, 1): 1, (0, 0): 1, (1, -1): -1, (-1, -1): -1})
    assert lambda_poly(get("hopf_pos").diagram()) == expected


def test_trefoil_value_frozen():
    # from the clasp value via one switch: the switched diagram reduces
    # to a single positive curl (a), one smoothing is the clasp, and the
    # other is a circle with two negative curls (a^-2)
    expected = LaurentAZ(
        {(1, 2): 1, (-1, 2): 1, (0, 1): 1, (-2, 1): 1, (1, 0): -2, (-1, 0): -1}
    )
    assert lambda_poly(get("trefoil_right").diagram()) == expected


def test_skein_relation_at_every_crossing():
    rng = random.Random(20)
    diagrams = [get(n).diagram() for n in ("hopf_pos", "trefoil_left", "figure_eight")]
    diagrams += [random_closure(rng, 6) for _ in range(25)]
    for d in diagrams:
        lam = lambda_poly(d)
        for ci in range(len(d.crossings)):
            lhs = lam + lambda_poly(d.switch(ci))
            rhs = Z * (lambda_poly(d.smooth(ci, "A")) + lambda_poly(d.smooth(ci, "B")))
            assert lhs == rhs


def test_mirror_inverts_a():
    rng = random.Random(21)
    for _ in range(30):
        d = random_closure(rng, 6)
        assert lambda_poly(mirror(d)) == invert_a(lambda_poly(d))


def test_distant_union_multiplies_with_delta():
    rng = random.Random(22)
    for _ in range(15):
        d1 = random_closure(rng, 5)
        d2 = random_closure(rng, 5)
        u = distant_union(d1, d2)
        assert lambda_poly(u) == DELTA * lambda_poly(d1) * lambda_poly(d2)


def test_amphichiral_diagram_is_a_palindrome_in_a():
    lam = lambda_poly(get("figure_eight").diagram())
    assert lam == invert_a(lam)


def test_component_order_and_basepoints_do_not_matter():
    # every component order, each with random basepoints, reached by
    # numbering the edges along that traversal
    rng = random.Random(23)
    moved = 0
    for _ in range(40):
        d = random_closure(rng, 6)
        comps = edge_walk.components(d)
        lam = lambda_poly(d)
        for perm in itertools.permutations(range(len(comps))):
            r = edge_walk.renumbered(d, perm, [rng.choice(c) for c in comps])
            assert lambda_poly(r) == lam
            moved += first_defect(r._strands) != first_defect(d._strands)
    # the renumbered diagrams are expanded from other defects
    assert moved > 20


def test_shared_memo_is_transparent():
    memo = {}
    d1 = get("trefoil_right").diagram()
    d2 = get("torus_2_4").diagram()
    a1 = lambda_poly(d1, memo=memo)
    a2 = lambda_poly(d2, memo=memo)
    assert a1 == lambda_poly(d1)
    assert a2 == lambda_poly(d2)
    assert memo


def test_first_defect_depends_on_basepoint():
    assert first_defect(parse_pd("loops 1\n")._strands) is None
    k = parse_pd("Xr 1 1 2 2\n")
    # from edge 1 the curl is met under first; numbered from the other
    # edge, the same curl is met over first
    assert first_defect(k._strands) == 0
    assert parse_pd("Xr 2 2 1 1\n") == edge_walk.renumbered(k, None, (2,))
    assert first_defect(parse_pd("Xr 2 2 1 1\n")._strands) is None


def test_oriented_rescaling():
    d = get("hopf_pos").diagram()
    assert f_oriented(d) == LaurentAZ.monomial(1, -2) * lambda_poly(d)
    # reversing one component changes writhe, hence the rescaling
    assert f_oriented(d, 0b01) == LaurentAZ.monomial(1, 2) * lambda_poly(d)


def test_specialized_f_on_knots_is_one():
    for name in ("unknot", "unknot_kink_pos", "trefoil_left", "figure_eight", "granny_sum"):
        assert specialized_f(get(name).diagram()) == LaurentA.one()


def test_specialized_f_orientation_dependence():
    d = get("hopf_pos").diagram()
    assert specialized_f(d) == LaurentA({0: -1, -4: -1})
    assert specialized_f(d, 0b01) == LaurentA({0: -1, 4: -1})


def _plain_lambda(d):
    # the defining recursion with no memo and none of the engine's rules
    # (split circles, curls, R2 bigons): the reference the engine must
    # agree with
    x = first_defect(d._strands)
    if x is None:
        return LaurentAZ.monomial(1, d._sign_table[0]) * DELTA ** (d.num_components - 1)
    return -_plain_lambda(d.switch(x)) + Z * (
        _plain_lambda(d.smooth(x, "A")) + _plain_lambda(d.smooth(x, "B"))
    )


def _has_curl(d):
    # an edge joining slot s of a crossing to its slot s + 1
    return any(y == x - (x & 3) + (x + 1) % 4 for x, y in enumerate(d._mate))


def _nested_curls(d, signs):
    # each curl after the first goes on the loop edge of the one before,
    # so only removing the innermost makes the next one a curl
    for positive in signs:
        d = add_kink(d, 2 * len(d.crossings), positive)
    return d


def _node(d):
    # the skein engine's form of a diagram: its end array and strands
    return d._mate, d._strands


def _cascading_inputs():
    # inputs on which one reduction exposes the next
    out = []
    # curls nested inside curls
    out += [_nested_curls(get("hopf_pos").diagram(), [True, False, True])]
    out += [_nested_curls(get("trefoil_left").diagram(), [False, False, True, True])]
    out += [_nested_curls(add_kink(Diagram((), 1)), [False, True, True, False])]
    # a bigon of alternating levels that a switch of its crossing makes
    # an R2 bigon: the two letters of sigma_i^2
    for word in ([1, 1, 1, 2, 1, 2], [1, 1, 2, 1, 2], [1, 1, 1, -2, -2]):
        d = braid_closure(word, 3)
        x = first_defect(d._strands)
        node = _node(d)
        assert kauffman._reduce(node, {}, range(len(d.crossings))) == (0, 0, node)
        switched = kauffman._reduce(_switched(*node, x), {}, (x,))[2]
        assert switched is None or len(switched[0]) < 4 * (len(d.crossings) - 1)
        out.append(d)
    # a strand pushed across a curl's loop: the curl comes back only once
    # the R2 bigon the push made is removed
    for name in ("hopf_pos", "trefoil_right"):
        kinked = add_kink(get(name).diagram(), 1, positive=name == "hopf_pos")
        pokes = [p for p in all_pokes(kinked) if not _has_curl(p)][:3]
        for p in pokes:
            assert kauffman._reduce(_node(p), {}, range(len(p.crossings)))[0] != 0
        out += pokes
    assert len(out) == 12
    # all of these beside free loops
    out += [distant_union(d, Diagram((), k)) for d, k in zip(out, itertools.cycle((1, 2)))]
    return out


def _chain(k):
    # sigma1^2 sigma2^2 ... sigma_(k-1)^2 closed: k circles, each linked
    # to the next, a connected sum of k - 1 Hopf links
    return braid_closure([i for j in range(1, k) for i in (j, j)], k)


def test_engine_matches_plain_recursion():
    rng = random.Random(25)
    diagrams = [e.diagram() for e in CORPUS]
    diagrams += [random_closure(rng, 7) for _ in range(40)]
    # inputs rich in R2 bigons and split circles
    for _ in range(12):
        word, strands = random_word(rng, 6)
        pos = rng.randint(0, len(word))
        index = rng.randint(1, strands - 1)
        sign = rng.choice((1, -1))
        diagrams.append(braid_closure(insert_cancelling_pair(word, pos, index, sign), strands))
    diagrams.append(_chain(4))
    diagrams.append(braid_closure([1, -2] * 3, 3))
    diagrams.append(braid_closure([1, -1], 2))
    diagrams += [
        distant_union(e.diagram(), Diagram((), k))
        for e, k in zip(CORPUS, itertools.cycle((1, 2, 3)))
        if len(e.diagram().crossings) <= 6
    ]
    for name in ("hopf_pos", "trefoil_right"):
        diagrams += all_pokes(get(name).diagram())
    diagrams += _cascading_inputs()
    for d in diagrams:
        assert len(d.crossings) <= 8
        assert lambda_poly(d) == _plain_lambda(d), d


def test_chain_is_a_power_of_the_hopf_value():
    # lambda is multiplicative under connected sum
    hopf = lambda_poly(_chain(2))
    assert lambda_poly(_chain(10)) == hopf**9


def test_large_closures_take_few_switches(monkeypatch):
    # the split-circle and R2 rules keep the skein tree small; the bound
    # counts the engine's switch children, not seconds, so it does not
    # depend on the machine
    calls = []
    switched = kauffman._switched

    def counted(mate, strands, x):
        calls.append(x)
        return switched(mate, strands, x)

    monkeypatch.setattr(kauffman, "_switched", counted)
    for d in (_chain(10), braid_closure([1, -2] * 8, 3)):
        calls.clear()
        lambda_poly(d)
        assert 0 < len(calls) <= 5000, len(calls)


# The six 3-strand closures of the benchmark's compute-deep workload, with
# the nodes each expands
_COMPUTE_DEEP = {
    "knot6a": ((1, 1, -2, 1, 2, 1), 2),
    "knot6b": ((-1, -1, 2, 1, -2, -2), 2),
    "link2_5a": ((1, -2, -1, -2, -2), 1),
    "link2_5b": ((-1, -1, 2, 2, -1), 3),
    "link3_6a": ((-2, 1, 2, -1, -2, -1), 2),
    "link3_6b": ((-1, 2, 1, 2, 1, -2), 7),
}


def test_skein_tree_sizes_are_pinned():
    # the nodes one call expands, read as len(memo): a change to what the
    # rules remove, to the defect order or to the memo key moves them
    trees = {
        "T(2,200)": (braid_closure([1] * 200, 2), 199),
        "chain 16": (_chain(16), 817),
        "(s1 s2^-1 s3)^5": (braid_closure([1, -2, 3] * 5, 4), 3705),
    }
    for name, (word, nodes) in _COMPUTE_DEEP.items():
        trees[name] = parse_pd(to_pd_text(braid_closure(list(word), 3))), nodes
    for name, (d, nodes) in trees.items():
        memo = {}
        lambda_poly(d, memo=memo)
        assert len(memo) == nodes, name


def test_renumber_matches_the_two_pass_walk(monkeypatch):
    # every node the engine and Diagram.smooth renumber equals the one
    # the plain walk-then-number reference builds, so the memo keys agree
    renumber = diagram_module._renumber
    calls = []

    def checked(handles, mate):
        handles = list(handles)
        got = renumber(handles, mate)
        assert got == edge_walk.renumber_node(handles, mate)
        calls.append(got)
        return got

    monkeypatch.setattr(kauffman, "_renumber", checked)
    monkeypatch.setattr(diagram_module, "_renumber", checked)
    rng = random.Random(28)
    for d in [e.diagram() for e in CORPUS] + [random_closure(rng, 12) for _ in range(40)]:
        lambda_poly(d)
    assert len(calls) > 50, len(calls)
    calls.clear()
    smoothings = 0
    for e in CORPUS:
        d = e.diagram()
        for ci, which in itertools.product(range(len(d.crossings)), "AB"):
            d.smooth(ci, which)
            smoothings += 1
    assert len(calls) == smoothings > 50


# The Kauffman bracket <D> = A<smooth A> + A^-1<smooth B>, with a split
# circle worth -A^2 - A^-2 and <O> = 1, is lambda at a = -A^3,
# z = A + A^-1 (Kauffman, "An invariant of regular isotopy", Trans. AMS
# 318, 1990): the bracket rule at a crossing and at its switch adds up to
# the skein rule, a positive curl is worth -A^3, and (a + a^-1) z^-1 - 1
# becomes -A^2 - A^-2.  The state sum below shares nothing with the engine.
_A_PAIR = LaurentA({1: 1, -1: 1})
_BRACKET_DELTA = LaurentA({2: -1, -2: -1})


def _at_bracket(lam):
    # (N, (A + A^-1)^N * lam(a = -A^3, z = A + A^-1)), N the deepest z^-1
    # power, so that every term is a Laurent polynomial in A
    n = max(0, -min(j for _, j in lam.terms))
    total = LaurentA.zero()
    for (i, j), c in lam.terms.items():
        total += LaurentA({3 * i: (-1) ** i * c}) * _A_PAIR ** (j + n)
    return n, total


def _state_sum(d, joins_a=((0, 1), (2, 3)), joins_b=((0, 3), (1, 2))):
    # sum over the 2^n states of A^(#A - #B) * delta^(loops - 1), where a
    # state joins the record slots of each crossing as joins_a or joins_b
    # and its loops are counted by union-find over the edge ids
    n = len(d.crossings)
    states = Counter()
    for state in range(1 << n):
        root = list(range(2 * n + 1))

        def find(e):
            while root[e] != e:
                root[e] = root[root[e]]
                e = root[e]
            return e

        for h, c in enumerate(d.crossings):
            for s, t in joins_a if state >> h & 1 else joins_b:
                root[find(c.edges[s])] = find(c.edges[t])
        loops = d.free_loops + sum(find(e) == e for e in range(1, 2 * n + 1))
        states[2 * bin(state).count("1") - n, loops] += 1
    return sum(
        (LaurentA({k: m}) * _BRACKET_DELTA ** (loops - 1) for (k, loops), m in states.items()),
        LaurentA.zero(),
    )


def test_bracket_oracle():
    rng = random.Random(5)
    diagrams = [e.diagram() for e in CORPUS] + [random_closure(rng, 9) for _ in range(60)]
    swapped_holds = 0
    for d in diagrams:
        n, lhs = _at_bracket(lambda_poly(d))
        assert lhs == _A_PAIR**n * _state_sum(d), d
        swapped = _state_sum(d, joins_a=((0, 3), (1, 2)), joins_b=((0, 1), (2, 3)))
        swapped_holds += lhs == _A_PAIR**n * swapped
    # the oracle tells the two smoothings apart
    assert swapped_holds < len(diagrams) // 2, swapped_holds


def _torus_2_values():
    # lambda of the 2-strand closure of the word 1^n, n = 0, 1, ..., as
    # {(a_exp, z_exp): coeff}, from the skein rule at one crossing: its
    # switch cancels a neighbour, leaving 1^(n-2); one smoothing leaves
    # 1^(n-1), and the other turns the n - 1 other crossings into curls
    # on one circle, a^(n-1).  So
    # lambda_n = z lambda_(n-1) + z a^(n-1) - lambda_(n-2)
    prev, cur = dict(DELTA.terms), {(-1, 0): 1}
    yield prev
    for n in itertools.count(2):
        yield cur
        nxt = {(i, j + 1): c for (i, j), c in cur.items()}
        nxt[n - 1, 1] = nxt.get((n - 1, 1), 0) + 1
        for k, c in prev.items():
            nxt[k] = nxt.get(k, 0) - c
        prev, cur = cur, {k: c for k, c in nxt.items() if c}


def test_torus_2_recurrence_oracle():
    # an oracle that needs no engine: the recurrence on
    # plain dicts; the mirror word (-1)^n swaps a and a^-1
    largest = 140
    for n, want in zip(range(largest + 1), _torus_2_values()):
        if 24 < n < largest:
            continue
        mirrored = {(-i, j): c for (i, j), c in want.items()}
        assert lambda_poly(braid_closure([1] * n, 2)).terms == want, n
        assert lambda_poly(braid_closure([-1] * n, 2)).terms == mirrored, n


def test_curls_strip_to_a_power_of_a():
    rng = random.Random(26)
    signs = [True] * 6 + [False] * 4
    rng.shuffle(signs)
    net = sum(1 if s else -1 for s in signs)
    d = get("trefoil_right").diagram()
    base = lambda_poly(d)
    circle = Diagram((), 1)
    for positive in signs:
        d = add_kink(d, rng.randint(1, 2 * len(d.crossings)), positive)
        if circle.free_loops:
            circle = add_kink(circle, None, positive)
        else:
            circle = add_kink(circle, rng.randint(1, 2 * len(circle.crossings)), positive)
    assert len(d.crossings) == 13 and len(circle.crossings) == 10
    assert lambda_poly(d) == LaurentAZ.monomial(1, net) * base
    # the curls come off before the recursion, so the circle expands no node
    memo = {}
    assert lambda_poly(circle, memo=memo) == LaurentAZ.monomial(1, net)
    assert memo == {}


def test_odd_crossings_rejected_at_engine_entry():
    # built directly, so parse_pd never sees it: two components crossing
    # once are refused by the constructor, so no engine entry gets them
    with pytest.raises(InvalidDiagramError, match="odd number"):
        Diagram((Crossing((1, 2, 1, 2), "r"),))


def test_skein_recursion_validates_no_diagram(monkeypatch):
    # the recursion runs on end arrays: it neither validates a diagram nor
    # builds a trusted one; only the boundary runs Diagram's checks
    d = get("borromean").diagram()
    assert len(d.crossings) == 6
    # a poke adds an R2 bigon, the loops split circles
    poked = distant_union(first_poke(d), Diagram((), 2))
    calls = []
    validate = Diagram.__post_init__
    trusted = diagram_module._trusted

    def counted(self):
        calls.append(self)
        validate(self)

    def counted_trusted(*args):
        calls.append(args)
        return trusted(*args)

    monkeypatch.setattr(Diagram, "__post_init__", counted)
    monkeypatch.setattr(diagram_module, "_trusted", counted_trusted)
    lambda_poly(d)
    lambda_poly(poked)
    assert calls == []
    Diagram(d.crossings, d.free_loops)
    assert len(calls) == 1
    d.switch(0)
    assert len(calls) == 2


def test_memo_keys_are_sound():
    # every key is the end array of a diagram, rebuilt from it alone: it
    # passes the constructor's checks and has the value stored under it
    rng = random.Random(27)
    memo = {}
    for _ in range(30):
        lambda_poly(random_closure(rng, 12), memo=memo)
    assert len(memo) > 50
    for key, val in memo.items():
        r = _reassemble(range(len(key) // 4), key, 0)
        checked = Diagram(r.crossings, r.free_loops)
        assert lambda_poly(checked) == val
