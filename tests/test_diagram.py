import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from splicezeta import diagram
from splicezeta.diagram import (
    Arrowhead,
    Diagram,
    Edge,
    cached_table,
    cone_vector,
    edge_determinant,
    edge_sides,
    ensure_cached,
    multiplicities,
    splice_data,
    valency,
    validate,
    validation_warnings,
)
from splicezeta.errors import (
    CacheMismatch,
    DecoratedArrowPresent,
    DegenerateDenominator,
    NonPrimitiveInput,
)
from splicezeta.monodromy import is_allowed
from splicezeta.refine import det2, realizable_refine, reduce
from splicezeta.sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    example,
    parse_sd,
    random_diagram,
)
from splicezeta.splice import splice
from splicezeta.zeta import top_zeta

from oracles import (
    DataclassArrowhead,
    DataclassEdge,
    cusp_chart_multiplicities,
    linking,
    linking_from_edge,
    linking_multiplicities,
    linking_side_weight,
    outer_product as outer_product_reference,
    validate_reference,
)


def f_arrow(d, node=None):
    for a in d.arrows:
        if a.N >= 1 and (node is None or a.node == node):
            return a
    raise AssertionError("no f-arrowhead")


def test_validate_examples():
    assert validate(builder_cusp(4, 5)) == []
    assert validate(builder_monomial(2, 3, 1, 1)) == []
    assert validate(builder_nv_example2(1, 1, 1, 1)) == []


def test_validate_one_node_two_arrows():
    d = Diagram(["v"], [], [Arrowhead("v", 1, 2, 1), Arrowhead("v", 1, 3, 1)])
    assert validate(d) == []


def test_validate_coprimality_violation():
    d = Diagram(
        ["a", "b"],
        [Edge("a", "b", 2, 2)],
        [Arrowhead("a", 1, 1, 1), Arrowhead("b", 4, 1, 1)],
    )
    assert any("coprime" in v for v in validate(d))


def test_validate_zero_pair_arrowhead():
    d = Diagram(["v"], [], [Arrowhead("v", 1, 0, 0), Arrowhead("v", 1, 1, 1)])
    assert any("(N, nu) = (0, 0)" in v for v in validate(d))


def test_validate_cycle_is_rejected():
    d = Diagram(
        ["a", "b", "c"],
        [Edge("a", "b", 1, 1), Edge("b", "c", 1, 1), Edge("a", "c", 1, 1)],
        [Arrowhead("a", 1, 1, 1)],
    )
    assert any("tree" in v for v in validate(d))


_SHARED = Edge("a", "b", 2, 3)

INVALID = {
    "unknown node": Diagram(["a"], [Edge("a", "z", 1, 1)], [Arrowhead("y", 1, 1, 1)]),
    "decoration < 1": Diagram(["a", "b"], [Edge("a", "b", 0, 1)],
                              [Arrowhead("a", 0, 1, 1), Arrowhead("b", 1, 1, 1)]),
    "N < 0": Diagram(["v"], [], [Arrowhead("v", 1, -1, 1), Arrowhead("v", 1, 1, 1)]),
    "(0, 0) arrowhead": Diagram(["v"], [], [Arrowhead("v", 1, 0, 0),
                                             Arrowhead("v", 1, 1, 1)]),
    "cycle": Diagram(["a", "b", "c"],
                     [Edge("a", "b", 2, 3), Edge("b", "c", 1, 1), Edge("a", "c", 5, 1)],
                     [Arrowhead("a", 1, 1, 1)]),
    # a node met twice by one edge: its determinant is not d d' - (P_u / d) (P_v / d')
    "self-loop": Diagram(["a", "b"], [Edge("a", "a", 2, 3)],
                         [Arrowhead("a", 5, 1, 1), Arrowhead("b", 1, 1, 1)]),
    "one edge twice": Diagram(["a", "b", "c"], [_SHARED, _SHARED],
                              [Arrowhead("a", 1, 1, 1), Arrowhead("c", 1, 1, 1)]),
    "edge decorations not coprime": Diagram(
        ["a", "b", "c"], [Edge("a", "b", 2, 3), Edge("b", "c", 9, 1)],
        [Arrowhead("a", 1, 1, 1), Arrowhead("c", 1, 1, 1)]),
    "arrowhead decoration not coprime": Diagram(
        ["a", "b"], [Edge("a", "b", 2, 2)],
        [Arrowhead("a", 1, 1, 1), Arrowhead("b", 4, 1, 1), Arrowhead("b", 6, 0, 1)]),
    "determinant 0": Diagram(
        ["a", "b"], [Edge("a", "b", 2, 3)],
        [Arrowhead("a", 3, 1, 1), Arrowhead("b", 2, 1, 1)]),
    "determinant < 0": Diagram(
        ["a", "b", "c"], [Edge("a", "b", 1, 2), Edge("b", "c", 5, 1)],
        [Arrowhead("a", 3, 1, 1), Arrowhead("b", 7, 1, 1), Arrowhead("c", 1, 1, 1)]),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_validate_matches_the_reference_on_invalid_diagrams(name):
    d = INVALID[name]
    assert validate(d)
    assert validate(d) == validate_reference(d)


def test_validate_matches_the_reference_on_valid_diagrams():
    diagrams = [example(name) for name in EXAMPLES]
    diagrams += [reduce(random_diagram(s, m)) for s in range(8) for m in (6, 14, 30, 160)]
    for d in diagrams:
        assert validate(d) == validate_reference(d) == []


def _redrawn(d, pairs):
    """d's skeleton with the arrowheads' (N, nu) replaced, in d.arrows order."""
    return Diagram(d.nodes, d.edges,
                   [Arrowhead(a.node, a.dec, n, nu) for a, (n, nu) in zip(d.arrows, pairs)])


def _bad_data(count):
    """(N, nu) lists for count arrowheads: clean, then with N < 0 and (0, 0)."""
    return [[(1, 1)] * count,
            [(-1, 1)] + [(2, 1)] * (count - 1),
            [(1, 2)] * (count - 1) + [(0, 0)],
            [(-2, 3) if i % 2 else (0, 0) for i in range(count)]]


SKELETONS = {
    "nv2": builder_nv_example2(1, 1, 1, 1),
    "two arrowheads at one node": Diagram(
        ["v"], [], [Arrowhead("v", 1, 2, 1), Arrowhead("v", 1, 3, 1)]),
    **{name: INVALID[name] for name in (
        "unknown node", "decoration < 1", "cycle", "self-loop",
        "edge decorations not coprime", "arrowhead decoration not coprime",
        "determinant 0", "determinant < 0")},
}


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_interned_validate_matches_the_reference(name):
    base = SKELETONS[name]  # its skeleton may have left the table since
    d = Diagram(base.nodes, base.edges, base.arrows)
    for pairs in _bad_data(len(d.arrows)):
        x = _redrawn(d, pairs)
        assert x.skeleton is d.skeleton
        for _ in range(2):  # the second call reads the skeleton's verdict
            assert validate(x) == validate_reference(x)
    assert (d.skeleton.verdict is False) == (name in ("unknown node", "decoration < 1"))


def test_a_skeleton_is_checked_once(monkeypatch):
    calls = []

    def counted(d, _original=diagram._skeleton_verdict):
        calls.append(d.skeleton)
        return _original(d)

    monkeypatch.setattr(diagram, "_skeleton_verdict", counted)
    d = Diagram(["p", "q"], [Edge("p", "q", 1, 7)],
                [Arrowhead("p", 1, 1, 1), Arrowhead("q", 1, 1, 1)])
    for pairs in _bad_data(2) * 2:
        validate(_redrawn(d, pairs))
    assert calls == [d.skeleton]


def test_skeleton_table_is_bounded():
    def chain(k):
        return Diagram(["p", "q"], [Edge("p", "q", 1, k)],
                       [Arrowhead("p", 1, 1, 1), Arrowhead("q", 1, 0, 2)])

    def push_out(skeleton):
        for k in range(3, diagram._SKELETON_BOUND + 12):
            chain(k)
            assert len(diagram._skeletons) <= diagram._SKELETON_BOUND
        assert skeleton not in diagram._skeletons.values()
        assert skeleton.plan is None  # only the table's skeletons keep a plan

    first = chain(2)
    validate(first)
    refined = realizable_refine(first)
    push_out(first.skeleton)
    # refining a diagram of an evicted skeleton enters that skeleton again
    assert realizable_refine(first) == refined
    assert chain(2).skeleton is first.skeleton
    push_out(first.skeleton)
    # with an equal skeleton entered since, both diagrams use its plan
    again = chain(2)
    assert again.skeleton is not first.skeleton
    for d in (first, again):
        for pairs in _bad_data(2):
            x = _redrawn(d, pairs)
            assert validate(x) == validate_reference(x)
        assert realizable_refine(d) == refined
    assert first.skeleton.plan is None and again.skeleton.plan is not None


_TWICE = Edge("a", "b", 2, 3)
_FLIPPED = Edge("b", "a", 3, 2)  # oriented anew, so listed twice it is two objects
_EQUAL_EDGES = {
    "one object twice": lambda: Diagram(
        ["a", "b"], [_TWICE, _TWICE], [Arrowhead("a", 1, 1, 1), Arrowhead("b", 1, 1, 1)]),
    "flipped object twice": lambda: Diagram(
        ["a", "b"], [_FLIPPED, _FLIPPED], [Arrowhead("a", 1, 1, 1), Arrowhead("b", 1, 1, 1)]),
    "parsed twice": lambda: parse_sd(
        "node a\nnode b\nedge a b 2 3\nedge a b 2 3\narrow a 1 1 1\narrow b 1 1 1\n",
        validated=False),
}
_NOT_A_TREE = ["node-edge graph is not a tree",
               "decorations 2 and 2 at node a are not coprime",
               "decorations 3 and 3 at node b are not coprime"]


@pytest.mark.parametrize("order", list(itertools.permutations(_EQUAL_EDGES)))
def test_equal_edges_keep_their_own_objects(order):
    # edge_determinant excludes an edge by identity: one Edge object listed
    # twice leaves no other decoration, two equal Edges leave each other's
    expected = {
        "one object twice": (_NOT_A_TREE, 6),
        "flipped object twice": (_NOT_A_TREE + ["edge a-b has determinant 0 < 1"] * 2,
                                 NonPrimitiveInput),
        "parsed twice": (_NOT_A_TREE + ["edge a-b has determinant 0 < 1"] * 2,
                         NonPrimitiveInput),
    }
    for name in order:
        d = _EQUAL_EDGES[name]()
        assert d.skeleton not in diagram._skeletons.values()
        messages, refined = expected[name]
        assert validate(d) == validate(d) == messages
        if refined is NonPrimitiveInput:
            with pytest.raises(NonPrimitiveInput):
                realizable_refine(d)
        else:
            assert len(realizable_refine(d).nodes) == refined


def test_outer_product_matches_the_loop():
    # zero and negative decorations, one Edge object listed twice, loops, and
    # excluded edges that equal one at v without being it, or are not at v
    rng = random.Random(71)
    cases = [_EQUAL_EDGES[name]() for name in _EQUAL_EDGES]
    for _ in range(200):
        edges = [Edge(*rng.choices("abc", k=2), rng.randint(-2, 4), rng.randint(-2, 4))
                 for _ in range(rng.randint(0, 5))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))
        arrows = [Arrowhead(rng.choice("abc"), rng.randint(0, 3), 1, 1)
                  for _ in range(rng.randint(0, 4))]
        cases.append(Diagram(["a", "b", "c"], edges, arrows))
    for d in cases:
        for v in d.nodes:
            excluded = [None, *d.edges, *(Edge(*e) for e in d.edges)]
            for e in excluded:
                assert d.outer_product(v, exclude_edge=e) == outer_product_reference(
                    d, v, exclude_edge=e), (d.edges, v, e)
            for a in d.arrows_at(v):
                assert d.outer_product(v, exclude_arrow=a) == outer_product_reference(
                    d, v, exclude_arrow=a)


def test_diagram_parts_sort_as_the_dataclass_order():
    rng = random.Random(67)
    for _ in range(200):
        arrows = [Arrowhead(rng.choice("ab"), rng.randint(1, 2), rng.randint(0, 2),
                            rng.randint(0, 2)) for _ in range(rng.randint(0, 6))]
        edges = [Edge(*rng.sample("abc", 2), rng.randint(1, 2), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 4))]
        d = Diagram(["a", "b", "c"], edges, arrows)
        # equal objects keep their input order, as in a stable sort by __lt__
        assert list(map(id, d.arrows)) == list(map(id, sorted(arrows)))
        oriented = [e if e.u <= e.v else Edge(e.v, e.u, e.dv, e.du) for e in edges]
        assert diagram.sorted_parts(d.nodes, edges)[1] == tuple(sorted(oriented))
        assert (list(map(id, diagram.sorted_parts(d.nodes, oriented)[1]))
                == list(map(id, sorted(oriented))))


_NAMES = ["a", "b", "b1", "", "n10", "n2", "\u00e9"]


def _record_fields(rng, new):
    names = 2 if new is Edge else 1
    return (*(rng.choice(_NAMES) for _ in range(names)),
            *(rng.randint(-3, 3) for _ in range(4 - names)))


@pytest.mark.parametrize("new, old", [(Edge, DataclassEdge), (Arrowhead, DataclassArrowhead)])
def test_records_behave_as_the_dataclasses(new, old):
    rng = random.Random(53)
    fields = [_record_fields(rng, new) for _ in range(300)]
    news, olds = [new(*f) for f in fields], [old(*f) for f in fields]
    assert list(map(repr, news)) == list(map(repr, olds))
    assert list(map(hash, news)) == list(map(hash, olds))
    order = list(range(len(fields)))
    assert sorted(order, key=news.__getitem__) == sorted(order, key=olds.__getitem__)
    for i, j in zip(order, reversed(order)):
        for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(news[i], op)(news[j]) == getattr(olds[i], op)(olds[j])
    for x, y in zip(news[:20], olds[:20]):
        for name in new._fields:
            for change in (lambda r: setattr(r, name, 1), lambda r: delattr(r, name)):
                for record in (x, y):
                    with pytest.raises(AttributeError):
                        change(record)
        if new is Edge:
            for w in (x.u, x.v, "absent"):
                assert x.other(w) == y.other(w)
                assert x.key() == y.key()
                if w in (x.u, x.v):
                    assert x.dec_at(w) == y.dec_at(w)
                else:
                    with pytest.raises(KeyError):
                        x.dec_at(w)
        # the one change: a record equals the plain tuple of its fields
        assert x == tuple(x) and y != tuple(x)


def test_arrows_at_reads_the_skeleton_spans():
    diagrams = [example(name) for name in EXAMPLES]
    diagrams += [random_diagram(s, m) for s in range(10) for m in (6, 30)]
    diagrams += [realizable_refine(d) for d in diagrams[len(EXAMPLES):]]
    diagrams.append(INVALID["unknown node"])
    for d in diagrams:
        for v in {*d.nodes, *(a.node for a in d.arrows), "not a node"}:
            assert d.arrows_at(v) == [a for a in d.arrows if a.node == v]


def test_coprimality_on_stars_matches_the_reference():
    rng = random.Random(11)
    stars = [[2, 3, 5, 4, 7], [6, 35, 11, 4, 9]]
    stars += [[rng.randint(1, 12) for _ in range(rng.randint(1, 8))] for _ in range(100)]
    for decs in stars:
        leaves = [f"l{i}" for i in range(len(decs))]
        d = Diagram(["c", *leaves], [Edge("c", v, x, 1) for v, x in zip(leaves, decs)],
                    [Arrowhead("c", 1, 1, 1), *(Arrowhead(v, 1, 0, 1) for v in leaves)])
        assert validate(d) == validate_reference(d)
    first = Diagram(["c", "l0", "l1", "l2", "l3", "l4"],
                    [Edge("c", f"l{i}", x, 1) for i, x in enumerate([2, 3, 5, 4, 7])],
                    [Arrowhead("c", 1, 1, 1)])
    assert [m for m in validate(first) if "coprime" in m] == [
        "decorations 2 and 4 at node c are not coprime"]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.sampled_from([6, 14, 30]), data=st.data())
def test_interned_validate_equals_the_reference_property(seed, m, data):
    d = random_diagram(seed, m)
    for x in (d, reduce(d)):
        pair = st.tuples(st.integers(-2, 4), st.integers(-2, 4))
        pairs = data.draw(st.lists(pair, min_size=len(x.arrows), max_size=len(x.arrows)))
        redrawn = _redrawn(x, pairs)
        assert redrawn.skeleton is x.skeleton
        for y in (x, redrawn, redrawn):
            assert validate(y) == validate_reference(y)


def test_validation_warning_on_zero_nu():
    d = Diagram(["v"], [], [Arrowhead("v", 1, 1, 0), Arrowhead("v", 1, 1, 1)])
    assert validate(d) == []
    assert validation_warnings(d)


def test_valency_kinds_on_cusp():
    d = builder_cusp(4, 5)
    assert valency(d, "n2", "plain") == 2
    assert valency(d, "n2", "with_f_arrows") == 3
    assert valency(d, "n2", "full") == 3
    assert valency(d, "n1", "plain") == 1
    assert valency(d, "n1", "with_f_arrows") == 1
    assert valency(d, "n1", "full") == 2


def test_valency_nv2_arrow_node():
    d = builder_nv_example2(1, 1, 1, 1)
    assert valency(d, "n4", "with_f_arrows") == 3


def test_linking_cusp_central_to_arrow():
    d = builder_cusp(4, 5)
    assert linking(d, "n2", f_arrow(d)) == 6


def test_linking_self_on_monomial():
    d = builder_monomial(1, 1, 1, 1)
    assert linking(d, "n1", "n1") == 1


def test_linking_nv2():
    d = builder_nv_example2(1, 1, 1, 1)
    assert linking(d, "n4", f_arrow(d)) == 330


def test_linking_symmetry():
    diagrams = [builder_cusp(4, 5), builder_nv_example2(1, 1, 1, 1)]
    diagrams += [random_diagram(s, 6) for s in range(5)]
    for d in diagrams:
        for v in d.nodes:
            for w in d.nodes:
                assert linking(d, v, w) == linking(d, w, v)


def test_linking_from_edge_cusp():
    d = builder_cusp(4, 5)
    e = d.edge_between("n2", "n3")
    assert linking_from_edge(d, e, f_arrow(d)) == 3


def test_linking_from_edge_far_lonely_arrow():
    # target arrowhead at the far endpoint with no siblings gives 1
    d = builder_cusp(0, 0)
    e = d.edge_between("n1", "n2")
    omega = next(a for a in d.arrows if a.node == "n1")
    assert linking_from_edge(d, e, omega) == 1


def test_linking_from_edge_nv2():
    d = builder_nv_example2(1, 1, 1, 1)
    e = d.edge_between("n3", "n4")
    assert linking_from_edge(d, e, f_arrow(d)) == 5


def test_multiplicities_cusp_oracle():
    for a, b in [(0, 0), (4, 5), (2, 4), (3, 3), (1, 7)]:
        table = multiplicities(builder_cusp(a, b))
        o1, o2, o3 = cusp_chart_multiplicities(a, b)
        assert table["n1"] == o1
        assert table["n2"] == o2
        assert table["n3"] == o3


def test_multiplicities_cusp_x4y5_frozen():
    table = multiplicities(builder_cusp(4, 5))
    assert table == {"n1": (2, 11), "n2": (6, 28), "n3": (3, 17)}


def test_multiplicities_monomial():
    table = multiplicities(builder_monomial(2, 3, 4, 5))
    assert table["n1"] == (5, 9)


def test_multiplicities_nv2_n_values():
    table = multiplicities(builder_nv_example2(1, 1, 1, 1))
    assert {v: n for v, (n, _) in table.items()} == {
        "n1": 20, "n2": 15, "n3": 60, "n4": 330, "n5": 66}


def test_multiplicities_rejects_decorated_arrows():
    d = Diagram(["v"], [], [Arrowhead("v", 2, 1, 1), Arrowhead("v", 1, 0, 3)],
                {"v": (1, 1)})
    with pytest.raises(DecoratedArrowPresent):
        multiplicities(d)


def test_multiplicities_verifies_caches():
    d = builder_cusp(0, 0).with_caches({"n1": (2, 2)})
    assert multiplicities(d)["n1"] == (2, 2)
    bad = builder_cusp(0, 0).with_caches({"n1": (2, 3)})
    with pytest.raises(CacheMismatch):
        multiplicities(bad)


def test_decorated_arrow_refinement_checks_caches():
    # valid, but the caches contradict the formulas: u has (4, 2), not (5, 1)
    d = Diagram(["u", "v"], [Edge("u", "v", 1, 3)],
                [Arrowhead("v", 2, 3, 1), Arrowhead("v", 1, 0, 1),
                 Arrowhead("u", 1, 1, 1)],
                {"u": (5, 1), "v": (5, 1)})
    assert validate(d) == []
    for call in (lambda: splice_data(d, d.edges[0]), lambda: is_allowed(d),
                 lambda: splice(d, ("u", "v")), lambda: top_zeta(d)):
        with pytest.raises(CacheMismatch):
            call()


def test_zero_pair_cache_is_refused_where_caches_are_taken():
    # a decorated arrowhead makes the caches the input, so the (0, 0) at v
    # must be refused before refining interpolates from it
    d = Diagram(["v"], [], [Arrowhead("v", 2, 1, 1), Arrowhead("v", 1, 0, 3)],
                {"v": (0, 0)})
    assert validate(d) == []
    for call in (cached_table, ensure_cached, realizable_refine, top_zeta, is_allowed,
                 lambda d: splice(d, ("v", "v"))):
        with pytest.raises(DegenerateDenominator, match=r"^\(N, nu\) = \(0, 0\) at node v$"):
            call(d)


def test_splice_data_nv2():
    d = builder_nv_example2(1, 1, 1, 1)
    e = d.edge_between("n3", "n4")
    data = splice_data(d, e)
    assert (data.M, data.M_prime, data.i, data.i_prime) == (5, 0, 1, -5)


def test_splice_data_nv2_general_parameters():
    for i1, i2, i3, k in [(1, 1, 1, 1), (2, 3, 4, 5), (5, 1, 9, 2)]:
        d = builder_nv_example2(i1, i2, i3, k)
        data = splice_data(d, d.edge_between("n3", "n4"))
        assert data.M == 5
        assert data.M_prime == 0
        assert data.i == i3 + 5 * k - 5
        assert data.i_prime == 4 * i1 + 3 * i2 - 12


def test_splice_data_cusp_leaf_side():
    d = builder_cusp(0, 0)
    data = splice_data(d, d.edge_between("n2", "n3"))
    # right side is the leaf n3 with a trivial form arrowhead
    assert (data.M, data.i) == (0, 1)


def test_cone_vector_cusp():
    d = builder_cusp(0, 0)
    e = d.edge_between("n1", "n2")
    assert cone_vector(d, e, "n1") == (1, 1)
    assert cone_vector(d, e, "n2") == (3, 2)


def test_cone_vector_nv2_and_determinant():
    d = builder_nv_example2(1, 1, 1, 1)
    e = d.edge_between("n3", "n4")
    assert cone_vector(d, e, "n3") == (1, 12)
    assert cone_vector(d, e, "n4") == (66, 5)
    assert edge_determinant(d, e) == 6


def test_cone_vector_arrowhead():
    d = builder_cusp(0, 0)
    a = f_arrow(d)
    assert cone_vector(d, d.edge_between("n1", "n2"), a) == (0, 1)


def test_cone_determinant_is_edge_determinant_everywhere():
    diagrams = [builder_cusp(2, 4), builder_nv_example2(1, 2, 3, 4)]
    diagrams += [random_diagram(s, 6) for s in range(5)]
    for d in diagrams:
        for e in d.edges:
            wl = cone_vector(d, e, e.u)
            dv, outer = cone_vector(d, e, e.v)
            assert det2(wl, (outer, dv)) == edge_determinant(d, e)


def test_endpoint_decomposition_invariant():
    """N_v = alpha*M_own + beta*M_other and likewise for nu, at both ends."""
    diagrams = [builder_cusp(4, 5), builder_nv_example2(2, 1, 3, 2)]
    diagrams += [random_diagram(s, 6) for s in range(200)]
    for d in diagrams:
        if not d.edges:
            continue
        table = multiplicities(d)
        for e in d.edges:
            data = splice_data(d, e)
            for v, own, other in ((e.u, (data.M_prime, data.i_prime), (data.M, data.i)),
                                  (e.v, (data.M, data.i), (data.M_prime, data.i_prime))):
                alpha, beta = cone_vector(d, e, v)
                n, nu = table[v]
                assert n == alpha * own[0] + beta * other[0]
                assert nu == alpha * own[1] + beta * other[1]


def _check_against_linking_oracle(d):
    assert multiplicities(d) == linking_multiplicities(d)
    for e in d.edges:
        u_side, v_side = edge_sides(d, e)
        data = splice_data(d, e)
        assert (data.M, data.i) == linking_side_weight(d, e, v_side)
        assert (data.M_prime, data.i_prime) == linking_side_weight(d, e, u_side)


def test_side_weights_match_linking_oracle_on_bundled_diagrams():
    diagrams = [example(name) for name in sorted(EXAMPLES)]
    diagrams += [builder_nv_example2(*t) for t in [
        (1, 1, 1, 1), (2, 3, 4, 5), (5, 1, 9, 2), (1, 2, 3, 4), (3, 3, 3, 3),
        (4, 1, 2, 7), (2, 5, 1, 1), (9, 9, 1, 6), (1, 4, 6, 2)]]
    for d in diagrams:
        _check_against_linking_oracle(d)


@pytest.mark.parametrize("m", [6, 14, 30, 60])
def test_side_weights_match_linking_oracle_on_random_diagrams(m):
    # the path-walking oracle is slow on the largest size; fewer seeds there
    for seed in range(10 if m == 60 else 60):
        d = random_diagram(seed, m)
        _check_against_linking_oracle(d)
        _check_against_linking_oracle(reduce(d))
