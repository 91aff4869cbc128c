import ast
import collections
import itertools
import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from splicezeta import diagram, refine
from splicezeta.diagram import (
    Arrowhead,
    Diagram,
    Edge,
    ensure_cached,
    multiplicities,
    validate,
)
from splicezeta.errors import (
    CacheMismatch,
    DegenerateDenominator,
    MissingCache,
    NegativeDeterminant,
    NonIntegralInterpolation,
    NonPrimitiveInput,
    RefinementTooLarge,
    SpliceZetaError,
)
from splicezeta.refine import (
    Subdivision,
    canonical_form,
    det2,
    is_primitive,
    is_realizable,
    isomorphic,
    realizable_refine,
    reduce,
    refine_all_arrows,
    refine_arrow,
    refine_edge,
    smooth_subdivide_minimal,
)
from splicezeta.sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    builder_xy2_chain,
    example,
    parse_sd,
    random_diagram,
    write_sd,
)
from splicezeta.splice import splice
from splicezeta.zeta import _top_terms, motivic_zeta, poles, top_zeta, twisted_top_zeta

from memo import forget_plans, planned
from oracles import brute_minimal_chains, minimal_chain_per_vector, toric_values


def test_minimal_subdivision_det5_example():
    s = smooth_subdivide_minimal((2, 1), (1, 3))
    assert s.interior == ((1, 1), (1, 2))
    assert s.b_values() == [3, 2]
    assert list(s.vectors) in [[tuple(v) for v in c]
                               for c in brute_minimal_chains((2, 1), (1, 3), 6)]


def test_minimal_subdivision_det5_other_example():
    s = smooth_subdivide_minimal((5, 2), (0, 1))
    assert s.interior == ((2, 1), (1, 1))
    assert list(s.vectors) in [[tuple(v) for v in c]
                               for c in brute_minimal_chains((5, 2), (0, 1), 6)]


def test_minimal_subdivision_det1_is_empty():
    assert smooth_subdivide_minimal((1, 0), (0, 1)).interior == ()


def test_minimal_subdivision_invariants_randomized():
    rng = random.Random(2)
    from math import gcd

    count = 0
    while count < 60:
        u = (rng.randint(0, 9), rng.randint(0, 9))
        v = (rng.randint(0, 9), rng.randint(0, 9))
        if gcd(*u) != 1 or gcd(*v) != 1 or det2(u, v) < 1:
            continue
        count += 1
        s = smooth_subdivide_minimal(u, v)
        assert not s.check()
        assert all(b >= 2 for b in s.b_values())


def test_subdivision_rejects_bad_input():
    with pytest.raises(NonPrimitiveInput):
        smooth_subdivide_minimal((2, 4), (0, 1))
    with pytest.raises(NegativeDeterminant):
        smooth_subdivide_minimal((0, 1), (1, 0))


def test_mediant_insertion_keeps_determinant_one():
    u, v = (2, 1), (3, 2)
    assert det2(u, v) == 1
    mid = (u[0] + v[0], u[1] + v[1])
    assert not Subdivision([u, mid, v]).check()


def test_refine_edge_preserves_multiplicities():
    for d in [builder_cusp(4, 5), builder_nv_example2(1, 1, 1, 1)]:
        table = multiplicities(d)
        cached = ensure_cached(d)
        for e in list(cached.edges):
            refined = refine_edge(cached, e)
            new_table = multiplicities(refined.without_caches())
            for v in d.nodes:
                assert new_table[v] == table[v]
            # interpolation caches equal the side-weight values
            for v in refined.nodes:
                assert new_table[v] == tuple(refined.cache(v))


def test_refine_edge_q1_unchanged():
    d = ensure_cached(builder_cusp(0, 0))
    e = d.edge_between("n1", "n2")
    assert refine_edge(d, e) is d


def test_refine_edge_nv2_counts():
    d = ensure_cached(builder_nv_example2(1, 1, 1, 1))
    refined = realizable_refine(d)
    # determinants 2, 1, 6, 4 refine with 1 + 0 + 1 + 3 inserted nodes
    assert len(refined.nodes) == len(d.nodes) + 5
    inserted = [refined.cache(v) for v in refined.nodes if v not in d.nodes]
    assert sorted(inserted) == [(40, 5), (65, 8), (132, 17), (198, 25), (264, 33)]


def test_refine_edge_rejects_inconsistent_caches():
    d = builder_nv_example2(1, 1, 1, 1)
    bad = d.with_caches({v: (1, 1) for v in d.nodes})
    with pytest.raises(NonIntegralInterpolation):
        refine_edge(bad, bad.edge_between("n3", "n4"))


def test_refine_arrow_trivial_decoration_noop():
    d = ensure_cached(builder_cusp(0, 0))
    a = d.arrows[0]
    assert refine_arrow(d, a) is d


def test_refine_arrow_requires_cache():
    d = Diagram(["u", "v"], [Edge("u", "v", 1, 3)],
                [Arrowhead("u", 1, 3, 1), Arrowhead("v", 2, 2, 1)])
    with pytest.raises(MissingCache):
        refine_arrow(d, d.arrows_at("v")[0])


def test_caller_subdivision_must_span_the_cone():
    # the decoration-5 arrowhead of the decorated half; its cone runs from
    # (5, 66) to (0, 1)
    h = splice(example("nv2"), ("n3", "n4")).left
    a = next(a for a in h.arrows if a.dec == 5)
    with pytest.raises(ValueError, match="must run from"):
        refine_arrow(h, a, Subdivision([(2, 1), (1, 1), (0, 1)]))
    given = refine_arrow(h, a, smooth_subdivide_minimal((5, 66), (0, 1)))
    assert write_sd(given) == write_sd(refine_arrow(h, a))
    d = ensure_cached(builder_nv_example2(1, 1, 1, 1))
    with pytest.raises(ValueError, match="must run from"):
        refine_edge(d, d.edge_between("n3", "n4"), Subdivision([(2, 1), (1, 1), (0, 1)]))


def test_refine_arrow_matches_toric_chain():
    """A two-node diagram collapsing x^2 with trivial form data.

    Built the way splicing builds them: the decorated arrowhead carries the
    collapsed side's (M, i) = (2, 1) and the caches sit at quadrant rays
    (1, 1) and (3, 2).  The full refinement must reproduce the minimal
    subdivision of the quadrant through those rays with the toric values.
    """
    m, m_prime, i, i_prime = 2, 0, 1, 1
    d = Diagram(
        ["vl", "vr"],
        [Edge("vl", "vr", 1, 3)],
        [Arrowhead("vl", 1, m_prime, i_prime), Arrowhead("vr", 2, m, i)],
        {"vl": toric_values((1, 1), m, m_prime, i, i_prime),
         "vr": toric_values((3, 2), m, m_prime, i, i_prime)},
    )
    assert validate(d) == []
    refined = realizable_refine(d)
    assert is_realizable(refined)
    rays = []
    for chain in brute_minimal_chains((1, 0), (3, 2), 8):
        rays = [w for w in chain[1:-1]]
    expected = {toric_values(w, m, m_prime, i, i_prime) for w in rays}
    expected |= {toric_values((1, 1), m, m_prime, i, i_prime),
                 toric_values((3, 2), m, m_prime, i, i_prime)}
    got = {tuple(refined.cache(v)) for v in refined.nodes}
    assert got == expected


def test_is_realizable():
    assert is_realizable(builder_cusp(4, 5))
    assert is_realizable(builder_monomial(2, 3, 1, 1))
    nv = builder_nv_example2(1, 1, 1, 1)
    assert not is_realizable(nv)
    d = Diagram(["u"], [], [Arrowhead("u", 2, 1, 1), Arrowhead("u", 1, 0, 1)],
                {"u": (1, 1)})
    assert not is_realizable(d)


def test_realizable_refine_output_is_realizable():
    diagrams = [builder_nv_example2(1, 1, 1, 1), builder_cusp(2, 4)]
    diagrams += [reduce(random_diagram(s, 6)) for s in range(10)]
    for d in diagrams:
        refined = realizable_refine(d)
        assert is_realizable(refined)
        assert validate(refined) == []


def test_reduce_cusp_unchanged():
    d = builder_cusp(4, 5)
    assert reduce(d) == d


def test_reduce_after_refine_roundtrip():
    diagrams = [builder_cusp(4, 5), builder_nv_example2(1, 1, 1, 1)]
    diagrams += [random_diagram(s, 6) for s in range(20)]
    for d in diagrams:
        base = reduce(ensure_cached(d))
        again = reduce(realizable_refine(base))
        assert isomorphic(base, again)


def test_reduce_xy2_chain_roundtrip():
    d = ensure_cached(builder_xy2_chain())
    table = multiplicities(d)
    assert table == {"n1": (3, 2), "n2": (5, 3)}
    red = reduce(d)
    back = realizable_refine(red)
    assert multiplicities(back.without_caches()) == multiplicities(back.without_caches())
    for v in ("n1", "n2"):
        assert tuple(back.cache(v)) == table[v]


def test_isomorphic_on_long_chain_refinement():
    # one edge whose cone refines into a chain of 1500 nodes
    chain = _long_chain(1500)
    refined = realizable_refine(chain)
    assert len(refined.nodes) == 1500
    name = {v: f"x{k}" for k, v in enumerate(reversed(refined.nodes))}
    renamed = Diagram(
        [name[v] for v in refined.nodes],
        [Edge(name[e.u], name[e.v], e.du, e.dv) for e in refined.edges],
        [Arrowhead(name[a.node], a.dec, a.N, a.nu) for a in refined.arrows],
        {name[v]: c for v, c in refined.caches.items()})
    assert isomorphic(refined, refined)
    assert isomorphic(refined, renamed)
    assert canonical_form(refined) == canonical_form(renamed)
    assert isomorphic(reduce(refined), ensure_cached(chain))
    form = Arrowhead("b", 1, 0, 2)
    other = Diagram(chain.nodes, chain.edges,
                    [a for a in chain.arrows if a != form] + [Arrowhead("b", 1, 0, 3)])
    assert not isomorphic(refined, realizable_refine(other), with_caches=False)


def test_canonical_form_detects_renaming():
    d1 = builder_cusp(4, 5)
    text_renamed = Diagram(
        ["a", "b", "c"],
        [Edge("a", "b", 1, 3), Edge("b", "c", 2, 2)],
        [Arrowhead("b", 1, 1, 1), Arrowhead("a", 1, 0, 5), Arrowhead("c", 1, 0, 6)],
    )
    assert isomorphic(d1, text_renamed)
    assert canonical_form(d1) == canonical_form(text_renamed)
    assert not isomorphic(d1, builder_cusp(5, 4))


# ---------------------------------------------------------------------------
# The refinement-plan memo behind realizable_refine.
# ---------------------------------------------------------------------------


def _long_chain(k, form_nu=2):
    return Diagram(["a", "b"], [Edge("a", "b", 1, k)],
                   [Arrowhead("a", 1, 1, 1), Arrowhead("a", 1, 1, 1),
                    Arrowhead("b", 1, 1, 1), Arrowhead("b", 1, 0, form_nu)])


def _memo_corpus():
    for name in EXAMPLES:
        yield example(name)
    for s in range(12):
        for m in (6, 14):
            yield random_diagram(s, m)
            yield reduce(random_diagram(s, m))
    for k in (7, 30, 301):
        yield _long_chain(k)
    for s in range(6):
        d = reduce(random_diagram(s, 14))
        for e in d.edges:
            r = splice(d, (e.u, e.v))
            yield r.left
            yield r.right


def _cold(d):
    forget_plans()
    return realizable_refine(d)


def _sibling(d):
    """Unequal to d, with the same skeleton and the same refinement caches."""
    if d.caches:
        return Diagram(d.nodes, d.edges, d.arrows,
                       {v: list(c) for v, c in d.caches.items()})
    return ensure_cached(d)


def _count_chains(monkeypatch):
    calls = []

    def counted(*args, _original=refine._chain, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(refine, "_chain", counted)
    return calls


def test_plan_hit_equals_cold_miss(monkeypatch):
    diagrams = list(_memo_corpus())
    assert sum(d.has_decorated_arrow() for d in diagrams) > 15
    chains = _count_chains(monkeypatch)
    for d in diagrams:
        cold = _cold(d)
        compiled = len(chains)
        realizable_refine(_sibling(d))
        hit = realizable_refine(d)
        assert len(chains) == compiled
        assert hit == cold
        assert write_sd(hit) == write_sd(cold)
        assert realizable_refine(d) is hit


def test_plan_replays_other_arrow_pairs(monkeypatch):
    grid = [(i1, i2, i3, k) for i1 in (1, 4) for i2 in (2, 5) for i3 in (1, 9)
            for k in (1, 3, 7)]
    colds = [_cold(builder_nv_example2(*t)) for t in grid]
    chains = [_long_chain(30, nu) for nu in (-3, 1, 2, 5)]
    chain_colds = [_cold(d) for d in chains]
    forget_plans()
    realizable_refine(builder_nv_example2(1, 1, 1, 1))
    realizable_refine(_long_chain(30, 7))
    inserted = _count_chains(monkeypatch)
    for t, cold in zip(grid, colds):
        hit = realizable_refine(builder_nv_example2(*t))
        assert hit == cold and write_sd(hit) == write_sd(cold)
    for d, cold in zip(chains, chain_colds):
        assert realizable_refine(d) == cold
    assert not inserted
    assert len(planned()) == 2


def _raises_alike(bad, good):
    """The error of refining bad on a cold memo, which a plan hit repeats."""
    forget_plans()
    with pytest.raises(SpliceZetaError) as miss:
        realizable_refine(bad)
    realizable_refine(good)
    for _ in range(2):
        with pytest.raises(SpliceZetaError) as hit:
            realizable_refine(bad)
        assert type(hit.value) is type(miss.value)
        assert str(hit.value) == str(miss.value)
    return miss.value


def test_plan_hit_raises_what_a_miss_raises():
    # the cache (5, 1) contradicts the formulas, which give (3, 3)
    cooked = Diagram(["v"], [], [Arrowhead("v", 2, 3, 1), Arrowhead("v", 1, 0, 1)],
                     {"v": (5, 1)})
    assert isinstance(_raises_alike(cooked, cooked.with_caches({"v": (3, 3)})),
                      CacheMismatch)
    r = splice(example("nv2"), ("n3", "n4"))
    half = r.left if r.left.has_decorated_arrow() else r.right
    assert half.has_decorated_arrow()
    uncached = Diagram(half.nodes, half.edges, half.arrows,
                       {v: c for v, c in half.caches.items() if v != "n4"})
    assert isinstance(_raises_alike(uncached, half), MissingCache)
    zero = parse_sd("node a\narrow a 1 0 1\narrow a 1 0 -1\n")
    other = parse_sd("node a\narrow a 1 0 2\narrow a 1 0 -1\n")
    assert isinstance(_raises_alike(zero, other), DegenerateDenominator)
    bad = builder_nv_example2(1, 1, 1, 1)
    bad = bad.with_caches({v: (1, 1) for v in bad.nodes})
    assert isinstance(_raises_alike(bad, builder_nv_example2(1, 1, 1, 1)),
                      CacheMismatch)


def test_plan_memo_is_bounded():
    # plans live on interned skeletons, so the intern table bounds them
    forget_plans()
    first = _long_chain(2)
    realizable_refine(first)
    for k in range(3, diagram._SKELETON_BOUND + 12):
        realizable_refine(_long_chain(k))
        assert len(planned()) <= len(diagram._skeletons) <= diagram._SKELETON_BOUND
    assert len(diagram._skeletons) == diagram._SKELETON_BOUND
    # every skeleton the table kept keeps its plan
    assert len(planned()) == diagram._SKELETON_BOUND
    # the oldest skeleton was dropped, and refines as before
    assert first.skeleton not in diagram._skeletons.values()
    assert realizable_refine(first) == _cold(first)


# ---------------------------------------------------------------------------
# Linking maps against the replay.
# ---------------------------------------------------------------------------


def _linking(d):
    """A linking map of d's skeleton, built outside the memo's gate."""
    return refine._Linking(refine._Plan(d), d)


def _mapped(d):
    """d, with a fresh plan on its skeleton that holds a linking map of it."""
    forget_plans()
    skeleton = refine._planned(d)
    skeleton.plan = refine._Plan(d)
    skeleton.plan.linking = _linking(d)
    return d


def _replayed(d):
    return refine._strata(realizable_refine(d))


def _outcome(strata_of, d):
    """strata_of(d), or the class and message of what it raised."""
    try:
        return "strata", strata_of(d)
    except SpliceZetaError as exc:
        return "raised", type(exc), str(exc)


def _or_none(outcome):
    """What the map's terms returns for an input with this replay outcome:
    the terms, or None where the replay raises."""
    return outcome[1] if outcome[0] == "strata" else None


def _redrawn(d, rng):
    """d's skeleton with new arrowhead (N, nu), none of them (0, 0)."""
    arrows = []
    for a in d.arrows:
        n, nu = rng.randrange(4), rng.randrange(-3, 6)
        arrows.append(Arrowhead(a.node, 1, n, nu if (n, nu) != (0, 0) else 1))
    return Diagram(d.nodes, d.edges, arrows)


def test_linking_map_matches_the_replay_on_examples_and_random_diagrams():
    rng = random.Random(3)
    skeletons = [example(name) for name in EXAMPLES]
    skeletons += [reduce(random_diagram(s, m)) for s in range(8) for m in (6, 14, 30)]
    outcomes = []
    for d in skeletons:
        if d.has_decorated_arrow():
            continue
        linking = _linking(d)
        for x in [d] + [_redrawn(d, rng) for _ in range(3)]:
            expected = _outcome(_replayed, x)
            assert linking.terms(x, 1) == _or_none(_outcome(_filtered_terms(1), x))
            if expected[0] == "strata":
                cached = ensure_cached(x)  # correct caches on every input node
                assert refine.refined_strata(_mapped(cached)) == expected[1] == _replayed(cached)
            outcomes.append(expected[0])
    assert outcomes.count("strata") > 100


def test_linking_map_raises_what_the_replay_raises():
    nv2 = builder_nv_example2(1, 1, 1, 1)
    zero_arrow = [Arrowhead("n1", 1, 0, 0)] + [a for a in nv2.arrows if a.node != "n1"]
    cases = [
        (nv2.with_caches({v: (1, 1) for v in nv2.nodes}), CacheMismatch),
        (nv2.with_caches({"n5": (66, 5)}), CacheMismatch),
        # caches are checked before any node is refused
        (parse_sd("node a\narrow a 1 0 1\narrow a 1 0 -1\n").with_caches({"a": (0, 1)}),
         CacheMismatch),
        # the input node a has (0, 0)
        (parse_sd("node a\narrow a 1 0 1\narrow a 1 0 -1\n"), DegenerateDenominator),
        # the input nodes are (0, 6) and (0, 2), the inserted node a.b.1 is (0, 0)
        (Diagram(["a", "b"], [Edge("a", "b", 1, 3)],
                 [Arrowhead("a", 1, 0, 2), Arrowhead("b", 1, 0, -1)]), DegenerateDenominator),
        (Diagram(nv2.nodes, nv2.edges, zero_arrow), DegenerateDenominator),
    ]
    messages = set()
    for bad, cls in cases:
        expected = _outcome(_replayed, bad)
        assert expected[:2] == ("raised", cls)
        if not bad.caches:
            assert _linking(bad).terms(bad, 1) is None
        assert _outcome(refine.refined_strata, _mapped(bad)) == expected
        messages.add(expected[2])
    assert len(messages) == len(cases)


# ---------------------------------------------------------------------------
# Twisted terms: only the strata an order keeps, from the linking map.
# ---------------------------------------------------------------------------

SWEEP_GRID = [t for t in itertools.product(range(6), range(6), range(10), range(10))
              if 0 not in t[:3]]
TWIST_ORDERS = (1, 2, 3, 60, 330)


def _divisible(strata, order):
    """The strata whose N's order divides, as the twisted zeta filters them."""
    nodes, edges, arrows = strata
    return ([(pair, delta) for pair, delta in nodes if pair[1] % order == 0],
            [(p, q) for p, q in edges if not (p[1] % order or q[1] % order)],
            [(p, q) for p, q in arrows if not (p[1] % order or q[1] % order)])


def _filtered_replay(order):
    return lambda d: _divisible(_replayed(d), order)


def _filtered_terms(order):
    """The terms of the replay's strata whose N's order divides, built from
    them as _top_terms builds terms from strata."""
    def terms(d):
        nodes, edges, arrows = _divisible(_replayed(d), order)
        return [(2 - delta, ((n, nu),)) for (nu, n), delta in nodes if delta != 2] \
            + [(1, ((n, nu), (m, mu))) for (nu, n), (mu, m) in edges + arrows]
    return terms


def test_twisted_strata_equal_the_filtered_strata_on_the_sweep_grid():
    assert len(SWEEP_GRID) == 2250
    linking = _linking(builder_nv_example2(1, 1, 1, 1))
    kept = set()
    for t in SWEEP_GRID:
        d = builder_nv_example2(*t)
        for order in TWIST_ORDERS:
            terms = linking.terms(d, order)
            assert terms == _filtered_terms(order)(d), (t, order)
            kept.add((order, len(terms)))
    # order 1 keeps every stratum but the valency-two nodes; 330 keeps one term
    nodes, edges, arrows = _replayed(d)
    full = sum(delta != 2 for _, delta in nodes) + len(edges) + len(arrows)
    assert {n for order, n in kept if order == 1} == {full}
    assert {n for order, n in kept if order == 330} == {1}


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.sampled_from([6, 14, 30]),
       no_n=st.booleans(), order=st.sampled_from([1, 2, 3, 6]), data=st.data())
def test_twisted_strata_equal_the_filtered_replay_property(seed, m, no_n, order, data):
    d = reduce(random_diagram(seed, m))
    n = st.just(0) if no_n else st.integers(0, 6)
    pair = st.tuples(n, st.integers(-4, 8)).filter(lambda p: p != (0, 0))
    pairs = data.draw(st.lists(pair, min_size=len(d.arrows), max_size=len(d.arrows)))
    redrawn = Diagram(d.nodes, d.edges,
                      [Arrowhead(a.node, 1, n, nu) for a, (n, nu) in zip(d.arrows, pairs)])
    linking = _linking(d)
    for x in (d, redrawn):
        for k in {1, order}:
            assert linking.terms(x, k) == _or_none(_outcome(_filtered_terms(k), x))


def test_top_terms_from_the_map_equal_the_filtered_replay_terms(monkeypatch):
    """Random skeletons, form data and orders: _top_terms through the linking
    map has the outcome of the filtered replay, terms or exception alike."""
    # the evictions below stay in a copy of the intern table
    monkeypatch.setattr(diagram, "_skeletons", dict(diagram._skeletons))
    rng = random.Random(17)
    seen = collections.Counter()
    for s in range(36):
        d = reduce(random_diagram(s, (6, 14, 30)[s % 3]))

        def drawn(pairs):
            return Diagram(d.nodes, d.edges, [Arrowhead(a.node, 1, n, nu)
                                              for a, (n, nu) in zip(d.arrows, pairs)])

        forget_plans()
        realizable_refine(drawn([(1, 1)] * len(d.arrows)))
        assert refine.linking_map(drawn([(2, 1)] * len(d.arrows)))  # builds the map
        for k in range(8):
            top = rng.choice([0, 6])  # all N = 0 gives refined nodes with N = 0
            pairs = [(rng.randint(0, top), rng.randint(-4, 8)) for _ in d.arrows]
            pairs = [p if p != (0, 0) else (0, 1) for p in pairs]
            order = rng.choice([None, 1, 2, 3, 6, 7])
            if k % 4 == 1:  # one (0, 0) arrowhead, at a node the order keeps or drops
                j = rng.randrange(len(pairs))
                node_n = diagram.side_weights(drawn(pairs))[0][d.arrows[j].node][0]
                pairs[j] = (0, 0)
                seen["(0, 0) kept" if node_n % (order or 1) == 0 else "(0, 0) dropped"] += 1
            x = drawn(pairs)
            if k % 4 == 2 and _outcome(_replayed, x)[0] != "raised":
                x = ensure_cached(x) if k % 8 == 2 else x.with_caches({x.nodes[0]: (1, 1)})
                seen["cached"] += 1
            if k == 7:  # the skeleton leaves the intern table, and its plan with it
                for i in range(diagram._SKELETON_BOUND):
                    Diagram([f"evict{s}.{i}"], [], [])
                assert x.skeleton not in diagram._skeletons.values()
                seen["evicted"] += 1
            actual = _outcome(lambda y: _top_terms(y, order), x)
            expected = _outcome(_filtered_terms(order or 1), x)
            assert actual == expected, (s, k, order, pairs)
            linking = refine.linking_map(x)
            if linking:
                assert linking.terms(x, order or 1) == _or_none(expected)
                seen["served"] += 1
                nodes = _outcome(_replayed, x)
                if nodes[0] == "strata" and any(n == 0 for (_, n), _ in nodes[1][0]):
                    seen["N = 0 node"] += 1
            seen[expected[:2] if expected[0] == "raised" else "terms"] += 1
    assert min(seen.values()) >= 3, seen
    assert seen["served"] > 150 and seen["terms"] > 150, seen


def test_twisted_strata_raise_what_the_filtered_replay_raises():
    nv2 = builder_nv_example2(1, 1, 1, 1)
    cases = [
        # every N is 0: the input nodes are (0, 6) and (0, 2), a.b.1 is (0, 0)
        Diagram(["a", "b"], [Edge("a", "b", 1, 3)],
                [Arrowhead("a", 1, 0, 2), Arrowhead("b", 1, 0, -1)]),
        # the input node a has (0, 0)
        parse_sd("node a\narrow a 1 0 1\narrow a 1 0 -1\n"),
        # a (0, 0) arrowhead at n1, whose N (66) not every order divides
        Diagram(nv2.nodes, nv2.edges,
                [Arrowhead("n1", 1, 0, 0)] + [a for a in nv2.arrows if a.node != "n1"]),
    ]
    messages = set()
    for bad in cases:
        linking = _linking(_mapped(bad))
        for order in (1, 7, 60, 330):
            expected = _outcome(_filtered_replay(order), bad)
            assert expected[:2] == ("raised", DegenerateDenominator)
            assert linking.terms(bad, order) is None
            assert _outcome(lambda y: _top_terms(y, order), bad) == expected
            messages.add(expected[2])
    assert len(messages) == len(cases)


def test_cached_inputs_take_the_full_strata_with_their_checks():
    forget_plans()
    first, second = builder_nv_example2(1, 2, 3, 4), builder_nv_example2(2, 3, 4, 5)
    for d in (first, second):
        twisted_top_zeta(d, 330)
    assert refine._planned(second).plan.linking
    for d in (second.with_caches({"n5": (66, 5)}), ensure_cached(second)):
        assert _outcome(refine.refined_strata, d) == _outcome(_replayed, d)
        for order in (None, 1, 60, 330):
            expected = _outcome(_filtered_terms(order or 1), d)
            assert _outcome(lambda y: _top_terms(y, order), d) == expected
    with pytest.raises(CacheMismatch, match="node n5: cached"):
        twisted_top_zeta(second.with_caches({"n5": (66, 5)}), 330)


def test_twisted_selection_memo_is_bounded():
    d = builder_nv_example2(1, 2, 3, 4)
    linking = _linking(d)
    for order in range(1, 10):
        linking.terms(d, order)
    ns = tuple(a.N for a in d.arrows)
    assert list(linking.kept) == [(order, ns) for order in range(10 - refine._RECENT, 10)]
    linking.terms(builder_nv_example2(5, 4, 3, 2), 9)  # the same N, a hit
    assert len(linking.kept) == refine._RECENT


def test_sweep_twisted_zetas_never_evaluate_the_full_strata(monkeypatch):
    replays = []

    def counted(d, _original=refine._strata):
        replays.append(d)
        return _original(d)

    monkeypatch.setattr(refine, "_strata", counted)
    forget_plans()
    for t in SWEEP_GRID[:300]:
        d = builder_nv_example2(*t)
        for order in (330, 60):
            poles(twisted_top_zeta(d, order))
    # the first tuple is replayed; the second builds the map, which serves the rest
    assert refine._planned(d).plan.linking
    assert replays == [realizable_refine(builder_nv_example2(*SWEEP_GRID[0]))]
    top_zeta(d)  # the plain zeta reads the map through order 1
    assert len(replays) == 1


def test_mapped_inputs_render_as_their_replay():
    forget_plans()
    checked = 0
    for t in SWEEP_GRID[:201]:
        d = builder_nv_example2(*t)
        twisted_top_zeta(d, 330)  # the second tuple builds the map
        if not refine._planned(d).plan.linking:
            continue
        cached = ensure_cached(d)  # takes the replay
        for fn in (top_zeta, motivic_zeta, lambda x: twisted_top_zeta(x, 60)):
            assert fn(d).render() == fn(cached).render(), t
        checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# When a skeleton gets its linking map.
# ---------------------------------------------------------------------------


@pytest.fixture
def maps_built(monkeypatch):
    """Counts the linking maps built, from an empty plan memo."""
    built = []

    def counted(plan, d, _original=refine._Linking):
        built.append(d)
        return _original(plan, d)

    monkeypatch.setattr(refine, "_Linking", counted)
    forget_plans()
    return built


def test_one_input_builds_no_linking_map(maps_built):
    d = builder_nv_example2(2, 3, 4, 5)
    for _ in range(2):
        twisted_top_zeta(d, 330)
        twisted_top_zeta(d, 60)
        top_zeta(d)
        motivic_zeta(d)
    # equal to it, or the same data with caches, repeats its arrowheads
    twisted_top_zeta(builder_nv_example2(2, 3, 4, 5), 60)
    top_zeta(ensure_cached(d))
    assert not maps_built
    assert refine._planned(d).plan.linking is None


def test_the_second_standard_input_builds_one_linking_map(maps_built):
    first, second = builder_nv_example2(1, 2, 3, 4), builder_nv_example2(2, 3, 4, 5)
    twisted_top_zeta(first, 330)
    assert not maps_built
    for d in (second, builder_nv_example2(5, 4, 3, 2), first, second):
        twisted_top_zeta(d, 330)
        twisted_top_zeta(d, 60)
        assert refine.refined_strata(d) == refine.refined_strata(d) == _replayed(d)
    assert maps_built == [second]


def test_decorated_or_invalid_skeletons_build_no_linking_map(maps_built):
    halves = []
    for t in [(1, 1, 1, 1), (2, 3, 4, 5), (1, 2, 3, 4)]:
        r = splice(builder_nv_example2(*t), ("n3", "n4"))
        halves.append(r.left if r.left.has_decorated_arrow() else r.right)
    assert len({h.skeleton for h in halves}) == 1
    assert len({h.arrows for h in halves}) == 3
    invalid = [Diagram(["v"], [], [Arrowhead("v", 1, n, 1), Arrowhead("v", 1, 2, 1)])
               for n in (-1, -2, 3)]
    assert validate(invalid[1]) and not validate(invalid[2])
    for d in halves + invalid:
        for _ in range(2):
            assert _top_terms(d) == _filtered_terms(1)(d)
    assert not maps_built


# ---------------------------------------------------------------------------
# The refinement budget.
# ---------------------------------------------------------------------------


def test_chain_length_matches_the_subdivision():
    rng = random.Random(5)
    checked = 0
    while checked < 400:
        u, v = [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(2)]
        if is_primitive(u) and is_primitive(v) and det2(u, v) >= 1:
            assert refine._chain_length(u, v) == len(smooth_subdivide_minimal(u, v).interior)
            checked += 1
    # Fibonacci cones: the longest runs of Euclidean steps for their size
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for a, b, c in zip(fib, fib[1:], fib[2:]):
        u, v = (1, 0), (b, c)
        assert refine._chain_length(u, v) == len(smooth_subdivide_minimal(u, v).interior)
    # cones smooth_subdivide_minimal refuses count nothing
    assert refine._chain_length((2, 0), (1, 1)) == refine._chain_length((0, 1), (1, 0)) == 0
    assert refine._chain_length((1, 1), (1, 10 ** 100)) == 10 ** 100 - 2


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a, b


_vector = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(u=_vector, v=_vector, k=st.integers(2, 400),
       shear=st.lists(st.tuples(st.booleans(), st.integers(-5, 5)), max_size=6))
def test_minimal_chain_by_the_recurrence_equals_the_per_vector_routine(u, v, k, shear):
    cones = []
    if is_primitive(u) and is_primitive(v) and det2(u, v):
        cones.append((u, v) if det2(u, v) > 0 else (v, u))
    # a Fibonacci cone, the longest chain for its size, moved by a unimodular map
    w_l, w_r = (1, 0), _fibonacci(k)
    for upper, t in shear:
        def move(w):
            return (w[0] + t * w[1], w[1]) if upper else (w[0], w[1] + t * w[0])
        w_l, w_r = move(w_l), move(w_r)
    cones.append((w_l, w_r))
    for w_l, w_r in cones:
        chain = minimal_chain_per_vector(w_l, w_r)
        assert list(smooth_subdivide_minimal(w_l, w_r).vectors) == chain


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(a=st.just(0) | st.integers(-10 ** 40, 10 ** 40),
       b=st.just(0) | st.integers(-10 ** 40, 10 ** 40))
def test_ext_gcd_is_a_bezout_identity(a, b):
    g, x, y = refine._ext_gcd(a, b)
    assert a * x + b * y == g == gcd(a, b)


def _calls_itself(fn):
    """Whether fn calls its own name, bare or as self.name or cls.name."""
    for call in ast.walk(fn):
        f = getattr(call, "func", None)
        if isinstance(f, ast.Name) and f.id == fn.name or (
                isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
            return True
    return False


def test_no_function_calls_itself():
    # a recursion that grows with the input ends in RecursionError on a big one
    recursive = [f"{path.name}:{fn.name}"
                 for path in sorted(Path(refine.__file__).parent.glob("*.py"))
                 for fn in ast.walk(ast.parse(path.read_text()))
                 if isinstance(fn, ast.FunctionDef) and _calls_itself(fn)]
    assert recursive == []


def _budget_corpus():
    for name in EXAMPLES:
        yield example(name)
    for s in range(20):
        for m in (6, 14, 30):
            yield reduce(random_diagram(s, m))
    for k in (2, 3, 7, 30, 301):
        yield _long_chain(k)
    for s in range(6):  # halves with decorated arrowheads and full caches
        d = reduce(random_diagram(s, 14))
        for e in d.edges:
            r = splice(d, (e.u, e.v))
            yield r.left
            yield r.right


def _arrow_cones(d):
    return [refine._arrow_cone(d, a) for a in d.arrows if a.dec != 1]


def test_refined_size_is_the_refinement_size():
    decorated = 0
    for d in _budget_corpus():
        cones = [refine._edge_cone(d, e) for e in d.edges] + _arrow_cones(d)
        assert refine._refined_size(d, cones) == len(realizable_refine(d).nodes)
        if d.has_decorated_arrow():
            decorated += 1
            assert (refine._refined_size(d, _arrow_cones(d))
                    == len(refine_all_arrows(d).nodes))
    assert decorated > 10


def test_hostile_chain_is_refused_before_any_chain(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(refine, "_chain", refused)
    d = parse_sd("node a\nnode b\nedge a b 1 10000000\narrow a 1 1 1\narrow b 1 1 1\n")
    for fn in (realizable_refine, top_zeta, motivic_zeta,
               lambda x: twisted_top_zeta(x, 2)):
        with pytest.raises(RefinementTooLarge, match="would have 10000000 nodes"):
            fn(d)
    decorated = Diagram(["v"], [], [Arrowhead("v", 10 ** 7, 1, 1), Arrowhead("v", 1, 0, 1)],
                        {"v": (10 ** 7, 10 ** 7 + 1)})
    for fn in (realizable_refine, refine_all_arrows):
        with pytest.raises(RefinementTooLarge):
            fn(decorated)


def test_budget_admits_its_bound(monkeypatch):
    monkeypatch.setattr(refine, "MAX_REFINED_NODES", 30)
    fits, over = _long_chain(30), _long_chain(31)
    forget_plans()
    assert len(realizable_refine(fits).nodes) == 30
    with pytest.raises(RefinementTooLarge, match="31 nodes, more than the 30 allowed"):
        realizable_refine(over)
    half = next(h for h in _budget_corpus() if h.has_decorated_arrow())
    size = len(refine_all_arrows(half).nodes)
    monkeypatch.setattr(refine, "MAX_REFINED_NODES", size - 1)
    with pytest.raises(RefinementTooLarge):
        refine_all_arrows(half)
