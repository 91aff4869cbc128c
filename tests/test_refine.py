import random

import pytest

from splicezeta import refine
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
    SpliceZetaError,
)
from splicezeta.refine import (
    Subdivision,
    canonical_form,
    det2,
    is_realizable,
    isomorphic,
    realizable_refine,
    reduce,
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

from oracles import brute_minimal_chains, toric_values


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
    refine._plans.clear()
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
    refine._plans.clear()
    realizable_refine(builder_nv_example2(1, 1, 1, 1))
    realizable_refine(_long_chain(30, 7))
    inserted = _count_chains(monkeypatch)
    for t, cold in zip(grid, colds):
        hit = realizable_refine(builder_nv_example2(*t))
        assert hit == cold and write_sd(hit) == write_sd(cold)
    for d, cold in zip(chains, chain_colds):
        assert realizable_refine(d) == cold
    assert not inserted
    assert len(refine._plans) == 2


def _raises_alike(bad, good):
    """The error of refining bad on a cold memo, which a plan hit repeats."""
    refine._plans.clear()
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
    refine._plans.clear()
    first = _long_chain(2)
    realizable_refine(first)
    for k in range(3, refine._PLAN_BOUND + 12):
        realizable_refine(_long_chain(k))
        assert len(refine._plans) <= refine._PLAN_BOUND
    assert len(refine._plans) == refine._PLAN_BOUND
    # the oldest skeleton was dropped, and refines as before
    assert realizable_refine(first) == _cold(first)
