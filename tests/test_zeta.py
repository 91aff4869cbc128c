import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from splicezeta import zeta
from splicezeta.algebra import Poly2, RatFuncS
from splicezeta.diagram import Arrowhead, Diagram, Edge, ensure_cached
from splicezeta.errors import DegenerateDenominator, ExpansionTooLarge, PoleAtOne
from splicezeta.refine import Subdivision, realizable_refine, reduce, refine_edge, smooth_subdivide_minimal
from splicezeta.diagram import cone_vector, multiplicities, valency
from splicezeta.sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    example,
    parse_sd,
    random_diagram,
)
from splicezeta.splice import correction_term, splice, verify_splice_motivic
from splicezeta.zeta import (
    L_MINUS_1,
    ZetaExpr,
    _top_terms,
    motivic_zeta,
    poles,
    specialize_chi_top,
    top_zeta,
    twisted_top_zeta,
)

from oracles import cleared_numerator, fold_sum, point_walk_vanishes, sum_terms_at

L1SQ = Poly2({(2, 0): 1, (1, 0): -2, (0, 0): 1})


def monomial_closed_form(m, mp, i, ip):
    return ZetaExpr.term(L1SQ, ((i, m), (ip, mp)))


def random_smooth_refinement(d, rng):
    """One random, possibly non-minimal edge refinement."""
    d = ensure_cached(d)
    if not d.edges:
        return d
    e = rng.choice(list(d.edges))
    wl = cone_vector(d, e, e.u)
    dv, outer = cone_vector(d, e, e.v)
    wr = (outer, dv)
    chain = list(smooth_subdivide_minimal(wl, wr).vectors)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chain) - 1)
        chain.insert(k + 1, (chain[k][0] + chain[k + 1][0],
                             chain[k][1] + chain[k + 1][1]))
    return refine_edge(d, e, Subdivision(chain))


def test_top_zeta_cusp_classical():
    z = top_zeta(builder_cusp(0, 0))
    assert str(z) == "(4*s + 5) / ((1*s + 1)*(6*s + 5))"
    assert poles(z) == [(Fraction(-1), 1), (Fraction(-5, 6), 1)]


def test_top_zeta_cusp_against_term_oracle():
    d = realizable_refine(builder_cusp(0, 0))
    table = multiplicities(d.without_caches())
    terms = []
    for v in d.nodes:
        n, nu = table[v]
        delta = valency(d, v, "full")
        if delta != 2:
            terms.append((2 - delta, [(n, nu)]))
    for e in d.edges:
        terms.append((1, [table[e.u], table[e.v]]))
    for a in d.arrows:
        terms.append((1, [table[a.node], (a.N, a.nu)]))
    z = top_zeta(builder_cusp(0, 0))
    for s in (0, 1, 2, Fraction(1, 3)):
        assert z.evaluate(s) == sum_terms_at(terms, s)


@pytest.mark.parametrize("order", [None, 2, 3, 5])
def test_top_sum_keeps_the_fold_representation(order):
    diagrams = [example(name) for name in sorted(EXAMPLES)]
    diagrams += [reduce(random_diagram(s, m)) for s in range(12) for m in (6, 14, 30)]
    nv2, large = example("nv2"), [reduce(random_diagram(0, m)) for m in (160, 320)]
    diagrams += large
    for d, edges in [(nv2, nv2.edges)] + [(d, d.edges[:1]) for d in large]:
        for e in edges:
            r = splice(d, (e.u, e.v))
            diagrams += [r.left, r.right]
    for d in diagrams:
        terms = _top_terms(d, order)
        z = top_zeta(d) if order is None else twisted_top_zeta(d, order)
        expected = fold_sum(terms)
        assert (z.num, z.den, z.scale) == (expected.num, expected.den, expected.scale)
        assert z.render() == expected.render()


def test_top_zeta_monomial_identity():
    for m, mp, i, ip in [(1, 1, 1, 1), (2, 3, 1, 1), (4, 5, 2, 3)]:
        z = top_zeta(builder_monomial(m, mp, i, ip))
        assert z == RatFuncS.from_term(1, [(m, i), (mp, ip)])


def test_motivic_zeta_monomial_identity():
    for m, mp, i, ip in [(1, 1, 1, 1), (2, 3, 1, 1), (3, 4, 2, 5)]:
        assert motivic_zeta(builder_monomial(m, mp, i, ip)) == \
            monomial_closed_form(m, mp, i, ip)


def test_twisted_order_one_equals_plain():
    for d in [builder_cusp(2, 4), builder_nv_example2(1, 1, 1, 1),
              random_diagram(3, 5)]:
        assert twisted_top_zeta(d, 1) == top_zeta(d)


def test_twisted_cusp_order_two():
    z = twisted_top_zeta(builder_cusp(0, 0), 2)
    assert str(z) == "2 / (6*s + 5)"


def test_twisted_cusp_x2y4_order_six():
    z = twisted_top_zeta(builder_cusp(2, 4), 6)
    assert str(z) == "-1 / (6*s + 21)"
    assert poles(z) == [(Fraction(-7, 2), 1)]


def test_twisted_cusp_x3y3_order_six():
    z = twisted_top_zeta(builder_cusp(3, 3), 6)
    assert str(z) == "-1 / (6*s + 20)"


def test_twisted_with_no_surviving_strata_is_zero():
    z = twisted_top_zeta(builder_cusp(0, 0), 1000)
    assert z.is_zero()
    assert str(z) == "0"
    assert poles(z) == []


def test_specialize_chi_top_cusp():
    d = builder_cusp(0, 0)
    assert specialize_chi_top(motivic_zeta(d), 1) == Fraction(9, 22)


def test_specialize_chi_top_monomial():
    z = motivic_zeta(builder_monomial(1, 1, 1, 1))
    assert specialize_chi_top(z, 2) == Fraction(1, 9)


def test_specialize_chi_top_degenerate_pair():
    # a (nu, N) pair with nu + n*N = 0 has no Euler specialization
    d = builder_monomial(1, 1, 1, 1)
    z = motivic_zeta(d)
    bad = z + ZetaExpr.term(Poly2.one(), ((-2, 1),))
    with pytest.raises(PoleAtOne):
        specialize_chi_top(bad, 2)


def test_specialize_chi_top_surviving_pole():
    with pytest.raises(PoleAtOne):
        specialize_chi_top(ZetaExpr.term(Poly2.one(), ((1, 1),)), 1)


def test_specialize_chi_top_cancels_within_a_term():
    # the pair (1, 0) is the factor 1 / (L - 1) for every n
    l_sq_minus_1 = Poly2({(2, 0): 1, (0, 0): -1})
    for n in (1, 2, 3):
        assert specialize_chi_top(ZetaExpr.term(l_sq_minus_1, ((1, 0),)), n) == 2
        assert specialize_chi_top(ZetaExpr.term(L1SQ, ((1, 0),)), n) == 0
        assert specialize_chi_top(
            ZetaExpr.term(Poly2({(1, 0): 1, (0, 0): -1}), ((2, 0),)), n) == Fraction(1, 2)


def test_specialize_chi_top_negative_laurent_shift():
    # L^-4 (L^2 - 1) / (L - 1) and L^-7 (L^2 - 1) / (L^(1 + n) - 1)
    for n in (1, 2, 3):
        shifted = Poly2({(-2, 0): 1, (-4, 0): -1})
        assert specialize_chi_top(ZetaExpr.term(shifted, ((1, 0),)), n) == 2
        shifted = Poly2({(-5, 0): 1, (-7, 0): -1})
        assert specialize_chi_top(ZetaExpr.term(shifted, ((1, 1),)), n) == Fraction(2, 1 + n)


def test_specialize_chi_top_sum_cancels_to_zero():
    # 1 / (L - 1) - (L + 1) / (L^2 - 1): both terms have a pole at L = 1
    z = (ZetaExpr.term(Poly2.one(), ((1, 0),))
         - ZetaExpr.term(Poly2({(1, 0): 1, (0, 0): 1}), ((2, 0),)))
    assert z.is_zero()
    for n in (1, 2, 3):
        assert specialize_chi_top(z, n) == 0


def test_specialize_chi_top_respects_equality():
    # a factor T^N / (L^nu - T^N) is g(y) = 1 / (y - 1) with y = L^nu T^-N,
    # and g(a) g(b) = g(ab) (1 + g(a) + g(b)); so z is zero, while its terms
    # have different T-degrees and poles at L = 1 that cancel only in the sum
    for a, b in [((1, 1), (2, 1)), ((1, 0), (1, 1)), ((2, 3), (1, 1))]:
        ab = (a[0] + b[0], a[1] + b[1])
        one = Poly2.one()
        z = (ZetaExpr.term(one, (a, b)) - ZetaExpr.term(one, (ab,))
             - ZetaExpr.term(one, (ab, a)) - ZetaExpr.term(one, (ab, b)))
        assert z.is_zero()
        for n in (1, 2, 3):
            assert specialize_chi_top(z, n) == 0


def test_avatar_identity_bundled():
    diagrams = [builder_cusp(0, 0), builder_cusp(4, 5), builder_cusp(2, 4),
                builder_monomial(2, 3, 1, 1), builder_nv_example2(1, 1, 1, 1)]
    for d in diagrams:
        z = motivic_zeta(d)
        t = top_zeta(d)
        for n in (1, 2, 3):
            assert specialize_chi_top(z, n) == t.evaluate(n)


def test_avatar_identity_generated():
    for seed in range(40):
        d = reduce(random_diagram(seed, 5))
        z = motivic_zeta(d)
        t = top_zeta(d)
        for n in (1, 2, 3):
            assert specialize_chi_top(z, n) == t.evaluate(n)


def chain_diagram(k):
    """Nodes a, b; edge a-b decorated (1, k); arrowheads a:(1,1,1) twice,
    b:(1,1,1) and b:(1,0,2)."""
    return Diagram(["a", "b"], [Edge("a", "b", 1, k)],
                   [Arrowhead("a", 1, 1, 1), Arrowhead("a", 1, 1, 1),
                    Arrowhead("b", 1, 1, 1), Arrowhead("b", 1, 0, 2)])


LARGE = {f"chain{k}": chain_diagram(k) for k in (100, 300)}
LARGE.update((f"random{seed}-30", reduce(random_diagram(seed, 30)))
             for seed in range(20))


@pytest.mark.parametrize("name", LARGE)
def test_avatar_identity_large(name):
    d = LARGE[name]
    z = motivic_zeta(d)
    t = top_zeta(d)
    for n in (1, 2, 3):
        assert specialize_chi_top(z, n) == t.evaluate(n)


def test_refinement_invariance_all_kinds():
    rng = random.Random(17)
    for seed in range(25):
        d = reduce(random_diagram(seed, 5))
        base = (motivic_zeta(d), top_zeta(d),
                [twisted_top_zeta(d, e) for e in (1, 2, 3, 6)])
        r = ensure_cached(d)
        for _ in range(3):
            r = random_smooth_refinement(r, rng)
        assert motivic_zeta(r) == base[0]
        assert top_zeta(r) == base[1]
        for e, expect in zip((1, 2, 3, 6), base[2]):
            assert twisted_top_zeta(r, e) == expect


def test_zeta_expr_equality_consistency():
    rng = random.Random(23)
    for _ in range(30):
        pairs = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
        pairs = [p for p in pairs if p != (0, 0)] or [(1, 1)]
        a = ZetaExpr.term(Poly2.const(rng.randint(-2, 2)), (pairs[0],))
        b = ZetaExpr.term(Poly2.lvar(), tuple(pairs[:2]))
        assert a + b == b + a
        assert (a + b) - b == a
        assert a == a
    # equality across different assemblies
    x = ZetaExpr.term(Poly2.one(), ((1, 1), (1, 1)))
    y = ZetaExpr.term(Poly2.one(), ((1, 1),))
    assert x + y != y
    assert (x + y) - x == y


def test_zeta_expr_rejects_negative_n():
    # equality expands in nonnegative powers of T
    with pytest.raises(DegenerateDenominator):
        ZetaExpr.term(Poly2.one(), ((1, -1),))
    with pytest.raises(DegenerateDenominator):
        ZetaExpr({((2, 1), (3, -2)): Poly2.one()})


def test_equality_agrees_with_clearing_on_splice_residuals():
    rng, off_rng = random.Random(43), random.Random(59)
    checked, offs = {6: 0, 14: 0}, 0
    for m in checked:
        for seed in range(30):
            d = reduce(random_diagram(seed, m))
            whole = motivic_zeta(d)
            for e in d.edges:
                r = splice(d, (e.u, e.v))
                rhs = (motivic_zeta(r.left) + motivic_zeta(r.right)
                       - correction_term(*r.data.as_tuple()))
                if sum(abs(nu) * k for (nu, _), k in (whole - rhs).pairs().items()) > 150:
                    continue  # too large to clear
                assert whole == rhs
                assert cleared_numerator(whole - rhs).is_zero()
                assert point_walk_vanishes(whole - rhs)
                pair = rng.choice(sorted(whole.pairs()))
                bumped = rhs + ZetaExpr.term(Poly2.lvar(rng.randint(-1, 2)), (pair,))
                assert whole != bumped
                assert not cleared_numerator(whole - bumped).is_zero()
                assert not point_walk_vanishes(whole - bumped)
                if (whole - rhs).terms:
                    off = one_monomial_off(whole - rhs, off_rng)
                    assert not off.is_zero() and not point_walk_vanishes(off)
                    offs += 1
                checked[m] += 1
    assert min(checked.values()) >= 50 and offs >= 50


# N = 0 pairs, nu <= 0, and pairs that repeat within a term
EQ_PAIRS = [(1, 1), (2, 1), (1, 2), (3, 2), (5, 3), (0, 1), (-1, 2), (-2, 1),
            (1, 0), (2, 0), (-1, 0)]


def random_coeff(rng):
    """A Laurent polynomial in L that may carry powers of T."""
    return Poly2({(rng.randint(-2, 3), rng.randint(0, 2)): rng.choice((-2, -1, 1, 3))
                  for _ in range(rng.randint(1, 3))})


def random_zeta_expr(rng):
    z = ZetaExpr.zero()
    for _ in range(rng.randint(0, 5)):
        pairs = [rng.choice(EQ_PAIRS) for _ in range(rng.randint(0, 3))]
        z = z + ZetaExpr.term(random_coeff(rng), pairs)
    return z


def zero_identity(rng):
    """c * (g(a) g(b) - g(ab) (1 + g(a) + g(b))), which is zero, where g is
    the factor T^N / (L^nu - T^N) of a pair, i.e. 1 / (y - 1), y = L^nu T^-N."""
    a, b = rng.choice(EQ_PAIRS), rng.choice(EQ_PAIRS)
    ab = (a[0] + b[0], a[1] + b[1])
    if ab == (0, 0):
        return ZetaExpr.zero()
    c = random_coeff(rng)
    return (ZetaExpr.term(c, (a, b)) - ZetaExpr.term(c, (ab,))
            - ZetaExpr.term(c, (ab, a)) - ZetaExpr.term(c, (ab, b)))


def test_equality_agrees_with_clearing_on_synthetic_sums():
    rng = random.Random(47)
    zeros = 0
    for _ in range(600):
        x = random_zeta_expr(rng)
        if rng.random() < 0.5:
            y = x + zero_identity(rng) + zero_identity(rng)
        else:
            y = random_zeta_expr(rng)
        if rng.random() < 0.3:
            y = y + ZetaExpr.term(random_coeff(rng), [rng.choice(EQ_PAIRS)])
        expect = cleared_numerator(x - y).is_zero()
        assert (x == y) == expect, (x, y)
        assert point_walk_vanishes(x - y) == expect, (x, y)
        zeros += expect
    assert 100 <= zeros <= 500


def n0_identity(rng):
    """c (L^nu - 1) G g(nu, 0) - c G, which is zero: g(nu, 0) = 1 / (L^nu - 1)
    for a pair with N = 0, and G is a product of factors.  Its two
    coefficients differ by the factor L^nu - 1, which vanishes at L = 1."""
    nu = rng.choice((1, 2, -1))
    pairs = [rng.choice(EQ_PAIRS) for _ in range(rng.randint(0, 2))]
    c = random_coeff(rng)
    return (ZetaExpr.term(c * Poly2({(nu, 0): 1, (0, 0): -1}), pairs + [(nu, 0)])
            - ZetaExpr.term(c, pairs))


def test_content_removal_agrees_with_clearing():
    rng = random.Random(53)
    zeros = 0
    for k in range(600):
        if rng.random() < 0.5:
            z = zero_identity(rng) + n0_identity(rng)
        else:
            z = random_zeta_expr(rng) + n0_identity(rng)
        if rng.random() < 0.3:
            z = z + ZetaExpr.term(random_coeff(rng), [rng.choice(EQ_PAIRS)])
        content = Poly2.one()
        for _ in range(k % 4):
            content = content * L_MINUS_1
        z = ZetaExpr({key: c * content for key, c in z.terms.items()})
        expect = cleared_numerator(z).is_zero()
        assert (z == ZetaExpr.zero()) == expect, z
        assert point_walk_vanishes(z) == expect, z
        zeros += expect
    assert 200 <= zeros <= 400


def cusp_shape(p, q):
    """The x^p = y^q cusp shape: one chain whose decorations are p and q."""
    return parse_sd(f"node n1\nnode n2\nnode n3\nedge n1 n2 1 {q}\n"
                    f"edge n2 n3 {p} 2\narrow n2 1 1 1\narrow n1 1 0 1\n"
                    "arrow n3 1 0 1\n")


def splice_residual(d, key):
    """Z(G) + correction - Z(G_L) - Z(G_R) for the splice of d at key."""
    r = splice(d, key)
    return (motivic_zeta(d) + correction_term(*r.data.as_tuple())
            - motivic_zeta(r.left) - motivic_zeta(r.right))


def one_monomial_off(z, rng):
    """z with one monomial c L^a T^b added to the coefficient of one term,
    which is nonzero when z is zero: a single term never vanishes."""
    key = rng.choice(sorted(z.terms))
    terms = dict(z.terms)
    terms[key] = terms[key] + Poly2({(rng.randint(-3, 3), rng.randint(0, 2)):
                                     rng.choice((-2, -1, 1, 3))})
    return ZetaExpr(terms)


@pytest.mark.parametrize("p, q", [(2, 3), (13, 21), (55, 89)])
def test_equality_agrees_with_the_point_walk_on_the_cusp_family(p, q):
    rng = random.Random(p * q)
    d = cusp_shape(p, q)
    for e in d.edges:
        z = splice_residual(d, (e.u, e.v))
        assert z.terms
        assert z.is_zero() and point_walk_vanishes(z)
        for _ in range(6):
            off = one_monomial_off(z, rng)
            assert not off.is_zero() and not point_walk_vanishes(off)


def test_cusp_splice_identity_decides_within_a_cpu_bound():
    # a residual of this shape covers 8.7 M lattice points but only about
    # 5 700 rows, so only a test that works on rows meets the bound
    d = cusp_shape(987, 1597)
    start = time.process_time()
    assert all(verify_splice_motivic(d, (e.u, e.v)) for e in d.edges)
    assert time.process_time() - start < 5


def test_zeta_expr_render():
    z = motivic_zeta(builder_monomial(1, 1, 1, 1))
    assert str(z) == ("(2*L^2 - 4*L + 2) * T^3/((L - T)*(L^2 - T^2)) "
                      "+ (L^2 - 2*L + 1) * T^2/(L^2 - T^2)")
    assert " " not in z.render(compact=True)
    assert str(ZetaExpr.zero()) == "0"


def test_monomial_pole_multiplicity():
    z = top_zeta(builder_monomial(1, 1, 1, 1))
    assert poles(z) == [(Fraction(-1), 2)]


def _divided_all_at_once(coeffs):
    """_without_content as each round once computed every quotient first."""
    while coeffs:
        quotients = [zeta._over_l_minus_1(c) for c in coeffs]
        if any(q is None for q in quotients):
            return coeffs
        coeffs = quotients
    return coeffs


def test_content_removal_stops_at_the_first_coefficient_it_cannot_divide():
    rng = random.Random(59)
    for k in range(300):
        content = Poly2.one()
        for _ in range(k % 4):
            content = content * L_MINUS_1
        coeffs = [random_coeff(rng) * content for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            coeffs[rng.randrange(len(coeffs))] *= L_MINUS_1
        assert zeta._without_content(coeffs) == _divided_all_at_once(coeffs)
    # one row with a nonzero value at L = 1 refuses the whole coefficient
    assert zeta._over_l_minus_1(Poly2({(0, 0): 1, (1, 0): -1, (5, 1): 1})) is None


# ---------------------------------------------------------------------------
# Budget 2: the size of the expansion behind ==.
# ---------------------------------------------------------------------------


@pytest.fixture
def expansion_sizes(monkeypatch):
    """The largest progression and support counts each _budget call sees."""
    seen = {}

    def recorded(count, limit, what, _original=zeta._budget):
        seen[what] = max(seen.get(what, 0), count)
        return _original(count, limit, what)

    monkeypatch.setattr(zeta, "_budget", recorded)
    return seen


def test_expansion_budget_admits_its_bounds(monkeypatch, expansion_sizes):
    d = builder_nv_example2(1, 1, 1, 1)
    assert verify_splice_motivic(d, ("n3", "n4"))
    assert expansion_sizes == {"progressions": 1370, "support points": 6818}
    monkeypatch.setattr(zeta, "MAX_PROGRESSIONS", 1370)
    monkeypatch.setattr(zeta, "MAX_SUPPORT", 6818)
    assert verify_splice_motivic(d, ("n3", "n4"))
    monkeypatch.setattr(zeta, "MAX_SUPPORT", 6817)
    with pytest.raises(ExpansionTooLarge,
                       match="at least 6818 support points, more than the 6817 allowed"):
        verify_splice_motivic(d, ("n3", "n4"))
    monkeypatch.setattr(zeta, "MAX_PROGRESSIONS", 1369)
    with pytest.raises(ExpansionTooLarge,
                       match="at least 1370 progressions, more than the 1369 allowed"):
        verify_splice_motivic(d, ("n3", "n4"))


def test_a_cone_is_refused_before_its_corners_are_listed(monkeypatch):
    # the step N = 1 before the last would list bound - 1 = 100 001 corners
    monkeypatch.setattr(zeta, "MAX_PROGRESSIONS", 1000)
    z = (ZetaExpr.term(Poly2.one(), [(1, 1), (1, 1)])
         + ZetaExpr.term(Poly2.one(), [(1, 100_000)]))
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionTooLarge, match="at least 100001 progressions"):
            z.is_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_hostile_chains_are_refused_within_seconds():
    # the chain a-b decorated (1, k) with arrowheads a:(1,1,1) twice,
    # b:(1,1,1) and b:(1,0,2): its residual at k = 100 has 13.5 M support
    # points, and the two-arrowhead chain at k = 1000 3.75 M progressions
    chain4 = parse_sd("node a\nnode b\nedge a b 1 100\narrow a 1 1 1\narrow a 1 1 1\n"
                      "arrow b 1 1 1\narrow b 1 0 2\n")
    chain2 = parse_sd("node a\nnode b\nedge a b 1 1000\narrow a 1 1 1\narrow b 1 1 1\n")
    start = time.process_time()
    with pytest.raises(ExpansionTooLarge, match="13526450 support points"):
        verify_splice_motivic(chain4, ("a", "b"))
    with pytest.raises(ExpansionTooLarge, match="progressions, more than the 1000000"):
        verify_splice_motivic(chain2, ("a", "b"))
    assert time.process_time() - start < 5
