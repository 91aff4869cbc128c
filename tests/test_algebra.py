import random
from fractions import Fraction

import pytest

from splicezeta.algebra import CycloProduct, Poly2, RatFuncS, _partial_fraction_sum
from splicezeta.sdio import EXAMPLES, builder_nv_example2, example
from splicezeta.zeta import top_zeta, twisted_top_zeta

from oracles import (
    _phi_multiplicity,
    binomial_l_minus_t,
    fold_sum,
    mul_binomial,
    rat_add,
    rat_sub,
    root_order,
    sum_terms_at,
)


def random_poly(rng, size=5):
    return Poly2({(rng.randint(-3, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                  for _ in range(size)})


def test_poly2_ring_laws():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * Poly2.one() == a
        assert (a - a).is_zero()


def test_poly2_mul_binomial_matches_mul():
    rng = random.Random(3)
    for _ in range(40):
        p = random_poly(rng)
        nu, n = rng.randint(-3, 4), rng.randint(0, 4)
        assert mul_binomial(p, nu, n) == p * binomial_l_minus_t(nu, n)


def test_poly2_render_is_sorted_and_stable():
    p = Poly2({(2, 0): 1, (0, 1): -3, (0, 0): 2})
    assert str(p) == "L^2 - 3*T + 2"
    assert str(Poly2.zero()) == "0"
    assert str(Poly2({(-2, 3): 1})) == "L^-2*T^3"


# ---------------------------------------------------------------------------
# RatFuncS
# ---------------------------------------------------------------------------


def test_ratfunc_basic_sum_and_render():
    # 1/(2s+2) + 1/(3s+3) = 5 / (6*(s+1)) up to factor bookkeeping
    r = rat_add(RatFuncS.from_term(1, [(2, 2)]), RatFuncS.from_term(1, [(3, 3)]))
    for s in (0, 1, Fraction(1, 2), 7):
        assert r.evaluate(s) == Fraction(5, 6) / (s + 1)


def test_ratfunc_cancellation_keeps_primitive_factor():
    # the cusp sum collapses onto (4s+5)/((s+1)(6s+5))
    terms = [
        (1, [(2, 2)]), (1, [(3, 3)]), (-1, [(6, 5)]),
        (1, [(2, 2), (6, 5)]), (1, [(3, 3), (6, 5)]), (1, [(6, 5), (1, 1)]),
    ]
    acc = RatFuncS.zero()
    for chi, pairs in terms:
        acc = rat_add(acc, RatFuncS.from_term(chi, pairs))
    assert str(acc) == "(4*s + 5) / ((1*s + 1)*(6*s + 5))"
    assert acc.pole_list() == [(Fraction(-1), 1), (Fraction(-5, 6), 1)]
    # agreement with plain term-by-term evaluation
    for s in (0, 1, 2, Fraction(3, 7)):
        assert acc.evaluate(s) == sum_terms_at(terms, s)


def test_ratfunc_value_equality_across_representations():
    a = RatFuncS.from_term(2, [(6, 21)])
    b = RatFuncS.from_term(2, [(2, 7)])
    # 2/(6s+21) = (2/3)/(2s+7)
    assert rat_add(rat_add(a, a), a) == b
    assert not (a == b)


def test_ratfunc_constant_factor_folds_into_scale():
    r = RatFuncS.from_term(1, [(0, 3), (2, 2)])
    assert r.evaluate(0) == Fraction(1, 6)
    assert "3" in str(r)


def test_ratfunc_random_reexpansion_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        terms = []
        for _ in range(rng.randint(1, 5)):
            pairs = [(rng.randint(0, 4), rng.randint(-3, 5))
                     for _ in range(rng.randint(1, 2))]
            pairs = [p for p in pairs if p != (0, 0)] or [(1, 1)]
            terms.append((rng.randint(-3, 3), pairs))
        acc = RatFuncS.zero()
        for chi, pairs in terms:
            acc = rat_add(acc, RatFuncS.from_term(chi, pairs))
        again = rat_add(acc, RatFuncS.zero())
        assert again == acc
        assert rat_sub(acc, acc).is_zero()
        s = Fraction(rng.randint(50, 99), 7)
        assert acc.evaluate(s) == sum_terms_at(terms, s)


def test_ratfunc_negative_nu_rendering():
    r = RatFuncS.from_term(1, [(2, -7)])
    assert str(r) == "1 / (2*s - 7)"


def rep(r):
    return r.num, r.den, r.scale


# roots shared by proportional pairs ((1, 2), (2, 4), (3, 6) and two more
# families), constants (N = 0, also negative), negative nu and N
PAIR_POOL = [(1, 2), (2, 4), (3, 6), (1, -1), (2, -2), (-1, 1), (2, 3), (4, 6),
             (1, 1), (2, 1), (3, -4), (1, 0), (5, 7), (0, 3), (0, -2)]


def synthetic_terms(rng):
    terms = []
    for _ in range(rng.randint(0, 8)):
        pairs = [rng.choice(PAIR_POOL) for _ in range(rng.randint(0, 2))]
        terms.append((rng.choice((-2, -1, 0, 1, 1, 2, 3)), pairs))
    if terms and rng.random() < 0.3:
        # a prefix that cancels to zero, followed by part of it again
        terms += [(-chi, pairs) for chi, pairs in terms]
        terms += terms[:rng.randint(0, len(terms) // 2)]
    return terms


def test_partial_fraction_sum_keeps_the_fold_representation():
    rng = random.Random(5)
    zeros = 0
    for _ in range(2500):
        terms = synthetic_terms(rng)
        got = _partial_fraction_sum(terms)
        assert rep(got) == rep(fold_sum(terms)), terms
        zeros += got.is_zero()
    assert zeros > 0


def test_partial_fraction_sum_edge_cases():
    assert rep(_partial_fraction_sum([])) == rep(RatFuncS.zero())
    one = (3, [(2, 4), (0, -5)])
    assert rep(_partial_fraction_sum([one])) == rep(RatFuncS.from_term(*one))
    with pytest.raises(ValueError):
        _partial_fraction_sum([(1, [(1, 1)]), (0, [(0, 0)])])
    with pytest.raises(ValueError):
        _partial_fraction_sum([(1, [(1, 1)]), (1, [(1, 1), (1, 2), (1, 3)])])


# ---------------------------------------------------------------------------
# CycloProduct
# ---------------------------------------------------------------------------


def test_cyclo_multiplicity_cusp_values():
    p = CycloProduct({6: 1, 2: -1, 3: -1})
    assert p.multiplicity(Fraction(1, 6)) == 1
    assert p.multiplicity(Fraction(1, 2)) == 0
    p1 = CycloProduct({6: 1, 2: -1, 3: -1, 1: 1})
    assert p1.multiplicity(Fraction(0)) == 0


def test_cyclo_multiplicity_matches_expansion():
    rng = random.Random(5)
    for _ in range(12):
        exps = {rng.randint(1, 30): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
        p = CycloProduct(exps)
        for d in sorted({1} | set(exps) | {n // 2 for n in exps if n % 2 == 0}):
            q = Fraction(1, d) if d > 1 else Fraction(0)
            assert p.multiplicity(q) == root_order(exps, q)


def test_cyclo_multiplicity_matches_expansion_with_negatives():
    exps = {6: 1, 2: -1, 3: -1, 1: 1}
    p = CycloProduct(exps)
    for d in (1, 2, 3, 6):
        q = Fraction(1, d) if d > 1 else Fraction(0)
        assert p.multiplicity(q) == root_order(exps, q)


def test_cyclo_order_table_matches_expansion():
    # orders[d] is the vanishing order at every primitive d-th root of unity;
    # its keys are the divisors of the exponents and no other order vanishes
    rng = random.Random(17)
    for _ in range(8):
        exps = {rng.randint(1, 24): rng.choice([-2, -1, 1, 2])
                for _ in range(rng.randint(1, 4))}
        p = CycloProduct(exps)
        pos = {n: e for n, e in p.exps.items() if e > 0}
        neg = {n: -e for n, e in p.exps.items() if e < 0}
        want = {d: _phi_multiplicity(pos, d) - _phi_multiplicity(neg, d)
                for d in range(1, 25)}
        assert set(p.orders) == {d for n in p.exps for d in range(1, n + 1) if n % d == 0}
        assert all(p.orders.get(d, 0) == v for d, v in want.items()), exps
        assert p.is_polynomial() == all(v >= 0 for v in want.values())
        assert all(p.multiplicity(Fraction(1, d) % 1) == v for d, v in want.items())


def test_cyclo_product_and_polynomiality():
    zeta = CycloProduct({6: 1, 2: -1, 3: -1})
    delta1 = zeta * CycloProduct({1: 1})
    assert delta1.is_polynomial()
    assert not CycloProduct({2: -1}).is_polynomial()
    assert str(zeta) == "(t^6 - 1) / ((t^2 - 1)*(t^3 - 1))"


def _grouped_poles(f):
    """f.pole_list() by a dict of the roots of f's factors, sorted."""
    grouped = {}
    for (n, nu), m in f.den:
        if n > 0:
            grouped[Fraction(-nu, n)] = grouped.get(Fraction(-nu, n), 0) + m
    return sorted(grouped.items())


def test_pole_list_groups_factors_by_their_reduced_root():
    rng = random.Random(61)
    sizes = set()
    for _ in range(300):
        den = {}
        for _ in range(rng.randint(0, 5)):
            g = rng.randint(1, 4)  # equal roots from unreduced factors
            p = (g * rng.randint(0, 6), g * rng.randint(-9, 9))
            if p != (0, 0):
                den[p] = den.get(p, 0) + rng.randint(1, 3)
        f = RatFuncS((1,), den.items(), 1)
        assert f.pole_list() == _grouped_poles(f)
        assert all(type(s) is Fraction for s, _ in f.pole_list())
        sizes.add((len(f.den), len(f.den) == 1 and f.den[0][0][0] > 0))
    assert {(1, True), (1, False)} <= sizes and max(sizes)[0] > 3


def test_pole_list_of_zetas_with_one_and_many_factors():
    zetas = [top_zeta(example(name)) for name in EXAMPLES]
    zetas += [twisted_top_zeta(builder_nv_example2(*t), order)
              for t in [(1, 1, 1, 1), (2, 3, 4, 5), (5, 1, 2, 9)] for order in (2, 60, 330)]
    for z in zetas:
        assert z.pole_list() == _grouped_poles(z)
    assert {len(z.den) for z in zetas} >= {1, 2, 3}
