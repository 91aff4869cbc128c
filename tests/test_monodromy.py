import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from splicezeta.algebra import CycloProduct, _divisors
from splicezeta.diagram import Arrowhead, Diagram
from splicezeta import monodromy
from splicezeta.errors import (
    CacheMismatch,
    NoFArrow,
    NonPolynomialDelta1,
    SpliceZetaError,
)
from splicezeta.monodromy import (
    EigenvalueClass,
    auto_twisted_orders,
    delta0,
    delta1,
    eigenvalues,
    is_allowed,
    is_eigenvalue,
    mc_report,
    monodromy_zeta,
)
from splicezeta.refine import reduce, refine_all_arrows
from splicezeta.sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    example,
    random_diagram,
)
from splicezeta.zeta import motivic_zeta, poles, top_zeta

import oracles
from oracles import eigenvalues_reference, expand_cyclo


def test_monodromy_zeta_cusp():
    z = monodromy_zeta(builder_cusp(0, 0))
    assert z == CycloProduct({6: 1, 2: -1, 3: -1})


def test_monodromy_zeta_cusp_expansion_oracle():
    # zeta * Delta_0 expands to t^2 - t + 1 exactly
    d = builder_cusp(4, 5)
    prod = monodromy_zeta(d) * delta0(d)
    num = expand_cyclo({n: e for n, e in prod.exps.items() if e > 0})
    den = expand_cyclo({n: -e for n, e in prod.exps.items() if e < 0})
    import sympy as sp

    quo, rem = sp.div(num, den)
    assert rem.is_zero
    t = sp.symbols("t")
    assert sp.expand(quo.as_expr() - (t**2 - t + 1)) == 0


def test_monodromy_zeta_nv2():
    z = monodromy_zeta(builder_nv_example2(1, 1, 1, 1))
    assert z == CycloProduct({330: 1, 60: 1, 66: -1, 15: -1, 20: -1})


def test_monodromy_zeta_two_branch_node_is_empty():
    d = builder_monomial(1, 1, 1, 1)
    assert monodromy_zeta(d) == CycloProduct({})


def test_monodromy_zeta_needs_f_arrow():
    d = Diagram(["v"], [], [Arrowhead("v", 1, 0, 2), Arrowhead("v", 1, 0, 3)])
    with pytest.raises(NoFArrow):
        monodromy_zeta(d)


def test_delta0_and_delta1_cusp():
    d = builder_cusp(0, 0)
    assert delta0(d) == CycloProduct({1: 1})
    assert delta1(d) == CycloProduct({6: 1, 2: -1, 3: -1, 1: 1})


def test_delta0_gcd():
    assert delta0(builder_nv_example2(1, 1, 1, 1)) == CycloProduct({1: 1})
    assert delta0(builder_monomial(2, 3, 1, 1)) == CycloProduct({1: 1})
    assert delta0(builder_monomial(2, 4, 1, 1)) == CycloProduct({2: 1})


def test_delta1_rejects_inconsistent_cached_diagram():
    # the cache (5, 1) contradicts the formulas, which give (3, 3)
    d = Diagram(["v"], [],
                [Arrowhead("v", 2, 3, 1), Arrowhead("v", 1, 0, 1)],
                {"v": (5, 1)})
    for fn in (delta1, eigenvalues, top_zeta, motivic_zeta):
        with pytest.raises(CacheMismatch):
            fn(d)
    # refined without the check, the chain gives zeta = 1/(t^5 - 1) against
    # Delta_0 = t^3 - 1, which is not a polynomial quotient
    with pytest.raises(NonPolynomialDelta1):
        monodromy._monodromy_refined(refine_all_arrows(d))


def test_eigenvalues_cusp():
    eigs = eigenvalues(builder_cusp(0, 0))
    assert {e.q for e in eigs} == {Fraction(0), Fraction(1, 6), Fraction(5, 6)}


def test_divisors_and_coprime_residues_match_brute_force():
    for n in range(1, 1200):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        assert (list(monodromy._coprime_residues(n))
                == [a for a in range(n) if gcd(a, n) == 1])


def test_eigenvalue_class_hash_agrees_with_equality():
    classes = [c for name in sorted(EXAMPLES) for c in eigenvalues(example(name))]
    assert len(classes) > 100
    for a in classes:
        twin = EigenvalueClass(Fraction(a.q.numerator, a.q.denominator), a.multiplicity,
                               a.source)
        assert twin == a and hash(twin) == hash(a)
        assert all(hash(a) == hash(b) for b in classes if a == b)
    assert len(set(classes)) == len({(c.q, c.multiplicity, c.source) for c in classes})


def _assert_eigenvalues_match_reference(d):
    try:
        want = eigenvalues_reference(d)
    except SpliceZetaError as exc:
        with pytest.raises(type(exc)):
            eigenvalues(d)
        return
    got = eigenvalues(d)
    assert got == {EigenvalueClass(c.q, c.multiplicity, c.source) for c in want}
    # the dataclass order (q, multiplicity, source) by exact integer keys:
    # its own Fraction comparisons take seconds on 10^5 classes
    scale = lcm(*(c.q.denominator for c in want))
    want_sorted = sorted(want, key=lambda c: (
        c.q.numerator * (scale // c.q.denominator), c.multiplicity, c.source))
    assert repr(sorted(got)) == repr(want_sorted)


def test_eigenvalues_equal_the_reference_on_examples():
    # the monomials have Delta_0 = t^6 - 1 and t^15 - 1: h0 of several orders
    for d in [*(example(name) for name in sorted(EXAMPLES)),
              builder_monomial(12, 18, 1, 1), builder_monomial(30, 45, 1, 1)]:
        _assert_eigenvalues_match_reference(d)


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(1, 160))
def test_eigenvalues_equal_the_reference_property(seed, m):
    _assert_eigenvalues_match_reference(reduce(random_diagram(seed, m)))


def test_eigenvalue_class_golden_repr():
    assert repr(sorted(eigenvalues(example("cusp")))) == (
        "[EigenvalueClass(q=Fraction(0, 1), multiplicity=1, source='h0'), "
        "EigenvalueClass(q=Fraction(1, 6), multiplicity=1, source='h1'), "
        "EigenvalueClass(q=Fraction(5, 6), multiplicity=1, source='h1')]")
    text = repr(sorted(eigenvalues(example("nv2"))))
    assert text.startswith(
        "[EigenvalueClass(q=Fraction(0, 1), multiplicity=1, source='h0'), "
        "EigenvalueClass(q=Fraction(1, 330), multiplicity=1, source='h1'), "
        "EigenvalueClass(q=Fraction(1, 165), multiplicity=1, source='h1'), ")
    assert text.count("EigenvalueClass(") == 283
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cb124299e0ee949431535edec2b181eb5164a6e161523b5d21baf6de22975f13")


def test_eigenvalue_class_construction():
    for q, want in [(Fraction(1, 6), Fraction(1, 6)), (0, Fraction(0)),
                    (Fraction(5, 10), Fraction(1, 2))]:
        c = EigenvalueClass(q, 2, "h1")
        assert type(c.q) is Fraction and c.q == want
        assert (c.multiplicity, c.source) == (2, "h1")
        assert repr(c) == repr(oracles.EigenvalueClass(want, 2, "h1"))
    assert repr(EigenvalueClass(Fraction(5, 10), 1, "h0")) == (
        "EigenvalueClass(q=Fraction(1, 2), multiplicity=1, source='h0')")
    half = EigenvalueClass(Fraction(1, 2), 1, "h1")
    assert half == EigenvalueClass(Fraction(2, 4), 1, "h1")
    assert hash(half) == hash(EigenvalueClass(Fraction(2, 4), 1, "h1"))
    assert half != EigenvalueClass(Fraction(1, 2), 1, "h0")
    assert half != (1, 2, 1, "h1") and (1, 2, 1, "h1") != half


def test_eigenvalue_class_is_immutable():
    c = EigenvalueClass(Fraction(1, 6), 1, "h1")
    for name, value in [("q", Fraction(1, 3)), ("multiplicity", 2),
                        ("source", "h0"), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    assert c == EigenvalueClass(Fraction(1, 6), 1, "h1")
    assert pickle.loads(pickle.dumps(c)) == c and copy.deepcopy({c}) == {c}


def test_eigenvalue_class_order_matches_the_reference():
    # ties on q broken by multiplicity, then by source, as the dataclass did
    triples = [(Fraction(1, 2), 1, "h1"), (Fraction(1, 2), 1, "h0"),
               (Fraction(1, 2), 2, "h1"), (Fraction(0), 1, "h1"),
               (Fraction(0), 1, "h0"), (Fraction(1, 3), 3, "h1"),
               (Fraction(2, 3), 1, "h1"), (Fraction(-1, 4), 1, "h1")]
    rng = random.Random(3)
    triples += [(Fraction(rng.randint(-3, 20), rng.randint(1, 20)),
                 rng.randint(1, 2), rng.choice(["h0", "h1"])) for _ in range(60)]
    got = [EigenvalueClass(*t) for t in triples]
    want = [oracles.EigenvalueClass(*t) for t in triples]
    assert repr(sorted(got)) == repr(sorted(want))
    for i in range(len(triples)):
        for j in range(len(triples)):
            a, b, x, y = got[i], got[j], want[i], want[j]
            assert ((a < b, a <= b, a > b, a >= b, a == b, a != b)
                    == (x < y, x <= y, x > y, x >= y, x == y, x != y))


def _fraction_calls(monkeypatch, fn, *args):
    """How many Fractions fn(*args) builds."""
    calls = []
    new = Fraction.__new__

    def counted(cls, *a, **k):
        calls.append(1)
        return new(cls, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counted))
        fn(*args)
    return len(calls)


def test_eigenvalue_questions_build_no_fraction_per_class(monkeypatch):
    d = example("nv2")
    orders = auto_twisted_orders(d, bound=12)
    mc_report(d, orders)  # warm the refinement memo
    assert _fraction_calls(monkeypatch, eigenvalues, d) == 0
    assert _fraction_calls(monkeypatch, delta1, d) == 0
    assert _fraction_calls(monkeypatch, CycloProduct({330: 1, 60: 1, 1: 1, 15: -1})
                           .is_polynomial) == 0
    # one Fraction for the query itself
    assert _fraction_calls(monkeypatch, is_eigenvalue, d, Fraction(1, 110)) == 1
    # mc_report adds to its zetas, poles and allowed-form check one Fraction
    # per pole, the pole's class in its record
    def zetas():
        return [monodromy._partial_fraction_sum(monodromy._top_terms(d, e))
                for e in (None, *orders)]

    def pieces():
        for z in zetas():
            poles(z)
        is_allowed(d)

    n_poles = sum(len(poles(z)) for z in zetas())

    assert n_poles > 10
    assert (_fraction_calls(monkeypatch, mc_report, d, orders)
            == _fraction_calls(monkeypatch, pieces) + n_poles)


def test_zero_class_always_eigenvalue():
    for d in [builder_cusp(2, 4), builder_nv_example2(1, 1, 1, 1),
              builder_monomial(3, 5, 1, 1)]:
        assert is_eigenvalue(d, 0)


def test_is_eigenvalue_nv2():
    d = builder_nv_example2(1, 1, 1, 1)
    assert is_eigenvalue(d, Fraction(1, 110))
    assert not is_eigenvalue(d, Fraction(1, 7))


def test_allowed_trivial_form_data():
    for d in [builder_cusp(0, 0), builder_monomial(2, 3, 1, 1),
              builder_nv_example2(1, 1, 1, 1)]:
        assert is_allowed(d).allowed


def test_allowed_cusp_x2y4():
    rep = is_allowed(builder_cusp(2, 4))
    assert rep.allowed
    center = next(s for s in rep.stars if s.node == "n2")
    assert sorted(center.legs) == [(2, 5), (3, 3)]
    assert center.n == 2 and center.r == 1
    assert center.divisible == 1 and center.equal == 1


def test_not_allowed_cusp_x3y3():
    rep = is_allowed(builder_cusp(3, 3))
    assert not rep.allowed
    center = next(s for s in rep.stars if s.node == "n2")
    assert sorted(center.legs) == [(2, 4), (3, 4)]
    assert center.divisible == 1 and center.equal == 0
    # and the topological zeta then keeps a non-eigenvalue pole
    d = builder_cusp(3, 3)
    bad = [s for s, _ in poles(top_zeta(d))
           if not is_eigenvalue(d, Fraction(s) % 1)]
    assert Fraction(-10, 3) in bad


def test_mc_report_cusp_trivial():
    rep = mc_report(builder_cusp(0, 0), [2, 3, 6])
    assert rep.allowed.allowed
    assert rep.all_poles_induce()
    top = rep.zetas[0]
    assert [(p.location, p.eigenvalue_class) for p in top.poles] == [
        (Fraction(-1), Fraction(0)), (Fraction(-5, 6), Fraction(1, 6))]


def test_mc_report_reproduces_twisted_counterexample():
    rep = mc_report(builder_cusp(2, 4), [6])
    assert rep.allowed.allowed
    twisted = rep.zetas[1]
    assert twisted.kind == "twisted-6"
    assert len(twisted.poles) == 1
    p = twisted.poles[0]
    assert p.location == Fraction(-7, 2)
    assert p.eigenvalue_class == Fraction(1, 2)
    assert not p.induces_eigenvalue
    assert not rep.all_poles_induce()


def test_mc_report_trivial_form_generated():
    for seed in range(15):
        d = reduce(random_diagram(seed, 4))
        trivial = Diagram(
            d.nodes, d.edges,
            [Arrowhead(a.node, a.dec, a.N, 1) for a in d.arrows])
        if not any(a.N >= 1 for a in trivial.arrows):
            continue
        rep = mc_report(trivial, [])
        assert rep.allowed.allowed
        assert rep.all_poles_induce(), (seed, rep)


def test_is_allowed_handles_spliced_halves():
    # halves carry decorated arrowheads; splice data still evaluates
    from splicezeta.splice import splice

    r = splice(builder_nv_example2(1, 1, 1, 1), ("n3", "n4"))
    assert is_allowed(r.left) is not None
    assert is_allowed(r.right) is not None


def test_auto_twisted_orders():
    orders = auto_twisted_orders(builder_cusp(0, 0))
    assert orders == [2, 3, 6]
    assert auto_twisted_orders(builder_cusp(0, 0), bound=3) == [2, 3]
