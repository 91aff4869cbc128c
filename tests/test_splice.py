import random
import signal

import pytest

from splicezeta.algebra import Poly2, RatFuncS
from splicezeta.diagram import validate
from splicezeta.errors import DegenerateDenominator, NotAnEdge, SpliceZetaError
from splicezeta.refine import realizable_refine, reduce
from splicezeta.sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    example,
    random_diagram,
)
from splicezeta.splice import (
    _top_identity,
    correction_term,
    correction_term_top,
    splice,
    verify_splice_motivic,
    verify_splice_top,
)
from splicezeta.zeta import ZetaExpr, _top_terms, motivic_zeta

from oracles import fold_sum, rat_add, rat_sub

L1SQ = Poly2({(2, 0): 1, (1, 0): -2, (0, 0): 1})


def test_splice_needs_an_edge():
    with pytest.raises(NotAnEdge):
        splice(builder_monomial(1, 1, 1, 1), ("n1", "n1"))


def test_splice_nv2_data():
    r = splice(builder_nv_example2(1, 1, 1, 1), ("n3", "n4"))
    assert r.data.as_tuple() == (5, 0, 1, -5)


def test_splice_cusp_structure():
    d = builder_cusp(0, 0)
    r = splice(d, ("n1", "n2"))
    # the left half keeps n1 and the stub n2 with one new arrowhead whose
    # decoration is n2's former outer product
    stub_arrows = [a for a in r.left.arrows if a.node == "n2"]
    assert len(stub_arrows) == 1
    assert stub_arrows[0].dec == 2
    assert (stub_arrows[0].N, stub_arrows[0].nu) == (r.data.M, r.data.i)
    assert validate(r.left) == []
    assert validate(r.right) == []


def test_splice_halves_keep_caches():
    d = builder_cusp(4, 5)
    r = splice(d, ("n2", "n3"))
    assert tuple(r.left.cache("n2")) == (6, 28)
    assert tuple(r.right.cache("n3")) == (3, 17)


def test_splice_preserves_validity_generated():
    rng = random.Random(9)
    for seed in range(40):
        d = reduce(random_diagram(seed, 6))
        if not d.edges:
            continue
        e = rng.choice(list(d.edges))
        try:
            r = splice(d, (e.u, e.v))
        except SpliceZetaError:
            continue
        assert validate(r.left) == []
        assert validate(r.right) == []


def test_correction_term_values():
    assert correction_term(1, 1, 1, 1) == ZetaExpr.term(L1SQ, ((1, 1), (1, 1)))
    assert correction_term(0, 1, 1, 1) == ZetaExpr.term(L1SQ, ((1, 0), (1, 1)))
    assert correction_term(2, 3, 1, 1) == motivic_zeta(builder_monomial(2, 3, 1, 1))
    with pytest.raises(DegenerateDenominator):
        correction_term(0, 1, 0, 1)
    with pytest.raises(DegenerateDenominator):
        correction_term_top(1, 0, 1, 0)


def test_verify_splice_cusp_all_edges_both_forms():
    for a, b in [(0, 0), (4, 5)]:
        d = builder_cusp(a, b)
        for e in d.edges:
            assert verify_splice_motivic(d, (e.u, e.v))
            assert verify_splice_top(d, (e.u, e.v))


def test_verify_splice_nv2_all_edges():
    d = builder_nv_example2(1, 1, 1, 1)
    for e in d.edges:
        assert verify_splice_motivic(d, (e.u, e.v))
        assert verify_splice_top(d, (e.u, e.v))


def test_verify_splice_generated():
    rng = random.Random(31)
    checked = 0
    seed = 0
    while checked < 50:
        d = reduce(random_diagram(seed, rng.randint(2, 6)))
        seed += 1
        if not d.edges:
            continue
        e = rng.choice(list(d.edges))
        try:
            assert verify_splice_top(d, (e.u, e.v))
            assert verify_splice_motivic(d, (e.u, e.v))
        except SpliceZetaError:
            # degenerate side weights (M, i) = (0, 0) cannot be spliced
            continue
        checked += 1


def test_top_identity_agrees_with_the_fold():
    """The one-pass zero test against summing each side with the fold."""
    rng = random.Random(37)
    diagrams = [example(name) for name in sorted(EXAMPLES)]
    diagrams += [reduce(random_diagram(s, m)) for s in range(30) for m in (6, 14, 30)]
    checked = 0
    for d in diagrams:
        whole = _top_terms(realizable_refine(d))
        folded = fold_sum(whole)
        for e in d.edges:
            r = splice(d, (e.u, e.v))
            halves = [fold_sum(_top_terms(realizable_refine(h))) for h in (r.left, r.right)]
            rhs = rat_sub(rat_add(*halves), correction_term_top(*r.data.as_tuple()))
            assert verify_splice_top(d, (e.u, e.v))
            assert folded == rhs
            extra = (rng.choice((-1, 1, 2)), rng.choice(whole)[1])
            assert not _top_identity(whole + [extra], r)
            assert rat_add(folded, RatFuncS.from_term(*extra)) != rhs  # the fold of it
            checked += 1
    assert checked >= 300


class OverBudget(Exception):
    pass


def test_decorated_64_edge_identity_within_cpu_budget():
    # edge b6-b7 is decorated 64: its residual has 130 terms over 66 pairs
    # (sum of N 14820), so clearing denominators takes over 60 CPU s
    d = reduce(random_diagram(253628831, 14))
    r = splice(d, ("b6", "b7"))
    correction = correction_term(*r.data.as_tuple())

    def over(signum, frame):
        raise OverBudget("over 10 s of process CPU time")

    previous = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, 10.0)
    try:
        assert verify_splice_motivic(d, ("b6", "b7"))
        residual = motivic_zeta(d) - (motivic_zeta(r.left) + motivic_zeta(r.right)
                                      - correction)
        assert residual == ZetaExpr.zero()
        assert residual + correction != ZetaExpr.zero()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
