"""The integer partial-fraction and Euler-specialization kernels against
their Fraction references, the strata each refinement computes once, and
the side-weight passes each command makes."""

import contextlib
import functools
import io
import random
from fractions import Fraction
from math import gcd, prod

import pytest

import oracles
from memo import forget_plans
from splicezeta import diagram, refine
from splicezeta.algebra import Poly2, _add_ratio, _partial_fractions_vanish, _term_fractions
from splicezeta.cli import main
from splicezeta.diagram import Arrowhead, Diagram
from splicezeta.errors import DegenerateDenominator, PoleAtOne
from splicezeta.monodromy import mc_report
from splicezeta.refine import realizable_refine, reduce
from splicezeta.sdio import EXAMPLES, builder_nv_example2, example, random_diagram
from splicezeta.splice import splice, verify_splice_motivic
from splicezeta.zeta import (
    ZetaExpr,
    _laurent_at_one,
    _top_terms,
    motivic_zeta,
    specialize_chi_top,
    top_zeta,
    twisted_top_zeta,
)


@functools.cache
def corpus():
    """(diagram, its spliced halves along up to two edges): the bundled
    examples and reduced random diagrams on the ladder m = 6 ... 320."""
    rng = random.Random(11)
    ladder = ((6, 4), (14, 3), (30, 2), (160, 1), (320, 1))
    whole = [example(name) for name in sorted(EXAMPLES)]
    whole += [reduce(random_diagram(s, m)) for m, seeds in ladder for s in range(seeds)]
    out = []
    for d in whole:
        edges = rng.sample(d.edges, min(2, len(d.edges)))
        out.append((d, [splice(d, (e.u, e.v)) for e in edges]))
    return out


def all_diagrams():
    for d, splits in corpus():
        yield d
        for r in splits:
            yield r.left
            yield r.right


def as_fractions(factors, den, parts):
    """An integer _term_fractions result in the oracle's Fraction form."""
    root = lambda r: Fraction(*r)
    return ([(p, root(r)) for p, r in factors],
            [((0, 0) if key == (0, 0) else (root(key[0]), key[1]), Fraction(num, den))
             for key, num in parts])


def test_term_fractions_agree_with_the_fraction_reference():
    rng = random.Random(3)
    # negative, zero and proportional N, negative nu, det = 0 and three factors
    pool = [(1, 2), (2, 4), (-3, -6), (1, -1), (-2, 2), (-1, 1), (2, 3), (4, 6),
            (-4, -6), (1, 1), (3, -4), (1, 0), (-2, 0), (5, 7), (0, 3), (0, -2)]
    terms = [(rng.choice((-3, -1, 0, 1, 2)), [rng.choice(pool) for _ in range(rng.randint(0, 3))])
             for _ in range(3000)]
    terms += [t for d in all_diagrams() for t in _top_terms(d)]
    for chi, pairs in terms:
        try:
            want = oracles.term_fractions(chi, pairs)
        except ValueError:
            with pytest.raises(ValueError):
                _term_fractions(chi, pairs)
            continue
        factors, den, parts = _term_fractions(chi, pairs)
        assert as_fractions(factors, den, parts) == want, (chi, pairs)


def test_partial_fraction_sums_stay_in_lowest_terms():
    rng = random.Random(19)
    for _ in range(300):
        acc, reference = {}, {}
        for _ in range(rng.randint(1, 12)):
            key = rng.randint(0, 2)
            num = rng.choice([-1, 1]) * rng.randint(1, 60)
            den = rng.choice([-1, 1]) * rng.randint(1, 60)
            _add_ratio(acc, key, num, den)
            reference[key] = reference.get(key, 0) + Fraction(num, den)
        assert {k: Fraction(*p) for k, p in acc.items()} == {
            k: v for k, v in reference.items() if v}
        assert all(gcd(*p) == 1 for p in acc.values())


def test_roots_are_reduced_with_a_positive_second_entry():
    for p in [(2, 4), (-1, -2), (3, 6), (-2, 4), (4, 0), (-4, 0), (6, -9)]:
        (_, (a, b)), = _term_fractions(1, [p])[0]
        assert b > 0 and Fraction(a, b) == Fraction(-p[1], p[0])
    # proportional pairs of either sign share one root key
    keys = {_term_fractions(1, [p])[2][0][0] for p in [(1, -1), (-1, 1), (2, -2), (-3, 3)]}
    assert keys == {((1, 1), 1)}


def test_top_identity_verdicts_agree_with_the_fraction_reference():
    rng = random.Random(5)
    checked = 0
    for d, splits in corpus():
        whole = _top_terms(d)
        for r in splits:
            terms = list(whole)
            for half in (r.left, r.right):
                terms += [(-chi, pairs) for chi, pairs in _top_terms(half)]
            m, m_prime, i, i_prime = r.data.as_tuple()
            terms.append((1, ((m, i), (m_prime, i_prime))))
            assert _partial_fractions_vanish(terms)
            assert oracles.partial_fractions_vanish(terms)
            extra = (rng.choice((-1, 1, 2)), rng.choice(terms)[1])
            assert not _partial_fractions_vanish(terms + [extra])
            assert not oracles.partial_fractions_vanish(terms + [extra])
            checked += 1
    assert checked > 20


def specialized(fn, z, n):
    try:
        return fn(z, n)
    except PoleAtOne:
        return PoleAtOne


def test_specialization_agrees_with_the_fraction_reference():
    for d in all_diagrams():
        mz = motivic_zeta(d)
        for n in (1, 2, 3):
            got = specialize_chi_top(mz, n)
            assert type(got) is Fraction
            assert got == oracles.specialize_chi_top(mz, n)
            for key, coeff in mz.terms.items():
                exps = [nu + n * nn for nu, nn in key]
                ys = _laurent_at_one(coeff, exps)
                assert [Fraction(y, prod(exps) ** (j + 1)) for j, y in enumerate(ys)] \
                    == oracles.laurent_at_one(coeff, exps)


def test_specialization_agrees_on_synthetic_terms():
    # negative nu and L-exponents, N = 0 pairs, exponents m that vanish at
    # some n, and surviving poles
    rng = random.Random(7)
    raised = 0
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple(sorted((rng.randint(-3, 4), rng.randint(0, 3))
                               for _ in range(rng.randint(1, 2))))
            if any(p == (0, 0) for p in key):
                continue
            coeff = Poly2({(rng.randint(-2, 3), 0): rng.randint(-2, 2) for _ in range(3)})
            if not coeff.is_zero():
                terms[key] = coeff
        z = ZetaExpr(terms)
        for n in (1, 2, 3):
            got = specialized(specialize_chi_top, z, n)
            assert got == specialized(oracles.specialize_chi_top, z, n), (terms, n)
            raised += got is PoleAtOne
    assert 0 < raised < 1200


# ---------------------------------------------------------------------------
# Strata once per refinement.
# ---------------------------------------------------------------------------


@pytest.fixture
def strata_calls(monkeypatch):
    """Counts refine._strata calls, from an empty plan memo."""
    calls = []

    def counted(d, _original=refine._strata):
        calls.append(d)
        return _original(d)

    monkeypatch.setattr(refine, "_strata", counted)
    forget_plans()
    return calls


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_verify_splice_computes_each_refinements_strata_once(strata_calls):
    # one call per distinct refinement among the whole diagram and the
    # halves of its four edges, where 18 were made before the strata were
    # kept: equal halves, and halves that refine to equal diagrams, get one
    # refinement from the plan memo
    d = example("nv2")
    distinct = []
    splits = [splice(d, (e.u, e.v)) for e in d.edges]
    for x in [d] + [h for r in splits for h in (r.left, r.right)]:
        if realizable_refine(x) not in distinct:
            distinct.append(realizable_refine(x))
    forget_plans()
    assert run_quietly(["verify-splice", "example:nv2"]) == 0
    assert len(strata_calls) == len(distinct) == 6


def test_twisted_orders_share_the_strata(strata_calls):
    d = builder_nv_example2(2, 3, 4, 5)
    twisted_top_zeta(d, 330)
    twisted_top_zeta(d, 60)
    assert len(strata_calls) == 1
    mc_report(d, [2, 3, 330])
    assert len(strata_calls) == 1


def test_mc_check_auto_computes_the_strata_once(strata_calls):
    assert run_quietly(["mc-check", "--twisted-orders", "auto", "example:nv2"]) == 0
    assert len(strata_calls) == 1


def test_degenerate_strata_raise_on_every_call(strata_calls, tmp_path):
    d = Diagram(["v"], [], [Arrowhead("v", 1, 0, 0), Arrowhead("v", 1, 1, 1)])
    for _ in range(2):
        for fn in (top_zeta, motivic_zeta, lambda d: twisted_top_zeta(d, 1)):
            with pytest.raises(DegenerateDenominator):
                fn(d)
    assert len(strata_calls) == 6
    path = tmp_path / "zero.sd"
    path.write_text("node a\narrow a 1 0 1\narrow a 1 0 -1\n")
    for _ in range(2):
        for argv in (["zeta", "--kind", "top"], ["zeta", "--kind", "motivic"],
                     ["mc-check", "--twisted-orders", "auto"]):
            assert run_quietly([*argv, str(path)]) == 2


# ---------------------------------------------------------------------------
# One side-weight pass per splice.
# ---------------------------------------------------------------------------


@pytest.fixture
def side_weight_calls(monkeypatch):
    """Counts diagram.side_weights calls, from an empty plan memo."""
    calls = []

    def counted(d, _original=diagram.side_weights):
        calls.append(d)
        return _original(d)

    monkeypatch.setattr(diagram, "side_weights", counted)
    forget_plans()
    return calls


@pytest.mark.parametrize("argv, passes", [
    (["splice", "example:nv2", "--edge", "n3", "n4"], 1),
    (["monodromy", "example:nv2"], 1),
    # one refines the diagram; the allowed-form verdict reads the diagram as
    # given, whose stars differ from the refinement's
    (["mc-check", "--twisted-orders", "auto", "example:nv2"], 2),
])
def test_side_weight_passes_per_command(side_weight_calls, argv, passes):
    assert run_quietly(argv) == 0
    assert len(side_weight_calls) == passes


def test_verify_splice_keeps_the_whole_and_its_halves_refined(side_weight_calls):
    # the whole of nv2 and three of its halves share one skeleton, so its
    # plan must remember several refinements for them not to evict each other
    assert run_quietly(["verify-splice", "example:nv2"]) == 0
    assert len(side_weight_calls) == 11
    side_weight_calls.clear()
    assert run_quietly(["verify-splice", "--machine", "example:nv2"]) == 0
    assert len(side_weight_calls) == 4  # one per splice


def test_verify_splice_motivic_builds_one_zeta_expr(monkeypatch):
    built = []

    def counted(self, terms=None, _original=ZetaExpr.__init__):
        built.append(terms)
        _original(self, terms)

    d = example("nv2")
    monkeypatch.setattr(ZetaExpr, "__init__", counted)
    for e in d.edges:
        built.clear()
        assert verify_splice_motivic(d, (e.u, e.v))
        assert len(built) == 1
