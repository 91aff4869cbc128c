"""Monodromy zeta function, eigenvalues, allowed forms, and the pole report.

Eigenvalue classes are reduced rationals q in [0, 1) standing for the root
of unity exp(2*pi*i*q).  The zeta exponent at a node is its valency counted
with f-arrows minus two, which makes chain nodes invisible and reproduces
the classical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import ge, gt, itemgetter, le, lt

from .algebra import CycloProduct, _divisors, _partial_fraction_sum
from .diagram import arrow_refined_weights, valency
from .errors import NoFArrow, NonPolynomialDelta1
from .refine import realizable_refine, reduce
from .zeta import _top_terms, poles


def _compared_by(op):
    # q = a/m against r = b/n by a*n against b*m (denominators are positive),
    # then multiplicity and source
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, m, k, s = self
        b, n, l, t = other
        x, y = a * n, b * m
        return op(x, y) if x != y else op((k, s), (l, t))
    return compare


class EigenvalueClass(tuple):
    """Eigenvalue class exp(2*pi*i*q) with its multiplicity and source.

    Stored as the ints (a, m) of the reduced q = a/m, the multiplicity and
    the source ("h0" or "h1"), so that hashing is the C-level tuple hash;
    `q` is a `Fraction` built on access.  Ordered by (q, multiplicity,
    source).
    """

    __slots__ = ()

    def __new__(cls, q, multiplicity, source):
        q = Fraction(q)
        return tuple.__new__(cls, (q.numerator, q.denominator, multiplicity, source))

    @property
    def q(self):
        return Fraction(self[0], self[1])

    multiplicity = property(itemgetter(2))
    source = property(itemgetter(3))

    def __eq__(self, other):  # never equal to a plain tuple
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __lt__, __le__, __gt__, __ge__ = map(_compared_by, (lt, le, gt, ge))
    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return self.q, self[2], self[3]

    def __repr__(self):
        a, m, k, s = self
        return f"EigenvalueClass(q=Fraction({a}, {m}), multiplicity={k!r}, source={s!r})"


def _classes(m, multiplicity, source):
    """Every class a/m of root order m, built in one C-level pass."""
    return map(tuple.__new__, repeat(EigenvalueClass), zip(
        _coprime_residues(m), repeat(m), repeat(multiplicity), repeat(source)))


def _f_arrow_gcd(d):
    ns = [a.N for a in d.arrows if a.N >= 1]
    if not ns:
        raise NoFArrow("diagram has no arrowhead with N >= 1")
    return gcd(*ns)


def monodromy_zeta(diagram):
    """Characteristic-polynomial quotient as a cyclotomic product.

    Computed on the realizable refinement; inserted chain nodes have
    exponent zero, so the value only depends on the diagram itself.
    """
    return _zeta_refined(realizable_refine(diagram))


def _zeta_refined(d):
    # helpers named *_refined take a realizable refinement, so that each
    # public function refines its input once
    _f_arrow_gcd(d)
    acc = {}
    for v in d.nodes:
        e = valency(d, v, "with_f_arrows") - 2
        if e == 0:
            continue
        n = d.cache(v)[0]
        if n <= 0:
            raise NoFArrow(f"node {v} has N = {n}; no f-branch through it")
        acc[n] = acc.get(n, 0) + e
    return CycloProduct(acc)


def _monodromy_refined(d):
    """(monodromy zeta, f-arrow gcd d0, Delta_1): Delta_0 is t^d0 - 1."""
    z = _zeta_refined(d)
    d0_order = _f_arrow_gcd(d)
    d1 = z * CycloProduct({d0_order: 1})
    if not d1.is_polynomial():
        raise NonPolynomialDelta1(
            "monodromy zeta times Delta_0 has a negative root multiplicity")
    return z, d0_order, d1


def delta0(diagram):
    """t^d - 1 for d the gcd of the f-arrow multiplicities."""
    d_val = _f_arrow_gcd(realizable_refine(diagram))
    return CycloProduct({d_val: 1})


def delta1(diagram):
    """Characteristic polynomial of h1 as a cyclotomic product."""
    return _monodromy_refined(realizable_refine(diagram))[2]


def eigenvalues(diagram):
    """All eigenvalue classes of h0 and h1 with their multiplicities."""
    _, d0_order, d1 = _monodromy_refined(realizable_refine(diagram))
    return _eigenvalue_classes(d0_order, d1)


def _eigenvalue_classes(d0_order, d1):
    # the roots of t^d0 - 1 are the classes of every order dividing d0
    out = set()
    for m, mult in d1.orders.items():
        if mult > 0:
            out.update(_classes(m, mult, "h1"))
    for m in _divisors(d0_order):
        out.update(_classes(m, 1, "h0"))
    return out


def _coprime_residues(m):
    """The a in [0, m) with gcd(a, m) = 1, by a sieve over the primes of m:
    the divisors d > 1 that no smaller one has struck out."""
    keep = bytearray([1]) * (m + 1)
    for d in _divisors(m)[1:]:
        if keep[d]:
            keep[::d] = bytes(m // d + 1)
    return compress(range(m), keep)


def is_eigenvalue(diagram, q):
    """True when exp(2*pi*i*q) is an eigenvalue of h0 or h1."""
    order = Fraction(q).denominator
    _, d0_order, d1 = _monodromy_refined(realizable_refine(diagram))
    return d1.orders.get(order, 0) > 0 or d0_order % order == 0


# ---------------------------------------------------------------------------
# Allowed forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarRecord:
    node: str
    n: int
    r: int
    legs: tuple  # (near decoration, far-side form weight) per node-edge
    divisible: int
    equal: int
    ok: bool


@dataclass(frozen=True)
class AllowedReport:
    allowed: bool
    arrow_ok: bool
    stars: tuple

    def __bool__(self):
        return self.allowed


def is_allowed(diagram):
    """Star-shaped divisibility test for the form data on the diagram.

    For each node of the reduced diagram, the legs are its node-edges with
    near decoration d and far-side form weight i.  If d divides i on at
    least n + r - 2 legs (r counting f-arrows at the node), then i = d must
    also hold on at least n + r - 2 legs.  The far-side weights of all legs
    come from one side-weight pass, after refining decorated arrowheads.
    """
    d = reduce(diagram)
    weights = arrow_refined_weights(d)[2]
    arrow_ok = all((a.N, a.nu) != (0, 0) for a in d.arrows)
    stars = []
    verdict = arrow_ok
    for v in d.nodes:
        legs = [(e.dec_at(v), weights[(v, e.other(v))][1])
                for e in d.node_edges(v)]
        n = len(legs)
        r = sum(1 for a in d.arrows_at(v) if a.N >= 1)
        need = n + r - 2
        divisible = sum(1 for dec, i in legs if i % dec == 0)
        equal = sum(1 for dec, i in legs if i == dec)
        ok = not (divisible >= need) or equal >= need
        stars.append(StarRecord(v, n, r, tuple(legs), divisible, equal, ok))
        verdict = verdict and ok
    return AllowedReport(verdict, arrow_ok, tuple(stars))


# ---------------------------------------------------------------------------
# Pole-versus-eigenvalue report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleRecord:
    location: Fraction
    multiplicity: int
    eigenvalue_class: Fraction
    induces_eigenvalue: bool
    via: str  # "h0", "h1", "branch", or "none"


@dataclass(frozen=True)
class ZetaReport:
    kind: str  # "top" or "twisted-<e>"
    zeta: object
    poles: tuple


@dataclass(frozen=True)
class MCReport:
    allowed: AllowedReport
    zetas: tuple

    def all_poles_induce(self):
        return all(p.induces_eigenvalue for z in self.zetas for p in z.poles)


def mc_report(diagram, twisted_orders=()):
    """Poles, eigenvalue classes, and verdicts for the plain and twisted zetas.

    A report, not an assertion: twisted zeta functions are known to have
    poles whose classes are not eigenvalues even for allowed form data.
    The verdict counts a class as induced when it is an eigenvalue at the
    origin (h0 or h1) or an eigenvalue of the local monodromy at a generic
    point of a branch of multiplicity N >= 2, the way a function with
    non-reduced components contributes poles like -1/2 for a square factor.
    The allowed-form verdict is read on the diagram as given: refining a
    decorated arrowhead at a node adds a leg to its star.
    """
    refined = realizable_refine(diagram)
    _, d0_order, d1 = _monodromy_refined(refined)
    branch_orders = sorted({a.N for a in refined.arrows if a.N >= 2})

    def classify(z, kind):
        recs = []
        for s0, mult in poles(z):
            q = s0 % 1
            order = q.denominator
            if d0_order % order == 0:
                via = "h0"
            elif d1.orders.get(order, 0) > 0:
                via = "h1"
            elif any(n % order == 0 for n in branch_orders):
                via = "branch"
            else:
                via = "none"
            recs.append(PoleRecord(s0, mult, q, via != "none", via))
        return ZetaReport(kind, z, tuple(recs))

    zetas = [classify(_partial_fraction_sum(_top_terms(diagram, e)),
                      "top" if e is None else f"twisted-{e}")
             for e in (None, *twisted_orders)]
    return MCReport(allowed=is_allowed(diagram), zetas=tuple(zetas))


def auto_twisted_orders(diagram, bound=None):
    """Divisors >= 2 of the node N-values, up to an optional bound."""
    d = realizable_refine(diagram)
    ns = {d.cache(v)[0] for v in d.nodes if d.cache(v)[0] >= 1}
    out = set()
    for n in ns:
        out.update(e for e in _divisors(n) if e >= 2 and (bound is None or e <= bound))
    return sorted(out)
