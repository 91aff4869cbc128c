"""Motivic, topological, and twisted topological zeta functions of diagrams.

All three are sums over the nodes, edges, and arrowheads of a realizable
refinement.  The node coefficient uses the full valency (node-edges plus
every arrowhead); this is the choice that reproduces the Euler number of
the punctured exceptional curve and the classical values.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import takewhile
from math import gcd, prod
from operator import mul

from .algebra import Poly2, _div_linear, _partial_fraction_sum
from .errors import DegenerateDenominator, ExpansionTooLarge, PoleAtOne
from .refine import linking_map, refined_strata

L_MINUS_1 = Poly2({(1, 0): 1, (0, 0): -1})
L_MINUS_1_SQ = L_MINUS_1 * L_MINUS_1
MAX_PROGRESSIONS, MAX_SUPPORT = 1_000_000, 5_000_000  # Budget 2, see _expansion_vanishes


class ZetaExpr:
    """Finite sum of coeff(L) * prod of T^N / (L^nu - T^N) factors.

    Keys are sorted tuples of (nu, N) pairs with N >= 0; coefficients are
    integer Laurent polynomials in L.  Equality expands the difference of
    both sides as a power series in T up to a degree bound (see
    _expansion_vanishes), so it is exact and independent of how the
    expression was assembled.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            if coeff.is_zero():
                continue
            if any(p == (0, 0) or p[1] < 0 for p in key):
                raise DegenerateDenominator(f"pair (0, 0) or with N < 0 in term {key}")
            self.terms[tuple(sorted(key))] = coeff

    @staticmethod
    def zero():
        return ZetaExpr()

    @staticmethod
    def term(coeff, pairs):
        return ZetaExpr({tuple(sorted(tuple(p) for p in pairs)): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_term(out, k, c)
        return ZetaExpr(out)

    def __neg__(self):
        z = ZetaExpr()
        z.terms = {k: -c for k, c in self.terms.items()}
        return z

    def __sub__(self, other):
        return self + (-other)

    def pairs(self):
        """Multiset of pairs: pair -> largest multiplicity in any term."""
        out = {}
        for key in self.terms:
            for p in set(key):
                out[p] = max(out.get(p, 0), key.count(p))
        return out

    def __eq__(self, other):
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        return not self.terms or _expansion_vanishes(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def render(self, compact=False):
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in self.sorted_terms():
            t_deg = sum(n for (_, n) in key)
            t_str = "1" if t_deg == 0 else ("T" if t_deg == 1 else f"T^{t_deg}")
            facs = []
            for (nu, n) in key:
                left = "1" if nu == 0 else ("L" if nu == 1 else f"L^{nu}")
                right = "1" if n == 0 else ("T" if n == 1 else f"T^{n}")
                facs.append(f"({left} - {right})")
            den = "*".join(facs)
            if len(facs) > 1:
                den = f"({den})"
            chunks.append(f"({coeff}) * {t_str}/{den}")
        out = " + ".join(chunks)
        if compact:
            out = out.replace(" ", "")
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"ZetaExpr({len(self.terms)} terms)"


def _expansion_vanishes(z):
    """Whether z is zero, decided on integers without clearing denominators.

    Multiplying z by (L^nu - 1)^m for its N = 0 pairs (m from pairs())
    leaves a sum of c(L, T) * prod T^N / (L^nu - T^N) over pairs with
    N >= 1, and each such factor is sum_{k >= 1} L^(-nu k) T^(N k) in
    Z[L^+-1][[T]].  Over the common denominator D = prod (L^nu - T^N)^m the
    numerator has T-degree at most B = sum N m + the largest T-degree of a
    coefficient, and D is a unit (its T^0 coefficient is a power of L).  So
    z is zero exactly when its expansion vanishes up to T^B.
    First the coefficients are divided by L - 1 while it divides them all:
    z = (L - 1) z' in a domain, so that is exact, and B does not grow.

    A cone's points up to T^B lie on rows: from each corner of all steps
    but the last, the last step (N, nu) repeated.  With a monomial of the
    cone's coefficient a row is an arithmetic progression with step
    (N, -nu) in (T-degree, L-exponent) and a constant coefficient.  The
    progressions are grouped by step and by coset, (t mod N, l + nu (t div N))
    for a point (t, l) at position t div N; on a coset their sum is a step
    function of the position, found by a sort and sweep of the start
    positions.  Only its nonzero stretches are added into one table of
    points, which is all zero exactly when the expansion is.
    Budget 2: ExpansionTooLarge above MAX_PROGRESSIONS progressions, counted
    before the row sweep, or MAX_SUPPORT points, counted before any is added.
    """
    mult = z.pairs()
    constant = [(nu, m) for (nu, n), m in mult.items() if not n]  # the N = 0 pairs
    cones = defaultdict(lambda: defaultdict(int))  # apex -> L-exponent -> coeff
    top = 0
    for key, coeff in zip(z.terms, _without_content(list(z.terms.values()))):
        for nu, m in constant:
            for _ in range(m - key.count((nu, 0))):
                coeff = coeff * Poly2({(nu, 0): 1, (0, 0): -1})
        steps = tuple(sorted((p for p in key if p[1]), key=lambda p: -p[1]))
        for (a, b), c in coeff.terms.items():
            cones[b + sum(n for _, n in steps), steps][a - sum(nu for nu, _ in steps)] += c
            top = max(top, b)
    bound = top + sum(n * m for (_, n), m in mult.items())
    # coset (N, nu, t mod N, l + nu (t div N)) -> start position t div N -> sum
    # of the coefficients of the progressions that start there
    cosets = defaultdict(lambda: defaultdict(int))
    rows, progressions = [], 0
    for (t0, steps), mons in cones.items():
        mons = [(l, c) for l, c in mons.items() if c]
        corners = [(t0, 0)]  # (T-degree, L-shift) of each row's first point
        for nu, n in steps[:-1]:  # k = 0 keeps each corner: a lower bound
            size = sum((bound - t) // n + 1 for t, _ in corners if t <= bound)
            _budget(progressions + len(mons) * size, MAX_PROGRESSIONS, "progressions")
            corners = [(t + n * k, x - nu * k) for t, x in corners
                       for k in range((bound - t) // n + 1)]
        progressions += len(corners) * len(mons)
        _budget(progressions, MAX_PROGRESSIONS, "progressions")
        rows.append((corners, steps[-1] if steps else (0, bound + 1), mons))  # else one point
    while rows:
        corners, (nu, n), mons = rows.pop()
        for t, x in corners:
            q, r = divmod(t, n)
            x += nu * q
            for l, c in mons:
                cosets[n, nu, r, x + l][q] += c
    stretches, support = [], 0
    while cosets:
        (n, nu, r, inv), starts = cosets.popitem()
        # every progression of a coset runs on to its last point of T-degree
        # at most bound, so they all end before one position, and the sum of
        # the progressions is constant between consecutive start positions
        qs = sorted(starts)
        qs.append((bound - r) // n + 1)
        run = 0
        for i in range(len(qs) - 1):
            run += starts[qs[i]]
            if run:
                stretches.append((n, nu, r, inv, qs[i], qs[i + 1], run))
                support += qs[i + 1] - qs[i]
    _budget(support, MAX_SUPPORT, "support points")
    points = defaultdict(int)  # (T-degree, L-exponent) -> coefficient
    for n, nu, r, inv, q0, q1, run in stretches:
        for q in range(q0, q1):
            points[r + n * q, inv - nu * q] += run
    return not any(points.values())


def _budget(count, limit, what):
    if count > limit:
        raise ExpansionTooLarge(f"the zeta comparison needs at least {count} {what}, "
                                f"more than the {limit} allowed")


def _without_content(coeffs):
    """The coefficients divided by L - 1 for as long as it divides them all."""
    while coeffs:
        quotients = list(takewhile(lambda q: q is not None, map(_over_l_minus_1, coeffs)))
        if len(quotients) < len(coeffs):
            break
        coeffs = quotients
    return coeffs


def _over_l_minus_1(coeff):
    """coeff / (L - 1), or None unless L - 1 divides the part of each
    T-degree and the quotient has no more monomials (L^9 - 1 stays sparse)."""
    rows = defaultdict(dict)
    for (a, b), c in coeff.terms.items():
        rows[b][a] = c
    out = {}
    for b, row in rows.items():
        if sum(row.values()):  # the value at L = 1
            return None
        lo = min(row)
        dense = [row.get(a, 0) for a in range(lo, max(row) + 1)]
        out.update(((lo + k, b), c) for k, c in enumerate(_div_linear(dense, 1, -1)) if c)
    return Poly2(out) if len(out) <= len(coeff.terms) else None


def motivic_zeta(diagram):
    """Motivic zeta function of the diagram as an exact ZetaExpr."""
    acc = {}
    _add_strata(acc, diagram)
    return ZetaExpr(acc)


def _add_strata(acc, diagram, sign=1):
    """Add sign times the terms of motivic_zeta(diagram) to the term dict acc
    (as ZetaExpr.terms, but cancelled terms stay with coefficient 0)."""
    nodes, edges, arrows = refined_strata(diagram)
    for pair, delta in nodes:
        # (L - 1) * (L + 1 - delta)
        _add_term(acc, (pair,), Poly2({(2, 0): sign, (1, 0): -delta * sign,
                                       (0, 0): (delta - 1) * sign}))
    coeff = L_MINUS_1_SQ * sign
    for p, q in edges + arrows:
        _add_term(acc, (p, q) if p <= q else (q, p), coeff)


def _add_term(acc, key, coeff):
    """acc[key] += coeff on a term dict."""
    old = acc.get(key)
    acc[key] = coeff if old is None else old + coeff


def _top_terms(diagram, order=None):
    """(chi, (N, nu) pairs) terms of the (possibly twisted) topological zeta,
    of the strata whose N's order divides, off the linking map, else refined_strata."""
    if order is not None and order < 1:
        raise ValueError("order must be a positive integer")
    order, linking = order or 1, linking_map(diagram)
    if linking and (terms := linking.terms(diagram, order)) is not None:
        return terms
    nodes, edges, arrows = refined_strata(diagram)
    terms = [(2 - delta, ((n, nu),)) for (nu, n), delta in nodes
             if delta != 2 and n % order == 0]
    return terms + [(1, ((n, nu), (m, mu))) for (nu, n), (mu, m) in edges + arrows
                    if not (n % order or m % order)]


def top_zeta(diagram):
    """Topological zeta function, fully cancelled."""
    return _partial_fraction_sum(_top_terms(diagram))


def twisted_top_zeta(diagram, order):
    """Topological zeta restricted to strata whose N's are divisible by order."""
    return _partial_fraction_sum(_top_terms(diagram, order))


def _laurent_at_one(coeff, exps):
    """Orders -k..0 in eps = L - 1 of coeff(L) / prod (L^m - 1), k = len(exps).

    Entry j of the result is the coefficient of eps^(j - k) times D^(j + 1),
    an integer, for D = prod m.
    """
    k = len(exps)
    num = [0] * (k + 1)
    for (a, b), c in coeff.terms.items():
        if b:
            raise ValueError("coefficients must be univariate in L")
        for r in range(k + 1):  # c * C(a, r), from L^a = (1 + eps)^a
            num[r] += c
            c = c * (a - r) // (r + 1)
    den = [1]
    for m in exps:
        g, x = [], 1
        for j in range(k + 1):  # C(m, j + 1), from (L^m - 1) / eps
            x = x * (m - j) // (j + 1)
            g.append(x)
        den = g if len(den) == 1 else [sum(map(mul, den[:j + 1], g[j::-1]))
                                       for j in range(k + 1)]
    d, out = den[0], []
    for j in range(k + 1):
        # out[j] / d^(j + 1) = (num[j] - sum_i den[j - i] out[i] / d^(i + 1)) / d
        y = num[j]
        for i in range(j):
            y = y * d - out[i] * den[j - i]
        out.append(y)
    return out


def specialize_chi_top(zeta, n):
    """Euler-characteristic value of the motivic zeta at T = L^(-n).

    Substituting turns every factor T^N / (L^nu - T^N) into 1 / (L^m - 1)
    with m = nu + n*N.  The value at L = 1 is the order-0 coefficient of the
    sum of the terms' Laurent expansions in eps = L - 1 (the Denef-Loeser
    limit), so no denominators are cleared; orders below 0 must cancel in
    the sum, which is kept over one integer denominator.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    orders, common = {}, 1  # order -> numerator over the common denominator
    for key, coeff in zeta.terms.items():
        exps = [nu + n * nn for (nu, nn) in key]
        if 0 in exps:
            raise PoleAtOne(f"pair {key[exps.index(0)]} degenerates at T = L^-{n}")
        d = prod(exps)
        top = abs(d) ** (len(key) + 1)
        if common % top:
            grow = top // gcd(common, top)
            common *= grow
            orders = {order: c * grow for order, c in orders.items()}
        for j, c in enumerate(_laurent_at_one(coeff, exps)):
            order = j - len(key)
            orders[order] = orders.get(order, 0) + c * (common // d ** (j + 1))
    if any(c for order, c in orders.items() if order < 0):
        raise PoleAtOne("the specialization has a pole at L = 1")
    return Fraction(orders.get(0, 0), common)


def poles(ratfunc):
    """Poles of a cancelled rational function as (value, multiplicity)."""
    return ratfunc.pole_list()
