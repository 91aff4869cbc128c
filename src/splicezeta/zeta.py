"""Motivic, topological, and twisted topological zeta functions of diagrams.

All three are sums over the nodes, edges, and arrowheads of a realizable
refinement.  The node coefficient uses the full valency (node-edges plus
every arrowhead); this is the choice that reproduces the Euler number of
the punctured exceptional curve and the classical values.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heapreplace

from .algebra import Poly2, _partial_fraction_sum
from .errors import DegenerateDenominator, PoleAtOne
from .refine import realizable_refine

L_MINUS_1 = Poly2({(1, 0): 1, (0, 0): -1})
L_MINUS_1_SQ = L_MINUS_1 * L_MINUS_1


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
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        z = ZetaExpr()
        z.terms = out
        return z

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
        diff = self - other
        return not diff.terms or _expansion_vanishes(diff)

    def is_zero(self):
        return self == ZetaExpr.zero()

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
    z is zero exactly when its expansion vanishes up to T^B.  The degrees
    are walked in increasing windows of about _WINDOW_KEYS monomials, which
    bounds the memory, and a nonzero z stops at the window of its lowest term.
    """
    mult = z.pairs()
    cones = defaultdict(lambda: defaultdict(int))  # apex -> L-exponent -> coeff
    top = 0
    for key, coeff in z.terms.items():
        for (nu, n), m in mult.items():
            for _ in range(0 if n else m - key.count((nu, n))):
                coeff = coeff * Poly2({(nu, 0): 1, (0, 0): -1})
        steps = tuple(sorted((p for p in key if p[1]), key=lambda p: -p[1]))
        for (a, b), c in coeff.terms.items():
            cones[b + sum(n for _, n in steps), steps][a - sum(nu for nu, _ in steps)] += c
            top = max(top, b)
    bound = top + sum(n * m for (_, n), m in mult.items())
    # L^l T^t is the key t * K + l, one-to-one while |l| < K / 2: a point
    # of a cone is at most bound - lo steps away from its apex (lo, l)
    lo = min((t for t, _ in cones), default=0)
    K = 3 + 2 * max((abs(l) + (bound - lo) * sum(abs(nu) for nu, _ in steps)
                     for (_, steps), mons in cones.items() for l in mons), default=0)
    rows = []   # (T-degree of its next point, key of that point, walk id)
    walks = []  # walk id -> (T-step of its rows, key step, monomials)
    for (t0, steps), mons in cones.items():
        corners = [(t0, t0 * K)]
        for nu, n in steps[:-1]:
            corners = [(t + n * k, x + (n * K - nu) * k) for t, x in corners
                       for k in range((bound - t) // n + 1)]
        nu, n = steps[-1] if steps else (0, bound + 1)  # no steps: one point
        rows += [(t, x, len(walks)) for t, x in corners]
        walks.append((n, n * K - nu, [(l, c) for l, c in mons.items() if c]))
    heapify(rows)
    width = 1
    while rows and rows[0][0] <= bound:
        hi = min(rows[0][0] + width, bound + 1)
        acc = defaultdict(int)
        while rows and rows[0][0] < hi:
            t, x, i = rows[0]
            n, step, mons = walks[i]
            k = (hi - 1 - t) // n + 1
            for key in range(x, x + k * step, step):
                for l, c in mons:
                    acc[key + l] += c
            if t + k * n <= bound:
                heapreplace(rows, (t + k * n, x + k * step, i))
            else:
                heappop(rows)
        if any(acc.values()):
            return False
        width = max(1, min(2 * width, width * _WINDOW_KEYS // max(1, len(acc))))
    return True


_WINDOW_KEYS = 1 << 13


def _strata(d):
    """(pair(v), full valency) per node, pair lists for edges and arrows."""
    table = {v: tuple(d.cache(v)) for v in d.nodes}
    for v, (n, nu) in table.items():
        if (n, nu) == (0, 0):
            raise DegenerateDenominator(f"node {v} has (N, nu) = (0, 0)")
    at = Counter(a.node for a in d.arrows)
    nodes = [((table[v][1], table[v][0]), len(d.node_edges(v)) + at[v]) for v in d.nodes]
    edges = [((table[e.u][1], table[e.u][0]), (table[e.v][1], table[e.v][0]))
             for e in d.edges]
    arrows = []
    for a in d.arrows:
        if (a.N, a.nu) == (0, 0):
            raise DegenerateDenominator(f"arrowhead at {a.node} has (N, nu) = (0, 0)")
        arrows.append(((table[a.node][1], table[a.node][0]), (a.nu, a.N)))
    return nodes, edges, arrows


def motivic_zeta(diagram):
    """Motivic zeta function of the diagram as an exact ZetaExpr."""
    d = realizable_refine(diagram)
    nodes, edges, arrows = _strata(d)
    acc = ZetaExpr.zero()
    for pair, delta in nodes:
        coeff = L_MINUS_1 * Poly2({(1, 0): 1, (0, 0): 1 - delta})
        acc = acc + ZetaExpr.term(coeff, (pair,))
    for pu, pv in edges:
        acc = acc + ZetaExpr.term(L_MINUS_1_SQ, (pu, pv))
    for pv, pa in arrows:
        acc = acc + ZetaExpr.term(L_MINUS_1_SQ, (pv, pa))
    return acc


def _top_terms(d, order=None):
    """RatFuncS terms of the (possibly twisted) topological zeta function."""
    if order is not None and order < 1:
        raise ValueError("order must be a positive integer")
    nodes, edges, arrows = _strata(d)
    if order is not None:
        nodes = [(pair, delta) for pair, delta in nodes if pair[1] % order == 0]
        edges = [(p, q) for p, q in edges if not (p[1] % order or q[1] % order)]
        arrows = [(p, q) for p, q in arrows if not (p[1] % order or q[1] % order)]
    terms = [(2 - delta, (pair,)) for pair, delta in nodes if delta != 2]
    return terms + [(1, pairs) for pairs in edges + arrows]


def _sum_terms(terms):
    return _partial_fraction_sum([(chi, [(n, nu) for (nu, n) in pairs])
                                  for chi, pairs in terms])


def top_zeta(diagram):
    """Topological zeta function, fully cancelled."""
    return _sum_terms(_top_terms(realizable_refine(diagram)))


def twisted_top_zeta(diagram, order):
    """Topological zeta restricted to strata whose N's are divisible by order."""
    return _sum_terms(_top_terms(realizable_refine(diagram), order))


def _binomials(a, k):
    """C(a, 0), ..., C(a, k): the expansion of L^a = (1 + eps)^a to order k."""
    out = [1]
    for r in range(1, k + 1):
        out.append(out[-1] * (a - r + 1) // r)
    return out


def _laurent_at_one(coeff, exps):
    """Orders -k..0 in eps = L - 1 of coeff(L) / prod (L^m - 1).

    Entry j of the result is the coefficient of eps^(j - k), k = len(exps).
    """
    k = len(exps)
    num = [0] * (k + 1)
    for (a, b), c in coeff.terms.items():
        if b:
            raise ValueError("coefficients must be univariate in L")
        for r, x in enumerate(_binomials(a, k)):
            num[r] += c * x
    den = [1] + [0] * k
    for m in exps:
        g = _binomials(m, k + 1)[1:]  # (L^m - 1) / eps
        den = [sum(den[i] * g[j - i] for i in range(j + 1)) for j in range(k + 1)]
    out = []
    for j in range(k + 1):
        out.append(Fraction(num[j] - sum(out[i] * den[j - i] for i in range(j)),
                            den[0]))
    return out


def specialize_chi_top(zeta, n):
    """Euler-characteristic value of the motivic zeta at T = L^(-n).

    Substituting turns every factor T^N / (L^nu - T^N) into 1 / (L^m - 1)
    with m = nu + n*N.  The value at L = 1 is the order-0 coefficient of the
    sum of the terms' Laurent expansions in eps = L - 1 (the Denef-Loeser
    limit), so no denominators are cleared; orders below 0 must cancel in
    the sum.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    orders = {}
    for key, coeff in zeta.terms.items():
        exps = [nu + n * nn for (nu, nn) in key]
        if 0 in exps:
            raise PoleAtOne(f"pair {key[exps.index(0)]} degenerates at T = L^-{n}")
        for j, c in enumerate(_laurent_at_one(coeff, exps)):
            orders[j - len(key)] = orders.get(j - len(key), 0) + c
    if any(c for order, c in orders.items() if order < 0):
        raise PoleAtOne("the specialization has a pole at L = 1")
    return Fraction(orders.get(0, 0))


def poles(ratfunc):
    """Poles of a cancelled rational function as (value, multiplicity)."""
    return ratfunc.pole_list()


def candidate_poles_motivic(diagram):
    """(nu, N) pairs of the canonical realizable refinement with N >= 1.

    This is a superset of the actual motivic poles; certified poles are
    only provided at the topological level.
    """
    d = realizable_refine(diagram)
    out = set()
    for v in d.nodes:
        n, nu = d.cache(v)
        if n >= 1:
            out.add((nu, n))
    for a in d.arrows:
        if a.N >= 1:
            out.add((a.nu, a.N))
    return out
