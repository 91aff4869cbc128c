"""Independent oracles used to freeze expected values.

Nothing in here goes through the package's formulas: multiplicities come
from explicit blow-up charts or from linking numbers read off tree paths,
subdivisions from exhaustive search, root orders from expanded polynomials.
Only the diagram data structure and its edge sides are shared, and two
references reuse the package's algebra: `fold_sum` adds one term at a time
with `rat_add`, which cancels and normalises after each step and leaves the
representation the one-pass top-zeta sum must keep, and `cleared_numerator`
clears the denominators of a `ZetaExpr` with `Poly2` products, the verdict
the T-adic equality test must match; `point_walk_vanishes` is that test one
lattice point at a time, without the package's grouping into rows.  The `Fraction` references of the
partial-fraction and Euler-specialization kernels (`term_fractions`,
`partial_fractions_vanish`, `specialize_chi_top`) are the earlier versions of
the package's integer ones, kept to test that those agree with them, and
`validate_reference` is the earlier `validate`, with one outer product per
edge end.  `eigenvalues_reference` is the earlier `eigenvalues`: one frozen
dataclass around one `Fraction(a, m)` per class, with the multiplicity of
each root order summed over the exponent table of Delta_1.  `DataclassEdge`
and `DataclassArrowhead` are the earlier frozen dataclass records, and
`BUILDERS_REFERENCE` the earlier builders, which built every diagram from
its parts with `Diagram(...)`.
"""

from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import sympy as sp

from splicezeta.algebra import Poly2, RatFuncS, _poly_mul, _poly_trim
from splicezeta.diagram import (
    Arrowhead, Diagram, Edge, _is_tree, check_valid, edge_determinant, edge_sides,
)
from splicezeta.errors import DegenerateBranch, PoleAtOne
from splicezeta.monodromy import delta0, delta1


def det(a, b):
    return a[0] * b[1] - a[1] * b[0]


# ---------------------------------------------------------------------------
# Blow-up chart oracle for the cusp x^3 - y^2 with form x^a y^b dx dy.
# ---------------------------------------------------------------------------

def cusp_chart_multiplicities(a, b):
    """(N, nu) along the three exceptional curves, from explicit charts.

    Chart maps for the three point blow-ups resolving the cusp; in each
    chart the named variable cuts out the exceptional curve.  Returned in
    the order: curve met by the x-axis branch, central curve (met by the
    strict transform of the cusp), curve met by the y-axis branch.
    """
    u, v = sp.symbols("u v")
    f = lambda X, Y: X**3 - Y**2
    charts = [
        (u, u * v, u),            # first blow-up
        (u * v**2, u * v**3, v),  # third blow-up (central curve)
        (u * v, u * v**2, v),     # second blow-up
    ]
    out = []
    for X, Y, exc in charts:
        jac = sp.expand(sp.diff(X, u) * sp.diff(Y, v) - sp.diff(X, v) * sp.diff(Y, u))
        n_val = _ord(sp.expand(f(X, Y)), exc)
        nu_val = _ord(sp.expand(X**a * Y**b * jac), exc) + 1
        out.append((n_val, nu_val))
    return out


def _ord(expr, var):
    poly = sp.Poly(expr, var)
    return min(m[0] for m in poly.monoms())


# ---------------------------------------------------------------------------
# Exhaustive smooth-chain search.
# ---------------------------------------------------------------------------

def primitive_vectors(bound):
    return [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
            if gcd(a, b) == 1]


def all_chains(u, v, length, bound):
    """Every chain u -> ... -> v of the given interior length with det-1 steps.

    Interior vectors range over all primitive vectors with entries up to
    `bound` lying strictly inside the cone.
    """
    rays = [w for w in primitive_vectors(bound)
            if det(u, w) > 0 and det(w, v) > 0]
    chains = []

    def extend(chain):
        if len(chain) == length + 1:
            if det(chain[-1], v) == 1:
                chains.append(chain + [v])
            return
        for w in rays:
            if det(chain[-1], w) == 1:
                extend(chain + [w])

    extend([u])
    return chains


def brute_minimal_chains(u, v, bound):
    """All minimal-length smooth chains from u to v (entries up to bound)."""
    for length in range(0, 2 * bound + 2):
        found = all_chains(u, v, length, bound)
        if found:
            return found
    raise AssertionError("no chain found within the bound")


# ---------------------------------------------------------------------------
# Cyclotomic expansion oracle.
# ---------------------------------------------------------------------------

def minimal_chain_per_vector(u, v):
    """The minimal smooth chain from u to v, one Euclid per vector: from the
    current vector cur, the primitive w with det(cur, w) = 1, shifted by
    multiples of cur until it just enters the cone.  u and v are primitive
    with det(u, v) >= 1."""
    from splicezeta.refine import _ext_gcd

    chain, cur = [u], u
    while det(cur, v) > 1:
        _, x, y = _ext_gcd(cur[0], cur[1])
        w = (-y, x)
        t = -(det(w, v) // det(cur, v))
        cur = (w[0] + t * cur[0], w[1] + t * cur[1])
        chain.append(cur)
    return chain + [v]


def expand_cyclo(exps):
    """Expand prod (t^n - 1)^(e_n) with e_n >= 0 as a sympy polynomial."""
    t = sp.symbols("t")
    acc = sp.Integer(1)
    for n, e in exps.items():
        if e < 0:
            raise ValueError("only nonnegative exponents expand to a polynomial")
        acc *= (t**n - 1) ** e
    return sp.Poly(sp.expand(acc), t)


def root_order(exps, q):
    """Order of vanishing of prod (t^n - 1)^(e_n) at exp(2 pi i q).

    Splits into positive and negative parts, expands both, and counts how
    often the cyclotomic polynomial of q's denominator divides each.
    """
    q = Fraction(q)
    pos = {n: e for n, e in exps.items() if e > 0}
    neg = {n: -e for n, e in exps.items() if e < 0}
    return _phi_multiplicity(pos, q.denominator) - _phi_multiplicity(neg, q.denominator)


def _phi_multiplicity(exps, d):
    if not exps:
        return 0
    t = sp.symbols("t")
    poly = expand_cyclo(exps)
    phi = sp.Poly(sp.cyclotomic_poly(d, t), t)
    count = 0
    while True:
        quo, rem = sp.div(poly, phi)
        if not rem.is_zero:
            return count
        poly = sp.Poly(quo, t)
        count += 1


# ---------------------------------------------------------------------------
# Term-by-term rational summation.
# ---------------------------------------------------------------------------

def sum_terms_at(terms, s):
    """Exact value at s of sum chi / prod (N s + nu)."""
    s = Fraction(s)
    acc = Fraction(0)
    for chi, pairs in terms:
        val = Fraction(chi)
        for (n, nu) in pairs:
            val /= n * s + nu
        acc += val
    return acc


def fold_sum(terms):
    """Sum of chi / prod (N s + nu), adding one term at a time with rat_add.

    Every step cancels and normalises the running sum again, so this is
    cubic in the number of terms; the package sums in one pass instead.
    """
    acc = RatFuncS.zero()
    for chi, pairs in terms:
        acc = rat_add(acc, RatFuncS.from_term(chi, pairs))
    return acc


def rat_add(a, b):
    """a + b over the union of the retained factors, cancelled again.

    Both numerators are brought to the common scale and factors as integer
    polynomials, so the sum and its cancellation stay on integers.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    da, db = dict(a.den), dict(b.den)
    union = {p: max(da.get(p, 0), db.get(p, 0)) for p in set(da) | set(db)}
    sc = lcm(a.scale, b.scale)
    na = [c * (sc // a.scale) for c in a.num]
    nb = [c * (sc // b.scale) for c in b.num]
    for p, m in union.items():
        f = [p[1], p[0]]  # nu + N*s
        for _ in range(m - da.get(p, 0)):
            na = _poly_mul(na, f)
        for _ in range(m - db.get(p, 0)):
            nb = _poly_mul(nb, f)
    return _normalize(_poly_add(na, nb), union, sc)


def rat_sub(a, b):
    return rat_add(a, RatFuncS(tuple(-c for c in b.num), b.den, b.scale))


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)])


def _poly_div_linear(a, n, nu):
    """a / (n*s + nu) for coprime n, nu, or None when it does not divide a.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    linear factor has integer coefficients whenever it exists.
    """
    out = [0] * len(a)  # out[k] is the coefficient of s^k in the quotient
    for k in range(len(a) - 1, 0, -1):
        q, r = divmod(a[k] - nu * out[k], n)
        if r:
            return None
        out[k - 1] = q
    return out[:-1] if a[0] == nu * out[0] else None


def _normalize(num, den, scale):
    """Cancel shared roots, fold constants, reduce num / scale to lowest terms."""
    num = _poly_trim(num)
    if not num:
        return RatFuncS.zero()
    den = {p: m for p, m in den.items() if m > 0}
    # cancel proportional factors largest first, so the primitive ones survive
    for p in sorted(den, reverse=True):
        n, nu = p
        if n == 0:
            continue
        g = gcd(n, nu)
        while den.get(p, 0) > 0:
            quotient = _poly_div_linear(num, n // g, nu // g)
            if quotient is None:
                break
            num, scale = quotient, scale * g
            den[p] -= 1
        if den.get(p) == 0:
            del den[p]
    for p in list(den):
        n, nu = p
        if n == 0:
            scale *= nu ** den.pop(p)
    if scale < 0:
        num, scale = [-c for c in num], -scale
    g = gcd(*num, scale)
    return RatFuncS([c // g for c in num], den.items(), scale // g)


# ---------------------------------------------------------------------------
# Partial fractions and the Euler specialization on Fractions.
# ---------------------------------------------------------------------------

def term_fractions(chi, pairs):
    """The (pair, root) of each factor with N != 0 of chi / prod (N*s + nu),
    and the term's partial fractions ((root, order), c) for
    c / (s - root)^order, with Fraction roots and coefficients and the key
    (0, 0) for the constant; a zero term has none."""
    c = Fraction(chi)
    lin = []
    for p in pairs:
        if p == (0, 0):
            raise ValueError("factor (0, 0)")
        if p[0]:
            lin.append(p)
        else:
            c /= p[1]
    if not c:
        return [], []
    if len(lin) > 2:
        raise ValueError("a term may have at most two factors with N != 0")
    factors = [(p, Fraction(-p[1], p[0])) for p in lin]
    if not lin:
        return factors, [((0, 0), c)]
    if len(lin) == 1:
        return factors, [((factors[0][1], 1), c / lin[0][0])]
    (n1, nu1), (n2, nu2) = lin
    det = n1 * nu2 - n2 * nu1
    if det:
        return factors, [((factors[0][1], 1), c / det), ((factors[1][1], 1), -c / det)]
    return factors, [((factors[0][1], 2), c / (n1 * n2))]


def partial_fractions_vanish(terms):
    """Whether the sum of chi / prod (N*s + nu) over (chi, pairs) terms is 0."""
    coeff = {}
    for chi, pairs in terms:
        for key, c in term_fractions(chi, pairs)[1]:
            coeff[key] = coeff.get(key, 0) + c
    return not any(coeff.values())


def _binomials(a, k):
    out = [1]
    for r in range(1, k + 1):
        out.append(out[-1] * (a - r + 1) // r)
    return out


def laurent_at_one(coeff, exps):
    """Orders -k..0 in eps = L - 1 of coeff(L) / prod (L^m - 1) as Fractions;
    entry j is the coefficient of eps^(j - k), k = len(exps)."""
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
    """Value at L = 1 of the motivic zeta at T = L^(-n), summing the terms'
    Laurent expansions as Fractions; raises PoleAtOne like the package."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    orders = {}
    for key, coeff in zeta.terms.items():
        exps = [nu + n * nn for (nu, nn) in key]
        if 0 in exps:
            raise PoleAtOne(f"pair {key[exps.index(0)]} degenerates at T = L^-{n}")
        for j, c in enumerate(laurent_at_one(coeff, exps)):
            orders[j - len(key)] = orders.get(j - len(key), 0) + c
    if any(c for order, c in orders.items() if order < 0):
        raise PoleAtOne("the specialization has a pole at L = 1")
    return Fraction(orders.get(0, 0))


# ---------------------------------------------------------------------------
# Clearing the denominators of a motivic zeta expression.
# ---------------------------------------------------------------------------

def binomial_l_minus_t(nu, n):
    """L^nu - T^n."""
    return Poly2({(nu, 0): 1}) - Poly2({(0, n): 1})


def mul_binomial(p, nu, n):
    """p * (L^nu - T^n) without building the factor."""
    out = {}
    for (a, b), c in p.terms.items():
        for k, v in (((a + nu, b), c), ((a, b + n), -c)):
            out[k] = out.get(k, 0) + v
    return Poly2(out)


def cleared_numerator(z):
    """Numerator of the ZetaExpr z over prod (L^nu - T^N)^mult.

    The multiset is z.pairs(), so z equals the returned polynomial divided
    by the product of the denominator binomials, and z is zero exactly when
    the polynomial is.  The cost grows with the product of all binomials.
    """
    den = z.pairs()
    total = Poly2.zero()
    for key, coeff in z.terms.items():
        t_deg = sum(n for (_, n) in key)
        part = Poly2({(a, b + t_deg): c for (a, b), c in coeff.terms.items()})
        for (nu, n), m in den.items():
            for _ in range(m - key.count((nu, n))):
                part = mul_binomial(part, nu, n)
        total = total + part
    return total


def point_walk_vanishes(z):
    """Whether the ZetaExpr z is zero, from its T-expansion point by point.

    The reference for the row sweep behind ZetaExpr.is_zero: the same
    degree bound, but no division by L - 1 and no grouping of rows.  Times
    (L^nu - 1)^m for its N = 0 pairs, z is a sum of c(L, T) times products
    of T^N / (L^nu - T^N) = sum_{k >= 1} L^(-nu k) T^(N k), and it is zero
    exactly when every coefficient of that expansion up to T-degree
    B = sum N m + the largest T-degree of a c vanishes.  Every lattice point
    of every cone is added into one dict, so the cost grows with the points.
    """
    if not z.terms:
        return True
    mult = z.pairs()
    bound = (max(b for c in z.terms.values() for _, b in c.terms)
             + sum(n * m for (_, n), m in mult.items()))
    acc = {}
    for key, coeff in z.terms.items():
        for (nu, n), m in mult.items():
            for _ in range(0 if n else m - key.count((nu, n))):
                coeff = coeff * Poly2({(nu, 0): 1, (0, 0): -1})
        points = [(0, 0)]  # (T-degree, L-exponent) of each point of the cone
        for nu, n in key:
            if n:
                points = [(t + n * k, l - nu * k) for t, l in points
                          for k in range(1, (bound - t) // n + 1)]
        for t, l in points:
            for (a, b), c in coeff.terms.items():
                if t + b <= bound:
                    acc[t + b, l + a] = acc.get((t + b, l + a), 0) + c
    return not any(acc.values())


# ---------------------------------------------------------------------------
# Toric model of a monomial with form weights.
# ---------------------------------------------------------------------------

def toric_values(ray, m, m_prime, i, i_prime):
    """(N, nu) along the divisor of a primitive quadrant ray (a, b)."""
    a, b = ray
    return (a * m + b * m_prime, a * i + b * i_prime)


# ---------------------------------------------------------------------------
# Linking numbers by walking tree paths.
# ---------------------------------------------------------------------------

def _path_nodes(d, src, dst):
    """Node sequence of the tree path from src to dst."""
    parent = {src: None}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for e in d.node_edges(v):
            w = e.other(v)
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if dst not in parent:
        raise KeyError(f"no path from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def decorations_at(d, v):
    """All decorations incident to v (edge ends first, then arrowheads)."""
    out = [e.dec_at(v) for e in d.node_edges(v)]
    out.extend(a.dec for a in d.arrows_at(v))
    return out


def outer_product(d, v, exclude_edge=None, exclude_arrow=None):
    """Diagram.outer_product by one loop over the decorations at v, which
    skips the excluded edge by identity and the first arrowhead equal to the
    excluded one."""
    acc = 1
    for e in d.node_edges(v):
        if e is not exclude_edge:
            acc *= e.dec_at(v)
    skipped = False
    for a in d.arrows_at(v):
        if not skipped and a == exclude_arrow:
            skipped = True
            continue
        acc *= a.dec
    return acc


def linking(d, source, target):
    """Product of the decorations adjacent to the path but not on it.

    `target` is a node id or an Arrowhead.  The self-linking of a node is
    the product of everything incident to it; this is the one convention
    consistent with multiplicities computed from explicit blow-up charts.
    """
    if isinstance(target, Arrowhead):
        path = _path_nodes(d, source, target.node)
        return _link_product(d, path, skip_arrow=target)
    if source == target:
        return prod(decorations_at(d, source))
    path = _path_nodes(d, source, target)
    return _link_product(d, path, skip_arrow=None)


def _link_product(d, path, skip_arrow):
    on_path = set()
    for a, b in zip(path, path[1:]):
        on_path.add((a, b))
        on_path.add((b, a))
    acc = 1
    for v in path:
        for e in d.node_edges(v):
            if (v, e.other(v)) not in on_path:
                acc *= e.dec_at(v)
        skipped = False
        for a in d.arrows_at(v):
            if not skipped and a == skip_arrow:
                skipped = True
                continue
            acc *= a.dec
    return acc


def linking_from_edge(d, e, target):
    """Like linking, but the path starts at e and e's decorations are skipped."""
    if isinstance(target, Arrowhead):
        anchor, skip = target.node, target
    else:
        anchor, skip = target, None
    u_side, v_side = edge_sides(d, e)
    start = e.u if anchor in u_side else e.v
    path = _path_nodes(d, start, anchor)
    acc = _link_product(d, path, skip_arrow=skip)
    # e's own decoration at the starting endpoint was counted; remove it
    return acc // e.dec_at(start)


def linking_multiplicities(d):
    """(N_v, nu_v) of every node as sums of linking numbers over the tree."""
    table = {}
    for v in d.nodes:
        n_val = nu_val = 0
        for a in d.arrows:
            la = linking(d, v, a)
            n_val += a.N * la
            nu_val += (a.nu - 1) * la
        for w in d.nodes:
            nu_val += (2 - len(d.node_edges(w))) * linking(d, v, w)
        table[v] = (n_val, nu_val)
    return table


def linking_side_weight(d, e, side):
    """(M, i) of the nodes `side` of edge e as sums of linking numbers from e."""
    m_val = i_val = 0
    for a in d.arrows:
        if a.node in side:
            la = linking_from_edge(d, e, a)
            m_val += a.N * la
            i_val += (a.nu - 1) * la
    for w in side:
        i_val += (2 - len(d.node_edges(w))) * linking_from_edge(d, e, w)
    return (m_val, i_val)


# ---------------------------------------------------------------------------
# Diagram validation, one outer product per edge end.
# ---------------------------------------------------------------------------

def validate_reference(d):
    """The violations validate must report, in its text and order."""
    out = []
    if not d.nodes:
        return ["diagram has no nodes"]
    for e in d.edges:
        if e.u not in d.skeleton.adj or e.v not in d.skeleton.adj:
            out.append(f"edge {e.u}-{e.v} references an unknown node")
        if e.du < 1 or e.dv < 1:
            out.append(f"edge {e.u}-{e.v} has a decoration < 1")
    for a in d.arrows:
        if a.node not in d.skeleton.adj:
            out.append(f"arrowhead at unknown node {a.node}")
        if a.dec < 1:
            out.append(f"arrowhead at {a.node} has decoration < 1")
        if a.N < 0:
            out.append(f"arrowhead at {a.node} has N < 0")
        if (a.N, a.nu) == (0, 0):
            out.append(f"arrowhead at {a.node} has (N, nu) = (0, 0)")
    if out:
        return out
    if not _is_tree(d):
        out.append("node-edge graph is not a tree")
    for v in d.nodes:
        decs = decorations_at(d, v)
        for i in range(len(decs)):
            for j in range(i + 1, len(decs)):
                if gcd(decs[i], decs[j]) != 1:
                    out.append(
                        f"decorations {decs[i]} and {decs[j]} at node {v} "
                        f"are not coprime")
    for e in d.edges:
        q = edge_determinant(d, e)
        if q < 1:
            out.append(f"edge {e.u}-{e.v} has determinant {q} < 1")
    return out


# ---------------------------------------------------------------------------
# Eigenvalue classes, one Fraction per class.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class EigenvalueClass:
    """The earlier class, whose repr and order the package's class keeps."""
    q: Fraction
    multiplicity: int
    source: str


def eigenvalues_reference(diagram):
    """The classes a/m of every root order m with positive multiplicity in
    Delta_1, and a/d0 mod 1 for Delta_0 = t^d0 - 1."""
    exps = delta1(diagram).exps
    (d0,) = delta0(diagram).exps
    out = set()
    for m in sorted({m for n in exps for m in sp.divisors(n)}):
        mult = sum(e for n, e in exps.items() if n % m == 0)
        if mult > 0:
            out.update(EigenvalueClass(Fraction(a, m), mult, "h1")
                       for a in range(m) if gcd(a, m) == 1)
    out.update(EigenvalueClass(Fraction(a, d0) % 1, 1, "h0") for a in range(d0))
    return out


# ---------------------------------------------------------------------------
# The earlier records and builders.
# ---------------------------------------------------------------------------

def _dec_at(self, w):
    if w == self.u:
        return self.du
    if w == self.v:
        return self.dv
    raise KeyError(w)


DataclassEdge = make_dataclass(
    "Edge", [("u", str), ("v", str), ("du", int), ("dv", int)], frozen=True, order=True,
    namespace={"other": lambda self, w: self.v if w == self.u else self.u,
               "dec_at": _dec_at, "key": lambda self: (self.u, self.v)})
DataclassArrowhead = make_dataclass(
    "Arrowhead", [("node", str), ("dec", int), ("N", int), ("nu", int)],
    frozen=True, order=True)


def _monomial(m, m_prime, i, i_prime):
    if (m, i) == (0, 0) or (m_prime, i_prime) == (0, 0):
        raise DegenerateBranch("a branch pair (N, nu) must not be (0, 0)")
    return check_valid(Diagram(
        ["n1"], [], [Arrowhead("n1", 1, m, i), Arrowhead("n1", 1, m_prime, i_prime)]))


def _cusp(a, b):
    if a < 0 or b < 0:
        raise DegenerateBranch("form exponents must be nonnegative")
    return check_valid(Diagram(
        ["n1", "n2", "n3"], [Edge("n1", "n2", 1, 3), Edge("n2", "n3", 2, 2)],
        [Arrowhead("n2", 1, 1, 1), Arrowhead("n1", 1, 0, a + 1),
         Arrowhead("n3", 1, 0, b + 1)]))


def _nv_example2(i1, i2, i3, k):
    if 0 in (i1, i2, i3):
        raise DegenerateBranch("a form-only arrowhead needs nu != 0")
    return check_valid(Diagram(
        ["n1", "n2", "n3", "n4", "n5"],
        [Edge("n1", "n3", 2, 3), Edge("n2", "n3", 1, 4),
         Edge("n3", "n4", 1, 66), Edge("n4", "n5", 5, 14)],
        [Arrowhead("n4", 1, 1, k), Arrowhead("n1", 1, 0, i1),
         Arrowhead("n2", 1, 0, i2), Arrowhead("n5", 1, 0, i3)]))


def _xy2_chain():
    return check_valid(Diagram(
        ["n1", "n2"], [Edge("n1", "n2", 1, 2)],
        [Arrowhead("n1", 1, 1, 1), Arrowhead("n2", 1, 2, 1)]))


# builder name in sdio -> the earlier builder
BUILDERS_REFERENCE = {"builder_monomial": _monomial, "builder_cusp": _cusp,
                      "builder_nv_example2": _nv_example2,
                      "builder_xy2_chain": _xy2_chain}
