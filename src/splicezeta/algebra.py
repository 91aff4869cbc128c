"""Exact arithmetic substrate.

Everything here is exact: arbitrary-precision integers, `fractions.Fraction`
for rationals, sparse integer Laurent polynomials in the two formal symbols
L and T, rational functions in one variable s with factored denominators,
and cyclotomic products recorded as integer exponent tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

# ---------------------------------------------------------------------------
# Sparse polynomials in (L, T).
#
# Terms are stored as {(L-exponent, T-exponent): coefficient}.  L-exponents
# may be negative (the coefficient ring is localized at L), T-exponents are
# kept nonnegative.  No zero coefficients are stored.
# ---------------------------------------------------------------------------


class Poly2:
    """Sparse integer Laurent polynomial in L and T."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {k: c for k, c in terms.items() if c != 0}
        else:
            self.terms = {}

    @staticmethod
    def const(c):
        return Poly2({(0, 0): int(c)})

    @staticmethod
    def zero():
        return Poly2()

    @staticmethod
    def one():
        return Poly2.const(1)

    @staticmethod
    def lvar(exp=1):
        return Poly2({(exp, 0): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Poly2({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        p = Poly2()
        p.terms = out
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Poly2()
            return Poly2({k: c * other for k, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        p = Poly2()
        p.terms = out
        return p

    __rmul__ = __mul__

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        return render_poly2(self)

    def __repr__(self):
        return f"Poly2({self})"


def _monomial_str(el, et):
    parts = []
    if el == 1:
        parts.append("L")
    elif el != 0:
        parts.append(f"L^{el}")
    if et == 1:
        parts.append("T")
    elif et != 0:
        parts.append(f"T^{et}")
    return "*".join(parts)


def render_poly2(p):
    if not p.terms:
        return "0"
    chunks = []
    for (el, et), c in p.sorted_terms():
        mono = _monomial_str(el, et)
        if mono:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        else:
            body = str(abs(c))
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Rational functions in s with factored linear denominators.
# ---------------------------------------------------------------------------


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


class RatFuncS:
    """Rational function of s kept as num / (scale * prod (N*s + nu)^mult).

    The numerator is an integer polynomial sharing no roots with the retained
    denominator factors; the positive integer `scale` absorbs constant factors
    and whatever cannot be pushed into the numerator without breaking
    integrality.  Equality compares values, not representations, so the same
    function reached along different routes always compares equal.
    """

    __slots__ = ("num", "den", "scale")

    def __init__(self, num, den, scale):
        self.num = tuple(num)
        self.den = tuple(sorted(den))
        self.scale = scale

    @staticmethod
    def zero():
        return RatFuncS((), (), 1)

    @staticmethod
    def from_term(chi, pairs):
        """chi / prod (N*s + nu) for integer chi and (N, nu) pairs."""
        den, scale = {}, 1
        for p in pairs:
            if p == (0, 0):
                raise ValueError("factor (0, 0)")
            if p[0]:
                den[p] = den.get(p, 0) + 1
            else:
                scale *= p[1]
        if not chi:
            return RatFuncS.zero()
        if scale < 0:
            chi, scale = -chi, -scale
        g = gcd(chi, scale)
        return RatFuncS([chi // g], den.items(), scale // g)

    def is_zero(self):
        return not self.num

    def degree(self):
        return len(self.num) - 1

    def __eq__(self, other):
        if not isinstance(other, RatFuncS):
            return NotImplemented

        def cross(a, b):
            """a.num * b.scale * prod b.den, an integer polynomial."""
            out = _poly_trim(c * b.scale for c in a.num)
            for (n, nu), m in b.den:
                for _ in range(m):
                    out = _poly_mul(out, [nu, n])
            return out

        return cross(self, other) == cross(other, self)

    def __hash__(self):
        raise TypeError("unhashable")

    def evaluate(self, x):
        x = Fraction(x)
        dv = Fraction(self.scale)
        for (n, nu), m in self.den:
            dv *= (n * x + nu) ** m
        if dv == 0:
            raise ZeroDivisionError(f"pole at s = {x}")
        return _poly_eval(self.num, x) / dv

    def pole_list(self):
        """Surviving poles as (location, multiplicity), grouped by _root pair."""
        if len(self.den) == 1:
            ((n, nu), m), = self.den
            return [(Fraction(-nu, n), m)] if n > 0 else []
        acc = {}
        for (n, nu), m in self.den:
            if n > 0:
                r = _root(n, nu)
                acc[r] = acc.get(r, 0) + m
        return sorted((Fraction(*r), m) for r, m in acc.items())

    def _num_str(self, compact):
        if not self.num:
            return "0"
        chunks = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            elif k == 1:
                body = "s" if abs(c) == 1 else f"{abs(c)}*s"
            else:
                body = f"s^{k}" if abs(c) == 1 else f"{abs(c)}*s^{k}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if c > 0 else f" - {body}")
        s = "".join(chunks)
        if compact:
            s = s.replace(" ", "")
        return s

    def render(self, compact=False):
        if not self.num:
            return "0"
        num = self._num_str(compact)
        if sum(1 for c in self.num if c) > 1:
            num = f"({num})"
        if not self.den and self.scale == 1:
            return num
        facs = []
        for (n, nu), m in self.den:
            if n == 0:
                body = str(nu)
            elif nu > 0:
                body = f"({n}*s + {nu})"
            elif nu < 0:
                body = f"({n}*s - {-nu})"
            else:
                body = f"({n}*s)"
            facs.append(body if m == 1 else f"{body}^{m}")
        if self.scale != 1:
            facs.insert(0, str(self.scale))
        den = "*".join(facs)
        if len(facs) > 1:
            den = f"({den})"
        out = f"{num} / {den}"
        if compact:
            out = out.replace(" ", "")
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFuncS({self})"


def _root(n, nu):
    """The root -nu/n of n*s + nu as the reduced pair (-nu/g, n/g), n/g > 0."""
    g = gcd(n, nu) if n > 0 else -gcd(n, nu)
    return -nu // g, n // g


def _term_fractions(chi, pairs):
    """The (pair, root) of each factor with N != 0 of chi / prod (N*s + nu),
    and the term's partial fractions over one integer denominator.

    Returns (factors, den, parts), with parts ((root, order), num) for
    num / den / (s - root)^order, the key (0, 0) for the constant and roots
    as _root pairs; a zero term has no parts.  A nonzero term may have at
    most two factors with N != 0.
    """
    den, lin = 1, []
    for p in pairs:
        if p == (0, 0):
            raise ValueError("factor (0, 0)")
        if p[0]:
            lin.append(p)
        else:
            den *= p[1]
    if not chi:
        return [], 1, []
    if len(lin) > 2:
        raise ValueError("a term may have at most two factors with N != 0")
    factors = [(p, _root(*p)) for p in lin]
    parts = [((r, 1), chi) for _, r in factors] or [((0, 0), chi)]
    if len(lin) == 2:
        (n1, nu1), (n2, nu2) = lin
        det = n1 * nu2 - n2 * nu1
        den *= det or n1 * n2
        parts = [parts[0], (parts[1][0], -chi)] if det else [((factors[0][1], 2), chi)]
    elif lin:
        den *= lin[0][0]
    return factors, den, parts


def _add_ratio(acc, key, num, den):
    """acc[key] += num / den on (numerator, denominator) pairs of integers,
    dropping a sum that cancels and reducing the others, so that their
    size follows the value's and not the number of terms."""
    n, d = acc.pop(key, (0, den))
    g = gcd(d, den)
    num, den = num * (d // g) + n * (den // g), d // g * den
    if num:
        g = gcd(num, den)
        acc[key] = (num // g, den // g)


def _partial_fractions_vanish(terms):
    """Whether the sum of chi / prod (N*s + nu) over (chi, pairs) terms is 0.

    Partial fractions are unique, so the sum is zero exactly when its
    constant and every (root, order) coefficient cancel.
    """
    coeff = {}
    for chi, pairs in terms:
        _, den, parts = _term_fractions(chi, pairs)
        for key, num in parts:
            _add_ratio(coeff, key, num, den)
    return not coeff


def _partial_fraction_sum(terms):
    """Sum of chi / prod (N*s + nu) over (chi, pairs) terms, in one pass.

    Each term may have at most two pairs with N != 0.  The result is the
    representation that adding the terms one at a time leaves (the fold of
    the test oracles): given the retained factors, num / scale is the value
    times their product, and the fold retains at each root -nu/N the pairs
    seen there since the last zero partial sum (largest count of each
    pair), cut down to the partial sum's pole order by keeping the smallest
    pairs.  So the pass keeps the partial sum's constant and its order-1
    and order-2 partial-fraction coefficients per root, with the retained
    pairs per root, and builds the integer numerator once at the end.
    """
    if len(terms) == 1:
        return RatFuncS.from_term(*terms[0])
    coeff = {}  # (root, order) -> (num, den) of the nonzero coefficient
    kept = {}   # root -> {pair: count} retained at that root
    for chi, pairs in terms:
        factor_roots, den, parts = _term_fractions(chi, pairs)
        if not parts:  # the fold returns the running sum unchanged
            continue
        for key, num in parts:
            _add_ratio(coeff, key, num, den)
        if not coeff:
            kept.clear()
            continue
        lin = [p for p, _ in factor_roots]
        for r in {r for _, r in factor_roots}:
            merged = dict(kept.get(r, ()))
            for p, rp in factor_roots:
                if rp == r:
                    merged[p] = max(merged.get(p, 0), lin.count(p))
            order = 2 if (r, 2) in coeff else 1 if (r, 1) in coeff else 0
            kept[r] = retained = {}
            for p in sorted(merged):
                if order <= 0:
                    break
                retained[p] = min(merged[p], order)
                order -= retained[p]
    if not coeff:
        return RatFuncS.zero()
    const, const_den = coeff.pop((0, 0), (0, 1))
    product = [1]
    for retained in kept.values():
        for (n, nu), m in retained.items():
            for _ in range(m):
                product = _poly_mul(product, [nu, n])
    scale = lcm(const_den, *(den for _, den in coeff.values()))
    num = [const * (scale // const_den) * x for x in product]
    for r, retained in kept.items():
        part, lead = product, 1
        factors = [p for p in sorted(retained) for _ in range(retained[p])]
        for order, (n, nu) in enumerate(factors, start=1):
            # product / (s - r)^order, an integer polynomial
            part, lead = _div_linear(part, n, nu), lead * n
            c = coeff.get((r, order))
            if c is not None:
                k = c[0] * (scale // c[1]) * lead
                for i, x in enumerate(part):
                    num[i] += k * x
    num = _poly_trim(num)
    g = gcd(*num, scale)
    return RatFuncS([x // g for x in num], [(p, m) for retained in kept.values()
                                            for p, m in retained.items()], scale // g)


def _div_linear(a, n, nu):
    """a / (n*s + nu) for an integer a that it divides exactly."""
    out = [0] * (len(a) - 1)
    rest = a[-1]
    for i in range(len(a) - 2, -1, -1):
        out[i] = rest // n
        rest = a[i] - nu * out[i]
    return out


# ---------------------------------------------------------------------------
# Cyclotomic products prod (t^n - 1)^{e_n}.
# ---------------------------------------------------------------------------


def _divisors(n):
    """The positive divisors of n >= 1, found up to its square root."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


class CycloProduct:
    """Finite exponent table n -> e_n for the product of (t^n - 1)^{e_n}."""

    __slots__ = ("exps", "_orders")

    def __init__(self, exps=None):
        self.exps = {int(n): int(e) for n, e in (exps or {}).items() if e != 0}
        if any(n <= 0 for n in self.exps):
            raise ValueError("exponents of t must be positive")
        self._orders = None

    @property
    def orders(self):
        """Root order d -> multiplicity of every primitive d-th root of unity,
        the sum of e_n over the n that d divides; built on first use."""
        if self._orders is None:
            table = {}
            for n, e in self.exps.items():
                for d in _divisors(n):
                    table[d] = table.get(d, 0) + e
            self._orders = table
        return self._orders

    def __eq__(self, other):
        if not isinstance(other, CycloProduct):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(frozenset(self.exps.items()))

    def __mul__(self, other):
        out = dict(self.exps)
        for n, e in other.exps.items():
            v = out.get(n, 0) + e
            if v:
                out[n] = v
            else:
                del out[n]
        return CycloProduct(out)

    def multiplicity(self, q):
        """Order of vanishing at exp(2*pi*i*q) for a reduced q in [0, 1)."""
        q = Fraction(q)
        if not 0 <= q < 1:
            raise ValueError("q must lie in [0, 1)")
        return self.orders.get(q.denominator, 0)

    def is_polynomial(self):
        """True when every root has nonnegative total multiplicity."""
        return min(self.orders.values(), default=0) >= 0

    def __str__(self):
        if not self.exps:
            return "1"
        pos = [(n, e) for n, e in sorted(self.exps.items()) if e > 0]
        neg = [(n, -e) for n, e in sorted(self.exps.items()) if e < 0]

        def fmt(items):
            return "*".join(
                f"(t^{n} - 1)" + (f"^{e}" if e != 1 else "") for n, e in items
            )

        if not neg:
            return fmt(pos)
        den = fmt(neg)
        if len(neg) > 1:
            den = f"({den})"
        return f"{fmt(pos) if pos else '1'} / {den}"

    def __repr__(self):
        return f"CycloProduct({self.exps})"
