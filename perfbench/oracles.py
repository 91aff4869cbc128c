"""References the benchmark checks outputs against, independent of the code
paths under test.

They read only public data: node, edge and arrowhead tuples of a diagram and
the multiplicity caches that `realizable_refine` attaches.  The sums here
are plain `Fraction` arithmetic, with none of the package's rational
function machinery.
"""

from __future__ import annotations

from fractions import Fraction


def top_zeta_value(refined, s, order=None):
    """Topological (or twisted) zeta at s, summed stratum by stratum.

    Nodes contribute (2 - delta_v)/(N_v s + nu_v), with delta_v counting
    node-edges and arrowheads; edges and arrowheads contribute
    1/((N s + nu)(N' s + nu')).  With `order`, a stratum counts only when
    every N in it is divisible by the order.  Returns None when a
    denominator vanishes at s.
    """
    s = Fraction(s)
    pair = {v: tuple(refined.cache(v)) for v in refined.nodes}
    degree = dict.fromkeys(refined.nodes, 0)
    for e in refined.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    for a in refined.arrows:
        degree[a.node] += 1

    def ok(*ns):
        return order is None or all(n % order == 0 for n in ns)

    def lin(n, nu):
        return n * s + nu

    total = Fraction(0)
    try:
        for v, (n, nu) in pair.items():
            if degree[v] != 2 and ok(n):
                total += Fraction(2 - degree[v]) / lin(n, nu)
        for e in refined.edges:
            (n1, nu1), (n2, nu2) = pair[e.u], pair[e.v]
            if ok(n1, n2):
                total += 1 / (lin(n1, nu1) * lin(n2, nu2))
        for a in refined.arrows:
            n, nu = pair[a.node]
            if ok(n, a.N):
                total += 1 / (lin(n, nu) * lin(a.N, a.nu))
    except ZeroDivisionError:
        return None
    return total


def pole_classes(pole_list):
    """Eigenvalue classes exp(2 pi i s) of the poles, as fractions in [0, 1)."""
    return [Fraction(s0) % 1 for s0, _ in pole_list]


TARGET_110 = {Fraction(1, 110), Fraction(109, 110)}


def congruent(i1, i2):
    """The criterion-09 congruence 2*i1 + 3*i2 = 3 (mod 6)."""
    return (2 * i1 + 3 * i2) % 6 == 3


def criterion_09(records):
    """Verdicts of the form-parameter impossibility search.

    `records` maps (i1, i2, i3, k) to (classes of the order-330 poles,
    whether every order-60 pole class is an eigenvalue at the origin).
    Returns a list of violated statements, empty when the paper's claims
    hold: no tuple meets both conditions, every tuple meeting the first
    satisfies the congruence, every tuple with a class of denominator 110
    satisfies it, and no congruent tuple meets the second condition.
    """
    bad = []
    both = [t for t, (cls, b) in records.items()
            if b and any(q in TARGET_110 for q in cls)]
    if both:
        bad.append(f"{len(both)} tuples meet both conditions, e.g. {both[0]}")
    a_only = [t for t, (cls, _) in records.items()
              if any(q in TARGET_110 for q in cls) and not congruent(*t[:2])]
    if a_only:
        bad.append(f"target class without the congruence at {a_only[0]}")
    d110 = [t for t, (cls, _) in records.items()
            if any(q.denominator == 110 for q in cls)]
    if not d110:
        bad.append("no tuple has a pole class of denominator 110")
    elif not all(congruent(*t[:2]) for t in d110):
        bad.append("a denominator-110 class without the congruence")
    held = [t for t, (_, b) in records.items() if b and congruent(*t[:2])]
    if held:
        bad.append(f"congruent tuple keeps the order-60 poles at {held[0]}")
    return bad
