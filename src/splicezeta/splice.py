"""Splicing a diagram along an edge, and exact verification of the identity.

Splicing keeps both endpoints of the edge.  On each output diagram the far
endpoint loses its subtree and arrowheads and instead carries one arrowhead
whose decoration is its former outer product and whose (N, nu) pair is the
function/form weight of the removed side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import RatFuncS, _partial_fractions_vanish
from .diagram import (
    Arrowhead,
    Diagram,
    SpliceData,
    arrow_refined_weights,
    check_valid,
    edge_sides,
    nonzero_pairs,
)
from .errors import DegenerateDenominator, NotAnEdge
from .zeta import L_MINUS_1_SQ, ZetaExpr, _add_strata, _add_term, _top_terms


@dataclass(frozen=True)
class SpliceResult:
    left: Diagram
    right: Diagram
    data: SpliceData


def splice(diagram, edge_key):
    """Split the diagram along a node-edge into two decorated halves.

    `edge_key` is a pair of node ids.  Decorated arrowheads are refined away
    internally before the side weights are computed, so the result is well
    defined for spliced diagrams as well.  One side-weight pass gives the
    halves' caches and the splice data.
    """
    u, v = edge_key
    d, table, weights = arrow_refined_weights(diagram)
    d = d.with_caches(nonzero_pairs(table))
    e = d.edge_between(u, v)
    if e is None:
        raise NotAnEdge(f"{u}-{v} is not a node-edge")
    u, v = e.u, e.v
    data = SpliceData.across(weights, u, v)
    u_side, v_side = edge_sides(d, e)

    def half(keep, stub, stub_pair):
        """Diagram keeping `keep` plus the stub endpoint with one arrowhead."""
        nodes = sorted(keep | {stub})
        edges = [f for f in d.edges if f.u in keep and f.v in keep]
        edges.append(e)
        arrows = [a for a in d.arrows if a.node in keep]
        outer = d.outer_product(stub, exclude_edge=e)
        arrows.append(Arrowhead(stub, outer, stub_pair[0], stub_pair[1]))
        caches = {k: val for k, val in d.caches.items() if k in keep or k == stub}
        return check_valid(Diagram(nodes, edges, arrows, caches))

    left = half(u_side, v, (data.M, data.i))
    right = half(v_side, u, (data.M_prime, data.i_prime))
    return SpliceResult(left=left, right=right, data=data)


def correction_term(m, m_prime, i, i_prime):
    """(L - 1)^2 * T^(M + M') / ((L^i - T^M) (L^i' - T^M'))."""
    _check_correction(m, m_prime, i, i_prime)
    return ZetaExpr.term(L_MINUS_1_SQ, ((i, m), (i_prime, m_prime)))


def correction_term_top(m, m_prime, i, i_prime):
    """1 / ((M s + i) (M' s + i'))."""
    _check_correction(m, m_prime, i, i_prime)
    return RatFuncS.from_term(1, [(m, i), (m_prime, i_prime)])


def _check_correction(m, m_prime, i, i_prime):
    if (m, i) == (0, 0) or (m_prime, i_prime) == (0, 0):
        raise DegenerateDenominator("correction term needs (M, i) != (0, 0)")


def verify_splice_motivic(diagram, edge_key):
    """Exact check of Z(G) = Z(G_L) + Z(G_R) - correction."""
    return _motivic_identity(diagram, splice(diagram, edge_key))


def verify_splice_top(diagram, edge_key):
    """Exact check of the topological specialization of the splice identity."""
    return _top_identity(_top_terms(diagram), splice(diagram, edge_key))


def _motivic_identity(diagram, r):
    """Whether r, a splice of diagram, fits the identity: the difference
    Z(G) + correction - Z(G_L) - Z(G_R) is summed in one term dict and
    tested once."""
    diff = {}
    _add_strata(diff, diagram)
    m, m_prime, i, i_prime = r.data.as_tuple()
    _check_correction(m, m_prime, i, i_prime)
    _add_term(diff, tuple(sorted(((i, m), (i_prime, m_prime)))), L_MINUS_1_SQ)
    _add_strata(diff, r.left, -1)
    _add_strata(diff, r.right, -1)
    return ZetaExpr(diff).is_zero()


def _top_identity(whole, r):
    """Whether the top zeta terms `whole` of the spliced diagram fit r: with
    the halves' negated terms and the correction they must sum to zero."""
    terms = list(whole)
    for half in (r.left, r.right):
        terms += [(-chi, pairs) for chi, pairs in _top_terms(half)]
    m, m_prime, i, i_prime = r.data.as_tuple()
    _check_correction(m, m_prime, i, i_prime)
    terms.append((1, ((m, i), (m_prime, i_prime))))
    return _partial_fractions_vanish(terms)
