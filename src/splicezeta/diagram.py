"""Decorated-tree diagrams for plane-curve singularities.

A diagram is a tree whose vertices stand for exceptional curves of an
embedded resolution (with some valency-two vertices possibly removed).
Every end of every edge carries a positive integer decoration, and each
arrowhead represents a strict-transform branch carrying the pair
(N, nu): N is the multiplicity of the function along the branch and
nu - 1 the multiplicity of the differential form.  A branch belonging to
the function alone is (N, 1); a form-only branch is (0, nu).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import (
    CacheMismatch,
    DecoratedArrowPresent,
    DegenerateDenominator,
    MissingCache,
    ValidationError,
)


@dataclass(frozen=True, order=True)
class Edge:
    u: str
    v: str
    du: int
    dv: int

    def other(self, w):
        return self.v if w == self.u else self.u

    def dec_at(self, w):
        if w == self.u:
            return self.du
        if w == self.v:
            return self.dv
        raise KeyError(w)

    def key(self):
        return (self.u, self.v)


@dataclass(frozen=True, order=True)
class Arrowhead:
    node: str
    dec: int
    N: int
    nu: int


class Diagram:
    """Immutable decorated tree with arrowheads and optional multiplicity caches."""

    __slots__ = ("nodes", "edges", "arrows", "caches", "_adj")

    def __init__(self, nodes, edges, arrows, caches=None):
        self.nodes = tuple(sorted(nodes))
        es = []
        for e in edges:
            if e.u > e.v:
                e = Edge(e.v, e.u, e.dv, e.du)
            es.append(e)
        self.edges = tuple(sorted(es))
        self.arrows = tuple(sorted(arrows))
        self.caches = dict(caches or {})
        adj = {v: [] for v in self.nodes}
        for e in self.edges:
            # edges naming unknown nodes are kept and reported by validate
            if e.u in adj and e.v in adj:
                adj[e.u].append(e)
                adj[e.v].append(e)
        self._adj = adj

    @classmethod
    def _assemble(cls, nodes, edges, arrows, caches, adj):
        """A diagram sharing already sorted parts and their adjacency."""
        d = cls.__new__(cls)
        d.nodes, d.edges, d.arrows, d.caches, d._adj = nodes, edges, arrows, caches, adj
        return d

    # -- structure queries -------------------------------------------------

    def node_edges(self, v):
        return self._adj[v]

    def arrows_at(self, v):
        return [a for a in self.arrows if a.node == v]

    def edge_between(self, u, v):
        for e in self._adj.get(u, ()):
            if e.other(u) == v:
                return e
        return None

    def decorations_at(self, v):
        """All decorations incident to v (edge ends first, then arrowheads)."""
        out = [e.dec_at(v) for e in self._adj[v]]
        out.extend(a.dec for a in self.arrows_at(v))
        return out

    def outer_product(self, v, exclude_edge=None, exclude_arrow=None):
        """Product of the decorations at v other than the excluded one."""
        acc = 1
        for e in self._adj[v]:
            if e is not exclude_edge:
                acc *= e.dec_at(v)
        skipped = False
        for a in self.arrows_at(v):
            if not skipped and a == exclude_arrow:
                skipped = True
                continue
            acc *= a.dec
        return acc

    def cache(self, v):
        return self.caches.get(v)

    def with_caches(self, table):
        merged = dict(self.caches)
        merged.update(table)
        return Diagram(self.nodes, self.edges, self.arrows, merged)

    def without_caches(self):
        return Diagram(self.nodes, self.edges, self.arrows)

    def has_decorated_arrow(self):
        return any(a.dec != 1 for a in self.arrows)

    def __repr__(self):
        return (f"Diagram({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"{len(self.arrows)} arrows)")

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.arrows == other.arrows and self.caches == other.caches)

    def __hash__(self):
        return hash((self.nodes, self.edges, self.arrows,
                     frozenset(self.caches.items())))


class MultTable(dict):
    """Node -> (N, nu) with (N, nu) never (0, 0)."""

    def __setitem__(self, k, v):
        if tuple(v) == (0, 0):
            raise DegenerateDenominator(f"(N, nu) = (0, 0) at node {k}")
        super().__setitem__(k, tuple(v))


@dataclass(frozen=True)
class SpliceData:
    """Multiplicity pairs of the two sides of an edge: (M, i) right, (M', i') left."""

    M: int
    M_prime: int
    i: int
    i_prime: int

    def as_tuple(self):
        return (self.M, self.M_prime, self.i, self.i_prime)

    @staticmethod
    def across(weights, u, v):
        """From side weights (see side_weights) of edge u-v; v is on the right."""
        (m_r, i_r), (m_l, i_l) = weights[(u, v)], weights[(v, u)]
        return SpliceData(M=m_r, M_prime=m_l, i=i_r, i_prime=i_l)


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def edge_determinant(d, e):
    """d*d' minus the product of all other decorations at both endpoints."""
    du_out = d.outer_product(e.u, exclude_edge=e)
    dv_out = d.outer_product(e.v, exclude_edge=e)
    return e.du * e.dv - du_out * dv_out


def _is_tree(d):
    if not d.nodes:
        return False
    if len(d.edges) != len(d.nodes) - 1:
        return False
    seen = {d.nodes[0]}
    stack = [d.nodes[0]]
    while stack:
        v = stack.pop()
        for e in d.node_edges(v):
            w = e.other(v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(d.nodes)


def validate(d):
    """Return a list of invariant violations; an empty list means valid."""
    out = []
    if not d.nodes:
        return ["diagram has no nodes"]
    for e in d.edges:
        if e.u not in d._adj or e.v not in d._adj:
            out.append(f"edge {e.u}-{e.v} references an unknown node")
        if e.du < 1 or e.dv < 1:
            out.append(f"edge {e.u}-{e.v} has a decoration < 1")
    for a in d.arrows:
        if a.node not in d._adj:
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
        decs = d.decorations_at(v)
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


def validation_warnings(d):
    """Soft issues worth reporting: form-only arrowheads with nu = 0."""
    return [f"arrowhead at {a.node} has nu = 0" for a in d.arrows if a.nu <= 0]


def check_valid(d):
    violations = validate(d)
    if violations:
        raise ValidationError(violations)
    return d


# ---------------------------------------------------------------------------
# Valencies and side weights.
# ---------------------------------------------------------------------------


def valency(d, v, kind="plain"):
    """Number of legs at v: node-edges only, plus f-arrows, or plus all arrows."""
    base = len(d.node_edges(v))
    if kind == "plain":
        return base
    if kind == "with_f_arrows":
        return base + sum(1 for a in d.arrows_at(v) if a.N >= 1)
    if kind == "full":
        return base + len(d.arrows_at(v))
    raise ValueError(f"unknown valency kind {kind!r}")


def edge_sides(d, e):
    """(u-side nodes, v-side nodes) after deleting e."""

    def component(start):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for f in d.node_edges(v):
                if f is e:
                    continue
                w = f.other(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return component(e.u), component(e.v)


def side_weights(d):
    """Node multiplicities and far-side weights of a standard diagram, in one pass.

    Returns (table, weights): table[v] is (N_v, nu_v), and weights[(x, v)]
    is the function and form weight (M, i) of the side of edge x-v that
    contains v, seen from the edge.  With P_v the product of the
    decorations at v, d_f the decoration of node-edge f at v, and
    own(v) = (sum of N_a, sum of (nu_a - 1) + 2 - delta_v) over the
    arrowheads a at v (delta_v counts node-edges),

        (N_v, nu_v) = P_v own(v) + sum over f = v-x of (P_v / d_f) W(v -> x)
        W(x -> v)   = ((N_v, nu_v) - (P_v / d_f) W(v -> x)) / d_f.

    A sweep from the leaves gives the weights pointing away from the root,
    a sweep from the root the rest; every division is exact.
    """
    if d.has_decorated_arrow():
        raise DecoratedArrowPresent(
            "side weights are only defined when every arrowhead has decoration 1")
    p = {v: prod(e.dec_at(v) for e in d.node_edges(v)) for v in d.nodes}
    total = {v: [0, p[v] * (2 - len(d.node_edges(v)))] for v in d.nodes}
    for a in d.arrows:
        total[a.node][0] += p[a.node] * a.N
        total[a.node][1] += p[a.node] * (a.nu - 1)
    order, up = list(d.nodes[:1]), dict.fromkeys(d.nodes[:1])  # up: edge to root
    for v in order:
        for e in d.node_edges(v):
            if e.other(v) not in up:
                up[e.other(v)] = e
                order.append(e.other(v))
    # total[v] lacks the side of v's root edge until the second sweep adds it
    weights = {}
    for v in reversed(order[1:]):
        e = up[v]
        x, dv = e.other(v), e.dec_at(v)
        m, i = weights[(x, v)] = (total[v][0] // dv, total[v][1] // dv)
        k = p[x] // e.dec_at(x)
        total[x][0] += k * m
        total[x][1] += k * i
    for v in order[1:]:
        e = up[v]
        x, dx = e.other(v), e.dec_at(e.other(v))
        k = p[x] // dx
        m, i = weights[(x, v)]
        m, i = weights[(v, x)] = ((total[x][0] - k * m) // dx,
                                  (total[x][1] - k * i) // dx)
        k = p[v] // e.dec_at(v)
        total[v][0] += k * m
        total[v][1] += k * i
    return {v: tuple(t) for v, t in total.items()}, weights


# ---------------------------------------------------------------------------
# Multiplicities.
# ---------------------------------------------------------------------------


def multiplicities(d):
    """Multiplicity table (N_v, nu_v) for every node of a standard diagram.

    N_v weighs the arrowhead N's over the whole tree; nu_v adds the valency
    defect of every node and the form weights nu_a - 1 of every arrowhead
    (see side_weights).  Existing caches are verified against the computed
    values.
    """
    table = _checked_side_weights(d)[0]
    out = MultTable()
    for v in d.nodes:
        out[v] = table[v]
    return out


def _checked_side_weights(d):
    """side_weights(d), after checking the caches d carries against it."""
    table, weights = side_weights(d)
    for v in d.nodes:
        cached = d.cache(v)
        if cached is not None and tuple(cached) != table[v]:
            raise CacheMismatch(
                f"node {v}: cached {tuple(cached)} != computed {table[v]}")
    return table, weights


def cached_table(d):
    """Multiplicities from caches when necessary, else from the formulas.

    Diagrams with decorated arrowheads must be fully cached (their values
    are not recomputable here); standard diagrams are recomputed, which
    also verifies whatever caches they carry.
    """
    if d.has_decorated_arrow():
        missing = [v for v in d.nodes if d.cache(v) is None]
        if missing:
            raise MissingCache(
                f"nodes {missing} have no cached multiplicities and the "
                f"diagram carries decorated arrowheads")
        return MultTable({v: tuple(d.cache(v)) for v in d.nodes})
    return multiplicities(d)


def ensure_cached(d):
    """The same diagram with a complete, verified multiplicity cache."""
    return d.with_caches(cached_table(d))


# ---------------------------------------------------------------------------
# Splice data and cone vectors.
# ---------------------------------------------------------------------------


def arrow_refined_weights(d):
    """(plain, weights): d with its decorated arrowheads refined away, and
    the far-side weights of plain (see side_weights).

    plain is d itself when every arrowhead has decoration 1; otherwise d
    must be fully cached, and plain carries the interpolated caches.  Those
    are checked against the side weights of plain, with the check that
    multiplicities (and so realizable_refine) makes.
    """
    if d.has_decorated_arrow():
        from .refine import refine_all_arrows

        d = refine_all_arrows(ensure_cached(d))
    return d, _checked_side_weights(d)[1]


def splice_data(d, e):
    """Function and form weights (M, i) of the two sides of edge e.

    The right side is the one containing e.v.  Decorated arrowheads are
    refined away first (see arrow_refined_weights).
    """
    return SpliceData.across(arrow_refined_weights(d)[1], e.u, e.v)


def cone_vector(d, e, endpoint):
    """(near decoration, product of the other decorations) at an endpoint of e.

    For an Arrowhead endpoint the vector is (0, 1).  To subdivide, orient by
    swapping the far endpoint's coordinates; then det(w_near, w_far_swapped)
    equals the edge determinant.
    """
    if isinstance(endpoint, Arrowhead):
        return (0, 1)
    if endpoint not in (e.u, e.v):
        raise KeyError(f"{endpoint} is not an endpoint of this edge")
    return (e.dec_at(endpoint), d.outer_product(endpoint, exclude_edge=e))
