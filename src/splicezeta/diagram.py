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

from collections import Counter
from dataclasses import dataclass
from math import gcd, prod
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    CacheMismatch,
    DecoratedArrowPresent,
    DegenerateDenominator,
    MissingCache,
    ValidationError,
)


class Edge(NamedTuple):
    """A node-edge u-v with decoration du at u and dv at v; a tuple record,
    so that it is built, hashed and ordered at C level."""

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


class Arrowhead(NamedTuple):
    node: str
    dec: int
    N: int
    nu: int


class Skeleton:
    """What a diagram is apart from its arrowheads' (N, nu) and its caches.

    It holds the sorted nodes, the oriented and sorted edges, their
    adjacency and each arrowhead's (node, decoration), in the order of the
    sorted arrowheads, where those at a node take one index span (spans:
    node -> (start, stop)).  Diagrams built from equal parts share one
    object while it is among the last _SKELETON_BOUND entered in the intern
    table, unless two of its edges join the same nodes (see _enter).
    It keeps what depends on the skeleton alone, each computed on first use:
    verdict, validate's findings once the arrowheads' (N, nu) are clean
    (False when the skeleton has an unknown node or a decoration < 1, which
    validate reports together with those), plan, the refinement plan
    (refine._Plan), and products (see Diagram.outer_product).
    """

    __slots__ = ("nodes", "edges", "arrow_decs", "adj", "spans", "verdict", "plan", "products")

    def __init__(self, nodes, edges, arrow_decs):
        self.nodes, self.edges, self.arrow_decs = nodes, edges, arrow_decs
        adj = {v: [] for v in nodes}
        for e in edges:
            # edges naming unknown nodes are kept and reported by validate
            if e.u in adj and e.v in adj:
                adj[e.u].append(e)
                adj[e.v].append(e)
        self.adj = adj
        self.spans = spans = {}
        for i, (v, _) in enumerate(arrow_decs):
            spans[v] = (spans[v][0] if v in spans else i, i + 1)
        self.verdict, self.plan, self.products = None, None, {}

    def interned(self):
        """This skeleton, or the equal one the intern table holds since this
        one left it; entered again when the table holds neither."""
        key = (self.nodes, self.edges, self.arrow_decs)
        return _skeletons.get(key) or _enter(key, self)


_SKELETON_BOUND = 64
_skeletons = {}  # (nodes, edges, arrow_decs) -> Skeleton, oldest first
_ENDS = _NODE_DEC = itemgetter(0, 1)  # an Edge's (u, v), an Arrowhead's (node, dec)


def sorted_parts(nodes, edges):
    """(nodes, edges) as a Diagram keeps them: sorted, each edge from its
    smaller node."""
    oriented = (e if e.u <= e.v else Edge(e.v, e.u, e.dv, e.du) for e in edges)
    return tuple(sorted(nodes)), tuple(sorted(oriented))


def _enter(key, skeleton):
    """Make skeleton the newest entry of the table, which has none equal to
    it; the oldest leaves when the table is full, and drops its plan, so
    that the table bounds the plans kept.

    A skeleton with two edges between the same nodes stays out of the
    table, so that its edges stay its diagram's own objects: edge_determinant
    excludes an edge by identity, and one Edge listed twice has other
    determinants than two equal Edges.  Such a graph is no tree.
    """
    edges = key[1]
    if len(set(map(_ENDS, edges))) < len(edges):
        return skeleton
    _skeletons[key] = skeleton
    if len(_skeletons) > _SKELETON_BOUND:
        _skeletons.pop(next(iter(_skeletons))).plan = None
    return skeleton


class Diagram:
    """Immutable decorated tree with arrowheads and optional multiplicity caches."""

    # skeleton: the shared Skeleton; _strata: refine._strata of this diagram,
    # computed on first use by refine.refined_strata
    __slots__ = ("nodes", "edges", "arrows", "caches", "skeleton", "_strata")

    def __init__(self, nodes, edges, arrows, caches=None):
        self.arrows = arrows = tuple(sorted(arrows))
        key = (*sorted_parts(nodes, edges), tuple(map(_NODE_DEC, arrows)))
        skeleton = self.skeleton = _skeletons.get(key) or _enter(key, Skeleton(*key))
        self.nodes, self.edges = skeleton.nodes, skeleton.edges
        self.caches = dict(caches or {})
        self._strata = None

    @classmethod
    def _assemble(cls, skeleton, arrows, caches):
        """A diagram of a skeleton, with sorted arrows of its (node, dec)s."""
        d = cls.__new__(cls)
        d.nodes, d.edges, d.arrows, d.caches = skeleton.nodes, skeleton.edges, arrows, caches
        d.skeleton, d._strata = skeleton, None
        return d

    # -- structure queries -------------------------------------------------

    def node_edges(self, v):
        return self.skeleton.adj[v]

    def arrows_at(self, v):
        start, stop = self.skeleton.spans.get(v, (0, 0))
        return list(self.arrows[start:stop])

    def edge_between(self, u, v):
        for e in self.skeleton.adj.get(u, ()):
            if e.other(u) == v:
                return e
        return None

    def outer_product(self, v, exclude_edge=None, exclude_arrow=None):
        """Product of the decorations at v other than the excluded one; the
        skeleton keeps per node the product of its edges' decorations and how
        often it lists each Edge object, so that an excluded edge that is one
        of v's own objects divides out, unless it is decorated 0."""
        adj, products = self.skeleton.adj[v], self.skeleton.products
        acc, own = products.get(v) or products.setdefault(
            v, (prod(e.dec_at(v) for e in adj), Counter(map(id, adj))))
        if k := own.get(id(exclude_edge)):
            dec = exclude_edge.dec_at(v)
            acc = acc // dec ** k if dec else prod(
                e.dec_at(v) for e in adj if e is not exclude_edge)
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
        return Diagram._assemble(self.skeleton, self.arrows, merged)

    def without_caches(self):
        return Diagram._assemble(self.skeleton, self.arrows, {})

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
    """Return a list of invariant violations; an empty list means valid.

    The arrowheads' (N, nu) are checked on every call, the rest once per
    skeleton (see Skeleton.verdict).
    """
    if not d.nodes:
        return ["diagram has no nodes"]
    skeleton = d.skeleton
    if skeleton.verdict is None:
        skeleton.verdict = _skeleton_verdict(d)
    local = skeleton.verdict is False  # then out gets a fault of the skeleton
    out = _edge_faults(d) if local else []
    for a in d.arrows:
        if local:
            if a.node not in skeleton.adj:
                out.append(f"arrowhead at unknown node {a.node}")
            if a.dec < 1:
                out.append(f"arrowhead at {a.node} has decoration < 1")
        if a.N < 0:
            out.append(f"arrowhead at {a.node} has N < 0")
        if (a.N, a.nu) == (0, 0):
            out.append(f"arrowhead at {a.node} has (N, nu) = (0, 0)")
    return out or list(skeleton.verdict)


def _edge_faults(d):
    out = []
    for e in d.edges:
        if e.u not in d.skeleton.adj or e.v not in d.skeleton.adj:
            out.append(f"edge {e.u}-{e.v} references an unknown node")
        if e.du < 1 or e.dv < 1:
            out.append(f"edge {e.u}-{e.v} has a decoration < 1")
    return out


def _skeleton_verdict(d):
    """Skeleton.verdict of d's skeleton, read off d."""
    if _edge_faults(d) or any(a.node not in d.skeleton.adj or a.dec < 1
                              for a in d.arrows):
        return False
    out = []
    tree = _is_tree(d)
    if not tree:
        out.append("node-edge graph is not a tree")
    at = {v: [] for v in d.nodes}
    for a in d.arrows:
        at[a.node].append(a.dec)
    p = {}  # node -> product of its decorations
    for v in d.nodes:
        decs = [e.dec_at(v) for e in d.node_edges(v)] + at[v]
        # pairwise coprime exactly when each is coprime to the product
        # of those before it; only a failing node looks for its pairs
        acc = 1
        for x in decs:
            if gcd(acc, x) != 1:
                out += [f"decorations {a} and {b} at node {v} are not coprime"
                        for i, a in enumerate(decs) for b in decs[i + 1:]
                        if gcd(a, b) != 1]
                acc = prod(decs)
                break
            acc *= x
        p[v] = acc
    for e in d.edges:
        # in a tree no edge meets a node twice, so P_u / d_u excludes just e
        q = (e.du * e.dv - p[e.u] // e.du * (p[e.v] // e.dv) if tree
             else edge_determinant(d, e))
        if q < 1:
            out.append(f"edge {e.u}-{e.v} has determinant {q} < 1")
    return tuple(out)


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
    return nonzero_pairs(_checked_side_weights(d)[0])


def nonzero_pairs(table):
    """table, a node -> (N, nu) map, after refusing a node with (0, 0)."""
    for v, pair in table.items():
        if pair == (0, 0):
            raise DegenerateDenominator(f"(N, nu) = (0, 0) at node {v}")
    return table


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
        return nonzero_pairs({v: tuple(d.cache(v)) for v in d.nodes})
    return multiplicities(d)


def ensure_cached(d):
    """The same diagram with a complete, verified multiplicity cache."""
    return d.with_caches(cached_table(d))


# ---------------------------------------------------------------------------
# Splice data and cone vectors.
# ---------------------------------------------------------------------------


def arrow_refined_weights(d):
    """(plain, table, weights): d with its decorated arrowheads refined away,
    and the multiplicities and far-side weights of plain (see side_weights).

    plain is d itself when every arrowhead has decoration 1; otherwise d
    must be fully cached, and plain carries the interpolated caches.  Those
    are checked against the side weights of plain, with the check that
    multiplicities (and so realizable_refine) makes.
    """
    if d.has_decorated_arrow():
        from .refine import refine_all_arrows

        d = refine_all_arrows(ensure_cached(d))
    return (d, *_checked_side_weights(d))


def splice_data(d, e):
    """Function and form weights (M, i) of the two sides of edge e.

    The right side is the one containing e.v.  Decorated arrowheads are
    refined away first (see arrow_refined_weights).
    """
    return SpliceData.across(arrow_refined_weights(d)[2], e.u, e.v)


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
