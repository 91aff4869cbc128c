"""Smooth cone subdivisions and diagram refinement.

Refining an edge inserts a chain of valency-two nodes corresponding to a
smooth subdivision of the planar cone the edge spans; refining an arrowhead
with decoration above 1 does the same for the cone it spans with the ray
(0, 1).  Reduction removes valency-two arrowless nodes again.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd

from .diagram import (
    Arrowhead,
    Diagram,
    Edge,
    cone_vector,
    edge_determinant,
    ensure_cached,
    multiplicities,
)
from .errors import (
    MissingCache,
    NegativeDeterminant,
    NonIntegralInterpolation,
    NonPrimitiveInput,
    NotAnEdge,
)


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def is_primitive(v):
    return gcd(v[0], v[1]) == 1 and v != (0, 0)


class Subdivision:
    """Chain of primitive vectors with consecutive determinants one."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        self.vectors = tuple(tuple(v) for v in vectors)
        problems = self.check()
        if problems:
            raise ValueError("; ".join(problems))

    def check(self):
        out = []
        vs = self.vectors
        if len(vs) < 2:
            return ["a subdivision needs both endpoints"]
        for v in vs:
            if not is_primitive(v):
                out.append(f"{v} is not primitive")
        for a, b in zip(vs, vs[1:]):
            if det2(a, b) != 1:
                out.append(f"det({a}, {b}) = {det2(a, b)} != 1")
        if out:
            return out
        for i in range(1, len(vs) - 1):
            w = vs[i]
            s = (vs[i - 1][0] + vs[i + 1][0], vs[i - 1][1] + vs[i + 1][1])
            idx = 0 if w[0] else 1
            if s[idx] % w[idx] or (b := s[idx] // w[idx]) < 1 \
                    or s != (b * w[0], b * w[1]):
                out.append(
                    f"interior vector {w}: neighbors do not sum to a multiple")
        return out

    @property
    def interior(self):
        return self.vectors[1:-1]

    def b_values(self):
        vs = self.vectors
        out = []
        for i in range(1, len(vs) - 1):
            s0 = vs[i - 1][0] + vs[i + 1][0]
            s1 = vs[i - 1][1] + vs[i + 1][1]
            out.append(s0 // vs[i][0] if vs[i][0] else s1 // vs[i][1])
        return out

    def __eq__(self, other):
        return isinstance(other, Subdivision) and self.vectors == other.vectors

    def __repr__(self):
        return f"Subdivision({list(self.vectors)})"


def smooth_subdivide_minimal(u, v):
    """Minimal smooth chain from u to v (Hirzebruch-Jung).

    Repeatedly take a primitive vector at determinant one from the current
    left generator and shift it by multiples of that generator until it just
    enters the cone; this forces every interior relation coefficient to be
    at least two, which characterizes the minimal subdivision.
    """
    u, v = tuple(u), tuple(v)
    if not is_primitive(u):
        raise NonPrimitiveInput(f"{u} is not primitive")
    if not is_primitive(v):
        raise NonPrimitiveInput(f"{v} is not primitive")
    q = det2(u, v)
    if q < 1:
        raise NegativeDeterminant(f"det({u}, {v}) = {q} < 1")
    chain = [u]
    cur = u
    while det2(cur, v) > 1:
        # solve det(cur, w) = 1, then shift by multiples of cur into the cone
        g, x, y = _ext_gcd(cur[0], cur[1])
        w = (-y, x)
        assert det2(cur, w) == 1
        t = -(det2(w, v) // det2(cur, v))
        w = (w[0] + t * cur[0], w[1] + t * cur[1])
        assert det2(w, v) >= 0
        chain.append(w)
        cur = w
    chain.append(v)
    return Subdivision(chain)


def _ext_gcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


# ---------------------------------------------------------------------------
# Inserting chains into diagrams.
# ---------------------------------------------------------------------------


def _fresh_ids(d, base, count):
    existing = set(d.nodes)
    out = []
    k = 1
    while len(out) < count:
        name = f"{base}{k}"
        if name not in existing:
            out.append(name)
            existing.add(name)
        k += 1
    return out


def _interpolate(w, w_l, w_r, val_l, val_r, q):
    """Value at w of the linear map sending w_l, w_r to val_l, val_r."""
    a = det2(w, w_r)
    b = det2(w_l, w)
    out = []
    for x, y in zip(val_l, val_r):
        num = a * x + b * y
        if num % q:
            raise NonIntegralInterpolation(
                f"interpolated value {num}/{q} at ray {w} is not an integer")
        out.append(num // q)
    return tuple(out)


def refine_edge(d, e, subdivision=None):
    """Replace edge e by the chain of a smooth subdivision of its cone.

    The cone runs from (du, Du) to (Dv, dv); an interior vector (a, b)
    becomes a valency-two node decorated a toward the v end and b toward
    the u end.  Node caches, when present, are carried through the linear
    interpolation fixed by the endpoint values.
    """
    e = d.edge_between(e.u, e.v)
    if e is None:
        raise NotAnEdge("edge not in diagram")
    w_l = cone_vector(d, e, e.u)
    dv, outer_v = cone_vector(d, e, e.v)
    w_r = (outer_v, dv)
    if subdivision is None:
        subdivision = smooth_subdivide_minimal(w_l, w_r)
    else:
        if subdivision.vectors[0] != w_l or subdivision.vectors[-1] != w_r:
            raise ValueError(
                f"subdivision must run from {w_l} to {w_r}, "
                f"got {subdivision.vectors[0]} to {subdivision.vectors[-1]}")
    interior = subdivision.interior
    if not interior:
        return d
    q = det2(w_l, w_r)
    val_l = d.cache(e.u)
    val_r = d.cache(e.v)
    caches = dict(d.caches)
    names = _fresh_ids(d, f"{e.u}.{e.v}.", len(interior))
    nodes = list(d.nodes) + names
    edges = [f for f in d.edges if f is not e]
    chain = [e.u] + names + [e.v]
    for i in range(len(chain) - 1):
        # an interior vector (a, b) is decorated a toward the v end of the
        # chain and b toward the u end
        d_left = e.du if i == 0 else interior[i - 1][0]
        d_right = e.dv if i + 1 == len(chain) - 1 else interior[i][1]
        edges.append(Edge(chain[i], chain[i + 1], d_left, d_right))
    if val_l is not None and val_r is not None:
        for name, w in zip(names, interior):
            caches[name] = _interpolate(w, w_l, w_r, val_l, val_r, q)
    return Diagram(nodes, edges, d.arrows, caches)


def refine_arrow(d, arrow, subdivision=None):
    """Refine a decorated arrowhead into a chain ending in a plain one.

    The cone runs from (dec, outer product at the node) to (0, 1); the
    arrowhead reattaches to the last inserted node with decoration one.
    Needs the node's multiplicities, interpolating toward (N, nu) of the
    arrowhead at the ray (0, 1).
    """
    if arrow.dec == 1:
        return d
    v = arrow.node
    if d.cache(v) is None:
        raise MissingCache(f"node {v} has no cached multiplicities")
    w_l = (arrow.dec, d.outer_product(v, exclude_arrow=arrow))
    w_r = (0, 1)
    if subdivision is None:
        subdivision = smooth_subdivide_minimal(w_l, w_r)
    interior = subdivision.interior
    q = det2(w_l, w_r)
    val_l = d.cache(v)
    val_r = (arrow.N, arrow.nu)
    names = _fresh_ids(d, f"{v}.a.", len(interior))
    nodes = list(d.nodes) + names
    caches = dict(d.caches)
    edges = list(d.edges)
    chain = [v] + names
    for i in range(len(names)):
        left, right = chain[i], chain[i + 1]
        d_left = arrow.dec if i == 0 else interior[i - 1][0]
        d_right = interior[i][1]
        edges.append(Edge(left, right, d_left, d_right))
    for name, w in zip(names, interior):
        caches[name] = _interpolate(w, w_l, w_r, val_l, val_r, q)
    arrows = list(d.arrows)
    arrows.remove(arrow)
    arrows.append(Arrowhead(chain[-1], 1, arrow.N, arrow.nu))
    return Diagram(nodes, edges, arrows, caches)


def refine_all_arrows(d):
    """Refine every arrowhead with decoration above one."""
    while True:
        decorated = [a for a in d.arrows if a.dec != 1]
        if not decorated:
            return d
        d = refine_arrow(d, decorated[0])


def is_realizable(d):
    """True when every edge determinant is 1 and every arrow decoration is 1."""
    if d.has_decorated_arrow():
        return False
    return all(edge_determinant(d, e) == 1 for e in d.edges)


def realizable_refine(d):
    """Minimal refinement with determinant-one edges and plain arrowheads.

    The result carries a complete multiplicity cache: from the side-weight
    pass when the input had no decorated arrowheads, by interpolation
    otherwise (in which case the input must be fully cached, and the
    interpolated caches are checked against the side-weight pass of the
    result).  Refining a refinement inserts nothing; it only checks the
    caches again.
    """
    decorated = d.has_decorated_arrow()
    d = ensure_cached(d)
    # refining one edge leaves the determinants of the others unchanged
    for e in [e for e in d.edges if edge_determinant(d, e) != 1]:
        d = refine_edge(d, e)
    d = refine_all_arrows(d)
    if decorated:
        multiplicities(d)
    return d


def reduce(d):
    """Remove nodes with exactly two node-edges and no arrowheads.

    Each maximal run of such nodes becomes one edge between the kept nodes
    at its ends, decorated as the run's end edges are at those nodes.
    """
    arrowed = {a.node for a in d.arrows}
    removed = {v for v in d.nodes
               if len(d.node_edges(v)) == 2 and v not in arrowed}
    kept = [v for v in d.nodes if v not in removed]
    edges = [e for e in d.edges if e.u not in removed and e.v not in removed]
    for u in kept:
        for first in d.node_edges(u):
            e, w = first, first.other(u)
            while w in removed:
                e = next(f for f in d.node_edges(w) if f is not e)
                w = e.other(w)
            # a run is walked from both ends; keep it once
            if e is not first and u < w:
                edges.append(Edge(u, w, first.dec_at(u), e.dec_at(w)))
    caches = {k: val for k, val in d.caches.items() if k not in removed}
    return Diagram(kept, edges, d.arrows, caches)


# ---------------------------------------------------------------------------
# Diagram isomorphism (equality up to node renaming).
# ---------------------------------------------------------------------------


def _centres(d):
    """The one or two nodes left after peeling leaves off the tree."""
    degree = {v: len(d.node_edges(v)) for v in d.nodes}
    leaves = [v for v in d.nodes if degree[v] <= 1]
    remaining = len(d.nodes)
    while remaining > 2:
        remaining -= len(leaves)
        peeled = []
        for v in leaves:
            for e in d.node_edges(v):
                w = e.other(v)
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        leaves = peeled
    return leaves


def canonical_form(d, with_caches=True):
    """A canonical encoding, invariant under node renaming.

    The tree is rooted at its centre, or at whichever of its two centres
    gives the smaller encoding, and ranked level by level from the deepest
    (Aho-Hopcroft-Ullman): a node's key holds the decorations of the edge to
    its parent, its cache, its arrowheads and the sorted ranks of its
    children, and its rank is the place of its key among the distinct keys
    of its level.  The encoding is the tuple of those sorted key lists, so
    comparing two encodings never recurses through the tree.
    """
    arrows = {v: [] for v in d.nodes}
    for a in d.arrows:
        arrows[a.node].append((a.dec, a.N, a.nu))

    def key(v, e, rank):
        cache = d.cache(v) if with_caches else None
        return (() if e is None else (e.dec_at(e.other(v)), e.dec_at(v)),
                () if cache is None else tuple(cache), tuple(sorted(arrows[v])),
                tuple(sorted(rank[f.other(v)] for f in d.node_edges(v) if f is not e)))

    def encode(root):
        order, up, depth = [root], {root: None}, {root: 0}
        for v in order:
            for e in d.node_edges(v):
                if e is not up[v]:
                    up[e.other(v)], depth[e.other(v)] = e, depth[v] + 1
                    order.append(e.other(v))
        rank, out = {}, []
        for _, level in groupby(reversed(order), depth.get):
            keys = {v: key(v, up[v], rank) for v in level}
            out.append(tuple(sorted(set(keys.values()))))
            index = {k: i for i, k in enumerate(out[-1])}
            rank.update((v, index[k]) for v, k in keys.items())
        return tuple(out)

    return min(encode(c) for c in _centres(d))


def isomorphic(d1, d2, with_caches=True):
    return canonical_form(d1, with_caches) == canonical_form(d2, with_caches)
