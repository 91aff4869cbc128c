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
    cached_table,
    edge_determinant,
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


def _fresh_ids(existing, base, count):
    """count names base1, base2, ... not in existing, which gains them."""
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


def _edge_cone(d, e):
    """(w_l, w_r): the cone of edge e, oriented so det(w_l, w_r) is its determinant."""
    dv, outer_v = cone_vector(d, e, e.v)
    return cone_vector(d, e, e.u), (outer_v, dv)


def _arrow_cone(d, arrow):
    return (arrow.dec, d.outer_product(arrow.node, exclude_arrow=arrow)), (0, 1)


def _chain(existing, base, w_l, w_r, start, d_start, end=None, d_end=None,
           subdivision=None):
    """(names, interior vectors, edges) of the chain subdividing w_l..w_r.

    It runs from node start to node end, or to its last new node; an interior
    vector (a, b) is a node decorated a toward the end and b toward the start.
    """
    if subdivision is None:
        subdivision = smooth_subdivide_minimal(w_l, w_r)
    interior = subdivision.interior
    names = _fresh_ids(existing, base, len(interior))
    chain = [start] + names + ([] if end is None else [end])
    left = [d_start] + [w[0] for w in interior]
    right = [w[1] for w in interior] + [d_end]
    return names, interior, [Edge(*x) for x in zip(chain, chain[1:], left, right)]


def _fill(caches, names, interior, w_l, w_r, val_l, val_r):
    """Interpolate caches[name] for a chain's nodes from its end values."""
    q = det2(w_l, w_r)
    for name, w in zip(names, interior):
        caches[name] = _interpolate(w, w_l, w_r, val_l, val_r, q)


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
    w_l, w_r = _edge_cone(d, e)
    if subdivision is not None and (subdivision.vectors[0] != w_l
                                    or subdivision.vectors[-1] != w_r):
        raise ValueError(
            f"subdivision must run from {w_l} to {w_r}, "
            f"got {subdivision.vectors[0]} to {subdivision.vectors[-1]}")
    names, interior, chain = _chain(set(d.nodes), f"{e.u}.{e.v}.", w_l, w_r,
                                    e.u, e.du, e.v, e.dv, subdivision)
    if not names:
        return d
    caches = dict(d.caches)
    val_l, val_r = d.cache(e.u), d.cache(e.v)
    if val_l is not None and val_r is not None:
        _fill(caches, names, interior, w_l, w_r, val_l, val_r)
    edges = [f for f in d.edges if f is not e] + chain
    return Diagram(d.nodes + tuple(names), edges, d.arrows, caches)


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
    w_l, w_r = _arrow_cone(d, arrow)
    names, interior, chain = _chain(set(d.nodes), f"{v}.a.", w_l, w_r, v,
                                    arrow.dec, subdivision=subdivision)
    caches = dict(d.caches)
    _fill(caches, names, interior, w_l, w_r, d.cache(v), (arrow.N, arrow.nu))
    arrows = list(d.arrows)
    arrows.remove(arrow)
    arrows.append(Arrowhead((names or [v])[-1], 1, arrow.N, arrow.nu))
    return Diagram(d.nodes + tuple(names), d.edges + tuple(chain), arrows, caches)


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


class _Plan:
    """The refinement of one decoration skeleton, without its caches.

    A chain (names, interior, w_l, w_r, u, v, i) interpolates between the
    caches of input nodes u and v, or of u and the (N, nu) of arrowhead i,
    which moves to node moved[i].  last is the latest (input, result) pair.
    """

    __slots__ = ("nodes", "edges", "adj", "chains", "moved", "last")

    def __init__(self, d):
        existing, edges, self.chains, self.moved = set(d.nodes), [], [], {}
        # refining one edge or arrowhead leaves the cones of the others unchanged
        for e in d.edges:
            w_l, w_r = _edge_cone(d, e)
            if det2(w_l, w_r) == 1:
                edges.append(e)
                continue
            names, interior, chain = _chain(existing, f"{e.u}.{e.v}.", w_l, w_r,
                                            e.u, e.du, e.v, e.dv)
            edges += chain
            self.chains.append((names, interior, w_l, w_r, e.u, e.v, None))
        for i, a in enumerate(d.arrows):
            if a.dec != 1:
                w_l, w_r = _arrow_cone(d, a)
                names, interior, chain = _chain(existing, f"{a.node}.a.", w_l, w_r,
                                                a.node, a.dec)
                edges += chain
                self.chains.append((names, interior, w_l, w_r, a.node, None, i))
                self.moved[i] = names[-1]
        tree = Diagram(existing, edges, ())
        self.nodes, self.edges, self.adj = tree.nodes, tree.edges, tree._adj
        self.last = (None, None)


_PLAN_BOUND = 64
_plans = {}  # (nodes, edges, arrowhead (node, dec)s) -> _Plan, oldest first


def realizable_refine(d):
    """Minimal refinement with determinant-one edges and plain arrowheads.

    The result carries a complete multiplicity cache: from the side-weight
    pass when the input had no decorated arrowheads, by interpolation
    otherwise (in which case the input must be fully cached, and the
    interpolated caches are checked against the side-weight pass of the
    result).  Refining a refinement inserts nothing; it only checks the
    caches again.

    The chains depend only on the skeleton (nodes, edges, and the arrowheads'
    nodes and decorations): the last _PLAN_BOUND skeletons keep theirs, and
    each call replays them on its own caches, with every check above.  An
    input equal to its skeleton's previous input gets the previous result.
    """
    key = (d.nodes, d.edges, tuple((a.node, a.dec) for a in d.arrows))
    plan = _plans.get(key)
    last, out = plan.last if plan is not None else (None, None)
    if last is d or last == d:
        return out
    table = cached_table(d)
    if plan is None:
        plan = _Plan(d)
        if len(_plans) >= _PLAN_BOUND:
            _plans.pop(next(iter(_plans)), None)
        _plans[key] = plan
    caches = {**d.caches, **table}
    for names, interior, w_l, w_r, u, v, i in plan.chains:
        val_r = table[v] if i is None else (d.arrows[i].N, d.arrows[i].nu)
        _fill(caches, names, interior, w_l, w_r, table[u], val_r)
    arrows = sorted(Arrowhead(plan.moved[i], 1, a.N, a.nu) if i in plan.moved
                    else a for i, a in enumerate(d.arrows))
    out = Diagram._assemble(plan.nodes, plan.edges, tuple(arrows), caches, plan.adj)
    if plan.moved:
        multiplicities(out)
    plan.last = (d, out)
    return out


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
