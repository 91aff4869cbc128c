"""Smooth cone subdivisions and diagram refinement.

Refining an edge inserts a chain of valency-two nodes corresponding to a
smooth subdivision of the planar cone the edge spans; refining an arrowhead
with decoration above 1 does the same for the cone it spans with the ray
(0, 1).  Reduction removes valency-two arrowless nodes again.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import gcd, prod
from operator import attrgetter, mul

from .diagram import (
    Arrowhead,
    Diagram,
    Edge,
    Skeleton,
    cone_vector,
    cached_table,
    edge_determinant,
    multiplicities,
    sorted_parts,
    validate,
)
from .errors import (
    DegenerateDenominator,
    MissingCache,
    NegativeDeterminant,
    NonIntegralInterpolation,
    NonPrimitiveInput,
    NotAnEdge,
    RefinementTooLarge,
)

_N, _NU = attrgetter("N"), attrgetter("nu")


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
    """Minimal smooth chain from u to v (Hirzebruch-Jung), that of _hj_walk:
    every interior relation coefficient b_i is at least two, which
    characterizes the minimal subdivision."""
    u, v = tuple(u), tuple(v)
    for w in (u, v):
        if not is_primitive(w):
            raise NonPrimitiveInput(f"{w} is not primitive")
    q = det2(u, v)
    if q < 1:
        raise NegativeDeterminant(f"det({u}, {v}) = {q} < 1")
    chain, (prev, runs) = [u], _hj_walk(u, v)
    for b in (b for b, k in runs for _ in range(k)):
        chain.append((b * chain[-1][0] - prev[0], b * chain[-1][1] - prev[1]))
        prev = chain[-2]
    return Subdivision(chain + [v])


def _chain_length(w_l, w_r):
    """len(smooth_subdivide_minimal(w_l, w_r).interior) in O(log det) steps,
    and 0 for a cone that routine refuses."""
    if det2(w_l, w_r) <= 1 or not (is_primitive(w_l) and is_primitive(w_r)):
        return 0
    return sum(k for _, k in _hj_walk(w_l, w_r)[1])


def _hj_walk(u, v):
    """(w_(-1), runs) of the minimal chain from primitive u to v, det(u, v) >= 1.

    From w_0 = u and w_(-1) at determinant one before it, the interior is
    w_(i+1) = b_i w_i - w_(i-1) with b_i = ceil(r_(i-1) / r_i) for
    r_i = det(w_i, v), until r_i = 1 (so r falls as the Hirzebruch-Jung
    continued fraction of r_0 / r_1).  runs holds the b_i as (b, k), b taken
    k times: where r_i < r_(i-1) < 2 r_i, b_i = 2 and r falls by the step
    r_(i-1) - r_i while above it, a run taken at once, so O(log det) runs.
    """
    _, x, y = _ext_gcd(*u)
    prev = (y, -x)  # det(prev, u) = 1
    a, r, runs = det2(prev, v), det2(u, v), []
    while r > 1:
        b, k = (2, (r - 1) // (a - r)) if r < a < 2 * r else (-(-a // r), 1)
        runs.append((b, k))
        a, r = r - (k - 1) * (a - r), b * r - a - (k - 1) * (a - r)
    return prev, runs


def _ext_gcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b), by Euclid's loop."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    s = 1 if a >= 0 else -1
    return (abs(a), s * x0, s * y0)


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
    A caller's subdivision must run from w_l to w_r.
    """
    if subdivision is None:
        subdivision = smooth_subdivide_minimal(w_l, w_r)
    elif subdivision.vectors[0] != w_l or subdivision.vectors[-1] != w_r:
        raise ValueError(
            f"subdivision must run from {w_l} to {w_r}, "
            f"got {subdivision.vectors[0]} to {subdivision.vectors[-1]}")
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
    arrowhead at the ray (0, 1).  A given subdivision must span that cone.
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
    """Refine every arrowhead with decoration above one.

    Raises RefinementTooLarge, before any chain is built, when the result
    would have more than MAX_REFINED_NODES nodes.
    """
    _refined_size(d, [_arrow_cone(d, a) for a in d.arrows if a.dec != 1])
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


MAX_REFINED_NODES = 100_000


def _refined_size(d, cones):
    """The node count of d with these of its cones refined, from the lengths
    of their chains, none of them built; RefinementTooLarge above
    MAX_REFINED_NODES."""
    count = len(d.nodes) + sum(_chain_length(w_l, w_r) for w_l, w_r in cones)
    if count > MAX_REFINED_NODES:
        raise RefinementTooLarge(
            f"the refinement would have {count} nodes, more than the "
            f"{MAX_REFINED_NODES} allowed")
    return count


class _Plan:
    """The refinement of one decoration skeleton, without its caches; it
    lives on that Skeleton, as its plan.

    tree is the refined tree's Skeleton, which every result shares; it is
    not interned, so that a plan takes one entry of the intern table.  A chain
    (names, interior, w_l, w_r, u, v, i) interpolates between the caches of
    input nodes u and v, or of u and the (N, nu) of arrowhead i, which moves
    to node moved[i].  recent holds the latest _RECENT (input,
    result) pairs, newest last: a whole diagram and its splice halves can
    share one skeleton, and one slot would have them evict each other.
    linking is the skeleton's _Linking once linking_map has built it
    (False where it never will); it serves only the top zeta's terms.
    """

    __slots__ = ("tree", "chains", "moved", "recent", "linking")

    def __init__(self, d):
        # refining one edge or arrowhead leaves the cones of the others unchanged
        edge_cones = [_edge_cone(d, e) for e in d.edges]
        arrow_cones = {i: _arrow_cone(d, a) for i, a in enumerate(d.arrows) if a.dec != 1}
        _refined_size(d, edge_cones + list(arrow_cones.values()))
        existing, edges, self.chains, self.moved = set(d.nodes), [], [], {}
        for e, (w_l, w_r) in zip(d.edges, edge_cones):
            if det2(w_l, w_r) == 1:
                edges.append(e)
                continue
            names, interior, chain = _chain(existing, f"{e.u}.{e.v}.", w_l, w_r,
                                            e.u, e.du, e.v, e.dv)
            edges += chain
            self.chains.append((names, interior, w_l, w_r, e.u, e.v, None))
        for i, (w_l, w_r) in arrow_cones.items():
            a = d.arrows[i]
            names, interior, chain = _chain(existing, f"{a.node}.a.", w_l, w_r,
                                            a.node, a.dec)
            edges += chain
            self.chains.append((names, interior, w_l, w_r, a.node, None, i))
            self.moved[i] = names[-1]
        self.tree = Skeleton(*sorted_parts(existing, edges), tuple(sorted(
            (self.moved.get(i, a.node), 1) for i, a in enumerate(d.arrows))))
        self.recent, self.linking = [], None

    def lookup(self, d):
        """The result of a recent input that is d, or else equal to it."""
        for x, out in reversed(self.recent):
            if x is d:
                return out
        return next((out for x, out in reversed(self.recent) if _same_data(x, d)),
                    None)

    def remember(self, d, out):
        """Keep (d, out), with out replaced by an equal recent result, so
        that equal refinements are one object (and so share their strata)."""
        out = next((y for _, y in reversed(self.recent) if _same_data(y, out)), out)
        self.recent = (self.recent + [(d, out)])[-_RECENT:]
        return out


def _same_data(x, y):
    """x == y for two inputs, or two results, of one plan: both have the
    same nodes and edges (the skeleton's, or the refined tree's), so only
    the arrowheads and caches can differ."""
    return x.caches == y.caches and x.arrows == y.arrows


_RECENT = 4


def _planned(d):
    """The skeleton that keeps the plan for d: d's own while it has one,
    else the intern table's (see diagram.Skeleton.interned), since only the
    skeletons in the table keep a plan."""
    return d.skeleton if d.skeleton.plan is not None else d.skeleton.interned()


def realizable_refine(d):
    """Minimal refinement with determinant-one edges and plain arrowheads.

    The result carries a complete multiplicity cache: from the side-weight
    pass when the input had no decorated arrowheads, by interpolation
    otherwise (in which case the input must be fully cached, and the
    interpolated caches are checked against the side-weight pass of the
    result).  Refining a refinement inserts nothing; it only checks the
    caches again.

    The chains depend only on the skeleton (nodes, edges, and the arrowheads'
    nodes and decorations), which keeps them as its plan; each call replays
    them on its own caches, with every check above.  An input equal to one
    of its skeleton's recent inputs gets that result, and so does an input
    whose result equals a recent one, after those checks.  A skeleton whose
    refinement would have more than MAX_REFINED_NODES nodes raises
    RefinementTooLarge before any chain is built.
    """
    skeleton = _planned(d)
    plan = skeleton.plan
    out = plan.lookup(d) if plan is not None else None
    if out is not None:
        return out
    table = cached_table(d)
    if plan is None:
        plan = skeleton.plan = _Plan(d)
    caches = {**d.caches, **table}
    for names, interior, w_l, w_r, u, v, i in plan.chains:
        val_r = table[v] if i is None else (d.arrows[i].N, d.arrows[i].nu)
        _fill(caches, names, interior, w_l, w_r, table[u], val_r)
    arrows = sorted(Arrowhead(plan.moved[i], 1, a.N, a.nu) if i in plan.moved
                    else a for i, a in enumerate(d.arrows))
    out = Diagram._assemble(plan.tree, tuple(arrows), caches)
    if plan.moved:
        multiplicities(out)
    return plan.remember(d, out)


# ---------------------------------------------------------------------------
# Refined strata, and linking maps: top-zeta terms affine in a skeleton's arrowheads.
# ---------------------------------------------------------------------------


def _strata(d):
    """(pair(v), full valency) per node, pair lists for edges and arrows,
    of a realizable refinement d; a pair is (nu, N)."""
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


class _Linking:
    """The top-zeta terms of a plan's refinements of inputs without caches,
    read off integer-affine functions of the input arrowheads' (N, nu).

    The refined tree has plain arrowheads, so unrolling the side-weight
    recurrence (see diagram.side_weights) gives the Eisenbud-Neumann form
    N_v = sum_a l(v, a) N_a and nu_v = sum_a l(v, a) (nu_a - 1) +
    sum_w l(v, w) (2 - delta_w), with l(v, w) the product of the decorations
    next to the tree path from v to w but not on it (of all decorations at v
    when w = v) and delta_w the number of node-edges at w.  columns[a] holds
    l(., node of arrowhead a) over the refined nodes, and const the second
    sum minus every column, so that
    (N_v, nu_v) = (sum_a columns[a][v] N_a, sum_a columns[a][v] nu_a + const[v]).
    The rest is the strata's fixed shape: each node's 2 - valency, and the
    edges' and arrowheads' node indices.
    """

    __slots__ = ("columns", "const", "chis", "edge_ends", "arrow_at", "kept")

    def __init__(self, plan, d):
        tree, names = plan.tree, plan.tree.nodes
        index = {v: i for i, v in enumerate(names)}
        p = [prod(e.dec_at(v) for e in tree.adj[v]) for v in names]
        steps = [[(index[e.other(v)], e.dec_at(v), e.dec_at(e.other(v)))
                  for e in tree.adj[v]] for v in names]
        walked = {}

        def column(w):
            """l(w, y) for every refined node y, by one walk of the tree."""
            if w not in walked:
                lk = [0] * len(names)  # 0: not reached, as every l is positive
                lk[w], todo = p[w], [w]
                while todo:
                    x = todo.pop()
                    for y, dx, dy in steps[x]:
                        if not lk[y]:
                            lk[y] = lk[x] // dx * (p[y] // dy)
                            todo.append(y)
                walked[w] = lk
            return walked[w]

        self.arrow_at = [index[a.node] for a in d.arrows]
        self.columns = [column(i) for i in self.arrow_at]
        const = [0] * len(names)
        for w, near in enumerate(steps):
            if len(near) != 2:
                const = [c + (2 - len(near)) * x for c, x in zip(const, column(w))]
        for col in self.columns:
            const = [c - x for c, x in zip(const, col)]
        self.const = const
        at = Counter(self.arrow_at)
        self.chis = [2 - len(near) - at[i] for i, near in enumerate(steps)]
        self.edge_ends = [(index[e.u], index[e.v]) for e in tree.edges]
        self.kept = {}  # see terms, oldest first

    def terms(self, d, order):
        """zeta._top_terms(d, order), term for term; None where a node or
        arrowhead it keeps has (N, nu) = (0, 0), so that the replay raises.
        kept maps the latest _RECENT (order, N's) to their entry: per kept node
        (const, column row, N); (2 - valency, position) where not 0; the kept
        edges' and then (node, arrowhead) pairs' positions, an arrowhead's
        after the nodes'; and where N = 0, the positions of the kept nodes
        and of the arrowheads (which every order keeps)."""
        ns = tuple(map(_N, d.arrows))
        entry = self.kept.get((order, ns))
        if entry is None:
            by_node = list(zip(*self.columns)) or [()] * len(self.const)
            at, rows, chis = {}, [], []
            for i, row in enumerate(by_node):
                if (n := sum(map(mul, ns, row))) % order == 0:
                    if self.chis[i]:
                        chis.append((self.chis[i], len(rows)))
                    at[i] = len(rows)
                    rows.append((self.const[i], row, n))
            links = [(at[u], at[v]) for u, v in self.edge_ends if u in at and v in at]
            links += [(at[i], len(rows) + j) for j, i in enumerate(self.arrow_at)
                      if i in at and ns[j] % order == 0]
            no_n = [k for k, row in enumerate(rows) if not row[2]]
            entry = self.kept[order, ns] = (rows, chis, links, no_n,
                                            [j for j, n in enumerate(ns) if not n])
            self.kept = dict(list(self.kept.items())[-_RECENT:])
        rows, chis, links, no_n, no_n_arrows = entry
        nus = list(map(_NU, d.arrows))
        pairs = [(n, c + sum(map(mul, nus, row))) for c, row, n in rows]
        if 0 in nus and 0 in map(nus.__getitem__, no_n_arrows) or no_n and (
                (0, 0) in map(pairs.__getitem__, no_n)):
            return None
        terms = [(chi, (pairs[k],)) for chi, k in chis]
        if links:
            pairs += zip(ns, nus)
            terms += [(1, (pairs[u], pairs[v])) for u, v in links]
        return terms


def linking_map(d):
    """The linking map of d's plan, for d without caches; else None.  A plan
    gets its map from the first input whose arrowheads no recent input had
    (the second point of a form-parameter sweep), if every arrowhead has
    decoration 1 (decorated ones take their values from caches) and validate
    finds nothing wrong with that input.  Only zeta._top_terms reads it."""
    plan = _planned(d).plan
    if plan is not None and plan.linking is None and not plan.moved \
            and all(x.arrows != d.arrows for x, _ in plan.recent):
        plan.linking = False if validate(d) else _Linking(plan, d)
    return None if d.caches or plan is None else plan.linking or None


def refined_strata(d):
    """_strata(realizable_refine(d)), kept on that refinement."""
    out = realizable_refine(d)
    if out._strata is None:
        out._strata = _strata(out)
    return out._strata


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
