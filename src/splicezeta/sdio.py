"""Line-oriented text format for diagrams, builders, and a random generator.

Document format, one directive per line, `#` starts a comment:

    node <id> [N=<int> nu=<int>]
    edge <id1> <id2> <d1> <d2>
    arrow <id> <dec> <N> <nu>

Multiplicity caches are serializable so spliced diagrams, whose caches
cannot be recomputed from the side weights, round-trip losslessly.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left, insort

from .diagram import Arrowhead, Diagram, Edge, check_valid, validate
from .errors import DegenerateBranch, ParseError, ValidationError
from .refine import det2


def parse_sd(text, validated=True):
    """Parse a diagram document; raises ParseError or ValidationError.

    With validated=False the structural invariants are not enforced, which
    lets callers report violations themselves.
    """
    nodes = []
    caches = {}
    edges = []
    arrows = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "node":
            if len(args) not in (1, 3):
                raise ParseError(lineno, col, "node takes an id and optionally N=, nu=")
            name = args[0]
            if name in seen:
                raise ParseError(lineno, col, f"duplicate node {name}")
            seen.add(name)
            nodes.append(name)
            if len(args) == 3:
                vals = {}
                for tok in args[1:]:
                    if "=" not in tok:
                        raise ParseError(lineno, col, f"expected key=value, got {tok!r}")
                    k, _, v = tok.partition("=")
                    if k not in ("N", "nu"):
                        raise ParseError(lineno, col, f"unknown cache key {k!r}")
                    vals[k] = _int(v, lineno, col)
                if set(vals) != {"N", "nu"}:
                    raise ParseError(lineno, col, "cache needs both N= and nu=")
                caches[name] = (vals["N"], vals["nu"])
        elif kind == "edge":
            if len(args) != 4:
                raise ParseError(lineno, col, "edge takes two ids and two decorations")
            edges.append(Edge(args[0], args[1],
                              _int(args[2], lineno, col), _int(args[3], lineno, col)))
        elif kind == "arrow":
            if len(args) != 4:
                raise ParseError(lineno, col, "arrow takes id, dec, N, nu")
            arrows.append(Arrowhead(args[0], _int(args[1], lineno, col),
                                    _int(args[2], lineno, col), _int(args[3], lineno, col)))
        else:
            raise ParseError(lineno, col, f"unknown directive {kind!r}")
    d = Diagram(nodes, edges, arrows, caches)
    return check_valid(d) if validated else d


def _int(tok, lineno, col):
    """tok, an optional sign and ASCII digits (int() alone also reads 1_0 and
    non-ASCII digits), as an int; one past int()'s digit limit is not echoed."""
    if tok.isascii() and "_" not in tok:
        try:
            return int(tok)
        except ValueError:
            digits = tok[1:] if tok[:1] in "+-" else tok
            if digits.isdigit():
                raise ParseError(lineno, col, f"an integer of {len(digits)} digits, more "
                                 f"than the {sys.get_int_max_str_digits()} allowed") from None
    raise ParseError(lineno, col, f"expected an integer, got {tok!r}")


def write_sd(d):
    """Canonical document: nodes sorted, edges sorted by endpoints."""
    lines = []
    for v in d.nodes:
        c = d.cache(v)
        if c is None:
            lines.append(f"node {v}")
        else:
            lines.append(f"node {v} N={c[0]} nu={c[1]}")
    for e in d.edges:
        lines.append(f"edge {e.u} {e.v} {e.du} {e.dv}")
    for a in d.arrows:
        lines.append(f"arrow {a.node} {a.dec} {a.N} {a.nu}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builders for the bundled diagrams.
# ---------------------------------------------------------------------------


_builder_skeletons = {}  # builder name -> the interned skeleton of its first diagram


def _assembled(builder, nodes, edges, arrows):
    """check_valid of the diagram of nodes, edges and arrows, sorted as a
    Diagram keeps its parts.  Only a builder's first diagram is built from
    its parts; the later ones are assembled on its skeleton, with fresh
    caches.  Once that skeleton has left the intern table it keeps its
    verdict, and refine._planned finds it a plan as for any diagram."""
    skeleton = _builder_skeletons.get(builder)
    if skeleton is None:
        skeleton = _builder_skeletons[builder] = Diagram(nodes, edges, arrows).skeleton
    return check_valid(Diagram._assemble(skeleton, arrows, {}))


def builder_monomial(m, m_prime, i, i_prime):
    """One node, decorations 1, 1; the diagram of a monomial with form weights.

    The two arrowheads carry (m, i) and (m_prime, i_prime).
    """
    if (m, i) == (0, 0) or (m_prime, i_prime) == (0, 0):
        raise DegenerateBranch("a branch pair (N, nu) must not be (0, 0)")
    return _assembled("monomial", ("n1",), (), tuple(sorted(
        (Arrowhead("n1", 1, m, i), Arrowhead("n1", 1, m_prime, i_prime)))))


def builder_cusp(a, b):
    """Resolution diagram of the cusp with form x^a y^b (dx wedge dy).

    Three nodes in a chain decorated 1-3 / 2-2, the f-arrowhead (1, 1) at
    the center, and form arrowheads (0, a+1), (0, b+1) at the outer nodes.
    """
    if a < 0 or b < 0:
        raise DegenerateBranch("form exponents must be nonnegative")
    return _assembled("cusp", ("n1", "n2", "n3"),
                      (Edge("n1", "n2", 1, 3), Edge("n2", "n3", 2, 2)),
                      (Arrowhead("n1", 1, 0, a + 1),
                       Arrowhead("n2", 1, 1, 1),
                       Arrowhead("n3", 1, 0, b + 1)))


_NV2_EDGES = (Edge("n1", "n3", 2, 3), Edge("n2", "n3", 1, 4),
              Edge("n3", "n4", 1, 66), Edge("n4", "n5", 5, 14))


def builder_nv_example2(i1, i2, i3, k):
    """Two-node-pair singularity diagram with four form parameters.

    Five nodes; the central node n3 has legs decorated 3, 4 and the edge to
    the arrow node n4 decorated 1-66; n4 continues to the leaf n5 with 5-14
    and carries the double arrowhead (1, k).  Form arrowheads (0, i1),
    (0, i2), (0, i3) sit at the leaves n1, n2, n5.
    """
    if 0 in (i1, i2, i3):
        raise DegenerateBranch("a form-only arrowhead needs nu != 0")
    return _assembled("nv2", ("n1", "n2", "n3", "n4", "n5"), _NV2_EDGES,
                      (Arrowhead("n1", 1, 0, i1),
                       Arrowhead("n2", 1, 0, i2),
                       Arrowhead("n4", 1, 1, k),
                       Arrowhead("n5", 1, 0, i3)))


def builder_xy2_chain():
    """Two-node chain diagram of x * y^2 with trivial form data."""
    return _assembled("xy2", ("n1", "n2"), (Edge("n1", "n2", 1, 2),),
                      (Arrowhead("n1", 1, 1, 1), Arrowhead("n2", 1, 2, 1)))


EXAMPLES = {
    "monomial": lambda: builder_monomial(1, 1, 1, 1),
    "monomial-2311": lambda: builder_monomial(2, 3, 1, 1),
    "cusp": lambda: builder_cusp(0, 0),
    "cusp-x4y5": lambda: builder_cusp(4, 5),
    "cusp-x2y4": lambda: builder_cusp(2, 4),
    "cusp-x3y3": lambda: builder_cusp(3, 3),
    "nv2": lambda: builder_nv_example2(1, 1, 1, 1),
    "xy2": builder_xy2_chain,
}


def example(name):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(sorted(EXAMPLES))}")
    return EXAMPLES[name]()


# ---------------------------------------------------------------------------
# Random diagrams for property tests.
# ---------------------------------------------------------------------------


def random_diagram(seed, n_moves):
    """Valid random diagram grown from a monomial seed by blow-up moves.

    Moves: insert the mediant node on an edge or between a node and one of
    its arrowheads (both are blow-ups and keep all edge determinants at 1),
    or attach a fresh decoration-1 arrowhead with small (N, nu), nu >= 1.
    Every intermediate diagram is valid by construction.  The moves work on
    sorted lists, in the order a Diagram keeps, and on the product of the
    decorations at each node, so that a move costs O(log n) comparisons.
    """
    rng = random.Random(seed)
    d = builder_monomial(rng.randint(1, 3), rng.randint(1, 3),
                         rng.randint(1, 3), rng.randint(1, 3))
    nodes, edges, arrows = list(d.nodes), list(d.edges), list(d.arrows)
    decs = {v: d.outer_product(v) for v in nodes}  # node -> product of its decorations
    k = 1

    def blow_up(*links):
        """A fresh node with an edge to each (node, its decoration, the new node's)."""
        nonlocal k
        while f"b{k}" in decs:
            k += 1
        name, decs[f"b{k}"] = f"b{k}", 1
        insort(nodes, name)
        for v, dv, dn in links:
            insort(edges, Edge(v, name, dv, dn) if v < name else Edge(name, v, dn, dv))
            decs[name] *= dn
        return name

    for _ in range(n_moves):
        move = rng.random()
        if move < 0.45 and edges:
            e = rng.choice(edges)
            out_u, out_v = decs[e.u] // e.du, decs[e.v] // e.dv
            if det2((e.du, out_u), (out_v, e.dv)) == 1:
                del edges[bisect_left(edges, e)]
                blow_up((e.u, e.du, out_u + e.dv), (e.v, e.dv, e.du + out_v))
        elif move < 0.8:
            a = rng.choice(arrows)
            if a.dec == 1:  # the mediant of (1, outer) and (0, 1) is (1, outer + 1)
                del arrows[bisect_left(arrows, a)]
                insort(arrows, Arrowhead(blow_up((a.node, 1, decs[a.node] + 1)), 1, a.N, a.nu))
        else:
            v = rng.choice(nodes)
            insort(arrows, Arrowhead(v, 1, rng.randint(0, 3), rng.randint(1, 4)))
    d = Diagram(nodes, edges, arrows)
    violations = validate(d)
    if violations:
        raise ValidationError(violations)
    return d
