"""The four workloads: inputs made from the seed, ops, and output checks.

An op is one call into the package's public API, or one `cli.main(argv)`
command.  Each op carries its own check; `text` gives the output text whose
digest is compared with the table frozen in `digests/`.  Package functions
are looked up when an op runs, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

from oracles import criterion_09, pole_classes, top_zeta_value

sz = importlib.import_module("splicezeta")
errors = importlib.import_module("splicezeta.errors")


class Raised:
    """Outcome of an op that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}"


# Known defects at the commit that defined the benchmark: op id -> the kind
# of failure ("cap" or "raised").  A failing op is a known defect only when
# both its id and its kind are listed here; any other failure is a wrong
# output.  A change that fixes one should remove it from this table.
KNOWN = {
    # clearing the denominators of this edge's motivic identity
    "verify/253628831/m14/b6-b7/motivic": "cap",
    # ValueError traceback where a usage error (exit 2) is due
    "cli/zeta --kind twisted --order 0 example:cusp": "raised",
}


@dataclass
class Op:
    id: str                                  # stable; digests and KNOWN use it
    call: Callable[[], object]
    check: Callable[[object], str | None]    # None when the outcome is right
    text: Callable[[object], str] = repr     # output text for the digest
    probes: tuple = ()                       # (name, call) pairs, traced run only
    shared: bool = False                     # output is the same for every seed


def _expect_value(outcome):
    if isinstance(outcome, Raised):
        return f"unexpected {type(outcome.exc).__name__}: {outcome.exc}"
    return None


def _expect_true(outcome):
    return _expect_value(outcome) or (None if outcome is True
                                      else f"verdict {outcome!r}")


def _render(x):
    return x.render() if hasattr(x, "render") else str(x)


def _table_text(table):
    return "".join(f"{v} {n} {nu}\n" for v, (n, nu) in sorted(table.items()))


def _diagram_tuple(d):
    return (tuple(d.nodes), tuple((e.u, e.v, e.du, e.dv) for e in d.edges),
            tuple((a.node, a.dec, a.N, a.nu) for a in d.arrows))


def _mc_text(rep):
    lines = [f"allowed={rep.allowed.allowed}"]
    for z in rep.zetas:
        lines.append(f"{z.kind} {z.zeta.render(compact=True)}")
        lines += [f"  {p}" for p in z.poles]
    return "\n".join(lines) + "\n"


def chain_diagram(k):
    """Two nodes a, b; edge a-b decorated (1, k); arrowheads a:(1,1,1) twice,
    b:(1,1,1) and b:(1,0,2)."""
    D, E, A = sz.Diagram, sz.Edge, sz.Arrowhead
    return D(["a", "b"], [E("a", "b", 1, k)],
             [A("a", 1, 1, 1), A("a", 1, 1, 1), A("b", 1, 1, 1), A("b", 1, 0, 2)])


def draw(rng, m):
    """(sub-seed, reduce(random_diagram(sub, m))) for the next sub-seed of rng."""
    sub = rng.randrange(2 ** 31)
    return sub, sz.reduce(sz.random_diagram(sub, m))


def relabel(d, rng):
    """(the diagram with nodes renamed by a random permutation, new -> old
    name), so that op ids can name edges the same way for every seed."""
    new = [f"v{k}" for k in rng.sample(range(100, 100 + 10 * len(d.nodes)),
                                        len(d.nodes))]
    name = dict(zip(d.nodes, new))
    out = sz.Diagram(
        new, [sz.Edge(name[e.u], name[e.v], e.du, e.dv) for e in d.edges],
        [sz.Arrowhead(name[a.node], a.dec, a.N, a.nu) for a in d.arrows],
        {name[v]: c for v, c in d.caches.items()})
    return out, {b: a for a, b in name.items()}


class Workload:
    """Inputs come from a fixed stream of diagrams, the same for every seed,
    so that runs with different seeds cost the same.  The seed renames the
    nodes of every diagram and orders the inputs, so the package never sees
    the same text twice across seeds."""
    name = ""
    cap_s = 30.0          # per-op cap in CPU seconds; an op over it fails
    pass_s = 15.0         # --seconds one pass stands for: about its CPU time
                          # when the benchmark was made, rounded up

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")     # labels, order
        self.stream = random.Random(f"{self.name}:stream")  # the diagrams
        self.workdir = workdir
        self.inputs = []      # (label, diagram) of every input
        self.ops = []         # the ops of one pass, made by setup
        self.refined = {}     # label -> node count of its realizable refinement
        self.tracer = None    # set by the traced run, for counts made here
        self.partial = False  # set when a smoke test keeps only some ops

    def setup(self):
        """Generate the inputs and the ops of a pass."""
        raise NotImplementedError

    def end_pass(self):
        """Pass-level verdicts: list of (id, reason) for failed ones."""
        return []

    def warmup(self):
        """Run each kind of op once on a bundled diagram."""
        d = sz.example("cusp")
        sz.parse_sd(sz.write_sd(d))
        sz.top_zeta(d)
        sz.motivic_zeta(d)
        sz.eigenvalues(d)

    def refine(self, label, d):
        r = sz.realizable_refine(d)
        self.refined[label] = len(r.nodes)
        return r

    def traffic(self):
        ds = [d for _, d in self.inputs]
        refined = [self.refined.get(label) or len(self.refine(label, d).nodes)
                   for label, d in self.inputs]
        return {
            "seed": self.seed,
            "diagrams": len(ds),
            "nodes": sum(len(d.nodes) for d in ds),
            "edges": sum(len(d.edges) for d in ds),
            "arrows": sum(len(d.arrows) for d in ds),
            "refined_nodes": sum(refined),
            "refined_nodes_max": max(refined, default=0),
        }

    def cleanup(self):
        """Remove files made during set-up."""


# ---------------------------------------------------------------------------
# analyze: build every invariant of fresh diagrams over a size ladder.
# ---------------------------------------------------------------------------

class Analyze(Workload):
    """One diagram for every size of the ladder.

    A rung m draws `reduce(random_diagram(sub, m))` with sub-seeds from the
    fixed stream, keeping the first whose node count lies in a narrow band
    around the typical count for m.
    """
    name = "analyze"
    cap_s = 60.0
    LADDER = (20, 40, 60, 80, 100, 120, 140, 160)

    def setup(self):
        ops = []
        for m in self.LADDER:
            lo, hi = round(0.29 * m), round(0.33 * m)
            for _ in range(500):
                sub = self.stream.randrange(2 ** 31)
                d = sz.reduce(sz.random_diagram(sub, m))
                if lo <= len(d.nodes) <= hi:
                    break
            label = f"{sub}/m{m}"
            d, _ = relabel(d, self.rng)
            self.inputs.append((label, d))
            ops.append(self._diagram_ops(label, d))
        self.rng.shuffle(ops)
        self.ops = [op for group in ops for op in group]

    def _diagram_ops(self, label, d):
        pid = f"analyze/{label}"
        refined = self.refine(label, d)
        ref = {(s, order): top_zeta_value(refined, s, order)
               for s in (1, 2, 3) for order in (None, 2, 3)}
        text = sz.write_sd(d)
        shape = _diagram_tuple(d)

        def zeta_check(order):
            def check(z):
                bad = _expect_value(z)
                if bad:
                    return bad
                for s in (1, 2, 3):
                    want = ref[(s, order)]
                    if want is not None and z.evaluate(s) != want:
                        return f"value at s={s} is {z.evaluate(s)}, oracle {want}"
                return None
            return check

        def same_diagram(out):
            bad = _expect_value(out)
            return bad or (None if _diagram_tuple(out) == shape
                           else "parse(write(d)) differs from d")

        return [
            Op(f"{pid}/write_sd", lambda: sz.write_sd(d),
               lambda t: _expect_value(t) or (None if t == text else "text changed"),
               str),
            Op(f"{pid}/parse_sd", lambda: sz.parse_sd(text), same_diagram,
               lambda x: repr(_diagram_tuple(x))),
            Op(f"{pid}/multiplicities", lambda: sz.multiplicities(d),
               _expect_value, _table_text),
            Op(f"{pid}/top_zeta", lambda: sz.top_zeta(d), zeta_check(None), _render),
            Op(f"{pid}/twisted2", lambda: sz.twisted_top_zeta(d, 2),
               zeta_check(2), _render),
            Op(f"{pid}/twisted3", lambda: sz.twisted_top_zeta(d, 3),
               zeta_check(3), _render),
            Op(f"{pid}/motivic_zeta", lambda: sz.motivic_zeta(d),
               _expect_value, _render),
            Op(f"{pid}/monodromy_zeta", lambda: sz.monodromy_zeta(d),
               _expect_value, str),
            Op(f"{pid}/eigenvalues", lambda: sz.eigenvalues(d),
               _expect_value, lambda e: repr(sorted(e))),
            Op(f"{pid}/is_allowed", lambda: sz.is_allowed(d),
               _expect_value, repr),
            Op(f"{pid}/mc_report", lambda: sz.mc_report(d),
               _expect_value, _mc_text),
        ]


# ---------------------------------------------------------------------------
# verify: the exact splicing and Euler (avatar) identities.
# ---------------------------------------------------------------------------

class Verify(Workload):
    """Splice identities on every node-edge, avatar identity at n = 1, 2, 3.

    The inputs are the first DIAGRAMS diagrams of the stream at m = M, none
    left out, and the long chains.  Clearing cost grows steeply with the
    largest edge decoration: most edges take milliseconds, and one edge,
    decorated 64, takes over 60 CPU s.  Every other op takes under 1 s, the
    slowest being the avatar checks of the longest chains.  The cap lies in
    that gap; the capped edge is a known defect, listed in KNOWN.
    """
    name = "verify"
    cap_s = 6.0
    M = 14
    DIAGRAMS = 40
    CHAINS = (6, 12, 18, 24, 27, 30)

    def setup(self):
        base = {}
        for _ in range(self.DIAGRAMS):
            sub, d = draw(self.stream, self.M)
            d, base[f"{sub}/m{self.M}"] = relabel(d, self.rng)
            self.inputs.append((f"{sub}/m{self.M}", d))
        self.rng.shuffle(self.inputs)
        self.inputs += [(f"chain{k}", relabel(chain_diagram(k), self.rng)[0])
                        for k in self.CHAINS]
        for label, d in self.inputs:
            if label in base:
                self.ops += self._splice_ops(f"verify/{label}", d, base[label])
            self.ops += self._avatar_ops(label, d)

    def _splice_ops(self, pid, d, base):
        ops = []
        for e in d.edges:
            key = (e.u, e.v)
            eid = f"{pid}/{'-'.join(sorted((base[e.u], base[e.v])))}"
            ops.append(Op(
                f"{eid}/motivic", lambda key=key: sz.verify_splice_motivic(d, key),
                _expect_true, probes=self._probes(d, key)))
            ops.append(Op(f"{eid}/top", lambda key=key: sz.verify_splice_top(d, key),
                          _expect_true))
        return ops

    @staticmethod
    def _probes(d, key):
        """Where a motivic check spends its time, one standalone call each."""
        got = {}

        def halves():
            got["r"] = sz.splice(d, key)

        def whole():
            got["lhs"] = sz.motivic_zeta(d)

        def left():
            got["zl"] = sz.motivic_zeta(got["r"].left)

        def right():
            got["zr"] = sz.motivic_zeta(got["r"].right)

        def equal():
            rhs = got["zl"] + got["zr"] - sz.correction_term(*got["r"].data.as_tuple())
            lhs = got.pop("lhs")
            got.clear()
            return lhs == rhs

        return (("splice", halves), ("motivic_zeta", whole),
                ("motivic_zeta_left", left), ("motivic_zeta_right", right),
                ("eq", equal))

    def _avatar_ops(self, label, d):
        pid = f"verify/{label}"
        got = {}
        refined = self.refine(label, d)
        ref = {n: top_zeta_value(refined, n) for n in (1, 2, 3)}

        def keep(key, check):
            def run(outcome):
                if not isinstance(outcome, Raised):
                    got[key] = outcome
                return check(outcome)
            return run

        def top_check(z):
            bad = _expect_value(z)
            for n in (1, 2, 3):
                if not bad and ref[n] is not None and z.evaluate(n) != ref[n]:
                    bad = f"value at s={n} differs from the oracle"
            return bad

        def spec(n):
            def call():
                if "mz" not in got or "top" not in got:
                    raise RuntimeError("input op failed")
                return sz.specialize_chi_top(got["mz"], n)

            def check(v):
                want = got["top"].evaluate(n)
                if n == 3:
                    got.clear()   # keep no results alive between passes
                return _expect_value(v) or (
                    None if v == want
                    else f"chi_top at n={n} is {v}, top zeta gives {want}")
            return Op(f"{pid}/avatar{n}", call, check, str)

        return [
            Op(f"{pid}/motivic_zeta", lambda: sz.motivic_zeta(d),
               keep("mz", _expect_value), _render),
            Op(f"{pid}/top_zeta", lambda: sz.top_zeta(d), keep("top", top_check),
               _render),
            spec(1), spec(2), spec(3),
        ]

    def traffic(self):
        out = super().traffic()
        out["chains_k"] = list(self.CHAINS)
        return out


# ---------------------------------------------------------------------------
# sweep: the criterion-09 form-parameter grid on the two-pair skeleton.
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """builder_nv_example2 over 6 x 6 x 10 x 10, in an order the seed shuffles.

    An op is one row i1 of the grid: its 600 tuples (i2, i3, k).  Tuples
    with a zero form weight must be rejected with SpliceZetaError and count
    as successes.  The others run the order-330 and order-60 twisted zetas
    and their poles; the pass then asserts the paper's verdicts.  A single
    tuple takes about a millisecond, so a run would have some 30 000 of
    them and its tail latency would be set by the moments another tenant
    slows the machine; a row takes about 0.4 s, which averages those out.
    """
    name = "sweep"
    cap_s = 10.0
    pass_s = 2.0

    def setup(self):
        self.delta1 = sz.delta1(sz.builder_nv_example2(1, 1, 1, 1))
        rows = list(range(6))
        self.rng.shuffle(rows)
        self.grid = []
        self.records = {}     # tuple -> verdict inputs, filled during a pass
        for i1 in rows:
            tuples = [(i1,) + rest for rest in
                      itertools.product(range(6), range(10), range(10))]
            self.rng.shuffle(tuples)
            self.grid += tuples
            self.ops.append(self._row_op(i1, tuples))
        self.inputs = [("nv2", sz.builder_nv_example2(1, 1, 1, 1))]

    def _row_op(self, i1, tuples):
        def run(t):
            try:
                d = sz.builder_nv_example2(*t)
            except errors.SpliceZetaError as exc:
                return exc
            z330 = sz.twisted_top_zeta(d, 330)
            z60 = sz.twisted_top_zeta(d, 60)
            return d, z330, z60, sz.poles(z330), sz.poles(z60)

        def call():
            return {t: run(t) for t in tuples}

        def check(outcome):
            bad = _expect_value(outcome)
            if bad:
                return bad
            for t, out in outcome.items():
                rejected = 0 in t[:3]
                if isinstance(out, Exception) != rejected:
                    return f"{t}: {'accepted' if rejected else 'rejected'}"
                if not rejected:
                    self.records[t] = (pole_classes(out[3]), all(
                        self.delta1.multiplicity(q) > 0 or q.denominator == 1
                        for q in pole_classes(out[4])))
            return None

        def text(outcome):
            lines = []
            for t, out in sorted(outcome.items()):
                if isinstance(out, Exception):
                    lines.append(f"{t} rejected {type(out).__name__}")
                else:
                    d, z330, z60, p330, p60 = out
                    lines.append(f"{t} {_render(z330)} {_render(z60)} "
                                 f"{p330!r} {p60!r}\n{sz.write_sd(d)}")
            return "\n".join(lines)

        return Op(f"sweep/{i1}", call, check, text, shared=True)

    def end_pass(self):
        records, self.records = self.records, {}
        if self.partial:
            return []
        valid = sum(1 for t in self.grid if 0 not in t[:3])
        if len(records) != valid:
            return [("sweep/criterion09",
                     f"{valid - len(records)} tuples without verdict")]
        return [("sweep/criterion09", r) for r in criterion_09(records)]

    def warmup(self):
        d = sz.builder_nv_example2(1, 2, 3, 4)
        sz.poles(sz.twisted_top_zeta(d, 60))

    def traffic(self):
        out = super().traffic()
        out["tuples"] = len(self.grid)
        out["rejected"] = sum(1 for t in self.grid if 0 in t[:3])
        return out


# ---------------------------------------------------------------------------
# cli: in-process commands, including a malformed slice.
# ---------------------------------------------------------------------------

class Cli(Workload):
    """Every subcommand, with and without --machine, on bundled examples and
    on seeded `.sd` files written during set-up, plus malformed inputs that
    must exit 2 without a traceback.  The generated diagrams are the first
    of the stream with edges that are all decorated at most MAX_DEC, so
    that `verify-splice` on them stays far below the cap: the clearing tail
    is measured on `verify`."""
    name = "cli"
    cap_s = 30.0
    pass_s = 3.0
    GENERATED = (16, 24, 32)
    MAX_DEC = 20
    PER_DIAGRAM = (
        ["validate"], ["mult"], ["refine"], ["reduce"],
        ["zeta", "--kind", "top"], ["zeta", "--kind", "motivic"],
        ["zeta", "--kind", "twisted", "--order", "2"],
        ["splice", "--edge", "{u}", "{v}"],
        ["verify-splice"], ["monodromy"], ["allowed"],
        ["mc-check", "--twisted-orders", "auto"],
    )

    def setup(self):
        self.cli = importlib.import_module("splicezeta.cli")
        self.dir = os.path.join(self.workdir, f"cli-{self.seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        sources = []
        for name in sorted(sz.EXAMPLES):
            d = sz.example(name)
            self.inputs.append((name, d))
            sources.append((f"example:{name}", f"example:{name}", d))
        for j, m in enumerate(self.GENERATED):
            sub, d = draw(self.stream, m)
            while not d.edges or max(max(e.du, e.dv) for e in d.edges) > self.MAX_DEC:
                sub, d = draw(self.stream, m)
            d, _ = relabel(d, self.rng)
            path = os.path.join(self.dir, f"g{j}.sd")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(sz.write_sd(d))
            self.inputs.append((f"{sub}/m{m}", d))
            sources.append((path, f"{sub}/m{m}.sd", d))
        bad = {"directive.sd": "node a\nnode b\nedge a b 1 1\nfrobnicate a\n",
               "tree.sd": ("node a\nnode b\nnode c\nedge a b 1 1\n"
                           "edge b c 1 1\nedge c a 1 1\narrow a 1 1 1\n")}
        for fname, text in bad.items():
            with open(os.path.join(self.dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        cmds = []   # (id, argv, expected exit code, shared)
        for src, label, d in sources:
            for tmpl in self.PER_DIAGRAM:
                if "--edge" in tmpl and not d.edges:
                    continue
                e = d.edges[0] if d.edges else None
                argv = [a.format(u=e and e.u, v=e and e.v) for a in tmpl] + [src]
                for machine in ([], ["--machine"]):
                    cmds.append((self._cid(argv + machine, src, label),
                                 argv + machine, 0, src == label))
        for name in sorted(sz.EXAMPLES):
            cmds.append((f"cli/example {name}", ["example", name], 0, True))
        cmds.append(("cli/example", ["example"], 0, True))
        gen_seed = self.rng.randrange(10 ** 6)
        cmds.append((f"cli/gen --seed {gen_seed} --moves 40 --reduce",
                     ["gen", "--seed", str(gen_seed), "--moves", "40", "--reduce"],
                     0, True))
        malformed = [
            ["zeta", os.path.join(self.dir, "directive.sd")],
            ["mult", os.path.join(self.dir, "tree.sd")],
            ["mult", "example:nope"],
            ["zeta", "--kind", "twisted", "--order", "0", "example:cusp"],
        ]
        for argv in malformed:
            cmds.append((self._cid(argv, self.dir + os.sep, ""), argv, 2, True))
        self.ops = [self._op(*c) for c in cmds]

    @staticmethod
    def _cid(argv, src, label):
        return "cli/" + " ".join(label if a == src else a.replace(src, "")
                                 for a in argv)

    def _op(self, cid, argv, expect_code, shared):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            out, err = out.getvalue(), err.getvalue()
            if self.tracer is not None and self.tracer.op is not None:
                self.tracer.count("cli.out_bytes", len((out + err).encode()))
                self.tracer.count("cli.exit2", code == 2)
            return code, out, err

        def check(outcome):
            if isinstance(outcome, Raised):
                return (f"traceback: {type(outcome.exc).__name__}: "
                        f"{outcome.exc}")
            code, _, err = outcome
            if "Traceback" in err:
                return "traceback on stderr"
            if code != expect_code:
                return f"exit {code}, expected {expect_code}"
            return None

        def text(outcome):
            code, out, _ = outcome
            return f"exit={code}\n{out}"

        return Op(cid, call, check, text, shared=shared)

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["zeta", "--machine", "example:cusp"])

    def traffic(self):
        out = super().traffic()
        out["commands"] = len(self.ops)
        return out

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Analyze, Verify, Sweep, Cli)}
