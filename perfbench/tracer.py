"""Spans around calls into the package's layers, recorded from outside.

`Tracer.install` replaces every public function of the layer modules, and a
fixed set of public methods of the algebraic classes, by a wrapper that
records one span per call.  The replacement is made in every module
namespace that binds the function, so calls between modules are spans too
and each span knows its parent.  Nothing in `src/` is edited; the untraced
run never installs the wrappers.

Spans are kept in memory and written out when the run ends; their times
are thread CPU times, like the op latencies.  Only calls made while an op
is open are recorded, so set-up and output checks leave no spans.  The
size counters run in hooks after a call; their time is taken out of every
enclosing span, so it shows only in the op time and thus in the tracing
overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "splicezeta"
LAYERS = ("sdio", "diagram", "refine", "zeta", "algebra", "splice",
          "monodromy", "cli")

# Public methods of these classes are spans as well; arithmetic dunders are
# added because that is where the algebra layer spends its time.
TRACED_CLASSES = {
    "algebra": ("Poly2", "RatFuncS", "CycloProduct"),
    "zeta": ("ZetaExpr",),
    "refine": ("Subdivision",),
}
TRACED_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__eq__")

COUNTERS = (
    "sdio.bytes_parsed", "diagram.nodes_in", "refine.nodes_out",
    "refine.nodes_in", "zeta.strata_terms", "zeta.pairs_cleared",
    "algebra.num_degree", "algebra.coeff_bits", "splice.edges_checked",
    "monodromy.eigen_classes", "cli.out_bytes", "cli.exit2",
)

MAX_SPANS = 50_000       # raw spans kept for the spans file; totals see all

# span record fields
ID, NAME, LAYER, START, END, PARENT, OP, FAILED, CHILD_NS = range(9)


def _nodes(x):
    nodes = getattr(x, "nodes", None)
    return len(nodes) if isinstance(nodes, tuple) else 0


class Tracer:
    """Records spans for calls made while an op is open."""

    def __init__(self):
        self.spans = []         # first MAX_SPANS span records
        self.dropped = 0
        self.n_spans = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.totals = {}
        for layer in LAYERS:
            self.totals.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0,
                                f"{layer}.self_s": 0, f"{layer}.fail": 0})
        self.label_ns = {}      # label -> ns in outermost spans of that label
        self.hook_ns = 0        # ns spent in counter hooks so far
        self.op = None          # id of the open op, None outside ops
        self._stack = []        # open span records
        self._open = {}         # layer -> number of open spans
        self._open_label = {}   # label -> number of open spans
        self._originals = {}    # label -> unwrapped function

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace[fn] = self._wrap(fn, layer, name)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    self._wrap_class(cls, layer)
        for mod in (pkg, *mods.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, name, replace[value])

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer, label)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, label))

    def original(self, label):
        return self._originals[label]

    def _wrap(self, fn, layer, label):
        self._originals[label] = fn
        after = _AFTER.get(label)
        clock = time.thread_time_ns     # the clock op latencies use
        totals, stack = self.totals, self._stack
        opened, opened_label = self._open, self._open_label
        k_calls, k_busy = f"{layer}.calls", f"{layer}.busy_s"
        k_self, k_fail = f"{layer}.self_s", f"{layer}.fail"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [self.n_spans, label, layer, 0, 0,
                     parent[ID] if parent else -1, self.op, False, 0]
            self.n_spans += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1
            layer_outer = not opened.get(layer)
            label_outer = not opened_label.get(label)
            opened[layer] = opened.get(layer, 0) + 1
            opened_label[label] = opened_label.get(label, 0) + 1
            stack.append(span)
            hooks0 = self.hook_ns
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                totals[k_fail] += 1
                raise
            finally:
                span[END] = end = clock()
                stack.pop()
                opened[layer] -= 1
                opened_label[label] -= 1
                dur = end - span[START] - (self.hook_ns - hooks0)
                totals[k_calls] += 1
                totals[k_self] += dur - span[CHILD_NS]
                if layer_outer:
                    totals[k_busy] += dur
                if label_outer:
                    self.label_ns[label] = self.label_ns.get(label, 0) + dur
                if parent is not None:
                    parent[CHILD_NS] += dur
            if after is not None:
                op, self.op = self.op, None   # counters make no spans
                h0 = clock()
                try:
                    after(self, parent, args, result)
                finally:
                    self.op = op
                    self.hook_ns += clock() - h0
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def open(self, op_id):
        self.op = op_id
        del self._stack[:]
        self._open.clear()
        self._open_label.clear()

    def close(self):
        self.op = None

    def count(self, key, amount):
        self.counts[key] += amount

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Calls, busy, self and failed spans per layer, plus the counters.

        busy counts a span only when no enclosing open span has the same
        layer; self subtracts the time of the direct child spans.
        """
        out = {}
        for key, value in self.totals.items():
            out[key] = value / 1e9 if key.endswith("_s") else value
        out.update(self.counts)
        return out

    def seconds_in(self, label):
        """Seconds spent in outermost spans with this label."""
        return self.label_ns.get(label, 0) / 1e9

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tlayer\tstart_ns\tend_ns\tparent\top\tfailed\n")
            for s in self.spans:
                fh.write("\t".join(str(x) for x in s[:CHILD_NS]) + "\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans counted, not kept\n")


# -- size counters, run after the span closes -------------------------------

def _after_parse(tr, parent, args, result):
    if args and isinstance(args[0], str):
        tr.count("sdio.bytes_parsed", len(args[0].encode()))


def _after_diagram(tr, parent, args, result):
    if args:
        tr.count("diagram.nodes_in", _nodes(args[0]))


def _after_refine(tr, parent, args, result):
    tr.count("refine.nodes_out", _nodes(result))
    if args:
        tr.count("refine.nodes_in", _nodes(args[0]))
    if parent is not None and parent[NAME] in _ZETA_SUMS:
        r = result
        tr.count("zeta.strata_terms",
                 len(r.nodes) + len(r.edges) + len(r.arrows))


def _after_zeta_value(tr, parent, args, result):
    num = getattr(result, "num", None)
    if isinstance(num, tuple):
        tr.count("algebra.num_degree", max(len(num) - 1, 0))
        bits = max([abs(int(c)).bit_length() for c in num] + [0])
        tr.count("algebra.coeff_bits", bits)


def _after_sub(tr, parent, args, result):
    """Distinct pairs in the difference that `==` clears.  `==` subtracts
    before it clears, so an op stopped at the cap while clearing is counted
    too."""
    if parent is not None and parent[NAME] == "ZetaExpr.__eq__" and result.terms:
        tr.count("zeta.pairs_cleared", len(tr.original("ZetaExpr.pairs")(result)))


def _after_verify(tr, parent, args, result):
    tr.count("splice.edges_checked", 1)


def _after_eigen(tr, parent, args, result):
    tr.count("monodromy.eigen_classes", len(result))


_ZETA_SUMS = {"motivic_zeta", "top_zeta", "twisted_top_zeta"}

_AFTER = {
    "parse_sd": _after_parse,
    "multiplicities": _after_diagram,
    "ensure_cached": _after_diagram,
    "validate": _after_diagram,
    "realizable_refine": _after_refine,
    "top_zeta": _after_zeta_value,
    "twisted_top_zeta": _after_zeta_value,
    "verify_splice_motivic": _after_verify,
    "verify_splice_top": _after_verify,
    "eigenvalues": _after_eigen,
    "ZetaExpr.__sub__": _after_sub,
}
