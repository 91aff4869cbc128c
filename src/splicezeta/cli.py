"""Command-line front end.

Inputs are paths to diagram documents, `-` for stdin, or `example:<name>`
for a bundled diagram.  Exit codes: 0 success or verified, 1 verification
failure, 2 input or output error (standard output closed early counts as
an output error), 3 internal error (an unexpected exception, reported on
one line).  Every subcommand has a `--machine` mode printing stable
`key=value` records, one per line, with no spaces inside values.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import textwrap
from fractions import Fraction

from . import sdio
from .algebra import CycloProduct
from .diagram import multiplicities, validate, validation_warnings
from .errors import SpliceZetaError
from .monodromy import (
    _eigenvalue_classes,
    _monodromy_refined,
    auto_twisted_orders,
    is_allowed,
    mc_report,
)
from .refine import realizable_refine, reduce
from .splice import _motivic_identity, _top_identity, splice
from .zeta import _top_terms, motivic_zeta, poles, top_zeta, twisted_top_zeta


class InputError(Exception):
    pass


def load_diagram(source, validated=True):
    if source.startswith("example:"):
        name = source.split(":", 1)[1]
        try:
            return sdio.example(name)
        except KeyError as exc:
            raise InputError(str(exc)) from None
    try:
        text = sys.stdin.read() if source == "-" else open(source, encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from None
    return sdio.parse_sd(text, validated=validated)


def output_width():
    try:
        return max(40, int(os.environ.get("SPLICEZETA_WIDTH", "80")))
    except ValueError:
        return 80


def _frac(x):
    return str(Fraction(x))


def cmd_validate(args, out):
    d = load_diagram(args.input, validated=False)
    violations = validate(d)
    warnings = validation_warnings(d)
    if args.machine:
        out.write(f"valid={'yes' if not violations else 'no'}\n")
        for v in violations:
            out.write(f"violation={v.replace(' ', '_')}\n")
        for w in warnings:
            out.write(f"warning={w.replace(' ', '_')}\n")
    else:
        if violations:
            out.write("invalid diagram:\n")
            for v in violations:
                out.write(f"  {v}\n")
        else:
            out.write("valid\n")
        for w in warnings:
            out.write(f"  warning: {w}\n")
    return 0 if not violations else 1


def cmd_mult(args, out):
    d = load_diagram(args.input)
    table = multiplicities(d)
    for v in sorted(table):
        n, nu = table[v]
        if args.machine:
            out.write(f"node={v} N={n} nu={nu}\n")
        else:
            out.write(f"{v}: N = {n}, nu = {nu}\n")
    return 0


def cmd_refine(args, out):
    d = realizable_refine(load_diagram(args.input))
    out.write(sdio.write_sd(d))
    return 0


def cmd_reduce(args, out):
    d = reduce(load_diagram(args.input))
    out.write(sdio.write_sd(d))
    return 0


def cmd_zeta(args, out):
    d = load_diagram(args.input)
    if args.kind == "motivic":
        z = motivic_zeta(d)
        if args.machine:
            for key, coeff in z.sorted_terms():
                pairs = "|".join(f"{nu},{n}" for (nu, n) in key)
                coeff_str = str(coeff).replace(" ", "")
                out.write(f"term den={pairs} coeff={coeff_str}\n")
        else:
            out.write(str(z) + "\n")
        return 0
    if args.kind == "top":
        z = top_zeta(d)
    else:
        if args.order is None:
            raise InputError("twisted zeta needs --order")
        z = twisted_top_zeta(d, args.order)
    if args.machine:
        out.write(f"zeta={z.render(compact=True)}\n")
        for s0, mult in poles(z):
            out.write(f"pole s={_frac(s0)} mult={mult}\n")
    else:
        out.write(str(z) + "\n")
    return 0


def cmd_splice(args, out):
    d = load_diagram(args.input)
    r = splice(d, tuple(args.edge))
    if args.machine:
        out.write(f"data M={r.data.M} Mp={r.data.M_prime} "
                  f"i={r.data.i} ip={r.data.i_prime}\n")
        for side, half in (("left", r.left), ("right", r.right)):
            for line in sdio.write_sd(half).splitlines():
                out.write(f"{side} {line}\n")
    else:
        out.write(f"splice data: M = {r.data.M}, M' = {r.data.M_prime}, "
                  f"i = {r.data.i}, i' = {r.data.i_prime}\n")
        out.write("left half:\n")
        out.write(_indent(sdio.write_sd(r.left)))
        out.write("right half:\n")
        out.write(_indent(sdio.write_sd(r.right)))
    return 0


def _indent(text):
    return "".join(f"  {line}\n" for line in text.splitlines())


def _edges_to_check(d, edge):
    if edge is not None:
        return [tuple(edge)]
    return [(e.u, e.v) for e in d.edges]


def cmd_verify_splice(args, out):
    d = load_diagram(args.input)
    all_ok = True
    for key in _edges_to_check(d, args.edge):
        r = splice(d, key)
        ok_m = _motivic_identity(d, r)
        ok_t = _top_identity(_top_terms(d), r)
        all_ok = all_ok and ok_m and ok_t
        if args.machine:
            out.write(f"edge={key[0]},{key[1]} motivic={'ok' if ok_m else 'FAIL'} "
                      f"top={'ok' if ok_t else 'FAIL'}\n")
        else:
            out.write(f"edge {key[0]}-{key[1]}: motivic "
                      f"{'ok' if ok_m else 'FAIL'}, topological "
                      f"{'ok' if ok_t else 'FAIL'}\n")
    return 0 if all_ok else 1


def cmd_monodromy(args, out):
    d = load_diagram(args.input)
    z, d0_order, d1 = _monodromy_refined(realizable_refine(d))
    d0 = CycloProduct({d0_order: 1})
    eigs = sorted(_eigenvalue_classes(d0_order, d1))
    if args.machine:
        out.write(f"zeta={z}\n".replace(" ", ""))
        out.write(f"delta0={d0}\n".replace(" ", ""))
        out.write(f"delta1={d1}\n".replace(" ", ""))
        for e in eigs:
            out.write(f"eigenvalue q={_frac(e.q)} mult={e.multiplicity} "
                      f"source={e.source}\n")
    else:
        width = output_width()
        out.write(f"monodromy zeta: {z}\n")
        out.write(f"Delta_0: {d0}\n")
        out.write(f"Delta_1: {d1}\n")
        listing = ", ".join(f"{e.q} ({e.source}, mult {e.multiplicity})"
                            for e in eigs)
        out.write(textwrap.fill(f"eigenvalue classes: {listing}", width,
                                subsequent_indent="  ") + "\n")
    return 0


def cmd_allowed(args, out):
    d = load_diagram(args.input)
    rep = is_allowed(d)
    if args.machine:
        out.write(f"allowed={'yes' if rep.allowed else 'no'}\n")
        for s in rep.stars:
            legs = "|".join(f"{dec},{i}" for dec, i in s.legs)
            out.write(f"star node={s.node} n={s.n} r={s.r} legs={legs} "
                      f"divisible={s.divisible} equal={s.equal} "
                      f"ok={'yes' if s.ok else 'no'}\n")
    else:
        out.write(f"allowed: {'yes' if rep.allowed else 'no'}\n")
        for s in rep.stars:
            legs = ", ".join(f"(d={dec}, i={i})" for dec, i in s.legs)
            out.write(f"  node {s.node}: n={s.n} r={s.r} legs [{legs}] "
                      f"divisible={s.divisible} equal={s.equal} "
                      f"{'ok' if s.ok else 'VIOLATED'}\n")
    return 0


def cmd_mc_check(args, out):
    d = load_diagram(args.input)
    if args.twisted_orders == "auto":
        orders = auto_twisted_orders(d, bound=args.max_order)
    elif args.twisted_orders:
        try:
            orders = sorted({positive_int(tok)
                             for tok in args.twisted_orders.split(",")})
        except (ValueError, argparse.ArgumentTypeError):
            raise InputError("--twisted-orders wants a comma list of positive "
                             "integers or 'auto'") from None
    else:
        orders = []
    rep = mc_report(d, orders)
    if args.machine:
        out.write(f"allowed={'yes' if rep.allowed else 'no'}\n")
        for z in rep.zetas:
            out.write(f"zeta kind={z.kind} value={z.zeta.render(compact=True)}\n")
            for p in z.poles:
                out.write(f"pole kind={z.kind} s={_frac(p.location)} "
                          f"mult={p.multiplicity} class={_frac(p.eigenvalue_class)} "
                          f"eigenvalue={'yes' if p.induces_eigenvalue else 'no'}\n")
    else:
        out.write(f"allowed form: {'yes' if rep.allowed else 'no'}\n")
        for z in rep.zetas:
            out.write(f"{z.kind}: {z.zeta}\n")
            if not z.poles:
                out.write("  no poles\n")
            for p in z.poles:
                verdict = "eigenvalue" if p.induces_eigenvalue else "NOT an eigenvalue"
                out.write(f"  pole {p.location} (mult {p.multiplicity}) "
                          f"-> class {p.eigenvalue_class}: {verdict}\n")
    return 0


def cmd_example(args, out):
    if args.name is None:
        for name in sorted(sdio.EXAMPLES):
            out.write(name + "\n")
        return 0
    try:
        d = sdio.example(args.name)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    out.write(sdio.write_sd(d))
    return 0


# gen's time grows faster than linearly in the move count, so the count is bounded
MAX_MOVES = 10_000


def cmd_gen(args, out):
    if not 0 <= args.moves <= MAX_MOVES:
        raise InputError(f"--moves wants a count from 0 to {MAX_MOVES}")
    d = sdio.random_diagram(args.seed, args.moves)
    if args.reduce:
        d = reduce(d)
    out.write(sdio.write_sd(d))
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splicezeta",
        description="Exact zeta functions, splicing, and monodromy analysis "
                    "of plane-curve splice diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # a name that main looks up when the command runs, so that a
        # replaced cmd_* function is the one called
        p.set_defaults(fn=fn.__name__)
        p.add_argument("--machine", action="store_true",
                       help="stable key=value output")
        return p

    p = add("validate", cmd_validate, help="check diagram invariants")
    p.add_argument("input")
    p = add("mult", cmd_mult, help="node multiplicities (N, nu)")
    p.add_argument("input")
    p = add("refine", cmd_refine, help="print the canonical realizable refinement")
    p.add_argument("input")
    p = add("reduce", cmd_reduce, help="remove valency-two arrowless nodes")
    p.add_argument("input")
    p = add("zeta", cmd_zeta, help="motivic / topological / twisted zeta")
    p.add_argument("input")
    p.add_argument("--kind", choices=("motivic", "top", "twisted"), default="top")
    p.add_argument("--order", type=positive_int, default=None,
                   help="divisibility order for the twisted zeta")
    p = add("splice", cmd_splice, help="splice along an edge")
    p.add_argument("input")
    p.add_argument("--edge", nargs=2, metavar=("U", "V"), required=True)
    p = add("verify-splice", cmd_verify_splice,
            help="check the splice decomposition identity exactly")
    p.add_argument("input")
    p.add_argument("--edge", nargs=2, metavar=("U", "V"), default=None,
                   help="default: every node-edge")
    p = add("monodromy", cmd_monodromy, help="monodromy zeta and eigenvalues")
    p.add_argument("input")
    p = add("allowed", cmd_allowed, help="allowed-form star condition report")
    p.add_argument("input")
    p = add("mc-check", cmd_mc_check, help="pole vs eigenvalue report")
    p.add_argument("input")
    p.add_argument("--twisted-orders", default=None,
                   help="comma list of orders, or 'auto'")
    p.add_argument("--max-order", type=int, default=None,
                   help="bound for 'auto' twisted orders")
    p = add("example", cmd_example, help="list or print bundled diagrams")
    p.add_argument("name", nargs="?", default=None)
    p = add("gen", cmd_gen, help="generate a random valid diagram")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moves", type=int, default=6)
    p.add_argument("--reduce", action="store_true",
                   help="reduce the result before printing")
    return parser


# built on the first call to main, then reused by every later call
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one command and return its exit code; callable repeatedly."""
    args = _shared_parser().parse_args(argv)
    try:
        code = globals()[args.fn](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; point stdout at devnull so that the interpreter's
        # final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed early", file=sys.stderr)
        return 2
    except (InputError, SpliceZetaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of its input: keep 1 for "not verified"
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
