import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splicezeta import cli, monodromy, refine, zeta
from splicezeta.cli import main
from splicezeta.diagram import Arrowhead, Diagram
from splicezeta.sdio import EXAMPLES, example, write_sd
from splicezeta.splice import splice, verify_splice_motivic, verify_splice_top

from memo import forget_plans

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_zeta_top_cusp(capsys):
    code, out, _ = run_cli("zeta", "--kind", "top", "example:cusp", capsys=capsys)
    assert code == 0
    assert out == "(4*s + 5) / ((1*s + 1)*(6*s + 5))\n"


def test_zeta_twisted_counterexample(capsys):
    code, out, _ = run_cli("zeta", "--kind", "twisted", "--order", "6",
                           "example:cusp-x2y4", capsys=capsys)
    assert code == 0
    assert out == "-1 / (6*s + 21)\n"


def test_zeta_twisted_needs_order(capsys):
    code, _, err = run_cli("zeta", "--kind", "twisted", "example:cusp",
                           capsys=capsys)
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize("order", ["0", "-3", "two"])
def test_zeta_twisted_order_must_be_positive(order, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--kind", "twisted", "--order", order, "example:cusp"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--order" in err
    assert "Traceback" not in err


def test_mc_check_twisted_orders_must_be_positive(capsys):
    code, _, err = run_cli("mc-check", "--twisted-orders", "2,0", "example:cusp",
                           capsys=capsys)
    assert code == 2
    assert "positive" in err


def test_commands_refine_their_input_once(monkeypatch, capsys):
    # every chain that refine_edge, refine_arrow or realizable_refine
    # inserts goes through refine._chain; each measured call starts on an
    # empty plan memo, so a count is the number of chains a cold run inserts
    calls = []

    def counted(*args, _original=refine._chain, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(refine, "_chain", counted)

    def cold():
        calls.clear()
        forget_plans()

    cold()
    refine.realizable_refine(example("nv2"))
    once = len(calls)
    assert once > 0
    for argv in (["monodromy", "example:nv2"],
                 ["mc-check", "--twisted-orders", "auto", "example:nv2"]):
        cold()
        assert main(argv) == 0
        assert len(calls) == once, argv
    # verify-splice refines the whole diagram once and each half once; the
    # three halves that keep the whole skeleton replay its plan
    d = example("nv2")
    cold()
    refine.realizable_refine(d)
    calls.clear()
    for e in d.edges:
        r = splice(d, (e.u, e.v))
        refine.realizable_refine(r.left)
        refine.realizable_refine(r.right)
    halves = len(calls)
    cold()
    assert main(["verify-splice", "example:nv2"]) == 0
    assert len(calls) == once + halves == 14
    # the library checks both identities along every edge
    cold()
    for e in d.edges:
        assert verify_splice_motivic(d, (e.u, e.v))
        assert verify_splice_top(d, (e.u, e.v))
    assert len(calls) == 14
    capsys.readouterr()


def test_verify_splice_nv2_edge(capsys):
    code, out, _ = run_cli("verify-splice", "example:nv2", "--edge", "n3", "n4",
                           capsys=capsys)
    assert code == 0
    assert "ok" in out


def test_verify_splice_all_edges_machine(capsys):
    code, out, _ = run_cli("verify-splice", "example:cusp-x4y5", "--machine",
                           capsys=capsys)
    assert code == 0
    records = [dict(tok.split("=", 1) for tok in line.split())
               for line in out.splitlines()]
    assert len(records) == 2
    assert all(r["motivic"] == "ok" and r["top"] == "ok" for r in records)


def test_validate_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.sd"
    good.write_text(write_sd(example("cusp")))
    code, out, _ = run_cli("validate", str(good), capsys=capsys)
    assert code == 0 and out == "valid\n"

    bad = tmp_path / "bad.sd"
    bad.write_text("node a\nnode b\nedge a b 2 2\narrow a 4 1 1\n")
    code, out, _ = run_cli("validate", str(bad), capsys=capsys)
    assert code == 1
    assert "coprime" in out

    code, _, err = run_cli("validate", str(tmp_path / "missing.sd"), capsys=capsys)
    assert code == 2


def test_unknown_example_is_input_error(capsys):
    code, _, err = run_cli("mult", "example:nope", capsys=capsys)
    assert code == 2
    assert "unknown example" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--frobnicate", "example:cusp"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_expansion_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(zeta, "MAX_SUPPORT", 6817)  # n3-n4 of nv2 needs 6 818
    code, out, err = run_cli("verify-splice", "--machine", "example:nv2", capsys=capsys)
    assert code == 2 and "Traceback" not in err
    assert err == ("error: the zeta comparison needs at least 6818 support points, "
                   "more than the 6817 allowed\n")


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def fault(args, out):
        out.write("partial\n")
        raise RuntimeError("lost\ninvariant")

    monkeypatch.setattr(cli, "cmd_mult", fault)
    code, _, err = run_cli("mult", "example:cusp", capsys=capsys)
    assert code == 3
    assert err == "error: internal error: RuntimeError: lost invariant\n"


def test_mult_machine_roundtrip(capsys):
    code, out, _ = run_cli("mult", "example:nv2", "--machine", capsys=capsys)
    assert code == 0
    table = {}
    for line in out.splitlines():
        rec = dict(tok.split("=", 1) for tok in line.split())
        table[rec["node"]] = (int(rec["N"]), int(rec["nu"]))
    assert table["n4"] == (330, 41)


def test_refine_output_parses_back(capsys):
    code, out, _ = run_cli("refine", "example:nv2", capsys=capsys)
    assert code == 0
    from splicezeta.sdio import parse_sd
    d = parse_sd(out)
    assert len(d.nodes) == 10


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli("mc-check", "example:cusp-x2y4",
                               "--twisted-orders", "auto", capsys=capsys)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_mc_check_machine_parses(capsys):
    code, out, _ = run_cli("mc-check", "example:cusp", "--twisted-orders", "2,6",
                           "--machine", capsys=capsys)
    assert code == 0
    kinds = set()
    for line in out.splitlines():
        toks = line.split()
        assert all("=" in t for t in toks[1:] if toks[0] in ("zeta", "pole")) or "=" in toks[0]
        if toks[0] in ("zeta", "pole"):
            rec = dict(t.split("=", 1) for t in toks[1:])
            kinds.add(rec["kind"])
    assert kinds == {"top", "twisted-2", "twisted-6"}


def test_zeta_motivic_machine_parses(capsys):
    code, out, _ = run_cli("zeta", "--kind", "motivic", "example:monomial",
                           "--machine", capsys=capsys)
    assert code == 0
    recs = []
    for line in out.splitlines():
        toks = line.split()
        assert toks[0] == "term"
        recs.append(dict(t.split("=", 1) for t in toks[1:]))
    # one node stratum plus two merged arrow strata
    assert recs == [{"den": "1,1|2,2", "coeff": "2*L^2-4*L+2"},
                    {"den": "2,2", "coeff": "L^2-2*L+1"}]


def test_monodromy_output(capsys):
    code, out, _ = run_cli("monodromy", "example:nv2", capsys=capsys)
    assert code == 0
    assert "(t^60 - 1)*(t^330 - 1) / ((t^15 - 1)*(t^20 - 1)*(t^66 - 1))" in out


def test_monodromy_resolves_once(monkeypatch, capsys):
    # the zeta, Delta_0, Delta_1 and the classes all come off one refinement
    calls = []
    for mod in (cli, monodromy):
        monkeypatch.setattr(mod, "realizable_refine", lambda d, _r=mod.realizable_refine:
                            calls.append("refine") or _r(d))
    monkeypatch.setattr(monodromy, "_zeta_refined", lambda d, _z=monodromy._zeta_refined:
                        calls.append("zeta") or _z(d))
    assert main(["monodromy", "--machine", "example:nv2"]) == 0
    assert calls == ["refine", "zeta"]
    capsys.readouterr()


def test_allowed_output(capsys):
    code, out, _ = run_cli("allowed", "example:cusp-x3y3", capsys=capsys)
    assert code == 0
    assert "allowed: no" in out


# fully cached, with a decorated arrowhead at a node of three node-edges;
# refining that arrowhead would add a leg (2, 4) to the star at v, whose
# verdict then flips from ok to violated
DECORATED_STAR = """\
node v N=6 nu=14
node x1 N=6 nu=15
node x2 N=6 nu=15
node x3 N=2 nu=5
edge v x1 1 7
edge v x2 1 7
edge v x3 3 1
arrow v 1 1 1
arrow v 2 0 4
arrow x1 1 0 1
arrow x2 1 0 1
arrow x3 1 0 1
"""


def test_mc_check_allowed_verdict_matches_allowed(tmp_path, capsys):
    path = tmp_path / "star.sd"
    path.write_text(DECORATED_STAR)
    code, out, _ = run_cli("allowed", "--machine", str(path), capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "allowed=yes"
    code, out, _ = run_cli("mc-check", "--machine", str(path), capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "allowed=yes"


def test_example_listing_and_gen(capsys):
    code, out, _ = run_cli("example", capsys=capsys)
    assert code == 0
    assert "cusp" in out.split()

    code, out, _ = run_cli("gen", "--seed", "5", "--moves", "4", capsys=capsys)
    assert code == 0
    from splicezeta.sdio import parse_sd
    assert parse_sd(out) is not None


def test_splice_subcommand(capsys):
    code, out, _ = run_cli("splice", "example:nv2", "--edge", "n3", "n4",
                           capsys=capsys)
    assert code == 0
    assert "M = 5" in out and "i' = -5" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    text = write_sd(example("cusp"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli("zeta", "--kind", "top", "-", capsys=capsys)
    assert code == 0
    assert out.strip() == "(4*s + 5) / ((1*s + 1)*(6*s + 5))"


# a valid diagram whose one node gets (N, nu) = (0, 0): the form arrowheads'
# nu - 1 = 0 and -2 cancel the node's valency defect 2
ZERO_PAIR = "node a\narrow a 1 0 1\narrow a 1 0 -1\n"


ZERO_PAIR_CODES = [
    (["validate"], 0), (["mult"], 2), (["refine"], 2), (["reduce"], 0),
    (["zeta", "--kind", "top"], 2), (["zeta", "--kind", "motivic"], 2),
    (["zeta", "--kind", "twisted", "--order", "2"], 2),
    (["splice", "--edge", "a", "a"], 2), (["verify-splice"], 0),
    (["monodromy"], 2), (["allowed"], 0),
    (["mc-check", "--twisted-orders", "auto"], 2),
]


@pytest.mark.parametrize("argv, code", ZERO_PAIR_CODES)
@pytest.mark.parametrize("machine", [False, True])
def test_zero_pair_node_is_input_error(argv, code, machine, tmp_path, capsys):
    path = tmp_path / "zero.sd"
    path.write_text(ZERO_PAIR)
    got, _, err = run_cli(*argv, *(["--machine"] if machine else []), str(path),
                          capsys=capsys)
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert err == "error: (N, nu) = (0, 0) at node a\n"


# the cache (5, 1) at v contradicts the formulas, which give (3, 3)
COOKED = Diagram(["v"], [], [Arrowhead("v", 2, 3, 1), Arrowhead("v", 1, 0, 1)],
                 {"v": (5, 1)})


def test_cache_contradicting_the_formulas_is_input_error(tmp_path, capsys):
    path = tmp_path / "cooked.sd"
    path.write_text(write_sd(COOKED))
    code, out, err = run_cli("zeta", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert "cached (5, 1) != computed (3, 3)" in err


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# consecutive Fibonacci decorations of 251 digits: Euclid on them takes 1 200 steps
FIBONACCI_1200 = (f"node a\nnode b\nnode c\nedge a b {_fibonacci(1200)} 2\n"
                  f"edge a c {_fibonacci(1201)} 1\narrow b 1 1 1\narrow c 1 1 1\n")


@pytest.mark.parametrize("argv, expected", [
    (["zeta", "--kind", "top"], 0), (["refine"], 0), (["verify-splice"], 2),
    (["monodromy"], 0), (["mc-check"], 0)])
def test_long_euclid_needs_no_recursion(argv, expected, tmp_path, capsys):
    path = tmp_path / "fib1200.sd"
    path.write_text(FIBONACCI_1200)
    code, _, err = run_cli(*argv, str(path), capsys=capsys)
    assert code == expected and "Traceback" not in err
    # verify-splice stops at Budget 2, not at a recursion limit
    assert err.startswith("error: the zeta comparison needs at least") if code else not err


HOSTILE_CHAIN = "node a\nnode b\nedge a b 1 10000000\narrow a 1 1 1\narrow b 1 1 1\n"


@pytest.mark.parametrize("argv", [["zeta", "--kind", "top", "--machine"], ["refine"],
                                  ["verify-splice", "--machine"], ["monodromy"]])
def test_refinement_over_the_budget_is_input_error(argv, tmp_path, capsys):
    # the chain would refine to 10 000 000 nodes
    path = tmp_path / "chain.sd"
    path.write_text(HOSTILE_CHAIN)
    code, out, err = run_cli(*argv, str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert err == ("error: the refinement would have 10000000 nodes, "
                   "more than the 100000 allowed\n")


@pytest.mark.parametrize("edge, tok", [("edge a b 1_0 3", "1_0"),
                                       ("edge a b 1 \u0663", "\u0663")])
def test_integers_are_a_sign_and_ascii_digits(edge, tok, tmp_path, capsys):
    # int() alone reads 1_0 as 10 and the Arabic-Indic digit three as 3
    path = tmp_path / "edge.sd"
    path.write_text(f"node a\nnode b\n{edge}\narrow a 1 1 1\narrow b 1 1 1\n",
                    encoding="utf-8")
    code, out, err = run_cli("refine", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: line 3, column 1: expected an integer, got {tok!r}\n"


def test_an_integer_too_long_to_read_is_named_by_its_length(tmp_path, capsys):
    path = tmp_path / "long.sd"
    path.write_text(f"node a\nnode b\nedge a b 1 {'1' * 4401}\narrow a 1 1 1\n"
                    "arrow b 1 1 1\n")
    code, out, err = run_cli("refine", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert len(err.encode()) < 200 and "Traceback" not in err
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.10.7 and later
        assert err == ("error: line 3, column 1: an integer of 4401 digits, more than "
                       f"the {sys.get_int_max_str_digits()} allowed\n")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["refine", "-"], ["mult", "--machine", "-"]])
def test_closed_stdout_is_output_error(argv, unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1" if unbuffered else ""
    proc = subprocess.Popen([sys.executable, "-m", "splicezeta.cli", *argv],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    # the reader leaves before the command, which waits for stdin, writes
    proc.stdout.close()
    _, err = proc.communicate(write_sd(example("nv2")).encode(), timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: output closed early\n"


# ---------------------------------------------------------------------------
# One process, many commands: main builds its parser once and reuses it.
# ---------------------------------------------------------------------------

DOCUMENTED = (0, 1, 2)  # 3 is an internal error, a fault of the program
CUSP_TOP = "(4*s + 5) / ((1*s + 1)*(6*s + 5))\n"
PER_EXAMPLE = (
    ["validate"], ["mult"], ["refine"], ["reduce"],
    ["zeta", "--kind", "top"], ["zeta", "--kind", "motivic"],
    ["zeta", "--kind", "twisted", "--order", "2"],
    ["splice", "--edge", "{u}", "{v}"], ["verify-splice"],
    ["verify-splice", "--edge", "{u}", "{v}"], ["monodromy"], ["allowed"],
    ["mc-check"], ["mc-check", "--twisted-orders", "auto"],
    ["mc-check", "--twisted-orders", "2,3", "--max-order", "4"],
)


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); a usage error is its
    SystemExit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def command_table(tmp_path):
    """(argv, expected exit code) for every subcommand on every bundled
    example, with and without --machine, and the malformed inputs above."""
    rows = []
    for name in sorted(EXAMPLES):
        edges = example(name).edges
        for tmpl in PER_EXAMPLE:
            if "--edge" in tmpl and not edges:
                continue
            e = edges[0] if edges else None
            argv = [a.format(u=e and e.u, v=e and e.v) for a in tmpl]
            rows += [(argv + [f"example:{name}"], 0),
                     (argv + ["--machine", f"example:{name}"], 0)]
        rows.append((["example", name], 0))
    rows += [(["example"], 0), (["gen", "--seed", "5", "--moves", "4"], 0),
             (["gen", "--seed", "5", "--reduce", "--machine"], 0)]
    files = {"bad.sd": "node a\nnode b\nedge a b 2 2\narrow a 4 1 1\n",
             "zero.sd": ZERO_PAIR, "star.sd": DECORATED_STAR,
             "cooked.sd": write_sd(COOKED)}
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    bad, zero, star = (str(tmp_path / f) for f in ("bad.sd", "zero.sd", "star.sd"))
    rows += [
        (["validate", bad], 1), (["validate", "--machine", bad], 1),
        (["mult", bad], 2), (["validate", str(tmp_path / "missing.sd")], 2),
        (["zeta", str(tmp_path / "cooked.sd")], 2),
        (["allowed", "--machine", star], 0), (["mc-check", "--machine", star], 0),
        (["mult", "example:nope"], 2), (["example", "nope"], 2),
        (["zeta", "--kind", "twisted", "example:cusp"], 2),
        (["mc-check", "--twisted-orders", "2,0", "example:cusp"], 2),
        (["splice", "--edge", "n3", "n4", "example:cusp"], 2),
        (["verify-splice", "--edge", "n1", "zz", "example:nv2"], 2),
        # usage errors: argparse exits 2
        ([], 2), (["frobnicate"], 2), (["gen"], 2), (["splice", "example:nv2"], 2),
        (["gen", "--seed", "1", "--moves", "-5"], 2),
        (["gen", "--seed", "1", "--moves", str(cli.MAX_MOVES + 1)], 2),
        (["zeta", "--frobnicate", "example:cusp"], 2),
        (["zeta", "--kind", "nope", "example:cusp"], 2),
    ]
    rows += [(["zeta", "--kind", "twisted", "--order", order, "example:cusp"], 2)
             for order in ("0", "-3", "two")]
    rows += [(argv + machine + [zero], code) for argv, code in ZERO_PAIR_CODES
             for machine in ([], ["--machine"])]
    return rows


def test_every_command_exits_with_a_documented_code(tmp_path, capsys):
    table = command_table(tmp_path)
    assert len(table) > 250
    seen = {}
    for argv, expected in table:
        code, out, err = outcome(argv, capsys)
        assert code == expected and code in DOCUMENTED, (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 0:
            assert not err, argv
        seen[tuple(argv)] = (code, out, err)
    # the same commands in the opposite order print the same bytes
    for argv, _ in reversed(table):
        assert outcome(argv, capsys) == seen[tuple(argv)], argv


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert outcome(["zeta", "--kind", "twisted", "--order", "2", "example:cusp"],
                   capsys)[0] == 0
    assert outcome(["zeta", "example:cusp"], capsys) == (0, CUSP_TOP, "")

    code, out, _ = outcome(["verify-splice", "--edge", "n3", "n4", "example:nv2"],
                           capsys)
    assert code == 0 and len(out.splitlines()) == 1
    code, out, _ = outcome(["verify-splice", "example:nv2"], capsys)
    assert code == 0
    assert len(out.splitlines()) == len(example("nv2").edges) == 4


def test_usage_error_leaves_the_next_command_as_run_alone(capsys):
    argv = ["mc-check", "--machine", "--twisted-orders", "auto", "example:nv2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    alone = subprocess.run([sys.executable, "-m", "splicezeta.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    assert alone.returncode == 0 and alone.stdout
    for bad in (["mc-check", "--twisted-orders"], ["zeta", "--order", "0", "x"],
                ["verify-splice", "--edge", "n3", "example:nv2"]):
        assert outcome(bad, capsys)[0] == 2
        assert outcome(argv, capsys) == (0, alone.stdout, "")
