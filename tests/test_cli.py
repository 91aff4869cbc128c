import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splicezeta import refine
from splicezeta.cli import main
from splicezeta.diagram import Arrowhead, Diagram
from splicezeta.sdio import write_sd, example
from splicezeta.splice import splice, verify_splice_motivic, verify_splice_top

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
        refine._plans.clear()

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


@pytest.mark.parametrize("argv, code", [
    (["validate"], 0), (["mult"], 2), (["refine"], 2), (["reduce"], 0),
    (["zeta", "--kind", "top"], 2), (["zeta", "--kind", "motivic"], 2),
    (["zeta", "--kind", "twisted", "--order", "2"], 2),
    (["splice", "--edge", "a", "a"], 2), (["verify-splice"], 0),
    (["monodromy"], 2), (["allowed"], 0),
    (["mc-check", "--twisted-orders", "auto"], 2),
])
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


def test_cache_contradicting_the_formulas_is_input_error(tmp_path, capsys):
    # the cache (5, 1) at v contradicts the formulas, which give (3, 3)
    path = tmp_path / "cooked.sd"
    path.write_text(write_sd(Diagram(
        ["v"], [], [Arrowhead("v", 2, 3, 1), Arrowhead("v", 1, 0, 1)],
        {"v": (5, 1)})))
    code, out, err = run_cli("zeta", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert "cached (5, 1) != computed (3, 3)" in err


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
