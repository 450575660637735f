import json
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from permdyn import cli, dynamics
from permdyn.cli import main, parse_perm_expr
from permdyn.context import DEFAULT_GUARD, make_field_ctx
from permdyn.errors import PreconditionError
from permdyn.genirr import iterate_generation
from permdyn.permgroup import Matrix2, moebius_poly_rep, realize_permutation
from permdyn.polys import Poly
from permdyn.textio import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_example(capsys):
    code, out, _ = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--f", "x^4+x+1")
    assert code == 0
    assert out == "x^4+x^3+1\n"


def test_fixed_example(capsys):
    code, out, _ = run(capsys, "fixed", "--p", "3", "--k", "3",
                       "--perm", "L[x+1]", "--method", "both")
    assert code == 0
    assert out == "0 fixed points\n"


def test_bounds_tau_example(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "tau", "--p", "3", "--k", "53")
    assert code == 0
    assert out == "ceil(tau/k) = 1672\n"


@pytest.mark.parametrize("p,k,served", [("2", "1000000000", 526339),
                                         ("5", "100000000000", 392522)])
def test_bounds_tau_refuses_a_k_beyond_the_float_range(capsys, p, k, served):
    for output in ("text", "json"):
        code, out, err = run(capsys, "bounds", "--family", "tau", "--p", p, "--k", k,
                             "--output", output)
        assert (code, out) == (2, "")
        assert err == "error: tau(%s, k) exceeds the largest float for k > %d\n" % (p, served)
    code, out, _ = run(capsys, "bounds", "--family", "tau", "--p", p, "--k", str(served))
    assert code == 0 and out.startswith("ceil(tau/k) = ")


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--k", "4")
    assert code == 0
    assert out == "x^4+x+1\nx^4+x^3+1\nx^4+x^3+x^2+x+1\n"
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--k", "4",
                       "--output", "json")
    assert json.loads(out) == ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]


def test_enumerate_tower(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--m", "2", "--k", "2",
                       "--output", "json")
    assert code == 0
    assert len(json.loads(out)) == 6  # (16 - 4) / 2


def test_star_json_and_diamond(capsys):
    code, out, _ = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--f", "x^4+x+1", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"result": "x^4+x^3+1"}
    code, out, _ = run(capsys, "diamond", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--f", "x^4+x^3+1")
    assert code == 0
    assert out == "x^4+x+1\n"


def test_star_perm_grammar_forms(capsys):
    code, one, _ = run(capsys, "star", "--p", "3", "--k", "3",
                       "--perm", "L[x+1]", "--f", "x^3+2x+1")
    assert code == 0
    code, two, _ = run(capsys, "star", "--p", "3", "--k", "3",
                       "--perm", "x^3+x", "--f", "x^3+2x+1")
    assert code == 0
    assert one == two == "x^3+2x+2\n"
    code, out, _ = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "M[1,1,0,1]", "--f", "x^4+x+1")
    assert code == 0
    assert out == "x^4+x+1\n"  # f(x+1) = f for this f


def test_moebius_perm_with_extension_scalars(capsys):
    code, out, _ = run(capsys, "star", "--p", "2", "--m", "2", "--k", "2",
                       "--perm", "M[[0,1],1,0,1]", "--f", "x^2+x+[0,1]")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1


def test_fixed_outputs(capsys):
    code, out, _ = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7")
    assert code == 0
    assert out == "x^4+x^3+x^2+x+1\n1 fixed points\n"
    code, out, _ = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--method", "formula", "--output", "json")
    assert json.loads(out) == {"fixed": None, "count": 1}
    code, out, _ = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--method", "direct", "--output", "json")
    assert json.loads(out) == {"fixed": ["x^4+x^3+x^2+x+1"], "count": 1}


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--on", "ik")
    assert code == 0
    assert out == (
        "digraph G {\n"
        "  subgraph cluster_0 {\n"
        '    "x^4+x+1" -> "x^4+x^3+1";\n'
        '    "x^4+x^3+1" -> "x^4+x+1";\n'
        "  }\n"
        "  subgraph cluster_1 {\n"
        '    "x^4+x^3+x^2+x+1" -> "x^4+x^3+x^2+x+1";\n'
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize("argv", [
    ("star", "--perm", "x^7", "--f", "x^4+x+1"),
    ("graph", "--perm", "x^7", "--on", "ik"),
], ids=["star", "graph"])
def test_output_dot_is_not_a_choice(capsys, argv):
    # DOT is graph's --format; the shared --output takes text or json
    code, out, err = run(capsys, argv[0], "--p", "2", "--k", "4", *argv[1:], "--output", "dot")
    assert code == 1
    assert out == "" and "invalid choice: 'dot'" in err


def test_graph_json_fallback_from_output_flag(capsys):
    code, out, _ = run(capsys, "graph", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--on", "ik", "--output", "json")
    data = json.loads(out)
    assert data["summary"] == [[2, 1], [1, 1]]
    code, out, _ = run(capsys, "graph", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--on", "ck", "--format", "json")
    data = json.loads(out)
    assert len(data["nodes"]) == 12
    assert data["summary"] == [[4, 3]]


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--k", "4", "--perm", "x^7")
    assert code == 0
    assert out == "S_P = {4}\nS_P* = {1, 2}\nmu_k = 4\nmu_k* = 1\n"
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--output", "json")
    assert json.loads(out) == {"S": [4], "S_star": [1, 2], "mu": 4, "mu_star": 1}


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--seed-poly", "x^4+x+1")
    assert code == 0
    assert out == "f_0 = x^4+x+1\nf_1 = x^4+x^3+1\nperiod = 2\n"
    code, out, _ = run(capsys, "generate", "--p", "3", "--k", "3",
                       "--perm", "x^3+x", "--seed-poly", "x^3+x^2+2",
                       "--max-steps", "2", "--output", "json")
    data = json.loads(out)
    assert data["period"] is None
    assert len(data["produced"]) == 3
    code, out, _ = run(capsys, "generate", "--p", "3", "--k", "3",
                       "--perm", "x^3+x", "--seed-poly", "x^3+x^2+2",
                       "--max-steps", "2")
    assert out.endswith("period = unreached\n")


def test_generate_reports_P_as_certified(capsys):
    # generate leaves P to the library, whose report holds P folded mod x^Q - x
    code, out, _ = run(capsys, "generate", "--p", "2", "--k", "4", "--perm", "x^22+x^16+x",
                       "--seed-poly", "x^4+x+1", "--output", "json")
    assert code == 0
    assert json.loads(out)["perm"] == "x^7"


def test_realize_file_forms(tmp_path, capsys):
    listfile = tmp_path / "sigma_list.json"
    listfile.write_text(json.dumps([1, 0, 2]))
    code, out_list, _ = run(capsys, "realize", "--p", "2", "--k", "4",
                            "--sigma", str(listfile))
    assert code == 0
    objfile = tmp_path / "sigma_obj.json"
    objfile.write_text(json.dumps({"x^4+x+1": "x^4+x^3+1",
                                   "x^4+x^3+1": "x^4+x+1",
                                   "x^4+x^3+x^2+x+1": "x^4+x^3+x^2+x+1"}))
    code, out_obj, _ = run(capsys, "realize", "--p", "2", "--k", "4",
                           "--sigma", str(objfile))
    assert code == 0
    assert out_list == out_obj
    ctx = make_field_ctx(2, 1, 4)
    assert out_list.strip() == str(realize_permutation(ctx, [1, 0, 2]))


def test_realize_pair_form_and_errors(tmp_path, capsys):
    pairfile = tmp_path / "sigma_pairs.json"
    pairfile.write_text(json.dumps([[0, 1], [1, 0], [2, 2]]))
    code, out, _ = run(capsys, "realize", "--p", "2", "--k", "4",
                       "--sigma", str(pairfile))
    assert code == 0
    code, _, err = run(capsys, "realize", "--p", "2", "--k", "4",
                       "--sigma", str(tmp_path / "missing.json"))
    assert code == 1
    badjson = tmp_path / "bad.json"
    badjson.write_text("{not json")
    code, _, err = run(capsys, "realize", "--p", "2", "--k", "4",
                       "--sigma", str(badjson))
    assert code == 1
    notperm = tmp_path / "notperm.json"
    notperm.write_text(json.dumps([0, 0, 1]))
    code, _, err = run(capsys, "realize", "--p", "2", "--k", "4",
                       "--sigma", str(notperm))
    assert code == 2


def test_bounds_families(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "monomial",
                       "--p", "2", "--k", "5", "--n", "3")
    assert code == 0
    assert out == "bound = 6\n"
    code, out, _ = run(capsys, "bounds", "--family", "linearized",
                       "--p", "3", "--k", "5", "--g", "x")
    assert code == 0
    assert out == "bound = 1\n"
    code, out, _ = run(capsys, "bounds", "--family", "monomial",
                       "--p", "2", "--k", "5", "--n", "3", "--output", "json")
    assert json.loads(out) == {"family": "monomial", "bound": "6"}
    code, out, _ = run(capsys, "bounds", "--family", "tau",
                       "--p", "3", "--k", "53", "--output", "json")
    assert json.loads(out) == {"family": "tau", "ceiling": 1672}


def test_bounds_linearized_splits_a_large_order_by_rho(capsys):
    # the order modulo E_83 factors 2^82 - 1, whose cofactor 164511353 * 8831418697
    # lies above the trial bound and is split by rho
    code, out, err = run(capsys, "bounds", "--family", "linearized", "--p", "2", "--k", "83",
                         "--g", "x^2+x+1")
    assert (code, out, err) == (0, "bound = 2199023255551\n", "")


@pytest.mark.parametrize("argv,message", [
    (("bounds", "--family", "linearized", "--p", "2", "--k", "5"),
     "--family linearized needs --g"),
    (("star", "--p", "2", "--k", "4", "--perm", "M[x,1,1,0]", "--f", "x^4+x+1"),
     "matrix entries must be scalars"),
    (("star", "--p", "2", "--m", "2", "--k", "2", "--perm", "x^7", "--f", "x^2+[1,0,1]x+1"),
     "too many digits in '[1,0,1]x'"),
], ids=["linearized-without-g", "matrix-entry-not-scalar", "bracket-too-long"])
def test_malformed_arguments_exit_1_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("raw", [5, "x^3+x+1", None], ids=json.dumps)
def test_sigma_file_of_neither_object_nor_array_exits_1(tmp_path, capsys, raw):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(raw))
    code, out, err = run(capsys, "realize", "--p", "2", "--k", "3", "--sigma", str(sigma))
    assert (code, out, err) == (1, "", "error: sigma file must hold a JSON object or array\n")


def test_realize_json(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([1, 0, 2]))
    code, out, err = run(capsys, "realize", "--p", "2", "--k", "4", "--sigma", str(sigma),
                         "--output", "json")
    ctx = make_field_ctx(2, 1, 4)
    assert (code, err) == (0, "")
    assert out == json.dumps({"perm": str(realize_permutation(ctx, [1, 0, 2]))}) + "\n"


def test_bounds_does_not_build_the_extension(capsys):
    # k = 53 exceeds the guard, but bounds never constructs F_{q^k}
    code, out, _ = run(capsys, "bounds", "--family", "monomial",
                       "--p", "2", "--k", "31", "--n", "3")
    assert code == 0
    assert out.startswith("bound = ")


def test_exit_code_malformed(capsys):
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^^", "--f", "x^4+x+1")
    assert code == 1
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4", "--perm", "x^7")
    assert code == 1  # missing --f
    code, _, err = run(capsys, "nosuchcommand", "--p", "2", "--k", "4")
    assert code == 1
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "M[1,2]", "--f", "x^4+x+1")
    assert code == 1
    code, _, err = run(capsys, "bounds", "--family", "monomial",
                       "--p", "2", "--k", "5")
    assert code == 1  # --n missing


@pytest.mark.parametrize("argv", [
    ("star", "--p", "2", "--k", "4", "--perm", "M[[1,0,0,1]", "--f", "x^4+x+1"),
    ("star", "--p", "2", "--k", "4", "--perm", "M[1,0,0,1]]", "--f", "x^4+x+1"),
    ("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", "x^4+x+1+"),
    ("diamond", "--p", "3", "--k", "3", "--perm", "x^5", "--f", "x^3+2x+1-"),
    ("fixed", "--p", "2", "--k", "4", "--perm", "L[x+1+]"),
    ("fixed", "--p", "2", "--k", "4", "--perm", "x^4+x^2+"),
    ("generate", "--p", "2", "--k", "4", "--perm", "x^7", "--seed-poly", "x^4+x+1-"),
])
def test_unbalanced_or_sign_ended_text_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("raw", [[1.0, 0], {"0": [1], "1": 0}, [True, False], [[0, 1], 1],
                                 [None, 0], {"x^3+x+1": 1.5, "1": 0}], ids=json.dumps)
def test_sigma_entries_other_than_ints_and_strings_exit_1(tmp_path, capsys, raw):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(raw))
    code, out, err = run(capsys, "realize", "--p", "2", "--k", "3", "--sigma", str(sigma))
    assert (code, out) == (1, "")
    assert err.startswith("error: sigma entry ")


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^3", "--f", "x^4+x+1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^7", "--f", "x^4+x^2+1")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["--p", "2", "--k", "20", "--perm", "x^7", "--f", "x^20+1"],
     "(p, m, k) = (2, 1, 20), P = x^7, f = x^20+1"),
    (["--p", "3", "--k", "12", "--perm", "x^11", "--f", "x^12+1"],
     "(p, m, k) = (3, 1, 12), P = x^11, f = x^12+1"),
], ids=["2-1-20", "3-1-12"])
def test_star_refuses_a_reducible_f_at_the_guard(capsys, argv, message):
    # Rabin's test on f runs only after the image certificate fails
    code, out, err = run(capsys, "star", *argv)
    assert (code, out) == (2, "")
    assert err == "error: expected a monic irreducible of degree k; at %s\n" % message


# the commands that leave P's certificate to the library, each with its flag for f
APPLY = {"star": ("--f", dynamics.star), "diamond": ("--f", dynamics.diamond),
         "generate": ("--seed-poly", iterate_generation)}


@pytest.mark.parametrize("op", sorted(APPLY))
@pytest.mark.parametrize("k,perm,f,named", [
    (4, "x^3", "x^4+x^2+1", "x^3"),                          # P and f both outside: f first
    (4, "x^7", "x^4+x^2+1", "x^7"),                          # f outside I_k
    (4, "x^3", "x^4+x+1", "x^3"),                            # P outside G_k
    (4, "x^%d" % (3 + 15 * 10 ** 19), "x^4+x+1", "x^3"),    # folded in the parser
    (4, "L[x^2+1]", "x^4+x^2+1", "x^4+x"),                   # L[h], h not coprime to x^4 - 1
    (4, "x^2+x", "x^4+x+1", "x^2+x"),                        # raw polynomial text
    (4, "L[x+1]", "x^4+x+1", "x^2+x"),                       # the linearized criterion refuses
    (20, "x^3", "x^20+x^3+1", "x^3"),                        # the monomial criterion, at the guard
], ids=["both", "f", "P", "folded", "linearized", "raw", "L[x+1]", "P-2-1-20"])
def test_apply_refuses_in_the_library_order(capsys, op, k, perm, f, named):
    # the command line leaves P's certificate to star, diamond and generate, which read f
    # first and name the tower, P and f
    flag, entry = APPLY[op]
    ctx = make_field_ctx(2, 1, k)
    with pytest.raises(PreconditionError) as info:
        entry(ctx, parse_poly(ctx.Fq, named), parse_poly(ctx.Fq, f))
    assert str(info.value).endswith("; at (p, m, k) = (2, 1, %d), P = %s, f = %s" % (k, named, f))
    code, out, err = run(capsys, op, "--p", "2", "--k", str(k), "--perm", perm, flag, f)
    assert (code, out, err) == (2, "", "error: %s\n" % info.value)


@pytest.mark.parametrize("argv", [("fixed",), ("fixed", "--method", "formula"),
                                  ("graph", "--on", "ik"), ("graph", "--on", "ck"),
                                  ("spectrum",)], ids=" ".join)
@pytest.mark.parametrize("k,perm,named", [
    (4, "x^3", "x^3"),
    (4, "x^%d" % (3 + 15 * 10 ** 19), "x^3"),
    (4, "L[x+1]", "x^2+x"),
    (20, "x^3", "x^3"),
], ids=["x^3", "folded", "L[x+1]", "x^3-2-1-20"])
def test_perm_commands_refuse_P_naming_the_tower_and_P(capsys, argv, k, perm, named):
    # the commands that certify P themselves refuse it as the library does, in the same
    # words whether a criterion or the Q-point table decides
    code, out, err = run(capsys, *argv, "--p", "2", "--k", str(k), "--perm", perm)
    assert (code, out, err) == (2, "", "error: polynomial does not permute F_{q^k}; "
                                       "at (p, m, k) = (2, 1, %d), P = %s\n" % (k, named))


@pytest.mark.parametrize("pmk", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 3)],
                         ids=lambda pmk: "%d-%d-%d" % pmk)
def test_a_refused_matrix_reads_back_as_itself(pmk):
    # moebius_star names A by the entry spelling that --perm reads: above p, the
    # bracketed base-p digits
    ctx = make_field_ctx(*pmk)
    x_k = Poly.one(ctx.Fq).shift(ctx.k)  # reducible
    rng = random.Random("matrix %d %d %d" % pmk)
    tried = 0
    while tried < 12:
        entries = [rng.randrange(ctx.q) for _ in range(4)]
        try:
            A = Matrix2(ctx.Fq, *entries)
        except PreconditionError:  # singular
            continue
        tried += 1
        with pytest.raises(PreconditionError) as info:
            dynamics.moebius_star(ctx, A, x_k)
        text = re.search(r"A = (M\[.*\]), f = ", str(info.value)).group(1)
        B = cli._matrix(ctx, text[2:-1], DEFAULT_GUARD)
        assert (B.a, B.b, B.c, B.d) == (A.a, A.b, A.c, A.d), text
        assert parse_perm_expr(ctx, text) == moebius_poly_rep(ctx, A)


def test_exit_code_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "2", "--k", "40")
    assert code == 3
    code, _, err = run(capsys, "enumerate", "--p", "2", "--k", "3",
                       "--guard-override", "4")
    assert code == 3
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--k", "3",
                       "--guard-override", "1048576")
    assert code == 0


def test_modulus_flag_changes_nothing_functional(capsys):
    code, a, _ = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7")
    code, b, _ = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7",
                     "--modulus", "x^4+x^3+1")
    assert a == b
    code, _, err = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--modulus", "x^4+x^2+1")
    assert code == 2  # reducible modulus


def test_byte_identical_reruns(capsys):
    args = ("graph", "--p", "3", "--k", "3", "--perm", "L[x+1]", "--on", "ik")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permdyn.cli", "star", "--p", "2", "--k", "4",
         "--perm", "x^7", "--f", "x^4+x+1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "x^4+x^3+1\n"


def test_closed_pipe_exits_141_quietly():
    # the reader stops after one line, as `permdyn enumerate ... | head -1`
    # does; |I_16| fills more than a pipe buffer, so the write meets the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "permdyn.cli", "enumerate", "--p", "2", "--k", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert (first, err) == (b"x^16+x^5+x^3+x+1\n", b"")


def test_seed_flag_is_gone(capsys):
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--f", "x^4+x+1", "--seed", "3")
    assert code == 1
    # without prefix matching, --seed is not taken for --seed-poly
    code, _, err = run(capsys, "generate", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--seed", "x^4+x+1")
    assert code == 1


def test_huge_monomial_exponent_folds(capsys):
    # x^n acts on F_16 as x^(1 + (n - 1) mod 15)
    code, out, _ = run(capsys, "star", "--p", "2", "--k", "4",
                       "--perm", "x^%d" % (7 + 15 * 10 ** 19), "--f", "x^4+x+1")
    assert (code, out) == (0, "x^4+x^3+1\n")
    code, out, err = run(capsys, "star", "--p", "2", "--k", "4",
                         "--perm", "x^99999999999999999999", "--f", "x^4+x+1")
    assert (code, out) == (2, "")  # x^9: gcd(9, 15) = 3, not a permutation
    assert "does not permute" in err


def test_negative_max_steps_is_malformed(capsys):
    code, out, err = run(capsys, "generate", "--p", "2", "--k", "4", "--perm", "x^7",
                         "--seed-poly", "x^4+x+1", "--max-steps", "-1")
    assert code == 1
    assert out == "" and "error:" in err
    code, out, _ = run(capsys, "generate", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--seed-poly", "x^4+x+1", "--max-steps", "0")
    assert code == 0
    assert out == "f_0 = x^4+x+1\nperiod = unreached\n"


@pytest.mark.parametrize("p,k,perm,seed", [
    ("2", "4", "x^7", "x^4+1"),     # (x + 1)^4
    ("2", "4", "x^7", "x^3+x+1"),   # irreducible of degree 3
    ("3", "3", "x^5", "2x^3+x+2"),  # 2 (x^3 + 2x + 1)
], ids=["reducible", "wrong-degree", "non-monic"])
def test_generate_refuses_a_seed_outside_Ik(capsys, p, k, perm, seed):
    for steps in (["--max-steps", "0"], ["--max-steps", "2"], []):
        code, out, err = run(capsys, "generate", "--p", p, "--k", k, "--perm", perm,
                             "--seed-poly", seed, *steps)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("p,m,k", [(2, 0, 3), (1, 1, 3), (4, 1, 3), (2, 1, 0)])
def test_bounds_rejects_bad_field_parameters(capsys, p, m, k):
    for family in (("--family", "monomial", "--n", "1"), ("--family", "tau")):
        code, out, err = run(capsys, "bounds", "--p", str(p), "--m", str(m),
                             "--k", str(k), *family)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_unexpected_exception_exits_4_in_one_line(capsys, monkeypatch):
    def broken(p, k):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("permdyn.cli.tau", broken)
    code, out, err = run(capsys, "bounds", "--family", "tau", "--p", "3", "--k", "53")
    assert (code, out) == (4, "")
    assert err == "error: RuntimeError: boom second line\n"


HUGE = "x^400000000000"


@pytest.mark.parametrize("argv", [
    ("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", HUGE + "+x+1"),
    ("diamond", "--p", "2", "--k", "4", "--perm", HUGE + "+x", "--f", "x^4+x+1"),
    ("fixed", "--p", "2", "--k", "4", "--perm", "L[%s+1]" % HUGE),
    ("fixed", "--p", "2", "--k", "4", "--perm", "M[1,%s,0,1]" % HUGE),
    ("generate", "--p", "2", "--k", "4", "--perm", "x^7", "--seed-poly", HUGE + "+1"),
    ("enumerate", "--p", "2", "--k", "4", "--modulus", HUGE + "+x+1"),
    ("bounds", "--p", "3", "--k", "5", "--family", "linearized", "--g", HUGE),
])
def test_huge_exponent_in_polynomial_text_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "exceeds the guard" in err


LONG = "9" * 5000  # more digits than int() reads


@pytest.mark.parametrize("argv,code", [
    (("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", "x^%s+x+1" % LONG), 3),
    (("star", "--p", "2", "--k", "4", "--perm", "x^" + LONG, "--f", "x^4+x+1"), 3),
    (("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", "x^4+x+" + LONG), 1),
    (("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", "1,1,0,0," + LONG), 1),
    (("star", "--p", "2", "--m", "2", "--k", "2", "--perm", "x^7",
      "--f", "x^2+[1,%s]x+1" % LONG), 1),
])
def test_number_too_long_for_int_is_refused_by_its_length(capsys, argv, code):
    # an exponent is above every guard (exit 3); any other number is malformed
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "ValueError" not in err


def test_prime_above_the_int64_bound_exits_3(capsys):
    # (x^3 - 1)/(x - 1) is irreducible mod 4294967357 (a prime = 2 mod 3), but
    # products mod p overflow int64, so GF.prime refuses p
    code, out, err = run(capsys, "bounds", "--p", "4294967357", "--k", "3",
                         "--family", "linearized", "--g", "x+2")
    assert (code, out) == (3, "")
    assert "int64" in err


def test_exponent_guard_follows_guard_override(capsys):
    argv = ("star", "--p", "2", "--k", "4", "--perm", "x^7", "--f", "x^4+x+1")
    code, out, _ = run(capsys, *argv, "--guard-override", "16")
    assert (code, out) == (0, "x^4+x^3+1\n")
    code, _, err = run(capsys, "star", "--p", "2", "--k", "4", "--perm", "x^7",
                       "--f", "x^17+x^4+x+1", "--guard-override", "16")
    assert code == 3 and "exponent 17 exceeds the guard 16" in err


def test_linearized_perm_above_the_guard_exits_3(capsys):
    # L[x^21] has degree 2^21 > 2^20
    code, out, err = run(capsys, "fixed", "--p", "2", "--k", "4", "--perm", "L[x^21]")
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv", [
    "enumerate --p 2 --m 22 --k 1 --modulus x+1",
    "bounds --p 2 --m 22 --k 7 --family linearized --g x+1",
], ids=["modulus", "bounds"])
def test_guard_refuses_F_q_before_its_tables(capsys, argv):
    # the exp/log tables of F_{2^22} take 64 MB
    tracemalloc.start()
    try:
        code = main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "q = 4194304 exceeds" in capsys.readouterr().err
    assert peak < 16 << 20


def test_bounds_over_a_large_prime_q_builds_no_table(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "2000003", "--k", "3",
                       "--family", "linearized", "--g", "x+2")
    assert code == 0
    assert out == "bound = 4000004\n"
