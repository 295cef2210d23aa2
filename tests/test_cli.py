"""Tests for the command-line interface."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spindual import intertwine, orbits
from spindual.cli import MAX_TABLE_RANK, build_parser, main
from spindual.rewriter import MAX_PADDED_N
from spindual.spinclass import StringPairs, pairs_to_param
from tests.test_spinclass import PIPELINE

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_pairs_unitary(capsys):
    code, out = run(capsys, "classify", "--group", "D", "--pairs", "4;0")
    assert code == 0
    assert "Unitary" in out and "core" in out


def test_classify_pairs_nonunitary(capsys):
    code, out = run(capsys, "classify", "--group", "D", "--pairs", "1;3")
    assert code == 3
    assert "eta(3)" in out


def test_classify_json_roundtrip(capsys):
    code, out = run(capsys, "classify", "--group", "D", "--pairs", "4;0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Unitary"
    assert doc["certificate"]["orbit_columns"] == [8, 7, 1]
    assert doc["langlands"]["lambda_L"][0] == "7/2"


def test_classify_document(tmp_path, capsys):
    path = tmp_path / "param.json"
    path.write_text(json.dumps({
        "group": "D", "rank": 2,
        "mu": ["1/2", "1/2"], "nu": ["3", "1"],
    }))
    code, out = run(capsys, "classify", "--file", str(path))
    assert code == 4  # not Hermitian
    path.write_text(json.dumps({"group": "D", "pairs": {"x": [4], "y": [0]}}))
    code, out = run(capsys, "classify", "--file", str(path))
    assert code == 0


@pytest.mark.parametrize("family, nu", [
    ("D", "1/2,-1/2,1/3,1/3"),  # the GL class 1/3 without -1/3
    ("B", "5/2,1/2,-1/2"),      # the +-1/2 core
    ("B", "1,1,1/2,-1/2"),      # the self-paired class t = 1
    ("D", "0,1,1/2,-1/2"),      # t = 0 next to t = 1
], ids=["gl-class", "core", "t=1", "t=0"])
def test_classify_not_hermitian_class_by_class(capsys, family, nu):
    # mu = 1/2 throughout; each nu fails negation in one residue class pair only
    mu = ",".join(["1/2"] * len(nu.split(",")))
    argv = ["classify", "--group", family, f"--mu={mu}", f"--nu={nu}"]
    code, out = run(capsys, *argv)
    assert code == 4 and "status: NotHermitian" in out.splitlines(), out
    code, out = run(capsys, *argv, "--json")
    assert code == 4 and json.loads(out)["status"] == "NotHermitian", out


def test_classify_parse_error(capsys):
    code = main(["classify", "--mu", "1/2,1/2", "--nu", "1"])
    assert code == 2


def test_table(capsys):
    code, out = run(capsys, "table", "--group", "D", "--rank", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 12
    assert sum("No" in l for l in lines) == 3
    assert sum("unipotent" in l for l in lines) == 3
    code, out = run(capsys, "table", "--group", "B", "--rank", "1")
    assert len([l for l in out.splitlines() if l.strip()]) == 2


def test_table_byte_stable(capsys):
    _, out1 = run(capsys, "table", "--group", "D", "--rank", "4")
    _, out2 = run(capsys, "table", "--group", "D", "--rank", "4")
    assert out1 == out2


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--group", "D", "--rank", "1")
    assert code == 0 and out.strip() == "(1; 0)"


def test_rewrite(capsys):
    code, out = run(capsys, "rewrite", "--group", "D", "--pairs", "5,4,4;2,2,0")
    assert code == 0
    assert "induced sizes: 3, 4, 3, 3, 2, 1" in out
    assert "final: (5 4 4 4 3 3 3 2 1; 4 3 3 3 2 2 2 1 0)" in out


def test_orbit(capsys):
    code, out = run(capsys, "orbit", "--group", "D", "--pairs", "3;0")
    assert code == 0
    assert "[6,5,1] in so(12)" in out and "dimension 36" in out
    code, _ = run(capsys, "orbit", "--group", "D", "--pairs", "2;2")
    assert code == 3  # not a strict core


def test_verify_chain(capsys):
    code, out = run(capsys, "verify-chain", "--group", "D", "--pairs", "2;4")
    assert code == 0 and "all steps OK" in out
    code, out = run(capsys, "verify-chain", "--group", "D", "--pairs", "4;2")
    assert code == 0 and "not certified" in out


def test_non_rational_input_rejected(capsys):
    code = main(["classify", "--mu", "1/2,1/2", "--nu", "1+2j,0"])
    assert code == 2
    code = main(["classify", "--group", "D", "--pairs", "x;y"])
    assert code == 2


def test_mu_starting_with_minus_needs_equals_form(capsys):
    # joined by '=', a list starting with a minus is read as the value
    code, out = run(capsys, "classify", "--mu=-1/2,1/2", "--nu", "1,0")
    assert code == 4 and "status: NotHermitian" in out
    # with a space, argparse reads it as an option: exit 2, a message, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--mu", "-1/2,1/2", "--nu", "1,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mu: expected one argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("table", "--rank=--"),
    ("enumerate", "--rank=--"),
    ("classify", "--mu=--", "--nu=1"),
    ("classify", "--group=--", "--pairs=4;0"),
    ("rewrite", "--pairs=--"),
])
def test_double_dash_option_value_rejected(capsys, argv):
    # '--' joined by '=' is no value: exit 2 with argparse's message, no traceback
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ": error: argument --" in err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["rewrite", "orbit", "verify-chain"])
def test_pairs_commands_require_pairs(capsys, command):
    # these commands read only --pairs: without it, exit 2 with a message
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "D"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --pairs" in err
    assert "Traceback" not in err


def run_error(capsys, *argv):
    """Exit code and standard error of a call that must fail cleanly."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
    return code, lines[0]


def classify_document(tmp_path, capsys, doc):
    path = tmp_path / "param.json"
    path.write_text(json.dumps(doc))
    return run_error(capsys, "classify", "--file", str(path))


def test_document_rows_of_unequal_length_rejected(tmp_path, capsys):
    code, err = classify_document(
        tmp_path, capsys, {"group": "D", "pairs": {"x": [4, 1], "y": [0]}})
    assert code == 2 and "different lengths" in err


def test_zero_denominator_rejected(capsys):
    code, err = run_error(capsys, "classify", "--mu", "1/2", "--nu", "0/0")
    assert code == 2 and "zero denominator" in err


def test_table_rank_zero_rejected(capsys):
    code, err = run_error(capsys, "table", "--rank", "0")
    assert code == 2 and "--rank must be positive" in err


def test_enumerate_rank_zero_rejected(capsys):
    code, err = run_error(capsys, "enumerate", "--rank", "0")
    assert code == 2 and "--rank must be positive" in err


def test_table_rank_above_bound_rejected(capsys):
    for command in ("table", "enumerate"):
        code, err = run_error(capsys, command, "--group", "B",
                              "--rank", str(MAX_TABLE_RANK + 1))
        assert code == 2 and f"exceeds the table bound {MAX_TABLE_RANK}" in err
    code, err = run_error(capsys, "table", "--rank", "40")
    assert code == 2 and "--rank 40" in err


def test_document_booleans_rejected(tmp_path, capsys):
    code, err = classify_document(
        tmp_path, capsys, {"group": "D", "pairs": {"x": [True], "y": [False]}})
    assert code == 2 and "must be an integer, not true" in err


def test_classify_rank_zero_rejected(capsys):
    code, err = run_error(capsys, "classify", "--mu", "1/2,1/2", "--nu", "1,1/2",
                          "--rank", "0")
    assert code == 2 and "rank must be positive" in err


def test_decimal_rationals_rejected(capsys):
    for nu in ("1e0,5e-1", "1,0.5", "1,.5", "1_0,1/2"):
        code, err = run_error(capsys, "classify", "--mu", "1/2,1/2", "--nu", nu)
        assert code == 2 and "is not a rational like '-3/2'" in err, (nu, err)
    code, out = run(capsys, "classify", "--mu", "1/2,1/2", "--nu", " +3/2 , -1/2 ")
    assert code == 4 and "nu=(3/2, -1/2)" in out


def test_document_decimal_rationals_rejected(tmp_path, capsys):
    for entry in ("0.5", "1e3"):
        for key in ("mu", "nu"):
            doc = {"group": "D", "mu": ["1/2", "1/2"], "nu": ["1", "1/2"]}
            doc[key] = [entry, "1/2"]
            code, err = classify_document(tmp_path, capsys, doc)
            assert code == 2 and f"'{entry}' is not a rational" in err, err


@pytest.mark.parametrize("text", ["", "1;2;3", "1,a;2,0"])
def test_pairs_not_of_their_form_rejected(capsys, text):
    # one message naming the option and its form, not Python's own exception text
    code, err = run_error(capsys, "classify", "--group", "D", "--pairs", text)
    assert code == 2
    assert err == f'parse error: --pairs {text!r} is not of the form "x1,..;y1,.."'


@pytest.mark.parametrize("command", ["classify", "rewrite", "orbit", "verify-chain"])
def test_empty_pairs_rejected(capsys, command):
    code = main([command, "--group", "D", "--pairs", ";"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "parse error: pairs ';' have no columns\n"


def test_classify_json_witness_group(capsys):
    # the padded core's witness lives on the induced group B1722
    code, out = run(capsys, "classify", "--group", "B", "--pairs", "30,20,9;5,2,1",
                    "--json")
    assert code == 3
    witness = json.loads(out)["witness"]
    assert witness["group"] == "B1722" and len(witness["weight"]) == 1722
    code, out = run(capsys, "classify", "--group", "D", "--pairs", "1;3", "--json")
    assert json.loads(out)["witness"]["group"] == "D8"


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "D", "--pairs", "4;0"],
    ["classify", "--group", "B", "--pairs", "2,2;0,0", "--json"],
    ["classify", "--mu=3/2,3/2,1/2,1/2", "--nu=5/2,-5/2,1/2,-1/2"],
    ["classify", "--mu=1,0", "--nu=1,0", "--json"],
])
def test_classify_trace(capsys, argv):
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv + ["--trace"]) == code
    traced = capsys.readouterr()
    assert traced.out == plain.out and plain.err == ""
    records = [json.loads(line) for line in traced.err.splitlines()]
    order = [PIPELINE.index(r["stage"]) for r in records]
    assert order and order == sorted(order)
    for r in records:
        assert isinstance(r.pop("stage"), str) and isinstance(r.pop("outcome"), str)
        assert "elapsed_ns" in r
        assert all(type(v) is int for v in r.values()), r


def _pairs_inputs(tmp_path, family, pairs_text):
    """The same string pairs as --pairs, as --mu/--nu lists of their
    parameter, and as a pairs document."""
    xs, ys = ([int(v) for v in row.split(",")] for row in pairs_text.split(";"))
    p = pairs_to_param(StringPairs(family, tuple(zip(xs, ys))))
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"group": family, "pairs": {"x": xs, "y": ys}}))
    return (["--group", family, "--pairs", pairs_text],
            ["--group", family, "--mu=" + ",".join(map(str, p.mu)),
             "--nu=" + ",".join(map(str, p.nu))],
            ["--file", str(path)])


@pytest.mark.parametrize("family, pairs_text", [
    ("D", "4;0"), ("D", "1;3"), ("D", "2,2;1,1"), ("D", "3,2,2;0,0,0"),
    ("B", "2,2;0,0"), ("B", "1,1;1,0"), ("B", "3,0;2,1"),
    # the half-class and the Langlands texts lie past the shared k/L table bound
    ("D", "1000;0"),
])
def test_pairs_input_matches_mu_nu_input(tmp_path, capsys, family, pairs_text):
    # --pairs and pairs documents classify the pairs directly, --mu/--nu
    # classifies the parameter: the output is the same
    for extra in ([], ["--json"]):
        outputs = [run(capsys, "classify", *argv, *extra)
                   for argv in _pairs_inputs(tmp_path, family, pairs_text)]
        assert outputs[0] == outputs[1] == outputs[2], outputs
        assert outputs[0][0] in (0, 3)
    traces = []
    for argv in _pairs_inputs(tmp_path, family, pairs_text):
        main(["classify", *argv, "--trace"])
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        for r in records:
            assert type(r.pop("elapsed_ns")) is int
        traces.append(records)
    assert traces[0] == traces[1] == traces[2] and traces[0]


@pytest.mark.parametrize("family, pairs_text, n", [
    ("D", f"{MAX_PADDED_N + 1};0", MAX_PADDED_N + 1),
    ("B", f"{MAX_PADDED_N};1", MAX_PADDED_N + 1),
    ("D", "10000000;0", 10_000_000),
])
def test_pairs_input_size_bound(capsys, family, pairs_text, n):
    # rejected before the parameter is built: "10000000;0" would need GBs
    start = time.perf_counter()
    code, err = run_error(capsys, "classify", "--group", family, "--pairs", pairs_text)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and err == (f"parse error: pairs of total size {n} "
                                 f"exceed the bound {MAX_PADDED_N} of classify"), err


def test_pairs_document_size_bound(tmp_path, capsys):
    code, err = classify_document(
        tmp_path, capsys, {"group": "B", "pairs": {"x": [MAX_PADDED_N, 1], "y": [1, 0]}})
    assert code == 2 and err == (f"parse error: pairs of total size {MAX_PADDED_N + 2} "
                                 f"exceed the bound {MAX_PADDED_N} of classify"), err


@pytest.mark.parametrize("key", ["mu", "nu"])
def test_document_string_vectors_rejected(tmp_path, capsys, key):
    # a string is not read one character at a time: "10" is not nu = (1, 0)
    doc = {"group": "D", "mu": ["1/2", "1/2"], "nu": ["1", "0"]}
    doc[key] = "10"
    code, err = classify_document(tmp_path, capsys, doc)
    assert code == 2 and err == f"parse error: {key} must be a list of rationals"


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# the --json documents below were recorded before the extraction, matching and
# replay code was restated, and must not change


def test_table_json_golden(capsys):
    def row(pairs, lam_l, lam_r, verdict, witness=""):
        return {"pairs": pairs, "lambda_L": lam_l.split(), "lambda_R": lam_r.split(),
                "verdict": verdict, "witness": witness}

    code, doc = run_json(capsys, "table", "--group", "B", "--rank", "2")
    assert code == 0
    assert doc == [
        row("(2; 0)", "3/2 1/2 0 -1", "1 0 -1/2 -3/2", "No", "eta(2)"),
        row("(1 1; 0 0)", "1/2 1/2 0 0", "0 0 -1/2 -1/2", "Yes"),
        row("(1; 1)", "1/2 -1/2 1 0", "0 -1 1/2 -1/2", "Yes - unipotent"),
        row("(0 0; 1 1)", "-1/2 -1/2 1 1", "-1 -1 1/2 1/2", "No", "eta(1)"),
        row("(0; 2)", "-1/2 -3/2 2 1", "-1 -2 3/2 1/2", "Yes - unipotent"),
    ]


def test_rewrite_json_golden(capsys):
    code, doc = run_json(capsys, "rewrite", "--group", "D", "--pairs", "1;3")
    assert code == 0
    assert doc == {
        "sizes": [2, 3],
        "steps": ["(1; 3) --2--> (2 1; 3 1)", "(2 1; 3 1) --3--> (3 2 1; 3 2 1)"],
        "final": "(3 2 1; 3 2 1)",
    }


def test_orbit_json_golden(capsys):
    code, doc = run_json(capsys, "orbit", "--group", "D", "--pairs", "3;0")
    assert code == 0
    assert doc == {"columns": [6, 5, 1], "ambient": 12, "dimension": 36,
                   "nilcone_dimension": 60, "codimension_identity": True}


def test_verify_chain_json_golden(capsys):
    def step(move, injective=True, scalar=None, reason=""):
        return {"move": move, "well_defined": True, "injective": injective,
                "scalar": scalar, "reason": reason}

    code, doc = run_json(capsys, "verify-chain", "--group", "D", "--pairs", "3;1")
    assert code == 0
    assert doc == [
        {"part": "omega", "start": ["-3/2^+", "1/2^+", "5/2^+", "9/2^+"], "steps": [
            step("bar-reading 9/2^+ as -9/2^-"),
            step("pass -9/2^- left over (-3/2^+ 1/2^+ 5/2^+)", False, "0",
                 "zero of the rank-one scalar: not injective"),
            step("bar-reading 5/2^+ as -5/2^-"),
            step("pass -5/2^- left over (-3/2^+ 1/2^+)", scalar="-1/3"),
        ]},
        {"part": "omega-dual", "start": ["-9/2^+", "-5/2^+", "-1/2^+", "3/2^+"], "steps": [
            step("bar-reading 3/2^+ as -3/2^-"),
            step("sort (-9/2^+ -5/2^+ -1/2^+ | -3/2^-) descending"),
        ]},
    ]


def test_file_that_cannot_be_read(tmp_path, capsys):
    code, err = run_error(capsys, "classify", "--file", str(tmp_path / "missing.json"))
    assert code == 2 and "No such file" in err
    code, err = run_error(capsys, "classify", "--file", str(tmp_path))
    assert code == 2 and "Is a directory" in err
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"group": "D", "mu": ["\xbd"]}')
    code, err = run_error(capsys, "classify", "--file", str(path))
    assert code == 2 and "utf-8" in err


def test_pairs_of_no_string_pair_shape(capsys):
    # (2; 0) and (1; 1) have no arrangement with both rows non-increasing
    code, err = run_error(capsys, "classify", "--group", "D", "--pairs", "2,1;0,1")
    assert code == 2 and "non-increasing" in err


def test_mu_without_nu(capsys):
    code, err = run_error(capsys, "classify", "--mu", "1/2,1/2")
    assert code == 2 and "--mu and --nu" in err


@pytest.mark.parametrize("options", [
    ("--mu=", "--nu="),
    ("--pairs", ""),
    ("--mu=1/2", "--nu="),
])
def test_empty_option_values_are_parse_errors(monkeypatch, capsys, options):
    # an option given with an empty value is given: neither the other
    # options nor a document on stdin stand in for it
    monkeypatch.setattr("sys.stdin", io.StringIO('{"group": "D", "pairs": {"x": [4], "y": [0]}}'))
    code, err = run_error(capsys, "classify", "--group", "D", *options)
    assert code == 2 and err.startswith("parse error: ")
    assert "must be given together" not in err


def test_empty_file_value_is_a_parse_error(monkeypatch, capsys):
    # --file "" classified the document on stdin, where --pairs "" fails
    monkeypatch.setattr("sys.stdin", io.StringIO('{"group": "D", "pairs": {"x": [4], "y": [0]}}'))
    code, err = run_error(capsys, "classify", "--file", "")
    assert code == 2 and err.startswith("parse error: cannot read the parameter document: ")


@pytest.mark.parametrize("text, message", [
    ("[1,2]", "the parameter document must be a JSON object with group and either "
     "pairs: {x, y} or mu and nu"),
    ('"text"', "the parameter document must be a JSON object"),
    ("null", "the parameter document must be a JSON object"),
    ('{"group": "D", "pairs": [1]}', "pairs must be a JSON object {x: [...], y: [...]}"),
    ('{"group": "D", "pairs": {"x": [1]}}', "pairs has no field y"),
    ('{"group": "D", "nu": ["1"]}', "the parameter document has no field mu"),
    ('{"mu": ["1/2"], "nu": ["0"]}', "the parameter document has no field group"),
    ('{"group": "D", "mu": ["1/2"]}', "the parameter document has no field nu"),
], ids=["array", "string", "null", "pairs array", "no y", "no mu", "no group", "no nu"])
def test_document_not_of_its_form(monkeypatch, capsys, text, message):
    """A document that is not an object, or lacks a field, gets one parse
    error naming the field or the expected form, not Python's own words."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, err = run_error(capsys, "classify")
    assert code == 2 and err.startswith("parse error: ") and message in err
    assert "indices" not in err and "subscriptable" not in err
    # nor a bare quoted key, the text of a KeyError
    assert not re.search(r"'[A-Za-z_]+'$", err), err


PAIRS_DOCUMENT = '{"group": "D", "pairs": {"x": [4], "y": [0]}}'
ONE_SOURCE = "give --pairs, or --mu and --nu (with --rank), or a document"


@pytest.mark.parametrize("options, first, second", [
    (["--pairs", "4;0", "--mu=1/2", "--nu=1/2"], "--pairs", "--nu"),
    (["--pairs", "4;0", "--mu=1/2"], "--pairs", "--mu"),
    (["--pairs", "4;0", "--rank", "7"], "--rank", "--pairs"),
    (["--pairs", "4;0", "--file", "param.json"], "--pairs", "--file"),
    (["--mu=1/2", "--nu=1/2", "--file", "param.json"], "--mu", "--file"),
    (["--nu=1/2", "--file", "param.json"], "--nu", "--file"),
    (["--rank", "7", "--file", "param.json"], "--rank", "--file"),
    (["--rank", "7"], "--rank", "a document on standard input"),
    (["--file", "param.json"], "--group", "--file"),
    ([], "--group", "a document on standard input"),
], ids=["pairs-mu-nu", "pairs-mu", "pairs-rank", "pairs-file", "mu-nu-file", "nu-file",
        "rank-file", "rank-stdin", "group-file", "group-stdin"])
def test_classify_reads_one_parameter_source(tmp_path, monkeypatch, capsys, options,
                                             first, second):
    # a second source is rejected, not ignored: each of these classified one
    # source (or --rank or --group was dropped) and exited 0 or 4
    monkeypatch.chdir(tmp_path)
    (tmp_path / "param.json").write_text(PAIRS_DOCUMENT)
    monkeypatch.setattr("sys.stdin", io.StringIO(PAIRS_DOCUMENT))
    code, err = run_error(capsys, "classify", "--group", "D", *options)
    assert code == 2
    assert err == f"parse error: {first} and {second} cannot be given together: {ONE_SOURCE}"


@pytest.mark.parametrize("key, value", [("mu", ["1/2"]), ("nu", ["0"]), ("rank", 5)],
                         ids=["mu", "nu", "rank"])
def test_pairs_document_is_one_parameter_source(tmp_path, capsys, key, value):
    # {"group": "D", "rank": 5, "pairs": ...} classified D8, ignoring its rank
    doc = {"group": "D", key: value, "pairs": {"x": [4], "y": [0]}}
    code, err = classify_document(tmp_path, capsys, doc)
    assert code == 2 and err == (f"parse error: the parameter document holds both pairs "
                                 f"and {key}: give pairs, or mu and nu (with rank)")


def test_invalid_json_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"group": "D",'))
    code, err = run_error(capsys, "classify")
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("argv, code, prefix", [
    (["classify", "--mu", "1/2", "--nu", "0/0"], 2, "parse error: "),
    (["rewrite", "--pairs", "317;0"], 2, "error: "),
    (["orbit", "--group", "D", "--pairs", "2;2"], 3, "error: "),
    (["verify-chain", "--group", "B", "--pairs", "2,1;1,0"], 3, "error: "),
], ids=["parse-error", "padding-bound", "core-not-strict", "no-script"])
def test_exit_code_table(capsys, argv, code, prefix):
    # each failure exits with its code, one stderr line and nothing on stdout
    got, err = run_error(capsys, *argv)
    assert got == code and err.startswith(prefix), err


def test_verify_chain_size_bound(capsys, monkeypatch):
    size = intertwine.MAX_SCRIPT_SIZE
    # scripts at the bound of 256 still replay: a cheap one and the largest
    code, out = run(capsys, "verify-chain", "--group", "D", "--pairs", "1;255")
    assert code == 0 and out.endswith("all steps OK\n")
    for family in "DB":
        for pairs in ("256;0", "128;128"):
            code, out = run(capsys, "verify-chain", "--group", family, "--pairs", pairs)
            assert code == 0 and out.splitlines()[-1] in (
                "all steps OK", "some steps are not certified"), (family, pairs)

    def unbuilt(*args):
        raise AssertionError("a script was built above the bound")

    monkeypatch.setattr(intertwine, "build_case_script", unbuilt)
    for family, pairs in (("D", "257;0"), ("B", "257;0"), ("D", "129;128")):
        start = time.perf_counter()
        code, err = run_error(capsys, "verify-chain", "--group", family, "--pairs", pairs)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and err == ("parse error: pairs of total size 257 "
                                     f"exceed the bound {size} of verify-chain"), err


def test_orbit_size_bound(capsys, monkeypatch):
    # the orbit of a strict core at the bound is still attached
    code, out = run(capsys, "orbit", "--group", "D", "--pairs", f"{MAX_PADDED_N};0")
    assert code == 0 and out.startswith("orbit [")

    def unattached(*args):
        raise AssertionError("an orbit was attached above the bound")

    monkeypatch.setattr(orbits, "attach_orbit", unattached)
    for family, pairs in (("D", f"{MAX_PADDED_N + 1};0"), ("B", f"{MAX_PADDED_N};1"),
                          ("D", "10000000;0")):
        n = sum(map(int, pairs.split(";")))
        start = time.perf_counter()
        code, err = run_error(capsys, "orbit", "--group", family, "--pairs", pairs)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and err == (f"parse error: pairs of total size {n} "
                                     f"exceed the bound {MAX_PADDED_N} of orbit"), err


def test_padding_bound(capsys):
    # (x; 0) pads to n = x^2, past the bound at x = 317
    code, err = run_error(capsys, "rewrite", "--group", "D", "--pairs", "317;0")
    assert code == 2 and f"n = {MAX_PADDED_N}" in err
    # the violated column (1; 3) is the base, and (400; 5) pads past the bound
    code, err = run_error(capsys, "classify", "--group", "D", "--pairs", "400,1;5,3")
    assert code == 2 and f"n = {MAX_PADDED_N}" in err


def test_classify_gl_factors_json_golden(capsys):
    code, doc = run_json(capsys, "classify", "--mu", ",".join(["1/2"] * 8),
                         "--nu", "1,-1,0,0,1/4,-1/4,3/4,-3/4")
    assert code == 0
    assert doc["certificate"] == {
        "stein_sizes": [],
        "gl_factors": [
            {"class": "t=0,1", "kind": "TrivialString", "size": 2},
            {"class": "t=0,1", "kind": "TrivialString", "size": 1},
            {"class": "t=0,1", "kind": "TrivialString", "size": 1},
            {"class": "t=1/4", "kind": "SteinPair", "size": 1},
            {"class": "t=1/4", "kind": "SteinPair", "size": 1},
        ],
        "core": None, "orbit_columns": None, "orbit_dimension": None,
    }
    assert doc["transcript"] == [
        "dominant form: D8: mu=(1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2), "
        "nu=(1, -1, 0, 0, 1/4, -1/4, 3/4, -3/4)",
    ]


def python_process(*args) -> dict:
    """The arguments of a new ``python`` process that imports spindual from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return {"args": [sys.executable, *args], "env": env}


def _fresh_process(*argv):
    """Exit code, stdout and stderr of ``python -m spindual.cli`` in a new process."""
    proc = subprocess.run(**python_process("-m", "spindual.cli", *argv),
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_standard_output_exits_141():
    """A reader that stops after one line, as ``table ... | head -n 1`` does,
    ends the run with 141 (128 + SIGPIPE) and nothing on standard error: the
    table (some 290 KB) is more than a pipe holds."""
    proc = subprocess.Popen(**python_process("-m", "spindual.cli", "table", "--group", "B",
                                             "--rank", "12"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"(12; 0) ") and err == b""


def test_parser_is_reused(capsys):
    assert build_parser() is build_parser()
    # an argparse error and a traced call leave nothing behind in the parser
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "D"])
    assert exc.value.code == 2
    assert main(["classify", "--group", "D", "--pairs", "1;3", "--trace"]) == 3
    assert capsys.readouterr().err.count("elapsed_ns") > 0
    # a new process exits with main's code and writes the same streams, also
    # for a parse error, a module error and a parameter that is not Hermitian
    codes = []
    for argv in (["classify", "--group", "B", "--pairs", "2,1;1,0", "--json"],
                 ["table", "--group", "B", "--rank", "3"],
                 ["classify", "--group", "D", "--pairs", "1,a;2,0"],
                 ["orbit", "--group", "D", "--pairs", "2;2"],
                 ["classify", "--group", "D", "--mu=1/2,1/2,1/2,1/2",
                  "--nu=1/2,-1/2,1/3,1/3"]):
        codes.append(code := main(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(*argv), argv
    assert codes == [0, 0, 2, 3, 4]
