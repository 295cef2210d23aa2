"""Tests for the command-line interface."""

import json

from spindual.cli import main


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


def test_document_booleans_rejected(tmp_path, capsys):
    code, err = classify_document(
        tmp_path, capsys, {"group": "D", "pairs": {"x": [True], "y": [False]}})
    assert code == 2 and "must be an integer, not true" in err
