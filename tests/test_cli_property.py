"""Command-line input as a property.

Hypothesis draws command lines of the six subcommands, with option values
from a grammar of rationals, integers and junk, and parameter documents fed
to ``classify`` through standard input.  Whatever the input, the CLI exits
0, 2, 3 or 4, prints no traceback, prints ``--json`` output that parses,
and gives a malformed input one message: ``parse error:`` or ``error:`` from
the CLI, or argparse's usage line and its ``error:`` line.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spindual.cli import MAX_TABLE_RANK, main
from spindual.rewriter import MAX_PADDED_N
from spindual.spinclass import enumerate_pairs, pairs_to_param

JUNK = ("", " ", "1/0", "0/0", "1_0", "+1", "-0", "1e0", "0.5", ".5", "x", "١",
        "1//2", "½", "nan", "inf", "1/2/3", "--", ";", ",")
INTEGERS = st.one_of(st.integers(-3, 9), st.just(MAX_PADDED_N + 1))
RATIONALS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-1, 6)),
    st.sampled_from(JUNK),
)
HALVES = st.sampled_from(("1/2", "-1/2", "3/2", "5/2"))
SMALL = st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 3))


def joined(items, sep: str):
    return st.lists(items, max_size=5).map(sep.join)


@st.composite
def pairs_texts(draw):
    """Rows of string-pair shape, or rows of anything."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        xs, ys = (sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                         reverse=True) for _ in range(2))
        return ",".join(map(str, xs)) + ";" + ",".join(map(str, ys))
    row = joined(st.one_of(INTEGERS.map(str), st.sampled_from(JUNK)), ",")
    return draw(st.one_of(st.builds("{};{}".format, row, row), joined(row, ";"),
                          st.text(max_size=6)))


VALUES = {
    "--group": st.sampled_from(("B", "D", "B", "D", "C")),
    "--pairs": pairs_texts(),
    "--mu": joined(RATIONALS, ","),
    "--nu": joined(RATIONALS, ","),
    "--rank": st.one_of(st.integers(-1, 6).map(str), st.just(str(MAX_TABLE_RANK + 1)),
                        st.sampled_from(JUNK)),
}
FLAGS = ("--json", "--trace")
PAIRS_OPTIONS = ("--group", "--json", "--pairs")
OPTIONS = {
    "classify": ("--group", "--json", "--pairs", "--mu", "--nu", "--rank", "--trace"),
    "table": ("--group", "--rank", "--json"),
    "enumerate": ("--group", "--rank"),
    "rewrite": PAIRS_OPTIONS,
    "orbit": PAIRS_OPTIONS,
    "verify-chain": PAIRS_OPTIONS,
}
# the options argparse requires, given first unless left out on purpose
REQUIRED = {"table": ("--rank",), "enumerate": ("--rank",), "rewrite": ("--pairs",),
            "orbit": ("--pairs",), "verify-chain": ("--pairs",)}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = list(REQUIRED.get(command, ()) if draw(st.integers(0, 4)) else ())
    argv = [command]
    if command == "classify" and draw(st.booleans()):
        # a genuine mu and a nu of its length
        n = draw(st.integers(1, 4))
        for option, entries in (("--mu", HALVES), ("--nu", SMALL)):
            argv.append(f"{option}={','.join(draw(st.lists(entries, min_size=n, max_size=n)))}")
    options += draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=3))
    for option in options:
        if option in FLAGS:
            argv.append(option)
        elif draw(st.booleans()):
            # joined by '=', a value starting with a minus is read as the value
            argv.append(f"{option}={draw(VALUES[option])}")
        else:
            argv += [option, draw(VALUES[option])]
    return argv


JSON_LEAVES = st.one_of(st.none(), st.booleans(), INTEGERS, RATIONALS, st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
PARAM_DOCUMENTS = st.fixed_dictionaries(
    {"group": st.sampled_from(("B", "D", "C", 2))},
    optional={"mu": st.lists(RATIONALS, max_size=4) | JSON_VALUES,
              "nu": st.lists(RATIONALS, max_size=4) | JSON_VALUES,
              "rank": st.integers(-1, 5) | JSON_VALUES})
PAIRS_DOCUMENTS = st.fixed_dictionaries({
    "group": st.sampled_from(("B", "D", "C")),
    "pairs": st.fixed_dictionaries({"x": st.lists(INTEGERS, max_size=4) | JSON_VALUES,
                                    "y": st.lists(INTEGERS, max_size=4) | JSON_VALUES}),
})
DOCUMENTS = st.one_of(
    st.one_of(PARAM_DOCUMENTS, PAIRS_DOCUMENTS, JSON_VALUES).map(json.dumps),
    st.text(max_size=12),
    st.sampled_from(('{"group": "D", "mu": [0.5, 0.5], "nu": [1e3, 0]}',
                     '{"group": "D", "pairs": {"x": [4.0], "y": [0]}}', '{"group": "D",')),
)


def run(argv, stdin: str):
    """Exit code, stdout and stderr of ``main(argv)``, with ``stdin`` as
    standard input, and whether argparse rejected the command line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return code, out.getvalue(), err.getvalue(), by_argparse


@settings(max_examples=300, deadline=None)
@given(command_lines(), DOCUMENTS)
def test_any_command_line_exits_cleanly(argv, document):
    code, out, err, by_argparse = run(argv, document)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if "--json" in argv and code != 2 and out:
        json.loads(out)
    if code == 2:
        assert out == "", (argv, out)
        lines = err.splitlines()
        if by_argparse:
            assert lines[0].startswith("usage: ") and ": error: " in lines[-1], (argv, err)
        else:
            assert len(lines) == 1, (argv, err)
            assert lines[0].startswith(("parse error: ", "error: ")), (argv, err)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS, st.booleans())
def test_any_document_on_stdin_exits_cleanly(document, as_json):
    argv = ["classify"] + ["--json"] * as_json
    code, out, err, by_argparse = run(argv, document)
    assert not by_argparse and code in (0, 2, 3, 4), (document, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, (document, err)
        assert err.startswith(("parse error: ", "error: ")), (document, err)
    elif as_json:
        json.loads(out)


@pytest.mark.parametrize("family", ["D", "B"])
def test_pairs_input_matches_mu_nu_input_on_every_small_row(family):
    # classify --pairs P prints what --mu/--nu of pairs_to_param(P) prints
    for n in range(1, 7):
        for pairs in enumerate_pairs(family, n):
            p = pairs_to_param(pairs)
            by_pairs = ["classify", "--group", family, "--pairs",
                        ",".join(map(str, pairs.xs)) + ";" + ",".join(map(str, pairs.ys))]
            by_mu_nu = ["classify", "--group", family, "--mu=" + ",".join(map(str, p.mu)),
                        "--nu=" + ",".join(map(str, p.nu))]
            for extra in ([], ["--json"]):
                assert run(by_pairs + extra, "") == run(by_mu_nu + extra, ""), (pairs, extra)
