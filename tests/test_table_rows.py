"""``table`` rows from the staircase test and the doubled integers.

A row is read off ``unitarity_test``, the normal form's eta(q) and the
doubled nu of ``pairs_to_param``, without building the parameter or a
verdict; it must say what the verdict of ``classify`` on that parameter
says, and ``table --json`` must pass the benchmark's independent checker.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from spindual import cli, spinclass
from spindual.cli import _langlands_text, _row_for
from spindual.halfint import _DENOMINATOR_BOUND, _RATIO_BOUND, _TEXT_TABLES, fmt
from spindual.spinclass import Status, classify, enumerate_pairs, pairs_to_param
from tests.test_bench_checker import _checker


def row_from_verdict(pairs):
    """The row as the verdict of ``classify(pairs_to_param(pairs))`` states
    it, with the Langlands text rendered from the parameter's Fractions."""
    p = pairs_to_param(pairs)
    verdict = classify(p)
    if verdict.status is Status.UNITARY:
        # strict staircase inequalities are exactly those with nothing to peel
        tag = "Yes" if verdict.certificate.stein_factors else "Yes - unipotent"
        witness = ""
    else:
        tag, witness = "No", f"eta({verdict.witness.q})"
    return {
        "pairs": str(pairs),
        "lambda_L": [fmt((n + m) / 2) for m, n in zip(p.mu, p.nu)],
        "lambda_R": [fmt((n - m) / 2) for m, n in zip(p.mu, p.nu)],
        "verdict": tag,
        "witness": witness,
    }


def test_rows_equal_verdicts_up_to_n12():
    rows = 0
    for family in "DB":
        for n in range(1, 13):
            for pairs in enumerate_pairs(family, n):
                assert _row_for(pairs) == row_from_verdict(pairs), pairs
                rows += 1
    assert rows == 4898


def test_rows_build_no_parameter_and_no_verdict(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a table row built a parameter or a verdict")

    monkeypatch.setattr(spinclass, "_pairs_verdict", unbuilt)
    monkeypatch.setattr(spinclass, "pairs_to_param", unbuilt)
    monkeypatch.setattr(cli, "pairs_to_param", unbuilt)
    for family in "DB":
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["table", "--group", family, "--rank", "6"]) == 0
        assert out.getvalue().count("\n") == len(list(enumerate_pairs(family, 6)))


@pytest.mark.parametrize("family", ["D", "B"])
def test_table_json_passes_the_independent_checker(family):
    checker = _checker()
    for n in range(1, 13):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["table", "--group", family, "--rank", str(n), "--json"])
        checker.check_table(family, n, code, out.getvalue())


def test_text_table_stays_within_its_bound():
    # the CLI's Langlands texts come from the shared k/L text table of halfint
    ks = range(-10 ** 6, 10 ** 6 + 1, 101)
    doc = _langlands_text(2, [1] * len(ks), ks)
    assert doc["lambda_L"] == [fmt(Fraction(k + 1, 4)) for k in ks]
    for L in (1, 3, 7, _DENOMINATOR_BOUND, 10 ** 6):
        mu, nu = [1, -1, 2 * L], [2 * L * _RATIO_BOUND, -(10 ** 7), 3]
        doc = _langlands_text(L, mu, nu)
        assert doc["lambda_R"] == [fmt(Fraction(n - m, 2 * L)) for m, n in zip(mu, nu)]
    assert len(_TEXT_TABLES) <= _DENOMINATOR_BOUND - 1
    assert all(0 < den < _DENOMINATOR_BOUND for den in _TEXT_TABLES)
    for texts in _TEXT_TABLES.values():
        assert len(texts) <= 2 * _RATIO_BOUND - 1
        assert all(-_RATIO_BOUND < k < _RATIO_BOUND for k in texts)
