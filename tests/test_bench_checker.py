"""Every table row with n <= 10 through the benchmark's independent checker.

``bench/checker.py`` restates the staircase inequalities, the row insertion,
the certificate sizes and the witness indices without importing spindual;
here it re-derives each verdict of ``classify`` on the D and B tables.
"""

import importlib.util
from pathlib import Path

from spindual.spinclass import classify, enumerate_pairs, pairs_to_param

CHECKER = Path(__file__).resolve().parents[1] / "bench" / "checker.py"


def _checker():
    spec = importlib.util.spec_from_file_location("bench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_rows_pass_the_independent_checker():
    checker = _checker()
    rows = 0
    for family in "DB":
        for n in range(1, 11):
            for pairs in enumerate_pairs(family, n):
                checker.check_string_pair_verdict(
                    family, pairs.pairs, classify(pairs_to_param(pairs)))
                rows += 1
    assert rows == 1906
