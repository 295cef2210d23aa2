"""Every table row with n <= 10 through the benchmark's independent checker.

``bench/checker.py`` restates the staircase inequalities, the row insertion,
the certificate sizes and the witness indices without importing spindual;
here it re-derives each verdict of ``classify`` on the D and B tables, and
the paddings and peelings of drawn string pairs past those tables.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from hypothesis import assume, given, settings, strategies as st

from spindual.orbits import attach_orbit
from spindual.rewriter import full_staircase, normalize_to_base
from spindual.spinclass import (
    MalformedParameter, StringPairs, classify, enumerate_pairs, pairs_to_param,
    peel_stein_factors, unitarity_test,
)

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


@st.composite
def drawn_pairs(draw):
    """Doubly non-increasing string pairs of either family: up to 6 columns
    with entries up to 14, past the tables above."""
    family = draw(st.sampled_from("BD"))
    k = draw(st.integers(1, 6))
    xs = draw(st.lists(st.integers(family == "D", 14), min_size=k, max_size=k))
    ys = draw(st.lists(st.integers(0, 14), min_size=k, max_size=k))
    try:
        return StringPairs(family, tuple(zip(sorted(xs, reverse=True), sorted(ys, reverse=True))))
    except MalformedParameter:
        assume(False)


@settings(max_examples=400, deadline=None)
@given(drawn_pairs())
def test_padding_and_peeling_match_the_independent_checker(pairs):
    checker = _checker()
    family, cols = pairs.family, pairs.pairs
    if not unitarity_test(pairs):
        inserted, final = checker.normalize(family, cols)
        normal = normalize_to_base(pairs)
        assert normal.moves == tuple(inserted) and normal.final.pairs == final
    inserted, final = checker.full_staircase(cols)
    steps, padded = full_staircase(pairs)
    assert tuple((s.dx, s.dy) for s in steps) == tuple(inserted) and padded.pairs == final
    # a full staircase is satisfied, so the drawn pairs or their padding peel
    satisfied = pairs if unitarity_test(pairs) else padded
    factors, core = peel_stein_factors(satisfied)
    certificate = SimpleNamespace(stein_factors=factors, core=core,
                                  orbit=attach_orbit(core) if core is not None else None)
    checker.check_certificate(family, satisfied.n, certificate)
