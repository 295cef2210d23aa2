"""Tests for the padding transcripts and base normalization."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from spindual.rewriter import (
    MAX_PADDED_N, CaseI, CaseII, PaddingBoundExceeded, _insert, full_staircase,
    normalize_to_base, pad_case_a, pad_case_b,
)
from spindual.spinclass import (
    MalformedParameter, StringPairs, enumerate_pairs, extract_pairs,
    peel_stein_factors, string_of_column, unitarity_test,
)


def D(*cols):
    return StringPairs("D", cols)


def test_pad_case_a_examples():
    steps, final = pad_case_a(D((1, 2)))
    assert steps[0].dx == 2 and steps[0].dy == 1
    assert all(x == y for x, y in final.pairs)

    steps, final = pad_case_a(D((1, 1)))
    assert steps == () and final.pairs == ((1, 1),)

    steps, final = pad_case_a(D((1, 3)))
    assert steps and all(x == y for x, y in final.pairs)
    assert final.pairs[0] == (3, 3)


def test_pad_case_a_defect_decreases():
    steps, _ = pad_case_a(D((1, 2), (1, 2)))
    defects = [sum(y - x for x, y in s.before.pairs) for s in steps]
    assert defects == sorted(defects, reverse=True)
    assert all(a - b == 1 for a, b in zip(defects, defects[1:]))


def test_pad_case_b_golden():
    steps, final = pad_case_b(D((5, 2), (4, 2), (4, 0)))
    assert [s.label for s in steps] == [3, 4, 3, 3, 2, 1]
    assert final.pairs == (
        (5, 4), (4, 3), (4, 3), (4, 3), (3, 2), (3, 2), (3, 2), (2, 1), (1, 0)
    )


def test_pad_case_b_small():
    steps, final = pad_case_b(D((2, 1)))
    assert steps == ()
    _, final = pad_case_b(D((3, 0)))
    assert final.pairs == ((3, 2), (2, 1), (1, 0))


def test_full_staircase_all_steps_legal():
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                steps, final = full_staircase(pairs)
                for s in steps:
                    assert s.after.n == s.before.n + s.size
                assert all(x - y in (0, 1) for x, y in final.pairs)


def test_normalize_satisfied_matches_peeling():
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                if not unitarity_test(pairs):
                    continue
                nb = normalize_to_base(pairs)
                assert nb.base is None and nb.steps == ()
                factors, _ = peel_stein_factors(pairs)
                assert len(nb.stein_columns) == len(factors)
                assert [x + y for x, y in nb.stein_columns] == [f.a for f in factors]


def test_normalize_examples():
    nb = normalize_to_base(D((1, 2), (1, 0)))
    assert nb.base == CaseI(1, 2) and nb.stein_columns == ((1, 0),)

    nb = normalize_to_base(D((2, 0), (2, 0)))
    assert nb.base == CaseII(2, 2, 0, 0)

    nb = normalize_to_base(StringPairs("B", ((0, 1), (0, 1))))
    assert nb.base == CaseII(0, 0, 1, 1)

    nb = normalize_to_base(D((1, 3)))
    assert nb.base == CaseI(1, 3) and nb.steps == ()


def test_normalize_base_hypotheses():
    # every violated parameter normalizes onto a base satisfying the
    # single-string or two-string hypotheses, among staircase columns
    for fam in ("B", "D"):
        for n in range(1, 8):
            for pairs in enumerate_pairs(fam, n):
                if unitarity_test(pairs):
                    continue
                nb = normalize_to_base(pairs)
                assert nb.base is not None, (fam, pairs)
                if isinstance(nb.base, CaseI):
                    if fam == "D":
                        assert nb.base.a < nb.base.b
                    else:
                        assert nb.base.a > nb.base.b + 1
                else:
                    if fam == "D":
                        assert nb.base.d > nb.base.e + 1
                    else:
                        assert nb.base.f > nb.base.c
                assert all(x - y in (0, 1) for x, y in nb.stein_columns)
                # transcript sizes are positive and extend the rank
                assert nb.final.n == pairs.n + sum(s.size for s in nb.steps)


def test_step_string_rendering():
    steps, _ = pad_case_b(D((3, 0)))
    assert "-->" in str(steps[0])


# ---------------------------------------------------------------------------
# the row insertion against the string-level reference

def insert_by_strings(pairs: StringPairs, dx: int, dy: int) -> StringPairs:
    """Reference insertion: add the string of (dx; dy) to the half-class and
    re-extract the string pairs."""
    values = pairs.half_class() + string_of_column(dx, dy)
    return extract_pairs(pairs.family, tuple(sorted(values, reverse=True)))


@lru_cache(maxsize=None)
def table(family, n):
    return tuple(enumerate_pairs(family, n))


@st.composite
def table_pairs(draw, family=st.sampled_from("BD")):
    fam = draw(family)
    return draw(st.sampled_from(table(fam, draw(st.integers(1, 9)))))


def assert_insert_matches_strings(pairs, dx, dy):
    try:
        expected = insert_by_strings(pairs, dx, dy)
    except MalformedParameter:
        with pytest.raises(MalformedParameter):
            _insert(pairs, dx, dy)
        return
    step = _insert(pairs, dx, dy)
    assert step.after == expected, (pairs, dx, dy)
    assert (step.before, step.dx, step.dy) == (pairs, dx, dy)


@settings(max_examples=400, deadline=None)
@given(table_pairs(), st.integers(0, 6), st.integers(0, 6))
def test_insert_equals_string_reextraction(pairs, dx, dy):
    assume(dx or dy)
    assert_insert_matches_strings(pairs, dx, dy)


@st.composite
def b_pairs_with_zero_x_column(draw):
    n = draw(st.integers(1, 9))
    return draw(st.sampled_from([p for p in table("B", n) if p.xs[-1] == 0]))


@settings(max_examples=200, deadline=None)
@given(b_pairs_with_zero_x_column(), st.integers(1, 6))
def test_insert_half_into_zero_x_column(pairs, dx):
    # the 1/2 of (dx; 0) joins the (0; y) string; the rows leave an empty
    # (0; 0) column, which is dropped
    assert_insert_matches_strings(pairs, dx, 0)
    assert _insert(pairs, dx, 0).after.k == pairs.k


def test_insert_half_into_zero_x_column_example():
    step = _insert(StringPairs("B", ((0, 2),)), 1, 0)
    assert step.after == StringPairs("B", ((1, 2),))
    assert step.after == insert_by_strings(StringPairs("B", ((0, 2),)), 1, 0)


def test_padding_bound():
    # a column (x; 0) pads x - 1 times, up to n = x^2
    steps, final = full_staircase(D((316, 0)))
    assert len(steps) == 315 and final.n == 316 ** 2 <= MAX_PADDED_N
    with pytest.raises(PaddingBoundExceeded, match=str(MAX_PADDED_N)):
        full_staircase(D((317, 0)))
    with pytest.raises(PaddingBoundExceeded):
        normalize_to_base(D((400, 5), (1, 3)))
    assert issubclass(PaddingBoundExceeded, ValueError)
