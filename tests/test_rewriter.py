"""Tests for the padding transcripts and base normalization."""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from spindual import rewriter
from spindual.rewriter import (
    MAX_PADDED_N, CaseI, CaseII, InductionStep, PaddingBoundExceeded, _row_insert,
    full_staircase, normalize_to_base,
)
from spindual.spinclass import (
    MalformedParameter, StringPairs, classify, enumerate_pairs, extract_pairs,
    pairs_to_param, staircase_slacks, unitarity_test,
)
from tests.test_bench_checker import _checker

# the +1/2 residue class of columns, restated without spindual
half_class = _checker().half_class


def D(*cols):
    return StringPairs("D", cols)


# Case A: columns with x < y absorb (x+1; x) until every column has x = y.

def test_pad_case_a_examples():
    steps, final = full_staircase(D((1, 2)))
    assert steps[0].dx == 2 and steps[0].dy == 1
    assert all(x == y for x, y in final.pairs)

    steps, final = full_staircase(D((1, 1)))
    assert steps == () and final.pairs == ((1, 1),)

    steps, final = full_staircase(D((1, 3)))
    assert steps and all(x == y for x, y in final.pairs)
    assert final.pairs[0] == (3, 3)


def test_pad_case_a_defect_decreases():
    steps, _ = full_staircase(D((1, 2), (1, 2)))
    defects = [sum(y - x for x, y in s.before.pairs) for s in steps]
    assert defects == sorted(defects, reverse=True)
    assert all(a - b == 1 for a, b in zip(defects, defects[1:]))


# Case B: columns with x >= y + 2 absorb (v; v) until they are staircase steps.

def test_pad_case_b_golden():
    steps, final = full_staircase(D((5, 2), (4, 2), (4, 0)))
    assert [s.label for s in steps] == [3, 4, 3, 3, 2, 1]
    assert final.pairs == (
        (5, 4), (4, 3), (4, 3), (4, 3), (3, 2), (3, 2), (3, 2), (2, 1), (1, 0)
    )


def test_pad_case_b_small():
    steps, final = full_staircase(D((2, 1)))
    assert steps == ()
    _, final = full_staircase(D((3, 0)))
    assert final.pairs == ((3, 2), (2, 1), (1, 0))


def test_full_staircase_all_steps_legal():
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                steps, final = full_staircase(pairs)
                for s in steps:
                    assert s.after.n == s.before.n + s.dx + s.dy
                assert all(x - y in (0, 1) for x, y in final.pairs)


def test_normalize_rejects_satisfied_pairs():
    # a satisfied staircase has no base: it peels instead
    with pytest.raises(ValueError, match="requires a staircase violation"):
        normalize_to_base(StringPairs("D", ((2, 2),)))


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
                assert nb.final.n == pairs.n + sum(s.dx + s.dy for s in nb.steps)


def test_normalize_steps_keep_the_staircase_status():
    # no step of normalize_to_base on a violated table row with n <= 10
    # satisfies the staircase inequalities: the violation it keeps stays one.
    # This covers normalize_to_base only: full_staircase pads the violation too
    steps = [step for fam in ("B", "D") for n in range(1, 11) for pairs in table(fam, n)
             if not unitarity_test(pairs) for step in normalize_to_base(pairs).steps]
    assert len(steps) == 1950
    assert not any(unitarity_test(step.after) for step in steps)
    (step,), _ = full_staircase(D((1, 2)))
    assert str(step) == "(1; 2) --2--> (2 1; 2 1)" and unitarity_test(step.after)


def test_step_string_rendering():
    steps, _ = full_staircase(D((3, 0)))
    assert "-->" in str(steps[0])


# ---------------------------------------------------------------------------
# the row insertion against the string-level reference

def insert_by_strings(pairs: StringPairs, dx: int, dy: int) -> StringPairs:
    """Reference insertion: add the string of (dx; dy) to the half-class and
    re-extract the string pairs."""
    return extract_pairs(pairs.family, half_class(pairs.pairs + ((dx, dy),)))


def insert_by_rows(pairs: StringPairs, dx: int, dy: int) -> StringPairs:
    """The row insertion of the rewriter, checked by the public constructor."""
    xs, ys = list(pairs.xs), list(pairs.ys)
    _row_insert(xs, ys, dx, dy)
    return StringPairs(pairs.family, tuple(zip(xs, ys)))


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
        # out of range for the family: the public constructor rejects the rows
        with pytest.raises(MalformedParameter):
            insert_by_rows(pairs, dx, dy)
        return
    assert insert_by_rows(pairs, dx, dy) == expected, (pairs, dx, dy)


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
    assert insert_by_rows(pairs, dx, 0).k == pairs.k


def test_insert_half_into_zero_x_column_example():
    after = insert_by_rows(StringPairs("B", ((0, 2),)), 1, 0)
    assert after == StringPairs("B", ((1, 2),))
    assert after == insert_by_strings(StringPairs("B", ((0, 2),)), 1, 0)


def test_padding_bound():
    # a column (x; 0) pads x - 1 times, up to n = x^2
    steps, final = full_staircase(D((316, 0)))
    assert len(steps) == 315 and final.n == 316 ** 2 <= MAX_PADDED_N
    with pytest.raises(PaddingBoundExceeded, match=str(MAX_PADDED_N)):
        full_staircase(D((317, 0)))
    with pytest.raises(PaddingBoundExceeded):
        normalize_to_base(D((400, 5), (1, 3)))
    assert issubclass(PaddingBoundExceeded, ValueError)


# ---------------------------------------------------------------------------
# padding on int rows, with steps built when they are read

def step_by_rows(pairs: StringPairs, dx: int, dy: int) -> InductionStep:
    return InductionStep(dx, dy, pairs, insert_by_rows(pairs, dx, dy))


def normalize_by_steps(pairs: StringPairs):
    """Reference normalization: every round pads one column by a checked row
    insertion, re-locating the base on the new StringPairs.  Returns the
    steps."""
    steps, current = [], pairs
    while True:
        slacks = list(staircase_slacks(current.family, current.pairs))
        j = next(j for j, slack in enumerate(slacks) if slack < 0)
        base = {j // 2, (j + 1) // 2}
        i = next((i for i, (x, y) in enumerate(current.pairs)
                  if i not in base and x - y not in (0, 1)), None)
        if i is None:
            return tuple(steps)
        x, y = current.pairs[i]
        if x < y:
            step = step_by_rows(current, x + 1, x)
        else:
            v = y + 1 if i == 0 else max(y + 1, min(x - 1, current.pairs[i - 1][1]))
            step = step_by_rows(current, v, v)
        steps.append(step)
        current = step.after


def assert_lazy_steps_replay(pairs):
    nb = normalize_to_base(pairs)
    expected = normalize_by_steps(pairs)
    assert len(nb.steps) == len(nb.moves) == len(expected)
    assert nb.moves == tuple((s.dx, s.dy) for s in expected)
    assert tuple(nb.steps) == expected and nb.steps == expected, pairs
    current = pairs
    for step in nb.steps:
        assert step.before == current
        current = step.after
    assert current == nb.final


def test_lazy_steps_equal_eager_replay_on_tables():
    for fam in ("B", "D"):
        for n in range(1, 13):
            for pairs in table(fam, n):
                if not unitarity_test(pairs):
                    assert_lazy_steps_replay(pairs)


@st.composite
def violated_pairs(draw):
    fam = draw(st.sampled_from("BD"))
    k = draw(st.integers(1, 5))
    xs = sorted(draw(st.lists(st.integers(fam == "D", 14), min_size=k, max_size=k)),
                reverse=True)
    ys = sorted(draw(st.lists(st.integers(0, 14), min_size=k, max_size=k)), reverse=True)
    try:
        pairs = StringPairs(fam, tuple(zip(xs, ys)))
    except MalformedParameter:
        assume(False)
    assume(not unitarity_test(pairs))
    return pairs


@settings(max_examples=150, deadline=None)
@given(violated_pairs())
def test_lazy_steps_equal_eager_replay_drawn(pairs):
    assert_lazy_steps_replay(pairs)


def test_steps_not_built_by_len_or_equality(monkeypatch):
    pairs = StringPairs("B", ((30, 5), (20, 2), (9, 1)))
    a, b = (classify(pairs_to_param(pairs)) for _ in range(2))
    # padding inserts on its rows too; count the replay's insertions only
    calls = []

    def counting_insert(xs, ys, dx, dy):
        calls.append((dx, dy))
        _row_insert(xs, ys, dx, dy)

    monkeypatch.setattr(rewriter, "_row_insert", counting_insert)
    assert len(a.normalized.steps) == len(a.normalized.moves) == 38
    assert a == b and a.normalized == b.normalized
    assert calls == []
    repr(a)
    assert calls == list(a.normalized.moves)
    assert a == b and calls == list(a.normalized.moves)
    # a padded base hashes as the tuple of its replayed steps
    assert hash(a.normalized) == hash(b.normalized)


def test_replaced_steps_are_kept():
    nb = normalize_to_base(D((3, 0), (2, 0), (2, 0)))
    steps = tuple(nb.steps)[:1]
    replaced = dataclasses.replace(nb, steps=steps)
    assert replaced.steps is steps
    assert replaced.moves == nb.moves[:1]
    assert replaced != nb
