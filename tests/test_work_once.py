"""``classify`` builds each piece of a verdict once.

A NonUnitary verdict builds its eta(q) weight once, on the padded group when
the rewriter padded and on the input group otherwise, and lists the
staircase slacks once for the staircase test and once per padding round
(the last round's list also locates the base).  ``_halves`` shares
the Fractions of small doubled values through a bounded table, so table
parameters hold few Fraction objects, and ``eta_weight`` reuses module-level
3/2 and -1/2.
"""

from fractions import Fraction

import pytest

from spindual import rewriter, spinclass
from spindual.spinclass import (
    Status, StringPairs, _HALF_OF, _HALVES_BOUND, _halves, classify, eta_weight,
    pairs_to_param, staircase_slacks,
)


@pytest.mark.parametrize("cols, padded", [
    (((1, 3),), False),
    (((3, 0), (2, 0), (2, 0)), True),
])
def test_classify_builds_one_eta_weight(monkeypatch, cols, padded):
    calls = []

    def counting(family, n, q):
        calls.append((family, n, q))
        return eta_weight(family, n, q)

    monkeypatch.setattr(spinclass, "eta_weight", counting)
    verdict = classify(pairs_to_param(StringPairs("D", cols)))
    assert verdict.status is Status.NON_UNITARY
    assert bool(verdict.normalized.moves) is padded
    assert calls == [("D", verdict.witness.group.rank, verdict.witness.q)]
    assert verdict.witness.weight == eta_weight("D", verdict.witness.group.rank, verdict.witness.q)


@pytest.mark.parametrize("cols, padded", [
    (((1, 3),), False),
    (((3, 0), (2, 0), (2, 0)), True),
])
def test_classify_lists_each_state_once(monkeypatch, cols, padded):
    calls = []

    def counting(family, columns):
        calls.append(family)
        return staircase_slacks(family, columns)

    monkeypatch.setattr(spinclass, "staircase_slacks", counting)
    monkeypatch.setattr(rewriter, "staircase_slacks", counting)
    verdict = classify(pairs_to_param(StringPairs("D", cols)))
    assert verdict.status is Status.NON_UNITARY
    moves = len(verdict.normalized.moves)
    assert bool(moves) is padded
    # the input's staircase test, then one list per padding round: a round
    # per move and a last one that finds nothing to pad
    assert len(calls) == 1 + moves + 1


def test_halves_are_fractions_inside_and_beyond_the_bound():
    far = [10 ** 6 + 1, -(10 ** 6) - 3, 10 ** 9, _HALVES_BOUND, -_HALVES_BOUND]
    doubled = [*range(-_HALVES_BOUND - 3, _HALVES_BOUND + 4), *far]
    halves = _halves(doubled)
    assert halves == tuple(Fraction(d, 2) for d in doubled)
    assert set(map(type, halves)) == {Fraction}


def test_halves_inside_the_bound_are_shared():
    inside = range(-_HALVES_BOUND + 1, _HALVES_BOUND)
    for first, again in zip(_halves(inside), _halves(reversed(inside))[::-1]):
        assert first is again


def test_half_table_stays_within_its_bound():
    _halves(range(-10 ** 6, 10 ** 6 + 1, 101))
    _halves([10 ** 6, -(10 ** 6), 10 ** 6 + 1])
    assert len(_HALF_OF) <= 2 * _HALVES_BOUND - 1
    assert all(-_HALVES_BOUND < d < _HALVES_BOUND for d in _HALF_OF)


def explicit_eta_weight(family, n, q):
    three_halves, half = Fraction(3, 2), Fraction(1, 2)
    if family == "D":
        last = Fraction(1, 2) if q % 2 == 0 else Fraction(-1, 2)
        return tuple([three_halves] * q + [half] * (n - q - 1) + [last])
    return tuple([three_halves] * q + [half] * (n - q))


def test_eta_weight_equals_explicit_fractions():
    for n in range(1, 9):
        for q in range(n):
            assert eta_weight("D", n, q) == explicit_eta_weight("D", n, q)
        for q in range(n + 1):
            assert eta_weight("B", n, q) == explicit_eta_weight("B", n, q)
        with pytest.raises(ValueError):
            eta_weight("D", n, n)
        with pytest.raises(ValueError):
            eta_weight("B", n, n + 1)
