"""The string-pair core and the front end of ``classify`` without per-entry
Fraction or Counter work, against copies of the code they replaced.

String extraction reads the runs off the multiplicity layers instead of a
greedy search, ``StringPairs`` validates its columns with C-level passes, ``dominantize`` permutes only the integer
form and builds its Fractions from the shared k/L table, ``_eta_witness_full`` places the
eta pattern on the mu = 1/2 block, ``WeylElement.identity`` is shared per
rank and ``vec`` returns a tuple of Fractions as it is.  The replaced
versions are kept here as references.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spindual.halfint import (
    HALF, _DENOMINATOR_BOUND, _RATIO_BOUND, _RATIO_TABLES, fmt_vec, scaled, vec,
)
from spindual.spinclass import (
    MalformedParameter, StringPairs, _eta_witness_full, _pairs_from_doubled,
    decompose_alpha_beta, eta_weight,
)
from spindual.weyl import DominantForm, GenuineParam, GroupTag, WeylElement, apply, dominantize


# ---------------------------------------------------------------------------
# the replaced implementations

def extract_runs_reference(doubled, anchor=None):
    counts = Counter(doubled)
    runs = []
    while counts:
        if anchor is not None:
            if anchor not in counts:
                break
            lo = anchor
            while lo - 4 in counts:
                lo -= 4
            hi = anchor
            while hi + 4 in counts:
                hi += 4
        else:
            best = None
            for v in sorted(counts, reverse=True):
                if v + 4 in counts:
                    continue
                lo = v
                while lo - 4 in counts:
                    lo -= 4
                if best is None or v - lo > best[0]:
                    best = (v - lo, v, lo)
            _, hi, lo = best
        for v in range(hi, lo - 1, -4):
            counts[v] -= 1
            if counts[v] == 0:
                del counts[v]
        runs.append((hi, lo))
    return runs, counts


def _halves_reference(doubled):
    return tuple(Fraction(d, 2) for d in doubled)


def _columns_reference(runs):
    return tuple(((top + 3) // 4, (1 - bottom) // 4) for top, bottom in runs)


def pairs_from_doubled_reference(family, doubled):
    """String pairs by greedy run extraction, or its MalformedParameter."""
    if family == "D":
        runs, _ = extract_runs_reference(doubled)
        for top, bottom in runs:
            if top < 1 or bottom > 1:
                run = _halves_reference(range(top, bottom - 1, -4))
                raise MalformedParameter(f"string {fmt_vec(run)} does not pass through 1/2")
        return StringPairs("D", _columns_reference(runs))
    betas, rest = extract_runs_reference(doubled, anchor=-3)
    alphas, rest = extract_runs_reference(rest, anchor=1)
    if rest:
        raise MalformedParameter(
            f"remaining values {fmt_vec(_halves_reference(sorted(rest.elements())))} "
            "contain no string ending at 1/2"
        )
    return StringPairs("B", _columns_reference(betas + alphas))


def decompose_alpha_beta_reference(n_half):
    betas, rest = extract_runs_reference([2 * v for v in n_half], anchor=-3)
    alpha = _halves_reference(sorted(rest.elements()))
    return alpha, tuple(_halves_reference(range(bottom, top + 1, 4)) for top, bottom in betas)


def string_pairs_reference(family, raw):
    """The ordered pairs StringPairs(family, raw) kept, or its exception."""
    if family not in ("B", "D"):
        raise ValueError("family must be 'B' or 'D'")
    columns = tuple((x, y) for x, y in raw)
    if not all(type(x) is int and type(y) is int for x, y in columns):
        raise TypeError(f"string-pair entries must be ints, not {columns}")
    pairs = tuple(columns)
    ordered = tuple(sorted(pairs, key=lambda c: (-c[0], -c[1])))
    ys = [y for _, y in ordered]
    if ys != sorted(ys, reverse=True):
        raise MalformedParameter(
            f"columns {pairs} admit no doubly non-increasing arrangement"
        )
    for x, y in ordered:
        if x < 0 or y < 0:
            raise MalformedParameter("negative string lengths")
        if family == "D" and x < 1:
            raise MalformedParameter("family D requires x_i >= 1")
        if x == 0 and y == 0:
            raise MalformedParameter("empty column")
    return ordered


def dominantize_reference(p):
    """The general path that permuted the Fractions and the integers alike."""
    n = p.group.rank
    L, mu, nu = p.integer_form
    signs = [-1 if m < 0 else 1 for m in mu]
    if p.group.family == "D" and signs.count(-1) % 2 == 1:
        j_min = min(range(n), key=lambda j: (abs(mu[j]), signs[j]))
        signs[j_min] = -signs[j_min]
    flipped_mu = [s * m for s, m in zip(signs, mu)]
    order = sorted(range(n), key=lambda j: -flipped_mu[j])
    perm = [0] * n
    out_signs = [1] * n
    for i, j in enumerate(order):
        perm[j] = i
        out_signs[i] = signs[j]
    w = WeylElement(tuple(perm), tuple(out_signs))
    outer = p.group.family == "D" and flipped_mu[order[-1]] < 0
    vectors = [apply(w, v) for v in (p.mu, p.nu, mu, nu)]
    if outer:
        vectors = [v[:-1] + (-v[-1],) for v in vectors]
    q = GenuineParam(p.group, *vectors[:2])
    assert q.integer_form == (L, *vectors[2:])
    return DominantForm(q, w, outer)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# string runs from the multiplicity layers

doubled_values = st.lists(st.integers(-6, 6).map(lambda k: 4 * k + 1), max_size=30)


@settings(max_examples=400, deadline=None)
@given(doubled_values)
@example([1, 1, -3, 5, -7, -7, 13])
@example([13, 5, 1, -3, -7, -7, -11])
@example([5, 5, 1, 9])
@example([-3, -3, -7, 1, 9, 13])
def test_layer_runs_match_greedy_reference(doubled):
    for family in "BD":
        got = _outcome(_pairs_from_doubled, family, doubled)
        assert got == _outcome(pairs_from_doubled_reference, family, doubled)
    n_half = _halves_reference(doubled)
    assert decompose_alpha_beta(n_half) == decompose_alpha_beta_reference(n_half)


# ---------------------------------------------------------------------------
# StringPairs validation

columns = st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4)), max_size=6)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from("BD"), columns)
@example("D", [(True, 0)])
@example("B", [(2, 1.0)])
@example("B", [(0, 0)])
@example("B", [(2, 0), (0, 1)])
@example("D", [(1, 2, 3)])
@example("D", [[2, 1], [1, 0]])
def test_string_pairs_match_reference(family, raw):
    got = _outcome(lambda: StringPairs(family, raw).pairs)
    assert got == _outcome(string_pairs_reference, family, raw)


def test_string_pairs_keep_shared_columns():
    small, large = StringPairs("D", ((3, 1), (40, 2))).pairs[::-1]
    assert small is StringPairs("B", ((3, 1),)).pairs[0]
    assert large == (40, 2)


# ---------------------------------------------------------------------------
# dominantize on integers, with the shared Fractions

rationals = st.builds(Fraction, st.integers(-15, 15), st.integers(1, 6))
half_odd = st.integers(-4, 3).map(lambda k: Fraction(2 * k + 1, 2))


@st.composite
def non_dominant_params(draw):
    family = draw(st.sampled_from("BD"))
    n = draw(st.integers(1, 8))
    values = half_odd if draw(st.booleans()) else rationals
    mu = draw(st.lists(values, min_size=n, max_size=n))
    assume(min(mu) < 0 or mu != sorted(mu, reverse=True))
    nu = draw(st.lists(rationals, min_size=n, max_size=n))
    return GenuineParam(GroupTag(family, n), mu, nu)


@settings(max_examples=500, deadline=None)
@given(non_dominant_params())
def test_dominantize_permutes_integers_and_reuses_fractions(p):
    dom = dominantize(p)
    q0 = dom.param
    expected = [apply(dom.weyl, v) for v in (p.mu, p.nu)]
    if dom.outer_applied:
        expected = [v[:-1] + (-v[-1],) for v in expected]
    assert (q0.mu, q0.nu) == tuple(expected)
    L, ints = scaled(q0.mu + q0.nu)
    assert q0.integer_form == (L, ints[:p.group.rank], ints[p.group.rank:])
    assert dom == dominantize_reference(p)
    # entries inside the bounds of the shared k/L table are its objects
    if L < _DENOMINATOR_BOUND:
        table = _RATIO_TABLES[L]
        for k, v in zip(ints, q0.mu + q0.nu):
            assert (v is table[k]) or not -_RATIO_BOUND < k < _RATIO_BOUND


# ---------------------------------------------------------------------------
# unit tests

@pytest.mark.parametrize("family", "BD")
def test_eta_witness_full_past_position_zero(family):
    group = GroupTag(family, 9)
    mu = (Fraction(7, 2), Fraction(5, 2), Fraction(3, 2)) + (HALF,) * 6
    start, stop = 3, 9
    qs = range(0, 6) if family == "D" else range(0, 7)
    for q in qs:
        wit = _eta_witness_full(mu, start, group, q)
        shift = [Fraction(0)] * start + [e - Fraction(1, 2)
                                         for e in eta_weight(family, stop - start, q)]
        assert wit.weight == tuple(m + s for m, s in zip(mu, shift))
        assert (wit.q, wit.group) == (q, group)
        assert all(type(v) is Fraction for v in wit.weight)
        if family == "D" and q % 2 == 1:
            assert wit.weight[-1] == Fraction(-1, 2)
    with pytest.raises(ValueError):
        _eta_witness_full(mu, start, group, qs.stop)


def test_identity_is_shared_per_rank():
    for n in (1, 2, 7, 2000):
        assert WeylElement.identity(n) is WeylElement.identity(n)
        assert WeylElement.identity(n) == WeylElement(tuple(range(n)), (1,) * n)
    assert WeylElement.identity(3) != WeylElement.identity(4)


def test_vec_returns_fraction_tuples_as_they_are_and_coerces_the_rest():
    t = (Fraction(1, 2), Fraction(-3))
    assert vec(t) is t
    assert vec(()) == ()
    assert vec([Fraction(1, 2)]) == (Fraction(1, 2),)
    assert vec((1, "-3/2", Fraction(5, 2))) == (Fraction(1), Fraction(-3, 2), Fraction(5, 2))
    assert vec(Fraction(k, 2) for k in (1, 3)) == (Fraction(1, 2), Fraction(3, 2))
    assert vec(str(k) for k in (1, -2)) == (Fraction(1), Fraction(-2))
    for bad in ((True,), (Fraction(1, 2), False), (0.5,), (Fraction(1), 1.0)):
        with pytest.raises(TypeError):
            vec(bad)
