"""Tests for the GL chain classification."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spindual.glclass import (
    CompParams, GLStatus, SteinPair, TrivialString, _layers, _multiplicity_layers,
    _signed_classes, classify_gl, classify_gl_genuine_block, comp_nu,
)
from spindual.halfint import scaled, vec

F = Fraction
H = F(1, 2)


def fr(*xs):
    return tuple(F(x) if isinstance(x, int) else F(*x) for x in xs)


def halves(*numerators):
    return tuple(F(n, 2) for n in numerators)


# ---------------------------------------------------------------------------
# chain decomposition

def layer_chains(nu, signs=None):
    """The chains of nu as (twist, values) tuples: the layers of
    ``_layers`` mapped back to Fractions, on the classes that the public
    classifiers build (``_signed_classes``)."""
    L, ints = scaled(vec(nu))
    signs = (1,) * len(ints) if signs is None else tuple(signs)
    classes = _signed_classes(L, ints, signs)
    return tuple((s, tuple(F(v, L) for v in layer)) for s, layer in _layers(classes))


def _brute_chains(values):
    """Independent oracle: repeatedly take the longest valid subsequence,
    ties resolved by largest top value then lexicographically largest."""
    values = sorted(values, reverse=True)
    chains = []
    while values:
        best = None
        n = len(values)
        for mask in range(1, 1 << n):
            sub = [values[i] for i in range(n) if mask >> i & 1]
            ok = all(
                a - b in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
                for a, b in zip(sub, sub[1:])
            )
            if ok:
                key = (len(sub), tuple(sub))
                if best is None or key > best[0]:
                    best = (key, mask)
        _, mask = best
        chain = [values[i] for i in range(len(values)) if mask >> i & 1]
        chains.append(tuple(chain))
        values = [values[i] for i in range(len(values)) if not mask >> i & 1]
    return chains


def test_decompose_examples():
    got = layer_chains(fr(6, 4, 2, 0))
    assert [c for _, c in got] == [fr(6, 4, 2, 0)]
    got = layer_chains(halves(9, 5, 5, 1, 1, -3, -7))
    assert [c for _, c in got] == [halves(9, 5, 1, -3, -7), halves(5, 1)]
    got = layer_chains(fr(0))
    assert [c for _, c in got] == [fr(0)]


def test_decompose_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 8)
        parity = rng.choice((0, 1))
        values = [F(2 * rng.randint(-3, 3) + parity) for _ in range(n)]
        got = [c for _, c in layer_chains(values)]
        want = _brute_chains(values)
        assert sorted(got) == sorted(want), values
        # concatenation invariant and validity
        flat = sorted(v for c in got for v in c)
        assert flat == sorted(values)


def test_comp_nu():
    assert comp_nu(2, H) == (F(3, 2), -H)
    assert comp_nu(1, 0) == (F(0),)
    assert comp_nu(3, -H) == (F(3, 2), -H, F(-5, 2))
    with pytest.raises(ValueError, match="positive"):
        comp_nu(0, H)
    with pytest.raises(ValueError, match="positive"):
        CompParams(0, H)


# ---------------------------------------------------------------------------
# spherical classification

def stein_input(a, t):
    nu = comp_nu(a, t)
    return nu + tuple(-v for v in nu)


def test_classify_stein_pair():
    v = classify_gl(stein_input(2, H))
    assert v.status is GLStatus.UNITARY_FACTORS
    assert v.factors == (SteinPair(2, H, 1),)


def test_classify_bad_deformation():
    v = classify_gl(stein_input(2, F(3, 2)))
    assert v.status is GLStatus.NON_UNITARY
    assert v.witness == (1, 1, -1, -1) and v.q == 2


def test_classify_dirac_gap():
    v = classify_gl(fr(2, -2))
    assert v.status is GLStatus.NON_UNITARY
    assert v.witness == (1, -1) and v.q == 1
    v = classify_gl(fr(4, 0, 0, -4))
    assert v.status is GLStatus.NON_UNITARY and v.q == 1


def test_classify_trivial_strings():
    v = classify_gl(fr(2, 0, -2))
    assert v.status is GLStatus.UNITARY_FACTORS
    assert v.factors == (TrivialString(3, 1),)
    v = classify_gl(fr(1, -1, 1, -1))
    assert v.factors == (TrivialString(2, 1), TrivialString(2, 1))


def test_classify_not_hermitian():
    assert classify_gl(fr(3, 1)).status is GLStatus.NOT_HERMITIAN


def test_classify_invariance():
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randint(1, 4)
        t = F(rng.randint(-12, 12), rng.choice((2, 4)))
        nu = list(stein_input(a, t))
        v0 = classify_gl(nu)
        rng.shuffle(nu)
        assert classify_gl(nu).status == v0.status
        assert classify_gl([-x for x in nu]).status == v0.status


def test_stein_boundary_exactness():
    # |t| < 1 accepted; |t| = 1 is the reducible endpoint, never a factor
    for denom in (2, 3, 5, 7):
        t = 1 - F(1, denom)
        v = classify_gl(stein_input(3, t))
        assert v.status is GLStatus.UNITARY_FACTORS
        assert v.factors == (SteinPair(3, t, 1),)
    cp = CompParams(3, F(1))
    assert not cp.is_stein
    assert CompParams(3, F(99, 100)).is_stein
    # the endpoint multiset re-decomposes into strings of unequal lengths
    v = classify_gl(stein_input(2, F(1)))
    assert v.status is GLStatus.UNITARY_FACTORS
    assert sorted(f.a for f in v.factors) == [1, 3]


def test_every_stein_pair_matches_comp_nu():
    rng = random.Random(31)
    for _ in range(60):
        a = rng.randint(1, 5)
        t = F(rng.randint(-3, 3), 4)
        v = classify_gl(stein_input(a, t))
        if t == 0:
            continue
        assert v.status is GLStatus.UNITARY_FACTORS
        (f,) = v.factors
        pair = sorted(comp_nu(f.a, f.t) + tuple(-x for x in comp_nu(f.a, f.t)))
        assert pair == sorted(stein_input(a, t))


# ---------------------------------------------------------------------------
# genuine blocks

def test_genuine_block_examples():
    # centered string of constant twist: a unitary character factor
    v = classify_gl_genuine_block([(F(1), 1), (F(-1), 1)])
    assert v.status is GLStatus.UNITARY_FACTORS
    assert v.factors == (TrivialString(2, 1),)
    # a quarter-shift pair
    v = classify_gl_genuine_block([(F(1, 4), 1), (F(-1, 4), 1)])
    assert v.factors == (SteinPair(1, F(1, 4), 1),)
    # centered string of length three, one twist: still a unitary character
    v = classify_gl_genuine_block([(F(2), 1), (F(0), 1), (F(-2), 1)])
    assert v.status is GLStatus.UNITARY_FACTORS
    assert v.factors == (TrivialString(3, 1),)


def test_genuine_block_mixed_twist_pairing():
    # chains pair only at matching twist
    v = classify_gl_genuine_block(
        [(F(3, 4), 1), (F(-3, 4), 1), (F(1, 4), -1), (F(-1, 4), -1)]
    )
    assert v.status is GLStatus.UNITARY_FACTORS
    assert sorted((f.a, f.twist) for f in v.factors) == [(1, -1), (1, 1)]
    v = classify_gl_genuine_block([(F(1, 4), 1), (F(-1, 4), -1)])
    assert v.status is GLStatus.NOT_HERMITIAN


_signed_values = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 4))),
        st.sampled_from((1, -1)),
    ),
    min_size=1, max_size=7,
)


@settings(max_examples=400, deadline=None)
@given(half=_signed_values, twisted=st.booleans())
def test_symmetric_chains_pair_off(half, twisted):
    """On symmetric input every layer with a nonzero sum meets its negation,
    at the same twist and multiplicity, and no such step-2 string has an
    integer center.

    The chains are the multiplicity layers of each (residue, twist) class,
    and negation maps the layers of one class onto those of its mate class;
    an integer center would make the class its own mate and the chain
    centered.  So the chain classifier always finds a partner, and a pair
    outside Stein's range is never at an integer deformation.
    """
    signed = half + [(-v, s) for v, s in half]
    if not twisted:
        signed = [(v, 1) for v, _ in signed]
    values = [v for v, _ in signed]
    moving = [(s, c) for s, c in layer_chains(values, [s for _, s in signed]) if sum(c)]
    assert Counter(moving) == Counter((s, tuple(-v for v in reversed(c))) for s, c in moving)
    assert not any((sum(c) / len(c)).denominator == 1 for _, c in moving
                   if all(a - b == 2 for a, b in zip(c, c[1:])))
    verdicts = [classify_gl_genuine_block(signed)]
    if not twisted:
        verdicts.append(classify_gl(values))
    for v in verdicts:
        assert v.status in (GLStatus.UNITARY_FACTORS, GLStatus.NON_UNITARY), v


def test_genuine_block_bad_shift():
    v = classify_gl_genuine_block(
        [(F(9, 4), 1), (F(-9, 4), 1)]
    )
    assert v.status is GLStatus.NON_UNITARY and v.q == 1


def test_genuine_block_rejects_boolean_twists():
    # True == 1, but a bool is not a twist
    with pytest.raises(ValueError, match="twists must be"):
        classify_gl_genuine_block([(F(1), True), (F(-1), True)])


# ---------------------------------------------------------------------------
# the layer rule

def multiplicity_layers_reference(values):
    """The k-th layer: the distinct values of multiplicity >= k, descending."""
    counts = Counter(values)
    top = max(counts.values(), default=0)
    return [sorted((v for v, c in counts.items() if c >= k), reverse=True)
            for k in range(1, top + 1)]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 17, 100, 640, 2000])
def test_multiplicity_layers_match_counter_reference(size):
    rng = random.Random(f"layers:{size}")
    # spreads from all-equal to mostly distinct values
    for spread in (1, 2, max(size // 8, 1), size, 4 * size + 1):
        values = [rng.randint(-spread, spread) for _ in range(size)]
        assert _multiplicity_layers(values) == multiplicity_layers_reference(values)
    distinct = rng.sample(range(-3 * size, 3 * size + 1), size)
    assert _multiplicity_layers(distinct) == multiplicity_layers_reference(distinct)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=60))
def test_multiplicity_layers_match_counter_reference_drawn(values):
    assert _multiplicity_layers(values) == multiplicity_layers_reference(values)


def test_multiplicity_layers_without_the_c_count(monkeypatch):
    """Where _collections has no C _count_elements, collections keeps the
    one it defines in Python; glclass imports that one and counts alike."""
    import _collections
    import collections
    import importlib.util
    import sys
    import spindual.glclass

    def load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    # second copies of both modules, so the ones every other module holds are
    # untouched; each patch lasts only while a copy imports
    with monkeypatch.context() as m:
        m.delattr(_collections, "_count_elements", raising=False)
        pure = load("spindual._collections_without_c_count", collections.__file__)
    assert pure._count_elements is not collections._count_elements
    with monkeypatch.context() as m:
        m.setattr(collections, "_count_elements", pure._count_elements)
        module = load("spindual._glclass_without_c_count", spindual.glclass.__file__)
    assert module._count_elements is pure._count_elements
    assert module._count_elements is not spindual.glclass._count_elements
    rng = random.Random("layers:fallback")
    for size in (0, 1, 7, 300):
        values = [rng.randint(-size // 3, size // 3) for _ in range(size)]
        assert module._multiplicity_layers(values) == multiplicity_layers_reference(values)
