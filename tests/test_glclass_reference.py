"""The integer GL classifier against the Fraction reference.

``classify_gl`` and ``classify_gl_genuine_block`` scale a block once to
integers and run ``_classify_scaled``: a symmetry test, then
``_classify_symmetric``, which ``classify`` calls directly on the residue
classes of a parameter's integer form, split and tested for symmetry per
mu-block.  It takes the chains as integer layers and lets the chain with positive center
stand for each dual pair.  The
Fraction implementation it replaced is kept here as the oracle: Fraction
symmetry checks, chains as (twist, Fraction values) tuples, and each chain's
mate, its negation, found in a pool.  Hypothesis checks that both give equal
verdicts: status, factors, witness, q and reason.
"""

import importlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spindual.glclass import (
    GLStatus, GLVerdict, SteinPair, TrivialString, _classify_scaled,
    _classify_symmetric, classify_gl, classify_gl_genuine_block, comp_nu,
)
from spindual.halfint import fmt, fmt_vec, scaled, vec
from spindual import spinclass
from spindual.spinclass import Status
from spindual.weyl import GenuineParam, GroupTag
from tests.test_front_end import decompose_chains_reference

BENCH = Path(__file__).resolve().parents[1] / "bench"


# ---------------------------------------------------------------------------
# the Fraction reference

def _shift(n, q):
    return (1,) * q + (0,) * (n - 2 * q) + (-1,) * q


def classify_chain_system_reference(chains, n):
    for _, values in chains:
        if any(a - b != 2 for a, b in zip(values, values[1:])):
            return GLVerdict(
                GLStatus.NON_UNITARY, witness=_shift(n, 1), q=1,
                reason=f"chain {fmt_vec(values)} has a gap larger than 2",
            )
    pool = list(chains)
    factors = []
    while pool:
        sign, values = pool.pop(0)
        a = len(values)
        center = sum(values, Fraction(0)) / a
        if center == 0:
            factors.append(TrivialString(a, sign))
            continue
        pool.remove((sign, tuple(-v for v in reversed(values))))
        t = max(center, -center)
        if abs(t) < 1:
            factors.append(SteinPair(a, t, sign))
            continue
        q = abs(t).__floor__()
        qw = a - q + 1 if q <= a else 1
        return GLVerdict(
            GLStatus.NON_UNITARY, witness=_shift(n, qw), q=qw,
            reason=f"deformation pair of size {a} at |t|={fmt(abs(t))} outside the unitary range",
        )
    order = {TrivialString: 0, SteinPair: 1}
    factors.sort(key=lambda f: (order[type(f)], -f.a))
    return GLVerdict(GLStatus.UNITARY_FACTORS, factors=tuple(factors))


def classify_gl_reference(nu):
    nu = tuple(nu)
    if sorted(nu) != sorted(-v for v in nu):
        return GLVerdict(GLStatus.NOT_HERMITIAN, reason="nu is not symmetric under negation")
    chains = decompose_chains_reference(nu, (1,) * len(nu))
    return classify_chain_system_reference(chains, len(nu))


def classify_gl_genuine_block_reference(signed_nu):
    values = tuple(v for v, _ in signed_nu)
    signs = tuple(s for _, s in signed_nu)
    if sorted(zip(values, signs)) != sorted(zip((-v for v in values), signs)):
        return GLVerdict(GLStatus.NOT_HERMITIAN, reason="signed nu is not symmetric under negation")
    chains = decompose_chains_reference(values, signs)
    return classify_chain_system_reference(chains, len(values))


# ---------------------------------------------------------------------------
# strategies: denominators 1-6, strings, deformation pairs inside and outside
# Stein's range, chains with wide gaps, one or two twists

twists = st.sampled_from((1, -1))
denominators = st.integers(1, 6)


@st.composite
def deformations(draw):
    """Half of comp(a, t) + comp(a, -t), with 0 < |t| < 1 or |t| > 1."""
    den = draw(denominators)
    num = draw(st.integers(1, 3 * den).filter(lambda k: k != den))
    sign = draw(st.sampled_from((1, -1)))
    return comp_nu(draw(st.integers(1, 3)), Fraction(sign * num, den))


@st.composite
def wide_gaps(draw):
    """A run with a gap of 4 or more: not a string."""
    top = Fraction(draw(st.integers(-12, 12)), draw(denominators))
    return (top, top - 2 * draw(st.integers(2, 3)))


pieces = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), denominators).map(lambda v: (v,)),
    st.integers(1, 3).map(lambda a: comp_nu(a, 0)),
    deformations(),
    wide_gaps(),
)


@st.composite
def signed_blocks(draw):
    """(value, twist) pairs: a half and its negation, or (when asymmetric)
    the negation with its first entry dropped."""
    half = []
    for piece in draw(st.lists(pieces, min_size=1, max_size=4)):
        s = draw(twists) if draw(st.booleans()) else 1
        half += [(v, s) for v in piece]
    mirror = [(-v, s) for v, s in half]
    if draw(st.integers(0, 3)) == 0:
        mirror = mirror[1:]
    signed = half + mirror
    return draw(st.permutations(signed))


@settings(max_examples=600, deadline=None)
@given(signed_blocks())
def test_classify_gl_genuine_block_matches_reference(signed):
    assert classify_gl_genuine_block(signed) == classify_gl_genuine_block_reference(signed)


@settings(max_examples=600, deadline=None)
@given(signed_blocks())
def test_classify_gl_matches_reference(signed):
    nu = [v for v, _ in signed]
    got, want = classify_gl(nu), classify_gl_reference(nu)
    if want.status is GLStatus.NOT_HERMITIAN:
        # the reason now names the signed block that classify_gl runs
        assert got == GLVerdict(GLStatus.NOT_HERMITIAN, reason=got.reason)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(signed_blocks(), st.integers(2, 6))
def test_any_common_multiple_classifies_alike(signed, k):
    # classify passes blocks scaled by the parameter's L, a multiple of the
    # block's least common denominator
    L, ints = scaled(vec(v for v, _ in signed))
    signs = [s for _, s in signed]
    assert _classify_scaled(k * L, [k * v for v in ints], signs) \
        == classify_gl_genuine_block(signed)


def test_classify_reaches_both_block_kinds(monkeypatch):
    """The 800 ``mixed_blocks`` parameters of seed 1 reach the integer GL
    classifier with both kinds of block, each closed under (value, twist)
    negation, and give both statuses.  Each class handed to the classifier
    is one residue class at one twist, descending."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    calls = []

    def counted(L, classes):
        classes = list(classes)
        calls.append(len(classes))
        for s, ints in classes:
            assert s in (1, -1) and ints == sorted(ints, reverse=True)
            assert len({v % (2 * L) for v in ints}) == 1
        ints = [v for _, vs in classes for v in vs]
        twists = [s for s, vs in classes for _ in vs]
        assert sorted(zip(ints, twists)) == sorted(zip((-v for v in ints), twists))
        return _classify_symmetric(L, classes)

    monkeypatch.setattr(spinclass, "_classify_symmetric", counted)
    statuses = Counter()
    kinds = Counter()
    for family, mu, nu in workloads.gen_mixed_blocks(None, 1):
        calls.clear()
        v = spinclass.classify(GenuineParam(GroupTag(family, len(mu)), mu, nu))
        statuses[v.status] += 1
        # one gl_block event per classified block of mu-value > 1/2; the
        # other calls are the residue-class blocks of the mu = 1/2 block
        gl = sum(e.stage == "gl_block" for e in v.chain)
        assert len(calls) >= gl
        kinds["mu > 1/2"] += gl
        kinds["residue class"] += len(calls) - gl
    assert kinds["mu > 1/2"] > 0 and kinds["residue class"] > 0
    assert statuses[Status.UNITARY] > 0 and statuses[Status.NON_UNITARY] > 0
