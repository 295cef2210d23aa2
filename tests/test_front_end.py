"""The integer front end of ``classify`` against the Fraction reference.

``dominantize``, ``hermitian_witness``, ``partition_nt`` and the chain
layers of ``glclass._layers`` work on vectors scaled to integers by their
least common denominator.  The Fraction implementations they replaced are
kept here as oracles, and hypothesis checks that both return equal results,
including ``None`` and the ``ValueError`` on non-dominant mu; for
``hermitian_witness``, which may return another w, equal results are the
same ``None`` answers.  ``classify``
decides Hermitian symmetry per mu-block without building a Weyl element:
it splits each mu-block into residue classes once and tests it class by
class, and agrees with ``hermitian_witness`` on the dominant form and with
the whole-block test that nu is closed under negation.  It reads the
dominant form through ``weyl._dominant``, which builds no element either.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spindual import spinclass
from spindual.spinclass import (
    Status, StringPairs, _grouped_classes, _partition_scaled, classify, pairs_to_param,
    partition_nt,
)
from spindual.weyl import (
    DimensionError, DominantForm, GenuineParam, GroupTag, WeylElement, apply,
    dominantize, hermitian_witness, _dominant, _mu_blocks,
)
from tests.test_glclass import layer_chains
from tests.test_weyl import assert_hermitian_witness


# ---------------------------------------------------------------------------
# the Fraction reference implementations

def residue_mod2(v):
    """The representative of v mod 2Z lying in (-1, 1]."""
    k = -((1 - v) // 2)  # ceil((v-1)/2)
    return v - 2 * k


def dominantize_reference(p):
    n = p.group.rank
    signs = [1] * n
    for j, m in enumerate(p.mu):
        if m < 0:
            signs[j] = -1
    outer = False
    if p.group.family == "D":
        if sum(1 for s in signs if s == -1) % 2 == 1:
            j_min = min(range(n), key=lambda j: (abs(p.mu[j]), signs[j]))
            signs[j_min] = -signs[j_min]
    flipped_mu = [s * m for s, m in zip(signs, p.mu)]
    order = sorted(range(n), key=lambda j: (-flipped_mu[j],))
    perm = [0] * n
    out_signs = [1] * n
    for i, j in enumerate(order):
        perm[j] = i
        out_signs[i] = signs[j]
    w = WeylElement(tuple(perm), tuple(out_signs))
    mu2 = apply(w, p.mu)
    nu2 = apply(w, p.nu)
    if p.group.family == "D" and mu2[-1] < 0:
        mu2 = mu2[:-1] + (-mu2[-1],)
        nu2 = nu2[:-1] + (-nu2[-1],)
        outer = True
    return DominantForm(GenuineParam(p.group, mu2, nu2), w, outer)


def hermitian_witness_reference(p):
    n = p.group.rank
    if list(p.mu) != sorted(p.mu, reverse=True):
        raise ValueError("hermitian_witness expects dominant mu")
    perm = [None] * n
    signs = [1] * n
    flips = 0
    free_parity_slot = None
    for value, start, stop in _mu_blocks(p.mu):
        by_value = {}
        for i in range(start, stop):
            by_value.setdefault(p.nu[i], []).append(i)
        if value != 0:
            for v, positions in by_value.items():
                mates = by_value.get(-v, [])
                if len(mates) != len(positions):
                    return None
                for i, j in zip(positions, mates):
                    perm[j] = i
        else:
            done = set()
            for v, positions in by_value.items():
                if v in done:
                    continue
                done.add(v)
                if v == 0:
                    for i in positions:
                        perm[i] = i
                    free_parity_slot = positions[0]
                    continue
                done.add(-v)
                mates = by_value.get(-v, [])
                k = min(len(positions), len(mates))
                for i, j in zip(positions[:k], mates[:k]):
                    perm[j] = i
                    perm[i] = j
                for i in positions[k:] + mates[k:]:
                    perm[i] = i
                    signs[i] = -1
                    flips += 1
    if p.group.family == "D" and flips % 2 == 1:
        if free_parity_slot is None:
            return None
        signs[free_parity_slot] *= -1
    w = WeylElement(tuple(perm), tuple(signs))
    assert apply(w, p.mu) == p.mu and apply(w, p.nu) == tuple(-x for x in p.nu)
    return w


def partition_nt_reference(nu):
    classes = {}
    for v in nu:
        classes.setdefault(residue_mod2(v), []).append(v)
    return {t: tuple(sorted(vals, reverse=True)) for t, vals in classes.items()}


def decompose_chains_reference(nu, signs):
    """The chains as (twist, values) tuples, longest first."""
    groups = {}
    for v, s in zip(nu, signs):
        groups.setdefault((residue_mod2(v), s), []).append(v)
    chains = []
    for (_, s), values in groups.items():
        counts = Counter(values)
        k = 1
        while True:
            layer = sorted((v for v, c in counts.items() if c >= k), reverse=True)
            if not layer:
                break
            chains.append((s, tuple(layer)))
            k += 1
    chains.sort(key=lambda c: (-len(c[1]), tuple(-v for v in c[1])))
    return tuple(chains)


# ---------------------------------------------------------------------------
# strategies: ranks 1-8, denominators 1-6, genuine and non-genuine mu

rationals = st.builds(Fraction, st.integers(-15, 15), st.integers(1, 6))
half_odd = st.integers(-4, 3).map(lambda k: Fraction(2 * k + 1, 2))


@st.composite
def params(draw, dominant=False):
    family = draw(st.sampled_from("BD"))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        mu = draw(st.lists(half_odd, min_size=n, max_size=n))
        if family == "D" and draw(st.booleans()) and sum(m < 0 for m in mu) % 2 == 0:
            # an odd number of negative entries needs the diagram flip
            mu[0] = -mu[0]
    else:
        # a small pool of values, so that mu has runs of equal and zero entries
        pool = draw(st.lists(rationals, min_size=1, max_size=3)) + [Fraction(0)]
        mu = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if dominant:
        mu.sort(reverse=True)
    if draw(st.booleans()):
        nu = draw(hermitian_nu(mu))
    else:
        nu = draw(st.lists(rationals, min_size=n, max_size=n))
    return GenuineParam(GroupTag(family, n), mu, nu)


@st.composite
def hermitian_nu(draw, mu):
    """nu whose restriction to each run of equal mu is symmetric under
    negation, except for entries on zero mu, which a flip can negate."""
    nu = []
    start = 0
    while start < len(mu):
        stop = start
        while stop < len(mu) and mu[stop] == mu[start]:
            stop += 1
        size = stop - start
        values = []
        for v in draw(st.lists(rationals, max_size=size // 2)):
            values += [v, -v]
        while len(values) < size:
            values.append(draw(rationals) if mu[start] == 0 else Fraction(0))
        nu += draw(st.permutations(values))
        start = stop
    return nu


# ---------------------------------------------------------------------------
# the integer front end equals the reference

@settings(max_examples=400, deadline=None)
@given(params())
def test_dominantize_matches_reference(p):
    assert dominantize(p) == dominantize_reference(p)


@settings(max_examples=300, deadline=None)
@given(params())
def test_classify_dominant_twin_matches_dominantize(p):
    # classify reads the parameter and the outer flag and builds no element
    q, outer, moved = _dominant(p)
    dom = dominantize(p)
    assert (q, outer) == (dom.param, dom.outer_applied)
    if moved is None:
        assert q is p and dom.weyl == WeylElement.identity(p.group.rank)
    else:
        assert WeylElement(*moved) == dom.weyl


def nonnegative_conjugate(p):
    """p conjugated to mu >= 0: negate the entries of negative mu, then sort
    by mu.  A w exists for p exactly when one exists for this conjugate, on
    which the reference's per-mu-block matching finds it.  On p itself the
    reference misses a w that exchanges a block a with its mirror -a, such as
    the double flip of D2 mu = (1/2, -1/2), nu = (1, 1)."""
    rows = sorted(((abs(m), -v if m < 0 else v) for m, v in zip(p.mu, p.nu)),
                  key=lambda row: row[0], reverse=True)
    return GenuineParam(p.group, [m for m, _ in rows], [v for _, v in rows])


def check_witness_against_reference(p):
    """``hermitian_witness`` returns None exactly when the reference does,
    on p when no mu-block has its mirror and on the conjugate with mu >= 0
    always; a w it returns fixes mu, negates nu, is an involution and in
    family D flips an even number of signs."""
    w = hermitian_witness(p)
    if not any(m < 0 and -m in p.mu for m in p.mu):
        assert (w is None) == (hermitian_witness_reference(p) is None)
    assert (w is None) == (hermitian_witness_reference(nonnegative_conjugate(p)) is None)
    if w is not None:
        assert_hermitian_witness(p, w)


@settings(max_examples=400, deadline=None)
@given(params(dominant=True))
@example(GenuineParam(GroupTag("D", 2), (Fraction(1, 2), Fraction(-1, 2)), (1, 1)))
def test_hermitian_witness_matches_reference(p):
    check_witness_against_reference(p)


@settings(max_examples=200, deadline=None)
@given(params())
def test_hermitian_witness_on_dominant_form_and_non_dominant_mu(p):
    check_witness_against_reference(dominantize(p).param)
    if list(p.mu) != sorted(p.mu, reverse=True):
        for fn in (hermitian_witness, hermitian_witness_reference):
            with pytest.raises(ValueError, match="expects dominant mu"):
                fn(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=16))
def test_partition_nt_matches_reference(nu):
    got = partition_nt(nu)
    want = partition_nt_reference(tuple(nu))
    assert list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(rationals, st.sampled_from((1, -1))), max_size=16),
       st.booleans())
def test_decompose_chains_matches_reference(signed, symmetric):
    if symmetric:
        signed += [(-v, s) for v, s in signed]
    nu = tuple(v for v, _ in signed)
    signs = tuple(s for _, s in signed)
    assert layer_chains(nu, signs) == decompose_chains_reference(nu, signs)
    assert layer_chains(nu) == decompose_chains_reference(nu, (1,) * len(nu))


def test_apply_keeps_entry_type():
    w = WeylElement((2, 0, 1), (-1, 1, -1))
    out = apply(w, (3, -5, 7))
    assert out == (5, 7, -3)
    assert all(type(x) is int for x in out)
    assert apply(w, (Fraction(1, 2), 0, 1)) == (0, 1, Fraction(-1, 2))
    with pytest.raises(DimensionError):
        apply(w, (1, 2))


# ---------------------------------------------------------------------------
# classify's Hermitian test and dominantize's dominant input

@st.composite
def genuine_params(draw, hermitian=False):
    """Genuine parameters with several mu-blocks: nu symmetric per block,
    symmetric overall only, or drawn from a small pool (repeated values);
    half of them moved off dominance by a signed permutation.  With
    ``hermitian``, nu is symmetric per block (the Hermitian ones) and mu has
    a 1/2 block."""
    family = draw(st.sampled_from("BD"))
    values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    if hermitian and 0 not in values:
        values.append(0)
    mu = []
    for k in sorted(values, reverse=True):
        mu += [Fraction(2 * k + 1, 2)] * draw(st.integers(1, 4))
    n = len(mu)
    kind = "per block" if hermitian else draw(st.sampled_from(("per block", "overall", "pool")))
    if kind == "per block":
        nu = draw(hermitian_nu(mu))
    elif kind == "overall":
        half = draw(st.lists(rationals, min_size=n // 2, max_size=n // 2))
        nu = draw(st.permutations(half + [-v for v in half] + [Fraction(0)] * (n % 2)))
    else:
        pool = draw(st.lists(rationals, min_size=1, max_size=3))
        nu = draw(st.lists(st.sampled_from(pool + [-v for v in pool]), min_size=n, max_size=n))
    p = GenuineParam(GroupTag(family, n), mu, nu)
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        w = WeylElement(tuple(draw(st.permutations(range(n)))), tuple(signs))
        p = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
    return p


@settings(max_examples=400, deadline=None)
@given(genuine_params())
@example(GenuineParam(GroupTag("D", 2), (Fraction(3, 2), Fraction(1, 2)), (1, -1)))
@example(GenuineParam(GroupTag("B", 2), (Fraction(3, 2), Fraction(1, 2)), (1, -1)))
def test_classify_not_hermitian_iff_no_witness(p):
    assert p.is_genuine()
    no_witness = hermitian_witness(dominantize(p).param) is None
    assert (classify(p).status is Status.NOT_HERMITIAN) == no_witness


# the places where a drawn mu = 1/2 block may fail negation, each with the
# residue t of its values: the +-1/2 core, a GL class t and its mate -t, and
# the self-paired classes t = 1 and t = 0
HALF_BLOCK_PLACES = {"core": Fraction(1, 2), "gl": Fraction(1, 3), "one": Fraction(1),
                     "zero": Fraction(0)}


@st.composite
def half_blocks(draw):
    """(family, nu, place): the nu of a mu = 1/2 block, closed under negation
    in every residue class pair but, when ``place`` is not None, that one.
    Each place holds values t + 2k and their negations; the failing place
    has one value moved by +-2 within its class, or one unpaired value."""
    family = draw(st.sampled_from("BD"))
    parts = {}
    for place, t in HALF_BLOCK_PLACES.items():
        values = [t + 2 * k for k in draw(st.lists(st.integers(-2, 2), max_size=3))]
        parts[place] = values + [-v for v in values]
    place = draw(st.sampled_from((None, *HALF_BLOCK_PLACES)))
    if place is not None:
        values = parts[place]
        if values and draw(st.booleans()):
            i = draw(st.integers(0, len(values) - 1))
            values[i] += draw(st.sampled_from((2, -2)))
        else:
            values.append(HALF_BLOCK_PLACES[place] + 2)
    nu = [v for values in parts.values() for v in values]
    assume(nu)
    return family, draw(st.permutations(nu)), place


@settings(max_examples=400, deadline=None)
@given(half_blocks())
def test_classify_tests_the_half_block_class_by_class(drawn):
    """``classify`` decides the Hermitian symmetry of the mu = 1/2 block on
    its residue classes; it agrees with the whole-block reference."""
    family, nu, place = drawn
    symmetric = sorted(nu) == sorted(-v for v in nu)
    assert symmetric is (place is None)
    p = GenuineParam(GroupTag(family, len(nu)), (Fraction(1, 2),) * len(nu), nu)
    assert (classify(p).status is Status.NOT_HERMITIAN) is not symmetric


@pytest.mark.parametrize("family, nu", [
    ("D", "1/2 -1/2 1/3 1/3"),      # a GL class
    ("B", "5/2 1/2 -1/2"),          # the +-1/2 core
    ("B", "1 1 1/2 -1/2"),          # the class t = 1
    ("D", "0 1 1/2 -1/2"),          # t = 0 next to t = 1
])
def test_half_block_asymmetric_in_one_place(family, nu):
    nu = [Fraction(v) for v in nu.split()]
    p = GenuineParam(GroupTag(family, len(nu)), (Fraction(1, 2),) * len(nu), nu)
    assert classify(p).status is Status.NOT_HERMITIAN
    assert hermitian_witness(p) is None


@settings(max_examples=400, deadline=None)
@given(genuine_params(hermitian=True))
def test_grouped_classes_are_closed_under_negation(p):
    """On a Hermitian parameter every GL block that ``_grouped_classes``
    forms from the mu = 1/2 block is closed under (value, twist) negation:
    negation maps the class t to the class -t, which joins the same block at
    the same twist.  So ``classify`` classifies these blocks without testing
    their symmetry again."""
    q = dominantize(p).param
    assert hermitian_witness(q) is not None
    L, mu, nu = q.integer_form
    # the dominant mu descends, so the mu = 1/2 block is the last one
    _, start, _ = _mu_blocks(mu)[-1]
    assert 2 * mu[start] == L
    _, blocks = _grouped_classes(L, _partition_scaled(L, nu[start:]))
    for _, block in blocks:
        ints = [v for _, vs in block for v in vs]
        twists = [s for s, vs in block for _ in vs]
        assert Counter(zip(ints, twists)) == Counter(zip((-v for v in ints), twists))


_MU_TWO_BLOCKS = (Fraction(5, 2), Fraction(5, 2), Fraction(1, 2), Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(genuine_params(), genuine_params(hermitian=True)))
@example(GenuineParam(GroupTag("D", 4), _MU_TWO_BLOCKS, (1, -1, Fraction(1, 2), Fraction(-1, 2))))
@example(GenuineParam(GroupTag("B", 4), _MU_TWO_BLOCKS, (1, 0, Fraction(1, 2), Fraction(-1, 2))))
@example(GenuineParam(GroupTag("B", 4), _MU_TWO_BLOCKS, (1, -1, Fraction(1, 2), Fraction(1, 2))))
def test_classify_splits_each_mu_block_once(p):
    """``classify`` splits each mu-block of the dominant form into residue
    classes exactly once, before its Hermitian test, whatever the verdict."""
    calls = []

    def counted(L, ints):
        calls.append(len(ints))
        return _partition_scaled(L, ints)

    original, spinclass._partition_scaled = spinclass._partition_scaled, counted
    try:
        status = classify(p).status
    finally:
        spinclass._partition_scaled = original
    _, mu, _ = dominantize(p).param.integer_form
    assert calls == [stop - start for _, start, stop in _mu_blocks(mu)]
    assert (status is Status.NOT_HERMITIAN) == (hermitian_witness(dominantize(p).param) is None)


def test_dominantize_returns_dominant_input_as_is(monkeypatch):
    calls = []
    identity = WeylElement.identity
    monkeypatch.setattr(WeylElement, "identity",
                        staticmethod(lambda n: calls.append(n) or identity(n)))
    h = Fraction(1, 2)
    dominant = [
        GenuineParam(GroupTag(fam, 4), mu, (1, -2, 2, 0))
        for fam in "BD" for mu in ((5 * h, 3 * h, 3 * h, h), (3 * h, h, 0, 0))
    ] + [pairs_to_param(StringPairs(fam, ((3, 1), (1, 0)))) for fam in "BD"]
    for p in dominant:
        dom = dominantize(p)
        assert dom.param is p and not dom.outer_applied
        assert dom.weyl == identity(p.group.rank)
        assert dom == dominantize_reference(p)
    assert calls == [p.group.rank for p in dominant]
    # a negative entry or an ascent takes the general path
    del calls[:]
    general = [
        GenuineParam(GroupTag("B", 3), (3 * h, -h, h), (1, 2, 3)),
        GenuineParam(GroupTag("D", 3), (3 * h, -h, h), (1, 2, 3)),
        GenuineParam(GroupTag("D", 3), (h, 0, -h), (1, 2, 3)),
        GenuineParam(GroupTag("D", 3), (h, 3 * h, h), (1, 2, 3)),
    ]
    for p in general:
        assert dominantize(p) == dominantize_reference(p)
    assert calls == []
    assert dominantize(general[1]).outer_applied
