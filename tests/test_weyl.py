"""Tests for the Weyl-action and parameter layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spindual.weyl import (
    DimensionError, GenuineParam, GroupTag, LanglandsPair, WeylElement, apply, dominantize,
    enumerate_weyl, hermitian_dual, hermitian_witness, rho, to_langlands,
)

F = Fraction
H = F(1, 2)


def rnd_weyl(rng, n, family="D"):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if family == "D" and signs.count(-1) % 2 == 1:
        signs[0] *= -1
    return WeylElement(tuple(perm), tuple(signs))


def test_group_rank_must_be_an_int():
    assert str(GroupTag("B", 3)) == "B3"
    for bad in (True, False, 2.0, "3", F(2)):
        with pytest.raises(TypeError, match="rank must be an int"):
            GroupTag("D", bad)
    with pytest.raises(ValueError):
        GroupTag("D", 0)
    with pytest.raises(ValueError, match="family must be"):
        GroupTag("C", 2)


def test_apply_examples():
    w = WeylElement.identity(2)
    assert apply(w, (H, -H)) == (H, -H)
    swap = WeylElement((1, 0), (1, 1))
    assert apply(swap, (F(3), F(-3))) == (F(-3), F(3))
    flips = WeylElement((0, 1), (-1, -1))
    assert apply(flips, (H, H)) == (-H, -H)


def test_apply_length_mismatch():
    with pytest.raises(DimensionError):
        apply(WeylElement.identity(2), (F(1),))


def element_of(images) -> WeylElement:
    """The signed permutation that sends (1, ..., n) to ``images``."""
    perm = [0] * len(images)
    for i, k in enumerate(images):
        perm[abs(k) - 1] = i
    return WeylElement(tuple(perm), tuple(1 if k > 0 else -1 for k in images))


def test_apply_is_group_action():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        w1, w2 = rnd_weyl(rng, n), rnd_weyl(rng, n)
        v = tuple(F(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(n))
        basis = tuple(range(1, n + 1))
        # the product is again a signed permutation, read off the basis
        product = element_of(apply(w1, apply(w2, basis)))
        assert apply(product, v) == apply(w1, apply(w2, v))
        # and w1 has an inverse: w1 sends e_j to +-e_i, its inverse e_i to +-e_j
        back = [0] * n
        for i, k in enumerate(apply(w1, basis)):
            back[abs(k) - 1] = i + 1 if k > 0 else -(i + 1)
        inverse = element_of(tuple(back))
        assert apply(inverse, apply(w1, v)) == v
        assert apply(w1, apply(inverse, v)) == v


def test_dominantize_examples():
    p = GenuineParam(GroupTag("D", 4), (H, H, H, H), (F(5, 2), F(5, 2), H, H))
    dom = dominantize(p)
    assert dom.param == p and not dom.outer_applied

    p = GenuineParam(GroupTag("D", 2), (H, -H), (F(1), F(2)))
    dom = dominantize(p)
    assert dom.param.mu == (H, H)
    assert dom.param.nu == (F(1), F(-2))
    assert dom.outer_applied

    p = GenuineParam(GroupTag("D", 4), (H, F(3, 2), H, H), (F(1), F(2), F(3), F(4)))
    dom = dominantize(p)
    assert dom.param.mu == (F(3, 2), H, H, H)
    assert dom.param.nu == (F(2), F(1), F(3), F(4))


def test_dominantize_idempotent_and_conjugate():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        fam = rng.choice(("B", "D"))
        mu = tuple(rng.choice((1, -1)) * F(2 * rng.randint(1, 3) - 1, 2)
                   for _ in range(n))
        nu = tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n))
        p = GenuineParam(GroupTag(fam, n), mu, nu)
        dom = dominantize(p)
        again = dominantize(dom.param)
        assert again.param == dom.param and not again.outer_applied
        mus = list(dom.param.mu)
        assert mus == sorted(mus, reverse=True) and all(m > 0 for m in mus)
        # the returned element, then the diagram flip, carries p to its dominant form
        mu, nu = apply(dom.weyl, p.mu), apply(dom.weyl, p.nu)
        if dom.outer_applied:
            mu, nu = mu[:-1] + (-mu[-1],), nu[:-1] + (-nu[-1],)
        assert (mu, nu) == (dom.param.mu, dom.param.nu)
        assert fam == "B" or dom.weyl.signs.count(-1) % 2 == 0


def test_langlands_roundtrip_golden():
    # assembled from string pairs (4; 0): the classification-table row
    mu = (H,) * 8
    nu = (F(13, 2), F(9, 2), F(5, 2), H, -H, F(-5, 2), F(-9, 2), F(-13, 2))
    lp = to_langlands(GenuineParam(GroupTag("D", 8), mu, nu))
    assert lp.lambda_l == (F(7, 2), F(5, 2), F(3, 2), H, F(0), F(-1), F(-2), F(-3))
    assert lp.lambda_r == (F(3), F(2), F(1), F(0), -H, F(-3, 2), F(-5, 2), F(-7, 2))
    with pytest.raises(DimensionError, match="equal length"):
        LanglandsPair(GroupTag("D", 2), (H, H), (H,))


def test_langlands_roundtrip_random():
    rng = random.Random(3)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        fam = rng.choice(("B", "D"))
        mu = tuple(F(2 * rng.randint(-3, 3) + 1, 2) for _ in range(n))
        nu = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        p = GenuineParam(GroupTag(fam, n), mu, nu)
        lp = to_langlands(p)
        mu = tuple(a - b for a, b in zip(lp.lambda_l, lp.lambda_r))
        nu = tuple(a + b for a, b in zip(lp.lambda_l, lp.lambda_r))
        assert GenuineParam(lp.group, mu, nu) == p


def test_hermitian_dual():
    p = GenuineParam(GroupTag("D", 2), (H, H), (F(5, 2), H))
    assert hermitian_dual(p).nu == (F(-5, 2), -H)
    assert hermitian_dual(hermitian_dual(p)) == p
    # a doubled parameter is conjugate to its dual
    mu = (H,) * 4
    nu = (F(5, 2), H, -H, F(-5, 2))
    q = GenuineParam(GroupTag("D", 4), mu, nu)
    assert _brute_conjugate(q, hermitian_dual(q))


def test_hermitian_witness_examples():
    p = GenuineParam(GroupTag("D", 2), (H, H), (F(3), F(-3)))
    w = hermitian_witness(p)
    assert w is not None and apply(w, p.nu) == (F(-3), F(3))
    p = GenuineParam(GroupTag("D", 2), (H, H), (F(3), F(1)))
    assert hermitian_witness(p) is None
    p = GenuineParam(GroupTag("B", 3), (F(3, 2), H, H), (F(0), F(0), F(0)))
    w = hermitian_witness(p)
    assert w is not None


def _brute_witness(p):
    for w in enumerate_weyl(p.group):
        if apply(w, p.mu) == p.mu and apply(w, p.nu) == tuple(-x for x in p.nu):
            return w
    return None


def test_hermitian_witness_vs_bruteforce():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        fam = rng.choice(("B", "D"))
        mu = sorted(
            (rng.choice((F(0), H, H, F(3, 2))) for _ in range(n)), reverse=True
        )
        pool = [F(0), H, -H, F(1), F(-1), F(3), F(-3)]
        nu = tuple(rng.choice(pool) for _ in range(n))
        p = GenuineParam(GroupTag(fam, n), tuple(mu), nu)
        got = hermitian_witness(p)
        want = _brute_witness(p)
        assert (got is None) == (want is None), p
        if got is not None:
            assert apply(got, p.mu) == p.mu
            assert apply(got, p.nu) == tuple(-x for x in p.nu)
            if fam == "D":
                assert got.signs.count(-1) % 2 == 0


def _brute_conjugate(p1, p2):
    for w in enumerate_weyl(p1.group):
        if apply(w, p1.mu) == p2.mu and apply(w, p1.nu) == p2.nu:
            return True
    return False


def test_rho():
    assert rho(GroupTag("D", 4)) == (F(3), F(2), F(1), F(0))
    assert rho(GroupTag("B", 2)) == (F(3, 2), H)


def test_weyl_element_rejects_boolean_signs():
    # True == 1, but a bool is not a sign
    with pytest.raises(ValueError, match="signs must be"):
        WeylElement((0, 1), (True, 1))
    with pytest.raises(ValueError, match="invalid signed permutation"):
        WeylElement((0, 0), (1, 1))


# ---------------------------------------------------------------------------
# the integer form (L, mu_ints, nu_ints)

def is_half_odd(v):
    """The per-entry definition of genuineness: v is strictly half-integral."""
    return v.denominator == 2


rationals = st.builds(Fraction, st.integers(-15, 15), st.integers(1, 6))
mu_entries = {
    "half-integral": st.integers(-8, 7).map(lambda k: F(2 * k + 1, 2)),
    "integral": st.integers(-8, 8).map(F),
    "rational": rationals,
}


@st.composite
def params_of_any_denominators(draw):
    n = draw(st.integers(1, 6))
    mu = draw(st.lists(mu_entries[draw(st.sampled_from(sorted(mu_entries)))],
                       min_size=n, max_size=n))
    if draw(st.booleans()):
        mu[draw(st.integers(0, n - 1))] = draw(rationals)
    nu = draw(st.lists(rationals, min_size=n, max_size=n))
    return GenuineParam(GroupTag(draw(st.sampled_from("BD")), n), mu, nu)


@settings(max_examples=500, deadline=None)
@given(params_of_any_denominators())
def test_integer_form(p):
    assert p.is_genuine() == all(is_half_odd(m) for m in p.mu)
    L, mu, nu = p.integer_form
    assert L == math.lcm(*(v.denominator for v in p.mu + p.nu))
    assert tuple(F(m, L) for m in mu) == p.mu
    assert tuple(F(v, L) for v in nu) == p.nu
    # dominantize hands its dominant form the permuted integers
    q = dominantize(p).param
    assert q.integer_form == GenuineParam(q.group, q.mu, q.nu).integer_form
