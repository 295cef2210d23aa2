"""The public surface of ``GenuineParam``.

A parameter is built by hand from ints, strings or Fractions, or inside
spindual from an integer form (the dominant form, ``pairs_to_param``, the
Hermitian dual).  Both kinds must construct, compare, hash, print, replace,
copy and pickle alike.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spindual.spinclass import StringPairs, pairs_to_param
from spindual.weyl import (
    DimensionError, GenuineParam, GroupTag, dominantize, enumerate_weyl, apply,
    hermitian_dual,
)

F = Fraction
H = F(1, 2)
D2, B3 = GroupTag("D", 2), GroupTag("B", 3)


def int_built():
    """Parameters that spindual builds from their integer forms, with the
    hand-built parameters of equal value."""
    p = GenuineParam(B3, (-H, F(3, 2), H), (F(1, 3), F(-2), F(5, 6)))
    dom = dominantize(p)
    assert dom.param is not p
    return [
        (dom.param, GenuineParam(B3, (F(3, 2), H, H), (F(-2), F(-1, 3), F(5, 6)))),
        (pairs_to_param(StringPairs("D", ((2, 1),))),
         GenuineParam(GroupTag("D", 6), (H,) * 6,
                      (F(5, 2), H, F(-3, 2), F(3, 2), -H, F(-5, 2)))),
        (hermitian_dual(p), GenuineParam(B3, p.mu, (F(-1, 3), F(2), F(-5, 6)))),
    ]


# ---------------------------------------------------------------------------
# construction


def test_entries_are_coerced_to_fractions():
    p = GenuineParam(B3, (1, "3/2", F(-1, 2)), [" -7/4 ", 0, F(6, 4)])
    assert p.mu == (F(1), F(3, 2), F(-1, 2))
    assert p.nu == (F(-7, 4), F(0), F(3, 2))
    assert type(p.mu) is tuple and type(p.nu) is tuple
    assert {type(v) for v in p.mu + p.nu} == {Fraction}
    assert p.group == B3


def test_fraction_entries_are_kept():
    mu, nu = (H, F(3, 2)), (F(1, 3), F(-2))
    p = GenuineParam(D2, mu, nu)
    assert all(a is b for a, b in zip(p.mu + p.nu, mu + nu))


@pytest.mark.parametrize("mu, nu", [
    ((H,), (H, H)),
    ((H, H), (H,)),
    ((H, H, H), (H, H, H)),
    ((), ()),
])
def test_wrong_lengths_raise_dimension_error(mu, nu):
    with pytest.raises(DimensionError, match="mu/nu must have length 2"):
        GenuineParam(D2, mu, nu)
    assert issubclass(DimensionError, ValueError)


@pytest.mark.parametrize("bad", [0.5, True, None, 1j, (1, 2)])
def test_non_rational_entries_raise_type_error(bad):
    with pytest.raises(TypeError, match="exact rational"):
        GenuineParam(D2, (H, bad), (H, H))
    with pytest.raises(TypeError, match="exact rational"):
        GenuineParam(D2, (H, H), (bad, H))


@pytest.mark.parametrize("bad", ["1.5", "1/0", "x", "1e3"])
def test_malformed_strings_raise_value_error(bad):
    with pytest.raises(ValueError):
        GenuineParam(D2, (H, bad), (H, H))


def test_parameters_are_frozen():
    for p, _ in int_built():
        for name in ("group", "mu", "nu"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, getattr(p, name))
    # read on the class, a row is its descriptor, which builds nothing
    assert GenuineParam.mu is vars(GenuineParam)["mu"]


def test_rows_of_an_int_built_parameter_are_built_on_first_read_and_kept():
    for p, hand in int_built():
        assert "mu" not in vars(p) and "nu" not in vars(p)
        assert p.mu == hand.mu and "nu" not in vars(p)
        assert p.nu == hand.nu
        assert p.mu is p.mu and p.nu is p.nu
        assert vars(p)["mu"] is p.mu and vars(p)["nu"] is p.nu


# ---------------------------------------------------------------------------
# equality and hashing


def test_int_built_equals_hand_built():
    for p, hand in int_built():
        assert p == hand and hand == p
        assert not p != hand
        assert hash(p) == hash(hand)
        assert (p.mu, p.nu) == (hand.mu, hand.nu)
        assert p.integer_form == hand.integer_form
        assert len({p, hand}) == 1


def test_unequal_parameters():
    p = GenuineParam(D2, (H, H), (F(3), F(1)))
    assert p != GenuineParam(GroupTag("B", 2), p.mu, p.nu)
    assert p != GenuineParam(D2, p.mu, (F(1), F(3)))
    assert p != GenuineParam(D2, p.mu, (F(3), F(1, 3)))
    assert p != (p.group, p.mu, p.nu)
    assert p.__eq__(object()) is NotImplemented


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def params_and_elements(draw):
    family = draw(st.sampled_from("BD"))
    n = draw(st.integers(1, 3))
    mu = draw(st.lists(rationals, min_size=n, max_size=n))
    nu = draw(st.lists(rationals, min_size=n, max_size=n))
    w = draw(st.sampled_from(list(enumerate_weyl(GroupTag(family, n)))))
    return GenuineParam(GroupTag(family, n), mu, nu), w


@settings(max_examples=300, deadline=None)
@given(params_and_elements())
def test_equality_and_hash_follow_the_values(drawn):
    p, w = drawn
    q = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
    dom_p, dom_q = dominantize(p).param, dominantize(q).param
    hand = GenuineParam(dom_p.group, dom_p.mu, dom_p.nu)
    assert dom_p == hand and hash(dom_p) == hash(hand)
    same = (dom_p.mu, dom_p.nu) == (dom_q.mu, dom_q.nu)
    assert (dom_p == dom_q) is same
    if same:
        assert hash(dom_p) == hash(dom_q)
    assert (p == q) is ((p.mu, p.nu) == (q.mu, q.nu))
    assert hermitian_dual(hermitian_dual(p)) == p


# ---------------------------------------------------------------------------
# text


def test_repr_and_str():
    p = GenuineParam(D2, (H, "-3/2"), (3, F(-1, 3)))
    assert repr(p) == (
        "GenuineParam(group=GroupTag(family='D', rank=2), "
        "mu=(Fraction(1, 2), Fraction(-3, 2)), nu=(Fraction(3, 1), Fraction(-1, 3)))")
    assert str(p) == "D2: mu=(1/2, -3/2), nu=(3, -1/3)"
    for built, hand in int_built():
        assert repr(built) == repr(hand)
        assert str(built) == str(hand)
    assert str(pairs_to_param(StringPairs("B", ((1, 1),)))) == \
        "B4: mu=(1/2, 1/2, 1/2, 1/2), nu=(1/2, -3/2, 3/2, -1/2)"


# ---------------------------------------------------------------------------
# dataclasses.replace, copies and pickling


def test_dataclasses_replace():
    assert [f.name for f in dataclasses.fields(GenuineParam)] == ["group", "mu", "nu"]
    for p, hand in int_built():
        same = dataclasses.replace(p)
        assert same == p and same is not p
        dual = dataclasses.replace(p, nu=[-v for v in p.nu])
        assert dual == hermitian_dual(hand)
        moved = dataclasses.replace(p, mu=("1/2",) * p.group.rank)
        assert moved.mu == (H,) * p.group.rank and moved.nu == hand.nu
        bigger = GroupTag(p.group.family, p.group.rank + 1)
        with pytest.raises(DimensionError):
            dataclasses.replace(p, group=bigger)
        regrown = dataclasses.replace(p, group=bigger, mu=hand.mu + (H,), nu=hand.nu + (0,))
        assert regrown.integer_form[1:] == (
            hand.integer_form[1] + (hand.integer_form[0] // 2,),
            hand.integer_form[2] + (0,))
        with pytest.raises(TypeError):
            dataclasses.replace(p, nu=(0.5,) * p.group.rank)


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda p: pickle.loads(pickle.dumps(p)),
    lambda p: pickle.loads(pickle.dumps(p, protocol=0)),
])
def test_copies_and_pickles(clone):
    # each parameter is cloned as built, and again once its Fractions and its
    # integer form have both been read
    for p in [p for pair in int_built() for p in pair]:
        fresh = clone(p)
        assert (p.mu, p.nu, p.integer_form) == (fresh.mu, fresh.nu, fresh.integer_form)
        assert fresh == p
        c = clone(p)
        assert c == p and hash(c) == hash(p)
        assert type(c) is GenuineParam
        assert (c.group, c.mu, c.nu) == (p.group, p.mu, p.nu)
        assert c.integer_form == p.integer_form
        assert repr(c) == repr(p) and str(c) == str(p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.nu = p.nu
