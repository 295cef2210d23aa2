"""Tests for intertwining scalars, predicates and chain replay."""

import itertools
import random
from fractions import Fraction

import pytest

from spindual import intertwine as it
from spindual.intertwine import (
    BarGL, PairFlip, PassLeft, Pole, ScriptError, ShortRootFlip, SignedEntry,
    SortDescending, WordSystem, entries, gl_move_scalar, pass_left_ok, sort_ok,
    verify_chain, word_action, word_scalar,
)

F = Fraction
H = F(1, 2)


def halves(*nums):
    return tuple(F(n, 2) for n in nums)


def test_simple_scalars():
    # one reflection s1 of A2 at nu = (p, 0, 0), where its pairing is p:
    # the antisymmetric-line scalar (2 - p)/(2 + p)
    a2 = WordSystem("A2")
    for p, scalar in ((0, 1), (2, 0), (4, F(-1, 3)), (F(1, 3), F(5, 7))):
        assert word_scalar(a2, ("s1",), (p, 0, 0)) == scalar
    # its pole: the pairing of (0, 2, 0) with s1 is -2
    for nu in ((F(-2), 0, 0), (F(0), F(2), F(0))):
        with pytest.raises(Pole, match="pairing -2"):
            word_scalar(a2, ("s1",), nu)
    with pytest.raises(ValueError, match="supported systems"):
        WordSystem("C3")


def test_gl_move_scalar_examples():
    assert gl_move_scalar(halves(-3, 1), F(9, 2), False) == 4
    assert gl_move_scalar(halves(1, 5), F(-3, 2), False) == 0
    with pytest.raises(Pole):
        gl_move_scalar(halves(1), F(7, 2), True)


def test_pass_left_examples():
    chain = entries(halves(-3, 1))
    assert pass_left_ok(chain, SignedEntry(F(-5, 2), -1))
    assert not pass_left_ok(chain, SignedEntry(F(-7, 2), 1))  # nu_1 - 2
    assert not pass_left_ok(entries(halves(1)), SignedEntry(F(7, 2), -1))


def test_short_root():
    def flip_ok(a):
        report, = verify_chain([ShortRootFlip(0)], (SignedEntry(a, 1),))
        return report.ok

    assert flip_ok(H)
    assert not flip_ok(F(3, 2))
    assert not flip_ok(F(-3, 2))


def test_scalar_loci_match_predicates():
    # the zero/pole locus of the move scalar is exactly the excluded set of
    # the pass-left predicate, over all chains of length <= 5 and a grid of x
    for length in range(1, 6):
        for lo_num in range(-11, 4, 2):
            chain_vals = tuple(F(lo_num, 2) + 2 * k for k in range(length))
            for sign in (1, -1):
                chain = entries(chain_vals, 1)
                for x_num in range(-19, 20, 2):
                    x = F(x_num, 2)
                    xi = SignedEntry(x, sign)
                    opposite = sign != 1
                    try:
                        scalar = gl_move_scalar(chain_vals, x, opposite)
                        pole = False
                    except Pole:
                        pole = True
                        scalar = None
                    c = 2 if not opposite else 3
                    assert pole == (x == chain_vals[-1] + c)
                    if not pole:
                        assert (scalar == 0) == (x == chain_vals[0] - c)
                    # predicate false exactly on the union of the two loci
                    excluded = pole or (scalar == 0)
                    assert pass_left_ok(chain, xi) == (not excluded)
                    assert sort_ok([xi], chain) == (not pole)


def test_verify_chain_basics():
    assert verify_chain((), entries(halves(1, 5))) == []
    start = entries(halves(-3, 1)) + (SignedEntry(F(-5, 2), -1),)
    reports = verify_chain([PassLeft(0, 2, 2)], start)
    assert len(reports) == 1 and reports[0].ok
    assert reports[0].scalar is not None
    with pytest.raises(ScriptError):
        verify_chain([PassLeft(2, 1, 0)], start)
    with pytest.raises(ScriptError, match="unknown move"):
        verify_chain(["sort"], start)


@pytest.mark.parametrize("move", [
    BarGL(-1),              # would act on an entry counted from the end
    ShortRootFlip(-3),
    PairFlip(2, 0),         # i < j is required
    PairFlip(1, 1),
    PassLeft(0, 2, 5),      # operands past the end
    BarGL(7),
    SortDescending(0, 2, 4),
])
def test_verify_chain_checks_operands_before_describing(move):
    start = entries(halves(-3, 1, 5))
    with pytest.raises(ScriptError):
        verify_chain([move], start)


def test_case_i_d_worked_example():
    # the single-string move for (2; 4) is fully certified...
    parts = it.case_i_script_d(2, 4)
    for name, start, script in parts:
        reports = verify_chain(script, start)
        assert all(r.ok for r in reports), (name, [r.reason for r in reports])
    # ...and fails for the steep string (4; 2)
    parts = it.case_i_script_d(4, 2)
    flat = [r for _, start, script in parts for r in verify_chain(script, start)]
    assert any(not r.ok for r in flat)
    bad = next(r for r in flat if not r.ok)
    assert "scalar" in bad.reason or "predicate" in bad.reason


def test_case_i_b_scripts():
    parts = it.case_i_script_b(3, 3)
    for name, start, script in parts:
        assert all(r.ok for r in verify_chain(script, start))
    parts = it.case_i_script_b(2, 0)
    flat = [r for _, s, sc in parts for r in verify_chain(sc, s)]
    assert any(not r.ok for r in flat)


def test_case_ii_d_script():
    parts = it.case_ii_script_d(2, 2, 1, 1)
    for name, start, script in parts:
        reports = verify_chain(script, start)
        # the pass moves are certified; the interior core is external
        assert all(r.ok for r in reports[:-1])
        assert not reports[-1].ok
    with pytest.raises(ScriptError, match="doubly non-increasing"):
        it.case_ii_script_d(1, 2, 1, 1)


def test_build_case_dispatch():
    assert it.build_case_script("D", ((2, 4),))
    assert it.build_case_script("B", ((2, 0),))
    assert it.build_case_script("D", ((2, 1), (2, 1)))
    with pytest.raises(ScriptError):
        it.build_case_script("D", ((1, 0), (1, 0), (1, 0)))


# ---------------------------------------------------------------------------
# word consistency

def brute_words(system, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(system.gens, repeat=n)


def test_word_scalar_double_reflection_is_identity():
    sys_a2 = WordSystem("A2")
    nu = (F(3, 7), F(1, 7), F(-4, 7))
    for gen in sys_a2.gens:
        assert word_scalar(sys_a2, (gen, gen), nu) == 1


def test_word_scalar_consistency():
    rng = random.Random(13)
    for name in ("A2", "B2"):
        system = WordSystem(name)
        words = list(brute_words(system, 5))
        for trial in range(100):
            # generic rational nu: per-coordinate offsets keep every pairing
            # along every word away from the poles
            nu = tuple(
                F(rng.randint(-30, 30), 7) + F(i + 1, 11)
                for i in range(system.dim)
            )
            by_element = {}
            for word in words:
                key = word_action(system, word, nu)
                val = word_scalar(system, word, nu)
                if key in by_element:
                    assert by_element[key] == val, (name, word, nu)
                else:
                    by_element[key] = val


def test_signed_entry_rejects_boolean_sign():
    # True == 1, but a bool is not a sign
    with pytest.raises(ValueError, match="sign must be"):
        SignedEntry(H, True)
    assert str(SignedEntry(H, -1)) == "1/2^-"


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_word_system_rejects_unknown_generator_and_wrong_rank(name):
    system = WordSystem(name)
    nu = (F(1), F(2), F(3))[:system.dim]
    for fn in (word_action, word_scalar):
        with pytest.raises(ValueError, match="no generator 's3'"):
            fn(system, ("s1", "s3"), nu)
    # nor is a coordinate left out or ignored
    for bad in (nu[:-1], nu + (F(4),)):
        with pytest.raises(ValueError):
            word_scalar(system, ("s1",), bad)
