"""The integer chain replay against a Fraction reference.

``verify_chain`` scales its start once and replays every move on
(int, sign) pairs, where the pass-left scalar and the short-root and
pair-flip predicates are stated once; ``gl_move_scalar``, ``pass_left_ok``
and ``sort_ok`` wrap the pass-left scalar, and one-move replays stand for
the short-root and pair-flip predicates.  The reference here states the
formulas directly on Fractions and replays on ``SignedEntry`` sequences.
Hypothesis draws starts of general rationals (denominators 1 to 6, both
signs) and well-formed moves of every kind, and checks that both give equal
reports.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spindual.intertwine import (
    BarGL, PairFlip, PassLeft, Pole, ScriptError, ShortRootFlip, SignedEntry,
    SortDescending, StepReport, Uncertified, gl_move_scalar, pass_left_ok,
    sort_ok, verify_chain,
)

F = Fraction


# ---------------------------------------------------------------------------
# the Fraction reference

def is_chain(chain) -> bool:
    return bool(chain) and all(
        e.sign == chain[0].sign and e.value == chain[0].value + 2 * k
        for k, e in enumerate(chain))


def pass_terms_reference(chain, x):
    """(-c + nu_1 - x, c + nu_last - x), c = 2 for agreeing signs, else 3."""
    c = 2 if x.sign == chain[0].sign else 3
    return -c + chain[0].value - x.value, c + chain[-1].value - x.value


def short_root_reference(e) -> bool:
    return abs(e.value) != F(3, 2)


def pair_flip_reference(a, b) -> bool:
    return abs(a.value + b.value) != (3 if a.sign == b.sign else 2)


def step_reference(seq: list, move) -> StepReport:
    """The report of the move on the SignedEntry list seq, which it advances."""
    if isinstance(move, PassLeft):
        chain, xi = seq[move.start:move.stop], seq[move.xi]
        num, den = pass_terms_reference(chain, xi)
        desc = f"pass {xi} left over ({' '.join(map(str, chain))})"
        seq.insert(move.start, seq.pop(move.xi))
        if den == 0:
            return StepReport(move, desc, False, False, None, "pole of the rank-one scalar")
        return StepReport(move, desc, True, num != 0, num / den,
                          "" if num else "zero of the rank-one scalar: not injective")
    if isinstance(move, SortDescending):
        prefix, chain = seq[move.start:move.split], seq[move.split:move.stop]
        ok = all(pass_terms_reference(chain, x)[1] != 0 for x in prefix)
        desc = f"sort ({' '.join(map(str, prefix))} | {' '.join(map(str, chain))}) descending"
        seq[move.start:move.stop] = sorted(seq[move.start:move.stop],
                                           key=lambda e: e.value, reverse=True)
        return StepReport(move, desc, True, ok,
                          reason="" if ok else "excluded value nu_last + c hit")
    if isinstance(move, BarGL):
        e = seq[move.index]
        seq[move.index] = SignedEntry(-e.value, -e.sign)
        return StepReport(move, f"bar-reading {e} as {seq[move.index]}", True, True)
    if isinstance(move, ShortRootFlip):
        e = seq[move.index]
        seq[move.index] = SignedEntry(-e.value, -e.sign)
        ok = short_root_reference(e)
        return StepReport(move, f"short-root flip of {e}", True, ok,
                          reason="" if ok else "short-root move fails at +-3/2")
    if isinstance(move, PairFlip):
        a, b = seq[move.i], seq[move.j]
        seq[move.i], seq[move.j] = (SignedEntry(-b.value, -b.sign),
                                    SignedEntry(-a.value, -a.sign))
        ok = pair_flip_reference(a, b)
        return StepReport(move, f"pair flip of {a}, {b}", True, ok,
                          reason="" if ok else "pair-flip kernel locus hit")
    return StepReport(move, move.note, True, False,
                      reason="no applicable predicate (external base case)")


def replay_reference(script, start):
    seq = list(start)
    return [step_reference(seq, move) for move in script]


# ---------------------------------------------------------------------------
# strategies

rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 6))
signs = st.sampled_from((1, -1))
# offsets that put an entry on a locus of its neighbour: chain steps, the
# scalar's zero and pole (c = 2, 3), and the short-root and pair-flip loci
OFFSETS = (2, -2, 3, -3)


@st.composite
def starts(draw):
    """Entries of general rationals; many sit on a locus of the entry before
    them or begin a step-2 chain, so that every branch is reached."""
    seq = [SignedEntry(draw(rationals), draw(signs))]
    for _ in range(draw(st.integers(0, 7))):
        prev = seq[-1]
        kind = draw(st.sampled_from(("free", "chain", "offset", "short", "pair")))
        if kind == "free":
            seq.append(SignedEntry(draw(rationals), draw(signs)))
        elif kind == "chain":
            seq.append(SignedEntry(prev.value + 2, prev.sign))
        elif kind == "offset":
            seq.append(SignedEntry(prev.value + draw(st.sampled_from(OFFSETS)), draw(signs)))
        elif kind == "short":
            seq.append(SignedEntry(draw(st.sampled_from((F(3, 2), F(-3, 2)))), draw(signs)))
        else:
            seq.append(SignedEntry(draw(st.sampled_from((3, -3, 2, -2))) - prev.value,
                                   draw(signs)))
    return tuple(seq)


def chain_slices(seq):
    return [(a, b) for a in range(len(seq)) for b in range(a + 1, len(seq) + 1)
            if is_chain(seq[a:b])]


@st.composite
def scripts(draw):
    """A start and a script of well-formed moves, drawn against the entries
    each move meets (the reference replay tracks them)."""
    start = draw(starts())
    seq = list(start)
    script = []
    n = len(seq)
    for _ in range(draw(st.integers(0, 8))):
        kinds = ["bar", "short", "sort", "note"] + ["pass", "pair"] * (n > 1)
        kind = draw(st.sampled_from(kinds))
        if kind == "pass":
            a, b = draw(st.sampled_from([s for s in chain_slices(seq) if s[1] < n]))
            move = PassLeft(a, b, draw(st.integers(b, n - 1)))
        elif kind == "sort":
            split, stop = draw(st.sampled_from(chain_slices(seq)))
            move = SortDescending(draw(st.integers(0, split)), split, stop)
        elif kind in ("bar", "short"):
            move = (BarGL if kind == "bar" else ShortRootFlip)(draw(st.integers(0, n - 1)))
        elif kind == "pair":
            i = draw(st.integers(0, n - 2))
            move = PairFlip(i, draw(st.integers(i + 1, n - 1)))
        else:
            move = Uncertified("external check")
        step_reference(seq, move)
        script.append(move)
    return start, script


# ---------------------------------------------------------------------------
# the replay against the reference

H = F(1, 2)
E = SignedEntry


@settings(max_examples=400, deadline=None)
@given(scripts())
@example(((E(-H, 1), E(3 * H, 1), E(7 * H, 1)), [PassLeft(0, 2, 2)]))     # pole, c = 2
@example(((E(-H, 1), E(3 * H, 1), E(-7 * H, -1)), [PassLeft(0, 2, 2)]))   # zero, c = 3
@example(((E(F(13, 3), -1), E(F(4, 3), 1)), [SortDescending(0, 1, 2)]))  # sort pole
@example(((E(F(-3, 2), 1), E(F(1, 3), -1)), [ShortRootFlip(0)]))
@example(((E(F(5, 4), 1), E(F(7, 4), 1)), [PairFlip(0, 1)]))             # |a + b| = 3
@example(((E(F(5, 3), 1), E(F(-11, 3), -1)), [PairFlip(0, 1)]))          # |a + b| = 2
@example(((E(F(2), 1), E(F(4), 1), E(F(-1), -1)),
          [BarGL(2), PassLeft(0, 2, 2), Uncertified("x"), SortDescending(0, 1, 3)]))
def test_verify_chain_matches_reference(case):
    start, script = case
    assert verify_chain(script, start) == replay_reference(script, start)


def test_examples_reach_every_failure():
    # the pinned examples above fail where they claim to
    cases = [
        ((E(-H, 1), E(3 * H, 1), E(7 * H, 1)), PassLeft(0, 2, 2), "pole"),
        ((E(-H, 1), E(3 * H, 1), E(-7 * H, -1)), PassLeft(0, 2, 2), "zero"),
        ((E(F(13, 3), -1), E(F(4, 3), 1)), SortDescending(0, 1, 2), "excluded"),
        ((E(F(-3, 2), 1),), ShortRootFlip(0), "short-root"),
        ((E(F(5, 4), 1), E(F(7, 4), 1)), PairFlip(0, 1), "kernel"),
        ((E(F(5, 3), 1), E(F(-11, 3), -1)), PairFlip(0, 1), "kernel"),
    ]
    for start, move, word in cases:
        report, = verify_chain([move], start)
        assert not report.ok and word in report.reason, (move, report)


# ---------------------------------------------------------------------------
# the public wrappers and one-move replays against the reference

def one_move_ok(move, *start) -> bool:
    report, = verify_chain([move], start)
    return report.ok


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=4), st.lists(signs, min_size=4, max_size=4),
       rationals, signs, st.booleans())
def test_wrappers_match_reference(values, chain_signs, x, x_sign, stepped):
    if stepped and values:
        values = [values[0] + 2 * k for k in range(len(values))]
        chain_signs = [chain_signs[0]] * 4
    chain = tuple(E(v, s) for v, s in zip(values, chain_signs))
    xi = E(x, x_sign)
    assert one_move_ok(ShortRootFlip(0), xi) == short_root_reference(xi)
    if chain:
        assert (one_move_ok(PairFlip(0, 1), chain[0], xi)
                == pair_flip_reference(chain[0], xi))
    if is_chain(chain):
        num, den = pass_terms_reference(chain, xi)
        assert pass_left_ok(chain, xi) == (den != 0 and num != 0)
        assert sort_ok([xi], chain) == (den != 0)
    else:
        with pytest.raises(ScriptError):
            pass_left_ok(chain, xi)
        with pytest.raises(ScriptError):
            sort_ok([xi], chain)
    # gl_move_scalar reads the values only; opposite_sign stands for the signs
    positive = tuple(E(v, 1) for v in values)
    if not is_chain(positive):
        with pytest.raises(ScriptError):
            gl_move_scalar(values, x, False)
        return
    for opposite in (False, True):
        num, den = pass_terms_reference(positive, E(x, -1 if opposite else 1))
        if den == 0:
            with pytest.raises(Pole):
                gl_move_scalar(values, x, opposite)
        else:
            assert gl_move_scalar(values, x, opposite) == num / den


def test_wrappers_pole_and_script_errors():
    with pytest.raises(Pole, match=r"x = 1/2 \+ 3"):
        gl_move_scalar((H,), F(7, 2), True)
    with pytest.raises(Pole, match=r"x = 5/3 \+ 2"):
        gl_move_scalar((F(-1, 3), F(5, 3)), F(11, 3), False)
    for bad in ((), (H, F(3, 2)), (F(3, 2), -H)):
        with pytest.raises(ScriptError):
            gl_move_scalar(bad, 0, False)
    mixed = (E(H, 1), E(F(5, 2), -1))
    with pytest.raises(ScriptError, match="constant sign"):
        pass_left_ok(mixed, E(0, 1))
    with pytest.raises(ScriptError, match="empty chain"):
        sort_ok([E(0, 1)], ())
    # a pole is a failed predicate, not an exception
    assert not pass_left_ok((E(H, 1),), E(F(5, 2), 1))
    assert not sort_ok([E(F(7, 2), -1)], (E(H, 1),))
    assert one_move_ok(ShortRootFlip(0), E(F(3, 4), -1))
    assert not one_move_ok(ShortRootFlip(0), E("-3/2", 1))
    assert not one_move_ok(PairFlip(0, 1), E(F(1, 3), 1), E(F(8, 3), 1))
    assert not one_move_ok(PairFlip(0, 1), E(F(1, 3), 1), E(F(-7, 3), -1))
    assert one_move_ok(PairFlip(0, 1), E(F(1, 3), 1), E(F(-7, 3), 1))
