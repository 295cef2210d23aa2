"""String-pair rewriting by complementary-series induction.

Inducing a shift-1/2 factor whose continuous parameter is the column (dx; dy)
adds its string to the +1/2 residue class.  On the string-pair matrix this is
an integer row operation on two int rows (``_row_insert``): dx joins the
x-row and dy the y-row, and the columns re-pair by position.  Padding reads
one list of staircase slacks per round (the last one also locates the base),
builds one StringPairs at the end, and replays its moves (dx, dy) on the same
int rows into InductionSteps only when those are read.  Its moves keep valid
pairs valid, so the StringPairs that padding and the replay derive skip the
public constructor's checks (``StringPairs._built``); pairs that come from
outside are validated where they are read.
Repeated insertions normalize:

* a column with x < y absorbs inserted columns (x+1; x) until the defect
  sum(y) - sum(x) is gone;
* a column with x >= y + 2 absorbs inserted columns (y+1; y+1) until it is a
  staircase step (x - y of 0 or 1, the shape of a shift-1/2 factor).

``normalize_to_base`` takes violated pairs (satisfied ones peel into
shift-1/2 factors in :mod:`spindual.spinclass` instead), keeps the leftmost
staircase violation untouched and pads everything else, landing on a
configuration made of shift-1/2 columns around a single base block: a lone
column (a; b) (Case I) or an adjacent column pair (c d; e f) (Case II).
These base shapes carry the known indefinite spin-relevant K-types, so the
transcript certifies the witness.
"""

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from operator import neg

from .stringpairs import StringPairs, _LazyTuple, staircase_slacks, unitarity_test
# not called here: bench/tracing.py wraps ``rewriter.extract_pairs`` (its
# ``rewriter.inserts`` span), so the name must still resolve on this module
from .stringpairs import extract_pairs  # noqa: F401


@dataclass(frozen=True)
class InductionStep:
    """One insertion: the induced factor has continuous parameter (dx; dy)."""
    dx: int
    dy: int
    before: StringPairs
    after: StringPairs

    @property
    def label(self) -> int:
        """Arrow annotation: dx, the half-size used in induction transcripts."""
        return self.dx

    def __str__(self):
        return f"{self.before} --{self.label}--> {self.after}"


@dataclass(frozen=True)
class CaseI:
    a: int
    b: int


@dataclass(frozen=True)
class CaseII:
    c: int
    d: int
    e: int
    f: int


class _Steps(_LazyTuple):
    """The InductionSteps of a padding, replayed from its moves on first read."""
    __slots__ = ("start", "moves")

    def __init__(self, start: StringPairs, moves: tuple):
        self.start, self.moves, self._tuple = start, moves, None

    def _build(self) -> tuple:
        before = self.start
        family, xs, ys = before.family, list(before.xs), list(before.ys)
        steps = []
        for dx, dy in self.moves:
            _row_insert(xs, ys, dx, dy)
            after = StringPairs._built(family, tuple(zip(xs, ys)))
            steps.append(InductionStep(dx, dy, before, after))
            before = after
        return tuple(steps)

    def _key(self) -> tuple:
        # equal moves from equal starts replay equal steps
        return self.moves, self.start if self.moves else None

    def __len__(self):
        return len(self.moves)


@dataclass(frozen=True)
class NormalizedBase:
    steps: Sequence            # InductionSteps; a padding's are built on first read
    stein_columns: tuple       # columns with x - y in {0, 1}
    base: object               # CaseI | CaseII
    final: StringPairs

    @property
    def moves(self) -> tuple:
        """The induced columns (dx, dy) in order; reading them builds no step."""
        steps = self.steps
        return steps.moves if isinstance(steps, _Steps) else tuple((s.dx, s.dy) for s in steps)


def _row_insert(xs: list, ys: list, dx: int, dy: int) -> None:
    """Induce the column (dx; dy) on descending rows, in place: dx joins the
    x-row and dy the y-row.  Both rows end in their zeros, so an empty (0; 0)
    column can only be the last one; it is dropped."""
    insort(xs, dx, key=neg)
    insort(ys, dy, key=neg)
    if xs[-1] == ys[-1] == 0:
        xs.pop()
        ys.pop()


# Every insertion adds its size to n, so padding ends; but a column (x; 0)
# pads x - 1 times up to n = x^2.  The largest padded n on the benchmark's
# inputs is 1,173 (large_rank, seed 1), and (x; 0) passes this bound at x = 317.
MAX_PADDED_N = 100_000


class PaddingBoundExceeded(ValueError):
    """Padding would pass :data:`MAX_PADDED_N`."""


def _pad(pairs: StringPairs, target):
    """Pad column ``target(slacks)`` of the rows, given the round's list of
    slacks, until it is None.  Returns the moves (dx, dy), the final
    StringPairs and the slacks of the final state (the last round's list)."""
    family = pairs.family
    xs, ys = list(pairs.xs), list(pairs.ys)
    n = pairs.n
    moves = []
    while (i := target(slacks := list(staircase_slacks(family, zip(xs, ys))))) is not None:
        x, y = xs[i], ys[i]
        if x < y:
            dx, dy = x + 1, x
        else:
            # x >= y + 2 absorbs (v; v): the leading column climbs one step at
            # a time, later columns jump to the cap set by the previous y
            dx = dy = y + 1 if i == 0 else max(y + 1, min(x - 1, ys[i - 1]))
        moves.append((dx, dy))
        _row_insert(xs, ys, dx, dy)
        n += dx + dy
        if n > MAX_PADDED_N:
            raise PaddingBoundExceeded(
                f"padding {pairs} passes the padded-size bound n = {MAX_PADDED_N}")
    # every move, (x + 1; x) or (v; v) with v >= 1, has x >= 1 and y >= 0,
    # so the rows stay in range for both families
    final = StringPairs._built(family, tuple(zip(xs, ys))) if moves else pairs
    return tuple(moves), final, slacks


def _first_unstepped(slacks, skip=()):
    """The first column outside ``skip`` whose column slack (entry 2i of the
    slacks) is not 0 or 1 (in both families, x - y is not 0 or 1: not a
    staircase step), or None."""
    return next((i for i, slack in enumerate(slacks[::2])
                 if slack not in (0, 1) and i not in skip), None)


def full_staircase(pairs: StringPairs):
    """Pad every column to a staircase step (x - y in {0, 1}): the plain
    rewriting transcript, with no violation preserved.  Returns the
    InductionSteps and the final StringPairs."""
    moves, final, _ = _pad(pairs, _first_unstepped)
    return tuple(_Steps(pairs, moves)), final


def _outside_base(slacks):
    """The first column that is not a staircase step, skipping the base at
    the first negative slack j: column j // 2, and the next one when j is a
    gap.  The insertions re-sort globally, so each round re-locates it."""
    i, gap = divmod(next(j for j, slack in enumerate(slacks) if slack < 0), 2)
    return _first_unstepped(slacks, (i, i + gap))


def _base_at(pairs: StringPairs, slacks: list):
    """The base at the first negative slack, given the list of the pairs'
    :func:`staircase_slacks`.  Returns the base, its column indices and the
    number of negative slacks."""
    negative = [j for j, slack in enumerate(slacks) if slack < 0]
    i, gap = divmod(negative[0], 2)
    (x, y), (x2, y2) = pairs.pairs[i], pairs.pairs[i + gap]
    return (CaseII(x, x2, y, y2) if gap else CaseI(x, y)), {i, i + gap}, len(negative)


def normalize_to_base(pairs: StringPairs) -> NormalizedBase:
    """Normalize violated pairs onto a single Case I / Case II base among
    staircase columns.

    The leftmost violation is preserved while all other columns are padded
    to staircase steps; the insertions re-sort globally, so the loop
    re-locates the violation each round until exactly one remains with
    everything else a staircase step.
    """
    if unitarity_test(pairs):
        raise ValueError("normalization requires a staircase violation")
    moves, final, slacks = _pad(pairs, _outside_base)
    base, base_cols, violations = _base_at(final, slacks)
    # staircase steps cannot create violations next to the base, so the base
    # violation is the only one left
    assert violations == 1, (final, violations)
    stein = tuple(col for i, col in enumerate(final.pairs) if i not in base_cols)
    return NormalizedBase(_Steps(pairs, moves) if moves else (), stein, base, final)
