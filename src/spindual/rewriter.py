"""String-pair rewriting by complementary-series induction.

Inducing a shift-1/2 factor whose continuous parameter is the column (dx; dy)
adds its string to the +1/2 residue class.  On the string-pair matrix this is
an integer row operation, and ``_insert`` implements it as one: dx goes into
the x-row and dy into the y-row, both rows re-sort descending and the columns
re-pair by position (an empty column (0; 0), left when a 1/2 joins a (0; y)
string of family B, is dropped).  Repeated insertions normalize a parameter:

* a column with x < y absorbs inserted columns (x+1; x) until the defect
  sum(y) - sum(x) is gone;
* a column with x >= y + 2 absorbs inserted columns (y+1; y+1) until it is a
  staircase step (x - y of 0 or 1, the shape of a shift-1/2 factor).

``normalize_to_base`` keeps the leftmost staircase violation untouched and
pads everything else, landing on a configuration made of shift-1/2 columns
around a single base block: a lone column (a; b) (Case I) or an adjacent
column pair (c d; e f) (Case II).  These base shapes carry the known
indefinite spin-relevant K-types, so the transcript certifies the witness.
"""

from dataclasses import dataclass

from .spinclass import (
    StringPairs, peel_stein_factors, staircase_slacks, unitarity_test,
)
# not called here: bench/tracing.py wraps ``rewriter.extract_pairs`` (its
# ``rewriter.inserts`` span), so the name must still resolve on this module
from .spinclass import extract_pairs  # noqa: F401


@dataclass(frozen=True)
class InductionStep:
    """One insertion: the induced factor has continuous parameter (dx; dy)."""
    dx: int
    dy: int
    before: StringPairs
    after: StringPairs

    @property
    def size(self) -> int:
        return self.dx + self.dy

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


@dataclass(frozen=True)
class NormalizedBase:
    steps: tuple
    stein_columns: tuple       # columns with x - y in {0, 1}
    base: object               # CaseI | CaseII | None
    final: StringPairs


def _insert(pairs: StringPairs, dx: int, dy: int) -> InductionStep:
    """Induce the column (dx; dy): the row operation on the string pairs.

    dx joins the x-row and dy the y-row, both rows re-sort descending and
    the columns re-pair by position; an empty (0; 0) column is dropped.  The
    result equals re-extracting the string pairs of the half-class with the
    string of (dx; dy) added.
    """
    xs = sorted(pairs.xs + (dx,), reverse=True)
    ys = sorted(pairs.ys + (dy,), reverse=True)
    after = StringPairs(pairs.family, tuple(c for c in zip(xs, ys) if c != (0, 0)))
    return InductionStep(dx, dy, pairs, after)


def _is_stein_column(col) -> bool:
    """The shape of a shift-1/2 factor: the column slack of
    :func:`~spindual.spinclass.staircase_slacks` is 0 or 1, which in both
    families means x - y in {0, 1}."""
    x, y = col
    return x - y in (0, 1)


def _pad_column_once(pairs: StringPairs, i: int) -> InductionStep:
    """One padding insertion aimed at column i (which must be non-stein).

    Columns with x < y absorb (x+1; x).  Columns with x >= y + 2 absorb
    (v; v): the leading column climbs one step at a time (v = y + 1), later
    columns jump to the cap set by the previous column's y.
    """
    x, y = pairs.pairs[i]
    if x < y:
        return _insert(pairs, x + 1, x)
    if x >= y + 2:
        if i == 0:
            v = y + 1
        else:
            v = max(y + 1, min(x - 1, pairs.pairs[i - 1][1]))
        return _insert(pairs, v, v)
    raise ValueError("column is already a staircase step")


# Every insertion adds its size to n, so padding ends; but a column (x; 0)
# pads x - 1 times up to n = x^2.  The largest padded n on the benchmark's
# inputs is 1,184, and (x; 0) passes this bound at x = 317.
MAX_PADDED_N = 100_000


class PaddingBoundExceeded(ValueError):
    """Padding would pass :data:`MAX_PADDED_N`."""


def _pad(pairs: StringPairs, target):
    """Pad column ``target(current)`` once per round until it is None."""
    steps = []
    current = pairs
    n = pairs.n
    while (i := target(current)) is not None:
        step = _pad_column_once(current, i)
        steps.append(step)
        current = step.after
        n += step.size
        if n > MAX_PADDED_N:
            raise PaddingBoundExceeded(
                f"padding {pairs} passes the padded-size bound n = {MAX_PADDED_N}")
    return tuple(steps), current


def _first_where(bad):
    """The padding target: the first column (x; y) with bad(x, y), or None."""
    return lambda pairs: next((i for i, col in enumerate(pairs.pairs) if bad(*col)), None)


def pad_case_a(pairs: StringPairs):
    """Flatten columns with x <= y into equal columns by (x+1; x) insertions.

    Each insertion lowers sum(y) - sum(x) by one; the transcript ends when
    every column has x = y.
    """
    if any(x > y for x, y in pairs.pairs):
        raise ValueError("pad_case_a expects columns with x <= y")
    return _pad(pairs, _first_where(lambda x, y: x < y))


def pad_case_b(pairs: StringPairs):
    """Smooth columns with x >= y + 2 into a staircase by (a; a) insertions."""
    return _pad(pairs, _first_where(lambda x, y: x >= y + 2))


def full_staircase(pairs: StringPairs):
    """Pad every column to a staircase step (x - y in {0, 1}).

    This is the plain rewriting transcript: no violation is preserved.
    """
    return _pad(pairs, _first_where(lambda x, y: not _is_stein_column((x, y))))


def _base_at(pairs: StringPairs):
    """The base at the first negative slack j of :func:`staircase_slacks`:
    column j // 2 when j is even, otherwise the gap after it.  Returns the
    base, its column indices and the number of negative slacks."""
    negative = [j for j, slack in enumerate(staircase_slacks(pairs)) if slack < 0]
    assert negative, "violated input cannot normalize to a satisfied shape"
    i = negative[0] // 2
    x, y = pairs.pairs[i]
    if negative[0] % 2 == 0:
        return CaseI(x, y), {i}, len(negative)
    x2, y2 = pairs.pairs[i + 1]
    return CaseII(x, x2, y, y2), {i, i + 1}, len(negative)


def normalize_to_base(pairs: StringPairs) -> NormalizedBase:
    """Normalize onto a single Case I / Case II base among staircase columns.

    On satisfied input the base is None and the stein columns are the peeled
    shift-1/2 factor shapes.  On violated input, the leftmost violation is
    preserved while all other columns are padded to staircase steps; the
    insertions re-sort globally, so the loop re-locates the violation each
    round until exactly one remains with everything else a staircase step.
    """
    if unitarity_test(pairs):
        factors, _ = peel_stein_factors(pairs)
        stein = tuple(((f.a + 1) // 2, f.a // 2) for f in factors)
        return NormalizedBase((), stein, None, pairs)

    def target(current):
        # the insertions re-sort globally: re-locate the base every round
        _, base_cols, _ = _base_at(current)
        return next((i for i, col in enumerate(current.pairs)
                     if i not in base_cols and not _is_stein_column(col)), None)

    steps, current = _pad(pairs, target)
    base, base_cols, violations = _base_at(current)
    # staircase steps cannot create violations next to the base, so the base
    # violation is the only one left
    assert violations == 1, (current, violations)
    stein = tuple(col for i, col in enumerate(current.pairs) if i not in base_cols)
    return NormalizedBase(steps, stein, base, current)
