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

from .spinclass import StringPairs, peel_stein_factors, unitarity_test
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

    def __str__(self):
        return f"CaseI(a={self.a}, b={self.b})"


@dataclass(frozen=True)
class CaseII:
    c: int
    d: int
    e: int
    f: int

    def __str__(self):
        return f"CaseII(c={self.c}, d={self.d}, e={self.e}, f={self.f})"


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
    x, y = col
    return x - y in (0, 1)


def _violations(pairs: StringPairs):
    """Ordered violation positions: ('column', i) or ('gap', i), 0-based."""
    out = []
    xs, ys, fam = pairs.xs, pairs.ys, pairs.family
    for i in range(pairs.k):
        if fam == "D" and xs[i] < ys[i]:
            out.append(("column", i))
        if fam == "B" and xs[i] > ys[i] + 1:
            out.append(("column", i))
        if i + 1 < pairs.k:
            if fam == "D" and ys[i] + 1 < xs[i + 1]:
                out.append(("gap", i))
            if fam == "B" and xs[i] < ys[i + 1]:
                out.append(("gap", i))
    return out


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


def pad_case_a(pairs: StringPairs):
    """Flatten columns with x <= y into equal columns by (x+1; x) insertions.

    Each insertion lowers sum(y) - sum(x) by one; the transcript ends when
    every column has x = y.
    """
    if any(x > y for x, y in pairs.pairs):
        raise ValueError("pad_case_a expects columns with x <= y")
    steps = []
    current = pairs
    while any(x < y for x, y in current.pairs):
        i = next(i for i, (x, y) in enumerate(current.pairs) if x < y)
        step = _pad_column_once(current, i)
        steps.append(step)
        current = step.after
    return tuple(steps), current


def pad_case_b(pairs: StringPairs):
    """Smooth columns with x >= y + 2 into a staircase by (a; a) insertions."""
    steps = []
    current = pairs
    while any(x >= y + 2 for x, y in current.pairs):
        i = next(i for i, (x, y) in enumerate(current.pairs) if x >= y + 2)
        step = _pad_column_once(current, i)
        steps.append(step)
        current = step.after
    return tuple(steps), current


def full_staircase(pairs: StringPairs):
    """Pad every column to a staircase step (x - y in {0, 1}).

    This is the plain rewriting transcript: no violation is preserved.
    """
    steps = []
    current = pairs
    while True:
        bad = next(
            (i for i, col in enumerate(current.pairs) if not _is_stein_column(col)),
            None,
        )
        if bad is None:
            return tuple(steps), current
        step = _pad_column_once(current, bad)
        steps.append(step)
        current = step.after
        if len(steps) > 10000:  # pragma: no cover
            raise RuntimeError("padding failed to terminate")


def _base_at(pairs: StringPairs, violation):
    kind, i = violation
    if kind == "column":
        x, y = pairs.pairs[i]
        return CaseI(x, y), {i}
    x, y = pairs.pairs[i]
    x2, y2 = pairs.pairs[i + 1]
    return CaseII(x, x2, y, y2), {i, i + 1}


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
    steps = []
    current = pairs
    while True:
        viols = _violations(current)
        assert viols, "violated input cannot normalize to a satisfied shape"
        base, base_cols = _base_at(current, viols[0])
        bad = next(
            (
                i for i, col in enumerate(current.pairs)
                if i not in base_cols and not _is_stein_column(col)
            ),
            None,
        )
        if bad is None:
            # staircase steps cannot create violations next to the base, so
            # the base violation is the only one left
            assert len(viols) == 1, (current, viols)
            stein = tuple(
                col for i, col in enumerate(current.pairs) if i not in base_cols
            )
            return NormalizedBase(tuple(steps), stein, base, current)
        step = _pad_column_once(current, bad)
        steps.append(step)
        current = step.after
        if len(steps) > 10000:  # pragma: no cover
            raise RuntimeError("normalization failed to terminate")
