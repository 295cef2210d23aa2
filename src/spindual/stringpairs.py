"""String pairs of the +1/2 residue class and the staircase test.

The +1/2 class of the core is encoded as *string pairs* -- an integer matrix
of column pairs (x_i; y_i) recording descending step-2 strings through 1/2
(family D) or through -3/2 / ending at 1/2 (family B).  The strings are the
maximal step-2 runs of the class's multiplicity layers (the chain rule of
:mod:`spindual.glclass`).  Unitarity of the core is decided by the staircase
inequalities

    D:  x_i >= y_i   and  y_i + 1 >= x_{i+1},
    B:  y_i + 1 >= x_i  and  x_i >= y_{i+1}.

:func:`staircase_slacks` is the one statement of these inequalities: the
unitarity test, peeling and the rewriter's bases and targets read its
slacks.  :func:`unitarity_test` keeps its verdict on the StringPairs it
tested, so peeling, the certificate, the normalization and the orbit each
test their input without a second scan.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .halfint import vec, fmt_ints, unscaled
from .glclass import _multiplicity_layers


class MalformedParameter(ValueError):
    """The half-integral class is not of string-pair shape."""


# ---------------------------------------------------------------------------
# string pairs

# The same small columns recur in the StringPairs that a verdict keeps: the
# extraction, the padding's final state, the peeled core, and the rows of the
# table enumeration.  Columns below the bound are shared tuples, so that
# retained verdicts hold (and the garbage collector walks) few objects.
# Without sharing, the memory kept per verdict of one round of the 2,862
# string_tables rows rises from 2.26 to 2.65 KiB (+17%, tracemalloc).
_SHARED_BOUND = 32
_SHARED_COLUMNS = {(x, y): (x, y)
                   for x in range(_SHARED_BOUND) for y in range(_SHARED_BOUND)}
_INT_ONLY = {int}


@dataclass(frozen=True)
class StringPairs:
    """Column pairs (x_i; y_i), both rows non-increasing.

    Family D requires x_i >= 1 (every string passes through 1/2).  Family B
    admits x_i = 0 columns (strings topping out at -3/2) or y_i = 0 columns
    (strings ending at 1/2), but not both kinds at once; this exclusion is
    forced by the double-descent requirement.

    The public constructor checks all of this, as do the extraction from a
    half-class and the CLI, which read outside input.  The pairs that
    spindual derives from valid pairs are built by ``_built`` without the
    checks: the padded states of the rewriter and the steps it replays, the
    strict core that peeling leaves and the rows of the table enumeration.
    Each is valid by construction and equals its public construction, and
    a ``classify`` call would otherwise re-check several of them.
    """
    family: str
    pairs: tuple
    # the result of unitarity_test, stored on the instance by its first test
    _staircase = None

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise ValueError("family must be 'B' or 'D'")
        columns = tuple((x, y) for x, y in self.pairs)
        # bool is an int subclass, and int() would truncate 2.5 or parse "3"
        if not set(map(type, chain.from_iterable(columns))) <= _INT_ONLY:
            raise TypeError(f"string-pair entries must be ints, not {columns}")
        pairs = tuple(map(_SHARED_COLUMNS.get, columns, columns))
        # descending (x, y) is ascending (-x, -y): x descends, ties by y
        ordered = tuple(sorted(pairs, reverse=True))
        object.__setattr__(self, "pairs", ordered)
        ys = [y for _, y in ordered]
        if ys != sorted(ys, reverse=True):
            raise MalformedParameter(
                f"columns {pairs} admit no doubly non-increasing arrangement"
            )
        # both rows descend, so the last column holds the least x and the
        # least y, and an empty column could only be the last one
        if not ordered or (ordered[-1][0] >= (1 if self.family == "D" else 0)
                           and ordered[-1][1] >= 0 and ordered[-1] != (0, 0)):
            return
        # some column fails: find the first, for its message
        for x, y in ordered:
            if x < 0 or y < 0:
                raise MalformedParameter("negative string lengths")
            if self.family == "D" and x < 1:
                raise MalformedParameter("family D requires x_i >= 1")
            if x == 0 and y == 0:
                raise MalformedParameter("empty column")

    @classmethod
    def _built(cls, family: str, columns) -> "StringPairs":
        """The pairs of columns that spindual derived from valid pairs, which
        its caller vouches for: a sequence of int columns, doubly
        non-increasing, in range for the family.  Only the columns are
        shared, as the public constructor shares them."""
        p = object.__new__(cls)
        # set as the dataclass __init__ sets them: reading __dict__ would build
        # a dict object, which the staircase memo would then make GC-tracked
        object.__setattr__(p, "family", family)
        object.__setattr__(p, "pairs", tuple(map(_SHARED_COLUMNS.get, columns, columns)))
        return p

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def n(self) -> int:
        return sum(map(sum, self.pairs))

    @property
    def xs(self):
        return tuple(x for x, _ in self.pairs)

    @property
    def ys(self):
        return tuple(y for _, y in self.pairs)

    def __getstate__(self):
        # copies and pickles carry the fields, not the staircase memo
        return {"family": self.family, "pairs": self.pairs}

    def __str__(self):
        return "(" + " ".join(str(x) for x in self.xs) + "; " \
            + " ".join(str(y) for y in self.ys) + ")"


def _doubled_string(x: int, y: int) -> range:
    """The doubled values 4x-3, 4x-7, ..., 1-4y of the column (x; y): its
    descending step-2 string from 2x-3/2 down to 1/2-2y."""
    return range(4 * x - 3, -4 * y, -4)


# ---------------------------------------------------------------------------
# string extraction

def _doubled(n_half) -> list:
    """The values 2v of a +1/2 residue class: odd integers congruent to 1 mod 4.

    Doubling turns the step-2 strings of the class into step-4 runs of
    plain ints, on which the extraction below works.
    """
    doubled = []
    for v in vec(n_half):
        # v = p/2 in lowest terms with p = 1 mod 4, exactly when v = 1/2 mod 2
        if v.denominator != 2 or v.numerator % 4 != 1:
            raise MalformedParameter("values must be congruent to 1/2 mod 2")
        doubled.append(v.numerator)
    return doubled


def _runs(doubled) -> list:
    """The strings of a +1/2 residue class given by its doubled values: the
    maximal step-4 runs of its multiplicity layers, as (top, bottom) pairs,
    longest first, then largest top first."""
    runs = []
    for layer in _multiplicity_layers(doubled):
        top = layer[0]
        # distinct values descend by at least 4, so this span means one run
        if top - layer[-1] != 4 * (len(layer) - 1):
            for hi, lo in zip(layer, layer[1:]):
                if hi - lo != 4:
                    runs.append((top, hi))
                    top = lo
        runs.append((top, layer[-1]))
    runs.sort(key=lambda run: (run[0] - run[1], run[0]), reverse=True)
    return runs


def _split_betas(runs):
    """The runs through -3/2 (the doubled value -3) and the others, in order."""
    betas, others = [], []
    for run in runs:
        (betas if run[1] <= -3 <= run[0] else others).append(run)
    return betas, others


def _columns(runs) -> tuple:
    """The column (x, y) of each doubled run: the run from 2x-3/2 down to
    1/2-2y, inverting :func:`_doubled_string`."""
    return tuple(((top + 3) // 4, (1 - bottom) // 4) for top, bottom in runs)


def _pairs_from_doubled(family: str, doubled) -> StringPairs:
    """String pairs of a +1/2 residue class given by its doubled values.

    Family D: every maximal step-2 run must pass through 1/2; the run from
    2x-3/2 down to 1/2-2y becomes the column (x, y).  Family B: beta runs
    (through -3/2) give columns with y >= 1 and x >= 0; alpha runs must be
    step-2 strings ending exactly at 1/2 and give columns (x, 0).
    """
    runs = _runs(doubled)
    if family == "D":
        for top, bottom in runs:
            if top < 1 or bottom > 1:
                raise MalformedParameter(
                    f"string {fmt_ints(2, range(top, bottom - 1, -4))} does not pass through 1/2"
                )
        return StringPairs("D", _columns(runs))
    betas, others = _split_betas(runs)
    # a run through 1/2 but not -3/2 ends at 1/2
    alphas = [run for run in others if run[1] == 1]
    if len(alphas) < len(others):
        rest = sorted(v for top, bottom in others if bottom != 1
                      for v in range(bottom, top + 1, 4))
        raise MalformedParameter(
            f"remaining values {fmt_ints(2, rest)} "
            "contain no string ending at 1/2"
        )
    return StringPairs("B", _columns(betas + alphas))


def decompose_alpha_beta(n_half):
    """Family B splitting: beta strings are the maximal runs through -3/2 of
    the multiplicity layers; alpha is whatever remains, in ascending order.
    """
    betas, others = _split_betas(_runs(_doubled(n_half)))
    alpha = unscaled(2, sorted(v for top, bottom in others for v in range(bottom, top + 1, 4)))
    betas_asc = tuple(unscaled(2, range(bottom, top + 1, 4)) for top, bottom in betas)
    return alpha, betas_asc


def extract_pairs(family: str, n_half) -> StringPairs:
    """String pairs of a +1/2 residue class for family B or D."""
    if family not in ("B", "D"):
        raise ValueError("family must be 'B' or 'D'")
    return _pairs_from_doubled(family, _doubled(n_half))


# ---------------------------------------------------------------------------
# the unitarity criterion

@dataclass(frozen=True)
class UnitarityResult:
    satisfied: bool
    strict: bool = False
    index: int = None          # 1-based column or gap index of the violation
    kind: str = ""             # "column" or "gap"

    def __bool__(self):
        return self.satisfied


# the two satisfied results, shared by every test
_SATISFIED, _STRICT = UnitarityResult(True), UnitarityResult(True, strict=True)


def staircase_slacks(family: str, cols):
    """The staircase inequalities of columns (x_i; y_i) as integer slacks.

    Entry 2i is column i and entry 2i+1 the gap between columns i and i+1:

        D:  x_i - y_i       and  y_i + 1 - x_{i+1},
        B:  y_i + 1 - x_i   and  x_i - y_{i+1}.

    An inequality holds when its slack is >= 0 and is strict when it is > 0.
    The slacks come lazily, left to right; padding and peeling list them once per round.
    """
    d = family == "D"
    gap_from = None             # y_i in family D, x_i in family B
    for x, y in cols:
        if gap_from is not None:
            yield gap_from + 1 - x if d else gap_from - y
        yield x - y if d else y + 1 - x
        gap_from = y if d else x


def unitarity_test(pairs: StringPairs) -> UnitarityResult:
    """The staircase inequalities, reporting the leftmost violation.

    ``strict`` means every slack is positive, i.e. the parameter is an
    isolated unipotent one.  Empty pairs are satisfied and strict.  The
    result is kept on ``pairs``: a second test of the same instance reads it.
    """
    if (result := pairs._staircase) is None:
        slacks = list(staircase_slacks(pairs.family, pairs.pairs))
        for j, slack in enumerate(slacks):
            if slack < 0:
                result = UnitarityResult(False, index=j // 2 + 1, kind=("column", "gap")[j % 2])
                break
        else:
            result = _STRICT if 0 not in slacks else _SATISFIED
        object.__setattr__(pairs, "_staircase", result)
    return result


class _LazyTuple(Sequence):
    """A tuple built from plain values on first read and kept: the base of the
    verdicts' half-classes, chains and eta(q) weights and of the rewriter's
    steps.  It prints, compares and hashes as that tuple, but equality with
    another of its kind reads only the values.  A subclass defines ``_build``
    (the tuple), ``_key`` (the values, equal exactly where the tuples are)
    and ``__len__``; its ``__slots__`` are its constructor's arguments, in
    order, which is what its copies and pickles carry."""
    __slots__ = ("_tuple",)

    def _built(self) -> tuple:
        if self._tuple is None:
            self._tuple = self._build()
        return self._tuple

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return self._built() == other

    def __hash__(self):
        return hash(self._built())

    def __repr__(self):
        return repr(self._built())

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
