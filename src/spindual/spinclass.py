"""Unitarity classification for genuine parameters of complex spin groups.

The continuous parameter of a genuine Hermitian module splits into residue
classes mod 2.  Classes away from +-1/2 are GL-blocks handled by
:mod:`spindual.glclass`.  The +-1/2 classes form the core: the +1/2 class is
encoded as *string pairs* -- an integer matrix of column pairs (x_i; y_i)
recording descending step-2 strings through 1/2 (family D) or through
-3/2 / ending at 1/2 (family B).  The strings are the maximal step-2 runs of
the class's multiplicity layers (the chain rule of :mod:`spindual.glclass`).

Unitarity of the core is decided by the staircase inequalities

    D:  x_i >= y_i   and  y_i + 1 >= x_{i+1},
    B:  y_i + 1 >= x_i  and  x_i >= y_{i+1};

strict inequalities give the isolated unipotent representations, equalities
peel off as complementary-series factors at shift 1/2, and any violation is
witnessed on a spin-relevant K-type eta(q) located through the rewriting
engine in :mod:`spindual.rewriter`.  :func:`staircase_slacks` is the one
statement of these inequalities: the unitarity test, peeling and the
rewriter's bases and targets read its slacks.  :func:`unitarity_test` keeps
its verdict on the StringPairs it tested, so peeling, the certificate, the
normalization and the orbit each test their input without a second scan.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from time import perf_counter_ns

from .halfint import vec, fmt, fmt_ints, fmt_vec, ratio, scaled, texts, unscaled, HALF
from .weyl import GenuineParam, GroupTag, _dominant, _mu_blocks
from .glclass import GLStatus, CompParams, _classes_symmetric, _classify_symmetric
from .glclass import _multiplicity_layers, _partition_scaled
# not called here: bench/tracing.py wraps these names on this module
from .glclass import classify_gl, classify_gl_genuine_block  # noqa: F401
from .weyl import dominantize, hermitian_witness  # noqa: F401


class MalformedParameter(ValueError):
    """The half-integral class is not of string-pair shape."""


# ---------------------------------------------------------------------------
# string pairs

# The same small columns recur in every StringPairs the rewriter builds on the
# way to a base, and a verdict keeps the pairs of all its induction steps.
# Columns below the bound are shared tuples, so that retained verdicts hold
# (and the garbage collector walks) few objects.
_SHARED_BOUND = 32
_SHARED_COLUMNS = {(x, y): (x, y)
                   for x in range(_SHARED_BOUND) for y in range(_SHARED_BOUND)}
_INT_ONLY = {int}
_THREE_HALVES, _MINUS_HALF = Fraction(3, 2), -HALF  # the entries of eta(q)


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
    strict core that peeling leaves and the rows of :func:`enumerate_pairs`.
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
# parameter assembly and residue classes

def pairs_to_param(pairs: StringPairs) -> GenuineParam:
    """The doubled parameter attached to string pairs.

    mu is all 1/2 of length 2n; nu is the +1/2 class (descending) followed by
    its negation (descending), matching the Langlands-coordinate convention
    of the classification tables.  It is built from :func:`_pairs_form`.
    """
    form = _pairs_form(pairs)
    return GenuineParam._from_integer_form(GroupTag(pairs.family, len(form[1])), form)


def _pairs_form(pairs: StringPairs) -> tuple:
    """The integer form (L, mu, nu) of :func:`pairs_to_param`: L = 2, mu all
    1, and nu the doubled half-class descending, then its negation
    descending.  The CLI's table rows read their Langlands coordinates off
    it without building the parameter."""
    half = sorted((d for x, y in pairs.pairs for d in _doubled_string(x, y)), reverse=True)
    return 2, (1,) * (2 * len(half)), (*half, *(-d for d in reversed(half)))


def partition_nt(nu) -> dict:
    """Split nu into residue classes: t in (-1,1] with nu_i - t in 2Z.

    Works on nu scaled to integers; each class lists its values descending.
    """
    L, ints = scaled(vec(nu))
    return {ratio(r, L): unscaled(L, ss) for r, ss in _partition_scaled(L, ints).items()}


def _grouped_classes(L: int, classes: dict):
    """Group residue classes of :func:`_partition_scaled` (L even) into
    GL-blocks and the half-integral core.

    Returns (core_plus, gl_blocks): the ints of the class 1/2 and a list of
    (label, [(twist, ints), ...]): each class t other than +-1/2 joins the
    block of t0 = min(|t|, 1-|t|), with twist + when |t| = t0 and -
    otherwise.  The block t0 = 0 is {0 with +, 1 with -} and comes first; the
    others follow in the order of their least class.
    """
    blocks = {0: []}
    for r in sorted(classes):
        if 2 * abs(r) != L:
            r0 = min(abs(r), L - abs(r))
            blocks.setdefault(r0, []).append((1 if abs(r) == r0 else -1, classes[r]))
    gl_blocks = [("t=0,1" if r0 == 0 else f"t={text}", block)
                 for (r0, block), text in zip(blocks.items(), texts(L, blocks)) if block]
    return classes.get(L // 2, []), gl_blocks


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


def peel_stein_factors(pairs: StringPairs):
    """Peel equality columns/gaps into shift-1/2 factors; the rest is strict.

    Each round peels at the leftmost zero slack: a column leaves whole, a gap
    merges its two columns into one, on a plain column list that stays
    doubly non-increasing.  Returns (factors, core) where each factor is a
    CompParams at t = 1/2 and ``core`` is a StringPairs satisfying the strict
    inequalities (or None when everything peels away).  A strict input peels
    nothing and is its own core; otherwise the core is built once, tested,
    and asserted strict, so its test is kept for :func:`orbits.attach_orbit`.
    """
    staircase = unitarity_test(pairs)
    if not staircase:
        raise ValueError("peeling requires the staircase inequalities")
    if staircase.strict:
        return (), (pairs if pairs.pairs else None)
    fam = pairs.family
    factors = []
    cols = list(pairs.pairs)
    while 0 in (slacks := list(staircase_slacks(fam, cols))):
        i, gap = divmod(slacks.index(0), 2)
        if gap:
            (x, y), (x2, y2) = cols[i], cols[i + 1]
            size, merged = (x2 + y, (x, y2)) if fam == "D" else (x + y2, (x2, y))
            cols[i:i + 2] = [merged]
        else:
            size = sum(cols.pop(i))
        factors.append(CompParams(size, HALF))
    core = StringPairs._built(fam, cols)
    assert unitarity_test(core).strict
    return tuple(factors), (core if cols else None)


# ---------------------------------------------------------------------------
# spin-relevant K-types and verdicts

def build_certificate(pairs: StringPairs, gl_factors: tuple = ()) -> "UnitaryCertificate":
    """Certificate of a satisfied parameter: peeled factors, core, orbit, and
    the unitary GL factors of the other residue classes, if any."""
    factors, core = peel_stein_factors(pairs)
    if core is None:
        return UnitaryCertificate(factors, gl_factors)
    return UnitaryCertificate(factors, gl_factors, core, orbits.attach_orbit(core))


def eta_weight(family: str, n: int, q: int) -> tuple:
    """Highest weight of the spin-relevant K-type eta(q) at rank n."""
    _check_eta(family, n, q)
    if family == "D":
        last = HALF if q % 2 == 0 else _MINUS_HALF
        return (_THREE_HALVES,) * q + (HALF,) * (n - q - 1) + (last,)
    return (_THREE_HALVES,) * q + (HALF,) * (n - q)


def _check_eta(family: str, n: int, q: int) -> None:
    """The domain of eta(q) at rank n: 0 <= q <= n - 1 in family D, q <= n in B."""
    if family not in ("B", "D"):
        raise ValueError("family must be 'B' or 'D'")
    if not 0 <= q <= (n - 1 if family == "D" else n):
        raise ValueError(f"eta({q}) undefined at rank {n} in family {family}")


@dataclass(frozen=True)
class SpinRelevantKType:
    """A K-type witnessing indefiniteness.

    ``q`` is the eta-index when the weight is a spin-relevant eta(q) (None
    for lifted GL-block witnesses, which are bottom-layer but not of eta
    shape).  ``group`` is the group the weight lives on: the input group, or
    the larger induced group when the witness of a padded core is read off
    its normalized base.
    """
    q: int
    weight: tuple
    group: GroupTag = None

    def __post_init__(self):
        object.__setattr__(self, "weight", vec(self.weight))
        if self.group is not None and len(self.weight) != self.group.rank:
            raise ValueError(
                f"weight of length {len(self.weight)} on the group {self.group}")

    @classmethod
    def _built(cls, q, weight, group: GroupTag) -> "SpinRelevantKType":
        """The K-type of a weight that spindual built, which its caller vouches
        for: Fractions, ``group.rank`` of them (a tuple, or an eta(q) built on
        first read)."""
        k = object.__new__(cls)
        # set as the dataclass __init__ sets them: reading __dict__ would build
        # a dict object for every witness
        object.__setattr__(k, "q", q)
        object.__setattr__(k, "weight", weight)
        object.__setattr__(k, "group", group)
        return k


@dataclass(frozen=True)
class UnitaryCertificate:
    """Inducing data exhibiting unitarity.

    ``stein_factors`` are the shift-1/2 factors peeled from the half-integral
    core; ``gl_factors`` the unitary factors of the other residue classes;
    ``core`` the strict (unipotent) remainder with its attached orbit.
    """
    stein_factors: tuple = ()
    gl_factors: tuple = ()
    core: StringPairs = None
    orbit: object = None


class Status(Enum):
    NOT_GENUINE = "NotGenuine"
    NOT_HERMITIAN = "NotHermitian"
    UNITARY = "Unitary"
    NON_UNITARY = "NonUnitary"


@dataclass(frozen=True, slots=True)
class StageEvent:
    """What one stage of :func:`classify` did.

    ``stage`` is one of genuine, dominantize, hermitian, gl_block, partition,
    extract_pairs, staircase, certificate, normalize and witness, in that
    pipeline order; ``outcome`` says what the stage found.  ``data`` holds
    the values the transcript line shows and the stage's integer counters;
    :meth:`fields` names them.  Every value compares by value (Fractions,
    ints, strings, tuples, frozen dataclasses), so classifying one parameter
    twice gives equal verdicts.  The ``half_class`` of an extract_pairs event
    is kept as its doubled ints; its tuple of Fractions is built on first
    read, and it prints, compares and hashes as that tuple.  ``elapsed_ns``,
    the time since the previous event, is left out of comparisons and of the
    repr.  :func:`classify` records its events as plain values, and a
    verdict's chain builds these events when it is first read.  Every
    mu-block is split into its residue classes before the Hermitian test,
    which reads them, so the hermitian event's time includes the splits, and
    the partition event times only the GL classes of the mu = 1/2 block.
    """
    stage: str
    outcome: str
    data: tuple = ()
    elapsed_ns: int = field(default=0, compare=False, repr=False)

    def fields(self) -> dict:
        """``data`` by name."""
        names, _ = _EVENTS[self.stage, self.outcome]
        return dict(zip(names, self.data, strict=True))


class _LazyTuple(Sequence):
    """A tuple built from plain values on first read and kept.  It prints,
    compares and hashes as that tuple, but equality with another of its kind
    reads only the values.  A subclass defines ``_build`` (the tuple),
    ``_key`` (the values, equal exactly where the tuples are) and
    ``__len__``."""
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


class _HalfClass(_LazyTuple):
    """The Fractions k/2 of the doubled half-class ints k."""
    __slots__ = ("ints",)

    def __init__(self, ints: tuple):
        self.ints, self._tuple = ints, None

    def _build(self) -> tuple:
        return unscaled(2, self.ints)

    def _key(self) -> tuple:
        return self.ints

    def __len__(self):
        return len(self.ints)

    def __str__(self):
        return fmt_ints(2, self.ints)

    def __reduce__(self):
        # copies and pickles carry the ints, not the built row
        return _HalfClass, (self.ints,)


class _EtaWeight(_LazyTuple):
    """eta(q) at rank n, built by :func:`eta_weight` on first read; the
    domain of q is checked when it is made."""
    __slots__ = ("family", "n", "q")

    def __init__(self, family: str, n: int, q: int):
        _check_eta(family, n, q)
        self.family, self.n, self.q, self._tuple = family, n, q, None

    def _build(self) -> tuple:
        return eta_weight(self.family, self.n, self.q)

    def _key(self) -> tuple:
        # eta(q) of family D ends in -1/2 for odd q; for even q it is B's eta(q)
        return self.n, self.q, self.family == "D" and self.q % 2 == 1

    def __len__(self):
        return self.n

    def __reduce__(self):
        return _EtaWeight, (self.family, self.n, self.q)


@dataclass(frozen=True)
class Verdict:
    """The result of :func:`classify`.  ``chain`` is its sequence of
    StageEvents: a tuple, or the record of a :func:`classify` call, which
    builds its events on first read."""
    status: Status
    certificate: UnitaryCertificate = None
    witness: SpinRelevantKType = None
    chain: tuple = ()
    pairs: StringPairs = None
    normalized: object = None

    def __post_init__(self):
        if (self.status is Status.UNITARY) != (self.certificate is not None):
            raise ValueError("certificate present iff Unitary")

    def __str__(self):
        return "\n".join(transcript(self))


_CERTIFICATE = ("core", "orbit", "stein_factors", "gl_factors")
_WITNESS = ("q", "rank")

# (stage, outcome) -> (names of the data fields, transcript lines).  A name
# in braces in a line is replaced by that field of the event.
_EVENTS = {
    ("genuine", "genuine"): ((), ()),
    ("genuine", "integral mu"): ((), ("mu has integral entries: factors through SO",)),
    ("dominantize", "dominant"): (("param",), ("dominant form: {param}",)),
    ("dominantize", "diagram flip"): (("param",), (
        "dominant form: {param}",
        "diagram flip applied to make the last mu-coordinate positive",
    )),
    ("hermitian", "hermitian"): ((), ()),
    ("hermitian", "not hermitian"): ((), ()),
    ("gl_block", "unitary"): (("mu", "factors"), ()),
    ("gl_block", "non-unitary"): (("mu", "reason"), (
        "GL-block at mu={mu} is non-unitary ({reason}); "
        "the witness lifts by a bottom-layer shift",
    )),
    ("partition", "unitary"): (("classes",), ()),
    ("partition", "non-unitary"): (("label", "reason"), (
        "residue class {label} is non-unitary ({reason})",
    )),
    ("extract_pairs", "empty"): (("half_class", "pairs", "columns"), ()),
    ("extract_pairs", "pairs"): (("half_class", "pairs", "columns"), (
        "half-integral class {half_class} <-> {pairs}",
    )),
    ("extract_pairs", "malformed"): (("error",), (
        "half-integral class is not of string-pair shape: {error}",
    )),
    ("staircase", "strict"): ((), ()),
    ("staircase", "satisfied"): ((), ()),
    ("staircase", "violated"): (("kind", "index"), ()),
    ("certificate", "no core"): (_CERTIFICATE, ()),
    ("certificate", "strict core"): (_CERTIFICATE, (
        "strict core {core} with attached orbit {orbit}",
    )),
    ("normalize", "normalized"): (("kind", "index", "base", "inductions"), (
        "staircase violated at {kind} {index}; "
        "normalized to base {base} after {inductions} inductions",
    )),
    ("witness", "eta"): (_WITNESS, ()),
    ("witness", "lifted"): (_WITNESS, ()),
    ("witness", "adjoint shift"): (_WITNESS, (
        "the adjoint-shift K-type detects indefiniteness",
    )),
}


def render(event: StageEvent) -> tuple:
    """The transcript lines of one stage event; a tuple prints as a vector,
    and a half-class as one, from its ints."""
    _, templates = _EVENTS[event.stage, event.outcome]
    if not templates:
        return ()
    values = {name: fmt_vec(v) if isinstance(v, tuple) else v
              for name, v in event.fields().items()}
    return tuple(t.format_map(values) for t in templates)


def transcript(verdict: Verdict):
    """The text transcript of a verdict, rendered line by line from its events."""
    for event in verdict.chain:
        yield from render(event)


# the slots of StageEvent, written past its frozen __setattr__
_SET_STAGE, _SET_OUTCOME, _SET_DATA, _SET_ELAPSED = (
    StageEvent.stage.__set__, StageEvent.outcome.__set__,
    StageEvent.data.__set__, StageEvent.elapsed_ns.__set__)


class _Stages(_LazyTuple):
    """The stage record of one :func:`classify` call, and the chain of its
    verdict.  ``entries`` is one flat list: the start of the call, then the
    stage, outcome, data and end time of each event, so that each event is
    timed from the one before it.  The StageEvents are built on first read;
    equality reads the entries without their times, as events leave
    ``elapsed_ns`` out."""
    __slots__ = ("entries",)

    def __init__(self, entries: list = None):
        self.entries = [perf_counter_ns()] if entries is None else entries
        self._tuple = None

    def record(self, stage: str, outcome: str, *data):
        self.entries.extend((stage, outcome, data, perf_counter_ns()))

    def _build(self) -> tuple:
        e = self.entries
        events = []
        for i in range(0, len(e) - 1, 4):
            # filled slot by slot: the frozen dataclass __init__ costs twice as much
            event = object.__new__(StageEvent)
            _SET_STAGE(event, e[i + 1])
            _SET_OUTCOME(event, e[i + 2])
            _SET_DATA(event, e[i + 3])
            _SET_ELAPSED(event, e[i + 4] - e[i])
            events.append(event)
        return tuple(events)

    def _key(self) -> tuple:
        e = self.entries
        return e[1::4], e[2::4], e[3::4]

    def __len__(self):
        return len(self.entries) // 4

    def __reduce__(self):
        # copies and pickles carry the entries, not the built events
        return _Stages, (self.entries,)

    def verdict(self, status: Status, **fields) -> Verdict:
        return Verdict(status, chain=self, **fields)

    def non_unitary(self, wit, outcome: str, **fields) -> Verdict:
        """Record the witness stage and return the NonUnitary verdict."""
        self.record("witness", outcome, wit.q, wit.group.rank)
        return self.verdict(Status.NON_UNITARY, witness=wit, **fields)


def _embed_block_shift(L, mu_ints, start, shift):
    """The Fractions of mu plus an integer shift supported on the positions
    from start on, with mu given by its integer form."""
    out = list(mu_ints)
    for i, s in enumerate(shift):
        out[start + i] += L * s
    return unscaled(L, out)


def _eta_witness_full(mu, start, group, q) -> SpinRelevantKType:
    """eta(q) of the D/B-factor on the mu = 1/2 block mu[start:], lifted to
    mu: the block shifted by eta(q) - 1/2 is the pattern eta(q) itself.  When
    the block is all of mu, the weight is eta(q) on the group, built on first
    read."""
    if start == 0:
        return SpinRelevantKType._built(q, _EtaWeight(group.family, len(mu), q), group)
    pattern = eta_weight(group.family, len(mu) - start, q)
    return SpinRelevantKType._built(q, mu[:start] + pattern, group)


def classify(p: GenuineParam) -> Verdict:
    """End-to-end classification of a genuine parameter.

    Pipeline: genuineness, dominance normalization, Hermitian check, then the
    mu-blocks: blocks of value (2r-1)/2 with r >= 2 are GL-blocks; the value
    1/2 block splits into residue classes, with the +-1/2 core handled by
    string pairs and the staircase criterion.  Every mu-block is split into
    its residue classes once, before the Hermitian check, which reads them:
    so the hermitian event's time includes the splits, and the partition
    event's covers only the GL classes of the mu = 1/2 block.  Each stage
    records an event in ``Verdict.chain``, which builds the
    :class:`StageEvent`s on first read; :func:`transcript` renders them.
    """
    stages = _Stages()
    if not p.is_genuine():
        stages.record("genuine", "integral mu")
        return stages.verdict(Status.NOT_GENUINE)
    stages.record("genuine", "genuine")
    q0, outer, _ = _dominant(p)
    stages.record("dominantize", "diagram flip" if outer else "dominant", q0)
    L, mu_ints, nu_ints = q0.integer_form
    blocks = [(m, start, _partition_scaled(L, nu_ints[start:stop]))
              for m, start, stop in _mu_blocks(mu_ints)]
    # q0 is genuine, so no mu-entry is 0 and no sign flip is available: it is
    # Hermitian exactly when each block's nu is closed under negation
    if not all(_classes_symmetric(L, classes) for _, _, classes in blocks):
        stages.record("hermitian", "not hermitian")
        return stages.verdict(Status.NOT_HERMITIAN)
    stages.record("hermitian", "hermitian")
    gl_factors = []
    # the dominant mu descends, so the mu = 1/2 block, if any, is the last
    # one, and the blocks before it are GL-blocks, of mu-value (2r-1)/2 with
    # r >= 2, each one twist
    for m, start, classes in blocks:
        if 2 * m == L:
            break
        value = ratio(m, L)
        glv = _classify_symmetric(L, zip(repeat(1), classes.values()))
        if glv.status is GLStatus.NON_UNITARY:
            stages.record("gl_block", "non-unitary", value, glv.reason)
            weight = _embed_block_shift(L, mu_ints, start, glv.witness)
            return stages.non_unitary(SpinRelevantKType._built(None, weight, p.group), "lifted")
        stages.record("gl_block", "unitary", value, len(glv.factors))
        label = fmt(value)
        gl_factors.extend((label, f) for f in glv.factors)
    else:
        stages.record("certificate", "no core", None, None, 0, len(gl_factors))
        cert = UnitaryCertificate(gl_factors=tuple(gl_factors))
        return stages.verdict(Status.UNITARY, certificate=cert)
    core_plus, blocks_gl = _grouped_classes(L, classes)
    for label, block in blocks_gl:
        # closed under (value, twist) negation, as the mu = 1/2 block's nu is
        glv = _classify_symmetric(L, block)
        if glv.status is GLStatus.NON_UNITARY:
            stages.record("partition", "non-unitary", label, glv.reason)
            return stages.non_unitary(_eta_witness_full(q0.mu, start, p.group, glv.q), "eta")
        gl_factors.extend((label, f) for f in glv.factors)
    stages.record("partition", "unitary", len(classes))
    # the +-1/2 core as string pairs
    # the class is 1/2 mod 2, so each doubled value L*v // (L/2) is an int;
    # at L = 2 the class holds the doubled values already
    doubled = core_plus if L == 2 else [s // (L // 2) for s in core_plus]
    try:
        pairs = _pairs_from_doubled(p.group.family, doubled)
    except MalformedParameter as exc:
        # the message, not the exception: exceptions compare by identity
        stages.record("extract_pairs", "malformed", str(exc))
        return stages.non_unitary(_eta_witness_full(q0.mu, start, p.group, 1), "adjoint shift")
    stages.record("extract_pairs", "pairs" if core_plus else "empty",
                  _HalfClass(tuple(doubled)), pairs, pairs.k)
    return _pairs_verdict(stages, pairs, tuple(gl_factors), q0, start)


def classify_pairs(pairs: StringPairs) -> Verdict:
    """``classify(pairs_to_param(pairs))``, decided from the pairs.

    That parameter is genuine, dominant and Hermitian, its nu holds the two
    residue classes +-1/2 with the half-class first, and the pairs extracted
    from it are ``pairs`` again; so the front-end events are recorded as
    they stand and the pairs go straight to the staircase test.
    """
    p = pairs_to_param(pairs)
    stages = _Stages()
    stages.record("genuine", "genuine")
    stages.record("dominantize", "dominant", p)
    stages.record("hermitian", "hermitian")
    stages.record("partition", "unitary", 2)
    stages.record("extract_pairs", "pairs", _HalfClass(p.integer_form[2][:pairs.n]),
                  pairs, pairs.k)
    return _pairs_verdict(stages, pairs, (), p, 0)


def _pairs_verdict(stages: _Stages, pairs: StringPairs, gl_factors: tuple,
                   q0: GenuineParam, start: int) -> Verdict:
    """The stages after extract_pairs, on the string pairs of the mu = 1/2
    block, from start on, of the dominant parameter q0: staircase, then
    certificate, or normalize and witness."""
    result = unitarity_test(pairs)
    if result:
        stages.record("staircase", "strict" if result.strict else "satisfied")
        cert = build_certificate(pairs, gl_factors)
        stages.record("certificate", "strict core" if cert.core is not None else "no core",
                      cert.core, cert.orbit, len(cert.stein_factors), len(gl_factors))
        return stages.verdict(Status.UNITARY, certificate=cert, pairs=pairs)
    stages.record("staircase", "violated", result.kind, result.index)
    normal = rewriter.normalize_to_base(pairs)
    stages.record("normalize", "normalized", result.kind, result.index,
                  normal.base, len(normal.moves))
    # without padding the witness lives on the original group
    wit = witness(pairs, normal) if normal.moves else _eta_witness_full(
        q0.mu, start, q0.group, _eta_index(pairs.family, normal.base))
    return stages.non_unitary(wit, "eta", pairs=pairs, normalized=normal)


def witness(pairs: StringPairs, normal_form) -> SpinRelevantKType:
    """The spin-relevant K-type detecting indefiniteness, from a normalized base.

    Case I and Case II bases give eta(2a+1) / eta(2e+2) in family D and
    eta(2b+2) / eta(2c+1) in family B, at the rank of the normalized group,
    which is the group the returned K-type names.
    """
    fam, n2 = pairs.family, 2 * normal_form.final.n
    q = _eta_index(fam, normal_form.base)
    return SpinRelevantKType._built(q, _EtaWeight(fam, n2, q), GroupTag(fam, n2))


def _eta_index(family: str, base) -> int:
    """q of the witness eta(q) that a Case I / Case II base carries."""
    if isinstance(base, rewriter.CaseI):
        return 2 * base.a + 1 if family == "D" else 2 * base.b + 2
    return 2 * base.e + 2 if family == "D" else 2 * base.c + 1


# ---------------------------------------------------------------------------
# enumeration

def enumerate_pairs(family: str, n: int):
    """All StringPairs with sum x_i + y_i = n, in table order.

    Table order: x-rows descending lexicographically (longer rows first on
    equal prefixes), then y-rows ascending.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # the rows are built unchecked, so the family is checked here
    if family not in ("B", "D"):
        raise ValueError("family must be 'B' or 'D'")

    results = []
    x_low = 1 if family == "D" else 0

    def extend(cols, remaining, last_x, last_y):
        # both rows non-increasing: each column fits under the one before
        if remaining == 0:
            results.append(StringPairs._built(family, cols))
            return
        for x in range(min(last_x, remaining), x_low - 1, -1):
            for y in range(min(last_y, remaining - x), -1, -1):
                if x or y:
                    extend(cols + [(x, y)], remaining - (x + y), x, y)

    extend([], n, n, n)
    yield from sorted(results, key=_table_key)


def _table_key(p: StringPairs):
    # x-rows descending lexicographically; the +1 sentinel makes a row sort
    # before its proper prefixes ((3 1; ..) precedes (3; ..)); y-rows ascend
    return (tuple(-x for x in p.xs) + (1,), p.ys)


# rewriter and orbits import this module, so they are bound once it is
# complete; callers read their functions at call time, where a wrapper (such
# as the benchmark's spans) may have replaced them
from . import orbits, rewriter  # noqa: E402
