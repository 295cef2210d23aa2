"""Unitarity classification for genuine parameters of complex spin groups.

The continuous parameter of a genuine Hermitian module splits into residue
classes mod 2.  Classes away from +-1/2 are GL-blocks handled by
:mod:`spindual.glclass`.  The +-1/2 classes form the core: the +1/2 class is
encoded as *string pairs* -- an integer matrix of column pairs (x_i; y_i)
recording descending step-2 strings through 1/2 (family D) or anchored at
-3/2 / ending at 1/2 (family B).

Unitarity of the core is decided by the staircase inequalities

    D:  x_i >= y_i   and  y_i + 1 >= x_{i+1},
    B:  y_i + 1 >= x_i  and  x_i >= y_{i+1};

strict inequalities give the isolated unipotent representations, equalities
peel off as complementary-series factors at shift 1/2, and any violation is
witnessed on a spin-relevant K-type eta(q) located through the rewriting
engine in :mod:`spindual.rewriter`.  :func:`staircase_slacks` is the one
statement of these inequalities: the unitarity test, peeling, the rewriter's
violations and the orbit module's strictness check all read its slacks.
"""

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from time import perf_counter_ns

from .halfint import vec, fmt, fmt_vec, residue, scaled, HALF
from .weyl import GenuineParam, GroupTag, dominantize, _mu_blocks
from .glclass import GLStatus, CompParams, _classify_scaled
# not called here: bench/tracing.py wraps these names on this module
from .glclass import classify_gl, classify_gl_genuine_block  # noqa: F401
from .weyl import hermitian_witness  # noqa: F401


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


@dataclass(frozen=True)
class StringPairs:
    """Column pairs (x_i; y_i), both rows non-increasing.

    Family D requires x_i >= 1 (every string passes through 1/2).  Family B
    admits x_i = 0 columns (strings topping out at -3/2) or y_i = 0 columns
    (strings ending at 1/2), but not both kinds at once; this exclusion is
    forced by the double-descent requirement.
    """
    family: str
    pairs: tuple

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

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def n(self) -> int:
        return sum(x + y for x, y in self.pairs)

    @property
    def xs(self):
        return tuple(x for x, _ in self.pairs)

    @property
    def ys(self):
        return tuple(y for _, y in self.pairs)

    def __str__(self):
        return "(" + " ".join(str(x) for x in self.xs) + "; " \
            + " ".join(str(y) for y in self.ys) + ")"

    def half_class(self) -> tuple:
        """The multiset of string values, descending: the +1/2 residue class."""
        return tuple(sorted((v for x, y in self.pairs for v in string_of_column(x, y)),
                            reverse=True))


def string_of_column(x: int, y: int) -> tuple:
    """The descending step-2 string from 2x-3/2 down to 1/2-2y."""
    return _halves(_doubled_string(x, y))


def _doubled_string(x: int, y: int) -> range:
    """The doubled values 4x-3, 4x-7, ..., 1-4y of :func:`string_of_column`."""
    return range(4 * x - 3, -4 * y, -4)


# ---------------------------------------------------------------------------
# parameter assembly and residue classes

def pairs_to_param(pairs: StringPairs) -> GenuineParam:
    """The doubled parameter attached to string pairs.

    mu is all 1/2 of length 2n; nu is the +1/2 class (descending) followed by
    its negation (descending), matching the Langlands-coordinate convention
    of the classification tables.  Its integer form (L = 2) is built first.
    """
    half = sorted((d for x, y in pairs.pairs for d in _doubled_string(x, y)), reverse=True)
    doubled = (*half, *(-d for d in reversed(half)))
    n2 = 2 * pairs.n
    return GenuineParam._with_integer_form(GroupTag(pairs.family, n2), (HALF,) * n2,
                                           _halves(doubled), (2, (1,) * n2, doubled))


def _partition_scaled(L: int, ints) -> dict:
    """Residue classes of the values ints/L in order of first occurrence,
    as L*t -> the ints of the class t, descending."""
    classes = {}
    modulus = 2 * L
    for s in ints:
        classes.setdefault(s % modulus, []).append(s)
    # s mod 2L names the class; residue moves it into (-L, L] once per class
    return {residue(r, L): sorted(ss, reverse=True) for r, ss in classes.items()}


def partition_nt(nu) -> dict:
    """Split nu into residue classes: t in (-1,1] with nu_i - t in 2Z.

    Works on nu scaled to integers; each class lists its values descending.
    """
    nu = vec(nu)
    L, ints = scaled(nu)
    value_of = dict(zip(ints, nu))
    return {Fraction(r, L): tuple(value_of[s] for s in ss)
            for r, ss in _partition_scaled(L, ints).items()}


def _grouped_classes(L: int, classes: dict):
    """Merge residue classes of :func:`_partition_scaled` (L even) into
    GL-blocks and the half-integral core.

    Returns (core_plus, core_minus, gl_blocks): the ints of the classes +-1/2
    and a list of (label, ints, twists): each class t other than +-1/2 joins
    the block of t0 = min(|t|, 1-|t|), with twist + when |t| = t0 and -
    otherwise.  The block t0 = 0 is {0 with +, 1 with -} and comes first; the
    others follow in the order of their least class.
    """
    blocks = {0: ([], [])}
    for r in sorted(classes):
        if 2 * abs(r) != L:
            r0 = min(abs(r), L - abs(r))
            ints, twists = blocks.setdefault(r0, ([], []))
            ints += classes[r]
            twists += [1 if abs(r) == r0 else -1] * len(classes[r])
    gl_blocks = [("t=0,1" if r0 == 0 else f"t={fmt(Fraction(r0, L))}", ints, twists)
                 for r0, (ints, twists) in blocks.items() if ints]
    return classes.get(L // 2, []), classes.get(-(L // 2), []), gl_blocks


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


def _halves(doubled) -> tuple:
    """Back from doubled values to the Fractions v."""
    return tuple(Fraction(d, 2) for d in doubled)


def _extract_runs(doubled, anchor=None):
    """Greedy maximal step-4 runs from a multiset of doubled values.

    With ``anchor`` set, each extracted run is the maximal run through the
    anchor value (used for family B); otherwise the longest run overall,
    ties resolved toward the largest top.  Returns the runs as (top, bottom)
    pairs, in extraction order, and the dict value -> count of what is left.
    A dict passed as ``doubled`` (such a remainder) is read as counts.
    """
    # counted at C speed; the runs are then taken off a plain dict
    counts = dict(Counter(doubled))
    runs = []
    while counts:
        if anchor is not None:
            if anchor not in counts:
                break
            lo = anchor
            while lo - 4 in counts:
                lo -= 4
            hi = anchor
            while hi + 4 in counts:
                hi += 4
        else:
            best = None
            for v in sorted(counts, reverse=True):
                if v + 4 in counts:
                    continue  # not a top
                lo = v
                while lo - 4 in counts:
                    lo -= 4
                if best is None or v - lo > best[0]:
                    best = (v - lo, v, lo)
            _, hi, lo = best
        for v in range(hi, lo - 1, -4):
            c = counts[v] - 1
            if c:
                counts[v] = c
            else:
                del counts[v]
        runs.append((hi, lo))
    return runs, counts


def _ascending(counts) -> list:
    """The multiset of a dict value -> count, ascending."""
    return sorted([v for v, c in counts.items() for _ in range(c)])


def _columns(runs) -> tuple:
    """The column (x, y) of each doubled run: the run from 2x-3/2 down to
    1/2-2y, inverting :func:`string_of_column`."""
    return tuple(((top + 3) // 4, (1 - bottom) // 4) for top, bottom in runs)


def _pairs_from_doubled(family: str, doubled) -> StringPairs:
    """String pairs of a +1/2 residue class given by its doubled values.

    Family D: every maximal step-2 run must pass through 1/2; the run from
    2x-3/2 down to 1/2-2y becomes the column (x, y).  Family B: beta runs
    (through -3/2) give columns with y >= 1 and x >= 0; alpha runs must be
    step-2 strings ending exactly at 1/2 and give columns (x, 0).
    """
    if family == "D":
        runs, _ = _extract_runs(doubled)
        for top, bottom in runs:
            if top < 1 or bottom > 1:
                run = _halves(range(top, bottom - 1, -4))
                raise MalformedParameter(
                    f"string {fmt_vec(run)} does not pass through 1/2"
                )
        return StringPairs("D", _columns(runs))
    betas, rest = _extract_runs(doubled, anchor=-3)
    # no -3/2 is left, so a run through 1/2 ends there
    alphas, rest = _extract_runs(rest, anchor=1)
    if rest:
        raise MalformedParameter(
            f"remaining values {fmt_vec(_halves(_ascending(rest)))} "
            "contain no string ending at 1/2"
        )
    return StringPairs("B", _columns(betas + alphas))


def decompose_alpha_beta(n_half):
    """Family B splitting: beta strings are the maximal runs through -3/2
    (extracted repeatedly); alpha is whatever remains, in ascending order.
    """
    betas, rest = _extract_runs(_doubled(n_half), anchor=-3)
    alpha = _halves(_ascending(rest))
    betas_asc = tuple(_halves(range(bottom, top + 1, 4)) for top, bottom in betas)
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


def staircase_slacks(pairs: StringPairs) -> tuple:
    """The staircase inequalities as integer slacks, from left to right.

    Entry 2i is column i and entry 2i+1 the gap between columns i and i+1:

        D:  x_i - y_i       and  y_i + 1 - x_{i+1},
        B:  y_i + 1 - x_i   and  x_i - y_{i+1}.

    An inequality holds when its slack is >= 0 and is strict when it is > 0.
    """
    cols = pairs.pairs
    if pairs.family == "D":
        column = [x - y for x, y in cols]
        gap = [y + 1 - x2 for (_, y), (x2, _) in zip(cols, cols[1:])]
    else:
        column = [y + 1 - x for x, y in cols]
        gap = [x - y2 for (x, _), (_, y2) in zip(cols, cols[1:])]
    slacks = column + gap
    slacks[::2], slacks[1::2] = column, gap
    return tuple(slacks)


def unitarity_test(pairs: StringPairs) -> UnitarityResult:
    """The staircase inequalities, reporting the leftmost violation.

    ``strict`` means every slack is positive, i.e. the parameter is an
    isolated unipotent one.  Empty pairs are satisfied and strict.
    """
    slacks = staircase_slacks(pairs)
    for j, slack in enumerate(slacks):
        if slack < 0:
            return UnitarityResult(False, index=j // 2 + 1,
                                   kind=("column", "gap")[j % 2])
    return UnitarityResult(True, strict=all(slack > 0 for slack in slacks))


def peel_stein_factors(pairs: StringPairs):
    """Peel equality columns/gaps into shift-1/2 factors; the rest is strict.

    Each round peels at the leftmost zero slack: a column leaves whole, a gap
    merges its two columns into one.  Returns (factors, core) where each
    factor is a CompParams at t = 1/2 and ``core`` is a StringPairs
    satisfying the strict inequalities (or None when everything peels away).
    """
    if not unitarity_test(pairs):
        raise ValueError("peeling requires the staircase inequalities")
    fam = pairs.family
    factors = []
    core = pairs
    while 0 in (slacks := staircase_slacks(core)):
        j = slacks.index(0)
        i = j // 2
        cols = list(core.pairs)
        if j % 2 == 0:
            x, y = cols.pop(i)
            size = x + y
        else:
            (x, y), (x2, y2) = cols[i], cols[i + 1]
            size, merged = (x2 + y, (x, y2)) if fam == "D" else (x + y2, (x2, y))
            cols[i:i + 2] = [merged]
        factors.append(CompParams(size, HALF))
        core = StringPairs(fam, tuple(cols))
    assert unitarity_test(core).strict
    return tuple(factors), (core if core.pairs else None)


# ---------------------------------------------------------------------------
# spin-relevant K-types and verdicts

def build_certificate(pairs: StringPairs) -> "UnitaryCertificate":
    """Certificate of a satisfied parameter: peeled factors, core, orbit."""
    from . import orbits as orbits_mod
    factors, core = peel_stein_factors(pairs)
    orbit = orbits_mod.attach_orbit(core) if core is not None else None
    return UnitaryCertificate(tuple(factors), (), core, orbit)


def eta_weight(family: str, n: int, q: int) -> tuple:
    """Highest weight of the spin-relevant K-type eta(q) at rank n."""
    if family == "D":
        if not 0 <= q <= n - 1:
            raise ValueError(f"eta({q}) undefined at rank {n} in family D")
        last = HALF if q % 2 == 0 else -HALF
        return (Fraction(3, 2),) * q + (HALF,) * (n - q - 1) + (last,)
    if not 0 <= q <= n:
        raise ValueError(f"eta({q}) undefined at rank {n} in family B")
    return (Fraction(3, 2),) * q + (HALF,) * (n - q)


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
    twice gives equal verdicts.  ``elapsed_ns``, the time since the previous
    event, is left out of comparisons and of the repr.
    """
    stage: str
    outcome: str
    data: tuple = ()
    elapsed_ns: int = field(default=0, compare=False, repr=False)

    def fields(self) -> dict:
        """``data`` by name."""
        names, _ = _EVENTS[self.stage, self.outcome]
        return dict(zip(names, self.data, strict=True))


@dataclass(frozen=True)
class Verdict:
    """The result of :func:`classify`; ``chain`` is its tuple of StageEvents."""
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
    """The transcript lines of one stage event; a tuple prints as a vector."""
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


class _Stages:
    """The stage events of one :func:`classify` call; each event is timed
    from the previous one (the first from the start of the call)."""

    def __init__(self):
        self.events = []
        self._mark = perf_counter_ns()

    def record(self, stage: str, outcome: str, *data):
        now = perf_counter_ns()
        self.events.append(StageEvent(stage, outcome, data, now - self._mark))
        self._mark = now

    def verdict(self, status: Status, **fields) -> Verdict:
        return Verdict(status, chain=tuple(self.events), **fields)

    def non_unitary(self, wit, outcome: str, **fields) -> Verdict:
        """Record the witness stage and return the NonUnitary verdict."""
        self.record("witness", outcome, wit.q, wit.group.rank)
        return self.verdict(Status.NON_UNITARY, witness=wit, **fields)


def _embed_block_shift(mu, start, shift):
    """mu plus a shift supported on the positions from start on."""
    out = list(mu)
    for i, s in enumerate(shift):
        if s:  # an entry plus 0 would be a new, equal Fraction
            out[start + i] += s
    return tuple(out)


def _eta_witness_full(mu, start, stop, group, q) -> SpinRelevantKType:
    """eta(q) of the D/B-factor on the mu = 1/2 block [start, stop), lifted
    to mu: the block shifted by eta(q) - 1/2 is the pattern eta(q) itself."""
    pattern = eta_weight(group.family, stop - start, q)
    return SpinRelevantKType(q, mu[:start] + pattern + mu[stop:], group)


def _symmetric(ints) -> bool:
    """The multiset of ints is closed under negation."""
    ordered = sorted(ints)
    return ordered == [-s for s in reversed(ordered)]


def classify(p: GenuineParam) -> Verdict:
    """End-to-end classification of a genuine parameter.

    Pipeline: genuineness, dominance normalization, Hermitian check, then the
    mu-blocks: blocks of value (2r-1)/2 with r >= 2 are GL-blocks; the value
    1/2 block splits into residue classes, with the +-1/2 core handled by
    string pairs and the staircase criterion.  Each stage records a
    :class:`StageEvent` in ``Verdict.chain``; :func:`transcript` renders them.
    """
    from . import rewriter

    stages = _Stages()
    if not p.is_genuine():
        stages.record("genuine", "integral mu")
        return stages.verdict(Status.NOT_GENUINE)
    stages.record("genuine", "genuine")
    dom = dominantize(p)
    q0 = dom.param
    stages.record("dominantize", "diagram flip" if dom.outer_applied else "dominant", q0)
    L, mu_ints, nu_ints = q0.integer_form
    # mu-blocks read off the integer form; a block's value is q0.mu[start]
    blocks = [(q0.mu[start], start, stop) for _, start, stop in _mu_blocks(mu_ints)]
    # q0 is genuine, so no mu-entry is 0 and no sign flip is available: it is
    # Hermitian exactly when each block's nu is closed under negation
    if not all(_symmetric(nu_ints[start:stop]) for _, start, stop in blocks):
        stages.record("hermitian", "not hermitian")
        return stages.verdict(Status.NOT_HERMITIAN)
    stages.record("hermitian", "hermitian")
    gl_factors = []
    # GL-blocks: mu-value (2r-1)/2 with r >= 2; the dominant mu descends, so
    # the mu = 1/2 block, if any, is the last one
    for value, start, stop in blocks:
        if value == HALF:
            break
        glv = _classify_scaled(L, nu_ints[start:stop], (1,) * (stop - start))
        if glv.status is GLStatus.NON_UNITARY:
            stages.record("gl_block", "non-unitary", value, glv.reason)
            weight = _embed_block_shift(q0.mu, start, glv.witness)
            return stages.non_unitary(SpinRelevantKType(None, weight, p.group), "lifted")
        assert glv.status is GLStatus.UNITARY_FACTORS, glv
        stages.record("gl_block", "unitary", value, len(glv.factors))
        gl_factors.extend((fmt(value), f) for f in glv.factors)
    else:
        stages.record("certificate", "no core", None, None, 0, len(gl_factors))
        cert = UnitaryCertificate(gl_factors=tuple(gl_factors))
        return stages.verdict(Status.UNITARY, certificate=cert)
    assert stop == len(q0.mu), blocks
    classes = _partition_scaled(L, nu_ints[start:])
    core_plus, core_minus, blocks_gl = _grouped_classes(L, classes)
    # both classes descend
    assert core_minus == [-s for s in reversed(core_plus)]
    for label, ints, twists in blocks_gl:
        glv = _classify_scaled(L, ints, twists)
        assert glv.status in (GLStatus.UNITARY_FACTORS, GLStatus.NON_UNITARY), glv
        if glv.status is GLStatus.NON_UNITARY:
            stages.record("partition", "non-unitary", label, glv.reason)
            return stages.non_unitary(
                _eta_witness_full(q0.mu, start, stop, p.group, glv.q), "eta")
        gl_factors.extend((label, f) for f in glv.factors)
    stages.record("partition", "unitary", len(classes))
    # the +-1/2 core as string pairs
    try:
        # the class is 1/2 mod 2, so each doubled value L*v // (L/2) is an int
        pairs = _pairs_from_doubled(p.group.family, [s // (L // 2) for s in core_plus])
    except MalformedParameter as exc:
        # the message, not the exception: exceptions compare by identity
        stages.record("extract_pairs", "malformed", str(exc))
        return stages.non_unitary(
            _eta_witness_full(q0.mu, start, stop, p.group, 1), "adjoint shift")
    value_of = dict(zip(nu_ints, q0.nu))
    stages.record("extract_pairs", "pairs" if core_plus else "empty",
                  tuple(map(value_of.__getitem__, core_plus)), pairs, pairs.k)
    result = unitarity_test(pairs)
    if result:
        stages.record("staircase", "strict" if result.strict else "satisfied")
        base = build_certificate(pairs)
        cert = UnitaryCertificate(base.stein_factors, tuple(gl_factors),
                                  base.core, base.orbit)
        stages.record("certificate", "strict core" if cert.core is not None else "no core",
                      cert.core, cert.orbit, len(cert.stein_factors), len(gl_factors))
        return stages.verdict(Status.UNITARY, certificate=cert, pairs=pairs)
    stages.record("staircase", "violated", result.kind, result.index)
    normal = rewriter.normalize_to_base(pairs)
    stages.record("normalize", "normalized", result.kind, result.index,
                  normal.base, len(normal.steps))
    wit = witness(pairs, normal)
    if not normal.steps:
        # no padding: the witness lives on the original group
        wit = _eta_witness_full(q0.mu, start, stop, p.group, wit.q)
    return stages.non_unitary(wit, "eta", pairs=pairs, normalized=normal)


def witness(pairs: StringPairs, normal_form) -> SpinRelevantKType:
    """The spin-relevant K-type detecting indefiniteness, from a normalized base.

    Case I and Case II bases give eta(2a+1) / eta(2e+2) in family D and
    eta(2b+2) / eta(2c+1) in family B, at the rank of the normalized group,
    which is the group the returned K-type names.  Returns None for a
    satisfied normal form, which has no base.
    """
    from .rewriter import CaseI
    base = normal_form.base
    if base is None:
        return None
    n = normal_form.final.n
    fam = pairs.family
    if isinstance(base, CaseI):
        q = 2 * base.a + 1 if fam == "D" else 2 * base.b + 2
    else:
        q = 2 * base.e + 2 if fam == "D" else 2 * base.c + 1
    return SpinRelevantKType(q, eta_weight(fam, 2 * n, q), GroupTag(fam, 2 * n))


# ---------------------------------------------------------------------------
# enumeration

def enumerate_pairs(family: str, n: int):
    """All StringPairs with sum x_i + y_i = n, in table order.

    Table order: x-rows descending lexicographically (longer rows first on
    equal prefixes), then y-rows ascending.
    """
    if n < 1:
        raise ValueError("n must be positive")

    results = []
    x_low = 1 if family == "D" else 0

    def extend(cols, remaining, last_x, last_y):
        # both rows non-increasing: each column fits under the one before
        if remaining == 0:
            results.append(StringPairs(family, tuple(cols)))
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
