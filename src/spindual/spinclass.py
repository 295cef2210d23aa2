"""Unitarity classification for genuine parameters of complex spin groups.

The continuous parameter of a genuine Hermitian module splits into residue
classes mod 2.  Classes away from +-1/2 are GL-blocks handled by
:mod:`spindual.glclass`.  The +-1/2 classes form the core, the string pairs
of :mod:`spindual.stringpairs`: strict staircase inequalities give the
isolated unipotent representations, equalities peel off as
complementary-series factors at shift 1/2, and any violation is witnessed on
a spin-relevant K-type eta(q) located through the rewriting engine in
:mod:`spindual.rewriter`.
"""

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import repeat
from time import perf_counter_ns

from .halfint import vec, fmt, fmt_ints, fmt_vec, ratio, scaled, texts, unscaled, HALF
from .weyl import GenuineParam, GroupTag, _dominant, _mu_blocks
from .glclass import GLStatus, CompParams, _classes_symmetric, _classify_symmetric
from .glclass import _partition_scaled
from .stringpairs import MalformedParameter, StringPairs, _LazyTuple, _doubled_string
from .stringpairs import _pairs_from_doubled, staircase_slacks, unitarity_test
from . import orbits, rewriter  # called through the modules, which wrappers may patch
# not called here: bench/tracing.py wraps these names on this module
from .glclass import classify_gl, classify_gl_genuine_block  # noqa: F401
from .stringpairs import extract_pairs  # noqa: F401
from .weyl import dominantize, hermitian_witness  # noqa: F401


_THREE_HALVES, _MINUS_HALF = Fraction(3, 2), -HALF  # the entries of eta(q)


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
# peeling, spin-relevant K-types and verdicts

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
        return tuple(StageEvent(e[i + 1], e[i + 2], e[i + 3], e[i + 4] - e[i])
                     for i in range(0, len(e) - 1, 4))

    def _key(self) -> tuple:
        e = self.entries
        return e[1::4], e[2::4], e[3::4]

    def __len__(self):
        return len(self.entries) // 4

    def verdict(self, status: Status, **fields) -> Verdict:
        return Verdict(status, chain=self, **fields)

    def unitary(self, cert: UnitaryCertificate, **fields) -> Verdict:
        """Record the certificate stage and return the Unitary verdict."""
        self.record("certificate", "strict core" if cert.core is not None else "no core",
                    cert.core, cert.orbit, len(cert.stein_factors), len(cert.gl_factors))
        return self.verdict(Status.UNITARY, certificate=cert, **fields)

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


def _eta_witness_full(q0: GenuineParam, start, q) -> SpinRelevantKType:
    """eta(q) of the D/B-factor on the mu = 1/2 block q0.mu[start:], lifted to
    q0.mu: the block shifted by eta(q) - 1/2 is the pattern eta(q) itself.
    When the block is all of mu, the weight is eta(q) on the group, built on
    first read, and mu is not read."""
    group = q0.group
    if start == 0:
        return _eta_on(group, q)
    pattern = eta_weight(group.family, group.rank - start, q)
    return SpinRelevantKType._built(q, q0.mu[:start] + pattern, group)


def _eta_on(group: GroupTag, q: int) -> SpinRelevantKType:
    """eta(q) on all of ``group``, its weight built on first read."""
    return SpinRelevantKType._built(q, _EtaWeight(group.family, group.rank, q), group)


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
        return stages.unitary(UnitaryCertificate(gl_factors=tuple(gl_factors)))
    core_plus, blocks_gl = _grouped_classes(L, classes)
    for label, block in blocks_gl:
        # closed under (value, twist) negation, as the mu = 1/2 block's nu is
        glv = _classify_symmetric(L, block)
        if glv.status is GLStatus.NON_UNITARY:
            stages.record("partition", "non-unitary", label, glv.reason)
            return stages.non_unitary(_eta_witness_full(q0, start, glv.q), "eta")
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
        return stages.non_unitary(_eta_witness_full(q0, start, 1), "adjoint shift")
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
        return stages.unitary(build_certificate(pairs, gl_factors), pairs=pairs)
    stages.record("staircase", "violated", result.kind, result.index)
    normal = rewriter.normalize_to_base(pairs)
    stages.record("normalize", "normalized", result.kind, result.index,
                  normal.base, len(normal.moves))
    # without padding the witness lives on the original group
    wit = witness(pairs, normal) if normal.moves else _eta_witness_full(
        q0, start, _eta_index(pairs.family, normal.base))
    return stages.non_unitary(wit, "eta", pairs=pairs, normalized=normal)


def witness(pairs: StringPairs, normal_form) -> SpinRelevantKType:
    """The spin-relevant K-type detecting indefiniteness, from a normalized base.

    Case I and Case II bases give eta(2a+1) / eta(2e+2) in family D and
    eta(2b+2) / eta(2c+1) in family B, at the rank of the normalized group,
    which is the group the returned K-type names.
    """
    fam = pairs.family
    return _eta_on(GroupTag(fam, 2 * normal_form.final.n), _eta_index(fam, normal_form.base))


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

