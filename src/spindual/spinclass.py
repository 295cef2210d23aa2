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
engine in :mod:`spindual.rewriter`.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .halfint import frac, vec, fmt, fmt_vec, residue_mod2, HALF
from .weyl import (
    GenuineParam, GroupTag, dominantize, hermitian_witness, _mu_blocks,
)
from .glclass import (
    GLStatus, CompParams, classify_gl, classify_gl_genuine_block,
)


class MalformedParameter(ValueError):
    """The half-integral class is not of string-pair shape."""


# ---------------------------------------------------------------------------
# string pairs

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
        pairs = tuple((int(x), int(y)) for x, y in self.pairs)
        ordered = tuple(sorted(pairs, key=lambda c: (-c[0], -c[1])))
        object.__setattr__(self, "pairs", ordered)
        ys = [y for _, y in ordered]
        if ys != sorted(ys, reverse=True):
            raise MalformedParameter(
                f"columns {pairs} admit no doubly non-increasing arrangement"
            )
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
        values = []
        for x, y in self.pairs:
            top = Fraction(4 * x - 3, 2)
            values.extend(top - 2 * k for k in range(x + y))
        return tuple(sorted(values, reverse=True))


def string_of_column(x: int, y: int) -> tuple:
    """The descending step-2 string from 2x-3/2 down to 1/2-2y."""
    top = Fraction(4 * x - 3, 2)
    return tuple(top - 2 * k for k in range(x + y))


# ---------------------------------------------------------------------------
# parameter assembly and residue classes

def pairs_to_param(pairs: StringPairs) -> GenuineParam:
    """The doubled parameter attached to string pairs.

    mu is all 1/2 of length 2n; nu is the +1/2 class (descending) followed by
    its negation (descending), matching the Langlands-coordinate convention
    of the classification tables.
    """
    half = pairs.half_class()
    nu = half + tuple(sorted((-v for v in half), reverse=True))
    n2 = 2 * pairs.n
    group = GroupTag(pairs.family, n2)
    return GenuineParam(group, (HALF,) * n2, nu)


def partition_nt(nu) -> dict:
    """Split nu into residue classes: t in (-1,1] with nu_i - t in 2Z."""
    classes = {}
    for v in vec(nu):
        classes.setdefault(residue_mod2(v), []).append(v)
    return {t: tuple(sorted(vals, reverse=True)) for t, vals in classes.items()}


def _grouped_classes(classes: dict):
    """Merge residue classes into GL-blocks and the half-integral core.

    Returns (core_plus, core_minus, gl_blocks) where gl_blocks is a list of
    (label, signed entries): classes {0, 1} merge with twist +/- on the 0/1
    residues, and {t, -t, 1-t, t-1} merge with twist - on the +-(1-t) part.
    """
    core_plus = classes.get(HALF, ())
    core_minus = classes.get(-HALF, ())
    gl_blocks = []
    zero_one = []
    for t in (Fraction(0), Fraction(1)):
        if t in classes:
            s = 1 if t == 0 else -1
            zero_one.extend((v, s) for v in classes[t])
    if zero_one:
        gl_blocks.append(("t=0,1", tuple(zero_one)))
    seen = set()
    for t in sorted(classes):
        if t in (Fraction(0), Fraction(1), HALF, -HALF) or t in seen:
            continue
        t0 = min(abs(t), 1 - abs(t))
        group = {t0, -t0, 1 - t0, t0 - 1}
        seen |= group
        entries = []
        for r in sorted(group, reverse=True):
            if r in classes:
                s = 1 if r in (t0, -t0) else -1
                entries.extend((v, s) for v in classes[r])
        gl_blocks.append((f"t={fmt(t0)}", tuple(entries)))
    return core_plus, core_minus, gl_blocks


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
    pairs, in extraction order, and the Counter of what is left.
    """
    counts = Counter(doubled)
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
            counts[v] -= 1
            if counts[v] == 0:
                del counts[v]
        runs.append((hi, lo))
    return runs, counts


def extract_pairs_D(n_half) -> StringPairs:
    """String pairs of a +1/2 residue class for family D.

    Every maximal step-2 run must pass through 1/2; the run from 2x-3/2 down
    to 1/2-2y becomes the column (x, y).
    """
    runs, _ = _extract_runs(_doubled(n_half))
    cols = []
    for top, bottom in runs:
        if top < 1 or bottom > 1:
            run = _halves(range(top, bottom - 1, -4))
            raise MalformedParameter(
                f"string {fmt_vec(run)} does not pass through 1/2"
            )
        cols.append(((top + 3) // 4, (1 - bottom) // 4))
    return StringPairs("D", tuple(cols))


def _beta_runs(n_half):
    """Family B on doubled values: the runs through -3 (that is, -3/2) and
    the Counter of the remaining alpha values."""
    return _extract_runs(_doubled(n_half), anchor=-3)


def decompose_alpha_beta(n_half):
    """Family B splitting: beta strings are the maximal runs through -3/2
    (extracted repeatedly); alpha is whatever remains, in ascending order.
    """
    betas, rest = _beta_runs(n_half)
    alpha = _halves(sorted(rest.elements()))
    betas_asc = tuple(_halves(range(bottom, top + 1, 4)) for top, bottom in betas)
    return alpha, betas_asc


def extract_pairs_B(n_half) -> StringPairs:
    """String pairs of a +1/2 residue class for family B.

    Beta runs (through -3/2) give columns with y >= 1 and x >= 0; alpha runs
    must be step-2 strings ending exactly at 1/2 and give columns (x, 0).
    """
    betas, counts = _beta_runs(n_half)
    # a beta run tops at -3/2 (x = 0) or at 2x - 3/2 >= 1/2
    cols = [((top + 3) // 4, (1 - bottom) // 4) for top, bottom in betas]
    while counts:
        if 1 not in counts:
            rest = _halves(sorted(counts.elements()))
            raise MalformedParameter(
                f"remaining values {fmt_vec(rest)} "
                "contain no string ending at 1/2"
            )
        top = 1
        while top in counts:
            counts[top] -= 1
            if counts[top] == 0:
                del counts[top]
            top += 4
        # the run climbed from 1/2 to (top - 4)/2 = 2x - 3/2
        cols.append(((top - 1) // 4, 0))
    return StringPairs("B", tuple(cols))


def extract_pairs(family: str, n_half) -> StringPairs:
    return extract_pairs_D(n_half) if family == "D" else extract_pairs_B(n_half)


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


def unitarity_test(pairs: StringPairs) -> UnitarityResult:
    """The staircase inequalities, reporting the leftmost violation.

    D: x_i >= y_i and y_i + 1 >= x_{i+1}.  B: y_i + 1 >= x_i and
    x_i >= y_{i+1}.  ``strict`` means every inequality is strict, i.e. the
    parameter is an isolated unipotent one.
    """
    xs, ys = pairs.xs, pairs.ys
    k = pairs.k
    strict = True
    for i in range(k):
        if pairs.family == "D":
            col_ok, col_strict = xs[i] >= ys[i], xs[i] > ys[i]
        else:
            col_ok, col_strict = ys[i] + 1 >= xs[i], ys[i] >= xs[i]
        if not col_ok:
            return UnitarityResult(False, index=i + 1, kind="column")
        strict &= col_strict
        if i + 1 < k:
            if pairs.family == "D":
                gap_ok, gap_strict = ys[i] + 1 >= xs[i + 1], ys[i] >= xs[i + 1]
            else:
                gap_ok, gap_strict = xs[i] >= ys[i + 1], xs[i] > ys[i + 1]
            if not gap_ok:
                return UnitarityResult(False, index=i + 1, kind="gap")
            strict &= gap_strict
    return UnitarityResult(True, strict=strict)


def peel_stein_factors(pairs: StringPairs):
    """Peel equality columns/gaps into shift-1/2 factors; the rest is strict.

    Returns (factors, core) where each factor is a CompParams at t = 1/2 and
    ``core`` is a StringPairs satisfying the strict inequalities (or None when
    everything peels away).
    """
    if not unitarity_test(pairs):
        raise ValueError("peeling requires the staircase inequalities")
    cols = list(pairs.pairs)
    fam = pairs.family
    factors = []
    while True:
        action = None
        for i in range(len(cols)):
            x, y = cols[i]
            if fam == "D" and x == y:
                action = ("column", i, x + y)
                break
            if fam == "B" and y + 1 == x:
                action = ("column", i, x + y)
                break
            if i + 1 < len(cols):
                x2, y2 = cols[i + 1]
                if fam == "D" and y + 1 == x2:
                    action = ("gap", i, x2 + y)
                    break
                if fam == "B" and x == y2:
                    action = ("gap", i, x + y2)
                    break
        if action is None:
            break
        kind, i, size = action
        factors.append(CompParams(size, HALF))
        if kind == "column":
            del cols[i]
        else:
            x, y = cols[i]
            x2, y2 = cols[i + 1]
            merged = (x, y2) if fam == "D" else (x2, y)
            cols[i:i + 2] = [merged]
    core = StringPairs(fam, tuple(cols)) if cols else None
    if core is not None:
        assert unitarity_test(core).strict
    return tuple(factors), core


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
    shape).
    """
    q: int
    weight: tuple

    def __post_init__(self):
        object.__setattr__(self, "weight", vec(self.weight))


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


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: UnitaryCertificate = None
    witness: SpinRelevantKType = None
    chain: tuple = ()
    pairs: StringPairs = None
    normalized: object = None

    def __post_init__(self):
        if (self.status is Status.UNITARY) != (self.certificate is not None):
            raise ValueError("certificate present iff Unitary")


def _embed_block_shift(mu, start, stop, shift):
    """mu plus a shift supported on positions [start, stop)."""
    out = list(mu)
    for i, s in enumerate(shift):
        out[start + i] += s
    return tuple(out)


def _eta_witness_full(mu, start, stop, family, q) -> SpinRelevantKType:
    """eta(q) of the D/B-factor on the mu-block [start, stop), lifted to mu."""
    m = stop - start
    pattern = eta_weight(family, m, q)
    shift = tuple(p - HALF for p in pattern)
    return SpinRelevantKType(q, _embed_block_shift(mu, start, stop, shift))


def classify(p: GenuineParam) -> Verdict:
    """End-to-end classification of a genuine parameter.

    Pipeline: genuineness, dominance normalization, Hermitian check, then the
    mu-blocks: blocks of value (2r-1)/2 with r >= 2 are GL-blocks; the value
    1/2 block splits into residue classes, with the +-1/2 core handled by
    string pairs and the staircase criterion.
    """
    from . import rewriter

    if not p.is_genuine():
        return Verdict(Status.NOT_GENUINE,
                       chain=("mu has integral entries: factors through SO",))
    dom = dominantize(p)
    q0 = dom.param
    chain = [f"dominant form: {q0}"]
    if dom.outer_applied:
        chain.append("diagram flip applied to make the last mu-coordinate positive")
    if hermitian_witness(q0) is None:
        return Verdict(Status.NOT_HERMITIAN, chain=tuple(chain))
    blocks = _mu_blocks(q0.mu)
    gl_factors = []
    # GL-blocks: mu-value (2r-1)/2 with r >= 2
    for value, start, stop in blocks:
        if value == HALF:
            continue
        glv = classify_gl(q0.nu[start:stop])
        if glv.status is GLStatus.NON_UNITARY:
            chain.append(
                f"GL-block at mu={fmt(value)} is non-unitary ({glv.reason}); "
                "the witness lifts by a bottom-layer shift"
            )
            weight = _embed_block_shift(q0.mu, start, stop, glv.witness)
            return Verdict(Status.NON_UNITARY,
                           witness=SpinRelevantKType(None, weight),
                           chain=tuple(chain))
        assert glv.status is GLStatus.UNITARY_FACTORS, glv
        gl_factors.extend((fmt(value), f) for f in glv.factors)
    # the mu = 1/2 block
    half_blocks = [(s, e) for v, s, e in blocks if v == HALF]
    if not half_blocks:
        cert = UnitaryCertificate(gl_factors=tuple(gl_factors))
        return Verdict(Status.UNITARY, certificate=cert, chain=tuple(chain))
    start, stop = half_blocks[0]
    classes = partition_nt(q0.nu[start:stop])
    core_plus, core_minus, blocks_gl = _grouped_classes(classes)
    assert sorted(core_minus) == sorted(-v for v in core_plus)
    for label, signed in blocks_gl:
        glv = classify_gl_genuine_block(signed)
        assert glv.status in (GLStatus.UNITARY_FACTORS, GLStatus.NON_UNITARY), glv
        if glv.status is GLStatus.NON_UNITARY:
            chain.append(f"residue class {label} is non-unitary ({glv.reason})")
            return Verdict(
                Status.NON_UNITARY,
                witness=_eta_witness_full(q0.mu, start, stop, p.group.family, glv.q),
                chain=tuple(chain),
            )
        gl_factors.extend((label, f) for f in glv.factors)
    # the +-1/2 core as string pairs
    try:
        pairs = extract_pairs(p.group.family, core_plus) if core_plus \
            else StringPairs(p.group.family, ())
    except MalformedParameter as exc:
        chain.append(f"half-integral class is not of string-pair shape: {exc}")
        chain.append("the adjoint-shift K-type detects indefiniteness")
        return Verdict(
            Status.NON_UNITARY,
            witness=_eta_witness_full(q0.mu, start, stop, p.group.family, 1),
            chain=tuple(chain),
        )
    if core_plus:
        chain.append(f"half-integral class {fmt_vec(core_plus)} <-> {pairs}")
    result = unitarity_test(pairs) if pairs.pairs else UnitarityResult(True, strict=True)
    if result:
        base = build_certificate(pairs) if pairs.pairs else UnitaryCertificate()
        cert = UnitaryCertificate(base.stein_factors, tuple(gl_factors),
                                  base.core, base.orbit)
        if cert.core is not None:
            chain.append(f"strict core {cert.core} with attached orbit {cert.orbit}")
        return Verdict(Status.UNITARY, certificate=cert,
                       chain=tuple(chain), pairs=pairs)
    normal = rewriter.normalize_to_base(pairs)
    wit = witness(pairs, normal)
    chain.append(
        f"staircase violated at {result.kind} {result.index}; "
        f"normalized to base {normal.base} after {len(normal.steps)} inductions"
    )
    if not normal.steps and wit is not None:
        # no padding: the witness lives on the original group
        wit = _eta_witness_full(q0.mu, start, stop, p.group.family, wit.q)
    return Verdict(Status.NON_UNITARY, witness=wit, chain=tuple(chain),
                   pairs=pairs, normalized=normal)


def witness(pairs: StringPairs, normal_form) -> SpinRelevantKType:
    """The spin-relevant K-type detecting indefiniteness, from a normalized base.

    Case I and Case II bases give eta(2a+1) / eta(2e+2) in family D and
    eta(2b+2) / eta(2c+1) in family B, at the rank of the normalized group.
    Returns None when normalization did not reach a padded base shape.
    """
    from .rewriter import CaseI, CaseII
    base = normal_form.base
    if base is None:
        return None
    n = sum(x + y for x, y in normal_form.final.pairs)
    fam = pairs.family
    if isinstance(base, CaseI):
        q = 2 * base.a + 1 if fam == "D" else 2 * base.b + 2
    elif isinstance(base, CaseII):
        q = 2 * base.e + 2 if fam == "D" else 2 * base.c + 1
    else:  # pragma: no cover
        return None
    return SpinRelevantKType(q, eta_weight(fam, 2 * n, q))


# ---------------------------------------------------------------------------
# enumeration

def enumerate_pairs(family: str, n: int):
    """All StringPairs with sum x_i + y_i = n, in table order.

    Table order: x-rows descending lexicographically (longer rows first on
    equal prefixes), then y-rows ascending.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def columns(fam):
        for x in range(n, -1, -1):
            for y in range(n, -1, -1):
                if x == 0 and y == 0:
                    continue
                if fam == "D" and x == 0:
                    continue
                yield (x, y)

    results = []

    def extend(cols, remaining):
        if remaining == 0:
            try:
                results.append(StringPairs(family, tuple(cols)))
            except MalformedParameter:
                pass
            return
        last = cols[-1] if cols else (n, n)
        for x, y in columns(family):
            if x + y > remaining:
                continue
            if x > last[0] or y > last[1]:
                continue
            extend(cols + [(x, y)], remaining - (x + y))

    extend([], n)
    results.sort(key=_table_key)
    seen = set()
    for p in results:
        if p.pairs not in seen:
            seen.add(p.pairs)
            yield p


def _table_key(p: StringPairs):
    # x-rows descending lexicographically; the +1 sentinel makes a row sort
    # before its proper prefixes ((3 1; ..) precedes (3; ..)); y-rows ascend
    return (tuple(-x for x in p.xs) + (1,), p.ys)
