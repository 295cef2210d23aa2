"""(Pseudo-)spherical unitary dual of GL(n,C) by chain combinatorics.

A real continuous parameter nu decomposes into *chains*: repeatedly take the
longest strictly-descending subsequence whose consecutive differences lie in
{2, 4, 6, ...} (ties: largest top value, then lexicographically largest).
Equivalently, chains are the multiplicity layers of each residue class mod 2.

The irreducible module attached to nu is unitarily induced from the modules
attached to the chains.  It is unitary exactly when

* every chain is an arithmetic string of step exactly 2 (otherwise the form
  is indefinite at the trivial and adjoint K-types), and
* every chain is either centered at 0 (a one-dimensional character) or pairs
  with its negative as a complementary-series deformation with |shift| < 1
  (Stein's range).

Failures report the K-type shift pattern (1,...,1,0,...,0,-1,...,-1) that
detects indefiniteness, relative to the block's lowest K-type.

Every block carries a +-1 twist on each coordinate (the character
(det/|det|)^{+-1/2}; +1 for the spherical case); chains are constant-twist
and pair with matching twist.  The classifier scales nu once by its least
common denominator and works on the integers; Fractions appear only in the
factors and reasons it returns.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .halfint import frac, vec, is_sign, residue, scaled, fmt, fmt_vec, HALF


@dataclass(frozen=True)
class Chain:
    """A strictly descending run with even positive gaps, carrying a twist.

    ``sign`` is the det^{+-1/2}-twist of the block (+1 for untwisted
    spherical usage).
    """
    values: tuple
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", vec(self.values))
        if not self.values:
            raise ValueError("chain must be nonempty")
        for a, b in zip(self.values, self.values[1:]):
            gap = a - b
            if gap <= 0 or gap % 2 != 0:
                raise ValueError(f"invalid chain gap {fmt(gap)} in {fmt_vec(self.values)}")
        if not is_sign(self.sign):
            raise ValueError("sign must be +1/-1")

    def __len__(self):
        return len(self.values)

    @property
    def is_string(self) -> bool:
        """All gaps exactly 2 (the attached module is one-dimensional)."""
        return all(a - b == 2 for a, b in zip(self.values, self.values[1:]))

    @property
    def center(self) -> Fraction:
        return sum(self.values, Fraction(0)) / len(self.values)

    @property
    def is_centered(self) -> bool:
        return self.center == 0

    def negated(self) -> "Chain":
        return Chain(tuple(-v for v in reversed(self.values)), self.sign)


def _layers(L: int, ints, signs) -> list:
    """The chains of the values ints/L as (twist, scaled values) layers.

    Within each (residue mod 2, twist) class the k-th layer consists of the
    distinct values of multiplicity >= k, in descending order; this realizes
    the greedy longest-subsequence rule with deterministic tie-breaking.
    Layers sort longest first, then by their values descending.
    """
    groups = {}
    for v, s in zip(ints, signs):
        groups.setdefault((residue(v, L), s), []).append(v)
    layers = []
    for (_, s), values in groups.items():
        counts = Counter(values)
        for k in range(1, max(counts.values()) + 1):
            layer = sorted((v for v, c in counts.items() if c >= k), reverse=True)
            layers.append((s, tuple(layer)))
    return sorted(layers, key=lambda sl: (-len(sl[1]), tuple(-v for v in sl[1])))


def decompose_chains(nu, signs=None) -> tuple:
    """Greedy longest-chain decomposition of the multiset nu, as Chains."""
    nu = vec(nu)
    signs = (1,) * len(nu) if signs is None else tuple(signs)
    if len(signs) != len(nu):
        raise ValueError(f"{len(nu)} values but {len(signs)} twists")
    L, ints = scaled(nu)
    value_of = dict(zip(ints, nu))
    return tuple(Chain(tuple(value_of[v] for v in layer), s)
                 for s, layer in _layers(L, ints, signs))


def comp_nu(a: int, t) -> tuple:
    """The deformation string (a-1+t, a-3+t, ..., -a+1+t)."""
    if a < 1:
        raise ValueError("a must be a positive integer")
    t = frac(t)
    return tuple(Fraction(a - 1 - 2 * k) + t for k in range(a))


@dataclass(frozen=True)
class CompParams:
    """A complementary-series deformation comp_r(a, t) of GL(2a)."""
    a: int
    t: Fraction
    r: Fraction = HALF

    def __post_init__(self):
        object.__setattr__(self, "t", frac(self.t))
        object.__setattr__(self, "r", frac(self.r))
        if self.a < 1:
            raise ValueError("a must be positive")

    @property
    def is_stein(self) -> bool:
        """Unitary range: |t| < 1 as an exact rational."""
        return abs(self.t) < 1

    @property
    def is_reducible(self) -> bool:
        """Integer |t| >= 1: the endpoint parameter names no irreducible deformation."""
        return self.t.denominator == 1 and abs(self.t) >= 1

    def nu(self) -> tuple:
        return comp_nu(self.a, self.t)


class GLStatus(Enum):
    UNITARY_FACTORS = "UnitaryFactors"
    NON_UNITARY = "NonUnitary"
    NOT_HERMITIAN = "NotHermitian"


@dataclass(frozen=True)
class TrivialString:
    """A one-dimensional unitary character factor on GL(a): a centered string."""
    a: int
    twist: int = 1


@dataclass(frozen=True)
class SteinPair:
    """A dual pair of deformed characters on GL(2a) with shift t, |t| < 1."""
    a: int
    t: Fraction
    twist: int = 1


@dataclass(frozen=True)
class GLVerdict:
    status: GLStatus
    factors: tuple = ()
    witness: tuple = None      # shift vector relative to the lowest K-type
    q: int = None              # number of +1 entries in the shift
    reason: str = ""


def _shift(n: int, q: int) -> tuple:
    return (1,) * q + (0,) * (n - 2 * q) + (-1,) * q


def _classify_layers(L: int, layers, n: int) -> GLVerdict:
    """Chains must be strings and pair as characters/Stein pairs.

    The input is symmetric, so the negation of a non-centered layer is
    another layer of the same length and twist.  Of the two, the one with
    positive center has the larger top value and comes first; it stands for
    the pair, and the layer with negative center is skipped.
    """
    # step gaps first: a chain that is not a pure step-2 string is attached to
    # a module that is not one-dimensional
    for _, layer in layers:
        if any(a - b != 2 * L for a, b in zip(layer, layer[1:])):
            return GLVerdict(
                GLStatus.NON_UNITARY, witness=_shift(n, 1), q=1,
                reason=f"chain {fmt_vec(Fraction(v, L) for v in layer)} has a gap larger than 2",
            )
    factors = []
    for s, layer in layers:
        a = len(layer)
        total = sum(layer)
        if total == 0:
            factors.append(TrivialString(a, s))
        elif total > 0:
            # the deformation t of the pair is the center total / (a L)
            t = Fraction(total, a * L)
            if t < 1:
                factors.append(SteinPair(a, t, s))
                continue
            qw = max(a - total // (a * L) + 1, 1)
            return GLVerdict(
                GLStatus.NON_UNITARY, witness=_shift(n, qw), q=qw,
                reason=f"deformation pair of size {a} at |t|={fmt(t)} outside the unitary range",
            )
    order = {TrivialString: 0, SteinPair: 1}
    factors.sort(key=lambda f: (order[type(f)], -f.a))
    return GLVerdict(GLStatus.UNITARY_FACTORS, factors=tuple(factors))


def classify_gl(nu) -> GLVerdict:
    """Unitarity of the spherical module attached to nu: the genuine block
    with every twist +1 (a constant twist does not affect unitarity)."""
    return classify_gl_genuine_block([(v, 1) for v in nu])


def classify_gl_genuine_block(signed_nu) -> GLVerdict:
    """Classifier for a mixed-twist block: entries are (value, +-1) pairs.

    Chains are formed within constant-twist classes; a chain is a unitary
    factor when centered (a genuine unitary character) or when it pairs with
    its negative at the same twist inside Stein's range.
    """
    values = vec(v for v, _ in signed_nu)
    signs = tuple(s for _, s in signed_nu)
    if not all(map(is_sign, signs)):
        raise ValueError("twists must be +1/-1")
    L, ints = scaled(values)
    if sorted(zip(ints, signs)) != sorted(zip((-v for v in ints), signs)):
        return GLVerdict(GLStatus.NOT_HERMITIAN, reason="signed nu is not symmetric under negation")
    return _classify_layers(L, _layers(L, ints, signs), len(ints))
