"""(Pseudo-)spherical unitary dual of GL(n,C) by chain combinatorics.

A real continuous parameter nu decomposes into *chains*, the multiplicity
layers of each residue class mod 2: the k-th layer of a multiset is its
distinct values of multiplicity >= k, descending (:func:`_multiplicity_layers`,
which the string-pair extraction of :mod:`spindual.stringpairs` reads too).

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
and pair with matching twist.  The classifier runs on nu scaled to integers
by a common denominator: its own least one, or the parameter's integer form
in ``spinclass.classify``; Fractions appear only in the factors and reasons.

A block reaches :func:`_classify_symmetric` as its residue classes, (twist,
descending ints) pairs of one residue class mod 2 at one twist each, and
closed under (value, twist) negation.  Every classifier splits a block's
values of one twist (:func:`_partition_scaled`) and tests that split
(:func:`_classes_symmetric`) before it classifies.  ``spinclass.classify``
splits each mu-block once: a mu > 1/2 block passes its classes at twist +1,
and the residue-class blocks of the mu = 1/2 block inherit its symmetry,
since negation maps the class t to the class -t at the same twist.  The
public classifiers split the twist +1 values, then the twist -1 values, and
report NotHermitian when either split fails; the +1 classes come first, so
equal layers of the two twists keep that order (:func:`_layers`) and a
verdict does not depend on the order of the block's entries.
"""

# _count_elements, the loop of Counter.update, counts into any mapping: a
# Counter's construction costs more than the count on the small blocks of classify
from collections import _count_elements, defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .halfint import frac, vec, is_sign, ratio, scaled, fmt, fmt_ints, HALF


def _multiplicity_layers(values) -> list:
    """The layers of a multiset: the k-th is the list of its distinct values
    of multiplicity >= k, descending."""
    counts = {}
    _count_elements(counts, values)
    layer = sorted(counts, reverse=True)
    layers = []
    while layer:
        layers.append(layer)
        k = len(layers)
        layer = [v for v in layer if counts[v] > k]
    return layers


def _partition_scaled(L: int, ints) -> dict:
    """Residue classes of the values ints/L in order of first occurrence, as
    L*t -> the ints of the class t, descending, with t in (-1, 1]."""
    classes = defaultdict(list)
    modulus = 2 * L
    for s in ints:
        classes[s % modulus].append(s)
    for ss in classes.values():
        ss.sort(reverse=True)
    return {r - modulus if r > L else r: ss for r, ss in classes.items()}


def _classes_symmetric(L: int, classes: dict) -> bool:
    """The block split into the residue classes of :func:`_partition_scaled`
    is closed under negation: negation maps the class t to the class -t, so
    each class is the negation of its mate, and t = 0 and t = 1 (L*t = L) are
    their own mates.  A class descends, so its negation, reversed, is its
    mate as listed; a class t < 0 is compared from the side of -t."""
    for r, ints in classes.items():
        mate = classes.get(-r if r != L else r)
        if mate is None or (r >= 0 and mate != [-s for s in reversed(ints)]):
            return False
    return True


def _layers(classes) -> list:
    """The chains of a block given as (twist, ints) residue classes, as
    (twist, scaled values) layers: the multiplicity layers of each class,
    longest first, then by their values descending."""
    layers = [(s, layer) for s, ints in classes for layer in _multiplicity_layers(ints)]
    # reverse=True keeps ties (equal layers of two twists) in order
    return sorted(layers, key=lambda sl: (len(sl[1]), sl[1]), reverse=True)


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


def _shift(layers, q: int) -> tuple:
    # each value of the block lies in as many layers as its multiplicity
    n = sum(len(layer) for _, layer in layers)
    return (1,) * q + (0,) * (n - 2 * q) + (-1,) * q


def _classify_symmetric(L: int, classes) -> GLVerdict:
    """The block of values ints/L, L any common denominator, given as its
    (twist, descending ints) residue classes and closed under (value, twist)
    negation: its chains must be strings and pair as characters/Stein pairs.

    The layers are distinct values of one residue class, so they descend by
    multiples of 2L, and a layer is a step-2 string exactly when its span
    top - bottom is 2L(len - 1); its center is (top + bottom) / 2L.  By
    symmetry the negation of a non-centered layer is another layer of the
    same length and twist.  Of the two, the one with positive center has the
    larger top value and comes first; it stands for the pair, and the layer
    with negative center is skipped.
    """
    layers = _layers(classes)
    # step gaps first: a chain that is not a pure step-2 string is attached to
    # a module that is not one-dimensional
    for _, layer in layers:
        if layer[0] - layer[-1] != 2 * L * (len(layer) - 1):
            return GLVerdict(
                GLStatus.NON_UNITARY, witness=_shift(layers, 1), q=1,
                reason=f"chain {fmt_ints(L, layer)} has a gap larger than 2",
            )
    # the layers come longest first, so each list is in factor order
    trivial, stein = [], []
    for s, layer in layers:
        doubled_center = layer[0] + layer[-1]
        if doubled_center == 0:
            trivial.append(TrivialString(len(layer), s))
        elif doubled_center > 0:
            t = ratio(doubled_center, 2 * L)
            if doubled_center < 2 * L:
                stein.append(SteinPair(len(layer), t, s))
                continue
            qw = max(len(layer) - doubled_center // (2 * L) + 1, 1)
            return GLVerdict(
                GLStatus.NON_UNITARY, witness=_shift(layers, qw), q=qw,
                reason=f"deformation pair of size {len(layer)} at |t|={fmt(t)} outside the unitary range",
            )
    return GLVerdict(GLStatus.UNITARY_FACTORS, factors=(*trivial, *stein))


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
    classes = []
    for twist in (1, -1):
        split = _partition_scaled(L, [v for v, s in zip(ints, signs) if s == twist])
        if not _classes_symmetric(L, split):
            return GLVerdict(GLStatus.NOT_HERMITIAN, reason="signed nu is not symmetric under negation")
        classes += [(twist, ss) for ss in split.values()]
    return _classify_symmetric(L, classes)
