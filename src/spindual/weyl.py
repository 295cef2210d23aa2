"""Weyl groups of types A/B/D in coordinates, and Langlands-style parameters.

A parameter for Spin(2n,C) (family ``D``) or Spin(2n+1,C) (family ``B``) is a
pair of exact vectors (mu, nu) of length n.  mu is the lowest K-type
coordinate, nu the continuous part; the representation is *genuine* (does not
factor through SO) exactly when every mu-entry is strictly half-integral.

The group W acts by permutations and sign flips (an even number of flips in
family D).  Everything here is exact and immutable.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby, permutations, product

from .halfint import fmt_vec, scaled, vec


class DimensionError(ValueError):
    """Vector lengths do not match the declared rank."""


@dataclass(frozen=True)
class GroupTag:
    """``D n`` means Spin(2n,C); ``B n`` means Spin(2n+1,C)."""
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise ValueError(f"family must be 'B' or 'D', got {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation: position j is sent to perm[j], picking up signs[perm[j]]."""
    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("invalid signed permutation")
        # True == 1, but a bool is not a sign
        if self.signs.count(1) + self.signs.count(-1) != n or bool in map(type, self.signs):
            raise ValueError("signs must be +1/-1")

    @staticmethod
    @lru_cache(maxsize=64)
    def identity(n: int) -> "WeylElement":
        """The identity at rank n, built and validated once per rank and then
        shared (the element is frozen).  The cache keeps at most 64 ranks,
        more than the distinct ranks of one benchmark round (42); an entry
        holds two n-tuples, about 44 n bytes (90 KB at n = 2,000), so the
        cache holds at most 64 x 44 x (its largest rank) bytes."""
        return WeylElement(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    def flip_count(self) -> int:
        return sum(1 for s in self.signs if s == -1)

    def inverse(self) -> "WeylElement":
        n = self.n
        inv = [0] * n
        for j, i in enumerate(self.perm):
            inv[i] = j
        signs = tuple(self.signs[self.perm[k]] for k in range(n))
        return WeylElement(tuple(inv), signs)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self o other (apply ``other`` first)."""
        if self.n != other.n:
            raise DimensionError("rank mismatch in composition")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        # slot i = self.perm[j] receives the sign other.signs[j] picked up at j
        signs = [None] * self.n
        for j, i in enumerate(self.perm):
            signs[i] = self.signs[i] * other.signs[j]
        return WeylElement(perm, tuple(signs))


def apply(w: WeylElement, v) -> tuple:
    """Entry i of the result is signs[i] * v[perm^{-1}(i)].

    A signed permutation of the entries: they keep their type (ints stay
    ints, Fractions stay Fractions) and are not coerced.
    """
    if len(v) != w.n:
        raise DimensionError(f"vector of length {len(v)} under rank-{w.n} element")
    out = [None] * w.n
    for j, i in enumerate(w.perm):
        out[i] = v[j] if w.signs[i] == 1 else -v[j]
    return tuple(out)


@dataclass(frozen=True)
class GenuineParam:
    """Group tag plus the (mu, nu) pair."""
    group: GroupTag
    mu: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", vec(self.mu))
        object.__setattr__(self, "nu", vec(self.nu))
        if len(self.mu) != self.group.rank or len(self.nu) != self.group.rank:
            raise DimensionError(
                f"mu/nu must have length {self.group.rank}, "
                f"got {len(self.mu)}/{len(self.nu)}"
            )

    @cached_property
    def integer_form(self) -> tuple:
        """(L, mu_ints, nu_ints): the least common denominator L of mu and nu
        and the integers L*v, computed once; the classification reads these."""
        L, ints = scaled(self.mu + self.nu)
        n = len(self.mu)
        return L, ints[:n], ints[n:]

    @classmethod
    def _with_integer_form(cls, group, mu, nu, form) -> "GenuineParam":
        """The parameter, with the integer form its caller already holds."""
        p = cls(group, mu, nu)
        p.__dict__["integer_form"] = form  # the cached_property's slot
        return p

    def is_genuine(self) -> bool:
        """Every mu-entry is strictly half-integral: L*m = L/2 mod L."""
        L, mu, _ = self.integer_form
        return L % 2 == 0 and {m % L for m in mu} == {L // 2}

    def __str__(self):
        return f"{self.group}: mu={fmt_vec(self.mu)}, nu={fmt_vec(self.nu)}"


@dataclass(frozen=True)
class LanglandsPair:
    group: GroupTag
    lambda_l: tuple
    lambda_r: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambda_l", vec(self.lambda_l))
        object.__setattr__(self, "lambda_r", vec(self.lambda_r))
        if len(self.lambda_l) != len(self.lambda_r):
            raise DimensionError("lambda_L and lambda_R must have equal length")


def to_langlands(p: GenuineParam) -> LanglandsPair:
    """(lambda_L, lambda_R) = ((mu+nu)/2, (nu-mu)/2), read off the integer form."""
    L, mu, nu = p.integer_form
    lam_l = tuple([Fraction(m + n, 2 * L) for m, n in zip(mu, nu)])
    lam_r = tuple([Fraction(n - m, 2 * L) for m, n in zip(mu, nu)])
    return LanglandsPair(p.group, lam_l, lam_r)


def from_langlands(lp: LanglandsPair) -> GenuineParam:
    mu = tuple(a - b for a, b in zip(lp.lambda_l, lp.lambda_r))
    nu = tuple(a + b for a, b in zip(lp.lambda_l, lp.lambda_r))
    return GenuineParam(lp.group, mu, nu)


def hermitian_dual(p: GenuineParam) -> GenuineParam:
    """The dual parameter (mu, -nu); an involution for real nu."""
    return GenuineParam(p.group, p.mu, tuple(-x for x in p.nu))


@dataclass(frozen=True)
class DominantForm:
    param: GenuineParam
    weyl: WeylElement
    outer_applied: bool


def dominantize(p: GenuineParam) -> DominantForm:
    """Conjugate so that mu is dominant (sorted non-increasing, entries >= 0).

    For family D only an even number of sign flips is available; when an odd
    number would be needed the diagram flip of the last coordinate is applied
    on top and reported in ``outer_applied``.  The signs and the order are
    found on the integer form, and only the integers are permuted; the
    dominant form reuses the input's Fractions and is not scaled again.  A
    parameter whose mu is dominant already is its own dominant form, with
    the identity element.
    """
    n = p.group.rank
    L, mu, nu = p.integer_form
    if min(mu) >= 0 and list(mu) == sorted(mu, reverse=True):
        return DominantForm(p, WeylElement.identity(n), False)
    signs = [-1 if m < 0 else 1 for m in mu]
    if p.group.family == "D" and signs.count(-1) % 2 == 1:
        # leave the flip of smallest |mu| undone; D-dominance allows a
        # single negative last coordinate, removed below by the outer flip
        j_min = min(range(n), key=lambda j: (abs(mu[j]), signs[j]))
        signs[j_min] = -signs[j_min]
    flipped_mu = [s * m for s, m in zip(signs, mu)]
    order = sorted(range(n), key=lambda j: -flipped_mu[j])
    # stable sort: order[i] is the source position landing at slot i
    perm = [0] * n
    out_signs = [1] * n
    for i, j in enumerate(order):
        perm[j] = i
        out_signs[i] = signs[j]
    w = WeylElement(tuple(perm), tuple(out_signs))
    outer = p.group.family == "D" and flipped_mu[order[-1]] < 0
    ints = [apply(w, v) for v in (mu, nu)]
    if outer:
        ints = [v[:-1] + (-v[-1],) for v in ints]
    # the Fractions of the input, by integer; a value the input holds only
    # negated is negated once
    value_of = dict(zip(mu + nu, p.mu + p.nu))
    for s in {*ints[0], *ints[1]}.difference(value_of):
        value_of[s] = -value_of[-s]
    q = GenuineParam._with_integer_form(
        p.group, *(tuple(map(value_of.__getitem__, v)) for v in ints), (L, *ints))
    return DominantForm(q, w, outer)


def _mu_blocks(mu):
    """Runs of equal mu-values as (value, start, stop)."""
    blocks = []
    start = 0
    for value, run in groupby(mu):
        stop = start + len(list(run))
        blocks.append((value, start, stop))
        start = stop
    return blocks


def hermitian_witness(p: GenuineParam):
    """Some w with w mu = mu and w nu = -nu, or None.

    Requires mu dominant.  Within each constant-mu block the nu-multiset is
    matched against its negative; sign flips are available only on zero
    mu-entries (a flip would negate a nonzero entry), and for family D the
    total number of flips must be even.  The matching runs on the integer
    form of p.
    """
    n = p.group.rank
    _, mu, nu = p.integer_form
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("hermitian_witness expects dominant mu")
    perm = [None] * n
    signs = [1] * n
    flips = 0
    free_parity_slot = None
    for value, start, stop in _mu_blocks(mu):
        by_value = {}
        for i in range(start, stop):
            by_value.setdefault(nu[i], []).append(i)
        for v, positions in by_value.items():
            if v < 0 and -v in by_value:
                continue  # matched from the side of -v
            # pair +v with -v (0 with itself); slot i receives nu[j] = -nu[i]
            mates = by_value.get(-v, [])
            for i, j in zip(positions, mates):
                perm[j] = i
                perm[i] = j
            unmatched = positions[len(mates):] + mates[len(positions):]
            if unmatched and value != 0:
                return None  # a flip would negate a nonzero mu-entry
            for i in unmatched:
                perm[i] = i
                signs[i] = -1
            flips += len(unmatched)
        if value == 0 and 0 in by_value:
            free_parity_slot = by_value[0][0]
    if p.group.family == "D" and flips % 2 == 1:
        if free_parity_slot is None:
            return None
        signs[free_parity_slot] *= -1
    w = WeylElement(tuple(perm), tuple(signs))
    # on the scaled vectors: scaling is injective and linear, so this is
    # w mu = mu and w nu = -nu
    assert apply(w, mu) == mu and apply(w, nu) == tuple(-x for x in nu)
    return w


def is_conjugate(p1: GenuineParam, p2: GenuineParam) -> bool:
    """True iff a single Weyl element carries (mu1, nu1) to (mu2, nu2)."""
    if p1.group != p2.group:
        raise ValueError("parameters live in different groups")
    from collections import Counter
    c1 = Counter(zip(p1.mu, p1.nu))
    c2 = Counter(zip(p2.mu, p2.nu))
    seen = set()
    parity = 0
    has_free = c1[(Fraction(0), Fraction(0))] > 0
    for key in set(c1) | set(c2):
        if key in seen:
            continue
        a, b = key
        mate = (-a, -b)
        seen.add(key)
        seen.add(mate)
        u, v = c1[key], c1[mate]
        u2, v2 = c2[key], c2[mate]
        if u + v != u2 + v2:
            return False
        if key == mate:
            continue
        parity += (u + u2) % 2
    if p1.group.family == "D" and parity % 2 == 1 and not has_free:
        return False
    return True


def rho(group: GroupTag) -> tuple:
    """Half sum of positive roots: D n -> (n-1,...,1,0); B n -> (n-1/2,...,1/2)."""
    n = group.rank
    if group.family == "D":
        return tuple(Fraction(n - 1 - i) for i in range(n))
    return tuple(Fraction(2 * (n - i) - 1, 2) for i in range(n))


def enumerate_weyl(group: GroupTag):
    """All elements of W(B_n) or W(D_n); for tests at small rank only."""
    n = group.rank
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if group.family == "D" and signs.count(-1) % 2 == 1:
                continue
            yield WeylElement(perm, signs)
