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
from functools import cached_property
from itertools import groupby, permutations, product

from .halfint import fmt_ints, scaled, unscaled, vec


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
        # a bool is an int subclass, and a float rank fails later, at range()
        if type(self.rank) is not int:
            raise TypeError(f"rank must be an int, got {self.rank!r}")
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
    def identity(n: int) -> "WeylElement":
        """The identity at rank n."""
        return WeylElement(tuple(range(n)), (1,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)


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


@dataclass(frozen=True, eq=False)
class GenuineParam:
    """Group tag plus the (mu, nu) pair.

    The integer form (L, mu_ints, nu_ints) is what the classification reads.
    A parameter built by hand computes it once from its Fractions; one that
    spindual builds from integers (the dominant form, ``pairs_to_param``,
    the Hermitian dual) holds only the integer form, and builds ``mu`` and
    ``nu`` on first read.  The integer form is canonical (L is the least
    common denominator), so ``==`` and ``hash`` read it: equal values, equal
    parameters, however built.
    """
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

    @classmethod
    def _from_integer_form(cls, group: GroupTag, form: tuple) -> "GenuineParam":
        """The parameter of a canonical integer form (L, mu_ints, nu_ints),
        which its caller vouches for: L is the least common denominator of
        the values and both rows have length ``group.rank``."""
        p = object.__new__(cls)
        p.__dict__.update(group=group, integer_form=form)
        return p

    @cached_property
    def integer_form(self) -> tuple:
        """(L, mu_ints, nu_ints): the least common denominator L of mu and nu
        and the integers L*v, computed once; the classification reads these."""
        L, ints = scaled(self.mu + self.nu)
        n = len(self.mu)
        return L, ints[:n], ints[n:]

    def is_genuine(self) -> bool:
        """Every mu-entry is strictly half-integral: L*m = L/2 mod L."""
        L, mu, _ = self.integer_form
        # a mu holds few distinct values, so reduce those
        return L % 2 == 0 and {m % L for m in set(mu)} == {L // 2}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.integer_form == other.integer_form

    def __hash__(self):
        return hash((self.group, self.integer_form))

    def __str__(self):
        L, mu, nu = self.integer_form
        return f"{self.group}: mu={fmt_ints(L, mu)}, nu={fmt_ints(L, nu)}"


def _fraction_row(name: str, row: int) -> cached_property:
    """``mu`` (row 1) or ``nu`` (row 2) of a parameter built from its integer
    form, built on first read and kept; set after the class is made, since
    the dataclass would read a class-body descriptor as the field default."""
    rows = cached_property(lambda p: unscaled(p.integer_form[0], p.integer_form[row]))
    rows.__set_name__(GenuineParam, name)
    return rows


GenuineParam.mu, GenuineParam.nu = _fraction_row("mu", 1), _fraction_row("nu", 2)


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
    lam_l = unscaled(2 * L, [m + n for m, n in zip(mu, nu)])
    lam_r = unscaled(2 * L, [n - m for m, n in zip(mu, nu)])
    return LanglandsPair(p.group, lam_l, lam_r)


def hermitian_dual(p: GenuineParam) -> GenuineParam:
    """The dual parameter (mu, -nu); an involution for real nu."""
    L, mu, nu = p.integer_form
    return GenuineParam._from_integer_form(p.group, (L, mu, tuple([-s for s in nu])))


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
    dominant form is built from them, with no Fraction and no new scaling.  A
    parameter whose mu is dominant already is its own dominant form, with
    the identity element.
    """
    q, outer, moved = _dominant(p)
    if moved is None:
        return DominantForm(q, WeylElement.identity(p.group.rank), outer)
    return DominantForm(q, WeylElement(*moved), outer)


def _dominant(p: GenuineParam):
    """(dominant parameter, outer flag, (perm, signs)) of :func:`dominantize`,
    with the element's rows as tuples, or None in their place for an input
    that is dominant already.  ``spinclass.classify`` reads no element, so it
    calls this and builds none."""
    n = p.group.rank
    L, mu, nu = p.integer_form
    if min(mu) >= 0 and list(mu) == sorted(mu, reverse=True):
        return p, False, None
    signs = [-1 if m < 0 else 1 for m in mu]
    if p.group.family == "D" and signs.count(-1) % 2 == 1:
        # leave the flip of smallest |mu| undone; D-dominance allows a
        # single negative last coordinate, removed below by the outer flip
        # (the first of least |mu|, a negative entry before a positive one)
        keys = [2 * abs(m) + (m > 0) for m in mu]
        j_min = keys.index(min(keys))
        signs[j_min] = -signs[j_min]
    flipped_mu = [s * m for s, m in zip(signs, mu)]
    # stable: order[i] is the source position landing at slot i, and
    # reverse=True keeps equal entries in their input order
    order = sorted(range(n), key=flipped_mu.__getitem__, reverse=True)
    perm = [0] * n
    out_signs, mu_row, nu_row = [], [], []
    for i, j in enumerate(order):
        perm[j] = i
        s = signs[j]
        out_signs.append(s)
        mu_row.append(flipped_mu[j])
        nu_row.append(nu[j] if s == 1 else -nu[j])
    outer = p.group.family == "D" and mu_row[-1] < 0
    if outer:
        mu_row[-1], nu_row[-1] = -mu_row[-1], -nu_row[-1]
    q = GenuineParam._from_integer_form(p.group, (L, tuple(mu_row), tuple(nu_row)))
    return q, outer, (tuple(perm), tuple(out_signs))


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

    Requires mu non-increasing.  With nu negated where mu < 0, w fixes mu
    when it permutes each class of equal |mu| (the mu-blocks, for mu >= 0)
    and flips in place only where mu = 0.  Sorted by nu, a class of nonzero
    |mu| must read as its negation reversed, and w swaps each position with
    its mirror; on mu = 0, w flips every entry but, in family D with an odd
    count, one nu = 0.  Runs on the integer form of p.
    """
    n = p.group.rank
    _, mu, nu = p.integer_form
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("hermitian_witness expects dominant mu")
    flat = [-x if m < 0 else x for m, x in zip(mu, nu)]
    perm, signs = list(range(n)), [1] * n
    order = sorted(range(n), key=lambda i: (abs(mu[i]), flat[i]))
    for a, run in groupby(order, key=lambda i: abs(mu[i])):
        block = list(run)
        if a:
            if [flat[i] for i in block] != [-flat[i] for i in reversed(block)]:
                return None
            for i, j in zip(block, reversed(block)):
                perm[i], signs[j] = j, 1 if mu[i] == mu[j] else -1
        else:
            for i in block:
                signs[i] = -1
            if p.group.family == "D" and len(block) % 2 == 1:
                zeros = [i for i in block if nu[i] == 0]
                if not zeros:
                    return None
                signs[zeros[0]] = 1
    w = WeylElement(tuple(perm), tuple(signs))
    # on the scaled vectors: scaling is injective and linear, so this is
    # w mu = mu and w nu = -nu
    assert apply(w, mu) == mu and apply(w, nu) == tuple(-x for x in nu)
    return w


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
