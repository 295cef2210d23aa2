"""Exact coordinate arithmetic for parameter vectors.

Public coordinates are :class:`fractions.Fraction` values: half-integers in
classification inputs, general rationals in intertwining scalars and in the
deformations of complementary series.  The classification (genuineness,
dominance, the Hermitian check, residue classes, string extraction, GL
blocks) runs on the integers L*v of a parameter scaled once by a common
denominator L (:func:`scaled`, kept as ``GenuineParam.integer_form``;
:func:`residue`).  The way back, :func:`unscaled` (and :func:`ratio` for
one value), reads the Fractions k/L off one bounded table shared by the
whole package: a parameter built from its integer form, the half-integers
of string pairs (L = 2), the GL factors and the Langlands coordinates hold
few distinct values in many entries, so each is built once, and the
garbage collector walks few Fraction objects.  No floating point is used.
"""

import math
import re
from fractions import Fraction

HALF = Fraction(1, 2)

_FRACTION_ONLY = {Fraction}

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like ``"-3/2"`` to Fraction.

    A string must be an optionally signed integer or integer quotient;
    decimal and exponent notation are rejected.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"{x!r} is not a rational like '-3/2'")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(values) -> tuple:
    """The entries as Fractions; entries that are Fractions already are kept,
    and a tuple of Fractions is returned as it is."""
    values = values if type(values) is tuple else tuple(values)
    # one C-level pass over the types; coerce only when some entry needs it
    if set(map(type, values)) <= _FRACTION_ONLY:
        return values
    return tuple([v if type(v) is Fraction else frac(v) for v in values])


def is_sign(s) -> bool:
    """s is +1 or -1; ``True == 1``, but a bool is not a sign."""
    return s in (1, -1) and not isinstance(s, bool)


def fmt(v: Fraction) -> str:
    """``"3/2"``, or ``"3"`` for an integer."""
    return str(frac(v))


def fmt_vec(values) -> str:
    return "(" + ", ".join(map(fmt, values)) + ")"


def scaled(values) -> tuple:
    """(L, ints): the least common denominator L of the Fractions and the
    integers L*v.  Scaling is injective and linear, so equality, order,
    negation and sums carry over to the integers."""
    ratios = [v.as_integer_ratio() for v in values]
    L = math.lcm(*{d for _, d in ratios})
    return L, tuple([n * (L // d) for n, d in ratios])


class _RatioTable(dict):
    """Fraction(k, L) by k for one denominator L; an entry is kept only when
    |k| < _RATIO_BOUND."""

    def __init__(self, L: int):
        self.L = L

    def __missing__(self, k: int) -> Fraction:
        v = Fraction(k, self.L)
        if -_RATIO_BOUND < k < _RATIO_BOUND:
            self[k] = v
        return v


# at most 15 tables of at most 1,023 entries each
_RATIO_BOUND, _DENOMINATOR_BOUND = 512, 16
_RATIO_TABLES = {}


def _ratio_table(L: int) -> _RatioTable:
    """The shared table of denominator L, or a table for one call when L is
    past the bound."""
    table = _RATIO_TABLES.get(L)
    if table is None:
        table = _RatioTable(L)
        if L < _DENOMINATOR_BOUND:
            _RATIO_TABLES[L] = table
    return table


def ratio(k: int, L: int) -> Fraction:
    """The Fraction k/L, from the shared table of its lowest terms."""
    g = math.gcd(k, L)
    return _ratio_table(L // g)[k // g]


def unscaled(L: int, ints) -> tuple:
    """The Fractions k/L of the ints k, inverting :func:`scaled`; each value
    inside the bounds is one shared object."""
    return tuple(map(_ratio_table(L).__getitem__, ints))


def residue(s: int, L: int) -> int:
    """L times the representative of s/L mod 2Z in (-1, 1]: s mod 2L in (-L, L]."""
    r = s % (2 * L)
    return r - 2 * L if r > L else r
