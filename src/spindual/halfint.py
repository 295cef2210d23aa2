"""Exact coordinate arithmetic for parameter vectors.

Every interface takes and returns :class:`fractions.Fraction` coordinates.
Classification inputs are half-integers (denominator 1 or 2); general
rationals occur in intertwining scalars and in the deformation parameters of
complementary series.  Inside the front end of the classification
(dominance, the Hermitian check, residue classes and GL chains) a vector is
scaled by the least common denominator of its entries and handled as exact
integers (:func:`scaled`, :func:`residue`).  No floating point is used
anywhere.
"""

import math
import re
from fractions import Fraction

HALF = Fraction(1, 2)

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
    return tuple(map(frac, values))


def is_half_odd(v: Fraction) -> bool:
    """True for strictly half-integral values: ..., -3/2, -1/2, 1/2, ..."""
    return frac(v).denominator == 2


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


def residue(s: int, L: int) -> int:
    """L times the representative of s/L mod 2Z in (-1, 1]: s mod 2L in (-L, L]."""
    r = s % (2 * L)
    return r - 2 * L if r > L else r
