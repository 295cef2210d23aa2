"""Exact coordinate arithmetic for parameter vectors.

Public coordinates are :class:`fractions.Fraction` values: half-integers in
classification inputs, general rationals in intertwining scalars and in the
deformations of complementary series.  The classification (genuineness,
dominance, the Hermitian check, residue classes, string extraction, GL
blocks) runs on the integers L*v of a parameter scaled once by a common
denominator L (:func:`scaled`, kept as ``GenuineParam.integer_form``;
:func:`residue`).  No floating point is used.
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
    """The entries as Fractions; entries that are Fractions already are kept."""
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


def residue(s: int, L: int) -> int:
    """L times the representative of s/L mod 2Z in (-1, 1]: s mod 2L in (-L, L]."""
    r = s % (2 * L)
    return r - 2 * L if r > L else r
