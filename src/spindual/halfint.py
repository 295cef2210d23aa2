"""Exact coordinate arithmetic for parameter vectors.

All coordinates are :class:`fractions.Fraction`.  Classification inputs are
half-integers (denominator 1 or 2); general rationals occur only in
intertwining scalars and in deformation parameters of complementary series.
No floating point is used anywhere.
"""

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
    return tuple(frac(v) for v in values)


def is_half_odd(v: Fraction) -> bool:
    """True for strictly half-integral values: ..., -3/2, -1/2, 1/2, ..."""
    return frac(v).denominator == 2


def fmt(v: Fraction) -> str:
    v = frac(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

def fmt_vec(values) -> str:
    return "(" + ", ".join(fmt(v) for v in values) + ")"


def residue_mod2(v: Fraction) -> Fraction:
    """The representative of v mod 2Z lying in (-1, 1]."""
    v = frac(v)
    k = -((1 - v) // 2)  # ceil((v-1)/2)
    return v - 2 * k
