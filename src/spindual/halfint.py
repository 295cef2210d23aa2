"""Exact coordinate arithmetic for parameter vectors.

Public coordinates are :class:`fractions.Fraction` values: half-integers in
classification inputs, general rationals in intertwining scalars and in the
deformations of complementary series.  The classification (genuineness,
dominance, the Hermitian check, residue classes, string extraction, GL
blocks) runs on the integers L*v of a parameter scaled once by a common
denominator L (:func:`scaled`, kept as ``GenuineParam.integer_form``).
This module alone shares and prints a value k/L: one bounded table rule
serves the Fraction k/L (:func:`unscaled`, :func:`ratio`) and its text, the
``str`` of that Fraction rendered from k and L (:func:`texts`,
:func:`fmt_ints`, :func:`fmt`).  Parameters, string pairs (L = 2), GL
factors and Langlands coordinates hold few distinct values in many entries,
so each value and each text is built once and whatever spindual prints is
rendered from the integers.  No floating point is used.
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


def scaled(values) -> tuple:
    """(L, ints): the least common denominator L of the Fractions and the
    integers L*v.  Scaling is injective and linear, so equality, order,
    negation and sums carry over to the integers."""
    ratios = [v.as_integer_ratio() for v in values]
    L = math.lcm(*{d for _, d in ratios})
    return L, tuple([n * (L // d) for n, d in ratios])


class _Table(dict):
    """make(key) by key; an entry is kept only when |key| < bound."""

    def __init__(self, make, bound: int):
        self.make, self.bound = make, bound

    def __missing__(self, key):
        entry = self.make(key)
        if -self.bound < key < self.bound:
            self[key] = entry
        return entry


def _tables(entry) -> _Table:
    """The shared entries entry(k, L) of one kind: a table per denominator
    L < 16, each keeping |k| < 512, so at most 15 tables of 1,023 entries."""
    return _Table(lambda L: _Table(lambda k: entry(k, L), _RATIO_BOUND), _DENOMINATOR_BOUND)


def _text(k: int, L: int) -> str:
    """``str(Fraction(k, L))`` for L > 0, from the ints: k/L in lowest
    terms, without the denominator when it is 1."""
    g = math.gcd(k, L)
    return str(k // g) if g == L else f"{k // g}/{L // g}"


_RATIO_BOUND, _DENOMINATOR_BOUND = 512, 16
_RATIO_TABLES = _tables(Fraction)
_TEXT_TABLES = _tables(_text)


def ratio(k: int, L: int) -> Fraction:
    """The Fraction k/L, from the shared table of its lowest terms."""
    g = math.gcd(k, L)
    return _RATIO_TABLES[L // g][k // g]


def unscaled(L: int, ints) -> tuple:
    """The Fractions k/L of the ints k, inverting :func:`scaled`; each value
    inside the bounds is one shared object."""
    return tuple(map(_RATIO_TABLES[L].__getitem__, ints))


def texts(L: int, ints) -> list:
    """The texts of k/L for the ints k, ``"3/2"`` or ``"3"`` as ``str`` of
    the Fraction prints them; each text inside the bounds is rendered once."""
    return list(map(_TEXT_TABLES[L].__getitem__, ints))


def fmt_ints(L: int, ints) -> str:
    """``fmt_vec(unscaled(L, ints))``, rendered from the ints."""
    return "(" + ", ".join(texts(L, ints)) + ")"


def fmt(v) -> str:
    """``"3/2"``, or ``"3"`` for an integer: the text of a Fraction or int."""
    k, L = v.as_integer_ratio()
    return _TEXT_TABLES[L][k]


def fmt_vec(values) -> str:
    return "(" + ", ".join(map(fmt, values)) + ")"
