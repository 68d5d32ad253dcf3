"""Exact rational parsing/formatting.

All public values in this package are :class:`fractions.Fraction`; floats are
never accepted for weights or thresholds.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or decimal-string rationals exactly; exponents are
    rejected ("1e10000000" would be a 33-Mbit integer)."""
    if isinstance(text, float):
        raise TypeError("floats are not accepted; pass a string or Fraction")
    if isinstance(text, str) and "e" in text.lower():
        raise ValueError(f"not a rational in p/q or decimal form: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Serialize as "p" or "p/q" (never a float)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
