"""Parsing and formatting of exact rationals in the "p/q" wire format.

Decimal strings are converted exactly ("0.25" -> 1/4); binary floats are
converted through their shortest repr so that a JSON literal like 0.1 means
the decimal 1/10 the author typed, not the nearest double.

Strings are bounded before `Fraction` sees them: "1e999999999" would make it
build a billion-digit power of ten.

`_scaled` is the one place where rationals are scaled to integers: a process
row once, in `ProcessTensor.from_matrix`; a distribution once, when it is
built (`scenario.Distribution` keeps the pair for every later reader); and
the right-hand side of an LP or a certificate where it is read.  The
coefficient matrices that `exactlp` takes are int matrices already, and the
stationary solve's right-hand side is int too.  A `Fraction` is built only
for a result.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ParseError

# longest accepted rational string, in characters
MAX_RATIONAL_CHARS = 1000
# largest accepted absolute decimal exponent, as in "1e1000"
MAX_RATIONAL_EXPONENT = 1000
# longest echo of an offending value in an error message
MAX_ECHO_CHARS = 60

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def echo(value) -> str:
    """repr of value, cut to MAX_ECHO_CHARS with a trailing ellipsis."""
    text = repr(value)
    if len(text) <= MAX_ECHO_CHARS:
        return text
    return text[:MAX_ECHO_CHARS] + "..."


def _parse_string(text: str) -> Fraction:
    if len(text) > MAX_RATIONAL_CHARS:
        raise ParseError(
            f"rational longer than MAX_RATIONAL_CHARS = {MAX_RATIONAL_CHARS} "
            f"characters: {echo(text)}"
        )
    for match in _EXPONENT.finditer(text):
        digits = match.group(1).replace("_", "")
        if digits.strip("+-") and abs(int(digits)) > MAX_RATIONAL_EXPONENT:
            raise ParseError(
                f"exponent beyond MAX_RATIONAL_EXPONENT = {MAX_RATIONAL_EXPONENT}: "
                f"{echo(text)}"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {echo(text)}") from exc


def parse_rational(value) -> Fraction:
    """Convert an int, Fraction, "p/q" string, decimal string or float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        return _parse_string(value)
    raise ParseError(f"not a rational: {echo(value)}")


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(l, [v * l for v in values]): l is the lcm of the denominators, so
    every v * l is an int.  Ints count as rationals over 1; no values give
    (1, [])."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def format_rational(value: Fraction) -> str:
    """Render as "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
