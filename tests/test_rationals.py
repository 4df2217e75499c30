import time
from fractions import Fraction

import pytest

from procnet import rationals
from procnet.errors import ParseError
from procnet.rationals import format_rational, parse_rational


def test_parse_fraction_string():
    assert parse_rational("1/6") == Fraction(1, 6)
    assert parse_rational("-3/4") == Fraction(-3, 4)


def test_parse_decimal_string_is_exact():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_int_and_float():
    assert parse_rational(3) == Fraction(3)
    half = Fraction(1, 2)
    assert parse_rational(half) is half
    # floats go through their shortest repr, recovering the typed decimal
    assert parse_rational(0.1) == Fraction(1, 10)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_rational("one half")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(None)
    with pytest.raises(ParseError):
        parse_rational(True)


def test_format_roundtrip():
    for q in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(1, 6)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"


def test_huge_exponent_is_refused_quickly():
    for text in ("1e999999999", "1E-999999999", "2.5e+1_000_000"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="MAX_RATIONAL_EXPONENT"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1
    exponent = rationals.MAX_RATIONAL_EXPONENT
    assert parse_rational(f"1e{exponent}") == 10**exponent
    assert parse_rational(f"1e-{exponent}") == Fraction(1, 10**exponent)


def test_overlong_string_is_refused():
    limit = rationals.MAX_RATIONAL_CHARS
    assert parse_rational("1" * limit) == int("1" * limit)
    with pytest.raises(ParseError, match="MAX_RATIONAL_CHARS"):
        parse_rational("1" * (limit + 1))


def test_error_messages_cut_the_echoed_value():
    for text in ("x" * 5000, "x" * 900):
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        message = str(info.value)
        assert message.endswith("...")
        assert len(message) < 2 * rationals.MAX_ECHO_CHARS + 60
    with pytest.raises(ParseError, match=r"^not a rational: 'one half'$"):
        parse_rational("one half")
