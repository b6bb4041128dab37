import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperline import intervals as iv
from hyperline.intervals import Interval

F = Fraction

rationals = st.fractions(min_value=F(-50), max_value=50, max_denominator=40)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_with_point(draw):
    box = draw(intervals())
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=16))
    return box, box.lo + t * (box.hi - box.lo)


class TestConstruction:
    def test_orders_endpoints_or_raises(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_point(self):
        box = Interval.point(F(2, 3))
        assert box.lo == box.hi == F(2, 3)
        assert box.width == 0


class TestContainment:
    @given(interval_with_point(), interval_with_point())
    def test_addition(self, ap, bp):
        (a, x), (b, y) = ap, bp
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)

    @given(interval_with_point(), interval_with_point())
    def test_multiplication(self, ap, bp):
        (a, x), (b, y) = ap, bp
        assert (a * b).contains(x * y)

    @given(interval_with_point())
    def test_negation_and_scalar(self, ap):
        a, x = ap
        assert (-a).contains(-x)
        assert (a * F(-3, 2)).contains(x * F(-3, 2))
        assert (a + 5).contains(x + 5)
        assert (2 - a).contains(2 - x)

    @given(interval_with_point(), st.integers(0, 6))
    def test_integer_powers(self, ap, k):
        a, x = ap
        assert a.pow_int(k).contains(x ** k)

    @given(interval_with_point())
    def test_abs_bounds(self, ap):
        a, x = ap
        assert a.abs_lo() <= abs(x) <= a.abs_hi()

    @given(intervals(), st.fractions(min_value=0, max_value=5,
                                     max_denominator=8))
    def test_widen(self, a, margin):
        wide = a.widen(margin)
        assert wide.lo <= a.lo and a.hi <= wide.hi
        assert wide.width == a.width + 2 * margin


def _decimal_reference(text):
    """The integer of a digit string, by Horner's rule over 1000-digit pieces."""
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


class TestDecimalChunks:
    """The decimal codec, past CPython's 4300-digit int <-> str limit."""

    @pytest.mark.parametrize("length", [1, 2999, 3000, 3001, 4300, 4301, 9001, 40000])
    def test_round_trip(self, length):
        rng = random.Random(length)
        for lead in "19":
            text = lead + "".join(rng.choice("0123456789") for _ in range(length - 1))
            x = _decimal_reference(text)
            assert iv._from_decimal(text) == x
            assert iv._to_decimal(x) == text
            assert iv._to_decimal(-x) == "-" + text
            assert iv._from_decimal("-" + text) == -x
            assert iv.read_int(text) == x and iv.read_int(" -" + text + "\n") == -x
            assert iv.read_fraction(f"-{text}/{text}7") == F(-x, 10 * x + 7)
            assert iv.read_fraction(f"{text}e-{length}") == F(x, 10 ** length)
        # the zero padding of each low half
        for x in (10 ** length - 1, 10 ** length + 1, 3 * 10 ** length):
            assert iv._from_decimal(iv._to_decimal(x)) == x
        assert iv._to_decimal(10 ** length) == "1" + "0" * length

    @pytest.mark.parametrize("text", ["", "-", "+5", " 5", "5_000", "1.5", "\u0663",
                                      "1e5", "0x10"])
    def test_rejects_non_decimal(self, text):
        with pytest.raises(ValueError):
            iv._from_decimal(text)

    @given(st.sampled_from(["", "-"]), st.integers(0, 4),
           st.sampled_from([1, 2, 40, 2999, 3000, 3001]), st.integers(0, 2 ** 32))
    def test_from_decimal_is_read_int(self, sign, zeros, count, seed):
        # int() up to _DIGIT_CHUNK characters, read_int past it; the text of
        # 2999 to 3001 digits is 2999 to 3002 characters long with its sign
        digits = "0" * zeros + "".join(random.Random(seed).choices("0123456789", k=count))
        text = sign + digits[:count]
        assert iv._from_decimal(text) == iv.read_int(text)

    @pytest.mark.parametrize("length", [2999, 3000, 3001])
    def test_from_decimal_at_the_chunk_length(self, length):
        for text in ("7" * length, "0" * (length - 1) + "7", "-" + "9" * (length - 1),
                     "-" + "0" * (length - 1)):
            want = -_decimal_reference(text[1:]) if text[0] == "-" else _decimal_reference(text)
            assert iv._from_decimal(text) == iv.read_int(text) == want

    def test_fractions_print_as_str(self):
        for q in (F(0), F(-3), F(5, 7), F(-2 ** 64 - 1, 3 ** 40)):
            assert iv._fraction_to_text(q) == str(q)
            assert iv._fraction_from_text(str(q)) == q


# int() and Fraction() syntax the command line has always accepted, and
# refused, below the digit limit
INT_TEXTS = ["0", "-0", "+7", " 12 ", "\t-3\n", "1_000", "007", "\u0663\u0664", "",
             " ", "-", "1__0", "_1", "1_", "1.5", "1e3", "0x10", "x", "- 1", "\u00b2"]
FRACTION_TEXTS = INT_TEXTS + ["1/2", "-3/4", " +5/6 ", "1/0", "0/0", "1/-2", "1.25",
                              "-.5", "5.", "1e-3", "2E+2", "1_0.0_1", "nan", "inf",
                              "-Infinity", "1/2/3", "/2", "1/", "1 /2", "x/2", "1_.5", "1._5",
                              "1e_5", "1e5_0", "\u0663.\u0664", "1.5_", "sNaN", ".", "e5"]


def _outcome(function, text):
    try:
        return function(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestReadArgv:
    """``read_int`` and ``read_fraction`` read command-line numbers as
    ``int()`` and ``Fraction()`` do, with no limit on the digits."""

    @pytest.mark.parametrize("text", INT_TEXTS)
    def test_read_int_is_int(self, text):
        assert _outcome(iv.read_int, text) == _outcome(int, text)

    @pytest.mark.parametrize("text", FRACTION_TEXTS)
    def test_read_fraction_is_fraction(self, text):
        # p/q is read as Fraction(int(p), int(q)), which also takes inner
        # whitespace and a signed q; everything else as Fraction reads it
        num, slash, den = text.partition("/")
        parts = [_outcome(int, part) for part in (num, den)]
        if slash and all(isinstance(part, int) for part in parts):
            want = _outcome(lambda _: Fraction(*parts), text)
        else:
            want = _outcome(Fraction, text)
        assert _outcome(iv.read_fraction, text) == want

    def test_long_text_is_capped(self):
        with pytest.raises(ValueError, match="cap"):
            iv.read_int("7" * (iv._MAX_DECIMAL_CHARS + 1))
