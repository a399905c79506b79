import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.errors import NotPrime, ScalarParseError
from torsorkit.fields import GF, QQ, _is_prime


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    F = GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert F.mul(F.inv(3), 3) == 1


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(NotPrime):
        GF(n)


def test_moduli_beyond_the_certified_range_rejected():
    with pytest.raises(NotPrime, match="too large to certify"):
        GF(2 ** 89 - 1)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_scalars(field, value):
    with pytest.raises(ScalarParseError):
        field.parse(value)
    assert field.parse(int(value)) == int(value)


# -- the stored form over QQ -------------------------------------------------
#
# A rational is stored as an int when integral, else as a Fraction with
# denominator > 1; no method ever returns a float or an integral Fraction.

def _is_stored_rational(v):
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def test_rational_results_take_the_stored_form():
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert type(QQ.parse(Fraction(6, 3))) is int and QQ.parse(Fraction(6, 3)) == 2
    assert type(QQ.mul(Fraction(1, 2), 2)) is int and QQ.mul(Fraction(1, 2), 2) == 1
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(5)) is int


rationals = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_every_rational_method_returns_the_stored_form(x, y):
    """Each method agrees with Fraction arithmetic and returns the stored
    form, on stored inputs of both forms."""
    a, b = QQ.parse(x), QQ.parse(y)
    assert _is_stored_rational(a) and _is_stored_rational(b)
    assert QQ.parse(QQ.to_str(a)) == a and QQ.to_str(a) == str(Fraction(x))
    results = {"add": (QQ.add(a, b), Fraction(x) + y), "sub": (QQ.sub(a, b), Fraction(x) - y),
               "mul": (QQ.mul(a, b), Fraction(x) * y), "neg": (QQ.neg(a), -Fraction(x))}
    if y:
        results["inv"] = (QQ.inv(b), 1 / Fraction(y))
        results["div"] = (QQ.div(a, b), Fraction(x) / y)
    for name, (got, want) in results.items():
        assert _is_stored_rational(got) and got == want, (name, got)
    # raw native results; without ``summed`` the values are nonzero products
    raw = {0: a * b, 1: a + b, 2: a - b, 3: a * Fraction(1, 2), 4: a * 2}
    nonzero = {k: v for k, v in raw.items() if v}
    for acc, summed in ((raw, True), (nonzero, False)):
        out = QQ.normalise(dict(acc), summed)
        assert out == nonzero
        assert all(_is_stored_rational(v) for v in out.values()), out


# -- scalar literals ---------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("text", ["1.5", "1e3", "1e10000000", "1_000", " 7 ", "7\n", "",
                                  "+", "1/", "/2", "1/-2", "1/2/3", "0x1f", "\u0663"])
def test_only_the_written_literal_grammar_parses(field, text):
    """Both fields parse ``[+-]digits`` or ``[+-]digits/digits`` and
    nothing else, at once: an exponent never expands into a huge integer."""
    start = time.perf_counter()
    with pytest.raises(ScalarParseError):
        field.parse(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("text, value", [("7", 7), ("-7", -7), ("+7", 7), ("007", 7),
                                         ("-3/7", Fraction(-3, 7)), ("4/2", 2), ("0/5", 0)])
def test_written_literals_parse(field, text, value):
    want = value if field is QQ else value.numerator * pow(value.denominator, -1, 101) % 101
    assert field.parse(text) == want
    assert field.parse(field.to_str(field.parse(text))) == field.parse(text)


@pytest.mark.parametrize("field, text", [(QQ, "1/0"), (QQ, "-3/000"), (GF(101), "1/0"),
                                         (GF(101), "1/101"), (GF(101), "-3/202")])
def test_a_zero_denominator_is_a_parse_error(field, text):
    with pytest.raises(ScalarParseError):
        field.parse(text)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="this interpreter converts strings of any length to int")
def test_literals_beyond_the_digit_limit_are_a_parse_error():
    with pytest.raises(ScalarParseError):
        QQ.parse("9" * 5000)
    with pytest.raises(ScalarParseError):
        GF(101).parse("1/" + "9" * 5000)
