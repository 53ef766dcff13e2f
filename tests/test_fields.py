from fractions import Fraction

import pytest

from dgbr.errors import DgError, FieldMismatch, ParseError
from dgbr.fields import GF, QQ, field_from_description


def test_rational_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert QQ.format(Fraction(5)) == "5"


@pytest.mark.parametrize("bad", ["1.5", "2e3", "1/0", "x", "", "1/2/3"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ParseError):
        QQ.parse(bad)


def test_rational_arithmetic():
    a = QQ.parse("2/3")
    b = QQ.parse("3/5")
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.mul(a, b) == Fraction(2, 5)
    assert QQ.characteristic() == 0


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.parse("12") == 5
    assert F.parse("-1") == 6
    assert F.format(6) == "6"
    assert F.characteristic() == 7


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_fraction_with_p_in_the_denominator_is_a_field_mismatch():
    F = GF(7)
    assert F.coerce(Fraction(3, 2)) == 5
    for x in (Fraction(1, 7), Fraction(-3, 14)):
        with pytest.raises(FieldMismatch, match="denominator divisible by 7"):
            F.coerce(x)


def test_gf_requires_prime():
    with pytest.raises(DgError):
        GF(6)
    with pytest.raises(DgError):
        GF(1)


# the smallest strong pseudoprime to every prime base up to 37
SPSP_37 = 318665857834031151167461  # = 399165290221 * 798330580441
MR_BOUND = 3317044064679887385961981  # base-41 test is exact below this


def test_gf_rejects_strong_pseudoprime():
    assert SPSP_37 == 399165290221 * 798330580441
    with pytest.raises(DgError, match="must be prime"):
        GF(SPSP_37)


def test_gf_accepts_large_prime_below_bound():
    p = 2**61 - 1
    assert GF(p).inv(2) * 2 % p == 1


@pytest.mark.parametrize("p", [MR_BOUND, 2**89 - 1])
def test_gf_rejects_orders_at_or_above_bound(p):
    with pytest.raises(DgError, match="must be below"):
        GF(p)
    with pytest.raises(ParseError):
        field_from_description({"kind": "prime", "p": p})


def test_gf_instances_cached():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(2) != QQ


def test_field_from_description_roundtrip():
    assert field_from_description(QQ.describe()) is QQ
    assert field_from_description(GF(3).describe()) is GF(3)


@pytest.mark.parametrize("desc", [
    {"kind": "real"},
    {"kind": "prime"},
    {"kind": "prime", "p": 4},
    {"kind": "rationals", "p": 3},
    {},
    "rationals",
])
def test_field_from_description_rejects(desc):
    with pytest.raises((ParseError, DgError)):
        field_from_description(desc)


def test_coerce():
    assert QQ.coerce(2) == Fraction(2)
    assert GF(3).coerce(5) == 2
    assert GF(3).coerce(-1) == 2


@pytest.mark.parametrize("text", ["1_0", "-1_000", "٣", "１", "+٣"])
def test_literals_take_only_ascii_digits(text):
    # Fraction and int read "1_0" as 10 (Fraction only from Python 3.11 on) and
    # any Unicode decimal digit as a digit; the file grammar allows neither
    with pytest.raises(ParseError) as qq:
        QQ.parse(text)
    assert str(qq.value) == f"bad rational literal {text!r}: Invalid literal for Fraction: {text!r}"
    with pytest.raises(ParseError) as gf:
        GF(7).parse(text)
    assert str(gf.value) == f"bad residue literal {text!r}"


@pytest.mark.parametrize("text", ["1_0/3", "3/1_0", "1/٣"])
def test_fractions_take_only_ascii_digits(text):
    with pytest.raises(ParseError) as qq:
        QQ.parse(text)
    assert str(qq.value) == f"bad rational literal {text!r}: Invalid literal for Fraction: {text!r}"


@pytest.mark.parametrize("text, value", [
    (" -12 ", -12), ("+3/6", Fraction(1, 2)), ("007", 7), ("-6/3", -2), ("0/5", 0),
])
def test_rational_literals_in_the_grammar(text, value):
    got = QQ.parse(text)
    assert got == value and type(got) is type(value)
