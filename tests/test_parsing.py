from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from casolag import ParseError, Poly, parse_poly, render
from casolag.parsing import MAX_DEGREE, MAX_DEPTH


@pytest.mark.parametrize("text,expected", [
    ("0", Poly.zero()),
    ("x", Poly.x()),
    ("-x", -Poly.x()),
    ("x^2+1", Poly((1, 0, 1))),
    ("1/2*x^2", Poly((0, 0, F(1, 2)))),
    ("x^5+x^4+x^3+1", Poly((1, 0, 0, 1, 1, 1))),
    ("(x+1)*(x-1)", Poly((-1, 0, 1))),
    ("2*(x+3)", Poly((6, 2))),
    ("-12*x^5+144*x^4-628*x^3+1296*x^2-1280*x+476",
     Poly((476, -1280, 1296, -628, 144, -12))),
    ("x^0", Poly.one()),
    ("- -x", Poly.x()),
    ("(x+1)^3", Poly((1, 3, 3, 1))),
])
def test_parse_values(text, expected):
    assert parse_poly(text) == expected


def test_whitespace_tolerated():
    assert parse_poly(" x ^ 2 + 1 ") == Poly((1, 0, 1))


# the last three have digits other than ASCII, which as_rat and the schemas'
# [0-9] refuse too (\d would read them as 3*x, x^2 and x+1)
@pytest.mark.parametrize("bad", [
    "", "x/2", "(x+1)/3", "x^-1", "x^(2)", "2**x", "x+", "*x", "x 2",
    "(x", "x)", "x^x", "1/0", "\u0663*x", "x^\u0662", "x+\uff11",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_division_only_in_rational_literals():
    # constant/constant is a rational literal, variable division is not
    assert parse_poly("3/4") == Poly.const(F(3, 4))
    assert parse_poly("3/4*x") == Poly((0, F(3, 4)))
    with pytest.raises(ParseError):
        parse_poly("3/x")


def test_error_position_and_expected():
    with pytest.raises(ParseError) as ei:
        parse_poly("x^ +2")
    assert ei.value.position == 3
    assert ei.value.expected == ("integer",)
    assert "exponent" in str(ei.value)


def test_nesting_up_to_max_depth_parses():
    d = MAX_DEPTH
    assert parse_poly("(" * d + "x" + ")" * d) == Poly.x()
    assert parse_poly("-" * d + "x") == Poly.x()
    assert parse_poly("-(" * (d // 2) + "x" + ")" * (d // 2)) == Poly.x()


@pytest.mark.parametrize("text", [
    "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
    "-" * (MAX_DEPTH + 1) + "x",
    "(" * 5000 + "x" + ")" * 5000,
    "-" * 5000 + "x",
    "+(" * 3000 + "x" + ")" * 3000,
], ids=["parens", "signs", "parens-5000", "signs-5000", "mixed-6000"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError) as ei:
        parse_poly(text)
    assert ei.value.position == MAX_DEPTH
    assert "nesting deeper" in str(ei.value)


def refuse_large_products(monkeypatch):
    build = Poly.__mul__

    def guarded(self, other):
        if isinstance(other, Poly):
            assert self.degree + other.degree <= MAX_DEGREE, "built a product past the cap"
        return build(self, other)
    monkeypatch.setattr(Poly, "__mul__", guarded)


def test_powers_up_to_max_degree_parse(monkeypatch):
    # a power squares its base no further than its exponent needs
    refuse_large_products(monkeypatch)
    assert parse_poly(f"x^{MAX_DEGREE}") == Poly.monomial(MAX_DEGREE)
    assert parse_poly(f"(x^2+1)^{MAX_DEGREE // 2}").degree == MAX_DEGREE
    assert parse_poly(f"2^{MAX_DEGREE}") == Poly.const(2 ** MAX_DEGREE)


def refuse_large_powers(monkeypatch):
    build = Poly.__pow__

    def guarded(self, n):
        assert n <= MAX_DEGREE, f"built a power with exponent {n}"
        return build(self, n)
    monkeypatch.setattr(Poly, "__pow__", guarded)


@pytest.mark.parametrize("text,position", [
    ("x^100000000", 2),
    ("(x+1)^100000", 6),
    ("2^100000000", 2),
    ("(x^2+1)^" + str(MAX_DEGREE // 2 + 1), 8),
    ("3*(x^30)^40", 9),
])
def test_power_above_max_degree_is_refused_unbuilt(monkeypatch, text, position):
    refuse_large_powers(monkeypatch)
    with pytest.raises(ParseError) as ei:
        parse_poly(text)
    assert ei.value.position == position
    assert "power too large" in str(ei.value)


def test_products_up_to_max_degree_parse():
    half = MAX_DEGREE // 2
    assert parse_poly(f"x^{half}*x^{MAX_DEGREE - half}") == Poly.monomial(MAX_DEGREE)
    assert parse_poly(f"2*x^{MAX_DEGREE}*3").degree == MAX_DEGREE
    assert parse_poly(f"x^{MAX_DEGREE}*0*x^{MAX_DEGREE}").is_zero()


@pytest.mark.parametrize("text,position", [
    ("x^1000*x^1000*x^1000*x^1000+1", 6),
    ("x*x^1000", 1),
    ("x^600*(x^300+1)*(x^100+x)^2", 15),
    ("(x^2+1)^300*(x^2+1)^201", 11),
    ("3*x^500*(x^500*x)", 7),
    ("x*(x^500*x^501)", 8),
])
def test_product_above_max_degree_is_refused_unbuilt(monkeypatch, text, position):
    refuse_large_products(monkeypatch)
    with pytest.raises(ParseError) as ei:
        parse_poly(text)
    assert ei.value.position == position
    assert "product too large" in str(ei.value)


def test_error_mentions_offset():
    with pytest.raises(ParseError) as ei:
        parse_poly("x+*2")
    assert "2" in str(ei.value.position)


coeffs = st.fractions(min_value=-999, max_value=999, max_denominator=99)


@given(st.lists(coeffs, min_size=0, max_size=6).map(Poly))
def test_render_parse_roundtrip(p):
    assert parse_poly(render(p)) == p


def test_integer_literal_past_the_digit_limit(digit_limit):
    digits = "7" * 641
    with digit_limit(640):
        for text, position in ((f"{digits}*x", 0), (f"x^{digits}", 2), (f"x+1/{digits}", 4)):
            with pytest.raises(ParseError, match="integer literal of 641 digits") as info:
                parse_poly(text)
            assert info.value.position == position
        assert parse_poly("7" * 640) == Poly.const(int("7" * 640))
