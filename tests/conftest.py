import contextlib
import sys
from fractions import Fraction as F

import pytest

from casolag import FamilySpec, parse_poly


@pytest.fixture
def nonsegment_spec():
    # G = {1,2,5}, alpha away from the integers <= 5
    return FamilySpec(F(7), (1, 2, 5), {
        1: parse_poly("x-1"),
        2: parse_poly("x^2+1"),
        5: parse_poly("x^5+x^4+x^3+1"),
    })


@pytest.fixture
def integer_alpha_spec():
    # alpha = 1 inside 1..maxG, G not a segment
    return FamilySpec(F(1), (1, 2, 4), {
        1: parse_poly("x+2"),
        2: parse_poly("x^2"),
        4: parse_poly("x^4+1"),
    })


@pytest.fixture
def segment_spec():
    # segment G = {2,3}; bare monomial seeds would make Omega vanish at n=1,
    # and x^2+1 with x^3+1 at n=2, so pick a verified-admissible pair
    return FamilySpec(F(22, 7), (2, 3), {
        2: parse_poly("x^2+1"),
        3: parse_poly("x^3+x"),
    })


@pytest.fixture
def digit_limit():
    """digit_limit(n): a context manager that sets the interpreter's limit on
    int <-> str conversions to n digits for its body."""
    if not getattr(sys, "get_int_max_str_digits", None):
        pytest.skip("this interpreter converts integers of any length")

    @contextlib.contextmanager
    def limit(n):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(n)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)
    return limit
