"""Value semantics: exact equality, tolerance comparisons, arithmetic."""

import random
from fractions import Fraction

import pytest

from metriclass.errors import ParseError
from metriclass.values import (
    Approx,
    Exact,
    absdiff,
    add,
    exact,
    fmt,
    fmt_short,
    from_record,
    sub,
    to_record,
    value_eq,
    value_le,
)


def test_exact_equality_is_exact():
    assert value_eq(exact(1, 3), exact(1, 3))
    assert not value_eq(exact(1, 3), exact(2, 7))  # cross-multiply: 7 != 6


def test_tolerance_equality():
    assert value_eq(Approx(0.5), Approx(0.5 + 1e-15))
    assert not value_eq(Approx(0.5), Approx(0.5 + 1e-6))


def test_mixed_backends_use_declared_eps():
    assert value_eq(exact(1, 2), Approx(0.5 + 1e-12))
    assert not value_eq(exact(1, 2), Approx(0.51))


def test_value_eq_symmetric():
    rng = random.Random(7)
    for _ in range(200):
        a = exact(rng.randint(-20, 20), rng.randint(1, 20))
        b = exact(rng.randint(-20, 20), rng.randint(1, 20))
        assert value_eq(a, b) == value_eq(b, a)


def test_rational_arithmetic_field_properties():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (exact(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert value_eq(add(a, b), add(b, a))
        assert value_eq(add(add(a, b), c), add(a, add(b, c)))
        prod_ab = Exact(a.rational * b.rational)
        prod_ba = Exact(b.rational * a.rational)
        assert value_eq(prod_ab, prod_ba)


def test_absdiff_symmetry_and_zero():
    a, b = exact(3, 7), exact(1, 7)
    assert value_eq(absdiff(a, b), exact(2, 7))
    assert value_eq(absdiff(a, b), absdiff(b, a))
    assert value_eq(absdiff(a, a), exact(0))


def test_approx_arithmetic_keeps_tolerance():
    x = add(Approx(0.25), exact(1, 4))
    assert x == Approx(0.5)
    assert repr(x) == "Approx(0.5)"
    assert value_eq(x, exact(1, 2))


def test_value_le():
    assert value_le(exact(1, 3), exact(1, 2))
    assert not value_le(exact(1, 2), exact(1, 3))
    assert value_le(Approx(0.5 + 1e-12), exact(1, 2))  # within tolerance


def test_fmt_fraction_and_decimal():
    assert fmt(exact(2, 5)) == "2/5 (0.400)"
    assert fmt(exact(15)) == "15 (15.000)"
    assert fmt(Approx(1.0)) == "1.000 (~1e-09)"
    assert fmt(exact(-10 ** 400)) == f"{-10 ** 400} (-inf)"  # beyond the float range


def test_fmt_short_renders_beyond_the_float_range_as_fmt_does():
    assert (fmt_short(exact(2, 5)), fmt_short(Approx(1 / 3))) == ("0.400", "0.333")
    assert (fmt_short(exact(10 ** 400)), fmt_short(exact(-10 ** 400))) == ("inf", "-inf")


def test_record_round_trip():
    for v in (exact(2, 5), exact(-7, 3), Approx(0.123456789), Approx(1.5)):
        assert from_record(to_record(v)) == v
    assert to_record(Approx(1.5)) == {"kind": "approx", "value": 1.5, "eps": 1e-9}


def test_record_under_a_foreign_tolerance_is_refused():
    for eps in (1e-3, None):
        with pytest.raises(ParseError):
            from_record({"kind": "approx", "value": 0.5, "eps": eps})


def test_sub_exact():
    assert sub(exact(1, 2), exact(1, 3)) == exact(1, 6)
