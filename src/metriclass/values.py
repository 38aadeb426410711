"""Tagged numeric values: exact rationals or reals compared within one tolerance.

Equality of attained values is what every classification decision rests
on, so measures whose formulas are rational functions of integer counts
are evaluated in exact rational arithmetic, and only log-bearing measures
fall back to floats.  Any comparison that involves a real, including one
against an exact value, is made within ``DEFAULT_EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConstraintError, ParseError

#: The comparison tolerance of every real value.
DEFAULT_EPS = 1e-9

Rationalish = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Exact:
    """Exact rational value; equality and ordering are exact."""

    rational: Fraction

    def __post_init__(self):
        if not isinstance(self.rational, Fraction):
            object.__setattr__(self, "rational", Fraction(self.rational))

    def numeric(self) -> Fraction:
        return self.rational

    def __repr__(self):
        return f"Exact({self.rational})"


@dataclass(frozen=True, slots=True)
class Approx:
    """Float value; it equals any value within ``DEFAULT_EPS`` of it."""

    real: float

    def __post_init__(self):
        if self.real.__class__ is not float:
            object.__setattr__(self, "real", float(self.real))

    def numeric(self) -> float:
        return self.real

    def __repr__(self):
        return f"Approx({self.real!r})"


Value = Union[Exact, Approx]


def exact(num: Rationalish, den: int = 1) -> Exact:
    return Exact(Fraction(num, den))


def as_value(result: tuple[int, int] | float) -> Value:
    """The value of a measure's raw result: ``(num, den)`` is exact, a float real."""
    return Approx(result) if result.__class__ is float else Exact(Fraction(*result))


def value_eq(a: Value, b: Value) -> bool:
    """Semantic equality: exact for rational pairs, within ``DEFAULT_EPS`` otherwise."""
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a.rational == b.rational
    return abs(float(a.numeric()) - float(b.numeric())) <= DEFAULT_EPS


def value_le(a: Value, b: Value) -> bool:
    """a <= b up to the comparison tolerance (exact for rational pairs)."""
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a.rational <= b.rational
    return float(a.numeric()) <= float(b.numeric()) + DEFAULT_EPS


def add(a: Value, b: Value) -> Value:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return Exact(a.rational + b.rational)
    return Approx(float(a.numeric()) + float(b.numeric()))


def sub(a: Value, b: Value) -> Value:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return Exact(a.rational - b.rational)
    return Approx(float(a.numeric()) - float(b.numeric()))


def absdiff(a: Value, b: Value) -> Value:
    """|a - b|, the associated distance between two attained values."""
    d = sub(a, b)
    if isinstance(d, Exact):
        return Exact(abs(d.rational))
    return Approx(abs(d.real))


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        raise ConstraintError("values: an exact value has too many digits to print") from None


def fmt(v: Value) -> str:
    """Render a value as fraction plus 3-decimal float, fractions authoritative.

    Exact 2/5 renders as ``2/5 (0.400)``, and one beyond the float range
    as ``<fraction> (inf)``; reals render as the 3-decimal float with the
    tolerance, e.g. ``1.000 (~1e-09)``.
    """
    if isinstance(v, Exact):
        r = v.rational
        num, den = _decimal(r.numerator), _decimal(r.denominator)
        frac = num if den == "1" else f"{num}/{den}"
        try:
            return f"{frac} ({float(r):.3f})"
        except OverflowError:
            return f"{frac} ({'inf' if r > 0 else '-inf'})"
    return f"{v.real:.3f} (~{DEFAULT_EPS:g})"


def fmt_short(v: Value) -> str:
    """3-decimal rendering used inside tables; beyond the float range as ``fmt`` has it."""
    try:
        return f"{float(v.numeric()):.3f}"
    except OverflowError:
        return "inf" if v.numeric() > 0 else "-inf"


def to_record(v: Value) -> dict:
    """JSON-ready record preserving exactness (numerator/denominator)."""
    if isinstance(v, Exact):
        r = v.rational
        _decimal(r.numerator), _decimal(r.denominator)  # both must print as JSON numbers
        return {"kind": "exact", "num": r.numerator, "den": r.denominator}
    return {"kind": "approx", "value": v.real, "eps": DEFAULT_EPS}


def from_record(rec: dict) -> Value:
    """The value of a ``to_record`` record; an approx one must name ``DEFAULT_EPS``."""
    if rec["kind"] == "exact":
        return Exact(Fraction(rec["num"], rec["den"]))
    if rec["eps"] != DEFAULT_EPS:
        raise ParseError(f"values: approx record with eps {rec['eps']!r}, expected {DEFAULT_EPS:g}")
    return Approx(rec["value"])
