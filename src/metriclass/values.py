"""Tagged numeric values: exact rationals or tolerance-carrying reals.

Equality of attained values is what every classification decision rests
on, so measures whose formulas are rational functions of integer counts
are evaluated in exact rational arithmetic, and only log-bearing measures
fall back to floats with an explicit tolerance.  Mixing an exact value
with a real works as long as the real declares a tolerance; comparing
against a tolerance-free real raises ConfigurationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigurationError

#: Default comparison tolerance for the float backend.
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
    """Float value with a declared comparison tolerance.

    ``eps=None`` marks a value produced outside any backend policy; it can
    be stored but not compared.
    """

    real: float
    eps: float | None = DEFAULT_EPS

    def numeric(self) -> float:
        return self.real

    def __repr__(self):
        return f"Approx({self.real!r}, eps={self.eps!r})"


Value = Union[Exact, Approx]


def exact(num: Rationalish, den: int = 1) -> Exact:
    return Exact(Fraction(num, den))


def _resolve_eps(a: Value, b: Value) -> float:
    epss = [v.eps for v in (a, b) if isinstance(v, Approx)]
    if any(e is None for e in epss):
        raise ConfigurationError(
            "values: comparison involves a real value with no declared tolerance"
        )
    return max(epss)


def value_eq(a: Value, b: Value) -> bool:
    """Semantic equality: exact for rational pairs, within eps otherwise."""
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a.rational == b.rational
    eps = _resolve_eps(a, b)
    return abs(float(a.numeric()) - float(b.numeric())) <= eps


def value_le(a: Value, b: Value) -> bool:
    """a <= b up to the comparison tolerance (exact for rational pairs)."""
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a.rational <= b.rational
    eps = _resolve_eps(a, b)
    return float(a.numeric()) <= float(b.numeric()) + eps


def _combine_eps(a: Value, b: Value) -> float | None:
    epss = [v.eps for v in (a, b) if isinstance(v, Approx)]
    if any(e is None for e in epss):
        return None
    return max(epss) if epss else DEFAULT_EPS


def add(a: Value, b: Value) -> Value:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return Exact(a.rational + b.rational)
    return Approx(float(a.numeric()) + float(b.numeric()), _combine_eps(a, b))


def sub(a: Value, b: Value) -> Value:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return Exact(a.rational - b.rational)
    return Approx(float(a.numeric()) - float(b.numeric()), _combine_eps(a, b))


def absdiff(a: Value, b: Value) -> Value:
    """|a - b|, the associated distance between two attained values."""
    d = sub(a, b)
    if isinstance(d, Exact):
        return Exact(abs(d.rational))
    return Approx(abs(d.real), d.eps)


def fmt(v: Value) -> str:
    """Render a value as fraction plus 3-decimal float, fractions authoritative.

    Exact 2/5 renders as ``2/5 (0.400)``; reals render as the 3-decimal
    float with their tolerance, e.g. ``1.000 (~1e-09)``.
    """
    if isinstance(v, Exact):
        r = v.rational
        frac = str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        return f"{frac} ({float(r):.3f})"
    eps = "?" if v.eps is None else f"{v.eps:g}"
    return f"{v.real:.3f} (~{eps})"


def fmt_short(v: Value) -> str:
    """3-decimal rendering used inside tables."""
    return f"{float(v.numeric()):.3f}"


def to_record(v: Value) -> dict:
    """JSON-ready record preserving exactness (numerator/denominator)."""
    if isinstance(v, Exact):
        return {"kind": "exact", "num": v.rational.numerator, "den": v.rational.denominator}
    return {"kind": "approx", "value": v.real, "eps": v.eps}


def from_record(rec: dict) -> Value:
    if rec["kind"] == "exact":
        return Exact(Fraction(rec["num"], rec["den"]))
    return Approx(rec["value"], rec["eps"])
