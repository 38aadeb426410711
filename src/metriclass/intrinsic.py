"""Induced orders, Hasse chains, and the three-way intrinsic classification.

Every measure induces a weak order on its domain through the attained
values, and an absolute-difference distance on top of it.  Classification
asks two questions about that structure:

* is the measure injective on the domain (distance zero only at equal
  elements, i.e. the distance is a metric rather than a pseudometric), and
* are the attained values equally spaced (the quotient gaps all equal)?

Both together make the measure an interval scale on this domain; injective
alone makes it an ordinal scale that is a metric; everything is at least
an ordinal scale and a pseudometric.  ``interval_scale_oracle`` re-derives
the same verdict from the definition of an interval scale (span ordering
vs value-difference ordering over all interval pairs), independently of
the quotient-gap route, so the two must always agree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Optional, Sequence

from .enumeration import DEFAULT_CAP, Domain, format_domain, labeled_values
from .errors import ConstraintError
from .measures import Measure
from .values import (
    DEFAULT_EPS,
    Exact,
    Value,
    absdiff,
    add,
    exact,
    fmt,
    sub,
    value_eq,
)

#: Above this many quotient classes the definitional oracle is skipped.
DEFAULT_ORACLE_CAP = 200


@dataclass(frozen=True, slots=True)
class EquivalenceClass:
    """One attained value and the (enumeration-order) indices that share it."""

    value: Value
    members: tuple[int, ...]


@dataclass(frozen=True)
class OrderedDomain:
    """A domain sorted and grouped by attained value.

    ``labels`` holds display strings in enumeration order; ``classes`` is
    the quotient, in strictly increasing value order; ``excluded`` lists
    the undefined points.
    """

    labels: tuple[str, ...]
    classes: tuple[EquivalenceClass, ...]
    excluded: tuple[int, ...]

    @cached_property
    def _class_index(self) -> dict[int, int]:
        return {member: ci for ci, cls in enumerate(self.classes) for member in cls.members}

    def class_of(self, index: int) -> int:
        ci = self._class_index.get(index)
        if ci is None:
            raise ConstraintError(f"intrinsic: element {index} is excluded or out of range")
        return ci


def order_values(labeled_values: Sequence[tuple[str, Optional[Value]]]) -> OrderedDomain:
    """Build the induced order from (label, value) pairs; None values are excluded.

    One pass buckets the element indices by attained value, then only the
    distinct values are sorted.  The defined values must be all exact or
    all real.  Two distinct exact values are never equal, so each is a
    class.  A class of reals is a run of sorted values equal (``value_eq``)
    to the run's first value, that of the earliest element attaining the
    run's least value; the anchor matters because nearness within a
    tolerance is not transitive.
    """
    labels = tuple(label for label, _ in labeled_values)
    excluded: list[int] = []
    # value key -> first index, or the list of indices from a second hit on.
    # An exact value is keyed by its normalised (numerator, denominator),
    # which hashes without Fraction.__hash__; a real by its float.
    groups: dict[tuple | float, int | list[int]] = {}
    for i, (_, v) in enumerate(labeled_values):
        if v is None:
            excluded.append(i)
            continue
        key = v.rational.as_integer_ratio() if v.__class__ is Exact else v.real
        g = groups.setdefault(key, i)
        if g is i:  # a new key
            continue
        if g.__class__ is int:
            groups[key] = [g, i]
        else:
            g.append(i)
    if not groups:
        raise ConstraintError("intrinsic: every element of the domain is undefined")
    kinds = set(map(type, groups))
    if len(kinds) > 1:
        raise ConstraintError("intrinsic: a domain mixes exact and real values")
    real = float in kinds
    # Exact values sort by (float, exact value): float() of a rational is
    # correctly rounded, hence monotone, so exact comparisons run only on
    # float ties.  Reals sort by their distinct float keys.
    distinct = []
    for key, g in groups.items():
        first = g if g.__class__ is int else g[0]
        if real:
            distinct.append((key, first, g))
        else:
            distinct.append((_ratio_to_float(*key), labeled_values[first][1].rational, first, g))
    del groups  # freed before sorting, to keep the peak memory down
    distinct.sort()
    if real:
        runs: list[tuple[Value, list[int]]] = []
        for _, first, g in distinct:
            v = labeled_values[first][1]
            members = [g] if g.__class__ is int else g
            if runs and value_eq(v, runs[-1][0]):
                runs[-1][1].extend(members)
            else:
                runs.append((v, members))
    else:
        runs = ((labeled_values[first][1], g) for _, _, first, g in distinct)
    classes = tuple(
        EquivalenceClass(v, (g,) if g.__class__ is int else tuple(sorted(g)))
        for v, g in runs
    )
    return OrderedDomain(labels, classes, tuple(excluded))


def _ratio_to_float(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:  # a rational beyond the float range
        return math.inf if num > 0 else -math.inf


def induced_order(
    measure: Measure, spec: Domain, cap: int | None = None
) -> OrderedDomain:
    """Evaluate the measure over the domain and sort it into the weak order.

    Rankings domains are evaluated by one prefix-sharing walk per length
    over the measure's fold; the values equal ``measure.evaluate`` on each
    element of ``enumerate_domain``.  Undefined points (zero denominators)
    are excluded and recorded rather than mapped to a sentinel, so they
    cannot manufacture collisions.
    """
    if spec.family != measure.family:
        raise ConstraintError(
            f"intrinsic: {measure.id} evaluates {measure.family} elements,"
            f" but the domain enumerates {spec.kind}"
        )
    return order_values(labeled_values(spec, measure, DEFAULT_CAP if cap is None else cap))


def distance(measure: Measure, a, b, universe=None) -> Value:
    """|f(a) - f(b)|: the associated distance between two elements."""
    return absdiff(measure.evaluate(a, universe), measure.evaluate(b, universe))


# ---------------------------------------------------------------------------
# Hasse chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HasseDiagram:
    """Chain over the quotient classes with value-gap edge weights."""

    classes: tuple[EquivalenceClass, ...]
    weights: tuple[Value, ...]  # weights[i] joins classes[i] and classes[i+1]

    def path_distance(self, i: int, j: int) -> Value:
        """Minimum path length between classes i and j.

        On a chain the only path is the direct one, so this literally sums
        the edge weights between the two classes; it never looks at the
        class values themselves.
        """
        lo, hi = min(i, j), max(i, j)
        total: Value = exact(0)
        for k in range(lo, hi):
            total = add(total, self.weights[k])
        return total


def build_hasse(ordered: OrderedDomain) -> HasseDiagram:
    """Chain the quotient classes; each edge carries the value gap."""
    weights = tuple(
        sub(hi.value, lo.value)
        for lo, hi in zip(ordered.classes, ordered.classes[1:])
    )
    return HasseDiagram(ordered.classes, weights)


# ---------------------------------------------------------------------------
# Injectivity and equispacing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionWitness:
    """Two distinct elements sharing one attained value."""

    first: str
    second: str
    value: Value

    def describe(self) -> str:
        return f"{self.first} = {self.second} = {fmt(self.value)}"


def check_injective(ordered: OrderedDomain) -> tuple[bool, Optional[CollisionWitness]]:
    """True iff every class is a singleton.

    The witness is the earliest collision in enumeration order: the first
    element whose value was already attained, paired with the earliest
    element attaining it.
    """
    best: Optional[tuple[int, int, Value]] = None
    for cls in ordered.classes:
        if len(cls.members) > 1:
            a, b = cls.members[0], cls.members[1]
            if best is None or b < best[1]:
                best = (a, b, cls.value)
    if best is None:
        return True, None
    a, b, value = best
    return False, CollisionWitness(ordered.labels[a], ordered.labels[b], value)


@dataclass(frozen=True)
class SpacingResult:
    equispaced: bool
    degenerate: bool  # fewer than 2 classes: vacuously equispaced, flagged
    gap: Optional[Value] = None
    violating_triple: Optional[tuple[Value, Value, Value]] = None


def check_equispaced(ordered: OrderedDomain) -> SpacingResult:
    """Are consecutive quotient gaps all equal?

    Returns the common gap, or the first three consecutive class values
    whose two gaps disagree.  Single-class quotients report equispaced
    vacuously but carry the degenerate flag.
    """
    classes = ordered.classes
    if len(classes) < 2:
        return SpacingResult(equispaced=True, degenerate=True)
    first = previous = sub(classes[1].value, classes[0].value)
    for k in range(2, len(classes)):
        gap = sub(classes[k].value, classes[k - 1].value)
        if not value_eq(previous, gap):
            triple = (classes[k - 2].value, classes[k - 1].value, classes[k].value)
            return SpacingResult(equispaced=False, degenerate=False, violating_triple=triple)
        previous = gap
    return SpacingResult(equispaced=True, degenerate=False, gap=first)


# ---------------------------------------------------------------------------
# Interval spans and the definitional interval-scale oracle
# ---------------------------------------------------------------------------


def interval_span(ordered: OrderedDomain, i: int, j: int) -> int:
    """Number of domain elements z with f(i) <= f(z) <= f(j).

    Elements are addressed by enumeration index; the lower endpoint must
    not exceed the upper one in the induced order.
    """
    ci, cj = ordered.class_of(i), ordered.class_of(j)
    if ci > cj:
        raise ConstraintError("intrinsic: interval endpoints are reversed")
    return sum(len(ordered.classes[k].members) for k in range(ci, cj + 1))


@dataclass(frozen=True)
class OracleResult:
    verdict: Optional[bool]  # None when skipped
    note: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.verdict is None


def interval_scale_oracle(ordered: OrderedDomain, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Decide interval scale straight from the definition.

    An order-preserving assignment is an interval scale when the ordering
    of intervals by span agrees with their ordering by value difference,
    for every pair of intervals.  That certification additionally requires
    the distance to be a metric (no two distinct elements at distance
    zero); a non-injective measure fails that hypothesis outright.

    Past the metric check every class is a singleton, so the span of
    classes i..j is j - i + 1 and all intervals of one span are the pairs
    at one offset d = j - i.  Each such pair's value difference must equal
    the first, classes 0..d, and these first differences must strictly
    increase with d.  Every pair is compared, not only consecutive gaps.
    Exact values are compared as integers over their common denominator;
    a domain with real values as floats within ``DEFAULT_EPS``, each pair
    against its offset's first difference, since nearness within a
    tolerance is not transitive.  Quotients above ``cap`` classes are
    skipped with a marker.
    """
    classes = ordered.classes
    if len(classes) > cap:
        return OracleResult(None, f"skipped: {len(classes)} classes exceed the oracle cap {cap}")
    if any(len(cls.members) > 1 for cls in classes):
        return OracleResult(False, "distance is not a metric: distinct elements at distance zero")
    k = len(classes)
    exact_values = all(cls.value.__class__ is Exact for cls in classes)
    if exact_values:
        rationals = [cls.value.rational for cls in classes]
        den = math.lcm(*(r.denominator for r in rationals))
        xs = [r.numerator * (den // r.denominator) for r in rationals]
        tol = 0
    else:
        xs = [float(cls.value.numeric()) for cls in classes]
        tol = DEFAULT_EPS
    firsts = []
    for d in range(k):
        first = xs[d] - xs[0]
        rest = map(operator.sub, islice(xs, d + 1, None), islice(xs, 1, None))
        if exact_values:
            same = list(rest) == [first] * (k - 1 - d)
        else:  # |diff - first| <= eps for every later pair
            same = all(map(tol.__ge__, map(abs, map(operator.sub, rest, repeat(first)))))
        if not same:
            return OracleResult(False, "equal spans with unequal value differences")
        firsts.append(first)
    for lo, hi in zip(firsts, firsts[1:]):
        if not lo <= hi + tol or abs(lo - hi) <= tol:
            return OracleResult(False, "value differences not strictly increasing with span")
    return OracleResult(True)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

ORDINAL_PSEUDOMETRIC = "ordinal/pseudometric"
ORDINAL_METRIC = "ordinal/metric"
INTERVAL_METRIC = "interval/metric"


@dataclass(frozen=True)
class Verdict:
    """Machine classification of one measure over one explicit domain."""

    measure_id: str
    domain: str
    category: str
    injective: bool
    collision: Optional[CollisionWitness]
    equispaced: bool
    degenerate: bool
    gap: Optional[Value]
    violating_triple: Optional[tuple[Value, Value, Value]]
    classes: int
    elements: int
    excluded: int
    excluded_example: Optional[str]
    backend: str
    eps: Optional[float]
    oracle: Optional[bool]
    oracle_note: Optional[str]

    def uneven_gaps(self) -> Optional[str]:
        """The uneven-gap witness as text, or None when there is none."""
        if self.equispaced or self.violating_triple is None:
            return None
        a, b, c = self.violating_triple
        return f"uneven gaps across {fmt(a)}, {fmt(b)}, {fmt(c)}"

    def describe(self) -> str:
        parts = [self.category]
        if self.collision is not None:
            parts.append(f"collision {self.collision.describe()}")
        if (uneven := self.uneven_gaps()) is not None:
            parts.append(uneven)
        if self.equispaced and not self.degenerate and self.gap is not None:
            word = "gap" if self.injective else "quotient gap"
            parts.append(f"{word} {fmt(self.gap)}")
        if self.degenerate:
            parts.append("degenerate single-value domain")
        if self.excluded:
            parts.append(f"{self.excluded} undefined element(s) excluded")
        return "; ".join(parts)


def classify(
    measure: Measure,
    spec: Domain,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    cap: int | None = None,
) -> Verdict:
    """Order the domain, run both routes, and name the intrinsic category.

    Category rule: injective and equispaced (non-degenerate) makes an
    interval scale backed by a metric; injective alone is ordinal/metric;
    otherwise ordinal/pseudometric.  The definitional oracle result is
    embedded so reports can show the two routes agreeing.
    """
    ordered = induced_order(measure, spec, cap=cap)
    injective, collision = check_injective(ordered)
    spacing = check_equispaced(ordered)
    oracle = interval_scale_oracle(ordered, cap=oracle_cap)
    if injective and spacing.equispaced and not spacing.degenerate:
        category = INTERVAL_METRIC
    elif injective:
        category = ORDINAL_METRIC
    else:
        category = ORDINAL_PSEUDOMETRIC
    return Verdict(
        measure_id=measure.id,
        domain=format_domain(spec),
        category=category,
        injective=injective,
        collision=collision,
        equispaced=spacing.equispaced,
        degenerate=spacing.degenerate,
        gap=spacing.gap,
        violating_triple=spacing.violating_triple,
        classes=len(ordered.classes),
        elements=len(ordered.labels),
        excluded=len(ordered.excluded),
        excluded_example=(
            ordered.labels[ordered.excluded[0]] if ordered.excluded else None
        ),
        backend=measure.backend,
        eps=measure.eps,
        oracle=oracle.verdict,
        oracle_note=oracle.note,
    )
