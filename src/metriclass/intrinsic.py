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
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

from .enumeration import (
    DomainSpec,
    element_to_str,
    enumerate_domain,
    format_domain,
    ranking_values,
)
from .errors import ConfigurationError, ConstraintError, UndefinedValueError
from .measures import Measure
from .values import (
    Exact,
    Value,
    absdiff,
    add,
    exact,
    fmt,
    sub,
    value_eq,
    value_le,
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

    ``labels`` holds display strings in enumeration order; ``values`` holds
    the attained value per element (None for excluded, undefined points);
    ``classes`` is the quotient, in strictly increasing value order.
    """

    labels: tuple[str, ...]
    values: tuple[Optional[Value], ...]
    classes: tuple[EquivalenceClass, ...]
    excluded: tuple[int, ...]
    class_index: tuple[int, ...]  # per element; -1 marks an excluded element

    @property
    def size(self) -> int:
        return len(self.labels) - len(self.excluded)

    def class_of(self, index: int) -> int:
        ci = self.class_index[index]
        if ci < 0:
            raise ConstraintError(f"intrinsic: element {index} was excluded as undefined")
        return ci


def order_values(labeled_values: Sequence[tuple[str, Optional[Value]]]) -> OrderedDomain:
    """Build the induced order from (label, value) pairs; None values are excluded.

    One pass buckets the element indices by attained value, then only the
    distinct values are sorted.  Two distinct exact values are never equal,
    so without reals each is a class.  With reals, a class is a run of
    sorted values equal (``value_eq``) to the run's first value, that of the
    earliest element attaining the run's least value; the anchor matters
    because nearness within a tolerance is not transitive.
    """
    labels = tuple(label for label, _ in labeled_values)
    values = tuple(v for _, v in labeled_values)
    excluded: list[int] = []
    # value key -> first index, or the list of indices from a second hit on.
    # An exact value is keyed by its normalised (numerator, denominator),
    # which hashes without Fraction.__hash__; a real by (value, eps).
    exacts: dict[tuple, int | list[int]] = {}
    reals: dict[tuple, int | list[int]] = {}
    for i, v in enumerate(values):
        if v is None:
            excluded.append(i)
            continue
        if v.__class__ is Exact:
            groups, key = exacts, v.rational.as_integer_ratio()
        else:
            groups, key = reals, (v.real, v.eps)
        g = groups.setdefault(key, i)
        if g is i:  # a new key
            continue
        if g.__class__ is int:
            groups[key] = [g, i]
        else:
            g.append(i)
    if not exacts and not reals:
        raise ConstraintError("intrinsic: every element of the domain is undefined")
    if len(values) - len(excluded) > 1 and any(eps is None for _, eps in reals):
        raise ConfigurationError(
            "values: comparison involves a real value with no declared tolerance"
        )
    # Sorted by (float, exact value): float() of a rational is correctly
    # rounded, hence monotone, so exact comparisons run only on float ties.
    distinct = []
    for (num, den), g in exacts.items():
        first = g if g.__class__ is int else g[0]
        distinct.append((_ratio_to_float(num, den), values[first].rational, first, g))
    for (real, _), g in reals.items():
        first = g if g.__class__ is int else g[0]
        distinct.append((real, real, first, g))
    tolerance = bool(reals)
    del exacts, reals  # freed before sorting, to keep the peak memory down
    distinct.sort()
    if tolerance:
        runs = _anchored_runs(distinct, values)
    else:
        runs = ((values[first], g) for _, _, first, g in distinct)
    classes = tuple(
        EquivalenceClass(v, (g,) if g.__class__ is int else tuple(sorted(g)))
        for v, g in runs
    )
    del distinct, runs  # freed before class_index is built: this lowers the peak
    class_index = [-1] * len(labels)
    for ci, cls in enumerate(classes):
        for member in cls.members:
            class_index[member] = ci
    return OrderedDomain(labels, values, classes, tuple(excluded), tuple(class_index))


def _ratio_to_float(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:  # a rational beyond the float range
        return math.inf if num > 0 else -math.inf


def _anchored_runs(distinct: list, values: tuple) -> list[tuple[Value, list[int]]]:
    """Merge sorted distinct values into (anchor, members) runs.

    Each element joins the current run if ``value_eq`` to its anchor, else
    it starts a run.  The elements of one key share that outcome; a value
    attained under several keys (an exact and a real, or two eps) is
    walked element by element in enumeration order.
    """
    runs: list[tuple[Value, list[int]]] = []
    for _, tied in groupby(distinct, key=itemgetter(0, 1)):
        tied = list(tied)
        if len(tied) == 1:
            blocks = [tied[0][3]]
        else:
            blocks = sorted(i for *_, g in tied for i in _indices(g))
        for block in blocks:
            members = _indices(block)
            v = values[members[0]]
            if runs and value_eq(v, runs[-1][0]):
                runs[-1][1].extend(members)
            else:
                runs.append((v, list(members)))
    return runs


def _indices(group: int | list[int]) -> list[int]:
    return [group] if group.__class__ is int else group


_FAMILY_KIND = {
    "ranking": "rankings",
    "contingency": "contingency",
    "user": "user",
    "leveled": "leveled",
}


def induced_order(
    measure: Measure, spec: DomainSpec, cap: int | None = None
) -> OrderedDomain:
    """Evaluate the measure over the domain and sort it into the weak order.

    Rankings domains are evaluated by one prefix-sharing walk per length
    (``enumeration.ranking_values``) over the measure's fold; the values
    equal ``measure.evaluate`` on each element of ``enumerate_domain``.
    Undefined points (zero denominators) are excluded and recorded rather
    than mapped to a sentinel, so they cannot manufacture collisions.
    """
    from .enumeration import DEFAULT_CAP

    if spec.kind != _FAMILY_KIND[measure.family]:
        raise ConstraintError(
            f"intrinsic: {measure.id} evaluates {measure.family} elements,"
            f" but the domain enumerates {spec.kind}"
        )
    cap = cap if cap is not None else DEFAULT_CAP
    if spec.kind == "rankings":
        return order_values(ranking_values(
            spec, lambda length: measure.fold(spec.scheme, spec.universe, length), cap
        ))
    pairs: list[tuple[str, Optional[Value]]] = []
    for element in enumerate_domain(spec, cap):
        try:
            value: Optional[Value] = measure.evaluate(element)
        except UndefinedValueError:
            value = None
        pairs.append((element_to_str(element), value))
    return order_values(pairs)


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

    @property
    def node_count(self) -> int:
        return len(self.classes)

    @property
    def edge_count(self) -> int:
        return len(self.weights)

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

    def describe(self) -> str:
        if self.degenerate:
            return "degenerate (single attained value)"
        if self.equispaced:
            return f"equispaced, gap {fmt(self.gap)}"
        a, b, c = self.violating_triple
        return f"gaps differ across {fmt(a)}, {fmt(b)}, {fmt(c)}"


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

    Spans depend only on the endpoint classes, so the quadratic-in-classes
    reduction buckets all intervals by span: every bucket must hold one
    value difference, and bucket differences must strictly increase with
    span.  Quotients above ``cap`` classes are skipped with a marker.
    """
    classes = ordered.classes
    if len(classes) > cap:
        return OracleResult(None, f"skipped: {len(classes)} classes exceed the oracle cap {cap}")
    if any(len(cls.members) > 1 for cls in classes):
        return OracleResult(False, "distance is not a metric: distinct elements at distance zero")
    sizes = [len(cls.members) for cls in classes]
    prefix = [0]
    for s in sizes:
        prefix.append(prefix[-1] + s)
    buckets: dict[int, Value] = {}
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            span = prefix[j + 1] - prefix[i]
            diff = sub(classes[j].value, classes[i].value)
            if span in buckets:
                if not value_eq(buckets[span], diff):
                    return OracleResult(False, "equal spans with unequal value differences")
            else:
                buckets[span] = diff
    spans = sorted(buckets)
    for lo, hi in zip(spans, spans[1:]):
        if not value_le(buckets[lo], buckets[hi]) or value_eq(buckets[lo], buckets[hi]):
            return OracleResult(False, "value differences not strictly increasing with span")
    return OracleResult(True)


# ---------------------------------------------------------------------------
# Pseudometric axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudometricReport:
    elements: int
    pairs_checked: int
    triples_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def pseudometric_check(values: Sequence[Value]) -> PseudometricReport:
    """Exhaustive symmetry and triangle-inequality check on attained values.

    This must never fail for any measure: the distance is an absolute
    difference of reals, so a violation indicates an arithmetic bug, not a
    property of the measure.
    """
    n = len(values)
    violations: list[str] = []
    dist = [[absdiff(values[i], values[j]) for j in range(n)] for i in range(n)]
    pairs = 0
    for i in range(n):
        for j in range(n):
            pairs += 1
            if not value_eq(dist[i][j], dist[j][i]):
                violations.append(f"symmetry broken at ({i},{j})")
    triples = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                triples += 1
                if not value_le(dist[i][k], add(dist[i][j], dist[j][k])):
                    violations.append(f"triangle inequality broken at ({i},{j},{k})")
    return PseudometricReport(n, pairs, triples, tuple(violations))


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

    def describe(self) -> str:
        parts = [self.category]
        if self.collision is not None:
            parts.append(f"collision {self.collision.describe()}")
        if not self.equispaced and self.violating_triple is not None:
            a, b, c = self.violating_triple
            parts.append(f"uneven gaps across {fmt(a)}, {fmt(b)}, {fmt(c)}")
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
    spec: DomainSpec,
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
