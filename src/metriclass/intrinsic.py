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

Classification needs only the attained values in order, how often each is
attained and the two earliest elements attaining it (``summarize``); the
induced order with every member listed (``induced_order``) is built only
for the Hasse export.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, islice, repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .enumeration import DEFAULT_CAP, Domain, ElementOrder, format_domain, labeled_values
from .errors import ConstraintError, UndefinedValueError
from .measures import Measure
from .values import (
    DEFAULT_EPS,
    Approx,
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


# ---------------------------------------------------------------------------
# Grouping attained values
# ---------------------------------------------------------------------------


class ValueClass(NamedTuple):
    """One attained value, how many elements attain it, and the earliest one or two."""

    value: Value
    size: int
    earliest: tuple[int, ...]  # the smallest positions, two unless the class is a singleton


@dataclass(frozen=True)
class ValueSummary:
    """What classification needs of a domain's attained values, from one pass.

    ``classes`` is the quotient in strictly increasing value order; each
    class keeps its size and its two earliest positions in
    ``enumerate_domain`` order, and no member list.  ``elements`` and
    ``excluded`` count the domain and its undefined points, and
    ``first_excluded`` is the earliest undefined position.  ``labels_at``
    re-walks the domain to name the elements at some positions.
    """

    classes: tuple[ValueClass, ...]
    elements: int
    excluded: int
    first_excluded: Optional[int]
    order: ElementOrder

    def labels_at(self, *positions: int) -> list[str]:
        return self.order.labels_at(*positions)


@dataclass(frozen=True, slots=True)
class EquivalenceClass:
    """One attained value and the (enumeration-order) indices that share it."""

    value: Value
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def earliest(self) -> tuple[int, ...]:
        return self.members[:2]


@dataclass(frozen=True)
class OrderedDomain:
    """A domain sorted and grouped by attained value, every member listed.

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

    def labels_at(self, *indices: int) -> list[str]:
        return [self.labels[i] for i in indices]


def _gather(evaluators: Iterable[tuple[Iterable, Callable]], positions):
    """Bucket attained values by key in one pass over the elements.

    ``evaluate(item)`` over each stream in turn gives the elements' values
    or raises ``UndefinedValueError``; ``positions`` yields each element's
    position.  An exact value is keyed by its normalised (numerator,
    denominator), which hashes without Fraction.__hash__; a real by its
    float.  A key maps to its element's position while it is attained
    once, then to ``[count, earliest, second earliest]``.  Returns the
    buckets, the number of undefined elements and the earliest of them.
    """
    groups: dict[tuple | float, int | list[int]] = {}
    excluded = 0
    first_excluded: Optional[int] = None
    for stream, evaluate in evaluators:
        # stream first: zip stops on an exhausted stream without taking a position
        for item, position in zip(stream, positions):
            try:
                v = evaluate(item)
            except UndefinedValueError:
                excluded += 1
                if first_excluded is None or position < first_excluded:
                    first_excluded = position
                continue
            key = v.rational.as_integer_ratio() if v.__class__ is Exact else v.real
            g = groups.setdefault(key, position)
            if g is position:  # a new key
                continue
            if g.__class__ is int:
                groups[key] = [2, g, position] if g < position else [2, position, g]
            else:
                g[0] += 1
                if position < g[2]:  # only under a seed do positions arrive out of order
                    g[1:] = sorted((g[1], position))
    return groups, excluded, first_excluded


def _float_order(key: tuple) -> float:
    return _ratio_to_float(*key)


def _exact_order(key: tuple) -> tuple:
    return _ratio_to_float(*key), Fraction(*key)


def _value_of_key(key: tuple | float, position: int) -> Value:
    return Approx(key) if key.__class__ is float else Exact(Fraction(*key))


def _quotient(groups: dict, value_of: Callable = _value_of_key) -> list[ValueClass]:
    """Sort the distinct keys and merge them into classes, in increasing value order.

    The defined values must be all exact or all real.  Two distinct exact
    values are never equal, so each is a class.  A class of reals is a
    run of sorted values equal (``value_eq``) to the run's first value,
    whose value the class keeps; the anchor matters because nearness
    within a tolerance is not transitive.  A class's value is
    ``value_of(key, earliest position)`` of its first key.  Each record
    in ``groups`` is replaced by the index of its class.
    """
    if not groups:
        raise ConstraintError("intrinsic: every element of the domain is undefined")
    kinds = set(map(type, groups))
    if len(kinds) > 1:
        raise ConstraintError("intrinsic: a domain mixes exact and real values")
    real = float in kinds
    if real:
        keys = sorted(groups)
    else:
        # float() of a rational is correctly rounded, hence monotone: only
        # distinct rationals that round to one float need exact comparisons
        floats = list(map(_float_order, groups))
        tied = len(set(floats)) < len(floats)
        del floats  # freed before the sort and the classes, to keep the peak memory down
        keys = sorted(groups, key=_exact_order if tied else _float_order)
    classes: list[ValueClass] = []
    for key in keys:
        g = groups[key]
        size, earliest = (1, (g,)) if g.__class__ is int else (g[0], (g[1], g[2]))
        # value_eq of two reals; the keys ascend
        if real and classes and key - classes[-1].value.real <= DEFAULT_EPS:
            last = classes[-1]
            earliest = tuple(sorted(last.earliest + earliest)[:2])
            classes[-1] = ValueClass(last.value, last.size + size, earliest)
        else:
            classes.append(ValueClass(value_of(key, earliest[0]), size, earliest))
        groups[key] = len(classes) - 1
    return classes


def _ratio_to_float(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:  # a rational beyond the float range
        return math.inf if num > 0 else -math.inf


def _check_family(measure: Measure, spec: Domain) -> None:
    if spec.family != measure.family:
        raise ConstraintError(
            f"intrinsic: {measure.id} evaluates {measure.family} elements,"
            f" but the domain enumerates {spec.kind}"
        )


def summarize(measure: Measure, spec: Domain, cap: int | None = None) -> ValueSummary:
    """Evaluate the measure over the domain into a summary of its attained values.

    One pass keeps, per distinct value, its count and two earliest
    positions, so memory grows with the distinct values, not with the
    elements.  Rankings domains are evaluated by one prefix-sharing walk
    per length over the measure's fold.  Undefined points (zero
    denominators) are excluded and counted rather than mapped to a
    sentinel, so they cannot manufacture collisions.  Under a seed the
    elements are still walked in lexicographic order, and each is given
    its shuffled position.
    """
    _check_family(measure, spec)
    order = ElementOrder(spec, DEFAULT_CAP if cap is None else cap)
    groups, excluded, first_excluded = _gather(spec.evaluators(measure), order.positions())
    classes = tuple(_quotient(groups))
    elements = excluded + sum(cls.size for cls in classes)
    return ValueSummary(classes, elements, excluded, first_excluded, order)


def _defined(pair: tuple[str, Optional[Value]]) -> Value:
    if pair[1] is None:
        raise UndefinedValueError
    return pair[1]


def order_values(labeled_values: Sequence[tuple[str, Optional[Value]]]) -> OrderedDomain:
    """Build the induced order from (label, value) pairs; None values are excluded.

    The classes are those of the one-pass summary (``summarize``), and one
    more pass lists each defined element in its class.  A class's value is
    that of the earliest element with the class's key.
    """
    groups, _, _ = _gather([(labeled_values, _defined)], count())
    classes = _quotient(groups, lambda key, position: labeled_values[position][1])
    members: list[list[int]] = [[] for _ in classes]
    excluded = []
    for i, (_, v) in enumerate(labeled_values):
        if v is None:
            excluded.append(i)
        else:
            key = v.rational.as_integer_ratio() if v.__class__ is Exact else v.real  # _gather's key
            members[groups[key]].append(i)
    return OrderedDomain(
        tuple(label for label, _ in labeled_values),
        tuple(EquivalenceClass(cls.value, tuple(m)) for cls, m in zip(classes, members)),
        tuple(excluded),
    )


def induced_order(
    measure: Measure, spec: Domain, cap: int | None = None
) -> OrderedDomain:
    """Evaluate the measure over the domain and sort it into the weak order.

    The values come from the walks ``summarize`` streams; unlike the
    summary this keeps every element's label and class, as the Hasse
    export lists them.  Undefined points are excluded.
    """
    _check_family(measure, spec)
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


def check_injective(
    ordered: ValueSummary | OrderedDomain,
) -> tuple[bool, Optional[CollisionWitness]]:
    """True iff every class is a singleton.

    The witness is the earliest collision in enumeration order: the first
    element whose value was already attained, paired with the earliest
    element attaining it.
    """
    best: Optional[ValueClass | EquivalenceClass] = None
    for cls in ordered.classes:
        if cls.size > 1 and (best is None or cls.earliest[1] < best.earliest[1]):
            best = cls
    if best is None:
        return True, None
    return False, CollisionWitness(*ordered.labels_at(*best.earliest), best.value)


@dataclass(frozen=True)
class SpacingResult:
    equispaced: bool
    degenerate: bool  # fewer than 2 classes: vacuously equispaced, flagged
    gap: Optional[Value] = None
    violating_triple: Optional[tuple[Value, Value, Value]] = None


def check_equispaced(ordered: ValueSummary | OrderedDomain) -> SpacingResult:
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
    return sum(ordered.classes[k].size for k in range(ci, cj + 1))


@dataclass(frozen=True)
class OracleResult:
    verdict: Optional[bool]  # None when skipped
    note: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.verdict is None


def interval_scale_oracle(
    ordered: ValueSummary | OrderedDomain, cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
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
    if any(cls.size > 1 for cls in classes):
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
    """Summarize the attained values, run both routes, and name the intrinsic category.

    Category rule: injective and equispaced (non-degenerate) makes an
    interval scale backed by a metric; injective alone is ordinal/metric;
    otherwise ordinal/pseudometric.  The definitional oracle result is
    embedded so reports can show the two routes agreeing.
    """
    summary = summarize(measure, spec, cap=cap)
    injective, collision = check_injective(summary)
    spacing = check_equispaced(summary)
    oracle = interval_scale_oracle(summary, cap=oracle_cap)
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
        classes=len(summary.classes),
        elements=summary.elements,
        excluded=summary.excluded,
        excluded_example=(
            None if summary.first_excluded is None
            else summary.labels_at(summary.first_excluded)[0]
        ),
        backend=measure.backend,
        eps=measure.eps,
        oracle=oracle.verdict,
        oracle_note=oracle.note,
    )
