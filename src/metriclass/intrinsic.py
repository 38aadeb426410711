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
attained and the two earliest elements attaining it (``summarize``): the
sorted keys of the distinct values over the buckets grouping filled, and
no record per class.  The induced order (``induced_order``) also lists the
members, for the Hasse export, which reads ``ValueClass`` records.  A walk
may hand over a settled prefix as one run of elements sharing one value.
Values are grouped, ordered and compared by their keys, the reduced
``(num, den)`` of an exact value or the float of a real; a value object is
built only where one is reported: a witness, gap, triple or Hasse node.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat, starmap
from math import gcd
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .enumeration import DEFAULT_CAP, Domain, ElementOrder, format_domain
from .errors import ConstraintError
from .measures import Measure
from .values import DEFAULT_EPS, Exact, Value, absdiff, add, as_value, exact, fmt, sub

#: Above this many quotient classes the definitional oracle is skipped.
DEFAULT_ORACLE_CAP = 200

#: How classes are grouped and compared: an exact value's reduced (num, den), a real's float.
Key = tuple[int, int] | float


# ---------------------------------------------------------------------------
# Grouping attained values
# ---------------------------------------------------------------------------


class ValueClass(NamedTuple):
    """One attained value's key, how many elements attain it, and the earliest one or two."""

    key: Key
    size: int
    earliest: tuple[int, ...]  # the smallest positions, two unless the class is a singleton

    @property
    def value(self) -> Value:
        return as_value(self.key)


@dataclass(frozen=True)
class ValueSummary:
    """What classification needs of a domain's attained values, from one pass.

    ``keys`` is the quotient, one key per class in increasing value order,
    and ``buckets`` maps each key to its class's position, or to ``[size,
    earliest, second earliest]`` in ``enumerate_domain`` order.  ``elements``
    and ``excluded`` count the domain and its undefined points, and
    ``first_excluded`` is the earliest undefined position.  ``labels_at``
    names the elements at some positions through ``ElementOrder.labels_at``.
    """

    keys: list[Key]
    buckets: dict[Key, int | list[int]]
    elements: int
    excluded: int
    first_excluded: Optional[int]
    order: ElementOrder

    def labels_at(self, *positions: int) -> list[str]:
        return self.order.labels_at(*positions)


@dataclass(frozen=True)
class OrderedDomain:
    """A domain sorted and grouped by attained value, every member listed.

    ``labels`` holds display strings in enumeration order; ``keys`` and
    ``buckets`` are ``summarize``'s, and ``classes`` reads them as records;
    ``members[ci]`` lists the indices in the class of ``keys[ci]``,
    ascending; ``excluded`` lists the undefined points.
    """

    labels: tuple[str, ...]
    keys: list[Key]
    buckets: dict[Key, int | list[int]]
    members: tuple[tuple[int, ...], ...]
    excluded: tuple[int, ...]

    @property
    def classes(self) -> tuple[ValueClass, ...]:
        return tuple(ValueClass(key, *_unpack(self.buckets[key])) for key in self.keys)

    def labels_at(self, *indices: int) -> list[str]:
        return [self.labels[i] for i in indices]


def _unpack(g: int | list[int]) -> tuple[int, tuple[int, ...]]:
    """A bucket's size and its one or two earliest positions."""
    return (1, (g,)) if g.__class__ is int else (g[0], (g[1], g[2]))


def _collisions(buckets: dict) -> Iterable[tuple[Key, list[int]]]:
    """The key and bucket of every class attained more than once, found without a Python loop."""
    return compress(buckets.items(), map(isinstance, buckets.values(), repeat(list)))


def _gather(evaluators: Iterable[tuple[Iterable, bool]], positions):
    """Bucket attained values by key in one pass over the elements.

    ``evaluators`` yields ``(stream, runs)`` as ``Domain.evaluators``
    does: an element stream gives each element's raw result, ``(num,
    den)`` with a positive ``den`` or a float, or ``None`` where it is
    undefined, and a run stream gives ``(result, k)`` for k consecutive
    elements.  ``positions`` yields each element's position: a ``count``
    from 0 in lexicographic order, or the positions a seed gives them.  An
    exact result is keyed by the pair reduced by one ``gcd``, which is
    ``Fraction(num, den).as_integer_ratio()`` without a ``Fraction``; a
    real by its float.  A key maps to its element's position while it is
    attained once, then to ``[count, earliest, second earliest]``.
    Returns the buckets, the number of undefined elements and the earliest
    of them.
    """
    groups: dict[tuple | float, int | list[int]] = {}
    excluded = 0
    first_excluded: Optional[int] = None
    for stream, runs in evaluators:
        if runs:
            for v, k in stream:
                run, positions = _take(positions, k)
                earliest = run[:2] if run.__class__ is range else sorted(run)[:2]
                if v is None:
                    excluded += k
                    if first_excluded is None or earliest[0] < first_excluded:
                        first_excluded = earliest[0]
                    continue
                _enter(groups, _key(v), k, tuple(earliest))
            continue
        # stream first: zip stops on an exhausted stream without taking a position
        for v, position in zip(stream, positions):
            if v is None:
                excluded += 1
                if first_excluded is None or position < first_excluded:
                    first_excluded = position
                continue
            if v.__class__ is float:
                key = v
            else:
                num, den = v
                d = gcd(num, den)
                key = v if d == 1 else (num // d, den // d)
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


def _take(positions, k: int):
    """The positions of a run of k elements, and the positions that follow them.

    A ``count`` is lexicographic order, so the run holds p..p+k-1 and the
    count moves on by k without iterating; a seed's positions are taken.
    """
    if positions.__class__ is count:
        p = next(positions)
        return range(p, p + k), count(p + k)
    return list(islice(positions, k)), positions


def _key(v) -> Key:
    """The key ``_gather`` gives a raw result."""
    if v.__class__ is float:
        return v
    num, den = v
    d = gcd(num, den)
    return num // d, den // d


def _enter(groups: dict, key: Key, size: int, earliest: tuple[int, ...]) -> None:
    """Add ``size`` elements attaining ``key`` to its bucket.

    ``earliest`` holds their one or two smallest positions, ascending.
    """
    g = groups.get(key)
    if g.__class__ is int:
        size += 1
        earliest = tuple(sorted((g, *earliest))[:2])
    elif g is not None:
        size += g[0]
        earliest = tuple(sorted((g[1], g[2], *earliest))[:2])
    groups[key] = earliest[0] if size == 1 else [size, *earliest]


def _quotient(groups: dict, excluded: int) -> list[Key]:
    """The classes' keys in increasing value order, over ``_gather``'s buckets.

    The defined values must be all exact or all real, and there must be
    one: a domain with no element, or whose ``excluded`` elements are all
    undefined, is refused.  Each distinct exact value is a class.  A class
    of reals is a run of sorted values within ``DEFAULT_EPS`` of its first,
    the anchor, since nearness within a tolerance is not transitive; each
    other key of the run leaves ``groups``, its bucket folded into the
    anchor's, so that ``groups`` holds the returned keys only.
    """
    if not groups:
        raise ConstraintError("intrinsic: the domain has no element" if not excluded
                              else "intrinsic: every element of the domain is undefined")
    kinds = set(map(type, groups))
    if len(kinds) > 1:
        raise ConstraintError("intrinsic: a domain mixes exact and real values")
    if float in kinds:
        anchors: list[Key] = []
        for key in sorted(groups):  # value_eq of two reals; the keys ascend
            if anchors and key - anchors[-1] <= DEFAULT_EPS:
                _enter(groups, anchors[-1], *_unpack(groups.pop(key)))
            else:
                anchors.append(key)
        return anchors
    # float() of a rational is correctly rounded, hence monotone: the sort by
    # floats is exact unless two distinct rationals round to one float, or
    # one lies beyond the float range
    try:
        keys = sorted(groups, key=lambda key: key[0] / key[1])
        floats = starmap(operator.truediv, keys)
        later = starmap(operator.truediv, islice(keys, 1, None))
        if all(map(operator.lt, floats, later)):
            return keys
    except OverflowError:
        pass
    return sorted(groups, key=lambda key: Fraction(*key))


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
    per length over the measure's fold, which stops at the fold's
    horizon, and leveled domains by one walk over ``esl``'s level fold,
    which stops where it settles; each settled prefix is one run.
    Contingency and user domains are evaluated a row at a time from the
    measure's two affine forms, with no call per element.
    Undefined points (zero denominators) are excluded and counted rather
    than mapped to a sentinel, so they cannot manufacture collisions.  Under a seed the
    elements are still walked in lexicographic order, and each is given
    its shuffled position.
    """
    _check_family(measure, spec)
    order = ElementOrder(spec, DEFAULT_CAP if cap is None else cap)
    groups, excluded, first_excluded = _gather(spec.evaluators(measure), order.positions())
    keys = _quotient(groups, excluded)
    elements = excluded + len(keys) + sum(g[0] - 1 for _, g in _collisions(groups))
    return ValueSummary(keys, groups, elements, excluded, first_excluded, order)


def _ordered(walk: Callable[[], Iterable], positions: Callable[[], Iterable[int]],
             labels: Iterable[str]) -> OrderedDomain:
    """``summarize``'s quotient of a walk, with one more walk to list its members.

    ``walk()`` and ``positions()`` are fresh arguments to ``_gather``, and
    ``labels`` are in position order.  Each element is keyed as ``_gather``
    keys it; a real folded into an anchor goes to the greatest anchor below
    it, a run puts all its positions in one class, and a ``None`` result
    is an undefined point.  Positions arrive out of order under a seed, so
    lists are sorted.
    """
    groups, excluded_count, _ = _gather(walk(), positions())
    raw = list(groups)  # before _quotient folds near reals into their anchors
    keys = _quotient(groups, excluded_count)
    index = (dict(zip(keys, count())) if keys[0].__class__ is tuple
             else {key: bisect_right(keys, key) - 1 for key in raw})
    members: list[list[int]] = [[] for _ in keys]
    excluded = []
    place = positions()
    for stream, runs in walk():
        if runs:
            for v, k in stream:
                run, place = _take(place, k)
                if v is None:
                    excluded.extend(run)
                else:
                    members[index[_key(v)]].extend(run)
            continue
        for v, position in zip(stream, place):
            if v is None:
                excluded.append(position)
            else:
                members[index[_key(v)]].append(position)
    return OrderedDomain(tuple(labels), keys, groups, tuple(tuple(sorted(m)) for m in members),
                         tuple(sorted(excluded)))


def _raw(value: Optional[Value]) -> Optional[Key]:
    """The raw result a value wraps, or None for None."""
    if value is None:
        return None
    return value.rational.as_integer_ratio() if value.__class__ is Exact else value.real


def order_values(pairs: Sequence[tuple[str, Optional[Value]]]) -> OrderedDomain:
    """The induced order of (label, value) pairs, grouped as a walk is; None is excluded."""
    values = [v for _, v in pairs]
    return _ordered(lambda: [(map(_raw, values), False)], count, (label for label, _ in pairs))


def induced_order(measure: Measure, spec: Domain, cap: int | None = None) -> OrderedDomain:
    """Evaluate the measure over the domain and sort it into the weak order.

    The walks and classes are ``summarize``'s; this also keeps every
    element's label and each class's members, which the Hasse export
    lists.  Undefined points are excluded.
    """
    _check_family(measure, spec)
    order = ElementOrder(spec, DEFAULT_CAP if cap is None else cap)
    return _ordered(lambda: spec.evaluators(measure), order.positions,
                    order.arrange(spec.labels()))


def distance(measure: Measure, a, b, universe=None) -> Value:
    """|f(a) - f(b)|: the associated distance between two elements."""
    return absdiff(measure.evaluate(a, universe), measure.evaluate(b, universe))


# ---------------------------------------------------------------------------
# Hasse chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HasseDiagram:
    """Chain over the quotient classes with value-gap edge weights.

    ``members`` is the ordered domain's member lists, shared, not copied;
    ``values`` holds each class's value, built once from its key.
    """

    classes: tuple[ValueClass, ...]
    members: tuple[tuple[int, ...], ...]
    values: tuple[Value, ...]
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
    values = tuple(cls.value for cls in ordered.classes)
    weights = tuple(map(sub, values[1:], values))
    return HasseDiagram(ordered.classes, ordered.members, values, weights)


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
    best = min(_collisions(ordered.buckets), key=lambda item: item[1][2], default=None)
    if best is None:
        return True, None
    key, (_, first, second) = best
    return False, CollisionWitness(*ordered.labels_at(first, second), as_value(key))


@dataclass(frozen=True)
class SpacingResult:
    equispaced: bool
    degenerate: bool  # fewer than 2 classes: vacuously equispaced, flagged
    gap: Optional[Value] = None
    violating_triple: Optional[tuple[Value, Value, Value]] = None


def check_equispaced(ordered: ValueSummary | OrderedDomain) -> SpacingResult:
    """Does every gap between consecutive classes equal the first gap?

    Returns the common gap, or the three consecutive class values ending
    at the first gap unequal to the first.  Single-class quotients report
    equispaced vacuously but carry the degenerate flag.  Gaps are taken
    between class keys: exact ones are compared by integer
    cross-multiplication, real ones within ``DEFAULT_EPS`` of the first gap
    (nearness within a tolerance is not transitive).
    """
    keys = ordered.keys
    if len(keys) < 2:
        return SpacingResult(equispaced=True, degenerate=True)
    real = keys[0].__class__ is not tuple
    first = None
    for k in range(1, len(keys)):
        lo, hi = keys[k - 1], keys[k]
        if real:
            gap = hi - lo
            same = first is None or abs(gap - first) <= DEFAULT_EPS  # value_eq
        else:  # a gap (num, den) over a positive den
            gap = hi[0] * lo[1] - lo[0] * hi[1], lo[1] * hi[1]
            same = first is None or gap[0] * first[1] == first[0] * gap[1]
        if not same:
            triple = tuple(map(as_value, keys[k - 2:k + 1]))
            return SpacingResult(equispaced=False, degenerate=False, violating_triple=triple)
        first = first or gap  # gaps between distinct classes are nonzero
    return SpacingResult(equispaced=True, degenerate=False,
                         gap=sub(as_value(keys[1]), as_value(keys[0])))


# ---------------------------------------------------------------------------
# The definitional interval-scale oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    verdict: Optional[bool]  # None when skipped
    note: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.verdict is None


def interval_scale_oracle(ordered: ValueSummary | OrderedDomain,
                          cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
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
    Exact keys are compared as integers over their common denominator;
    a domain with real values as floats within ``DEFAULT_EPS``, each pair
    against its offset's first difference, since nearness within a
    tolerance is not transitive.  Quotients above ``cap`` classes are
    skipped with a marker.
    """
    keys = ordered.keys
    if len(keys) > cap:
        return OracleResult(None, f"skipped: {len(keys)} classes exceed the oracle cap {cap}")
    if any(_collisions(ordered.buckets)):
        return OracleResult(False, "distance is not a metric: distinct elements at distance zero")
    k = len(keys)
    exact_values = all(key.__class__ is tuple for key in keys)
    if exact_values:
        den = math.lcm(*(d for _, d in keys))
        xs = [n * (den // d) for n, d in keys]
        tol = 0
    else:
        xs = keys
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
        classes=len(summary.keys),
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
