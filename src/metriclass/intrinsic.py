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
the quotient-gap route, so the two must always agree.  It compares all
the exact pairs of one span offset at once, as digits of packed ints.

Classification needs only the attained values in order, each one's size
and the earliest collision (``summarize``): one pass buckets values up to
the first repeat of an exact value and counts the rest in C, one call per
element stream; no record is built per class.  The induced order
(``induced_order``) also lists the members, for the Hasse export.  Both
read ``ElementOrder.evaluators``, in position order under any seed.  A walk
may hand over a settled prefix as one run of elements sharing one value,
and hands over undefined points only so, as runs, which are counted
apart.  A walk hands over finished keys, so this module only counts and
sorts them; a key is turned back into its value's pair only where a check
or a report reads it, through the domain's certificate; the oracle reads
rank keys as they are.  An exact value's key is, on a rankings domain, its
integer numerator over the domain's one denominator
(``Domain.certificate``); on a contingency or user domain
whose certificate holds, the float ``num / den``, recovered by
``_convergent``; else its ``(num, den)`` in lowest terms, reduced by the
walk where it makes the pair.  A real's key is its float.  Rank values
stay integers, not certified floats: many are dyadic (``rbp?p=1/2``),
and a float k/2^m hashes with its low bits zero, so ``Counter`` over the
2^18 floats k/2^18 took 200 ms against 18 ms over the ints k.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, islice, repeat, starmap
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .enumeration import DEFAULT_CAP, Domain, ElementOrder, format_domain
from .errors import ConstraintError
from .measures import Measure
from .values import DEFAULT_EPS, Exact, Value, absdiff, add, as_value, exact, fmt, sub

#: Above this many quotient classes the definitional oracle is skipped.
DEFAULT_ORACLE_CAP = 200

#: How classes are grouped and sorted, as ``Domain.evaluators`` hands them over
#: finished: an exact value's numerator over a rankings domain's one
#: denominator, its certified float (``Domain.certificate``), or its (num,
#: den) in lowest terms, reduced by the walk; or a real's float.
Key = tuple[int, int] | int | float


# ---------------------------------------------------------------------------
# Grouping attained values
# ---------------------------------------------------------------------------


class ValueClass(NamedTuple):
    """One attained value, how many elements attain it, and the earliest one or two.

    ``key`` is the value's raw result: its reduced ``(num, den)`` or a real's float.
    """

    key: tuple[int, int] | float
    size: int
    earliest: tuple[int, ...]  # the smallest positions, two unless the class is a singleton

    @property
    def value(self) -> Value:
        return as_value(self.key)


def _convergent(x: float, bound: int) -> tuple[int, int]:
    """The last continued-fraction convergent of ``x`` whose denominator is at most ``bound``.

    ``x.as_integer_ratio()`` is expanded exactly.  When ``x`` is the
    correctly rounded float of a value p/q and ``bound`` is the denominator
    bound D of ``Domain.certificate``, this is (p, q) in lowest terms.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p, q = 0, 1, 1, 0
    while den:
        a, rest = divmod(num, den)
        if q0 + a * q > bound:
            break
        p0, q0, p, q = p, q, p0 + a * p, q0 + a * q
        num, den = den, rest
    return p, q


@dataclass(frozen=True)
class _Keyed:
    """What a grouped domain's keys stand for.

    ``bound`` is the domain's certificate (``Domain.certificate``), else
    None: the one denominator of a rankings domain's integer keys, or the
    denominator bound of a contingency or user domain's certified floats.
    """

    bound: Optional[int] = field(default=None, kw_only=True)
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def result(self, key: Key) -> tuple[int, int] | float:
        """The raw result a key stands for: an exact value's reduced ``(num, den)`` or a real.

        Where ``bound`` is set a key is an int, the numerator over ``bound``,
        reduced, or a certified float, turned back into its pair once.
        """
        if self.bound is None:
            return key
        if key.__class__ is int:
            d = gcd(key, self.bound)
            return key // d, self.bound // d
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _convergent(key, self.bound)
        return pair

    def value(self, key: Key) -> Value:
        return as_value(self.result(key))


@dataclass(frozen=True)
class ValueSummary(_Keyed):
    """What classification needs of a domain's attained values, from one pass.

    ``keys`` is the quotient in increasing value order, and ``sizes`` maps
    each key to its class's size.  ``collision`` is ``(key, earliest,
    second)`` of the class whose second earliest position in
    ``enumerate_domain`` order is least, or None.  ``elements`` is the count
    ``ElementOrder`` took; ``excluded`` and ``first_excluded`` are the
    number and earliest position of the undefined points (0 and None).
    """

    keys: list[Key]
    sizes: dict[Key, int]
    collision: Optional[tuple[Key, int, int]]
    elements: int
    excluded: int
    first_excluded: Optional[int]
    order: ElementOrder

    def labels_at(self, *positions: int) -> list[str]:
        return self.order.labels_at(*positions)


@dataclass(frozen=True)
class OrderedDomain(_Keyed):
    """A domain sorted and grouped by attained value, every member listed.

    ``labels`` holds display strings in enumeration order; ``keys``,
    ``collision`` and ``bound`` are ``summarize``'s; ``members[ci]`` lists
    the positions in the class of ``keys[ci]``, ascending, and ``excluded``
    the undefined points.
    """

    labels: tuple[str, ...]
    keys: list[Key]
    members: tuple[tuple[int, ...], ...]
    excluded: tuple[int, ...]
    collision: Optional[tuple[Key, int, int]]

    @property
    def classes(self) -> tuple[ValueClass, ...]:
        return tuple(ValueClass(self.result(key), len(m), m[:2])
                     for key, m in zip(self.keys, self.members))

    def labels_at(self, *indices: int) -> list[str]:
        return [self.labels[i] for i in indices]


def _unpack(g: int | list[int]) -> tuple[int, tuple[int, ...]]:
    """A bucket's size and its one or two earliest positions."""
    return (1, (g,)) if g.__class__ is int else (g[0], (g[1], g[2]))


def _gather(evaluators: Iterable[tuple[Iterable, bool]], early: bool) -> tuple:
    """Bucket keys, one element or run at a time.

    ``evaluators`` yields ``(stream, runs)`` of finished keys in position
    order, as ``ElementOrder.evaluators`` does, so ``None`` comes in runs
    only, and positions are counted from 0.  A key maps to its element's
    position while attained once, then to ``[count, earliest, second
    earliest]``.  Returns the buckets and None; or, where ``early`` and a
    defined key repeats (the earliest collision, when keys are exact), the
    buckets and ``(key, stream, runs)``: the rest of the stream it stopped
    in, and its kind.
    """
    groups: dict[Optional[Key], int | list[int]] = {}
    positions = count()
    for stream, runs in evaluators:
        if runs:
            for key, k in stream:  # the run holds p..p+k-1
                p = next(positions)
                earliest, positions = (p, p + 1)[:k], count(p + k)
                if _enter(groups, key, k, earliest) and early and key is not None:
                    return groups, (key, stream, True)
            continue
        # stream first: zip stops on an exhausted stream without taking a position
        for key, position in zip(stream, positions):
            g = groups.setdefault(key, position)
            if g is position:  # a new key
                continue
            if g.__class__ is int:
                groups[key] = [2, g, position]
                if early:
                    return groups, (key, stream, False)
            else:
                g[0] += 1
    return groups, None


def _count(groups: dict, stream, runs: bool, evaluators) -> tuple:
    """Sizes over ``_gather``'s buckets and the rest of its walk, and the first ``None``'s position.

    ``Counter.update`` counts each element stream's keys in C; runs add
    their lengths.  Positions ascend, so the first undefined run after the
    stop starts at the number of elements counted before it.
    """
    sizes = Counter({key: 1 if g.__class__ is int else g[0] for key, g in groups.items()})
    first = _unpack(groups[None])[1][0] if None in groups else None
    for stream, runs in chain([(stream, runs)], evaluators):
        if not runs:
            sizes.update(stream)
            continue
        for key, k in stream:
            if key is None and first is None:
                first = sum(sizes.values())
            sizes[key] += k
    return sizes, first


def _enter(groups: dict, key: Optional[Key], size: int, earliest: tuple[int, ...]) -> bool:
    """Add ``size`` elements to ``key``'s bucket; True if it then holds more than one.

    ``earliest`` holds their one or two smallest positions, ascending.
    """
    if key in groups:
        more, seen = _unpack(groups[key])
        size, earliest = size + more, tuple(sorted((*seen, *earliest))[:2])
    groups[key] = earliest[0] if size == 1 else [size, *earliest]
    return size > 1


def _quotient(groups: dict, certified: bool, excluded: int) -> list[Key]:
    """The classes' keys in increasing value order, over the keys of ``groups``.

    ``groups`` holds the defined values, ``excluded`` counts the undefined
    ones.  Values must be all exact or all real, and one must be defined.
    Each distinct exact value is a class; ``certified`` keys are floats
    that ``Domain.certificate`` proved one-to-one on the exact values and
    ordered as they are.  A class of reals is a run of sorted values within
    ``DEFAULT_EPS`` of its first, the anchor, since nearness within a
    tolerance is not transitive; only anchors are returned, and each other
    real belongs to the greatest anchor below it.
    """
    if not groups:
        raise ConstraintError("intrinsic: the domain has no element" if not excluded
                              else "intrinsic: every element of the domain is undefined")
    if certified:
        return sorted(groups)
    kinds = set(map(type, groups))
    if len(kinds) > 1:
        raise ConstraintError("intrinsic: a domain mixes exact and real values")
    if float in kinds:
        anchors: list[Key] = []
        for key in sorted(groups):  # value_eq of two reals; the keys ascend
            if not anchors or key - anchors[-1] > DEFAULT_EPS:
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

    One pass over the finished keys of ``Domain.evaluators``
    (level-at-a-time walks keyed by integers that yield settled prefixes as
    runs, or affine rows keyed by certified floats or reduced pairs)
    keeps each value's size and the earliest collision, so memory grows
    with the distinct values, not the elements.  Values are bucketed
    (``_gather``) up to the first repeat of an exact value and counted in
    C after it (``_count``), one ``Counter.update`` per element stream.
    The streams arrive in position order, seeded or not.  For reals, where
    near values join a class without a repeat, every element is bucketed,
    and near reals fold into their anchors' buckets.  Undefined points,
    which come as runs, are counted apart and left out of the quotient.
    """
    _check_family(measure, spec)
    order = ElementOrder(spec, DEFAULT_CAP if cap is None else cap)
    bound = spec.certificate(measure)
    evaluators = order.evaluators(measure)
    groups, stop = _gather(evaluators, measure.backend == "exact")
    if stop is None:
        excluded, (first, *_) = _unpack(groups.pop(None)) if None in groups else (0, (None,))
        keys = _quotient(groups, bound is not None, excluded)
        if len(keys) < len(groups):  # near reals: each joins the greatest anchor below it
            for key in groups.keys() - set(keys):
                _enter(groups, keys[bisect_right(keys, key) - 1], *_unpack(groups.pop(key)))
        collided = dict(compress(groups.items(), map(isinstance, groups.values(), repeat(list))))
        collision = min(((key, g[1], g[2]) for key, g in collided.items()),
                        key=itemgetter(2), default=None)
        sizes = dict.fromkeys(groups, 1)
        sizes.update(zip(collided, map(itemgetter(0), collided.values())))
    else:
        collision = (stop[0], *groups[stop[0]][1:])
        sizes, first = _count(groups, *stop[1:], evaluators)
        excluded = sizes.pop(None, 0)
        keys = _quotient(sizes, bound is not None, excluded)
    return ValueSummary(keys, sizes, collision, order.size, excluded, first, order, bound=bound)


def _ordered(walk: Iterable, labels: Iterable[str], bound: Optional[int] = None) -> OrderedDomain:
    """``summarize``'s quotient of a walk, every member listed, from one pass over it.

    ``walk`` is ``_gather``'s, a walk of finished keys, ``labels`` are in
    position order, and ``bound`` certifies the walk's floats, if any.
    Each position goes to an ascending list under its element's key;
    ``None``'s holds the undefined points, and a real joins the greatest
    anchor below it, whose list is then sorted.
    """
    lists: dict[Optional[Key], list[int]] = {}
    positions = count()
    for stream, runs in walk:
        if runs:
            for key, k in stream:
                lists.setdefault(key, []).extend(islice(positions, k))
            continue
        for key, position in zip(stream, positions):
            lists.setdefault(key, []).append(position)
    excluded = tuple(lists.pop(None, ()))
    keys = _quotient(lists, bound is not None, len(excluded))
    if len(keys) < len(lists):  # near reals: each joins the greatest anchor below it
        folded: dict[Key, list[int]] = {key: [] for key in keys}
        for key, members in lists.items():
            folded[keys[bisect_right(keys, key) - 1]] += members
        lists = {key: sorted(members) for key, members in folded.items()}
    members = tuple(map(tuple, map(lists.__getitem__, keys)))
    collision = min(((key, *m[:2]) for key, m in zip(keys, members) if len(m) > 1),
                    key=itemgetter(2), default=None)
    return OrderedDomain(tuple(labels), keys, members, excluded, collision, bound=bound)


def _raw(value: Optional[Value]) -> Optional[Key]:
    """A value's key: the reduced pair or the float it wraps, or None for None."""
    if value is None:
        return None
    return value.rational.as_integer_ratio() if value.__class__ is Exact else value.real


def order_values(pairs: Sequence[tuple[str, Optional[Value]]]) -> OrderedDomain:
    """The induced order of (label, value) pairs, grouped as a walk is; None is excluded."""
    return _ordered([(map(_raw, (v for _, v in pairs)), False)], (label for label, _ in pairs))


def induced_order(measure: Measure, spec: Domain, cap: int | None = None) -> OrderedDomain:
    """Evaluate the measure over the domain and sort it into the weak order.

    The walk and classes are ``summarize``'s; this also keeps every
    element's label and each class's members, which the Hasse export
    lists, from the same one walk.  Undefined points are excluded.
    """
    _check_family(measure, spec)
    order = ElementOrder(spec, DEFAULT_CAP if cap is None else cap)
    return _ordered(order.evaluators(measure), order.arrange(spec.labels()),
                    spec.certificate(measure))


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
        """Minimum path length between classes i and j: on a chain, the edge weights' sum."""
        return reduce(add, self.weights[min(i, j):max(i, j)], exact(0))


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


def check_injective(ordered: ValueSummary | OrderedDomain,
                    ) -> tuple[bool, Optional[CollisionWitness]]:
    """True iff every class is a singleton.

    The witness is the earliest collision in enumeration order: the first
    element whose value was already attained, paired with the earliest
    element attaining it.
    """
    if ordered.collision is None:
        return True, None
    key, first, second = ordered.collision
    return False, CollisionWitness(*ordered.labels_at(first, second), ordered.value(key))


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
    between the classes' results, recovered key by key up to the first
    unequal gap: exact ones are compared by integer cross-multiplication,
    real ones within ``DEFAULT_EPS`` of the first gap (nearness within a
    tolerance is not transitive).
    """
    keys, result = ordered.keys, ordered.result
    if len(keys) < 2:
        return SpacingResult(equispaced=True, degenerate=True)
    hi = result(keys[0])
    real = hi.__class__ is float
    first = None
    for k in range(1, len(keys)):
        lo, hi = hi, result(keys[k])
        if real:
            gap = hi - lo
            same = first is None or abs(gap - first) <= DEFAULT_EPS  # value_eq
        else:  # a gap (num, den) over a positive den
            gap = hi[0] * lo[1] - lo[0] * hi[1], lo[1] * hi[1]
            same = first is None or gap[0] * first[1] == first[0] * gap[1]
        if not same:
            triple = tuple(map(ordered.value, keys[k - 2:k + 1]))
            return SpacingResult(equispaced=False, degenerate=False, violating_triple=triple)
        first = first or gap  # gaps between distinct classes are nonzero
    return SpacingResult(equispaced=True, degenerate=False,
                         gap=sub(ordered.value(keys[1]), ordered.value(keys[0])))


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
    Reals are compared as floats within ``DEFAULT_EPS`` of their offset's
    first difference, since nearness within a tolerance is not transitive.
    Exact values are integers x_0..x_{k-1} over one denominator: rank keys
    over ``bound`` as they are, others recovered and brought over the lcm
    of their denominators.  Each x_i - min(x) is a digit, in base B =
    256^width > 2 * span, of one int P.  At offset d, ``P // B^d - P mod
    B^(k-d)`` has the digits x_{i+d} - x_i, and ``(x_d - x_0) * (1 + B +
    ... + B^(k-d-1))`` the digits x_d - x_0, all of magnitude at most the
    span, below B / 2.  Such a balanced base-B form is unique, so the two
    are equal iff every pair at offset d has the first pair's difference.
    Quotients above ``cap`` classes are skipped with a marker.
    """
    keys = ordered.keys
    if len(keys) > cap:
        return OracleResult(None, f"skipped: {len(keys)} classes exceed the oracle cap {cap}")
    if ordered.collision is not None:
        return OracleResult(False, "distance is not a metric: distinct elements at distance zero")
    k = len(keys)
    xs = keys if k and keys[0].__class__ is int else list(map(ordered.result, keys))
    if xs and xs[0].__class__ is tuple:
        den = math.lcm(*(d for _, d in xs))
        xs = [n * (den // d) for n, d in xs]
    firsts = [x - xs[0] for x in xs]
    if all(x.__class__ is int for x in xs):
        tol, low = 0, min(xs, default=0)
        width = ((max(xs, default=0) - low).bit_length() + 8) // 8  # bytes, so 2 * span < B
        digits = map(int.to_bytes, map(operator.sub, xs, repeat(low)), repeat(width),
                     repeat("little"))
        packed = int.from_bytes(b"".join(digits), "little")
        ones = int.from_bytes((1).to_bytes(width, "little") * k, "little")
        bits = 8 * width
        for d in range(1, k):
            mask = (1 << (k - d) * bits) - 1
            if (packed >> d * bits) - (packed & mask) != firsts[d] * (ones & mask):
                return OracleResult(False, "equal spans with unequal value differences")
    else:  # |diff - first| <= eps for every later pair
        tol = DEFAULT_EPS
        for d, first in enumerate(firsts):
            rest = map(operator.sub, islice(xs, d + 1, None), islice(xs, 1, None))
            if not all(map(tol.__ge__, map(abs, map(operator.sub, rest, repeat(first))))):
                return OracleResult(False, "equal spans with unequal value differences")
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
