"""The materialised classification path, kept as the reference for tests.

``classify`` gets its verdict from a one-pass summary of the attained
values (``intrinsic.summarize``): per distinct value a count and the two
earliest positions.  This module is the path it replaced, which kept
every element: ``labeled_values`` lists a ``(label, value)`` pair per
element, ``order_values`` sorts them into classes that carry a value and
a member list, and the three checks and ``classify`` read those.  The
records (``Class``, ``Ordered``) are this module's own, so the reference
shares no class type with ``intrinsic``.  ``labeled_values`` evaluates
each element of ``enumerate_domain`` on its own, so it does not share
the prefix-sharing walk (``Domain.evaluators``) that ``classify`` and
``hasse`` group.
``test_summary.py`` compares every ``Verdict`` field of the two paths.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, repeat
from typing import NamedTuple, Optional, Sequence

from metriclass.enumeration import DEFAULT_CAP, Domain, enumerate_domain, format_domain
from metriclass.errors import ConstraintError, UndefinedValueError
from metriclass.intrinsic import (
    DEFAULT_ORACLE_CAP,
    INTERVAL_METRIC,
    ORDINAL_METRIC,
    ORDINAL_PSEUDOMETRIC,
    CollisionWitness,
    OracleResult,
    SpacingResult,
    Verdict,
)
from metriclass.measures import Measure
from metriclass.values import DEFAULT_EPS, Exact, Value, sub, value_eq


class Class(NamedTuple):
    """One attained value and the positions that attain it, ascending."""

    value: Value
    members: tuple[int, ...]


class Ordered(NamedTuple):
    """Every element's label, the classes in value order, and the undefined positions."""

    labels: tuple[str, ...]
    classes: tuple[Class, ...]
    excluded: tuple[int, ...]


def labeled_values(spec: Domain, measure: Measure, cap: int = DEFAULT_CAP) -> list[tuple]:
    """``(label, value or None)`` for every element, in ``enumerate_domain`` order."""
    universe = getattr(spec, "universe", None)
    pairs = []
    for element in enumerate_domain(spec, cap):
        try:
            value = measure.evaluate(element, universe)
        except UndefinedValueError:
            value = None
        pairs.append((element.display(), value))
    return pairs


def order_values(labeled_values: Sequence[tuple[str, Optional[Value]]]) -> Ordered:
    """Bucket the element indices by value key, then sort only the distinct values."""
    labels = tuple(label for label, _ in labeled_values)
    excluded: list[int] = []
    groups: dict = {}
    for i, (_, v) in enumerate(labeled_values):
        if v is None:
            excluded.append(i)
            continue
        key = v.rational.as_integer_ratio() if v.__class__ is Exact else v.real
        g = groups.setdefault(key, i)
        if g is i:
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
    distinct = []
    for key, g in groups.items():
        first = g if g.__class__ is int else g[0]
        if real:
            distinct.append((key, first, g))
        else:
            distinct.append((_ratio_to_float(*key), labeled_values[first][1].rational, first, g))
    distinct.sort()
    if real:
        runs: list = []
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
        Class(v, (g,) if g.__class__ is int else tuple(sorted(g)))
        for v, g in runs
    )
    return Ordered(labels, classes, tuple(excluded))


def _ratio_to_float(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def check_injective(ordered: Ordered) -> tuple[bool, Optional[CollisionWitness]]:
    best = None
    for cls in ordered.classes:
        if len(cls.members) > 1:
            a, b = cls.members[0], cls.members[1]
            if best is None or b < best[1]:
                best = (a, b, cls.value)
    if best is None:
        return True, None
    a, b, value = best
    return False, CollisionWitness(ordered.labels[a], ordered.labels[b], value)


def check_equispaced(ordered: Ordered) -> SpacingResult:
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


def interval_scale_oracle(ordered: Ordered, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
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
        else:
            same = all(map(tol.__ge__, map(abs, map(operator.sub, rest, repeat(first)))))
        if not same:
            return OracleResult(False, "equal spans with unequal value differences")
        firsts.append(first)
    for lo, hi in zip(firsts, firsts[1:]):
        if not lo <= hi + tol or abs(lo - hi) <= tol:
            return OracleResult(False, "value differences not strictly increasing with span")
    return OracleResult(True)


def classify(measure: Measure, spec: Domain, oracle_cap: int = DEFAULT_ORACLE_CAP,
             cap: Optional[int] = None) -> Verdict:
    if spec.family != measure.family:
        raise ConstraintError(
            f"intrinsic: {measure.id} evaluates {measure.family} elements,"
            f" but the domain enumerates {spec.kind}"
        )
    ordered = order_values(labeled_values(spec, measure, DEFAULT_CAP if cap is None else cap))
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
        excluded_example=ordered.labels[ordered.excluded[0]] if ordered.excluded else None,
        backend=measure.backend,
        eps=measure.eps,
        oracle=oracle.verdict,
        oracle_note=oracle.note,
    )
