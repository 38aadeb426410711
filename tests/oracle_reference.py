"""The pair-loop interval-scale oracle, kept as the reference for tests.

This is the definitional oracle as first written: one ``Value`` subtraction
and one ``value_eq`` per interval pair, with spans summed from class sizes
and differences kept in a dict keyed by span.  ``test_intrinsic.py`` checks
that ``intrinsic.interval_scale_oracle`` gives the same verdict and note.
It is quadratic in the number of classes, so callers pass a few hundred at
most.
"""

from __future__ import annotations

from metriclass.intrinsic import DEFAULT_ORACLE_CAP, OracleResult, OrderedDomain
from metriclass.values import Value, sub, value_eq, value_le


def reference_oracle(ordered: OrderedDomain, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Bucket every interval by span; one difference per bucket, increasing."""
    classes = ordered.classes
    if len(classes) > cap:
        return OracleResult(None, f"skipped: {len(classes)} classes exceed the oracle cap {cap}")
    if any(cls.size > 1 for cls in classes):
        return OracleResult(False, "distance is not a metric: distinct elements at distance zero")
    sizes = [cls.size for cls in classes]
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
