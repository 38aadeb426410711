"""Exhaustive check of the pseudometric axioms on attained values.

Shared by ``test_intrinsic.py`` and ``test_acceptance.py``.  It is cubic in
the number of values, so callers pass a few dozen at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from metriclass.values import Value, absdiff, add, value_eq, value_le


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
