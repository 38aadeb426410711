"""Domain objects that measure formulas are written against.

Everything here is immutable after construction and validated eagerly, so
any object that exists satisfies its invariants and evaluation never has
to re-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintError, UnsatisfiableNeedError


@dataclass(frozen=True)
class GradeScheme:
    """Ordered relevance grades with a gain for each grade.

    The lowest grade always has gain exactly zero ("not relevant"); gains
    strictly increase with grade order.  A document is relevant iff its
    grade has positive gain.
    """

    labels: tuple[str, ...]
    gains: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ConstraintError("model: a grade scheme needs at least 2 grades")
        if len(self.labels) != len(self.gains):
            raise ConstraintError("model: labels and gains must align")
        if len(set(self.labels)) != len(self.labels):
            raise ConstraintError("model: duplicate grade labels")
        gains = tuple(Fraction(g) for g in self.gains)
        object.__setattr__(self, "gains", gains)
        if gains[0] != 0:
            raise ConstraintError("model: gain of the lowest grade must be 0")
        for lo, hi in zip(gains, gains[1:]):
            if hi <= lo:
                raise ConstraintError("model: gains must strictly increase with grade order")

    @classmethod
    def binary(cls) -> "GradeScheme":
        return cls(("0", "1"), (Fraction(0), Fraction(1)))

    @classmethod
    def equispaced(cls, levels: int) -> "GradeScheme":
        """Grades 0..levels-1 with gains k/(levels-1), spanning [0, 1]."""
        if levels < 2:
            raise ConstraintError("model: need at least 2 grade levels")
        return cls(
            tuple(str(k) for k in range(levels)),
            tuple(Fraction(k, levels - 1) for k in range(levels)),
        )

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Ranking:
    """System output: grade labels by rank position (1-based in formulas)."""

    scheme: GradeScheme
    items: tuple[str, ...]

    def __post_init__(self):
        if len(self.items) < 1:
            raise ConstraintError("model: a ranking has at least one position")
        for label in self.items:
            if label not in self.scheme.labels:
                raise ConstraintError(f"model: grade label {label!r} not in scheme")

    @property
    def length(self) -> int:
        return len(self.items)

    @property
    def relevant_count(self) -> int:
        return len(self.items) - self.items.count(self.scheme.labels[0])

    def display(self) -> str:
        return ranking_label(self.items)


def ranking_label(items: tuple[str, ...]) -> str:
    """Display form of a ranking's grade labels, e.g. ``<1,0,0>``."""
    return "<" + ",".join(items) + ">"


@dataclass(frozen=True)
class Universe:
    """Collection-level context: size N and total relevant R."""

    collection_size: int
    total_relevant: int

    def __post_init__(self):
        if self.collection_size < 0 or self.total_relevant < 0:
            raise ConstraintError("model: universe counts must be non-negative")
        if self.total_relevant > self.collection_size:
            raise ConstraintError("model: total relevant exceeds collection size")


def check_consistent(ranking: Ranking, universe: Universe) -> None:
    """A ranking may not retrieve more relevant items than exist."""
    if ranking.relevant_count > universe.total_relevant:
        raise ConstraintError(
            "model: ranking retrieves more relevant items than the universe holds"
        )
    if ranking.length > universe.collection_size:
        raise ConstraintError("model: ranking is longer than the collection")


@dataclass(frozen=True)
class ContingencyTable:
    """The four set-based retrieval counts."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ConstraintError(f"model: contingency count {name} must be non-negative")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn), the arguments of a set-based measure."""
        return self.tp, self.fp, self.fn, self.tn

    def display(self) -> str:
        return f"tp={self.tp},fp={self.fp},fn={self.fn},tn={self.tn}"


@dataclass(frozen=True)
class UserContext:
    """Counts behind the user-oriented measures.

    known_relevant:    relevant documents the user already knows (U)
    retrieved_known:   of those, how many were retrieved (R_k)
    retrieved_unknown: retrieved relevant documents new to the user (R_u)
    retrieved_total:   size of the retrieved set (A)
    """

    known_relevant: int
    retrieved_known: int
    retrieved_unknown: int
    retrieved_total: int

    def __post_init__(self):
        if self.known_relevant < 1:
            raise ConstraintError("model: the user must know at least one relevant document")
        if self.retrieved_total < 1:
            raise ConstraintError("model: the retrieved set must be nonempty")
        if self.retrieved_known < 0 or self.retrieved_unknown < 0:
            raise ConstraintError("model: retrieved counts must be non-negative")
        if self.retrieved_known > self.known_relevant:
            raise ConstraintError("model: retrieved known relevant exceeds known relevant")
        if self.retrieved_known + self.retrieved_unknown > self.retrieved_total:
            raise ConstraintError("model: retrieved relevant exceeds retrieved total")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """(U, R_k, R_u, A), the arguments of a user-oriented measure."""
        return (self.known_relevant, self.retrieved_known, self.retrieved_unknown,
                self.retrieved_total)

    def display(self) -> str:
        return (
            f"U={self.known_relevant},Rk={self.retrieved_known},"
            f"Ru={self.retrieved_unknown},A={self.retrieved_total}"
        )


@dataclass(frozen=True)
class LeveledOutput:
    """Weakly ordered output: levels of (relevant, nonrelevant) counts.

    Documents inside one level carry no order; the within-level position of
    a document is treated as uniformly random by the search-length measure,
    which is what makes two linearizations of the same level structure
    indistinguishable.
    """

    levels: tuple[tuple[int, int], ...]
    need: int

    def __post_init__(self):
        if self.need < 1:
            raise ConstraintError("model: the need must be positive")
        if not self.levels:
            raise ConstraintError("model: a leveled output has at least one level")
        for rel, non in self.levels:
            if rel < 0 or non < 0:
                raise ConstraintError("model: level counts must be non-negative")
        if sum(rel + non for rel, non in self.levels) < 1:
            raise ConstraintError("model: a leveled output holds at least one document")

    @property
    def total_relevant(self) -> int:
        return sum(rel for rel, _ in self.levels)

    @property
    def satisfiable(self) -> bool:
        return self.total_relevant >= self.need

    def require_satisfiable(self) -> None:
        if not self.satisfiable:
            raise UnsatisfiableNeedError(
                f"model: need {self.need} exceeds {self.total_relevant} relevant documents"
            )

    def display(self) -> str:
        body = "".join(f"({rel},{non})" for rel, non in self.levels)
        return f"{body};s={self.need}"
