"""Explicit finite domains: the sets that classification quantifies over.

A DomainSpec pins down one reproducible enumeration of rankings,
contingency tables, user contexts, or leveled outputs.  Enumeration is
deterministic, duplicate-free, lexicographically ordered (unless a seed
asks for a deterministic shuffle), and its length always equals the
analytically computed cardinality.

Spec strings use ``kind:key=value,...``:

    binary:L=4                      all binary rankings of length 4
    binary:L=4,R=2,rel=2            exactly 2 relevant, universe R=2
    graded:levels=5,L=4             grades 0..4 with gains k/4
    contingency:N=15,R=5            retrieved size n free (0..N)
    contingency:N=15,R=5,n=5        retrieved size fixed
    user:U=1,A=1..4                 user contexts, A ranging
    leveled:docs=4,s=1              leveled outputs with up to 4 documents

Omitted ranking keys default to R=L and N=L+R.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import ConstraintError, DomainTooLargeError, ParseError, UndefinedValueError
from .model import (
    ContingencyTable,
    GradeScheme,
    LeveledOutput,
    Ranking,
    Universe,
    UserContext,
    ranking_label,
)

#: Refuse to enumerate domains larger than this (overridable per call).
DEFAULT_CAP = 10_000_000

KINDS = ("rankings", "contingency", "user", "leveled")


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    # rankings
    scheme: Optional[GradeScheme] = None
    lengths: tuple[int, ...] = ()
    universe: Optional[Universe] = None
    exact_relevant: Optional[int] = None
    graded_levels: Optional[int] = None  # set when built from "graded:levels=g"
    # contingency
    collection: Optional[int] = None
    relevant: Optional[int] = None
    retrieved: Optional[tuple[int, int]] = None  # inclusive range
    # user
    known: Optional[int] = None
    max_retrieved: Optional[int] = None
    # leveled
    max_docs: Optional[int] = None
    need: Optional[int] = None
    # deterministic shuffle of the enumeration order (None = lexicographic)
    order_seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstraintError(f"enumeration: unknown domain kind {self.kind!r}")
        if self.kind == "rankings":
            if self.scheme is None or not self.lengths or self.universe is None:
                raise ConstraintError("enumeration: rankings domain needs scheme, lengths, universe")
            if any(L < 1 for L in self.lengths):
                raise ConstraintError("enumeration: ranking lengths must be positive")
            if any(L > self.universe.collection_size for L in self.lengths):
                raise ConstraintError("enumeration: ranking length exceeds collection size")
            if self.exact_relevant is not None and not (
                0 <= self.exact_relevant <= self.universe.total_relevant
            ):
                raise ConstraintError("enumeration: rel constraint exceeds universe R")
        elif self.kind == "contingency":
            if self.collection is None or self.relevant is None:
                raise ConstraintError("enumeration: contingency domain needs N and R")
            if not 0 <= self.relevant <= self.collection:
                raise ConstraintError("enumeration: need 0 <= R <= N")
            lo, hi = self.retrieved if self.retrieved else (0, self.collection)
            if not 0 <= lo <= hi <= self.collection:
                raise ConstraintError("enumeration: retrieved range out of bounds")
        elif self.kind == "user":
            if self.known is None or self.max_retrieved is None:
                raise ConstraintError("enumeration: user domain needs U and A range")
            if self.known < 1 or self.max_retrieved < 1:
                raise ConstraintError("enumeration: U and max A must be positive")
        else:  # leveled
            if self.max_docs is None or self.need is None:
                raise ConstraintError("enumeration: leveled domain needs docs and s")
            if self.max_docs < 1 or self.need < 1:
                raise ConstraintError("enumeration: docs and s must be positive")


# ---------------------------------------------------------------------------
# Spec string parsing / serialization
# ---------------------------------------------------------------------------


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for part in text.split(","):
        key, sep, val = part.partition("=")
        if not sep or not key or not val:
            raise ParseError(f"enumeration: malformed domain key=value {part!r}")
        if key in out:
            raise ParseError(f"enumeration: duplicate domain key {key!r}")
        out[key] = val
    return out


def _int(params: dict[str, str], key: str) -> int:
    try:
        return int(params[key])
    except ValueError:
        raise ParseError(f"enumeration: key {key} wants an integer, got {params[key]!r}") from None


def _int_or_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise ParseError(f"enumeration: bad integer or range {text!r}") from None


def parse_domain(text: str) -> DomainSpec:
    """Parse the ``kind:key=value,...`` form (see module docstring)."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"enumeration: domain spec needs a kind prefix, got {text!r}")
    params = _parse_kv(rest)
    seed = int(params.pop("seed")) if "seed" in params else None

    if kind in ("binary", "graded", "rankings"):
        levels = 2
        if kind == "graded":
            if "levels" not in params:
                raise ParseError("enumeration: graded domain needs levels=<g>")
            levels = _int(params, "levels")
            params.pop("levels")
        if "L" not in params:
            raise ParseError("enumeration: rankings domain needs L")
        lo, hi = _int_or_range(params.pop("L"))
        lengths = tuple(range(lo, hi + 1))
        r = int(params.pop("R")) if "R" in params else max(lengths)
        n = int(params.pop("N")) if "N" in params else max(lengths) + r
        rel = int(params.pop("rel")) if "rel" in params else None
        if params:
            raise ParseError(f"enumeration: unknown ranking keys {sorted(params)}")
        scheme = GradeScheme.binary() if levels == 2 else GradeScheme.equispaced(levels)
        return DomainSpec(
            kind="rankings",
            scheme=scheme,
            lengths=lengths,
            universe=Universe(n, r),
            exact_relevant=rel,
            graded_levels=None if levels == 2 else levels,
            order_seed=seed,
        )

    if kind == "contingency":
        if "N" not in params or "R" not in params:
            raise ParseError("enumeration: contingency domain needs N and R")
        n_coll = _int(params, "N")
        r = _int(params, "R")
        retrieved = _int_or_range(params["n"]) if "n" in params else None
        extra = set(params) - {"N", "R", "n"}
        if extra:
            raise ParseError(f"enumeration: unknown contingency keys {sorted(extra)}")
        return DomainSpec(kind="contingency", collection=n_coll, relevant=r,
                          retrieved=retrieved, order_seed=seed)

    if kind == "user":
        if "U" not in params or "A" not in params:
            raise ParseError("enumeration: user domain needs U and A")
        lo, hi = _int_or_range(params["A"])
        if lo != 1:
            raise ParseError("enumeration: user retrieved-size range must start at 1")
        extra = set(params) - {"U", "A"}
        if extra:
            raise ParseError(f"enumeration: unknown user keys {sorted(extra)}")
        return DomainSpec(kind="user", known=_int(params, "U"), max_retrieved=hi,
                          order_seed=seed)

    if kind == "leveled":
        if "docs" not in params or "s" not in params:
            raise ParseError("enumeration: leveled domain needs docs and s")
        extra = set(params) - {"docs", "s"}
        if extra:
            raise ParseError(f"enumeration: unknown leveled keys {sorted(extra)}")
        return DomainSpec(kind="leveled", max_docs=_int(params, "docs"),
                          need=_int(params, "s"), order_seed=seed)

    raise ParseError(f"enumeration: unknown domain kind {kind!r}")


def format_domain(spec: DomainSpec) -> str:
    """Canonical spec string; parse(format(s)) reproduces the domain."""
    seed = f",seed={spec.order_seed}" if spec.order_seed is not None else ""
    if spec.kind == "rankings":
        lengths = spec.lengths
        lpart = str(lengths[0]) if len(lengths) == 1 else f"{lengths[0]}..{lengths[-1]}"
        head = "binary" if spec.graded_levels is None else f"graded:levels={spec.graded_levels}"
        sep = ":" if spec.graded_levels is None else ","
        rel = f",rel={spec.exact_relevant}" if spec.exact_relevant is not None else ""
        return (
            f"{head}{sep}L={lpart},R={spec.universe.total_relevant},"
            f"N={spec.universe.collection_size}{rel}{seed}"
        )
    if spec.kind == "contingency":
        lo, hi = spec.retrieved if spec.retrieved else (0, spec.collection)
        npart = str(lo) if lo == hi else f"{lo}..{hi}"
        return f"contingency:N={spec.collection},R={spec.relevant},n={npart}{seed}"
    if spec.kind == "user":
        return f"user:U={spec.known},A=1..{spec.max_retrieved}{seed}"
    return f"leveled:docs={spec.max_docs},s={spec.need}{seed}"


# ---------------------------------------------------------------------------
# Cardinality (closed form / counting recurrence, never by enumeration)
# ---------------------------------------------------------------------------


def _ranking_count(length: int, grades: int, max_rel: int, exact_rel: Optional[int]) -> int:
    rel_grades = grades - 1
    if exact_rel is not None:
        ks = [exact_rel] if exact_rel <= length else []
    else:
        ks = range(0, min(length, max_rel) + 1)
    return sum(math.comb(length, k) * rel_grades**k for k in ks)


def _length_count(spec: DomainSpec, length: int) -> int:
    return _ranking_count(length, spec.scheme.size, spec.universe.total_relevant,
                          spec.exact_relevant)


@lru_cache(maxsize=None)
def _leveled_count(remaining: int, need: int) -> int:
    """Level sequences using exactly ``remaining`` documents with >= need relevant."""
    if remaining == 0:
        return 1 if need <= 0 else 0
    total = 0
    for size in range(1, remaining + 1):
        for rel in range(0, size + 1):
            total += _leveled_count(remaining - size, max(0, need - rel))
    return total


def _contingency_count(collection: int, relevant: int, lo: int, hi: int) -> int:
    """Tables with retrieved size n in lo..hi: sum of 1 + min(n, R, N-R, N-n).

    For each n, tp runs from max(0, n - (N - R)) to min(R, n); the sum is
    taken over prefix sums of min(R, n) and max(0, n - (N - R)).
    """
    nonrel = collection - relevant

    def capped(x: int) -> int:  # sum of min(R, n) for n = 0..x
        if x <= relevant:
            return x * (x + 1) // 2
        return relevant * (relevant + 1) // 2 + relevant * (x - relevant)

    def excess(x: int) -> int:  # sum of max(0, n - (N - R)) for n = 0..x
        over = max(0, x - nonrel)
        return over * (over + 1) // 2

    return (hi - lo + 1) + capped(hi) - capped(lo - 1) - excess(hi) + excess(lo - 1)


def _user_count(known: int, max_retrieved: int) -> int:
    """Contexts with A = 1..max_retrieved: sum over A, Rk <= min(U, A) of A - Rk + 1.

    For A <= U the inner sum is (A+1)(A+2)/2, whose sum over A = 1..K is
    C(K+3, 3) - 1; for A > U it is (U+1)(A+1) - U(U+1)/2.
    """
    small = min(known, max_retrieved)
    total = math.comb(small + 3, 3) - 1
    if max_retrieved > known:
        above = max_retrieved - known
        shifted = (max_retrieved + 1) * (max_retrieved + 2) // 2 - (known + 1) * (known + 2) // 2
        total += (known + 1) * shifted - above * known * (known + 1) // 2
    return total


def cardinality(spec: DomainSpec) -> int:
    """Exact element count; enumerate_domain always yields this many."""
    if spec.kind == "rankings":
        return sum(_length_count(spec, L) for L in spec.lengths)
    if spec.kind == "contingency":
        lo, hi = spec.retrieved if spec.retrieved else (0, spec.collection)
        return _contingency_count(spec.collection, spec.relevant, lo, hi)
    if spec.kind == "user":
        return _user_count(spec.known, spec.max_retrieved)
    return sum(_leveled_count(m, spec.need) for m in range(1, spec.max_docs + 1))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _no_step(state, g):
    return state


def _ranking_walk(spec: DomainSpec, length: int, init=None, step=_no_step) -> Iterator[tuple]:
    """Depth-first walk over the rankings of one length, in lexicographic order.

    Yields ``(labels, state)`` per ranking, where ``state`` is ``init``
    folded through ``step(state, grade index)`` along the ranking's grades.
    Each prefix is stepped once and its state shared by every extension.
    Prefixes whose relevant count cannot end within R (or at ``rel=``) are
    pruned, so every node visited lies on the path to some element and the
    walk costs at most ``length`` steps per element.
    """
    labels = spec.scheme.labels
    ascending = range(len(labels))
    descending = ascending[::-1]  # pushed so that the stack pops them ascending
    exact_rel = spec.exact_relevant
    most = spec.universe.total_relevant if exact_rel is None else exact_rel
    least = exact_rel or 0
    stack = [((), 0, init)]
    while stack:
        items, rel, state = stack.pop()
        room = length - len(items) - 1  # positions after the next one
        if room == 0:  # the children are elements
            for g in ascending:
                if least <= rel + (g > 0) <= most:
                    yield items + (labels[g],), step(state, g)
            continue
        for g in descending:
            r = rel + (g > 0)
            if r <= most and r + room >= least:
                stack.append((items + (labels[g],), r, step(state, g)))


def _iter_rankings(spec: DomainSpec) -> Iterator[Ranking]:
    for length in spec.lengths:
        for items, _ in _ranking_walk(spec, length):
            yield Ranking(spec.scheme, items)


def _iter_contingency(spec: DomainSpec) -> Iterator[ContingencyTable]:
    lo, hi = spec.retrieved if spec.retrieved else (0, spec.collection)
    nonrel = spec.collection - spec.relevant
    for n in range(lo, hi + 1):
        for tp in range(max(0, n - nonrel), min(spec.relevant, n) + 1):
            fp = n - tp
            yield ContingencyTable(tp, fp, spec.relevant - tp, nonrel - fp)


def _iter_user(spec: DomainSpec) -> Iterator[UserContext]:
    for a in range(1, spec.max_retrieved + 1):
        for rk in range(0, min(spec.known, a) + 1):
            for ru in range(0, a - rk + 1):
                yield UserContext(spec.known, rk, ru, a)


def _iter_leveled(spec: DomainSpec) -> Iterator[LeveledOutput]:
    def rec(remaining: int, acc: list[tuple[int, int]]):
        if remaining == 0:
            if sum(rel for rel, _ in acc) >= spec.need:
                yield LeveledOutput(tuple(acc), spec.need)
            return
        for size in range(1, remaining + 1):
            for rel in range(0, size + 1):
                acc.append((rel, size - rel))
                yield from rec(remaining - size, acc)
                acc.pop()

    # smaller outputs first, lexicographic level structure within one total
    for total in range(1, spec.max_docs + 1):
        yield from rec(total, [])


def enumerate_domain(spec: DomainSpec, cap: int = DEFAULT_CAP) -> Iterator:
    """Deterministic, duplicate-free stream of the domain's elements.

    Refuses up front when the analytic cardinality exceeds ``cap``.  With
    an order seed the stream is materialized and shuffled reproducibly.
    """
    _check_cap(spec, cap)
    iterator = {
        "rankings": _iter_rankings,
        "contingency": _iter_contingency,
        "user": _iter_user,
        "leveled": _iter_leveled,
    }[spec.kind](spec)
    if spec.order_seed is None:
        return iterator
    items = list(iterator)
    random.Random(spec.order_seed).shuffle(items)
    return iter(items)


def _check_cap(spec: DomainSpec, cap: int) -> None:
    size = cardinality(spec)
    if size > cap:
        raise DomainTooLargeError(size, cap)


def ranking_values(spec: DomainSpec, fold, cap: int = DEFAULT_CAP) -> list[tuple]:
    """``(label, value or None)`` for every element of a rankings domain.

    The pairs come in ``enumerate_domain`` order (shuffled alike under a
    seed), from one pruned walk per length.  ``fold(length)`` returns the
    measure's ``(init, step, finish)`` for that length; an
    ``UndefinedValueError`` from ``fold`` or ``finish`` marks the elements
    concerned as undefined (None), any other error propagates.
    """
    _check_cap(spec, cap)
    pairs: list[tuple] = []
    for length in spec.lengths:
        if not _length_count(spec, length):
            continue  # no element of this length, so nothing to evaluate
        try:
            init, step, finish = fold(length)
        except UndefinedValueError:
            pairs.extend((ranking_label(items), None) for items, _ in _ranking_walk(spec, length))
            continue
        for items, state in _ranking_walk(spec, length, init, step):
            try:
                value = finish(state)
            except UndefinedValueError:
                value = None
            pairs.append((ranking_label(items), value))
    if spec.order_seed is not None:
        random.Random(spec.order_seed).shuffle(pairs)
    return pairs


def partitioned(spec: DomainSpec, cap: int = DEFAULT_CAP) -> list[list]:
    """Split the enumeration into prefix-based partitions.

    The concatenation of the partitions is exactly ``enumerate_domain``'s
    stream (same multiset, grouped by a leading coordinate), so partitions
    may be consumed independently.
    """
    elements = list(enumerate_domain(spec, cap))
    buckets: dict[object, list] = {}
    for el in elements:
        if spec.kind == "rankings":
            key = (el.length, el.items[0])
        elif spec.kind == "contingency":
            key = el.retrieved
        elif spec.kind == "user":
            key = el.retrieved_total
        else:
            key = sum(rel + non for rel, non in el.levels)
        buckets.setdefault(key, []).append(el)
    return list(buckets.values())


# ---------------------------------------------------------------------------
# Element display / parsing (used by witnesses and reports)
# ---------------------------------------------------------------------------


def element_to_str(element) -> str:
    return element.display()


def element_from_str(spec: DomainSpec, text: str):
    """Parse an element display form back into a domain object."""
    if spec.kind == "rankings":
        if not (text.startswith("<") and text.endswith(">")):
            raise ParseError(f"enumeration: bad ranking literal {text!r}")
        labels = tuple(text[1:-1].split(","))
        return Ranking(spec.scheme, labels)
    if spec.kind == "contingency":
        parts = _parse_kv(text)
        return ContingencyTable(int(parts["tp"]), int(parts["fp"]),
                                int(parts["fn"]), int(parts["tn"]))
    if spec.kind == "user":
        parts = _parse_kv(text)
        return UserContext(int(parts["U"]), int(parts["Rk"]),
                           int(parts["Ru"]), int(parts["A"]))
    body, sep, stext = text.partition(";s=")
    if not sep:
        raise ParseError(f"enumeration: bad leveled literal {text!r}")
    levels = []
    for chunk in body.replace(")(", ")|(").split("|"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"enumeration: bad level {chunk!r}")
        rel, _, non = chunk[1:-1].partition(",")
        levels.append((int(rel), int(non)))
    return LeveledOutput(tuple(levels), int(stext))
