"""Explicit finite domains: the sets that classification quantifies over.

Each domain kind is one frozen class holding only its own fields:
:class:`Rankings`, :class:`Contingency`, :class:`User` and
:class:`Leveled`.  Enumeration is deterministic, duplicate-free,
lexicographically ordered (unless a seed asks for a deterministic
shuffle), and its length always equals the counted cardinality.  Counting
stops once its running total passes the cap, so an over-cap domain is
refused after bounded work.

Spec strings use ``kind:key=value,...``:

    binary:L=4                      all binary rankings of length 4
    binary:L=4,R=2,rel=2            exactly 2 relevant, universe R=2
    graded:levels=5,L=4             grades 0..4 with gains k/4
    contingency:N=15,R=5            retrieved size n free (0..N)
    contingency:N=15,R=5,n=5        retrieved size fixed
    user:U=1,A=1..4                 user contexts, A ranging
    leveled:docs=4,s=1              leveled outputs with up to 4 documents

Omitted ranking keys default to R=L and N=L+R.  Every kind takes
``seed=<k>`` for a reproducible shuffle.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count, repeat, starmap
from operator import mul
from typing import ClassVar, Iterable, Iterator, Optional

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
from .measures import form_value

#: Refuse to enumerate domains larger than this (overridable per call).
DEFAULT_CAP = 10_000_000


def parse_fields(
    text: str,
    what: str,
    required: tuple[str, ...],
    optional: tuple[str, ...] = (),
    ranges: tuple[str, ...] = (),
) -> dict:
    """Integer fields of a ``key=value,...`` text.

    Every key in ``required`` must appear, no key outside ``required`` and
    ``optional`` may, and none twice.  Values are integers; a key in
    ``ranges`` also takes ``lo..hi`` and maps to the pair ``(lo, hi)``
    (a single value v to ``(v, v)``).  Anything else raises ``ParseError``
    naming ``what``.
    """
    raw: dict[str, str] = {}
    for part in text.split(",") if text else ():
        key, sep, val = part.partition("=")
        if not sep or not key or not val:
            raise ParseError(f"{what}: malformed key=value {part!r}")
        if key in raw:
            raise ParseError(f"{what}: duplicate key {key!r}")
        raw[key] = val
    missing = set(required) - set(raw)
    if missing:
        raise ParseError(f"{what} is missing {sorted(missing)}")
    extra = set(raw) - set(required) - set(optional)
    if extra:
        raise ParseError(f"{what} has unknown fields {sorted(extra)}")
    fields: dict = {}
    for key, val in raw.items():
        try:
            if key in ranges:
                lo, sep, hi = val.partition("..")
                fields[key] = (int(lo), int(hi if sep else lo))
            else:
                fields[key] = int(val)
        except ValueError:
            raise ParseError(f"{what}: {key} wants an integer, got {val!r}") from None
    return fields


# ---------------------------------------------------------------------------
# Bounded counting
# ---------------------------------------------------------------------------


def _power(base: int, exp: int, cap: Optional[int]) -> int:
    """base**exp; with a cap, the partial power once it passes the cap."""
    if cap is None or base < 2:
        return base**exp
    value = 1
    for _ in range(exp):
        value *= base
        if value > cap:
            break
    return value


def _binomial(n: int, k: int, cap: Optional[int]) -> int:
    """C(n, k) for 0 <= k <= n; with a cap, C(n-k+i, i) once that passes it.

    The partial products C(n-k+i, i) grow at least as fast as 2^i, so at
    most about log2(cap) steps run.
    """
    if cap is None:
        return math.comb(n, k)
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > cap:
            break
    return value


def cardinality(spec: Domain, cap: Optional[int] = None) -> int:
    """Exact element count; ``enumerate_domain`` always yields this many.

    With a cap, counting stops once the running total passes it, and that
    total, a lower bound above the cap, is returned.
    """
    total = 0
    for part in spec.counts(cap):
        total += part
        if cap is not None and total > cap:
            break
    return total


# ---------------------------------------------------------------------------
# Domain kinds
# ---------------------------------------------------------------------------


class Domain:
    """What every domain kind provides.

    ``family`` names the measures that evaluate its elements.
    ``parse(prefix, text)`` reads the spec after ``prefix:``, ``format()``
    writes it back; ``counts(cap)`` yields the sizes of consecutive parts
    of the enumeration (a part that passes ``cap`` alone may be a lower
    bound above it); ``elements()`` iterates in lexicographic order,
    ``labels()`` gives their display forms and ``labels_at(indices)`` those
    at some lexicographic indices, ``evaluators(measure)`` how to get the
    measure's raw results on them, and ``element(text)`` parses a display
    form.
    """

    kind: ClassVar[str]
    family: ClassVar[str]
    order_seed: Optional[int]

    def labels(self) -> Iterator[str]:
        return (element.display() for element in self.elements())

    def labels_at(self, indices: list[int]) -> list[str]:
        """Display forms at lexicographic ``indices``, by one walk up to the last of them."""
        found = {}
        for index, label in zip(range(max(indices) + 1), self.labels()):
            if index in indices:
                found[index] = label
        return [found[index] for index in indices]

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """``(stream, runs)`` pairs covering the elements in order.

        The streams in turn give the measure's raw result (``(num, den)`` or
        a float, see :mod:`metriclass.measures`) on every element, in
        lexicographic order, with ``None`` where the value is undefined.  In
        an element stream (``runs`` false) each item is one element's
        result.  In a run stream each item is ``(result, k)``: the result
        of a settled prefix, shared by the k elements that complete it,
        which are consecutive.
        """
        raise NotImplementedError


def _progression(start: int, step: int, lo: int, hi: int) -> Iterable[int]:
    """``start + i * step`` for i from ``lo`` up to ``hi``, produced in C."""
    if step:
        return range(start + lo * step, start + hi * step, step)
    return repeat(start, hi - lo)


class _CountTuples(Domain):
    """A domain of four-count elements, ordered as rows of counts.

    ``rows()`` yields ``(first, m)``: the row's first counts and its
    length; its i-th element is ``first + i * delta``.  ``count_tuples()``
    lists the same elements one by one.
    """

    element_type: ClassVar[type]
    delta: ClassVar[tuple[int, int, int, int]]

    def elements(self) -> Iterator:
        return starmap(self.element_type, self.count_tuples())

    def labels_at(self, indices: list[int]) -> list[str]:
        """Display forms at lexicographic ``indices``, unranked: whole rows
        are skipped by their lengths, then the index is a step along its row."""
        found = []
        for index in indices:
            for first, m in self.rows():
                if index < m:
                    counts = (c + index * d for c, d in zip(first, self.delta))
                    found.append(self.element_type(*counts).display())
                    break
                index -= m
            else:
                raise IndexError(f"enumeration: no element at index {index}")
        return found

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """One element stream, row by row, of the ratio of two affine forms.

        ``measure.fn`` is a :class:`~metriclass.measures.Ratio`.  Along a
        row each form is an arithmetic progression, whose step (the form's
        dot product with ``delta``) is the same for every row, so a row's
        results are two ``range``s zipped.  ``defined`` is a progression
        too: one ``divmod`` finds its only zero on the row, if any, which is
        the row's one ``None``; a row on which it is constantly 0 is all
        ``None``.
        """
        num, den, defined, _ = measure.fn
        steps = [sum(map(mul, form[1:], self.delta)) for form in (num, den, defined)]
        yield chain.from_iterable(self._results(measure.fn, *steps)), False

    def _results(self, ratio, num_step: int, den_step: int, defined_step: int) -> Iterator:
        """Per row: the results before its undefined ones, those, and the rest."""
        num, den, defined, _ = ratio
        for first, m in self.rows():
            n, d, f = form_value(num, first), form_value(den, first), form_value(defined, first)
            if defined_step:
                zero, rest = divmod(-f, defined_step)
                lo, hi = (zero, zero + 1) if not rest and 0 <= zero < m else (m, m)
            else:
                lo, hi = (m, m) if f else (0, m)
            yield zip(_progression(n, num_step, 0, lo), _progression(d, den_step, 0, lo))
            yield repeat(None, hi - lo)
            yield zip(_progression(n, num_step, hi, m), _progression(d, den_step, hi, m))


def _completing(other: int, tail: int, c: int, least: int, most: int) -> int:
    """Rankings completing a prefix with c relevant grades by ``tail`` more grades.

    Those hold j relevant ones for every j that keeps c + j within [least,
    most]: the sum of C(tail, j) other^j over those j, with ``other`` the
    number of nonzero grades.
    """
    if least <= c and c + tail <= most:  # every j fits, so the sum is (other + 1)^tail
        return (other + 1) ** tail
    return sum(math.comb(tail, j) * other**j
               for j in range(max(0, least - c), min(tail, most - c) + 1))


def _undefined(state) -> None:
    return None


@dataclass(frozen=True)
class Rankings(Domain):
    """Rankings of the given lengths over ``levels`` equispaced grades and a universe.

    The grade scheme is built on first use, so counting, and refusing, a
    domain with many grades allocates none of them.
    """

    kind: ClassVar[str] = "rankings"
    family: ClassVar[str] = "ranking"
    levels: int  # 2 for binary rankings
    lengths: range
    universe: Universe
    exact_relevant: Optional[int] = None
    order_seed: Optional[int] = None

    def __post_init__(self):
        if self.levels < 2:
            raise ConstraintError("model: need at least 2 grade levels")
        if not self.lengths:
            raise ConstraintError("enumeration: ranking length range is empty")
        if self.lengths[0] < 1:
            raise ConstraintError("enumeration: ranking lengths must be positive")
        if self.lengths[-1] > self.universe.collection_size:
            raise ConstraintError("enumeration: ranking length exceeds collection size")
        if self.exact_relevant is not None and not (
            0 <= self.exact_relevant <= self.universe.total_relevant
        ):
            raise ConstraintError("enumeration: rel constraint exceeds universe R")

    @classmethod
    def parse(cls, prefix: str, text: str) -> Rankings:
        graded = prefix == "graded"
        fields = parse_fields(
            text, f"enumeration: {prefix} domain", ("levels", "L") if graded else ("L",),
            ("R", "N", "rel", "seed"), ranges=("L",),
        )
        lo, hi = fields["L"]
        r = fields.get("R", hi)
        return cls(
            fields["levels"] if graded else 2,
            range(lo, hi + 1),
            Universe(fields.get("N", hi + r), r),
            fields.get("rel"),
            fields.get("seed"),
        )

    def format(self) -> str:
        lengths = self.lengths
        lpart = str(lengths[0]) if len(lengths) == 1 else f"{lengths[0]}..{lengths[-1]}"
        head = "binary:" if self.levels == 2 else f"graded:levels={self.levels},"
        rel = f",rel={self.exact_relevant}" if self.exact_relevant is not None else ""
        return (
            f"{head}L={lpart},R={self.universe.total_relevant},"
            f"N={self.universe.collection_size}{rel}{_seed(self)}"
        )

    def counts(self, cap: Optional[int] = None) -> Iterator[int]:
        """C(L, k) (g-1)^k rankings of length L with k relevant, g grades."""
        g = self.levels
        exact_rel = self.exact_relevant
        most = self.universe.total_relevant if exact_rel is None else exact_rel
        if most == 0:  # one all-nonrelevant ranking per length
            yield len(self.lengths)
            return
        for length in self.lengths:
            if exact_rel is None and most >= length:
                yield _power(g, length, cap)  # every ranking of this length
                continue
            for k in range(exact_rel or 0, min(length, most) + 1):
                yield _binomial(length, k, cap) * _power(g - 1, k, cap)

    @cached_property
    def scheme(self) -> GradeScheme:
        return GradeScheme.equispaced(self.levels)

    def walk(self, length: int, init, step, finish, horizon: Optional[int] = None) -> Iterator:
        """Depth-first walk over the rankings of one length, in lexicographic order.

        Steps ``init`` through ``step(state, rank, grade index)`` along each
        ranking's grades, with ranks counted from 1 (the depth the walk is
        at), so a fold's state need not carry the rank.  Each prefix is
        stepped once and its state shared by every extension.  Prefixes
        whose relevant count cannot end within R (or at ``rel=``) are
        pruned, so every node visited lies on the path to some element and
        the walk costs at most ``length`` steps per element.

        Without a ``horizon`` below ``length`` it yields, per ranking,
        ``finish`` of the final state.  With one it stops at that depth and
        yields, per prefix of that length, ``(finish(state), k)``: of the
        prefix's state, and the number of rankings that complete it, which
        are consecutive.  The stop depth is chosen once per walk, so a walk
        without a horizon makes no extra comparison per node.
        """
        ascending = range(self.levels)
        descending = ascending[::-1]  # pushed so that the stack pops them ascending
        exact_rel = self.exact_relevant
        most = self.universe.total_relevant if exact_rel is None else exact_rel
        least = exact_rel or 0
        last = length - 1
        stack = [(0, 0, init)]  # (depth, relevant count, state) of a prefix
        if horizon is not None and horizon < length:
            tail, other = length - horizon, self.levels - 1
            completions = [_completing(other, tail, c, least, most)  # per relevant count
                           for c in range(min(horizon, most) + 1)]
            while stack:
                depth, rel, state = stack.pop()
                if depth == horizon:
                    yield finish(state), completions[rel]
                    continue
                room = last - depth
                for g in descending:
                    count = rel + (g > 0)
                    if count <= most and count + room >= least:
                        stack.append((depth + 1, count, step(state, depth + 1, g)))
            return
        while stack:
            depth, rel, state = stack.pop()
            if depth == last:  # the children are elements
                for g in ascending:
                    if least <= rel + (g > 0) <= most:
                        yield finish(step(state, length, g))
                continue
            room = last - depth  # positions after the next one
            for g in descending:
                count = rel + (g > 0)
                if count <= most and count + room >= least:
                    stack.append((depth + 1, count, step(state, depth + 1, g)))

    def labels_at(self, indices: list[int]) -> list[str]:
        """Display forms at lexicographic ``indices``, each unranked, not walked to.

        Skips whole lengths by their sizes, then at each depth takes the
        grade whose completions, counted as ``walk`` prunes, hold the
        index: two sums of at most ``length`` terms per depth, no evaluation.
        """
        labels, other = self.scheme.labels, self.levels - 1
        most = self.universe.total_relevant if self.exact_relevant is None else self.exact_relevant
        least = self.exact_relevant or 0
        found = []
        for index in indices:
            for length in self.lengths:
                size = _completing(other, length, 0, least, most)
                if index < size:
                    break
                index -= size
            else:
                raise IndexError(f"enumeration: no element at index {index}")
            items, rel = [], 0
            for tail in reversed(range(length)):  # grades still to place after this one
                zero = _completing(other, tail, rel, least, most)
                if index < zero:
                    items.append(labels[0])
                    continue
                grade, index = divmod(index - zero, _completing(other, tail, rel + 1, least, most))
                items.append(labels[1 + grade])
                rel += 1
            found.append(ranking_label(items))
        return found

    def _items(self, finish) -> Iterator:
        """``finish`` of each ranking's grade labels, in lexicographic order."""
        labels = self.scheme.labels

        def push(items, r, g):
            return items + (labels[g],)

        for length in self.lengths:
            yield from self.walk(length, (), push, finish)

    def elements(self) -> Iterator[Ranking]:
        return self._items(partial(Ranking, self.scheme))

    def labels(self) -> Iterator[str]:
        return self._items(ranking_label)

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """One pruned walk per length over the measure's fold, into its ``finish``.

        ``measure.fn`` binds the fold to this scheme, universe and length.
        A fold whose horizon is below the length is walked to its horizon
        only, as a run stream; any other fold yields every ranking's
        result.  A fold that is undefined for a whole length marks every
        element of that length undefined, as one run from the empty prefix;
        any other error propagates.
        """
        for length in self.lengths:
            if self.exact_relevant is not None and self.exact_relevant > length:
                continue  # no element of this length, so its fold is never made
            try:
                init, step, finish, horizon = measure.fn(self.scheme, self.universe, length)
            except UndefinedValueError:
                init, step, finish, horizon = None, None, _undefined, 0  # the root is the run
            yield self.walk(length, init, step, finish, horizon), horizon < length

    def element(self, text: str) -> Ranking:
        if not (text.startswith("<") and text.endswith(">")):
            raise ParseError(f"enumeration: bad ranking literal {text!r}")
        return Ranking(self.scheme, tuple(text[1:-1].split(",")))


@dataclass(frozen=True)
class Contingency(_CountTuples):
    """Contingency tables over N documents, R relevant, retrieved size in a range."""

    kind: ClassVar[str] = "contingency"
    family: ClassVar[str] = "contingency"
    element_type: ClassVar[type] = ContingencyTable
    delta: ClassVar[tuple[int, int, int, int]] = (1, -1, -1, 1)  # tp up by one within a size
    collection: int
    relevant: int
    retrieved: tuple[int, int]  # inclusive range
    order_seed: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.relevant <= self.collection:
            raise ConstraintError("enumeration: need 0 <= R <= N")
        lo, hi = self.retrieved
        if not 0 <= lo <= hi <= self.collection:
            raise ConstraintError("enumeration: retrieved range out of bounds")

    @classmethod
    def parse(cls, prefix: str, text: str) -> Contingency:
        fields = parse_fields(text, "enumeration: contingency domain", ("N", "R"), ("n", "seed"),
                              ranges=("n",))
        return cls(fields["N"], fields["R"], fields.get("n", (0, fields["N"])), fields.get("seed"))

    def format(self) -> str:
        lo, hi = self.retrieved
        npart = str(lo) if lo == hi else f"{lo}..{hi}"
        return f"contingency:N={self.collection},R={self.relevant},n={npart}{_seed(self)}"

    def counts(self, cap: Optional[int] = None) -> Iterator[int]:
        """Tables with retrieved size n in lo..hi: sum of 1 + min(n, R, N-R, N-n).

        For each n, tp runs from max(0, n - (N - R)) to min(R, n); the sum is
        taken over prefix sums of min(R, n) and max(0, n - (N - R)).
        """
        relevant, (lo, hi) = self.relevant, self.retrieved
        nonrel = self.collection - relevant

        def capped(x: int) -> int:  # sum of min(R, n) for n = 0..x
            if x <= relevant:
                return x * (x + 1) // 2
            return relevant * (relevant + 1) // 2 + relevant * (x - relevant)

        def excess(x: int) -> int:  # sum of max(0, n - (N - R)) for n = 0..x
            over = max(0, x - nonrel)
            return over * (over + 1) // 2

        yield (hi - lo + 1) + capped(hi) - capped(lo - 1) - excess(hi) + excess(lo - 1)

    def count_tuples(self) -> Iterator[tuple[int, int, int, int]]:
        """(tp, fp, fn, tn) by retrieved size n, then by tp."""
        lo, hi = self.retrieved
        relevant = self.relevant
        nonrel = self.collection - relevant
        for n in range(lo, hi + 1):
            for tp in range(max(0, n - nonrel), min(relevant, n) + 1):
                fp = n - tp
                yield tp, fp, relevant - tp, nonrel - fp

    def rows(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """One row per retrieved size n: its table of least tp, and how many tp it takes."""
        lo, hi = self.retrieved
        relevant = self.relevant
        nonrel = self.collection - relevant
        for n in range(lo, hi + 1):
            tp = max(0, n - nonrel)
            fp = n - tp
            yield (tp, fp, relevant - tp, nonrel - fp), min(relevant, n) - tp + 1

    @staticmethod
    def element(text: str) -> ContingencyTable:
        f = parse_fields(text, "enumeration: contingency table", ("tp", "fp", "fn", "tn"))
        return ContingencyTable(f["tp"], f["fp"], f["fn"], f["tn"])


@dataclass(frozen=True)
class User(_CountTuples):
    """User contexts with U known relevant documents and A = 1..max retrieved."""

    kind: ClassVar[str] = "user"
    family: ClassVar[str] = "user"
    element_type: ClassVar[type] = UserContext
    delta: ClassVar[tuple[int, int, int, int]] = (0, 0, 1, 0)  # R_u up by one
    known: int
    max_retrieved: int
    order_seed: Optional[int] = None

    def __post_init__(self):
        if self.known < 1 or self.max_retrieved < 1:
            raise ConstraintError("enumeration: U and max A must be positive")

    @classmethod
    def parse(cls, prefix: str, text: str) -> User:
        fields = parse_fields(text, "enumeration: user domain", ("U", "A"), ("seed",),
                              ranges=("A",))
        lo, hi = fields["A"]
        if lo != 1:
            raise ParseError("enumeration: user retrieved-size range must start at 1")
        return cls(fields["U"], hi, fields.get("seed"))

    def format(self) -> str:
        return f"user:U={self.known},A=1..{self.max_retrieved}{_seed(self)}"

    def counts(self, cap: Optional[int] = None) -> Iterator[int]:
        """Contexts with A = 1..max: sum over A, Rk <= min(U, A) of A - Rk + 1.

        For A <= U the inner sum is (A+1)(A+2)/2, whose sum over A = 1..K is
        C(K+3, 3) - 1; for A > U it is (U+1)(A+1) - U(U+1)/2.
        """
        known, top = self.known, self.max_retrieved
        small = min(known, top)
        total = math.comb(small + 3, 3) - 1
        if top > known:
            above = top - known
            shifted = (top + 1) * (top + 2) // 2 - (known + 1) * (known + 2) // 2
            total += (known + 1) * shifted - above * known * (known + 1) // 2
        yield total

    def count_tuples(self) -> Iterator[tuple[int, int, int, int]]:
        """(U, R_k, R_u, A) by A, then by R_k, then by R_u."""
        known = self.known
        for a in range(1, self.max_retrieved + 1):
            for rk in range(0, min(known, a) + 1):
                for ru in range(0, a - rk + 1):
                    yield known, rk, ru, a

    def rows(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """One row per A and R_k: the context with R_u = 0, and A - R_k + 1 of them."""
        known = self.known
        for a in range(1, self.max_retrieved + 1):
            for rk in range(0, min(known, a) + 1):
                yield (known, rk, 0, a), a - rk + 1

    @staticmethod
    def element(text: str) -> UserContext:
        f = parse_fields(text, "enumeration: user context", ("U", "Rk", "Ru", "A"))
        return UserContext(f["U"], f["Rk"], f["Ru"], f["A"])


@dataclass(frozen=True)
class Leveled(Domain):
    """Leveled outputs of 1..docs documents holding at least s relevant ones.

    ``elements()`` lists every output.  ``evaluators`` walks ``esl``'s
    level fold instead and stops at the first level that meets the need,
    so it pays per settled prefix, not per output.
    """

    kind: ClassVar[str] = "leveled"
    family: ClassVar[str] = "leveled"
    max_docs: int
    need: int
    order_seed: Optional[int] = None

    def __post_init__(self):
        if self.max_docs < 1 or self.need < 1:
            raise ConstraintError("enumeration: docs and s must be positive")

    @classmethod
    def parse(cls, prefix: str, text: str) -> Leveled:
        fields = parse_fields(text, "enumeration: leveled domain", ("docs", "s"), ("seed",))
        return cls(fields["docs"], fields["s"], fields.get("seed"))

    def format(self) -> str:
        return f"leveled:docs={self.max_docs},s={self.need}{_seed(self)}"

    def counts(self, cap: Optional[int] = None) -> Iterator[int]:
        """Outputs per total size m = 1..docs.

        Listing each level's relevant documents first makes an output a 0/1
        string (1 = relevant) cut into levels: a cut is forced between a 0
        and a following 1 and free at every other gap.  A dynamic program
        over strings, by last bit and relevant count (at most s), weighs
        each string by its number of cuttings.  Sizes below s have no
        element, and s documents alone give the 2^(s-1) all-relevant
        outputs, which settles an s too large for the cap at once.
        """
        s = self.need
        if self.max_docs < s:
            return
        if cap is not None and s - 1 >= cap.bit_length():
            yield _power(2, s - 1, cap)
            return
        # ways[b][r]: strings ending in bit b with min(r, s) relevant documents
        ways = [[0] * (s + 1), [0] * (s + 1)]
        ways[0][0] = ways[1][1] = 1
        for m in range(1, self.max_docs + 1):
            if m > 1:
                zero = [2 * (a + b) for a, b in zip(*ways)]
                one = [0] * (s + 1)
                for r in range(s + 1):
                    one[min(r + 1, s)] += ways[0][r] + 2 * ways[1][r]
                ways = [zero, one]
            yield ways[0][s] + ways[1][s]

    def elements(self) -> Iterator[LeveledOutput]:
        need = self.need

        def rec(remaining: int, have: int, acc: list[tuple[int, int]]):
            if remaining == 0:
                yield LeveledOutput(tuple(acc), need)
                return
            for size in range(1, remaining + 1):
                for rel in range(0, size + 1):
                    if have + rel + remaining - size < need:
                        continue  # the need is out of reach even if the rest is relevant
                    acc.append((rel, size - rel))
                    yield from rec(remaining - size, have + rel, acc)
                    acc.pop()

        # smaller outputs first, lexicographic level structure within one total
        for total in range(1, self.max_docs + 1):
            yield from rec(total, 0, [])

    def walk(self, init, step) -> Iterator[tuple[object, int]]:
        """Level prefixes in ``elements()`` order, up to the level that settles the fold.

        ``step`` is a :class:`~metriclass.measures.LevelFold`'s.  Yields
        ``(result, k)`` per prefix whose last level settles the fold, with
        k the outputs that complete it, which are consecutive.  A prefix
        holding m fewer documents than its output's total is completed in
        c(m) ways, whatever their relevance: c(0) = 1 and c(m) is the sum
        over the size s of the next level of (s+1) c(m-s), as that level
        can hold 0..s relevant documents.  Prunes as ``elements()`` does.
        """
        need = self.need
        completions = [1]
        for m in range(1, self.max_docs + 1):
            completions.append(sum((s + 1) * completions[m - s] for s in range(1, m + 1)))

        def rec(remaining: int, have: int, state):
            for size in range(1, remaining + 1):
                rest = remaining - size
                for rel in range(0, size + 1):
                    if have + rel + rest < need:
                        continue  # the need is out of reach even if the rest is relevant
                    settled, after = step(state, rel, size - rel)
                    if settled:
                        yield after, completions[rest]
                    else:
                        yield from rec(rest, have + rel, after)

        for total in range(1, self.max_docs + 1):
            yield from rec(total, 0, init)

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """One run stream: the level fold's settled prefixes, each with its result."""
        init, step = measure.fn(self.need)
        yield self.walk(init, step), True

    @staticmethod
    def element(text: str) -> LeveledOutput:
        body, sep, need_text = text.partition(";s=")
        chunks = body.replace(")(", ")|(").split("|")
        try:
            if not sep or not all(c.startswith("(") and c.endswith(")") for c in chunks):
                raise ValueError
            levels = []
            for chunk in chunks:
                rel, non = chunk[1:-1].split(",")
                levels.append((int(rel), int(non)))
            need = int(need_text)
        except ValueError:
            raise ParseError(f"enumeration: bad leveled literal {text!r}") from None
        return LeveledOutput(tuple(levels), need)


def _seed(spec: Domain) -> str:
    return f",seed={spec.order_seed}" if spec.order_seed is not None else ""


# ---------------------------------------------------------------------------
# Spec strings, enumeration and element literals
# ---------------------------------------------------------------------------

_KINDS_BY_PREFIX: dict[str, type[Domain]] = {
    "binary": Rankings,
    "graded": Rankings,
    "contingency": Contingency,
    "user": User,
    "leveled": Leveled,
}


def parse_domain(text: str) -> Domain:
    """Parse the ``kind:key=value,...`` form (see module docstring)."""
    prefix, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"enumeration: domain spec needs a kind prefix, got {text!r}")
    if prefix not in _KINDS_BY_PREFIX:
        raise ParseError(f"enumeration: unknown domain kind {prefix!r}")
    return _KINDS_BY_PREFIX[prefix].parse(prefix, rest)


def format_domain(spec: Domain) -> str:
    """Canonical spec string; parse(format(s)) reproduces the domain."""
    return spec.format()


def enumerate_domain(spec: Domain, cap: int = DEFAULT_CAP) -> Iterator:
    """Deterministic, duplicate-free stream of the domain's elements.

    Refuses up front when the counted cardinality exceeds ``cap``.  With
    an order seed the stream is materialized and shuffled reproducibly.
    """
    return ElementOrder(spec, cap).arrange(spec.elements())


class ElementOrder:
    """Where each element of a domain stands in ``enumerate_domain``'s order.

    Refuses an over-cap domain up front.  Without a seed an element's
    position is its index in lexicographic order.  With one, a compact
    array of the indices is shuffled by ``random.Random(seed)`` (a shuffle
    depends only on the length), and its inverse maps each index to its
    position.
    """

    def __init__(self, spec: Domain, cap: int = DEFAULT_CAP):
        size = cardinality(spec, cap)
        if size > cap:
            raise DomainTooLargeError(size, cap)
        self.spec = spec
        self._positions: Optional[array] = None
        if spec.order_seed is not None:
            typecode = "i" if size < 2**31 else "q"  # 4 bytes per element below the default cap
            shuffled = array(typecode, range(size))
            random.Random(spec.order_seed).shuffle(shuffled)
            self._positions = positions = array(typecode, shuffled)
            for position, index in enumerate(shuffled):
                positions[index] = position

    def positions(self) -> Iterator[int]:
        """The position of each element, in lexicographic order."""
        return count() if self._positions is None else iter(self._positions)

    def arrange(self, items: Iterable) -> Iterator:
        """``items``, one per element in lexicographic order, in position order."""
        if self._positions is None:
            return iter(items)
        arranged = [None] * len(self._positions)
        for position, item in zip(self._positions, items):
            arranged[position] = item
        return iter(arranged)

    def labels_at(self, *positions: int) -> list[str]:
        """Display forms of the elements at ``positions``.

        Maps each position to its lexicographic index and asks the domain's
        ``labels_at``, which evaluates nothing: rankings, contingency and
        user domains unrank each index, and leveled domains walk their
        labels up to the last one.
        """
        if self._positions is None:
            indices = list(positions)
        else:
            indices = [self._positions.index(position) for position in positions]
        return self.spec.labels_at(indices)


def element_to_str(element) -> str:
    return element.display()
