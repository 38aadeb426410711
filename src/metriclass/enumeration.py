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
from functools import cached_property
from itertools import count, starmap
from typing import Callable, ClassVar, Iterator, Optional

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
from .values import as_value

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
    ``labels()`` gives their display forms, ``evaluators(measure)`` how to
    get the measure's raw results on them, and ``element(text)`` parses a
    display form.
    """

    kind: ClassVar[str]
    family: ClassVar[str]
    order_seed: Optional[int]

    def labels(self) -> Iterator[str]:
        return (element.display() for element in self.elements())

    def evaluators(self, measure) -> Iterator[tuple[Iterator, Callable]]:
        """``(stream, evaluate)`` pairs covering the elements in order.

        ``evaluate(item)`` over the items of each stream in turn gives the
        measure's raw result (``(num, den)`` or a float, see
        :mod:`metriclass.measures`) on every element, in lexicographic
        order, or raises ``UndefinedValueError`` where the value is
        undefined.  Here the one stream is the elements themselves.
        """
        yield self.elements(), measure.fn


class _CountTuples(Domain):
    """A domain of four-count elements; its measures take the counts, so it
    is walked as the plain tuples from ``count_tuples()``."""

    element_type: ClassVar[type]

    def elements(self) -> Iterator:
        return starmap(self.element_type, self.count_tuples())

    def evaluators(self, measure) -> Iterator[tuple[Iterator, Callable]]:
        fn = measure.fn
        yield self.count_tuples(), lambda counts: fn(*counts)


def _no_step(state, r, g):
    return state


def _undefined(state):
    raise UndefinedValueError


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

    def walk(self, length: int, init, step) -> Iterator:
        """Depth-first walk over the rankings of one length, in lexicographic order.

        Yields, per ranking, ``init`` folded through ``step(state, rank,
        grade index)`` along the ranking's grades, with ranks counted from 1
        (the depth the walk is at), so a fold's state need not carry the
        rank.  Each prefix is stepped once and its state shared by every
        extension.  Prefixes whose relevant count cannot end within R (or at
        ``rel=``) are pruned, so every node visited lies on the path to some
        element and the walk costs at most ``length`` steps per element.
        """
        ascending = range(self.levels)
        descending = ascending[::-1]  # pushed so that the stack pops them ascending
        exact_rel = self.exact_relevant
        most = self.universe.total_relevant if exact_rel is None else exact_rel
        least = exact_rel or 0
        last = length - 1
        stack = [(0, 0, init)]  # (depth, relevant count, state) of a prefix
        while stack:
            depth, rel, state = stack.pop()
            if depth == last:  # the children are elements
                for g in ascending:
                    if least <= rel + (g > 0) <= most:
                        yield step(state, length, g)
                continue
            room = last - depth  # positions after the next one
            for g in descending:
                count = rel + (g > 0)
                if count <= most and count + room >= least:
                    stack.append((depth + 1, count, step(state, depth + 1, g)))

    def _items(self) -> Iterator[tuple[str, ...]]:
        labels = self.scheme.labels

        def push(items, r, g):
            return items + (labels[g],)

        for length in self.lengths:
            yield from self.walk(length, (), push)

    def elements(self) -> Iterator[Ranking]:
        return (Ranking(self.scheme, items) for items in self._items())

    def labels(self) -> Iterator[str]:
        return map(ranking_label, self._items())

    def evaluators(self, measure) -> Iterator[tuple[Iterator, Callable]]:
        """One pruned walk per length over the measure's fold, into its ``finish``.

        ``measure.fn`` binds the fold to this scheme, universe and length.
        A fold that is undefined for a whole length marks every element of
        that length undefined; any other error propagates.
        """
        for length in self.lengths:
            if self.exact_relevant is not None and self.exact_relevant > length:
                continue  # no element of this length, so its fold is never made
            try:
                init, step, finish = measure.fn(self.scheme, self.universe, length)
            except UndefinedValueError:
                init, step, finish = None, _no_step, _undefined
            yield self.walk(length, init, step), finish

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

    @staticmethod
    def element(text: str) -> UserContext:
        f = parse_fields(text, "enumeration: user context", ("U", "Rk", "Ru", "A"))
        return UserContext(f["U"], f["Rk"], f["Ru"], f["A"])


@dataclass(frozen=True)
class Leveled(Domain):
    """Leveled outputs of 1..docs documents holding at least s relevant ones."""

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


def _check_cap(spec: Domain, cap: int) -> int:
    size = cardinality(spec, cap)
    if size > cap:
        raise DomainTooLargeError(size, cap)
    return size


def _shuffled(spec: Domain, items):
    if spec.order_seed is not None:
        random.Random(spec.order_seed).shuffle(items)
    return items


def enumerate_domain(spec: Domain, cap: int = DEFAULT_CAP) -> Iterator:
    """Deterministic, duplicate-free stream of the domain's elements.

    Refuses up front when the counted cardinality exceeds ``cap``.  With
    an order seed the stream is materialized and shuffled reproducibly.
    """
    _check_cap(spec, cap)
    if spec.order_seed is None:
        return spec.elements()
    return iter(_shuffled(spec, list(spec.elements())))


def labeled_values(spec: Domain, measure, cap: int = DEFAULT_CAP) -> list[tuple]:
    """``(label, value or None)`` for every element, in ``enumerate_domain`` order.

    The values come from ``spec.evaluators(measure)``, the walks that the
    value summary streams, each raw result wrapped as ``Measure.evaluate``
    wraps it; undefined points (``UndefinedValueError``) get None and any
    other error propagates.  Under a seed the pairs are shuffled exactly as
    the elements are.
    """
    _check_cap(spec, cap)
    labels = spec.labels()
    pairs = []
    for stream, evaluate in spec.evaluators(measure):
        # stream first: zip stops on an exhausted stream without taking a label
        for item, label in zip(stream, labels):
            try:
                value = as_value(evaluate(item))
            except UndefinedValueError:
                value = None
            pairs.append((label, value))
    return _shuffled(spec, pairs)


class ElementOrder:
    """Where each element of a domain stands in ``enumerate_domain``'s order.

    Refuses an over-cap domain up front, as ``enumerate_domain`` does.
    Without a seed an element's position is its index in lexicographic
    order.  With one, a compact array of the indices is shuffled as
    ``enumerate_domain`` shuffles the elements (a shuffle depends only on
    the length), and its inverse maps each index to its position.
    """

    def __init__(self, spec: Domain, cap: int = DEFAULT_CAP):
        size = _check_cap(spec, cap)
        self.spec = spec
        self._positions: Optional[array] = None
        if spec.order_seed is not None:
            typecode = "i" if size < 2**31 else "q"  # 4 bytes per element below the default cap
            shuffled = _shuffled(spec, array(typecode, range(size)))
            self._positions = positions = array(typecode, shuffled)
            for position, index in enumerate(shuffled):
                positions[index] = position

    def positions(self) -> Iterator[int]:
        """The position of each element, in lexicographic order."""
        return count() if self._positions is None else iter(self._positions)

    def labels_at(self, *positions: int) -> list[str]:
        """Display forms of the elements at ``positions``.

        Found by one walk of the domain up to the last of them, evaluating
        nothing.
        """
        if self._positions is None:
            indices = positions
        else:
            indices = [self._positions.index(position) for position in positions]
        found = {}
        for index, label in zip(range(max(indices) + 1), self.spec.labels()):
            if index in indices:
                found[index] = label
        return [found[index] for index in indices]


def element_to_str(element) -> str:
    return element.display()
