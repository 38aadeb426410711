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
from itertools import chain, groupby, repeat, starmap
from operator import countOf, is_, mul, truediv
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
from .measures import Kernel, columns, form_value

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
    at some lexicographic indices, ``evaluators(measure)`` walks the
    measure's keys on them, ``certificate(measure)`` says what those keys
    stand for, and ``element(text)`` parses a display form.
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

        The streams in turn give the measure's key on every element, in
        lexicographic order, or ``None`` where the value is undefined.  A
        key is finished: equal keys stand for equal values, and nothing
        downstream reduces or converts one.  Under ``certificate(measure)``
        an exact value comes as the integer numerator over it (rankings) or
        as the float ``num / den``, certified one-to-one on the values
        (contingency and user); else as ``(num, den)`` in lowest terms,
        reduced once where the walk makes it.  A real comes as its float.
        In an element stream (``runs`` false) each item is one element's
        key, and is never ``None``.  In a run stream each item is ``(key,
        k)``: the key of a settled prefix, shared by the k elements that
        complete it, which are consecutive; undefined elements always come
        so, as ``(None, k)``.  Each stream is read to its end before the
        next is asked for.
        """
        raise NotImplementedError

    def certificate(self, measure) -> Optional[int]:
        """A bound D on the denominators of the measure's values if its
        evaluators key them as certified floats (``_CountTuples.certificate``)
        or as integer numerators over D (``Rankings.certificate``), else None
        (they key them as reduced ``(num, den)`` pairs or reals)."""
        return None


def _progression(start: int, step: int, lo: int, hi: int) -> Iterable[int]:
    """``start + i * step`` for i from ``lo`` up to ``hi``, produced in C."""
    if step:
        return range(start + lo * step, start + hi * step, step)
    return repeat(start, hi - lo)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """``(num, den)`` in lowest terms; ``den`` is positive."""
    d = math.gcd(num, den)
    return num // d, den // d


class _CountTuples(Domain):
    """A domain of four-count elements, ordered as rows of counts.

    ``rows()`` yields ``(first, m)``: the row's first counts and its
    length; its i-th element is ``first + i * delta``.  ``largest()``
    bounds each count.
    """

    element_type: ClassVar[type]
    delta: ClassVar[tuple[int, int, int, int]]

    def elements(self) -> Iterator:
        """The rows expanded by ``delta``, each count a progression along its row."""
        rows = (zip(*map(_progression, first, self.delta, repeat(0), repeat(m)))
                for first, m in self.rows())
        return starmap(self.element_type, chain.from_iterable(rows))

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

    def certificate(self, measure) -> Optional[int]:
        """D if a row may yield each result as the float ``num / den``, else None.

        From the largest value of each count, V bounds |num| and D bounds
        den over the domain, in O(1).  Distinct values p/q and r/s with q, s
        <= D differ by at least 1/D^2, and the correctly rounded ``num /
        den`` of a value at most V in magnitude is within V 2^-53 of it, so
        when V D^2 < 2^52 distinct values get distinct floats, equal values
        the same float, and the floats sort as the values do.  The same
        bound makes a value the last convergent of its float whose
        denominator is at most D (Legendre's theorem), which is how
        ``intrinsic`` recovers it.
        """
        weights = (1, *self.largest())
        num, den = (sum(map(mul, map(abs, form), weights)) for form in measure.fn[:2])
        den = max(den, 1)
        return den if num * den * den < 1 << 52 else None

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """Element streams, row by row, of the ratio of two affine forms, split at undefined ones.

        ``measure.fn`` is a :class:`~metriclass.measures.Ratio`.  Along a
        row each form is an arithmetic progression, whose step (the form's
        dot product with ``delta``) is the same for every row, so a row's
        results are two ``range``s, divided in C into floats where the
        certificate vouches that the floats are one-to-one on the values,
        else reduced into pairs (``_reduced``), once per element, as the row
        makes them.  ``defined`` is a progression too: one ``divmod`` finds
        its only zero on the row, if any, and a row on which it is
        constantly 0 is all undefined.  The rows' defined pieces are chained
        into one element stream up to the next undefined element, or row,
        which comes as one run.
        """
        num, den, defined, _ = measure.fn
        num_step, den_step, defined_step = (sum(map(mul, form[1:], self.delta))
                                            for form in (num, den, defined))
        keys = partial(map, _reduced if self.certificate(measure) is None else truediv)

        def pieces():  # per row: the keys before its undefined ones, their run, and the rest
            for first, m in self.rows():
                n, d, f = (form_value(form, first) for form in (num, den, defined))
                if defined_step:
                    zero, rest = divmod(-f, defined_step)
                    lo, hi = (zero, zero + 1) if not rest and 0 <= zero < m else (m, m)
                else:
                    lo, hi = (m, m) if f else (0, m)
                yield keys(_progression(n, num_step, 0, lo), _progression(d, den_step, 0, lo))
                if lo < hi:
                    yield ((None, hi - lo),)
                yield keys(_progression(n, num_step, hi, m), _progression(d, den_step, hi, m))

        # read lazily, so no row is built before its stream is; only an undefined run is a tuple
        for runs, group in groupby(pieces(), lambda piece: piece.__class__ is tuple):
            yield chain.from_iterable(group), runs


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
        least, most = self._bounds
        if most == 0:  # one all-nonrelevant ranking per length
            yield len(self.lengths)
            return
        for length in self.lengths:
            if least == 0 and most >= length:
                yield _power(g, length, cap)  # every ranking of this length
                continue
            for k in range(least, min(length, most) + 1):
                yield _binomial(length, k, cap) * _power(g - 1, k, cap)

    @cached_property
    def scheme(self) -> GradeScheme:
        return GradeScheme.equispaced(self.levels)

    @property
    def _bounds(self) -> tuple[int, int]:
        """The fewest and most relevant grades a ranking may hold: ``rel=`` for both, or 0 and R."""
        rel = self.exact_relevant
        return (0, self.universe.total_relevant) if rel is None else (rel, rel)

    def walk(self, length: int, kernel: Kernel) -> Iterator[tuple[Iterator, bool]]:
        """The fold's results on the rankings of one length, as ``evaluators`` yields them.

        Stepped a level at a time (``measures.columns``), pruned to R or
        ``rel=``, and stopped at the horizon, whose prefixes come as runs with
        their completions.  A ``"first"`` fold settles at the first relevant
        grade, so it yields one run per rank, the deepest first, unwalked.
        """
        least, most = self._bounds
        other = self.levels - 1
        if kernel.kind == "first":
            ranks = ((r, other * _completing(other, length - r, 1, least, most))
                     for r in range(length, 0, -1))
            yield chain([(kernel.per_rank[0], 1)] if least == 0 else (),
                        ((kernel.per_rank[r], k) for r, k in ranks if k)), True
            return
        stop, finish = min(kernel.horizon, length), kernel.finish
        pruned = least > 0 or most < length
        completions = [_completing(other, length - stop, c, least, most)
                       for c in range(stop + 1 if stop < length else 0)]
        for block in columns(kernel, self.levels, length, self._bounds if pruned else None, stop):
            keys = block[0] if finish.__class__ is int else map(finish, block[0])
            if stop == length:
                yield iter(keys), False
            else:  # unpruned, every prefix has completions[0]
                counts = block[-1] if pruned else repeat(0)
                yield zip(keys, map(completions.__getitem__, counts)), True

    def labels_at(self, indices: list[int]) -> list[str]:
        """Display forms at lexicographic ``indices``, each unranked, not walked to.

        Skips whole lengths by their sizes, then at each depth takes the
        grade whose completions, counted as ``walk`` prunes, hold the
        index: two sums of at most ``length`` terms per depth, no evaluation.
        """
        labels, other = self.scheme.labels, self.levels - 1
        least, most = self._bounds
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
        """``finish`` of each ranking's grade labels, walked as a fold of tuple sums."""
        terms = tuple((label,) for label in self.scheme.labels)
        for length in self.lengths:
            for stream, _ in self.walk(length, Kernel("sum", None, [terms] * (length + 1), (),
                                                      finish, length)):
                yield from stream

    def elements(self) -> Iterator[Ranking]:
        return self._items(partial(Ranking, self.scheme))

    def labels(self) -> Iterator[str]:
        return self._items(ranking_label)

    def _kernels(self, measure) -> Iterator[tuple[int, Optional[Kernel]]]:
        """``(length, kernel)`` per length that has elements, with no kernel (None) where the
        fold is undefined as a whole; any other error of the binder propagates."""
        least = self._bounds[0]
        for length in self.lengths:
            if least <= length:  # else no element of this length, so its fold is never made
                try:
                    yield length, measure.bind(self.scheme, self.universe, length)
                except UndefinedValueError:
                    yield length, None

    def certificate(self, measure) -> Optional[int]:
        """For an exact measure, the lcm D of its folds' denominators over the lengths, else
        None: each result is an integer numerator over D, which sorts as the values do.
        Found once per measure and kept: the walk and the summary decoding it both ask."""
        if measure.backend != "exact":
            return None
        if measure not in self._certificates:
            dens = (kernel.den for _, kernel in self._kernels(measure) if kernel)
            self._certificates[measure] = math.lcm(*dens)
        return self._certificates[measure]

    @cached_property
    def _certificates(self) -> dict:
        return {}

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """One walk per length of the measure's fold, an exact result as its numerator over
        the certificate, a real as its float; an undefined length is one run."""
        least, most = self._bounds
        bound = self.certificate(measure)
        for length, kernel in self._kernels(measure):
            if kernel is None:
                yield ((None, _completing(self.levels - 1, length, 0, least, most)),), True
                continue
            yield from self.walk(length, kernel if bound is None else kernel.over(bound))

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

    def rows(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """One row per retrieved size n: its table of least tp, and how many tp it takes."""
        lo, hi = self.retrieved
        relevant = self.relevant
        nonrel = self.collection - relevant
        for n in range(lo, hi + 1):
            tp = max(0, n - nonrel)
            fp = n - tp
            yield (tp, fp, relevant - tp, nonrel - fp), min(relevant, n) - tp + 1

    def largest(self) -> tuple[int, int, int, int]:
        """Upper bounds on tp, fp, fn and tn over the domain."""
        relevant, top = self.relevant, self.retrieved[1]
        nonrel = self.collection - relevant
        return min(relevant, top), min(nonrel, top), relevant, nonrel

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

    def rows(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """One row per A and R_k: the context with R_u = 0, and A - R_k + 1 of them."""
        known = self.known
        for a in range(1, self.max_retrieved + 1):
            for rk in range(0, min(known, a) + 1):
                yield (known, rk, 0, a), a - rk + 1

    def largest(self) -> tuple[int, int, int, int]:
        """Upper bounds on U, R_k, R_u and A over the domain."""
        top = self.max_retrieved
        return self.known, min(self.known, top), top, top

    @staticmethod
    def element(text: str) -> UserContext:
        f = parse_fields(text, "enumeration: user context", ("U", "Rk", "Ru", "A"))
        return UserContext(f["U"], f["Rk"], f["Ru"], f["A"])


@dataclass(frozen=True)
class Leveled(Domain):
    """Leveled outputs of 1..docs documents holding at least s relevant ones.

    ``walk`` is the one traversal.  ``elements()`` runs it with a fold
    that keeps every level and never settles; ``evaluators`` runs ``esl``'s
    level fold, which settles at the first level that meets the need, so
    it pays per settled prefix, not per output.
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
        """Every output, from ``walk`` with a fold that keeps each level and never settles."""
        outputs = self.walk((), lambda kept, rel, non: (False, (*kept, (rel, non))))
        return (LeveledOutput(levels, self.need) for levels, _ in outputs)

    def walk(self, init, step) -> Iterator[tuple[object, int]]:
        """Level prefixes in lexicographic order, each up to the level that settles the fold.

        Smaller outputs come first, then by level structure.  ``step`` is
        a :class:`~metriclass.measures.LevelFold`'s.  Yields ``(state, k)``
        per prefix whose last level settles the fold or completes its
        output, with k the outputs that complete it, which are consecutive.
        A prefix holding m fewer documents than its output's total is
        completed in c(m) ways, whatever their relevance: c(0) = 1 and c(m)
        is the sum over the size s of the next level of (s+1) c(m-s), as
        that level can hold 0..s relevant documents.  A level past which the
        need is out of reach even if the rest is relevant is pruned, so
        ``esl`` settles by the time its output is complete.
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
                    if settled or not rest:
                        yield after, completions[rest]
                    else:
                        yield from rec(rest, have + rel, after)

        for total in range(1, self.max_docs + 1):
            yield from rec(total, 0, init)

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """One run stream: the level fold's settled prefixes, each with its result reduced once."""
        init, step = measure.fn(self.need)
        yield ((_reduced(*result), k) for result, k in self.walk(init, step)), True

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
    depends only on the length): position p holds the element of index
    ``indices[p]``.  This is the only code that applies a seed; every stream
    it hands on is in position order.  ``size`` is the element count.
    """

    def __init__(self, spec: Domain, cap: int = DEFAULT_CAP):
        self.size = size = cardinality(spec, cap)
        if size > cap:
            raise DomainTooLargeError(size, cap)
        self.spec = spec
        self.indices: Optional[array] = None
        if spec.order_seed is not None:
            typecode = "i" if size < 2**31 else "q"  # 4 bytes per element below the default cap
            self.indices = array(typecode, range(size))
            random.Random(spec.order_seed).shuffle(self.indices)

    def arrange(self, items: Iterable) -> Iterator:
        """``items``, one per element in lexicographic order, in position order."""
        return iter(items) if self.indices is None else map(list(items).__getitem__, self.indices)

    def evaluators(self, measure) -> Iterator[tuple[Iterator, bool]]:
        """``spec.evaluators(measure)`` in position order.

        Under a seed every key (a run's once per element) is arranged in
        one column, and the undefined ones regrouped into runs ``(None, k)``:
        an element stream still never holds ``None``.
        """
        walk = self.spec.evaluators(measure)
        if self.indices is None:
            return walk
        results = self.arrange(chain.from_iterable(
            chain.from_iterable(starmap(repeat, stream)) if runs else stream
            for stream, runs in walk))
        return ((((None, countOf(group, None)),), True) if undefined else (group, False)
                for undefined, group in groupby(results, partial(is_, None)))

    def labels_at(self, *positions: int) -> list[str]:
        """Display forms of the elements at ``positions``.

        Maps each position to its lexicographic index and asks the domain's
        ``labels_at``, which evaluates nothing: rankings, contingency and
        user domains unrank each index, and leveled domains walk their
        labels up to the last one.
        """
        indices = positions if self.indices is None else map(self.indices.__getitem__, positions)
        return self.spec.labels_at(list(indices))


def element_to_str(element) -> str:
    return element.display()
