"""Registry of retrieval evaluation measures.

Each measure is a pure function from a domain element to a raw result:
rational-formula measures (the exact backend) give the integers
``(num, den)`` of their value, with ``den`` positive and not necessarily
in lowest terms, and only the log-bearing ones (discounted gain,
normalized log precision) give a float, compared with the default
tolerance from :mod:`metriclass.values`.  ``Measure.evaluate`` wraps the
result into an ``Exact`` or ``Approx`` value; classification keys on the
raw result and builds a value only for what it reports.

Set-based and user measures are ratios of two affine integer forms in
four counts, ``(tp, fp, fn, tn)`` for set rows and ``(U, R_k, R_u, A)``
for user rows: a :class:`Ratio` holds the numerator and denominator forms
and a third, ``defined``, that is 0 exactly where the value does not exist
(the denominator, or ``tp`` for the F-measure), with the reason it does
not.  Calling a ``Ratio`` on four counts gives ``(num, den)``.  A
contingency or user walk (``enumeration.Contingency.evaluators``) reads
the forms instead: along a row of its elements every form is an
arithmetic progression, so a row is evaluated as ``range``s.

Rank-based measures are folds over ranks.  A measure's ``fn`` is its
binder: ``fn(scheme, universe, length)`` checks the measure's parameters
against the universe and the ranking length and returns a
:class:`Kernel`: an ``init`` state, ``step(state, r, g)`` for the grade
index ``g`` at rank ``r`` (the caller passes the rank, so no state holds
it), and ``finish(state)``, called after exactly ``length`` steps, which
gives the result, and a ``horizon``: the last rank whose step can change
the state.  A fold's state at its horizon is its final state, so every
ranking that shares a prefix that long shares the result.  Thirteen
measures are additive: a sum over ranks of a per-grade term times a
per-rank weight, whose state is the running sum, and whose horizon is
the last rank of nonzero weight (below the length for the cutoff
measures and for the R-family when R < L).
``ap``, ``awp`` and ``q-measure`` are cumulative: a sum over relevant
ranks of a per-rank weight times the running sum of a per-grade term,
whose state is the pair of sums.  Gains are integer numerators over the
scheme's common gain denominator, and rational per-rank weights are
integers over one denominator per length, so ``finish`` of an exact fold
returns ``(num, den)`` without any ``Fraction``.  ``bpref`` keeps a
count and a sum, and ``rr`` the rank of the first relevant document.
``dcg`` and ``pnorm`` add their float terms rank by rank in rank order
and finish with the float.  Every fold that is not additive has its
length as its horizon.  Only the binder raises, never ``finish``: a
value that does not exist for the universe and length (a zero
denominator for every ranking) raises ``UndefinedValueError``, a bad
parameter ``ParameterError`` and a cutoff padded past N
``ConstraintError``.  ``Measure.evaluate`` checks that the ranking fits
the universe, then runs the fold over it (and calls a set or user
measure's ``Ratio`` on its element's counts); formulas raise
``UndefinedValueError`` with a reason only, and ``evaluate`` names the
measure and the element.  A domain walk (``enumeration.Rankings.evaluators``) steps the fold once
per prefix, so rankings that share a prefix share its state, and stops
at the horizon.

``esl`` is a fold over the levels of a leveled output, bound to the
need (:class:`LevelFold`).  It settles at the first level that meets the
need: no later level changes its result, so the leveled walk
(``enumeration.Leveled.evaluators``) stops there too.

Measure ids are stable strings: plain (``recall``), with a rank cutoff
(``prec@4``), or with rational parameters (``rbp?p=1/2``, ``dcg?b=2``,
``utility?alpha=1,beta=1,gamma=1,delta=1``).  One table describes every
measure, keyed by its id grammar (``recall``, ``prec@``, ``dcg?``), with
its display name, family, backend and constructor; ``measure_from_id``
and ``list_measure_ids`` both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from .errors import ConstraintError, ParameterError, ParseError, UndefinedValueError
from .model import GradeScheme, Universe, check_consistent
from .values import DEFAULT_EPS, Approx, Exact, Value, add, as_value, exact

# ---------------------------------------------------------------------------
# Set-based and user-oriented measures
# ---------------------------------------------------------------------------


def form_value(form: tuple[int, ...], counts) -> int:
    """An affine form, its constant then one coefficient per count, at four counts."""
    c, a, b, d, e = form
    w, x, y, z = counts
    return c + a * w + b * x + d * y + e * z


class Ratio(NamedTuple):
    """A set or user measure: the ratio of two affine integer forms in the four counts.

    A form is a constant and one coefficient per count.  The value exists
    where ``defined`` is not 0, and there ``den`` is positive; elsewhere
    it is undefined for ``reason``.  ``defined`` is ``den`` unless the
    value needs more than a nonzero denominator.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    defined: tuple[int, ...]
    reason: str

    def __call__(self, *counts: int) -> tuple[int, int]:
        if not form_value(self.defined, counts):
            raise UndefinedValueError(reason=self.reason)
        return form_value(self.num, counts), form_value(self.den, counts)


def _form(text: str, names: tuple[str, ...]) -> tuple[int, ...]:
    """The form of ``text``, a sum of count names with integer factors (``"2tp + fp"``)."""
    coefficients = dict.fromkeys(names, 0)
    for term in map(str.strip, text.split("+")):
        name = term.lstrip("0123456789")
        coefficients[name] += int(term[:len(term) - len(name)] or 1)
    return (0, *coefficients.values())


def _ratio(names, num: str, den: str, defined: Optional[str] = None,
           reason: str = "zero denominator") -> Ratio:
    return Ratio(_form(num, names), _form(den, names), _form(defined or den, names), reason)


_set = partial(_ratio, ("tp", "fp", "fn", "tn"))
_user = partial(_ratio, ("u", "rk", "ru", "a"))


# ---------------------------------------------------------------------------
# Rank-based measures over (ranking, universe), as folds over ranks
# ---------------------------------------------------------------------------


class Kernel(NamedTuple):
    """A rank measure's fold, bound to one grade scheme, universe and length.

    ``step(state, r, g)`` consumes the grade index ``g`` at rank ``r``; the
    caller counts the ranks, from 1, so no state holds the rank.  States are
    immutable: the running sum of an additive fold (an int; a float for
    ``pnorm`` and ``dcg``), the pair of sums of a cumulative fold or of
    ``bpref``, or a first relevant rank, so one prefix state can be
    extended by every sibling grade.  ``finish`` is called after exactly
    ``length`` steps and does not raise.  ``horizon`` is the last rank at
    which ``step`` can change a state; every later step returns its state
    unchanged, so ``finish`` of the state at the horizon is the result of
    every ranking with that prefix.
    """

    init: object
    step: Callable[[object, int, int], object]
    finish: Callable[[object], tuple[int, int] | float]  # (num, den), or a float
    horizon: int


@lru_cache(maxsize=64)
def _gain_numerators(scheme: GradeScheme) -> tuple[int, tuple[int, ...]]:
    """The common denominator D of the gains and each gain's numerator over D."""
    den = math.lcm(*(g.denominator for g in scheme.gains))
    return den, tuple(int(g * den) for g in scheme.gains)


def _relevant(scheme: GradeScheme) -> list[int]:
    """1 for each relevant grade, 0 for the lowest one."""
    return [0] + [1] * (len(scheme.gains) - 1)


def _weights(coefficients) -> tuple[list[int], int]:
    """Per-rank rational coefficients as integers over one denominator.

    Returns ``weight`` and ``den`` with ``c_r = weight[r] / den`` for ranks
    r from 1, where ``den`` is the lcm of all the coefficients'
    denominators; index 0 is unused.
    """
    cs = [Fraction(c) for c in coefficients]
    den = math.lcm(*(c.denominator for c in cs))
    return [0] + [c.numerator * (den // c.denominator) for c in cs], den


def _upto(cutoff: int, length: int) -> list[int]:
    """Per-rank weight 1 at ranks up to the cutoff, 0 after it."""
    return [int(0 < r <= cutoff) for r in range(length + 1)]


def _additive(per_grade, per_rank, finish) -> Kernel:
    """The fold of ``sum_r per_grade[g_r] * per_rank[r]``; its state is the running sum.

    Its horizon is the last rank whose weight is not 0.
    """

    def step(total, r, g):
        return total + per_grade[g] * per_rank[r]

    horizon = len(per_rank) - 1
    while horizon and not per_rank[horizon]:
        horizon -= 1
    return Kernel(0, step, finish, horizon)


def _cumulative(per_grade, per_rank, finish) -> Kernel:
    """Sum over relevant ranks r of ``per_rank[r]`` times the running ``per_grade`` sum.

    Its state is ``(running, total)``; the lowest grade leaves it unchanged.
    """

    def step(s, r, g):
        if not g:
            return s
        running = s[0] + per_grade[g]
        return running, s[1] + running * per_rank[r]

    return Kernel((0, 0), step, finish, len(per_rank) - 1)


def _total_relevant(universe: Universe, reason: str) -> int:
    """R, for a measure whose denominator is 0 on every ranking when R = 0."""
    if universe.total_relevant == 0:
        raise UndefinedValueError(reason=reason)
    return universe.total_relevant


def _check_cutoff(cutoff: int, length: int) -> None:
    if cutoff < 1 or cutoff > length:
        raise ParameterError(
            f"measures: cutoff {cutoff} out of range for a length-{length} ranking"
        )


def _check_padded(cutoff: int, universe: Universe, length: int) -> None:
    """Cutoff measures pad short rankings, and the padded one must fit in N."""
    if cutoff < 1:
        raise ParameterError(f"measures: cutoff must be positive, got {cutoff}")
    if max(length, cutoff) > universe.collection_size:
        raise ConstraintError("model: ranking is longer than the collection")


def _prec_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / r at the cutoff rank."""
    _check_cutoff(cutoff, length)
    den, gains = _gain_numerators(scheme)
    return _additive(gains, _upto(cutoff, length), lambda s: (s, den * cutoff))


def _recall_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) over the total ideal gain; cg(r)/R in the binary case."""
    _check_cutoff(cutoff, length)
    return _gain_over_ideal(cutoff, universe.total_relevant, scheme, universe, length)


def _gain_over_ideal(cutoff, most, scheme, universe, length) -> Kernel:
    """cg(cutoff) over the gain of min(most, R) top-grade documents.

    Undefined if R = 0.  Ranks padded up to the cutoff have the lowest
    grade and add nothing.
    """
    _, gains = _gain_numerators(scheme)
    ideal = gains[-1] * min(most, _total_relevant(universe, "no relevant in universe"))
    return _additive(gains, _upto(cutoff, length), lambda s: (s, ideal))


def _r_family(term):
    """A per-grade term summed over ranks 1..R, over its value for R top-grade documents.

    ``term(gain numerator, D)`` is 0 for the lowest grade, so padding a
    ranking shorter than R adds nothing.
    """

    def bind(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
        r_total = _total_relevant(universe, "R = 0")
        den, gains = _gain_numerators(scheme)
        per_grade = [term(x, den) for x in gains]
        ideal = per_grade[-1] * r_total
        return _additive(per_grade, _upto(r_total, length), lambda s: (s, ideal))

    return bind


_r_precision = _r_family(lambda x, den: int(x > 0))
_r_precision.__doc__ = "count(R) / R; the ranking is padded with the lowest grade if L < R."
_r_wp = _r_family(lambda x, den: x)
_r_wp.__doc__ = "cg(R) / cig(R)"
_r_measure = _r_family(lambda x, den: x + den * (x > 0))
_r_measure.__doc__ = "(cg(R) + count(R)) / (cig(R) + R)"


def _sr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(L) / cig(L)"""
    return _gain_over_ideal(length, length, scheme, universe, length)


def _msr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Rank-weighted sliding ratio: sum g(r)/r over sum ig(r)/r."""
    r_total = _total_relevant(universe, "no relevant in universe")
    _, gains = _gain_numerators(scheme)
    weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    harmonic = sum((Fraction(1, r) for r in range(1, min(length, r_total) + 1)), Fraction(0))
    ideal = gains[-1] * harmonic  # sum ig(r)/r, over the same gain denominator
    return _additive(gains, weight, lambda s: (s * ideal.denominator, den * ideal.numerator))


def _check_rocchio(universe: Universe, length: int) -> int:
    r = universe.total_relevant
    if r == 0 or r >= length:
        raise UndefinedValueError(reason="requires 0 < R < L")
    return r


def _rnorm(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """1 - (sum of relevant ranks - sum of 1..R) / (R * (L - R))"""
    r_total = _check_rocchio(universe, length)
    span = r_total * (length - r_total)
    best = r_total * (r_total + 1) // 2
    return _additive(_relevant(scheme), range(length + 1), lambda s: (span - s + best, span))


def _pnorm(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Log-weighted variant of normalized recall (float backend)."""
    r_total = _check_rocchio(universe, length)
    logs = [0.0] + [math.log(k) for k in range(1, length + 1)]
    best = sum(math.log(k) for k in range(1, r_total + 1))
    den = math.log(math.comb(length, r_total))
    # each relevant rank adds 1 * log r and each other one 0.0, so the sum
    # has the bits of the relevant ranks' logs added in rank order
    return _additive(_relevant(scheme), logs, lambda s: 1 - (s - best) / den)


def _ap(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of count(r)/r."""
    r_total = _total_relevant(universe, "R = 0")
    weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    total = den * r_total
    return _cumulative(_relevant(scheme), weight, lambda s: (s[1], total))


def _awp(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum over relevant ranks of cg(r)/cig(r) (no 1/R factor)."""
    r_total = _total_relevant(universe, "R = 0")
    _, gains = _gain_numerators(scheme)
    # cig(r) = top * min(r, R), with top in the total
    weight, den = _weights(Fraction(1, min(r, r_total)) for r in range(1, length + 1))
    total = den * gains[-1]
    return _cumulative(gains, weight, lambda s: (s[1], total))


def _q_measure(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of (cg(r)+count(r)) / (cig(r)+r)."""
    r_total = _total_relevant(universe, "R = 0")
    den, gains = _gain_numerators(scheme)
    # cg(r) + count(r) over the gain denominator: each relevant rank adds gain + D
    per_grade = [x + den * (x > 0) for x in gains]
    weight, wden = _weights(
        Fraction(1, gains[-1] * min(r, r_total) + den * r) for r in range(1, length + 1)
    )
    total = wden * r_total
    return _cumulative(per_grade, weight, lambda s: (s[1], total))


def _rr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """1 over the rank of the first relevant document, 0 if none."""
    values = [(0, 1)] + [(1, r) for r in range(1, length + 1)]
    # the state is the rank of the first relevant document, 0 until there is one
    return Kernel(0, lambda first, r, g: first or (r if g else 0), lambda s: values[s], length)


def _dcg(base: float, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum of g(r) / max(1, log_base r) -- float backend."""
    gains = [float(g) for g in scheme.gains]
    discounts = [1.0] + [
        max(1.0, math.log2(r) if base == 2 else math.log(r) / math.log(base))
        for r in range(1, length + 1)
    ]
    # divided, not multiplied by 1/discount, which would change the float bits
    return Kernel(0.0, lambda total, r, g: total + gains[g] / discounts[r], lambda s: s, length)


def _rbp(p: Fraction, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1-p)/g(top) * sum of p^(r-1) * g(r); exact for rational p."""
    _, gains = _gain_numerators(scheme)
    weight, den = _weights(p ** (r - 1) for r in range(1, length + 1))
    # (1-p)/top * A/(D * den) with top = gains[-1]/D
    factor = (1 - p) / (gains[-1] * den)
    return _additive(gains, weight, lambda s: (s * factor.numerator, factor.denominator))


def _bpref(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of 1 - (r - count(r))/R."""
    r_total = _total_relevant(universe, "R = 0")

    def step(s, r, g):
        if not g:
            return s
        c = s[0] + 1
        return c, s[1] + r_total - r + c

    return Kernel((0, 0), step, lambda s: (s[1], r_total * r_total), length)


def _nxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(r) at the cutoff rank."""
    _check_padded(cutoff, universe, length)
    return _gain_over_ideal(cutoff, cutoff, scheme, universe, length)


def _manxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Mean of cg(j)/cig(j) for j up to the cutoff.

    The gain at rank r counts in cg(j) for each j from r to the cutoff, so
    its weight is the suffix sum of 1/cig(j); ranks padded up to the cutoff
    have the lowest grade and add nothing.
    """
    _check_padded(cutoff, universe, length)
    r_total = _total_relevant(universe, "no relevant in universe")
    _, gains = _gain_numerators(scheme)
    # cig(j) = top * min(j, R), with top in the total
    inverse, den = _weights(Fraction(1, min(j, r_total)) for j in range(1, cutoff + 1))
    suffix = list(accumulate(reversed(inverse[1:])))[::-1]  # suffix[r - 1]: j from r to cutoff
    weight = [0] + suffix[:length] + [0] * (length - cutoff)
    total = den * gains[-1] * cutoff
    return _additive(gains, weight, lambda s: (s, total))


def _gr_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(L): prefix gain against the full-length ideal gain."""
    _check_padded(cutoff, universe, length)
    return _gain_over_ideal(cutoff, max(length, cutoff), scheme, universe, length)


@lru_cache(maxsize=256)
def _bound(bind, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    return bind(scheme, universe, length)


# ---------------------------------------------------------------------------
# Expected search length over a leveled output
# ---------------------------------------------------------------------------


class LevelFold(NamedTuple):
    """``esl`` bound to one need: a fold over the levels of a leveled output.

    ``step(state, rel, non)`` consumes a level of ``rel`` relevant and
    ``non`` nonrelevant documents.  At the first level that meets the need
    it returns ``(True, (num, den))``: the fold is settled, and no later
    level changes that result.  Before then it returns ``(False, state)``.
    """

    init: object
    step: Callable[[object, int, int], tuple[bool, object]]


def _esl(need: int) -> LevelFold:
    """Nonrelevant documents passed before the need is met.

    The state is (relevant so far, nonrelevant passed).  The final level
    is the first level at which the cumulative relevant count reaches the
    need; within it, document order is uniformly random, so it contributes
    i*s/(t+1) on top of the j nonrelevant documents in the preceding
    levels, where s is the need still open.
    """

    def step(state, rel, non):
        have, passed = state
        if have + rel >= need:
            return True, (passed * (rel + 1) + non * (need - have), rel + 1)
        return False, (have + rel, passed + non)

    return LevelFold((0, 0), step)


# ---------------------------------------------------------------------------
# Aggregation over queries (always flagged)
# ---------------------------------------------------------------------------

PERMISSIBILITY_WARNING = (
    "mean of ordinal-scale values; arithmetic aggregation requires at least "
    "an interval scale"
)


def _nth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 1, or None.

    Integer Newton steps from a power of two above the root, so n may lie
    far past the float range.
    """
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def aggregate(values: list[Value], kind: str) -> tuple[Value, str]:
    """Arithmetic or geometric mean plus the permissibility warning.

    The warning is attached unconditionally: collapsing per-query values
    with a mean presumes an interval scale that most rank-based measures
    do not have.
    """
    kind = kind.lower()
    if kind not in ("map", "gmap"):
        raise ParameterError(f"measures: unknown aggregate kind {kind!r}")
    if not values:
        raise ParameterError("measures: aggregate of an empty value list")
    if kind == "map":
        total: Value = exact(0)
        for v in values:
            total = add(total, v)
        if isinstance(total, Exact):
            mean: Value = Exact(total.rational / len(values))
        else:
            mean = Approx(total.real / len(values))
        return mean, PERMISSIBILITY_WARNING
    # gmap: geometric mean, exact when the root is rational
    logs = []
    product = Fraction(1)
    all_exact = True
    for v in values:
        x = v.numeric()
        if x <= 0:
            raise UndefinedValueError("gmap", str(x), "requires strictly positive values")
        if isinstance(v, Exact):
            product *= x
            # log(num) - log(den) stays finite where float(x) would leave the float range
            logs.append(math.log(x.numerator) - math.log(x.denominator))
        else:
            all_exact = False
            logs.append(math.log(x))
    q = len(values)
    if all_exact:
        rn = _nth_root(product.numerator, q)
        rd = _nth_root(product.denominator, q)
        if rn is not None and rd is not None:
            return Exact(Fraction(rn, rd)), PERMISSIBILITY_WARNING
    mean = math.exp(sum(logs) / q)
    return Approx(mean), PERMISSIBILITY_WARNING


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """A named, parameter-bound measure ready to evaluate domain elements."""

    id: str
    key: str  # its row in the measure table: "recall", "prec@", "dcg?", ...
    display: str
    family: str  # contingency | user | ranking | leveled
    backend: str  # exact | approx
    # a set or user measure's Ratio of the four counts; for rank measures
    # the fold's binder, for esl the level fold's
    fn: Callable

    def evaluate(self, element, universe: Optional[Universe] = None) -> Value:
        """The value on one element; a ranking is evaluated against a universe.

        A rank measure runs its fold over the ranking, rank by rank, and
        ``esl`` its level fold over a satisfiable output until it settles.
        This is where a raw result becomes a value.  An ``UndefinedValueError``
        is raised with this measure's id and the element's display form.
        """
        try:
            if self.family == "ranking":
                if universe is None:
                    raise ParameterError(f"measures: {self.id} needs a universe")
                check_consistent(element, universe)
                state, step, finish, _ = _bound(self.fn, element.scheme, universe,
                                                element.length)
                index = element.scheme.labels.index
                for r, label in enumerate(element.items, 1):
                    state = step(state, r, index(label))
                result = finish(state)
            elif self.family == "leveled":
                element.require_satisfiable()  # so the fold settles at some level
                state, step = self.fn(element.need)
                for rel, non in element.levels:
                    settled, state = step(state, rel, non)
                    if settled:
                        break
                result = state
            else:
                result = self.fn(*element.counts)
        except UndefinedValueError as exc:
            raise UndefinedValueError(self.id, element.display(), exc.reason) from None
        return as_value(result)

    @property
    def eps(self) -> float | None:
        return DEFAULT_EPS if self.backend == "approx" else None


class _Row(NamedTuple):
    """One entry of the measure table.

    A plain measure's ``make`` is its ``Ratio``, fold binder or level fold.  A
    ``base@`` row's ``make`` takes the cutoff first; a ``base?`` row's
    ``make`` is called with the rational parameters named in ``params``
    and returns the function.  ``display`` may refer to ``{r}`` or to the
    parameters.
    """

    display: str
    family: str
    make: Callable
    backend: str = "exact"
    params: tuple[str, ...] = ()


def _dcg_of(b: Fraction) -> Callable:
    try:
        base = float(b)
    except OverflowError:
        raise ParameterError("measures: dcg base is beyond the float range") from None
    if base <= 1:  # also a base just above 1 that rounds to 1.0, whose log is 0
        raise ParameterError("measures: dcg base must be greater than 1")
    return partial(_dcg, base)


def _utility_of(**weights: Fraction) -> Ratio:
    """alpha*tp + beta*fn + gamma*fp + delta*tn, over the lcm of the weights' denominators."""
    for name, w in weights.items():
        if w <= 0:
            raise ParameterError(f"measures: utility weight {name} must be positive")
    den = math.lcm(*(w.denominator for w in weights.values()))
    num = tuple(int(weights[name] * den) for name in ("alpha", "gamma", "beta", "delta"))
    constant = (den, 0, 0, 0, 0)
    return Ratio((0, *num), constant, constant, "zero denominator")  # num in (tp, fp, fn, tn) order


def _rbp_of(p: Fraction) -> Callable:
    if not 0 < p < 1:
        raise ParameterError("measures: rbp persistence p must lie strictly in (0, 1)")
    return partial(_rbp, p)


_SET, _USER, _RANK = "contingency", "user", "ranking"

# Keyed by id grammar, in the order list-measures prints.
_MEASURES: dict[str, _Row] = {
    "accuracy": _Row("classification accuracy", _SET, _set("tp + tn", "tp + fp + fn + tn")),
    "error-rate": _Row("error rate", _SET, _set("fp + fn", "tp + fp + fn + tn")),
    # 2 prec recall / (prec + recall): undefined where either is, or both are 0, i.e. tp = 0
    "f-measure": _Row("F-measure", _SET, _set("2tp", "2tp + fp + fn", "tp",
                                               "precision and recall are both 0 or undefined")),
    "fallout": _Row("fallout", _SET, _set("fp", "fp + tn")),
    "fdr": _Row("false discovery rate", _SET, _set("fp", "fp + tp")),
    "for": _Row("false omission rate", _SET, _set("fn", "fn + tn")),
    "generality": _Row("generality", _SET, _set("tp + fn", "tp + fp + fn + tn")),
    "inverse-precision": _Row("inverse precision", _SET, _set("tn", "fn + tn")),
    "inverse-recall": _Row("inverse recall", _SET, _set("tn", "fp + tn")),
    "miss-rate": _Row("miss rate", _SET, _set("fn", "tp + fn")),
    "precision": _Row("precision", _SET, _set("tp", "tp + fp")),
    "recall": _Row("recall", _SET, _set("tp", "tp + fn")),
    "specificity": _Row("specificity", _SET, _set("tn", "tn + fp")),
    "utility?": _Row("utility", _SET, _utility_of, params=("alpha", "beta", "gamma", "delta")),
    # user rows take (U, R_k, R_u, A)
    "coverage-ratio": _Row("coverage ratio", _USER, _user("rk", "u")),
    "novelty-ratio": _Row("novelty ratio", _USER,
                          _user("ru", "ru + rk", reason="no relevant retrieved")),
    "recall-effort": _Row("recall effort", _USER, _user("u", "a")),
    "retrieval-recall": _Row("retrieval recall", _USER, _user("rk + ru", "u")),  # can exceed 1
    "gr@": _Row("gain recall@{r}", _RANK, _gr_at),
    "manxcg@": _Row("MAnxCG@{r}", _RANK, _manxcg_at),
    "nxcg@": _Row("nxCG@{r}", _RANK, _nxcg_at),
    "prec@": _Row("Prec@{r}", _RANK, _prec_at),
    "recall@": _Row("recall@{r}", _RANK, _recall_at),
    "ap": _Row("average precision", _RANK, _ap),
    "awp": _Row("average weighted precision", _RANK, _awp),
    "bpref": _Row("bpref", _RANK, _bpref),
    "msr": _Row("modified sliding ratio", _RANK, _msr),
    "pnorm": _Row("normalized precision", _RANK, _pnorm, "approx"),
    "q-measure": _Row("Q-measure", _RANK, _q_measure),
    "r-measure": _Row("R-measure", _RANK, _r_measure),
    "r-precision": _Row("R-precision", _RANK, _r_precision),
    "r-wp": _Row("R-WP", _RANK, _r_wp),
    "rnorm": _Row("normalized recall", _RANK, _rnorm),
    "rr": _Row("reciprocal rank", _RANK, _rr),
    "sr": _Row("sliding ratio", _RANK, _sr),
    "dcg?": _Row("DCG (base {b})", _RANK, _dcg_of, "approx", ("b",)),
    "rbp?": _Row("RBP (p={p})", _RANK, _rbp_of, params=("p",)),
    "esl": _Row("expected search length", "leveled", _esl),
}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"measures: cannot parse rational {text!r}") from None


def _parse_params(text: str) -> dict[str, str]:
    params = {}
    for part in text.split(","):
        if "=" not in part:
            raise ParseError(f"measures: malformed parameter {part!r}")
        key, _, val = part.partition("=")
        if key in params:
            raise ParseError(f"measures: duplicate parameter {key!r}")
        params[key] = val
    return params


def measure_from_id(measure_id: str) -> Measure:
    """Resolve a measure id string to a bound Measure."""
    head, query, param_text = measure_id.partition("?")
    base, at, cutoff_text = head.partition("@")
    key = base + at + query
    if key not in _MEASURES:
        raise ParseError(f"measures: unknown measure id {measure_id!r}")
    row = _MEASURES[key]
    if at:
        try:
            cutoff = int(cutoff_text)
        except ValueError:
            raise ParseError(f"measures: bad cutoff {cutoff_text!r}") from None
        if cutoff < 1:
            raise ParameterError("measures: cutoff must be positive")
        return Measure(f"{key}{cutoff}", key, row.display.format(r=cutoff), row.family,
                       row.backend, partial(row.make, cutoff))
    if query:
        params = _parse_params(param_text)
        if set(params) != set(row.params):
            raise ParameterError(f"measures: {base} needs exactly the parameters {list(row.params)}")
        values = {name: _parse_fraction(params[name]) for name in row.params}
        try:
            canon = ",".join(f"{name}={value}" for name, value in values.items())
        except ValueError:  # past the interpreter's limit on int-to-str digits
            raise ParameterError(f"measures: a parameter of {base} has too many digits") from None
        return Measure(key + canon, key, row.display.format(**values), row.family, row.backend,
                       row.make(**values))
    return Measure(key, key, row.display, row.family, row.backend, row.make)


def list_measure_ids() -> list[str]:
    """All registered ids; cutoff and parameterized ones in their general form."""
    return [
        key + "r" if key.endswith("@") else key + ",".join(f"{p}=.." for p in row.params)
        for key, row in _MEASURES.items()
    ]
