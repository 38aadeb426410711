"""Registry of retrieval evaluation measures.

Each measure is a pure function from a domain element to a raw result:
rational-formula measures (the exact backend) give the integers
``(num, den)`` of their value, with ``den`` positive and not necessarily
in lowest terms, and only the log-bearing ones (discounted gain,
normalized log precision) give a float, compared with the default
tolerance from :mod:`metriclass.values`.  ``Measure.evaluate`` wraps the
result into an ``Exact`` or ``Approx`` value; classification keys on the
raw result and builds a value only for what it reports.  Set-based rows
take the four counts ``(tp, fp, fn, tn)`` and user rows ``(U, R_k, R_u,
A)``, so a domain walk can stream plain count tuples.

Rank-based measures are folds over ranks.  A measure's ``fn`` is its
binder: ``fn(scheme, universe, length)`` checks the measure's parameters
against the universe and the ranking length and returns a
:class:`Kernel`: an ``init`` state, ``step(state, r, g)`` for the grade
index ``g`` at rank ``r`` (the caller passes the rank, so no state holds
it), and ``finish(state)``, called after exactly ``length`` steps, which
gives the result.  Most measures are additive: a sum over ranks of a
per-grade term times a per-rank weight, whose state is the running sum.
Gains are integer numerators over the scheme's common gain denominator,
and rational per-rank weights are integers over one denominator per
length, so ``finish`` of an exact fold returns ``(num, den)`` without any
``Fraction``.  ``ap``, ``awp``, ``q-measure`` and ``bpref`` keep small
tuples of counts and sums, and ``rr`` the rank of the first relevant
document.  ``dcg`` and ``pnorm`` add their float terms rank by rank in
rank order and finish with the float.  A value that does not exist for
the universe raises ``UndefinedValueError`` from the binder or
``finish``; a bad parameter raises ``ParameterError`` and a cutoff padded
past N raises ``ConstraintError`` from the binder.  ``Measure.evaluate``
checks that the ranking fits the universe, then runs the fold over it
(and calls any other measure's function on its element); formulas raise
``UndefinedValueError`` with a reason only, and ``evaluate`` names the
measure and the element.  A domain walk
(``enumeration.Rankings.evaluators``) steps the fold once per prefix, so
rankings that share a prefix share its state.

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
from .model import GradeScheme, LeveledOutput, Universe, check_consistent
from .values import DEFAULT_EPS, Approx, Exact, Value, add, as_value, exact

# ---------------------------------------------------------------------------
# Set-based and user-oriented measures
# ---------------------------------------------------------------------------


def _ratio(num: int, den: int, reason: str = "zero denominator") -> tuple[int, int]:
    if den == 0:
        raise UndefinedValueError(reason=reason)
    return num, den


def _f_measure(tp: int, fp: int, fn: int, tn: int) -> tuple[int, int]:
    """2 * prec * recall / (prec + recall)

    Undefined whenever precision or recall is undefined or both are zero,
    that is whenever tp = 0; otherwise it equals 2*tp / (2*tp + fp + fn).
    """
    if tp == 0:
        raise UndefinedValueError()
    return 2 * tp, 2 * tp + fp + fn


def _utility(
    tp: int,
    fp: int,
    fn: int,
    tn: int,
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
    delta: Fraction,
) -> tuple[int, int]:
    """alpha*tp + beta*fn + gamma*fp + delta*tn with positive user weights."""
    return (alpha * tp + beta * fn + gamma * fp + delta * tn).as_integer_ratio()


# ---------------------------------------------------------------------------
# Rank-based measures over (ranking, universe), as folds over ranks
# ---------------------------------------------------------------------------


class Kernel(NamedTuple):
    """A rank measure's fold, bound to one grade scheme, universe and length.

    ``step(state, r, g)`` consumes the grade index ``g`` at rank ``r``; the
    caller counts the ranks, from 1, so no state holds the rank.  States are
    immutable: the running sum of an additive fold (an int; a float for
    ``pnorm`` and ``dcg``), a first relevant rank, or a tuple of counts and
    sums, so one prefix state can be extended by every sibling grade.
    ``finish`` is called after exactly ``length`` steps.
    """

    init: object
    step: Callable[[object, int, int], object]
    finish: Callable[[object], tuple[int, int] | float]  # (num, den), or a float


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
    """The fold of ``sum_r per_grade[g_r] * per_rank[r]``; its state is the running sum."""

    def step(total, r, g):
        return total + per_grade[g] * per_rank[r]

    return Kernel(0, step, finish)


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
    _, gains = _gain_numerators(scheme)
    total = gains[-1] * universe.total_relevant
    if total == 0:
        raise UndefinedValueError(reason="no relevant in universe")
    return _additive(gains, _upto(cutoff, length), lambda s: (s, total))


def _gain_over_ideal(cutoff: int, ideal_count: int, scheme: GradeScheme, length: int) -> Kernel:
    """cg(cutoff) over the gain of ``ideal_count`` top-grade documents.

    Undefined, when finished, if that ideal gain is 0.  Ranks padded up to
    the cutoff have the lowest grade and add nothing.
    """
    _, gains = _gain_numerators(scheme)
    ideal = gains[-1] * ideal_count
    return _additive(gains, _upto(cutoff, length),
                     lambda s: _ratio(s, ideal, "no relevant in universe"))


def _r_family(term):
    """A per-grade term summed over ranks 1..R, over its value for R top-grade documents.

    ``term(gain numerator, D)`` is 0 for the lowest grade, so padding a
    ranking shorter than R adds nothing.
    """

    def bind(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
        r_total = universe.total_relevant
        if r_total == 0:
            raise UndefinedValueError(reason="R = 0")
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
    return _gain_over_ideal(length, min(length, universe.total_relevant), scheme, length)


def _msr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Rank-weighted sliding ratio: sum g(r)/r over sum ig(r)/r."""
    _, gains = _gain_numerators(scheme)
    weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    harmonic = sum((Fraction(1, r) for r in range(1, min(length, universe.total_relevant) + 1)),
                   Fraction(0))
    ideal = gains[-1] * harmonic  # sum ig(r)/r, over the same gain denominator
    return _additive(gains, weight, lambda s: _ratio(
        s * ideal.denominator, den * ideal.numerator, "no relevant in universe"))


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
    r_total = universe.total_relevant
    if r_total == 0:
        raise UndefinedValueError(reason="R = 0")
    weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    total = den * r_total

    def step(s, r, g):
        if not g:
            return s
        c = s[0] + 1
        return c, s[1] + c * weight[r]

    return Kernel((0, 0), step, lambda s: (s[1], total))


def _awp(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum over relevant ranks of cg(r)/cig(r) (no 1/R factor)."""
    r_total = universe.total_relevant
    _, gains = _gain_numerators(scheme)
    # cig(r) = top * min(r, R); with R = 0 finish raises before the weights are read
    weight, den = _weights(Fraction(1, max(1, min(r, r_total))) for r in range(1, length + 1))
    total = den * gains[-1]

    def step(s, r, g):
        if not g:
            return s
        cg = s[0] + gains[g]
        return cg, s[1] + cg * weight[r]

    def finish(s):
        if r_total == 0:
            raise UndefinedValueError(reason="R = 0")
        return s[1], total

    return Kernel((0, 0), step, finish)


def _q_measure(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of (cg(r)+count(r)) / (cig(r)+r)."""
    r_total = universe.total_relevant
    if r_total == 0:
        raise UndefinedValueError(reason="R = 0")
    den, gains = _gain_numerators(scheme)
    top = gains[-1]
    weight, wden = _weights(
        Fraction(1, top * min(r, r_total) + den * r) for r in range(1, length + 1)
    )
    total = wden * r_total

    def step(s, r, g):
        if not g:
            return s
        c, cg = s[0] + 1, s[1] + gains[g]
        return c, cg, s[2] + (cg + den * c) * weight[r]

    return Kernel((0, 0, 0), step, lambda s: (s[2], total))


def _rr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """1 over the rank of the first relevant document, 0 if none."""
    values = [(0, 1)] + [(1, r) for r in range(1, length + 1)]
    # the state is the rank of the first relevant document, 0 until there is one
    return Kernel(0, lambda first, r, g: first or (r if g else 0), lambda s: values[s])


def _dcg(base: float, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum of g(r) / max(1, log_base r) -- float backend."""
    gains = [float(g) for g in scheme.gains]
    discounts = [1.0] + [
        max(1.0, math.log2(r) if base == 2 else math.log(r) / math.log(base))
        for r in range(1, length + 1)
    ]
    # divided, not multiplied by 1/discount, which would change the float bits
    return Kernel(0.0, lambda total, r, g: total + gains[g] / discounts[r], lambda s: s)


def _rbp(p: Fraction, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1-p)/g(top) * sum of p^(r-1) * g(r); exact for rational p."""
    _, gains = _gain_numerators(scheme)
    weight, den = _weights(p ** (r - 1) for r in range(1, length + 1))
    # (1-p)/top * A/(D * den) with top = gains[-1]/D
    factor = (1 - p) / (gains[-1] * den)
    return _additive(gains, weight, lambda s: (s * factor.numerator, factor.denominator))


def _bpref(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of 1 - (r - count(r))/R."""
    r_total = universe.total_relevant
    if r_total == 0:
        raise UndefinedValueError(reason="R = 0")

    def step(s, r, g):
        if not g:
            return s
        c = s[0] + 1
        return c, s[1] + r_total - r + c

    return Kernel((0, 0), step, lambda s: (s[1], r_total * r_total))


def _nxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(r) at the cutoff rank."""
    _check_padded(cutoff, universe, length)
    return _gain_over_ideal(cutoff, min(cutoff, universe.total_relevant), scheme, length)


def _manxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Mean of cg(j)/cig(j) for j up to the cutoff.

    The gain at rank r counts in cg(j) for each j from r to the cutoff, so
    its weight is the suffix sum of 1/cig(j); ranks padded up to the cutoff
    have the lowest grade and add nothing.
    """
    _check_padded(cutoff, universe, length)
    r_total = universe.total_relevant
    _, gains = _gain_numerators(scheme)
    # cig(j) = top * min(j, R), with top in the total; with R = 0 finish
    # raises before the weights are read
    inverse, den = _weights(Fraction(1, max(1, min(j, r_total))) for j in range(1, cutoff + 1))
    suffix = list(accumulate(reversed(inverse[1:])))[::-1]  # suffix[r - 1]: j from r to cutoff
    weight = [0] + suffix[:length] + [0] * (length - cutoff)
    total = den * gains[-1] * cutoff

    def finish(s):
        if r_total == 0:
            raise UndefinedValueError(reason="no relevant in universe")
        return s, total

    return _additive(gains, weight, finish)


def _gr_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(L): prefix gain against the full-length ideal gain."""
    _check_padded(cutoff, universe, length)
    ideal_count = min(max(length, cutoff), universe.total_relevant)
    return _gain_over_ideal(cutoff, ideal_count, scheme, length)


@lru_cache(maxsize=256)
def _bound(bind, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    return bind(scheme, universe, length)


# ---------------------------------------------------------------------------
# Expected search length over a leveled output
# ---------------------------------------------------------------------------


def _expected_search_length(out: LeveledOutput) -> tuple[int, int]:
    """Nonrelevant documents passed before the need is met.

    The final level is the first level at which the cumulative relevant
    count reaches the need; within it, document order is uniformly random,
    so it contributes i*s/(t+1) on top of the j nonrelevant documents in
    the preceding levels.
    """
    out.require_satisfiable()
    passed = 0
    remaining = out.need
    for rel, non in out.levels:
        if rel >= remaining:
            return passed * (rel + 1) + non * remaining, rel + 1
        remaining -= rel
        passed += non
    raise AssertionError("unreachable: satisfiability was checked")


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
    # the raw result (num, den) or float: of a leveled output, of a set or user
    # element's four counts, or for rank measures the fold's binder
    fn: Callable

    def evaluate(self, element, universe: Optional[Universe] = None) -> Value:
        """The value on one element; a ranking is evaluated against a universe.

        A rank measure runs its fold over the ranking, rank by rank.  This
        is where a raw result becomes a value.  An ``UndefinedValueError``
        is raised with this measure's id and the element's display form.
        """
        try:
            if self.family == "ranking":
                if universe is None:
                    raise ParameterError(f"measures: {self.id} needs a universe")
                check_consistent(element, universe)
                state, step, finish = _bound(self.fn, element.scheme, universe, element.length)
                index = element.scheme.labels.index
                for r, label in enumerate(element.items, 1):
                    state = step(state, r, index(label))
                result = finish(state)
            elif self.family == "leveled":
                result = self.fn(element)
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

    A plain measure's ``make`` is its raw function or fold binder.  A
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
    if b <= 1:
        raise ParameterError("measures: dcg base must be greater than 1")
    try:
        return partial(_dcg, float(b))
    except OverflowError:
        raise ParameterError("measures: dcg base is beyond the float range") from None


def _utility_of(**weights: Fraction) -> Callable:
    for name, w in weights.items():
        if w <= 0:
            raise ParameterError(f"measures: utility weight {name} must be positive")
    return partial(_utility, **weights)


def _rbp_of(p: Fraction) -> Callable:
    if not 0 < p < 1:
        raise ParameterError("measures: rbp persistence p must lie strictly in (0, 1)")
    return partial(_rbp, p)


_SET, _USER, _RANK = "contingency", "user", "ranking"

# Keyed by id grammar, in the order list-measures prints.
_MEASURES: dict[str, _Row] = {
    "accuracy": _Row("classification accuracy", _SET,
                     lambda tp, fp, fn, tn: _ratio(tp + tn, tp + fp + fn + tn)),
    "error-rate": _Row("error rate", _SET,
                       lambda tp, fp, fn, tn: _ratio(fp + fn, tp + fp + fn + tn)),
    "f-measure": _Row("F-measure", _SET, _f_measure),
    "fallout": _Row("fallout", _SET, lambda tp, fp, fn, tn: _ratio(fp, fp + tn)),
    "fdr": _Row("false discovery rate", _SET, lambda tp, fp, fn, tn: _ratio(fp, fp + tp)),
    "for": _Row("false omission rate", _SET, lambda tp, fp, fn, tn: _ratio(fn, fn + tn)),
    "generality": _Row("generality", _SET,
                       lambda tp, fp, fn, tn: _ratio(tp + fn, tp + fp + fn + tn)),
    "inverse-precision": _Row("inverse precision", _SET,
                              lambda tp, fp, fn, tn: _ratio(tn, fn + tn)),
    "inverse-recall": _Row("inverse recall", _SET, lambda tp, fp, fn, tn: _ratio(tn, fp + tn)),
    "miss-rate": _Row("miss rate", _SET, lambda tp, fp, fn, tn: _ratio(fn, tp + fn)),
    "precision": _Row("precision", _SET, lambda tp, fp, fn, tn: _ratio(tp, tp + fp)),
    "recall": _Row("recall", _SET, lambda tp, fp, fn, tn: _ratio(tp, tp + fn)),
    "specificity": _Row("specificity", _SET, lambda tp, fp, fn, tn: _ratio(tn, tn + fp)),
    "utility?": _Row("utility", _SET, _utility_of, params=("alpha", "beta", "gamma", "delta")),
    # user rows take (U, R_k, R_u, A)
    "coverage-ratio": _Row("coverage ratio", _USER, lambda u, rk, ru, a: _ratio(rk, u)),
    "novelty-ratio": _Row("novelty ratio", _USER,  # R_u / (R_u + R_k)
                          lambda u, rk, ru, a: _ratio(ru, ru + rk, "no relevant retrieved")),
    "recall-effort": _Row("recall effort", _USER, lambda u, rk, ru, a: _ratio(u, a)),
    "retrieval-recall": _Row("retrieval recall", _USER,  # can exceed 1
                             lambda u, rk, ru, a: _ratio(rk + ru, u)),
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
    "esl": _Row("expected search length", "leveled", _expected_search_length),
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
