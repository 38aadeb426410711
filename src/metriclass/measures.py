"""Registry of retrieval evaluation measures.

Each measure is a pure function from a domain element to a tagged value.
Rational-formula measures run on the exact backend; only the log-bearing
ones (discounted gain, normalized log precision) use floats, with the
default tolerance from :mod:`metriclass.values`.

Rank-based measures are folds over ranks.  ``measure.fold(scheme,
universe, length)`` checks the measure's parameters against the universe
and the ranking length and returns a :class:`Kernel`: an ``init`` state,
``step(state, g)`` for the grade index ``g`` at the next rank, and
``finish(state)``, called after exactly ``length`` steps, which builds the
value.  States hold integers: the rank, the relevant count, and gain sums
as integer numerators over the scheme's common gain denominator (per-rank
rational weights share one growing denominator too), so a ``Fraction``
is made only in ``finish``.  ``dcg`` and ``pnorm`` add their float terms
rank by rank in rank order.  A value that does not exist for the universe
raises ``UndefinedValueError`` from ``fold`` or ``finish``; a bad
parameter raises ``ParameterError`` and a cutoff padded past N raises
``ConstraintError`` from ``fold``.  ``Measure.evaluate`` runs the fold
over one ranking; a domain walk (``enumeration.ranking_values``) steps it
once per prefix, so rankings that share a prefix share its state.

Measure ids are stable strings: plain (``recall``), with a rank cutoff
(``prec@4``), or with parameters (``rbp?p=1/2``, ``dcg?b=2``,
``utility?alpha=1,beta=1,gamma=1,delta=1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

from .errors import ConstraintError, ParameterError, ParseError, UndefinedValueError
from .model import (
    ContingencyTable,
    GradeScheme,
    LeveledOutput,
    Ranking,
    Universe,
    UserContext,
    check_consistent,
)
from .values import DEFAULT_EPS, Approx, Exact, Value, add, exact

# ---------------------------------------------------------------------------
# Set-based measures over a contingency table
# ---------------------------------------------------------------------------


def _ratio(measure_id: str, element: str, num: int, den: int) -> Exact:
    if den == 0:
        raise UndefinedValueError(measure_id, element)
    return exact(num, den)


def recall(t: ContingencyTable) -> Exact:
    """tp / (tp + fn)"""
    return _ratio("recall", t.display(), t.tp, t.tp + t.fn)


def precision(t: ContingencyTable) -> Exact:
    """tp / (tp + fp)"""
    return _ratio("precision", t.display(), t.tp, t.tp + t.fp)


def fallout(t: ContingencyTable) -> Exact:
    """fp / (fp + tn)"""
    return _ratio("fallout", t.display(), t.fp, t.fp + t.tn)


def classification_accuracy(t: ContingencyTable) -> Exact:
    """(tp + tn) / (tp + fn + fp + tn)"""
    return _ratio("accuracy", t.display(), t.tp + t.tn, t.collection_size)


def miss_rate(t: ContingencyTable) -> Exact:
    """fn / (tp + fn)"""
    return _ratio("miss-rate", t.display(), t.fn, t.tp + t.fn)


def error_rate(t: ContingencyTable) -> Exact:
    """(fp + fn) / (tp + fn + fp + tn)"""
    return _ratio("error-rate", t.display(), t.fp + t.fn, t.collection_size)


def inverse_recall(t: ContingencyTable) -> Exact:
    """tn / (fp + tn)"""
    return _ratio("inverse-recall", t.display(), t.tn, t.fp + t.tn)


def inverse_precision(t: ContingencyTable) -> Exact:
    """tn / (fn + tn)"""
    return _ratio("inverse-precision", t.display(), t.tn, t.fn + t.tn)


def specificity(t: ContingencyTable) -> Exact:
    """tn / (tn + fp)"""
    return _ratio("specificity", t.display(), t.tn, t.tn + t.fp)


def false_discovery_rate(t: ContingencyTable) -> Exact:
    """fp / (fp + tp)"""
    return _ratio("fdr", t.display(), t.fp, t.fp + t.tp)


def false_omission_rate(t: ContingencyTable) -> Exact:
    """fn / (fn + tn)"""
    return _ratio("for", t.display(), t.fn, t.fn + t.tn)


def f_measure(t: ContingencyTable) -> Exact:
    """2 * prec * recall / (prec + recall)

    Undefined whenever precision or recall is undefined or both are zero;
    on defined tables it equals 2*tp / (2*tp + fp + fn).
    """
    p = precision(t).rational if t.tp + t.fp else None
    r = recall(t).rational if t.tp + t.fn else None
    if p is None or r is None or p + r == 0:
        raise UndefinedValueError("f-measure", t.display())
    return Exact(2 * p * r / (p + r))


def generality(t: ContingencyTable) -> Exact:
    """(tp + fn) / (tp + fn + fp + tn) -- prevalence of relevance."""
    return _ratio("generality", t.display(), t.tp + t.fn, t.collection_size)


def utility(
    t: ContingencyTable,
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
    delta: Fraction,
) -> Exact:
    """alpha*tp + beta*fn + gamma*fp + delta*tn with positive user weights."""
    for name, w in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if w <= 0:
            raise ParameterError(f"measures: utility weight {name} must be positive")
    return Exact(alpha * t.tp + beta * t.fn + gamma * t.fp + delta * t.tn)


# ---------------------------------------------------------------------------
# User-oriented measures
# ---------------------------------------------------------------------------


def coverage_ratio(c: UserContext) -> Exact:
    """R_k / U"""
    return exact(c.retrieved_known, c.known_relevant)


def retrieval_recall(c: UserContext) -> Exact:
    """(R_k + R_u) / U -- can exceed 1 when unknown relevant turn up."""
    return exact(c.retrieved_known + c.retrieved_unknown, c.known_relevant)


def novelty_ratio(c: UserContext) -> Exact:
    """R_u / (R_u + R_k)"""
    den = c.retrieved_unknown + c.retrieved_known
    if den == 0:
        raise UndefinedValueError("novelty-ratio", c.display(), "no relevant retrieved")
    return exact(c.retrieved_unknown, den)


def recall_effort(c: UserContext) -> Exact:
    """U / A"""
    return exact(c.known_relevant, c.retrieved_total)


# ---------------------------------------------------------------------------
# Rank-based measures over (ranking, universe), as folds over ranks
# ---------------------------------------------------------------------------


class Kernel(NamedTuple):
    """A rank measure's fold, bound to one grade scheme, universe and length.

    ``step(state, g)`` consumes the grade index ``g`` of the next rank and
    returns a new state; states are immutable tuples of integers (floats for
    the log-bearing measures), so one prefix state can be extended by every
    sibling grade.  ``finish`` is called after exactly ``length`` steps.
    """

    init: tuple
    step: Callable[[tuple, int], tuple]
    finish: Callable[[tuple], Value]


@lru_cache(maxsize=64)
def _gain_numerators(scheme: GradeScheme) -> tuple[int, tuple[int, ...]]:
    """The common denominator D of the gains and each gain's numerator over D."""
    den = math.lcm(*(g.denominator for g in scheme.gains))
    return den, tuple(int(g * den) for g in scheme.gains)


def _weights(coefficients) -> tuple[list[int], list[int], list[int]]:
    """Tables that keep ``sum_r c_r * x_r`` as one integer numerator.

    With ``den[r]`` the lcm of the denominators of ``c_1..c_r``, the sum up
    to rank r is ``A_r / den[r]`` where
    ``A_r = A_{r-1} * scale[r] + x_r * weight[r]``.  Index 0 is the empty sum.
    """
    scale, weight, den = [1], [0], [1]
    for c in coefficients:
        c = Fraction(c)
        m = math.lcm(den[-1], c.denominator)
        scale.append(m // den[-1])
        weight.append(c.numerator * (m // c.denominator))
        den.append(m)
    return scale, weight, den


def _undefined(measure_id: str, reason: str) -> UndefinedValueError:
    # the element is filled in by evaluate_ranking; walks only need the type
    return UndefinedValueError(measure_id, "", reason)


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


def _prefix_gain(gains: tuple[int, ...], cutoff: int):
    """Step over state (rank, gain numerator) that stops accumulating after ``cutoff``."""

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] + gains[g]) if r <= cutoff else (r, s[1])

    return step


def _prec_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / r at the cutoff rank."""
    _check_cutoff(cutoff, length)
    den, gains = _gain_numerators(scheme)
    return Kernel((0, 0), _prefix_gain(gains, cutoff),
                  lambda s: Exact(Fraction(s[1], den * cutoff)))


def _recall_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) over the total ideal gain; cg(r)/R in the binary case."""
    _check_cutoff(cutoff, length)
    _, gains = _gain_numerators(scheme)
    total = gains[-1] * universe.total_relevant
    if total == 0:
        raise _undefined(f"recall@{cutoff}", "no relevant in universe")
    return Kernel((0, 0), _prefix_gain(gains, cutoff), lambda s: Exact(Fraction(s[1], total)))


def _r_family(measure_id: str, finish):
    """Fold of count(R) and cg(R), padding with the lowest grade when L < R.

    ``finish(count, gain numerator, R, D, top gain numerator)`` makes the value.
    """

    def bind(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
        r_total = universe.total_relevant
        if r_total == 0:
            raise _undefined(measure_id, "R = 0")
        den, gains = _gain_numerators(scheme)

        def step(s, g):
            r = s[0] + 1
            if r > r_total:  # only ranks 1..R count; padding up to R adds zero gain
                return (r, s[1], s[2])
            return (r, s[1] + (g > 0), s[2] + gains[g])

        return Kernel((0, 0, 0), step,
                      lambda s: Exact(finish(s[1], s[2], r_total, den, gains[-1])))

    return bind


_r_precision = _r_family("r-precision", lambda c, cg, r, den, top: Fraction(c, r))
_r_precision.__doc__ = "count(R) / R; the ranking is padded with the lowest grade if L < R."
_r_wp = _r_family("r-wp", lambda c, cg, r, den, top: Fraction(cg, top * r))
_r_wp.__doc__ = "cg(R) / cig(R)"
_r_measure = _r_family("r-measure",
                       lambda c, cg, r, den, top: Fraction(cg + den * c, (top + den) * r))
_r_measure.__doc__ = "(cg(R) + count(R)) / (cig(R) + R)"


def _sr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(L) / cig(L)"""
    _, gains = _gain_numerators(scheme)
    ideal = gains[-1] * min(length, universe.total_relevant)

    def finish(s):
        if ideal == 0:
            raise _undefined("sr", "no relevant in universe")
        return Exact(Fraction(s[1], ideal))

    return Kernel((0, 0), _prefix_gain(gains, length), finish)


def _msr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Rank-weighted sliding ratio: sum g(r)/r over sum ig(r)/r."""
    _, gains = _gain_numerators(scheme)
    scale, weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    harmonic = sum((Fraction(1, r) for r in range(1, min(length, universe.total_relevant) + 1)),
                   Fraction(0))
    ideal = gains[-1] * harmonic  # sum ig(r)/r, over the same gain denominator

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] * scale[r] + gains[g] * weight[r])

    def finish(s):
        if ideal == 0:
            raise _undefined("msr", "no relevant in universe")
        return Exact(Fraction(s[1] * ideal.denominator, den[-1] * ideal.numerator))

    return Kernel((0, 0), step, finish)


def _check_rocchio(measure_id: str, universe: Universe, length: int) -> int:
    r = universe.total_relevant
    if r == 0 or r >= length:
        raise _undefined(measure_id, "requires 0 < R < L")
    return r


def _rnorm(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """1 - (sum of relevant ranks - sum of 1..R) / (R * (L - R))"""
    r_total = _check_rocchio("rnorm", universe, length)
    span = r_total * (length - r_total)
    best = r_total * (r_total + 1) // 2

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] + r) if g else (r, s[1])

    return Kernel((0, 0), step, lambda s: Exact(Fraction(span - s[1] + best, span)))


def _pnorm(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Log-weighted variant of normalized recall (float backend)."""
    r_total = _check_rocchio("pnorm", universe, length)
    logs = [0.0] + [math.log(k) for k in range(1, length + 1)]
    best = sum(math.log(k) for k in range(1, r_total + 1))
    den = math.log(math.comb(length, r_total))

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] + logs[r]) if g else (r, s[1])

    # the log sum starts at int 0, as sum() does, so the floats match it bit for bit
    return Kernel((0, 0), step, lambda s: Approx(1 - (s[1] - best) / den))


def _ap(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of count(r)/r."""
    r_total = universe.total_relevant
    if r_total == 0:
        raise _undefined("ap", "R = 0")
    scale, weight, den = _weights(Fraction(1, r) for r in range(1, length + 1))
    total = den[-1] * r_total

    def step(s, g):
        r = s[0] + 1
        if g:
            c = s[1] + 1
            return (r, c, s[2] * scale[r] + c * weight[r])
        return (r, s[1], s[2] * scale[r])

    return Kernel((0, 0, 0), step, lambda s: Exact(Fraction(s[2], total)))


def _awp(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum over relevant ranks of cg(r)/cig(r) (no 1/R factor)."""
    r_total = universe.total_relevant
    _, gains = _gain_numerators(scheme)
    # cig(r) = top * min(r, R); with R = 0 finish raises before the tables are read
    scale, weight, den = _weights(
        Fraction(1, max(1, min(r, r_total))) for r in range(1, length + 1)
    )
    total = den[-1] * gains[-1]

    def step(s, g):
        r = s[0] + 1
        cg = s[1] + gains[g]
        return (r, cg, s[2] * scale[r] + cg * weight[r]) if g else (r, cg, s[2] * scale[r])

    def finish(s):
        if r_total == 0:
            raise _undefined("awp", "R = 0")
        return Exact(Fraction(s[2], total))

    return Kernel((0, 0, 0), step, finish)


def _q_measure(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of (cg(r)+count(r)) / (cig(r)+r)."""
    r_total = universe.total_relevant
    if r_total == 0:
        raise _undefined("q-measure", "R = 0")
    den, gains = _gain_numerators(scheme)
    top = gains[-1]
    scale, weight, dens = _weights(
        Fraction(1, top * min(r, r_total) + den * r) for r in range(1, length + 1)
    )
    total = dens[-1] * r_total

    def step(s, g):
        r = s[0] + 1
        cg = s[2] + gains[g]
        if g:
            c = s[1] + 1
            return (r, c, cg, s[3] * scale[r] + (cg + den * c) * weight[r])
        return (r, s[1], cg, s[3] * scale[r])

    return Kernel((0, 0, 0, 0), step, lambda s: Exact(Fraction(s[3], total)))


def _rr(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """1 over the rank of the first relevant document, 0 if none."""
    values = [exact(0)] + [exact(1, r) for r in range(1, length + 1)]

    def step(s, g):
        r = s[0] + 1
        return (r, r) if g and not s[1] else (r, s[1])

    return Kernel((0, 0), step, lambda s: values[s[1]])


def _dcg(base: float, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Sum of g(r) / max(1, log_base r) -- float backend."""
    if base <= 1:
        raise ParameterError("measures: dcg base must be greater than 1")
    gains = [float(g) for g in scheme.gains]
    discounts = [1.0] + [
        max(1.0, math.log2(r) if base == 2 else math.log(r) / math.log(base))
        for r in range(1, length + 1)
    ]

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] + gains[g] / discounts[r])

    return Kernel((0, 0.0), step, lambda s: Approx(s[1]))


def _rbp(p: Fraction, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1-p)/g(top) * sum of p^(r-1) * g(r); exact for rational p."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ParameterError("measures: rbp persistence p must lie strictly in (0, 1)")
    _, gains = _gain_numerators(scheme)
    scale, weight, den = _weights(p ** (r - 1) for r in range(1, length + 1))
    # (1-p)/top * A/(D * den) with top = gains[-1]/D
    factor = (1 - p) / (gains[-1] * den[-1])

    def step(s, g):
        r = s[0] + 1
        return (r, s[1] * scale[r] + gains[g] * weight[r])

    return Kernel((0, 0), step,
                  lambda s: Exact(Fraction(s[1] * factor.numerator, factor.denominator)))


def _bpref(scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """(1/R) * sum over relevant ranks of 1 - (r - count(r))/R."""
    r_total = universe.total_relevant
    if r_total == 0:
        raise _undefined("bpref", "R = 0")

    def step(s, g):
        r = s[0] + 1
        if g:
            c = s[1] + 1
            return (r, c, s[2] + r_total - r + c)
        return (r, s[1], s[2])

    return Kernel((0, 0, 0), step, lambda s: Exact(Fraction(s[2], r_total * r_total)))


def _nxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(r) at the cutoff rank."""
    _check_padded(cutoff, universe, length)
    _, gains = _gain_numerators(scheme)
    ideal = gains[-1] * min(cutoff, universe.total_relevant)

    def finish(s):
        if ideal == 0:
            raise _undefined(f"nxcg@{cutoff}", "no relevant in universe")
        return Exact(Fraction(s[1], ideal))

    return Kernel((0, 0), _prefix_gain(gains, cutoff), finish)


def _manxcg_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """Mean of cg(j)/cig(j) for j up to the cutoff."""
    _check_padded(cutoff, universe, length)
    r_total = universe.total_relevant
    _, gains = _gain_numerators(scheme)
    # cig(j) = top * min(j, R); with R = 0 finish raises before the tables are read
    scale, weight, den = _weights(
        Fraction(1, max(1, min(j, r_total))) if j <= cutoff else 0
        for j in range(1, max(length, cutoff) + 1)
    )
    total = den[-1] * gains[-1] * cutoff

    def step(s, g):
        r = s[0] + 1
        cg = s[1] + gains[g]
        return (r, cg, s[2] * scale[r] + cg * weight[r])

    def finish(s):
        if r_total == 0:
            raise _undefined(f"manxcg@{cutoff}", "no relevant in universe")
        while s[0] < cutoff:  # pad with the lowest grade
            s = step(s, 0)
        return Exact(Fraction(s[2], total))

    return Kernel((0, 0, 0), step, finish)


def _gr_at(cutoff: int, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    """cg(r) / cig(L): prefix gain against the full-length ideal gain."""
    _check_padded(cutoff, universe, length)
    _, gains = _gain_numerators(scheme)
    ideal = gains[-1] * min(max(length, cutoff), universe.total_relevant)

    def finish(s):
        if ideal == 0:
            raise _undefined(f"gr@{cutoff}", "no relevant in universe")
        return Exact(Fraction(s[1], ideal))

    return Kernel((0, 0), _prefix_gain(gains, cutoff), finish)


@lru_cache(maxsize=256)
def _bound(bind, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
    return bind(scheme, universe, length)


def evaluate_ranking(bind, ranking: Ranking, universe: Universe) -> Value:
    """Run a rank measure's fold over one ranking, rank by rank."""
    try:
        kernel = _bound(bind, ranking.scheme, universe, ranking.length)
        check_consistent(ranking, universe)
        state, step, index = kernel.init, kernel.step, ranking.scheme.labels.index
        for label in ranking.items:
            state = step(state, index(label))
        return kernel.finish(state)
    except UndefinedValueError as exc:
        raise UndefinedValueError(exc.measure_id, ranking.display(), exc.reason) from None


def _on_ranking(bind):
    """Plain function ``f(*params, ranking, universe)`` over a measure's fold."""

    def evaluate(*args):
        *params, ranking, universe = args
        return evaluate_ranking(partial(bind, *params) if params else bind, ranking, universe)

    evaluate.__doc__ = bind.__doc__
    return evaluate


precision_at = _on_ranking(_prec_at)
recall_at = _on_ranking(_recall_at)
r_precision = _on_ranking(_r_precision)
r_weighted_precision = _on_ranking(_r_wp)
r_measure = _on_ranking(_r_measure)
sliding_ratio = _on_ranking(_sr)
modified_sliding_ratio = _on_ranking(_msr)
normalized_recall = _on_ranking(_rnorm)
normalized_precision = _on_ranking(_pnorm)
average_precision = _on_ranking(_ap)
average_weighted_precision = _on_ranking(_awp)
q_measure = _on_ranking(_q_measure)
reciprocal_rank = _on_ranking(_rr)
discounted_cumulative_gain = _on_ranking(_dcg)
rank_biased_precision = _on_ranking(_rbp)
bpref = _on_ranking(_bpref)
nxcg_at = _on_ranking(_nxcg_at)
manxcg_at = _on_ranking(_manxcg_at)
gain_recall_at = _on_ranking(_gr_at)


# ---------------------------------------------------------------------------
# Expected search length over a leveled output
# ---------------------------------------------------------------------------


def expected_search_length(out: LeveledOutput) -> Exact:
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
            return Exact(passed + Fraction(non * remaining, rel + 1))
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

AGGREGATE_KINDS = ("map", "gmap", "err-mean", "manxcg-mean")


def _nth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n, or None."""
    if n == 0:
        return 0
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == n:
            return cand
    return None


def aggregate(values: list[Value], kind: str) -> tuple[Value, str]:
    """Arithmetic or geometric mean plus the permissibility warning.

    The warning is attached unconditionally: collapsing per-query values
    with a mean presumes an interval scale that most rank-based measures
    do not have.
    """
    kind = kind.lower()
    if kind not in AGGREGATE_KINDS:
        raise ParameterError(f"measures: unknown aggregate kind {kind!r}")
    if not values:
        raise ParameterError("measures: aggregate of an empty value list")
    if kind in ("map", "err-mean", "manxcg-mean"):
        total: Value = exact(0)
        for v in values:
            total = add(total, v)
        if isinstance(total, Exact):
            mean: Value = Exact(total.rational / len(values))
        else:
            mean = Approx(total.real / len(values), total.eps)
        return mean, PERMISSIBILITY_WARNING
    # gmap: geometric mean, exact when the root is rational
    floats = []
    product = Fraction(1)
    all_exact = True
    for v in values:
        x = v.numeric()
        if (isinstance(v, Exact) and x <= 0) or (not isinstance(v, Exact) and float(x) <= 0):
            raise UndefinedValueError("gmap", str(x), "requires strictly positive values")
        floats.append(float(x))
        if isinstance(v, Exact):
            product *= v.rational
        else:
            all_exact = False
    q = len(values)
    if all_exact:
        rn = _nth_root(product.numerator, q)
        rd = _nth_root(product.denominator, q)
        if rn is not None and rd is not None:
            return Exact(Fraction(rn, rd)), PERMISSIBILITY_WARNING
    mean = math.exp(sum(math.log(x) for x in floats) / q)
    return Approx(mean, DEFAULT_EPS), PERMISSIBILITY_WARNING


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """A named, parameter-bound measure ready to evaluate domain elements."""

    id: str
    display: str
    family: str  # contingency | user | ranking | leveled
    backend: str  # exact | approx
    unit_range: bool  # value stays in [0,1] for gain schemes bounded by 1
    _fn: Callable  # element -> value; for rank measures the fold's binder

    def evaluate(self, element, universe: Optional[Universe] = None) -> Value:
        if self.family == "ranking":
            if universe is None:
                raise ParameterError(f"measures: {self.id} needs a universe")
            return evaluate_ranking(self._fn, element, universe)
        return self._fn(element)

    def fold(self, scheme: GradeScheme, universe: Universe, length: int) -> Kernel:
        """This rank measure's fold for rankings of one length (see module docstring)."""
        return self._fn(scheme, universe, length)

    @property
    def eps(self) -> float | None:
        return DEFAULT_EPS if self.backend == "approx" else None


_CONTINGENCY = {
    "recall": ("recall", recall, True),
    "precision": ("precision", precision, True),
    "fallout": ("fallout", fallout, True),
    "miss-rate": ("miss rate", miss_rate, True),
    "accuracy": ("classification accuracy", classification_accuracy, True),
    "error-rate": ("error rate", error_rate, True),
    "inverse-recall": ("inverse recall", inverse_recall, True),
    "inverse-precision": ("inverse precision", inverse_precision, True),
    "specificity": ("specificity", specificity, True),
    "fdr": ("false discovery rate", false_discovery_rate, True),
    "for": ("false omission rate", false_omission_rate, True),
    "f-measure": ("F-measure", f_measure, True),
    "generality": ("generality", generality, True),
}

_USER = {
    "coverage-ratio": ("coverage ratio", coverage_ratio, True),
    "retrieval-recall": ("retrieval recall", retrieval_recall, False),
    "novelty-ratio": ("novelty ratio", novelty_ratio, True),
    "recall-effort": ("recall effort", recall_effort, True),
}

# ranking measures without parameters: id -> (display, fn, unit_range, backend)
_RANKING_PLAIN = {
    "r-precision": ("R-precision", _r_precision, True, "exact"),
    "r-wp": ("R-WP", _r_wp, True, "exact"),
    "r-measure": ("R-measure", _r_measure, True, "exact"),
    "sr": ("sliding ratio", _sr, True, "exact"),
    "msr": ("modified sliding ratio", _msr, True, "exact"),
    "rnorm": ("normalized recall", _rnorm, False, "exact"),
    "pnorm": ("normalized precision", _pnorm, False, "approx"),
    "ap": ("average precision", _ap, True, "exact"),
    "awp": ("average weighted precision", _awp, False, "exact"),
    "q-measure": ("Q-measure", _q_measure, True, "exact"),
    "rr": ("reciprocal rank", _rr, True, "exact"),
    "bpref": ("bpref", _bpref, False, "exact"),
}

# cutoff measures: base id -> (display pattern, fold(cutoff, ...), unit_range)
_RANKING_CUTOFF = {
    "prec": ("Prec@{r}", _prec_at, True),
    "recall": ("recall@{r}", _recall_at, True),
    "nxcg": ("nxCG@{r}", _nxcg_at, True),
    "manxcg": ("MAnxCG@{r}", _manxcg_at, True),
    "gr": ("gain recall@{r}", _gr_at, True),
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
    base, _, param_text = measure_id.partition("?")
    params = _parse_params(param_text) if param_text else {}
    base, _, cutoff_text = base.partition("@")

    if cutoff_text:
        if base not in _RANKING_CUTOFF:
            raise ParseError(f"measures: unknown cutoff measure {base!r}")
        if params:
            raise ParseError(f"measures: {base}@r takes no ?params")
        try:
            cutoff = int(cutoff_text)
        except ValueError:
            raise ParseError(f"measures: bad cutoff {cutoff_text!r}") from None
        if cutoff < 1:
            raise ParameterError("measures: cutoff must be positive")
        display, fn, unit = _RANKING_CUTOFF[base]
        return Measure(
            id=f"{base}@{cutoff}",
            display=display.format(r=cutoff),
            family="ranking",
            backend="exact",
            unit_range=unit,
            _fn=partial(fn, cutoff),
        )

    if base in _CONTINGENCY or base in _USER:
        if params:
            raise ParseError(f"measures: {base} takes no parameters")
        table = _CONTINGENCY if base in _CONTINGENCY else _USER
        display, fn, unit = table[base]
        family = "contingency" if base in _CONTINGENCY else "user"
        return Measure(base, display, family, "exact", unit, fn)

    if base == "utility":
        missing = {"alpha", "beta", "gamma", "delta"} - set(params)
        if missing:
            raise ParameterError(f"measures: utility needs weights {sorted(missing)}")
        weights = {k: _parse_fraction(params[k]) for k in ("alpha", "beta", "gamma", "delta")}
        canon = ",".join(f"{k}={weights[k]}" for k in ("alpha", "beta", "gamma", "delta"))
        return Measure(
            id=f"utility?{canon}",
            display="utility",
            family="contingency",
            backend="exact",
            unit_range=False,
            _fn=lambda t, _w=weights: utility(t, _w["alpha"], _w["beta"], _w["gamma"], _w["delta"]),
        )

    if base == "dcg":
        if set(params) != {"b"}:
            raise ParameterError("measures: dcg needs exactly the base parameter b")
        b = float(_parse_fraction(params["b"]))
        if b <= 1:
            raise ParameterError("measures: dcg base must be greater than 1")
        return Measure(
            id=f"dcg?b={params['b']}",
            display=f"DCG (base {params['b']})",
            family="ranking",
            backend="approx",
            unit_range=False,
            _fn=partial(_dcg, b),
        )

    if base == "rbp":
        if set(params) != {"p"}:
            raise ParameterError("measures: rbp needs exactly the persistence parameter p")
        p = _parse_fraction(params["p"])
        if not 0 < p < 1:
            raise ParameterError("measures: rbp persistence p must lie strictly in (0, 1)")
        return Measure(
            id=f"rbp?p={p}",
            display=f"RBP (p={p})",
            family="ranking",
            backend="exact",
            unit_range=True,
            _fn=partial(_rbp, p),
        )

    if base in _RANKING_PLAIN:
        if params:
            raise ParseError(f"measures: {base} takes no parameters")
        display, fn, unit, backend = _RANKING_PLAIN[base]
        return Measure(base, display, "ranking", backend, unit, fn)

    if base == "esl":
        if params:
            raise ParseError("measures: esl takes no parameters")
        return Measure("esl", "expected search length", "leveled", "exact", False,
                       expected_search_length)

    raise ParseError(f"measures: unknown measure id {measure_id!r}")


def list_measure_ids() -> list[str]:
    """All registered ids; parameterized ones shown with example parameters."""
    ids = sorted(_CONTINGENCY) + ["utility?alpha=..,beta=..,gamma=..,delta=.."]
    ids += sorted(_USER)
    ids += [f"{base}@r" for base in sorted(_RANKING_CUTOFF)]
    ids += sorted(_RANKING_PLAIN) + ["dcg?b=..", "rbp?p=..", "esl"]
    return ids
