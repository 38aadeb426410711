"""The rank-measure folds, checked two ways.

* Against the measures' formulas written out with ``Fraction`` prefix sums
  (``reference`` below): ``Measure.evaluate`` must give the same exact
  values and bit-equal floats on rankings up to length 12.
* The prefix-sharing domain walk against per-element evaluation:
  ``classify`` and ``induced_order`` evaluate a rankings domain with one
  pruned walk per length (``Domain.evaluators``), stopped at the fold's
  horizon, which must give the same labels, values, undefined elements,
  errors and verdicts as ``Measure.evaluate`` over ``enumerate_domain``.
"""

import math
import random
from fractions import Fraction
from itertools import accumulate, islice, repeat

import pytest

import summary_reference
from metriclass.enumeration import ElementOrder, element_to_str, enumerate_domain, parse_domain
from metriclass.errors import ConstraintError, ParameterError, UndefinedValueError
from metriclass.intrinsic import _Keyed, classify, induced_order, order_values
from metriclass.measures import fold, measure_from_id
from metriclass.model import GradeScheme, Ranking, Universe
from metriclass.values import Exact, as_value

RANK_IDS = (
    "r-precision", "r-wp", "r-measure", "sr", "msr", "rnorm", "pnorm", "ap", "awp",
    "q-measure", "rr", "bpref",
    "prec@2", "recall@2", "nxcg@3", "manxcg@3", "gr@3",
    "dcg?b=2", "rbp?p=1/2",
)

DOMAINS = (
    "binary:L=1..4",                       # several lengths; cutoffs beyond L abort
    "binary:L=2..4",
    "graded:levels=3,L=3",
    "binary:L=5,R=2",                      # R < L
    "binary:L=5,R=3,rel=2",                # exact relevant count
    "binary:L=2..3,R=5,N=8",               # R > L: the R-family pads
    "graded:levels=3,L=2..3,R=2,N=5,seed=7",
    "binary:L=3,R=1,N=3,rel=1",            # N = L
    "binary:L=2,R=1,N=2",                  # nxcg@3 pads past N
    "binary:L=3,R=0",                      # R = 0: undefined almost everywhere
)


def gain_at(ranking, r):
    """Gain of the document at 1-based rank r."""
    return ranking.scheme.gains[ranking.scheme.labels.index(ranking.items[r - 1])]


def padded(ranking, length):
    """The ranking extended with the lowest grade up to ``length`` (unchanged if long enough)."""
    pad = (ranking.scheme.labels[0],) * max(0, length - ranking.length)
    return Ranking(ranking.scheme, ranking.items + pad)


def prefix_sums(ranking, universe):
    """isrel, count, cg and cig per rank; the ideal lists R top-grade documents first."""
    scheme = ranking.scheme
    gains = [gain_at(ranking, r) for r in range(1, ranking.length + 1)]
    ideal = [scheme.gains[-1] if k < universe.total_relevant else Fraction(0)
             for k in range(ranking.length)]
    isrel = [g > 0 for g in gains]
    count = list(accumulate(map(int, isrel)))
    return isrel, count, list(accumulate(gains)), list(accumulate(ideal))


def reference(measure_id, ranking, universe):
    """The measure's formula evaluated directly; None where it is undefined."""
    big_r, length, top = universe.total_relevant, ranking.length, ranking.scheme.gains[-1]
    base, _, param = measure_id.partition("?")
    base, _, cutoff = base.partition("@")
    k = int(cutoff) if cutoff else None
    if base in ("r-precision", "r-wp", "r-measure"):
        if big_r == 0:
            return None
        _, count, cg, cig = prefix_sums(padded(ranking, big_r), universe)
        return {"r-precision": Fraction(count[big_r - 1], big_r),
                "r-wp": cg[big_r - 1] / cig[big_r - 1],
                "r-measure": (cg[big_r - 1] + count[big_r - 1]) / (cig[big_r - 1] + big_r)}[base]
    if base in ("nxcg", "manxcg", "gr"):
        if big_r == 0:
            return None
        _, _, cg, cig = prefix_sums(padded(ranking, k), universe)
        return {"nxcg": cg[k - 1] / cig[k - 1],
                "manxcg": sum(cg[j] / cig[j] for j in range(k)) / k,
                "gr": cg[k - 1] / cig[-1]}[base]
    isrel, count, cg, cig = prefix_sums(ranking, universe)
    ranks = [r for r in range(1, length + 1) if isrel[r - 1]]
    if base == "prec":
        return cg[k - 1] / k
    if base == "rr":
        return Fraction(1, ranks[0]) if ranks else Fraction(0)
    if base == "dcg":
        b = float(Fraction(param.partition("=")[2]))
        tot = 0.0
        for r in range(1, length + 1):
            disc = math.log2(r) if b == 2 else math.log(r) / math.log(b)
            tot += float(gain_at(ranking, r)) / max(1.0, disc)
        return tot
    if base == "rbp":
        p = Fraction(param.partition("=")[2])
        return (1 - p) / top * sum(p ** (r - 1) * gain_at(ranking, r)
                                   for r in range(1, length + 1))
    if big_r == 0:
        return None
    if base == "recall":
        return cg[k - 1] / (top * big_r)
    if base == "sr":
        return cg[-1] / cig[-1]
    if base == "msr":
        ideal = sum(top / r for r in range(1, min(length, big_r) + 1))
        return sum(gain_at(ranking, r) / r for r in range(1, length + 1)) / ideal
    if base in ("rnorm", "pnorm"):
        if big_r >= length:
            return None
        if base == "rnorm":
            return 1 - Fraction(sum(ranks) - big_r * (big_r + 1) // 2, big_r * (length - big_r))
        # log r added in rank order with +, as the fold adds it
        log_sum = best = 0.0
        for r in ranks:
            log_sum += math.log(r)
        for r in range(1, big_r + 1):
            best += math.log(r)
        return 1 - (log_sum - best) / math.log(math.comb(length, big_r))
    if base == "ap":
        return sum(Fraction(count[r - 1], r) for r in ranks) / big_r
    if base == "awp":
        return sum((cg[r - 1] / cig[r - 1] for r in ranks), Fraction(0))
    if base == "q-measure":
        return sum((cg[r - 1] + count[r - 1]) / (cig[r - 1] + r) for r in ranks) / big_r
    if base == "bpref":
        return sum(1 - Fraction(r - count[r - 1], big_r) for r in ranks) / big_r
    raise AssertionError(measure_id)


SCHEMES = (
    GradeScheme.binary(),
    GradeScheme.equispaced(3),
    GradeScheme.equispaced(5),
    GradeScheme(("a", "b", "c"), (Fraction(0), Fraction(2, 3), Fraction(5, 2))),
)


@pytest.mark.parametrize("measure_id", RANK_IDS + ("prec@7", "nxcg@9", "manxcg@11", "gr@10",
                                                   "dcg?b=3/2", "rbp?p=9/10"))
def test_fold_equals_the_formula(measure_id):
    measure = measure_from_id(measure_id)
    rng = random.Random(measure_id)
    # prec@k and recall@k need k <= L; the other cutoffs pad shorter rankings
    shortest = int(measure_id.partition("@")[2]) if measure_id[:4] in ("prec", "reca") else 1
    for scheme in SCHEMES:
        for _ in range(40):
            length = rng.randint(shortest, 12)
            items = tuple(rng.choice(scheme.labels) for _ in range(length))
            ranking = Ranking(scheme, items)
            relevant = ranking.relevant_count
            for big_r in sorted({relevant, relevant + 1, relevant + 5, 0}):
                if big_r < relevant:
                    continue
                universe = Universe(max(length, big_r) + 12, big_r)
                expected = reference(measure_id, ranking, universe)
                try:
                    got = measure.evaluate(ranking, universe)
                except UndefinedValueError:
                    got = None
                if expected is None or got is None:
                    assert expected is None and got is None, (measure_id, items, big_r)
                elif isinstance(got, Exact):
                    assert got.rational == expected, (measure_id, items, big_r)
                else:
                    assert got.real.hex() == expected.hex(), (measure_id, items, big_r)


# the reason each rank measure gives, when it is bound, for a universe with R = 0;
# prec@, rr, dcg and rbp are defined there
R_ZERO_REASONS = {
    **dict.fromkeys(("r-precision", "r-wp", "r-measure", "ap", "awp", "q-measure", "bpref"),
                    "R = 0"),
    **dict.fromkeys(("sr", "msr", "recall@2", "nxcg@3", "manxcg@3", "gr@3"),
                    "no relevant in universe"),
    **dict.fromkeys(("rnorm", "pnorm"), "requires 0 < R < L"),
}


@pytest.mark.parametrize("measure_id", RANK_IDS)
def test_binding_finds_r_zero_undefined(measure_id):
    bind, reason = measure_from_id(measure_id).fn, R_ZERO_REASONS.get(measure_id)
    for scheme in SCHEMES:
        for length in (3, 4):
            universe = Universe(length + 2, 0)
            if reason is None:
                bind(scheme, universe, length)
                continue
            with pytest.raises(UndefinedValueError) as info:
                bind(scheme, universe, length)
            assert info.value.reason == reason


@pytest.mark.parametrize("measure_id", RANK_IDS)
def test_finish_never_raises_and_no_step_past_the_horizon_changes_the_state(measure_id):
    bind = measure_from_id(measure_id).fn
    for text in ("binary:L=1..4", "graded:levels=3,L=1..3", "binary:L=4,R=2"):
        spec = parse_domain(text)
        for ranking in enumerate_domain(spec):
            try:
                kernel = bind(ranking.scheme, spec.universe, ranking.length)
            except (ParameterError, UndefinedValueError):
                continue  # a cutoff past L, or R >= L for rnorm and pnorm
            grades = list(map(ranking.scheme.labels.index, ranking.items))
            result = fold(kernel, grades)
            for r in range(kernel.horizon, ranking.length):  # any grades past the horizon
                for g in range(ranking.scheme.size):
                    changed = grades[:r] + [g] * (ranking.length - r)
                    assert fold(kernel, changed) == result, (measure_id, ranking.items, r)
            if kernel.kind == "sum" and kernel.finish.__class__ is int:
                assert not any(map(any, kernel.per_rank[kernel.horizon + 1:]))


@pytest.mark.parametrize("measure_id, horizon", [
    ("prec@2", 2), ("recall@2", 2), ("nxcg@3", 3), ("manxcg@3", 3), ("gr@3", 3),
    ("r-precision", 2), ("r-wp", 2), ("r-measure", 2),
    ("ap", 5), ("msr", 5), ("rr", 5), ("dcg?b=2", 5), ("rbp?p=1/2", 5), ("q-measure", 5),
])
def test_horizon_is_the_last_rank_of_nonzero_weight(measure_id, horizon):
    kernel = measure_from_id(measure_id).fn(GradeScheme.binary(), Universe(9, 2), 5)
    assert kernel.horizon == horizon


def per_element(measure, spec):
    pairs = []
    for element in enumerate_domain(spec):
        try:
            value = measure.evaluate(element, spec.universe)
        except UndefinedValueError:
            value = None
        pairs.append((element_to_str(element), value))
    return pairs


def walked(measure, spec):
    """``(label, value or None)`` per element from the domain walk, in position order.

    A run gives its value to each of the k elements it stands for; a key
    is decoded under the domain's certificate.
    """
    order = ElementOrder(spec)
    keyed = _Keyed(bound=spec.certificate(measure))
    pairs = []
    labels = spec.labels()
    for stream, runs in spec.evaluators(measure):
        for key, k in stream if runs else zip(stream, repeat(1)):
            value = None if key is None else as_value(keyed.result(key))
            pairs.extend(zip(islice(labels, k), repeat(value)))
    return list(order.arrange(pairs))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ParameterError, ConstraintError) as exc:
        return "error", type(exc)


def same_value(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, Exact):
        return isinstance(b, Exact) and a.rational == b.rational
    return not isinstance(b, Exact) and a.real.hex() == b.real.hex()


@pytest.mark.parametrize("measure_id", RANK_IDS)
def test_walk_equals_per_element_evaluation(measure_id):
    measure = measure_from_id(measure_id)
    for text in DOMAINS:
        spec = parse_domain(text)
        expected = outcome(per_element, measure, spec)
        got = outcome(walked, measure, spec)
        assert got[0] == expected[0], (measure_id, text, got, expected)
        if got[0] == "error":
            assert got[1] is expected[1], (measure_id, text)
            continue
        assert [label for label, _ in got[1]] == [label for label, _ in expected[1]]
        for (label, a), (_, b) in zip(got[1], expected[1]):
            assert same_value(a, b), (measure_id, text, label, a, b)


@pytest.mark.parametrize("measure_id", ("ap", "pnorm", "rbp?p=1/2", "manxcg@3"))
def test_induced_order_matches_per_element_order(measure_id):
    measure = measure_from_id(measure_id)
    spec = parse_domain("graded:levels=3,L=3..4,R=3,N=7,seed=5")
    ordered = induced_order(measure, spec)
    reference = order_values(per_element(measure, spec))
    assert ordered.labels == reference.labels
    assert ordered.excluded == reference.excluded
    defined = [i for i in range(len(ordered.labels)) if i not in ordered.excluded]
    class_of, reference_class_of = (
        {i: ci for ci, members in enumerate(o.members) for i in members}
        for o in (ordered, reference)
    )
    assert [class_of[i] for i in defined] == [reference_class_of[i] for i in defined]
    assert ordered.members == reference.members
    assert classify(measure, spec) == summary_reference.classify(measure, spec)


def test_errors_still_abort_the_walk():
    for walk in (induced_order, classify):
        with pytest.raises(ParameterError):
            walk(measure_from_id("prec@5"), parse_domain("binary:L=1..4"))
        with pytest.raises(ConstraintError):  # nxcg@3 pads length-2 rankings past N=2
            walk(measure_from_id("nxcg@3"), parse_domain("binary:L=2,R=1,N=2"))


def test_lengths_without_elements_are_not_evaluated():
    # prec@3 cannot evaluate length 2, but rel=3 leaves no length-2 element
    measure, spec = measure_from_id("prec@3"), parse_domain("binary:L=2..4,rel=3")
    ordered = induced_order(measure, spec)
    assert ordered.labels[0] == "<1,1,1>"
    verdict = classify(measure, spec)
    assert (verdict.elements, verdict.classes) == (5, 2)
    assert verdict == summary_reference.classify(measure, spec)
