"""The one-pass value summary against the materialised path it replaced.

``classify`` keeps, per distinct attained value, its size, and the
earliest collision, and names witnesses from its positions alone; after
the first repeat of an exact value it counts in C.  ``summary_reference``
keeps every element.  Both must give the same sizes, collision and
undefined points, and the same verdict, field for field and byte for
byte, on every domain kind, with and without a seed, for exact and for
real measures.  The summary's memory must not grow with the elements.
Walks that yield settled prefixes as runs, and the row streams of
contingency and user domains, must bucket exactly as evaluating every
element does.  Where a contingency or user domain keys its classes by
certified floats, each key must turn back into the reduced pair of its
value, and the verdict must be the one the pairs give.
"""

import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import repeat
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summary_reference as reference
from metriclass import intrinsic
from metriclass.enumeration import ElementOrder, _CountTuples, cardinality, parse_domain
from metriclass.errors import MetriclassError, UndefinedValueError
from metriclass.intrinsic import (Verdict, _convergent, _gather, _Keyed, _raw, _unpack,
                                  classify, induced_order, summarize)
from metriclass.measures import list_measure_ids, measure_from_id
from metriclass.report import emit_verdict_json

MEASURES = {
    "rankings": ("ap", "awp", "rr", "msr", "sr", "rnorm", "bpref", "q-measure", "r-precision",
                 "r-wp", "r-measure", "prec@2", "recall@2", "nxcg@2", "manxcg@2", "gr@2",
                 "prec@3", "recall@3", "nxcg@3", "manxcg@3", "gr@3",
                 "rbp?p=1/2", "dcg?b=2", "dcg?b=3", "pnorm"),
    "contingency": ("recall", "precision", "f-measure", "fallout", "generality", "accuracy",
                    "utility?"),
    "user": ("coverage-ratio", "novelty-ratio", "recall-effort", "retrieval-recall"),
    "leveled": ("esl",),
}
UTILITY_WEIGHTS = ("alpha", "beta", "gamma", "delta")
HUGE_WEIGHTS = ("1e400", "1/1000000007")  # past the certificate's bound on all but tiny domains
# every set and user id, for the certified-float keys of their domains
COUNT_TUPLE_MEASURES = {
    family: (*(i for i in list_measure_ids() if "?" not in i and "@" not in i
               and measure_from_id(i).family == family),
             *(("utility?",) if family == "contingency" else ()))
    for family in ("contingency", "user")
}


@st.composite
def domain_texts(draw, kinds=tuple(sorted(MEASURES)), measures=MEASURES, size=10):
    kind = draw(st.sampled_from(kinds))
    if kind == "rankings":
        levels = draw(st.integers(2, 3))
        top = 6 if levels == 2 else 3
        lo = draw(st.integers(1, top))
        hi = draw(st.integers(lo, top))
        r = draw(st.integers(0, 5))
        n = hi + draw(st.integers(0, r + 1))
        head = "binary:" if levels == 2 else "graded:levels=3,"
        rel = draw(st.one_of(st.none(), st.integers(0, r)))
        text = f"{head}L={lo}..{hi},R={r},N={n}" + ("" if rel is None else f",rel={rel}")
    elif kind == "contingency":
        n = draw(st.integers(0, size))
        r = draw(st.integers(0, n))
        lo = draw(st.integers(0, n))
        text = f"contingency:N={n},R={r},n={lo}..{draw(st.integers(lo, n))}"
    elif kind == "user":
        text = f"user:U={draw(st.integers(1, 3))},A=1..{draw(st.integers(1, size // 2))}"
    else:
        text = f"leveled:docs={draw(st.integers(1, 6))},s={draw(st.integers(1, 3))}"
    seed = draw(st.one_of(st.none(), st.integers(0, 999)))
    text += "" if seed is None else f",seed={seed}"
    measure = draw(st.sampled_from(measures[kind]))
    if measure == "utility?":  # rational weights, so the forms are scaled by their lcm
        weights = draw(st.lists(st.fractions(Fraction(1, 10), 10, max_denominator=12),
                                min_size=4, max_size=4))
        if draw(st.booleans()):  # uncertified, so the rows yield pairs
            weights[draw(st.integers(0, 3))] = draw(st.sampled_from(HUGE_WEIGHTS))
        measure += ",".join(f"{name}={w}" for name, w in zip(UTILITY_WEIGHTS, weights))
    return measure, text, draw(st.sampled_from((200, 0, 3)))


def outcome(classify_fn, measure_id, domain, oracle_cap):
    try:
        return classify_fn(measure_from_id(measure_id), parse_domain(domain), oracle_cap)
    except MetriclassError as exc:
        # under a seed the reference evaluates in shuffled order, so an error that
        # names its length can come from another length: compare the kind only
        return type(exc)


class TestSummaryMatchesMaterialisedPath:
    @settings(max_examples=400, deadline=None)
    @given(domain_texts())
    @example(("dcg?b=2", "binary:L=1..4,R=4,N=8,seed=3", 200))
    @example(("precision", "contingency:N=6,R=2,n=0..6,seed=5", 200))
    @example(("ap", "graded:levels=3,L=2..3,R=2,N=5,seed=7", 200))
    @example(("pnorm", "binary:L=4,R=2,N=6,seed=11", 200))
    @example(("sr", "binary:L=2,R=0", 200))
    def test_every_verdict_field(self, drawn):
        expected = outcome(reference.classify, *drawn)
        got = outcome(classify, *drawn)
        if not isinstance(expected, Verdict):
            assert got is expected
            return
        assert {f.name: getattr(got, f.name) for f in fields(Verdict)} == {
            f.name: getattr(expected, f.name) for f in fields(Verdict)
        }
        assert emit_verdict_json(got) == emit_verdict_json(expected)


def element_by_element(measure, spec):
    """One element stream: ``Measure.evaluate`` on each element on its own."""
    universe = getattr(spec, "universe", None)

    def raw(element):
        try:
            return _raw(measure.evaluate(element, universe))
        except UndefinedValueError:
            return None

    yield map(raw, spec.elements()), False


def expand(walk):
    """Each element's raw result, in the walk's order: a run's once per element."""
    for stream, runs in walk:
        for v, k in stream if runs else zip(stream, repeat(1)):
            yield from repeat(v, k)


def finished(key):
    """An int, a float, or a pair in lowest terms over a positive denominator."""
    if key.__class__ is tuple:
        num, den = key
        return num.__class__ is den.__class__ is int and den > 0 and gcd(num, den) == 1
    return key.__class__ in (int, float)


class TestRunsMatchElementWalk:
    """Settled prefixes, as runs, against evaluating every element."""

    @settings(max_examples=400, deadline=None)
    @given(domain_texts())
    @example(("esl", "leveled:docs=6,s=2,seed=4", 200))
    @example(("nxcg@2", "binary:L=5,seed=1", 200))
    @example(("r-precision", "binary:L=2..6,R=2,N=8,rel=1,seed=9", 200))
    @example(("prec@3", "binary:L=2..6,R=2,N=8", 200))  # a ParameterError at length 2
    @example(("sr", "binary:L=3..5,R=0,seed=2", 200))  # each length is one undefined run
    @example(("f-measure", "contingency:N=7,R=3,n=0..7,seed=6", 200))  # an undefined run per row
    @example(("novelty-ratio", "user:U=2,A=1..4,seed=1", 200))  # undefined at R_k = 0
    @example(("precision", "contingency:N=5,R=0,n=0..5", 200))  # n = 0 is a whole undefined row
    @example(("utility?alpha=1/3,beta=5/2,gamma=7/12,delta=2", "contingency:N=6,R=2,seed=8", 200))
    # uncertified: each row reduces its pairs
    @example(("utility?alpha=1,beta=1,gamma=1,delta=1e400", "contingency:N=6,R=2", 200))
    @example(("utility?alpha=1,beta=1,gamma=1,delta=1/1000000007", "contingency:N=6,R=2,seed=3",
              200))
    @example(("coverage-ratio", "user:U=1,A=1..1", 200))  # a one-element domain
    @example(("recall", "contingency:N=3,R=0", 200))  # every row is undefined
    def test_buckets_run_lengths_and_verdict(self, drawn):
        def gather(walk):
            def split(m, s, _):  # the undefined points' bucket: its size and earliest positions
                # every element bucketed, as for reals
                groups, _ = _gather(walk(m, s), False)
                undefined = groups.pop(None, None)
                return groups, (0, ()) if undefined is None else _unpack(undefined)
            return split

        def walked(m, s, _):  # integer and certified float keys turned back into their pairs
            bound = s.certificate(m)
            groups, undefined = gather(lambda m, s: s.evaluators(m))(m, s, _)
            if bound is not None:
                groups = {_Keyed(bound=bound).result(key): g for key, g in groups.items()}
            return groups, undefined

        got = outcome(walked, *drawn)
        assert got == outcome(gather(element_by_element), *drawn)
        if isinstance(got, tuple):
            measure_id, text, _ = drawn
            measure, spec = measure_from_id(measure_id), parse_domain(text)
            order = ElementOrder(spec)
            # undefined elements come only as runs, every key is finished, and the
            # walk covers every element, in lexicographic order and as arranged
            for evaluators in (spec.evaluators, order.evaluators):
                walk = [(list(stream), runs) for stream, runs in evaluators(measure)]
                assert not any(None in stream for stream, runs in walk if not runs)
                results = list(expand(walk))  # run lengths plus element counts
                assert len(results) == cardinality(spec)
                assert all(finished(key) for key in results if key is not None)
            assert results == list(order.arrange(expand(spec.evaluators(measure))))
        expected = outcome(reference.classify, *drawn)
        verdict = outcome(classify, *drawn)
        if not isinstance(expected, Verdict):
            assert verdict is expected
            return
        assert {f.name: getattr(verdict, f.name) for f in fields(Verdict)} == {
            f.name: getattr(expected, f.name) for f in fields(Verdict)
        }


def earliest_collision(ordered):
    """The reference's earliest collision, as ``ValueSummary.collision`` with a raw result.

    That is the class whose second member is least, or None.
    """
    collided = [cls for cls in ordered.classes if len(cls.members) > 1]
    if not collided:
        return None
    cls = min(collided, key=lambda cls: cls.members[1])
    return (_raw(cls.value), *cls.members[:2])


def summary_collision(summary):
    """The summary's earliest collision, its key turned into the raw result."""
    if summary.collision is None:
        return None
    key, first, second = summary.collision
    return summary.result(key), first, second


class TestSummaryMatchesReference:
    """Sizes, the earliest collision and the undefined points, against every element kept."""

    @settings(max_examples=300, deadline=None)
    @given(domain_texts())
    @example(("dcg?b=2", "binary:L=1..5", 200))  # reals: every element bucketed
    # a near real joins an earlier class before any exact repeat: the first exact
    # repeat is not the earliest collision here
    @example(("pnorm", "binary:L=10,R=2,N=12", 200))
    @example(("esl", "leveled:docs=8,s=1", 200))  # a run joins an earlier element's class
    @example(("ap", "binary:L=2..6,R=2,N=8", 200))  # counted in C over several lengths
    @example(("ap", "binary:L=2..6,R=2,N=8,seed=5", 200))
    # the one undefined point (n = N) comes after the first repeat, in the C count
    @example(("inverse-precision", "contingency:N=15,R=5,n=0..15", 200))
    # its one undefined point is in the last row, long after the first repeat
    @example(("inverse-precision", "contingency:N=80,R=30,n=0..80", 200))
    @example(("precision", "contingency:N=15,R=5,n=0..15", 200))  # undefined before it
    @example(("sr", "binary:L=3..5,R=0", 200))  # every element undefined
    def test_sizes_collision_and_undefined_points(self, drawn):
        summary = outcome(lambda m, s, _: summarize(m, s), *drawn)
        expected = outcome(
            lambda m, s, _: reference.order_values(reference.labeled_values(s, m)), *drawn)
        if isinstance(expected, type):
            assert summary is expected
            return
        assert [summary.result(key) for key in summary.keys] == [
            _raw(cls.value) for cls in expected.classes]
        assert [summary.sizes[key] for key in summary.keys] == [
            len(cls.members) for cls in expected.classes]
        assert summary_collision(summary) == earliest_collision(expected)
        assert summary.excluded == len(expected.excluded)
        assert summary.first_excluded == (expected.excluded or (None,))[0]


@pytest.mark.parametrize("measure_id, domain, early", [
    ("ap", "binary:L=2..6,R=2,N=8", True),
    ("inverse-precision", "contingency:N=15,R=5,n=0..15", True),
    ("esl", "leveled:docs=8,s=1", True),
    ("ap", "binary:L=2..6,R=2,N=8,seed=5", True),  # the seed arranges the streams
    ("inverse-precision", "contingency:N=15,R=5,n=0..15,seed=2", True),
    ("dcg?b=2", "binary:L=6", False),  # reals: near values join without a repeat
    ("pnorm", "binary:L=10,R=2,N=12", False),
])
def test_stops_at_the_first_repeat_for_exact_keys_only(monkeypatch, measure_id, domain, early):
    gather, stops = intrinsic._gather, []

    def spy(evaluators, early):
        groups, stop = gather(evaluators, early)
        stops.append((early, stop is not None))
        return groups, stop

    monkeypatch.setattr(intrinsic, "_gather", spy)
    measure, spec = measure_from_id(measure_id), parse_domain(domain)
    verdict = classify(measure, spec)
    assert stops == [(early, early)]  # every domain here has a collision
    assert verdict == reference.classify(measure, spec)


class TestCertifiedKeysMatchPairs:
    """Classes keyed by certified floats against the materialised pair path."""

    @settings(max_examples=300, deadline=None)
    @given(domain_texts(("contingency", "user"), COUNT_TUPLE_MEASURES, size=40))
    @example(("f-measure", "contingency:N=30,R=9,n=0..30,seed=4", 200))
    @example(("retrieval-recall", "user:U=3,A=1..20", 200))
    @example(("utility?alpha=7/3,beta=5,gamma=1/2,delta=11", "contingency:N=30,R=9", 200))
    @example(("utility?alpha=1,beta=1,gamma=1,delta=1/1000000007", "contingency:N=6,R=2", 200))
    def test_keys_buckets_and_verdict(self, drawn):
        summary = outcome(lambda m, s, _: summarize(m, s), *drawn)
        expected = outcome(
            lambda m, s, _: reference.order_values(reference.labeled_values(s, m)), *drawn)
        if isinstance(expected, type):
            assert summary is expected
            return
        assert [summary.result(key) for key in summary.keys] == [
            cls.value.rational.as_integer_ratio() for cls in expected.classes]
        assert [summary.sizes[key] for key in summary.keys] == [
            len(cls.members) for cls in expected.classes]
        assert summary_collision(summary) == earliest_collision(expected)
        # every class's members, and so its size and first two, on the Hasse export's order
        ordered = outcome(lambda m, s, _: induced_order(m, s), *drawn)
        assert ordered.members == tuple(cls.members for cls in expected.classes)
        # the same job with every certificate refused, so that the rows yield pairs
        with patch.object(_CountTuples, "certificate", lambda self, measure: None):
            pairs = outcome(classify, *drawn)
        verdict = outcome(classify, *drawn)
        assert verdict == pairs
        assert emit_verdict_json(verdict) == emit_verdict_json(pairs)


class TestCertificate:
    PRECISION = measure_from_id("precision")

    def test_recovers_farey_neighbours_at_the_largest_certified_bound(self):
        # precision has |num| <= V = 1 here, and den = tp + fp <= D = N
        bound = 2**26 - 1  # the largest D with V D^2 < 2^52
        spec = parse_domain(f"contingency:N={bound},R=1")
        assert spec.certificate(self.PRECISION) == bound
        for (p, q), (r, s) in (((1, bound), (1, bound - 1)),
                               ((bound - 2, bound - 1), (bound - 1, bound))):
            assert abs(p * s - q * r) == 1  # neighbours: no fraction of den <= D between
            assert p / q != r / s
            assert (_convergent(p / q, bound), _convergent(r / s, bound)) == ((p, q), (r, s))

    def test_refuses_a_bound_past_it(self):
        spec = parse_domain(f"contingency:N={2**27},R=1")  # D = 2^27, V = 1
        assert spec.certificate(self.PRECISION) is None
        assert parse_domain(f"contingency:N={2**26},R=1").certificate(self.PRECISION) is None

    @pytest.mark.parametrize("weights", ["delta=1e400", "delta=1/1000000007"])
    def test_large_weights_fall_back_to_pairs(self, weights):
        measure = measure_from_id(f"utility?alpha=1,beta=1,gamma=1,{weights}")
        spec = parse_domain("contingency:N=6,R=2")
        assert spec.certificate(measure) is None
        stream, runs = next(spec.evaluators(measure))
        assert not runs and all(v.__class__ is tuple for v in stream)
        assert summarize(measure, spec).bound is None


class TestInducedOrderMatchesSummary:
    """The Hasse export's order has the summary's classes and undefined points."""

    @settings(max_examples=200, deadline=None)
    @given(domain_texts())
    @example(("precision", "contingency:N=6,R=2,n=0..6,seed=5", 200))
    @example(("dcg?b=2", "binary:L=1..4,R=4,N=8,seed=3", 200))
    @example(("f-measure", "contingency:N=10,R=4,n=0..10,seed=2", 200))
    def test_same_classes_and_excluded(self, drawn):
        summary = outcome(lambda m, s, _: summarize(m, s), *drawn)
        ordered = outcome(lambda m, s, _: induced_order(m, s), *drawn)
        if isinstance(summary, type):
            assert ordered is summary
            return
        assert ordered.keys == summary.keys
        # each class's member list against the summary's size, and the earliest collision
        assert [len(m) for m in ordered.members] == [summary.sizes[key] for key in summary.keys]
        assert ordered.collision == summary.collision
        assert len(ordered.excluded) == summary.excluded
        assert (ordered.excluded or (None,))[0] == summary.first_excluded
        # the members themselves, and so each class's size and first two, against the reference
        expected = outcome(
            lambda m, s, _: reference.order_values(reference.labeled_values(s, m)), *drawn)
        assert ordered.members == tuple(cls.members for cls in expected.classes)
        assert ordered.excluded == expected.excluded


def test_classify_builds_no_record_per_class(monkeypatch):
    built = 0

    class CountingClass(intrinsic.ValueClass):
        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(intrinsic, "ValueClass", CountingClass)
    verdict = classify(measure_from_id("precision"),
                       parse_domain("contingency:N=200,R=100,n=0..200"))
    assert verdict.classes == 6_089
    assert built == 0, f"classify built {built} ValueClass records"


@pytest.mark.parametrize("measure_id, domain, elements, classes", [
    ("recall", "contingency:N=200,R=100", 10_201, 101),
    ("rr", "binary:L=14", 16_384, 15),
])
def test_classify_memory_is_bounded_by_distinct_values(measure_id, domain, elements, classes):
    verdict, peak = traced_classify(measure_id, domain)
    assert (verdict.elements, verdict.classes) == (elements, classes)
    assert peak < 256 * 1024, f"classify peaked at {peak} traced bytes"


def test_element_streams_are_counted_without_copies():
    # each element stream goes to one Counter.update, never through a list
    verdict, peak = traced_classify("rr", "binary:L=14")
    assert verdict.classes == 15
    assert peak < 16 * 1024, f"classify peaked at {peak} traced bytes"


def traced_classify(measure_id, domain):
    """A second ``classify`` of the job, and its peak of traced memory in bytes."""
    measure, spec = measure_from_id(measure_id), parse_domain(domain)
    classify(measure, spec)  # warm-up: fills the measures' caches
    tracemalloc.start()
    try:
        verdict = classify(measure, spec)
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
