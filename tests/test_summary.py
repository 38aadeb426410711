"""The one-pass value summary against the materialised path it replaced.

``classify`` keeps, per distinct attained value, a count and the two
earliest positions, and names witnesses from their positions alone.
``summary_reference`` keeps every element.  Both must give the same
verdict, field for field and byte for byte, on every domain kind, with
and without a seed, for exact and for real measures.  The summary's
memory must not grow with the elements.  Walks that yield settled
prefixes as runs, and the row streams of contingency and user domains,
must bucket exactly as evaluating every element does.
"""

import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summary_reference as reference
from metriclass import intrinsic
from metriclass.enumeration import ElementOrder, cardinality, parse_domain
from metriclass.errors import MetriclassError, UndefinedValueError
from metriclass.intrinsic import Verdict, _gather, _raw, classify, induced_order, summarize
from metriclass.measures import measure_from_id
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


@st.composite
def domain_texts(draw, kinds=tuple(sorted(MEASURES))):
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
        n = draw(st.integers(0, 10))
        r = draw(st.integers(0, n))
        lo = draw(st.integers(0, n))
        text = f"contingency:N={n},R={r},n={lo}..{draw(st.integers(lo, n))}"
    elif kind == "user":
        text = f"user:U={draw(st.integers(1, 3))},A=1..{draw(st.integers(1, 5))}"
    else:
        text = f"leveled:docs={draw(st.integers(1, 6))},s={draw(st.integers(1, 3))}"
    seed = draw(st.one_of(st.none(), st.integers(0, 999)))
    text += "" if seed is None else f",seed={seed}"
    measure = draw(st.sampled_from(MEASURES[kind]))
    if measure == "utility?":  # rational weights, so the forms are scaled by their lcm
        weights = draw(st.lists(st.fractions(Fraction(1, 10), 10, max_denominator=12),
                                min_size=4, max_size=4))
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


def run_lengths(measure, spec):
    """How many elements each item of the domain's walk stands for."""
    for stream, runs in spec.evaluators(measure):
        for _, k in stream if runs else zip(stream, repeat(1)):
            yield k


class TestRunsMatchElementWalk:
    """Settled prefixes, as runs, against evaluating every element."""

    @settings(max_examples=400, deadline=None)
    @given(domain_texts())
    @example(("esl", "leveled:docs=6,s=2,seed=4", 200))
    @example(("nxcg@2", "binary:L=5,seed=1", 200))
    @example(("r-precision", "binary:L=2..6,R=2,N=8,rel=1,seed=9", 200))
    @example(("prec@3", "binary:L=2..6,R=2,N=8", 200))  # a ParameterError at length 2
    @example(("sr", "binary:L=3..5,R=0,seed=2", 200))  # each length is one undefined run
    @example(("f-measure", "contingency:N=7,R=3,n=0..7,seed=6", 200))  # a None per row
    @example(("novelty-ratio", "user:U=2,A=1..4,seed=1", 200))  # a None in the rows at R_k = 0
    @example(("precision", "contingency:N=5,R=0,n=0..5", 200))  # n = 0 is a whole None row
    @example(("utility?alpha=1/3,beta=5/2,gamma=7/12,delta=2", "contingency:N=6,R=2,seed=8", 200))
    @example(("coverage-ratio", "user:U=1,A=1..1", 200))  # a one-element domain
    @example(("recall", "contingency:N=3,R=0", 200))  # every row is undefined
    def test_buckets_run_lengths_and_verdict(self, drawn):
        def gather(walk):
            return lambda m, s, _: _gather(walk(m, s), ElementOrder(s).positions())

        got = outcome(gather(lambda m, s: s.evaluators(m)), *drawn)
        assert got == outcome(gather(element_by_element), *drawn)
        if isinstance(got, tuple):
            measure_id, text, _ = drawn
            measure, spec = measure_from_id(measure_id), parse_domain(text)
            assert sum(run_lengths(measure, spec)) == cardinality(spec)
        expected = outcome(reference.classify, *drawn)
        verdict = outcome(classify, *drawn)
        if not isinstance(expected, Verdict):
            assert verdict is expected
            return
        assert {f.name: getattr(verdict, f.name) for f in fields(Verdict)} == {
            f.name: getattr(expected, f.name) for f in fields(Verdict)
        }


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
        # each class's member list, from the second walk, against the summary's bucket
        buckets = [summary.buckets[key] for key in summary.keys]
        assert [(len(m), m[:2]) for m in ordered.members] == [
            (1, (g,)) if isinstance(g, int) else (g[0], tuple(g[1:])) for g in buckets
        ]
        assert len(ordered.excluded) == summary.excluded
        assert (ordered.excluded or (None,))[0] == summary.first_excluded


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
    measure, spec = measure_from_id(measure_id), parse_domain(domain)
    classify(measure, spec)  # warm-up: fills the measures' caches
    tracemalloc.start()
    try:
        verdict = classify(measure, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.elements, verdict.classes) == (elements, classes)
    assert peak < 256 * 1024, f"classify peaked at {peak} traced bytes"
