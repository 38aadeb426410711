"""The one-pass value summary against the materialised path it replaced.

``classify`` keeps, per distinct attained value, a count and the two
earliest positions, and names witnesses by re-walking the domain.
``summary_reference`` keeps every element.  Both must give the same
verdict, field for field and byte for byte, on every domain kind, with
and without a seed, for exact and for real measures.  The summary's
memory must not grow with the elements.
"""

import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summary_reference as reference
from metriclass.enumeration import parse_domain
from metriclass.errors import MetriclassError
from metriclass.intrinsic import Verdict, classify, induced_order, summarize
from metriclass.measures import measure_from_id
from metriclass.report import emit_verdict_json

MEASURES = {
    "rankings": ("ap", "awp", "rr", "msr", "sr", "rnorm", "bpref", "q-measure", "r-precision",
                 "r-wp", "r-measure", "prec@2", "recall@2", "nxcg@2", "manxcg@2", "gr@2",
                 "rbp?p=1/2", "dcg?b=2", "dcg?b=3", "pnorm"),
    "contingency": ("recall", "precision", "f-measure", "fallout", "generality", "accuracy"),
    "user": ("coverage-ratio", "novelty-ratio", "recall-effort", "retrieval-recall"),
    "leveled": ("esl",),
}


@st.composite
def domain_texts(draw):
    kind = draw(st.sampled_from(sorted(MEASURES)))
    if kind == "rankings":
        levels = draw(st.integers(2, 3))
        top = 4 if levels == 2 else 3
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
        text = f"leveled:docs={draw(st.integers(1, 4))},s={draw(st.integers(1, 3))}"
    seed = draw(st.one_of(st.none(), st.integers(0, 999)))
    text += "" if seed is None else f",seed={seed}"
    return draw(st.sampled_from(MEASURES[kind])), text, draw(st.sampled_from((200, 0, 3)))


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


class TestInducedOrderMatchesSummary:
    """The Hasse export's order has the summary's classes and undefined points."""

    @settings(max_examples=200, deadline=None)
    @given(domain_texts())
    @example(("precision", "contingency:N=6,R=2,n=0..6,seed=5", 200))
    @example(("dcg?b=2", "binary:L=1..4,R=4,N=8,seed=3", 200))
    def test_same_classes_and_excluded(self, drawn):
        summary = outcome(lambda m, s, _: summarize(m, s), *drawn)
        ordered = outcome(lambda m, s, _: induced_order(m, s), *drawn)
        if isinstance(summary, type):
            assert ordered is summary
            return
        assert ordered.classes == summary.classes
        assert len(ordered.excluded) == summary.excluded
        assert (ordered.excluded or (None,))[0] == summary.first_excluded


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
