"""Rankings domains walked as level columns, against every element kept.

``Rankings.walk`` steps a whole level of prefixes a grade at a time and
keys an exact value by its integer numerator over one denominator per
domain (``Rankings.certificate``).  On random small rankings domains
(several lengths, R below L, ``rel=`` and ``seed=``), for every rank
measure id, the summary must equal ``summary_reference``'s: the keys
mapped to pairs (floats bit for bit), the earliest collision and the
undefined points, the induced order's class sizes, and the verdict JSON
byte for byte.  Every key
must stand for the value ``Measure.evaluate`` gives its element on its
own, so the column and the scalar form of a fold cannot drift apart.  A
level wider than ``BLOCK`` is walked in blocks.  Pairs are reduced only
where no certificate holds, once per element, as the walk makes them.
"""

import sys
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summary_reference as reference
from metriclass import enumeration, measures
from metriclass.enumeration import ElementOrder, enumerate_domain, parse_domain
from metriclass.errors import MetriclassError, UndefinedValueError
from metriclass.intrinsic import _Keyed, _raw, classify, induced_order, summarize
from metriclass.measures import _MEASURES, measure_from_id
from metriclass.report import emit_verdict_json

# the measure table's rank rows: plain ids, "prec@"-like cutoff rows and "dcg?", "rbp?"
RANK_KEYS = tuple(key for key, row in _MEASURES.items() if row.family == "ranking")


@st.composite
def rank_jobs(draw):
    """A rank measure id and a small rankings domain."""
    measure = draw(st.sampled_from(RANK_KEYS))
    if measure.endswith("@"):
        measure += str(draw(st.integers(1, 5)))
    elif measure == "dcg?":
        measure += "b=" + draw(st.sampled_from(("2", "3", "3/2", "10")))
    elif measure == "rbp?":
        measure += "p=" + draw(st.sampled_from(("1/2", "1/3", "4/5", "2/7")))
    levels = draw(st.integers(2, 3))
    top = 7 if levels == 2 else 4
    lo = draw(st.integers(1, top))
    hi = draw(st.integers(lo, top))
    r = draw(st.integers(0, hi + 1))
    text = ("binary:" if levels == 2 else "graded:levels=3,") + f"L={lo}..{hi},R={r}"
    text += f",N={hi + r + draw(st.integers(0, 2))}"
    if draw(st.booleans()):
        text += f",rel={draw(st.integers(0, r))}"
    if draw(st.booleans()):
        text += f",seed={draw(st.integers(0, 99))}"
    return measure, text


def bits(result):
    """A raw result, with a float as its exact bits."""
    return result.hex() if result.__class__ is float else result


def keyed_results(measure, spec):
    """Each element's key turned back into its raw result, in position order; None if undefined."""
    order, keyed = ElementOrder(spec), _Keyed(bound=spec.certificate(measure))
    for stream, runs in order.evaluators(measure):
        for key, k in stream if runs else zip(stream, repeat(1)):
            yield from repeat(None if key is None else bits(keyed.result(key)), k)


def evaluated(measure, spec):
    """``Measure.evaluate`` on each element on its own, in position order; None if undefined."""
    for element in enumerate_domain(spec):
        try:
            yield bits(_raw(measure.evaluate(element, spec.universe)))
        except UndefinedValueError:
            yield None


def outcome(fn, measure_id, text):
    try:
        return fn(measure_from_id(measure_id), parse_domain(text))
    except MetriclassError as exc:
        return type(exc)


def test_every_rank_measure_id_is_drawn():
    assert len(RANK_KEYS) == 19 and {"ap", "rr", "bpref", "dcg?", "rbp?", "prec@"} < set(RANK_KEYS)


@settings(max_examples=400, deadline=None)
@given(rank_jobs())
@example(("rr", "graded:levels=3,L=1..4,R=3,N=7,rel=2,seed=3"))
@example(("nxcg@4", "binary:L=3..7,R=3,N=10"))  # horizon runs over several lengths
@example(("pnorm", "binary:L=6..7,R=3,N=10,rel=3"))
@example(("bpref", "graded:levels=3,L=2..4,R=2,N=6"))
@example(("dcg?b=3/2", "graded:levels=3,L=1..4,R=5,N=9,seed=1"))
@example(("rnorm", "binary:L=2..6,R=3,N=9,seed=5"))  # whole lengths undefined
def test_columns_match_every_element_kept(job):
    summary = outcome(summarize, *job)
    expected = outcome(lambda m, s: reference.order_values(reference.labeled_values(s, m)), *job)
    if isinstance(expected, type):
        assert summary is expected
        return
    assert [bits(summary.result(key)) for key in summary.keys] == [
        bits(_raw(cls.value)) for cls in expected.classes]
    assert [len(m) for m in outcome(induced_order, *job).members] == [
        len(cls.members) for cls in expected.classes]
    collided = [cls for cls in expected.classes if len(cls.members) > 1]
    first = min(collided, key=lambda cls: cls.members[1], default=None)
    assert (None if summary.collision is None else summary.collision[1:]) == (
        None if first is None else first.members[:2])
    if first is not None:
        assert bits(summary.result(summary.collision[0])) == bits(_raw(first.value))
    assert summary.excluded == len(expected.excluded)
    assert summary.first_excluded == (expected.excluded or (None,))[0]
    assert emit_verdict_json(outcome(classify, *job)) == emit_verdict_json(
        outcome(reference.classify, *job))
    # the scalar fold and the column walk give every element one value
    assert list(outcome(keyed_results, *job)) == list(outcome(evaluated, *job))


@pytest.mark.parametrize("measure_id, domain", [
    ("ap", "binary:L=9,R=4,N=13"),
    ("bpref", "graded:levels=3,L=5,rel=2"),
    ("dcg?b=2", "graded:levels=3,L=4..5"),
    ("nxcg@6", "binary:L=7..8,R=3,N=11"),
    ("msr", "binary:L=8,seed=2"),
])
def test_levels_wider_than_a_block_are_walked_in_blocks(monkeypatch, measure_id, domain):
    measure, spec = measure_from_id(measure_id), parse_domain(domain)
    whole = list(keyed_results(measure, spec))
    monkeypatch.setattr(measures, "BLOCK", 5)
    streams = list(spec.evaluators(measure))
    assert len(streams) > 8  # many blocks
    assert list(keyed_results(measure, spec)) == whole == list(evaluated(measure, spec))
    assert classify(measure, spec) == reference.classify(measure, spec)


@pytest.mark.parametrize("measure_id, domain, per_element", [
    ("prec@5", "binary:L=12,seed=1", False),  # integer keys, arranged by the seed
    ("recall", "contingency:N=60,R=20,seed=2", False),  # certified floats
    ("utility?alpha=1,beta=1,gamma=1,delta=1e400", "contingency:N=6,R=2", True),  # no certificate
])
def test_pairs_are_reduced_only_where_no_certificate_holds(monkeypatch, measure_id, domain,
                                                          per_element):
    reduced, calls = enumeration._reduced, []

    def spy(num, den):
        calls.append((num, den))
        return reduced(num, den)

    monkeypatch.setattr(enumeration, "_reduced", spy)
    measure, spec = measure_from_id(measure_id), parse_domain(domain)
    verdict = classify(measure, spec)
    if measure_id == "prec@5":
        assert verdict.elements == 4096 and verdict.classes == 6
    assert len(calls) == (verdict.elements if per_element else 0), f"{len(calls)} reductions"
    assert verdict == reference.classify(measure, spec)


@pytest.mark.parametrize("measure_id, domain", [
    ("nxcg@4", "binary:L=3..9,R=3,N=12"),
    ("rbp?p=1/2", "binary:L=12"),
    ("ap", "binary:L=2..6,R=2,N=8,seed=5"),
])
def test_certificate_is_found_once_per_call(monkeypatch, measure_id, domain):
    """The summary decodes keys under the certificate the walk used, found once, not twice."""
    kernels, callers = enumeration.Rankings._kernels, []

    def spy(self, measure):
        callers.append(sys._getframe(1).f_code.co_name)
        return kernels(self, measure)

    monkeypatch.setattr(enumeration.Rankings, "_kernels", spy)
    measure = measure_from_id(measure_id)
    for run in (classify, induced_order):
        callers.clear()
        run(measure, parse_domain(domain))
        assert callers == ["certificate", "evaluators"]  # one lcm of the folds, one walk


def test_rr_yields_one_run_per_first_relevant_rank():
    measure, spec = measure_from_id("rr"), parse_domain("graded:levels=3,L=4")
    assert spec.certificate(measure) == 12  # lcm(1..4)
    (stream, runs), = spec.evaluators(measure)
    assert runs and list(stream) == [(0, 1), (3, 2), (4, 6), (6, 18), (12, 54)]
