"""Induced orders, Hasse chains, both verdict routes, and classification."""

import random
from fractions import Fraction
from itertools import accumulate, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclass import intrinsic
from metriclass.enumeration import enumerate_domain, parse_domain
from metriclass.errors import ConstraintError
from metriclass.intrinsic import (
    INTERVAL_METRIC,
    ORDINAL_METRIC,
    ORDINAL_PSEUDOMETRIC,
    OrderedDomain,
    ValueSummary,
    Verdict,
    _Ascending,
    build_hasse,
    check_equispaced,
    check_injective,
    classify,
    distance,
    induced_order,
    interval_scale_oracle,
    order_values,
    summarize,
)
from metriclass.measures import measure_from_id
from metriclass.model import GradeScheme, Ranking, Universe
from metriclass.values import DEFAULT_EPS, Approx, Exact, exact, fmt, value_eq
import summary_reference as reference
from summary_reference import labeled_values
from test_summary import domain_texts, outcome
from oracle_reference import reference_oracle
from pseudometric import pseudometric_check

BINARY = GradeScheme.binary()

# a six-element toy assignment shaped like one bottom element, a tied
# middle class of three, then two singletons above
SIX = [
    ("r1", exact(0)),
    ("r2", exact(1)),
    ("r3", exact(1)),
    ("r4", exact(1)),
    ("r5", exact(2)),
    ("r6", exact(4)),
]


def ordered_for(measure_id, domain_text):
    return induced_order(measure_from_id(measure_id), parse_domain(domain_text))


def class_index(ordered):
    """Each defined element's class, read off the member lists."""
    return {i: ci for ci, members in enumerate(ordered.members) for i in members}


class TestInducedOrder:
    def test_constant_assignment_collapses_to_one_class(self):
        ordered = order_values([("a", exact(1, 3)), ("b", exact(1, 3)), ("c", exact(1, 3))])
        assert len(ordered.classes) == 1
        assert ordered.members[0] == (0, 1, 2)

    def test_six_element_weak_order(self):
        ordered = order_values(SIX)
        assert [len(m) for m in ordered.members] == [1, 3, 1, 1]

    def test_precision_at_four_classes_match_brute_force(self):
        # independent oracle: evaluate the formula directly over all 16
        expected = {}
        for combo in product((0, 1), repeat=4):
            expected.setdefault(Fraction(sum(combo), 4), []).append(combo)
        ordered = ordered_for("prec@4", "binary:L=4")
        assert len(ordered.classes) == len(expected)
        for cls, members in zip(ordered.classes, ordered.members):
            assert len(members) == len(expected[cls.value.rational])
        assert [c.value.rational for c in ordered.classes] == sorted(expected)

    def test_values_strictly_increase_across_classes(self):
        for measure_id, domain in (
            ("prec@4", "binary:L=4"),
            ("msr", "binary:L=4"),
            ("recall", "contingency:N=15,R=5,n=5"),
        ):
            ordered = ordered_for(measure_id, domain)
            for lo, hi in zip(ordered.classes, ordered.classes[1:]):
                assert lo.value.numeric() < hi.value.numeric()

    @pytest.mark.parametrize("rationals", [
        # distinct rationals that round to one float
        [Fraction(1), Fraction(10**20, 10**20 + 1), Fraction(10**20 - 1, 10**20)],
        # rationals beyond the float range
        [Fraction(10**400), Fraction(-(10**400)), Fraction(0), Fraction(10**400 + 1)],
    ])
    def test_classes_ascend_where_floats_cannot_order_them(self, rationals):
        ordered = order_values([(f"e{i}", Exact(r)) for i, r in enumerate(rationals)])
        assert [c.value.rational for c in ordered.classes] == sorted(rationals)
        assert check_equispaced(ordered).equispaced is False

    def test_undefined_points_are_excluded_and_recorded(self):
        ordered = ordered_for("precision", "contingency:N=15,R=5,n=0..15")
        assert len(ordered.excluded) == 1  # the empty retrieved set
        assert ordered.labels[ordered.excluded[0]] == "tp=0,fp=0,fn=5,tn=10"

    @pytest.mark.parametrize("measure_id, domain_text, refused", [
        ("sr", "binary:L=3..5,R=0,seed=2", True),  # undefined on every length, as runs
        ("esl", "leveled:docs=5,s=2,seed=4", False),
        ("novelty-ratio", "user:U=2,A=1..5,seed=1", False),  # undefined points among rows
    ])
    def test_walks_the_domain_once(self, monkeypatch, measure_id, domain_text, refused):
        spec = parse_domain(domain_text)
        evaluators, calls = type(spec).evaluators, []

        def counted(self, measure, *bound):
            calls.append(measure.id)
            return evaluators(self, measure, *bound)

        monkeypatch.setattr(type(spec), "evaluators", counted)
        if refused:
            with pytest.raises(ConstraintError, match="every element of the domain is undefined"):
                induced_order(measure_from_id(measure_id), spec)
        else:
            induced_order(measure_from_id(measure_id), spec)
        assert calls == [measure_id]

    def test_weak_order_totality_and_transitivity_on_samples(self):
        ordered = ordered_for("ap", "binary:L=4")
        rng = random.Random(5)
        indices = [i for i in range(len(ordered.labels)) if i not in ordered.excluded]
        index = class_index(ordered)
        for _ in range(300):
            a, b, c = (rng.choice(indices) for _ in range(3))
            ca, cb, cc = index[a], index[b], index[c]
            assert ca <= cb or cb <= ca  # totality
            if ca <= cb and cb <= cc:
                assert ca <= cc  # transitivity


def sort_and_scan(labeled_values):
    """The former order_values: sort every element, then scan with value_eq.

    Returns (value, members) per class, each element's class index (-1 when
    undefined) and the undefined indices.
    """
    values = tuple(v for _, v in labeled_values)
    defined = [(i, v) for i, v in enumerate(values) if v is not None]
    if not defined:
        raise ConstraintError("intrinsic: every element of the domain is undefined")
    defined.sort(key=lambda pair: pair[1].numeric())
    classes = []
    bucket = []
    bucket_value = None
    for i, v in defined:
        if bucket_value is not None and value_eq(v, bucket_value):
            bucket.append(i)
        else:
            if bucket:
                classes.append((bucket_value, tuple(sorted(bucket))))
            bucket, bucket_value = [i], v
    classes.append((bucket_value, tuple(sorted(bucket))))
    index = [-1] * len(values)
    for ci, (_, members) in enumerate(classes):
        for member in members:
            index[member] = ci
    excluded = tuple(i for i, v in enumerate(values) if v is None)
    return tuple(classes), tuple(index), excluded


EPSILONS = (1e-9,)


def attained_points():
    """(rational, float) pairs whose values collide exactly, lie within eps
    of each other, or chain just under eps apart."""
    rationals = [Fraction(k, 8) for k in range(-4, 13)]
    rationals += [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10)]  # floats tie, values differ
    for eps in EPSILONS:
        for base in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            # each step is just under eps, so two steps exceed it and the
            # anchored merge splits the chain
            rationals.extend(base + k * Fraction(0.9 * eps) for k in range(1, 6))
    return [(r, float(r)) for r in rationals] + [(Fraction(0), -0.0)]


POINTS = attained_points()


@st.composite
def attained_values(draw):
    """(label, value) lists of all Exact or all Approx values, and None values."""
    kind = draw(st.sampled_from(("exact", "approx")))
    chosen = draw(st.lists(st.tuples(st.sampled_from(POINTS), st.booleans()), max_size=40))
    pairs = []
    for i, ((rational, real), defined) in enumerate(chosen):
        if not defined:
            value = None
        elif kind == "exact":
            value = Exact(rational)
        else:
            value = Approx(real)
        pairs.append((f"e{i}", value))
    return pairs


class TestOrderValuesMatchesSortAndScan:
    @settings(max_examples=300, deadline=None)
    @given(attained_values())
    @example([("a", None), ("b", None)])
    @example([("a", Approx(-0.0)), ("b", Approx(0.0)), ("c", None), ("d", Approx(-0.0))])
    @example([  # b joins the anchor a; c is near b but not a, so it starts a class
        ("a", Approx(0.5)), ("b", Approx(0.5 + 9e-10)), ("c", Approx(0.5 + 1.8e-9)),
        ("d", Approx(0.5 + 9e-10)),
    ])
    def test_same_classes_members_values_and_index(self, pairs):
        try:
            expected = sort_and_scan(pairs)
        except ConstraintError:
            with pytest.raises(ConstraintError):
                order_values(pairs)
            return
        ordered = order_values(pairs)
        classes, expected_index, excluded = expected
        assert list(ordered.members) == [members for _, members in classes]
        # repr pins the exact-vs-real type and the sign of zero
        assert all(repr(a.value) == repr(v) for a, (v, _) in zip(ordered.classes, classes))
        assert ordered.excluded == excluded
        index = class_index(ordered)
        for i, ci in enumerate(expected_index):
            if ci >= 0:
                assert index[i] == ci


class TestOrderValuesEdges:
    @pytest.mark.parametrize("pairs", [
        [("a", exact(1, 2)), ("b", Approx(0.5))],
        [("a", None), ("b", Approx(0.25)), ("c", exact(1, 4)), ("d", Approx(0.25))],
    ])
    def test_mixed_exact_and_real_values_are_refused(self, pairs):
        with pytest.raises(ConstraintError, match="mixes exact and real values"):
            order_values(pairs)

    def test_reals_built_from_ints_are_floats(self):
        ordered = order_values([("a", Approx(0)), ("b", Approx(1))])
        assert len(ordered.classes) == 2
        assert fmt(check_equispaced(ordered).gap) == "1.000 (~1e-09)"

    def test_rationals_beyond_float_range_sort_exactly(self):
        huge = 10 ** 400
        pairs = [("a", exact(huge + 1)), ("b", exact(-huge)), ("c", exact(huge)), ("d", exact(1))]
        ordered = order_values(pairs)
        assert ordered.members == ((1,), (3,), (2,), (0,))


class TestDistance:
    def test_identity(self):
        m = measure_from_id("prec@4")
        r = Ranking(BINARY, ("1", "0", "0", "0"))
        assert distance(m, r, r, Universe(8, 4)) == exact(0)

    def test_hand_evaluated_pair(self):
        m = measure_from_id("prec@4")
        a = Ranking(BINARY, ("1", "0", "0", "0"))
        b = Ranking(BINARY, ("1", "1", "0", "0"))
        assert distance(m, a, b, Universe(8, 4)) == exact(1, 4)

    def test_symmetry_on_random_pairs(self):
        m = measure_from_id("ap")
        universe = Universe(8, 4)
        rng = random.Random(13)
        pool = [Ranking(BINARY, tuple(rng.choice("01") for _ in range(4))) for _ in range(20)]
        for a in pool:
            b = rng.choice(pool)
            assert distance(m, a, b, universe) == distance(m, b, a, universe)


class TestHasse:
    def test_single_class_has_no_edges(self):
        h = build_hasse(order_values([("a", exact(1)), ("b", exact(1))]))
        assert len(h.classes) == 1 and len(h.weights) == 0

    def test_precision_chain_weights(self):
        h = build_hasse(ordered_for("prec@4", "binary:L=4"))
        assert len(h.weights) == 4
        assert all(w == exact(1, 4) for w in h.weights)

    def test_six_element_chain_weights(self):
        h = build_hasse(order_values(SIX))
        assert [w.rational for w in h.weights] == [1, 1, 2]

    def test_path_distance_equals_value_difference_exhaustively(self):
        spec, measure = parse_domain("binary:L=4"), measure_from_id("prec@4")
        ordered = induced_order(measure, spec)
        values = [v for _, v in labeled_values(spec, measure)]
        h = build_hasse(ordered)
        index = class_index(ordered)
        for i in range(len(ordered.labels)):
            for j in range(len(ordered.labels)):
                direct = abs(values[i].rational - values[j].rational)
                path = h.path_distance(index[i], index[j])
                assert path.rational == direct


class TestInjectivity:
    def test_discounted_gain_collision_witness(self):
        ordered = ordered_for("dcg?b=2", "binary:L=4")
        injective, witness = check_injective(ordered)
        assert not injective
        assert {witness.first, witness.second} == {"<1,0,0,0>", "<0,1,0,0>"}
        assert abs(witness.value.real - 1.0) <= 1e-9

    def test_exactly_one_relevant_msr_is_injective(self):
        ordered = ordered_for("msr", "binary:L=4,R=1,rel=1")
        injective, witness = check_injective(ordered)
        assert injective and witness is None
        assert sorted(v.rational for v in (c.value for c in ordered.classes)) == [
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1),
        ]

    def test_constant_assignment_is_not_injective(self):
        ordered = order_values([("a", exact(2)), ("b", exact(2))])
        injective, witness = check_injective(ordered)
        assert not injective
        assert (witness.first, witness.second) == ("a", "b")

    def test_witness_is_first_in_enumeration_order(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        _, witness = check_injective(ordered)
        assert (witness.first, witness.second) == ("<0,0,0,1>", "<0,0,1,0>")


class TestEquispacing:
    def test_fixed_retrieved_recall_gap(self):
        result = check_equispaced(ordered_for("recall", "contingency:N=15,R=5,n=5"))
        assert result.equispaced and not result.degenerate
        assert result.gap == exact(1, 5)

    def test_msr_violating_triple(self):
        result = check_equispaced(ordered_for("msr", "binary:L=4,R=1,rel=1"))
        assert not result.equispaced
        assert [v.rational for v in result.violating_triple] == [
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
        ]

    def test_dyadic_rbp_gap(self):
        result = check_equispaced(ordered_for("rbp?p=1/2", "binary:L=4"))
        assert result.equispaced
        assert result.gap == exact(1, 16)

    def test_single_class_flagged_degenerate(self):
        result = check_equispaced(order_values([("a", exact(1)), ("b", exact(1))]))
        assert result.equispaced and result.degenerate

    def test_real_gaps_are_compared_with_the_first_gap(self):
        # each gap is within eps of the one before it, but the last is 1.8 eps
        # past the first, which the oracle compares every gap with
        values = (0.0, 1.0, 2 + 0.9e-9, 3 + 2.7e-9)
        ordered = order_values([(f"e{i}", Approx(x)) for i, x in enumerate(values)])
        result = check_equispaced(ordered)
        assert not result.equispaced
        assert [v.real for v in result.violating_triple] == list(values[1:])
        assert interval_scale_oracle(ordered).note == UNEQUAL


@st.composite
def perturbed_chains(draw):
    """Real chains at k * gap with each gap moved by a few eps, in steps of 0.3 eps.

    No gap then lies within 0.1 eps of the tolerance from the first gap,
    far above the floats' rounding.
    """
    gap = draw(st.sampled_from((1e-8, 0.1, 1 / 3, 1.0, 7.0)))
    steps = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=10))
    offsets = accumulate([0] + steps)
    values = [i * gap + n * 0.3 * DEFAULT_EPS for i, n in enumerate(offsets)]
    return order_values([(f"e{i}", Approx(x)) for i, x in enumerate(values)])


class TestSpacingAgreesWithOracle:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_chains())
    @example(order_values([(f"e{i}", Approx(x)) for i, x in
                           enumerate((0.0, 1.0, 2 + 0.9e-9, 3 + 2.7e-9))]))
    def test_same_verdict(self, ordered):
        spacing, oracle = check_equispaced(ordered), interval_scale_oracle(ordered)
        # the oracle's offset-1 pairs are the spacing check's comparisons
        assert spacing.equispaced or oracle.note == UNEQUAL
        if len(ordered.classes) <= 4:
            # with at most three gaps every offset compares gaps with the first
            # gap; longer chains also compare sums of gaps, where a tolerance
            # does not add up, so there only the implication above holds
            assert spacing.equispaced == oracle.verdict


def span(ordered, i, j):
    """Elements z with f(i) <= f(z) <= f(j): the sizes of the classes from i's to j's."""
    index = class_index(ordered)
    return sum(cls.size for cls in ordered.classes[index[i]:index[j] + 1])


class TestIntervalSpan:
    """Spans from class sizes and member lists, as demo 02 computes them."""

    def test_span_of_a_point_is_its_class_size(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        bottom = ordered.labels.index("<0,0,0,0>")
        assert span(ordered, bottom, bottom) == 1
        middle = ordered.labels.index("<0,1,0,1>")
        assert span(ordered, middle, middle) == 6

    def test_span_counts_elements_not_classes(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<0,0,0,1>")
        assert span(ordered, lo, hi) == 5  # 1 + C(4,1)

    def test_full_domain_span(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<1,1,1,1>")
        assert span(ordered, lo, hi) == 16

    def test_reversed_endpoints_span_nothing(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<1,1,1,1>")
        assert class_index(ordered)[hi] > class_index(ordered)[lo]
        assert span(ordered, hi, lo) == 0


class TestIntervalScaleOracle:
    def test_equispaced_injective_domain_accepted(self):
        result = interval_scale_oracle(ordered_for("recall", "contingency:N=15,R=5,n=5"))
        assert result.verdict is True

    def test_msr_spans_equal_but_gaps_differ(self):
        result = interval_scale_oracle(ordered_for("msr", "binary:L=4,R=1,rel=1"))
        assert result.verdict is False
        assert result.note == "equal spans with unequal value differences"

    def test_two_element_domain_accepted(self):
        ordered = order_values([("a", exact(0)), ("b", exact(1, 3))])
        assert interval_scale_oracle(ordered).verdict is True

    def test_non_injective_fails_the_metric_hypothesis(self):
        result = interval_scale_oracle(ordered_for("prec@4", "binary:L=4"))
        assert result.verdict is False
        assert "metric" in result.note

    def test_cap_skips_with_marker(self):
        result = interval_scale_oracle(ordered_for("msr", "binary:L=4"), cap=1)
        assert result.skipped
        assert "skipped" in result.note

    @pytest.mark.parametrize("measure_id, oracle, category", [
        ("rbp?p=1/2", True, INTERVAL_METRIC),
        ("rbp?p=1/3", False, ORDINAL_METRIC),
    ])
    def test_runs_on_2048_rank_classes(self, measure_id, oracle, category):
        verdict = classify(measure_from_id(measure_id), parse_domain("binary:L=11"),
                           oracle_cap=2048)
        assert verdict.classes == 2048
        assert (verdict.oracle, verdict.category) == (oracle, category)
        assert verdict.oracle == (verdict.category == INTERVAL_METRIC)


UNEQUAL = "equal spans with unequal value differences"
NOT_INCREASING = "value differences not strictly increasing with span"


def singleton_chain(values, bound=None):
    """One singleton class per value, in the given order, sorted or not.

    With ``bound`` the values are ints, keyed as they are, as numerators
    over it, the way a rankings walk keys exact values.
    """
    keys = [v if bound else v.rational.as_integer_ratio() if isinstance(v, Exact) else v.real
            for v in values]
    indices = range(len(values))
    return OrderedDomain(tuple(f"e{i}" for i in indices), keys, tuple((i,) for i in indices),
                         (), None, bound=bound)


# exact rank measures and rankings domains whose summaries reach the oracle as
# int keys over ``bound``, injective or not, equispaced or not
ORACLE_RANK_MEASURES = ("rbp?p=1/2", "rbp?p=1/3", "rbp?p=3/4", "ap", "msr", "q-measure", "rr")
ORACLE_RANK_DOMAINS = ("binary:L=1", "binary:L=6", "binary:L=2..5", "binary:L=5,R=2,N=7",
                       "binary:L=6,R=3,N=9,rel=2", "graded:levels=3,L=3",
                       "graded:levels=4,L=1..3,R=3,N=6", "binary:L=4,seed=2")


def wide_integers(draw, k):
    """Equispaced integers, maybe with one of them nudged at any position, the last included.

    A chain has gaps up to 2^70, either way, and starts up to 2^70 either
    side of 0, or spans just below, at or just above 2^(8m-1) for m = 1, 2
    and 8, where the oracle's digit width grows by a byte, in as many
    steps as divide it.
    """
    start = draw(st.integers(-2**70, 2**70))
    if draw(st.booleans()):
        gap = draw(st.integers(1, 2**70)) * draw(st.sampled_from((-1, 1)))
    else:
        span = 2 ** (8 * draw(st.sampled_from((1, 2, 8))) - 1) + draw(st.integers(-2, 2))
        k = 1 + draw(st.sampled_from([steps for steps in range(1, 80) if span % steps == 0]))
        gap = span // (k - 1)
    xs = [start + i * gap for i in range(k)]
    if draw(st.booleans()):
        at = draw(st.one_of(st.just(k - 1), st.integers(0, k - 1)))
        xs[at] += draw(st.sampled_from((-1, 1))) * 2 ** draw(st.integers(0, 72))
    return xs


@st.composite
def oracle_inputs(draw):
    """(ordered domain, cap) pairs for the oracle.

    Exact inputs are equispaced rationals, one of them nudged at a random
    position, or small integers with repeats; real inputs are floats near
    k * gap, with the values or the gaps jittered on the scale of
    ``DEFAULT_EPS`` so that chains of near differences break the
    tolerance's transitivity.  Most go through ``order_values``; some are
    equispaced class lists built directly, in either direction, so that
    differences can fail to increase.  Wide inputs are ``wide_integers``,
    up to 80 of them, keyed as ints over a drawn ``bound`` in their drawn
    order, or as pairs over a drawn denominator through ``order_values``;
    rank inputs are the induced orders of small rankings domains, whose
    int keys and ``bound`` are ``summarize``'s.  The cap is sometimes
    below the class count.
    """
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, 40)))
    shape = draw(st.sampled_from(("exact", "repeats", "real", "direct-exact", "direct-real",
                                  "wide", "rankings")))
    if shape == "wide":
        xs, den = wide_integers(draw, draw(st.integers(1, 80))), draw(st.integers(1, 2**70))
        if draw(st.booleans()):
            ordered = singleton_chain(xs, bound=den)
        else:
            ordered = order_values([(f"e{i}", exact(x, den)) for i, x in enumerate(xs)])
    elif shape == "rankings":
        measure = measure_from_id(draw(st.sampled_from(ORACLE_RANK_MEASURES)))
        ordered = induced_order(measure, parse_domain(draw(st.sampled_from(ORACLE_RANK_DOMAINS))))
    elif shape == "repeats":
        values = [exact(n) for n in draw(st.lists(st.integers(0, 6), min_size=1, max_size=k))]
    elif shape.endswith("exact"):
        gap = Fraction(draw(st.integers(-3 if shape == "direct-exact" else 1, 5)),
                       draw(st.integers(1, 7)))
        start = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
        xs = [start + i * gap for i in range(k)]
        if draw(st.booleans()):
            at = draw(st.integers(0, k - 1))
            xs[at] += Fraction(draw(st.sampled_from((-1, 1))), draw(st.integers(1, 64)))
        values = [Exact(x) for x in xs]
    else:
        gap = draw(st.sampled_from((1e-9, 2e-9, 3e-9, 0.1, 1 / 3, 7.0)))
        if shape == "direct-real" and draw(st.booleans()):
            gap = -gap
        # tenths of eps: on each value, or on each gap, so that differences that
        # are each within eps of the next drift more than eps from the first
        drift = draw(st.booleans())
        tenths = draw(st.lists(st.integers(0, 9) if drift else st.integers(-20, 20),
                               min_size=k, max_size=k))
        if drift:
            tenths = list(accumulate(tenths))
        values = [Approx(i * gap + n * DEFAULT_EPS / 10) for i, n in enumerate(tenths)]
    if shape.startswith("direct"):
        ordered = singleton_chain(values)
    elif shape not in ("wide", "rankings"):
        ordered = order_values([(f"e{i}", v) for i, v in enumerate(values)])
    cap = draw(st.one_of(st.just(200), st.integers(0, 45)))
    return ordered, cap


@st.composite
def distinct_integers(draw):
    """Distinct ints in a drawn order.

    Either ``wide_integers`` (gaps up to 2^70 either way, negatives, maybe
    one key nudged off the lattice), or a random set.
    """
    if draw(st.booleans()):
        xs = list(dict.fromkeys(wide_integers(draw, draw(st.integers(1, 80)))))
    else:
        xs = draw(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=60, unique=True))
    return draw(st.permutations(xs))


class TestLazySpacingMatchesFullSort:
    """The lazy order and the lattice test against ``check_equispaced`` over a full sort."""

    @settings(max_examples=500, deadline=None)
    @given(distinct_integers(), st.integers(1, 2**70), st.data())
    def test_distinct_integers(self, xs, den, data):
        # int keys over den, as a rankings walk keys them, ordered as far as they are read
        lazy = ValueSummary(_Ascending(xs), None, len(xs), 0, None, None, bound=den)
        # the full sort: reduced pairs, walked gap by gap by cross-multiplication
        pairs = order_values([(f"e{i}", exact(x, den)) for i, x in enumerate(xs)])
        assert check_equispaced(lazy) == check_equispaced(pairs)
        ascending = sorted(xs)
        for i in data.draw(st.lists(st.integers(-len(xs), len(xs) - 1), max_size=4)):
            assert lazy.keys[i] == ascending[i]
        assert lazy.keys[1:3] == ascending[1:3]
        assert (len(lazy.keys), list(lazy.keys)) == (len(xs), ascending)
        assert lazy.keys == ascending

    # a slot left empty below the greatest key, or a key past the last slot
    @pytest.mark.parametrize("xs", [[4, 0, 2, 1], [0, 6, 2, 4, 10], [-3, -1, 1, 3, 4]])
    def test_every_slot_filled(self, xs):
        lazy = ValueSummary(_Ascending(xs), None, len(xs), 0, None, None, bound=7)
        pairs = order_values([(f"e{i}", exact(x, 7)) for i, x in enumerate(xs)])
        assert check_equispaced(lazy) == check_equispaced(pairs)
        assert not check_equispaced(lazy).equispaced

    @settings(max_examples=300, deadline=None)
    @given(domain_texts())
    @example(("rbp?p=1/2", "binary:L=2..6,seed=3", 200))  # int keys on a lattice
    @example(("rbp?p=1/3", "graded:levels=3,L=3", 3))  # off it, past the third key
    @example(("recall", "contingency:N=9,R=4,n=0..9", 200))  # certified floats, equispaced
    def test_small_domains_of_every_kind(self, drawn):
        # every certified summary is ordered lazily, whatever its class count
        with patch.object(intrinsic, "DEFAULT_ORACLE_CAP", 0):
            summary = outcome(lambda m, s, _: summarize(m, s), *drawn)
            verdict = outcome(classify, *drawn)
        expected = outcome(reference.classify, *drawn)
        if not isinstance(expected, Verdict):
            assert verdict is expected
            return
        measure_id, text, _ = drawn
        certified = parse_domain(text).certificate(measure_from_id(measure_id)) is not None
        assert (summary.keys.__class__ is _Ascending) == certified
        assert verdict == expected


class TestOracleMatchesPairLoop:
    """The offset scan gives the verdict and note of the pair-loop reference."""

    @settings(max_examples=840, deadline=None)
    @given(oracle_inputs())
    def test_same_verdict_and_note(self, drawn):
        ordered, cap = drawn
        expected = reference_oracle(ordered, cap)
        result = interval_scale_oracle(ordered, cap)
        assert (result.verdict, result.note) == (expected.verdict, expected.note)

    @pytest.mark.parametrize("values, note", [
        ([exact(0), exact(1), exact(3)], UNEQUAL),
        ([exact(2), exact(1), exact(0)], NOT_INCREASING),
        ([exact(0), exact(-1)], NOT_INCREASING),
        # at offset 2 each difference is within eps of the next one, but the last is
        # not within eps of the first: only a comparison against the first sees it
        ([Approx(0.0), Approx(1.0), Approx(2.0), Approx(3 + 0.9e-9), Approx(4 + 1.8e-9)],
         UNEQUAL),
        ([Approx(0.5), Approx(0.25), Approx(0.0)], NOT_INCREASING),
        ([Approx(0.0), Approx(1 / 3), Approx(2 / 3), Approx(1.0)], None),
    ])
    def test_each_note_on_both_routes(self, values, note):
        ordered = singleton_chain(values)
        expected = reference_oracle(ordered)
        result = interval_scale_oracle(ordered)
        assert (result.verdict, result.note) == (expected.verdict, expected.note)
        assert result.note == note


class TestOracleTheorem:
    """The definitional route must match the quotient route everywhere,
    not only on the suite's documented defaults."""

    RANK_MEASURES = (
        "prec@4", "recall@4", "r-precision", "r-wp", "r-measure", "sr", "msr",
        "ap", "awp", "q-measure", "rr", "bpref", "nxcg@4", "manxcg@4", "gr@4",
        "dcg?b=2", "dcg?b=3", "rbp?p=1/2", "rbp?p=1/3", "rnorm", "pnorm",
    )
    RANK_DOMAINS = (
        "binary:L=4,R=4,N=8",
        "binary:L=4,R=2,N=6",
        "binary:L=4,R=2,N=6,rel=2",
        "binary:L=4,R=1,N=5,rel=1",
        "binary:L=5,R=2,N=7",
        "graded:levels=3,L=3,R=3,N=6",
        "graded:levels=5,L=4,R=4,N=8",
    )

    def test_oracle_matches_quotient_route_on_the_cross_product(self):
        from metriclass.errors import ParameterError

        compared = 0
        for measure_id in self.RANK_MEASURES:
            for domain in self.RANK_DOMAINS:
                try:
                    verdict = classify(measure_from_id(measure_id), parse_domain(domain))
                except ConstraintError:
                    continue  # e.g. rnorm with R = L: every element undefined
                except ParameterError:
                    continue  # prec@4 on a length-3 domain: cutoff out of range
                if verdict.oracle is None:
                    continue
                assert verdict.oracle == (verdict.injective and verdict.equispaced), (
                    measure_id,
                    domain,
                )
                compared += 1
        assert compared > 100

    def test_oracle_matches_on_other_element_kinds(self):
        combos = (
            ("recall", "contingency:N=15,R=5,n=5"),
            ("recall", "contingency:N=15,R=5,n=0..15"),
            ("fallout", "contingency:N=15,R=5,n=0..15"),
            ("f-measure", "contingency:N=15,R=5,n=5"),
            ("f-measure", "contingency:N=15,R=5,n=0..15"),
            ("generality", "contingency:N=15,R=5,n=0..15"),
            ("coverage-ratio", "user:U=1,A=1..4"),
            ("coverage-ratio", "user:U=3,A=1..5"),
            ("novelty-ratio", "user:U=2,A=1..5"),
            ("recall-effort", "user:U=2,A=1..6"),
            ("esl", "leveled:docs=4,s=1"),
            ("esl", "leveled:docs=4,s=2"),
            ("esl", "leveled:docs=3,s=1"),
        )
        for measure_id, domain in combos:
            verdict = classify(measure_from_id(measure_id), parse_domain(domain))
            assert verdict.oracle is not None
            assert verdict.oracle == (verdict.injective and verdict.equispaced), (
                measure_id,
                domain,
            )


class TestPseudometricCheck:
    def test_no_violations_for_sample_measures(self):
        for measure_id, domain in (
            ("ap", "binary:L=4"),
            ("dcg?b=2", "binary:L=4"),
            ("recall", "contingency:N=15,R=5,n=5"),
        ):
            pairs = labeled_values(parse_domain(domain), measure_from_id(measure_id))
            values = [v for _, v in pairs if v is not None]
            report = pseudometric_check(values)
            assert report.ok
            assert report.triples_checked == len(values) ** 3


class TestClassify:
    def test_recall_on_fixed_retrieved_is_interval(self):
        verdict = classify(measure_from_id("recall"), parse_domain("contingency:N=15,R=5,n=5"))
        assert verdict.category == INTERVAL_METRIC
        assert verdict.oracle is True
        assert verdict.gap == exact(1, 5)

    def test_generality_is_a_pseudometric_with_one_value(self):
        verdict = classify(measure_from_id("generality"), parse_domain("contingency:N=15,R=5,n=5"))
        assert verdict.category == ORDINAL_PSEUDOMETRIC
        assert verdict.degenerate
        assert verdict.classes == 1

    def test_fmeasure_on_varying_retrieved_reports_collision(self):
        verdict = classify(
            measure_from_id("f-measure"), parse_domain("contingency:N=15,R=5,n=0..15")
        )
        assert verdict.category == ORDINAL_PSEUDOMETRIC
        assert verdict.collision is not None
        assert verdict.excluded == 11  # every table with tp = 0

    def test_msr_is_ordinal_metric_on_binary_l4(self):
        verdict = classify(measure_from_id("msr"), parse_domain("binary:L=4"))
        assert verdict.category == ORDINAL_METRIC
        assert verdict.injective and not verdict.equispaced

    def test_category_never_interval_without_injectivity(self):
        for measure_id, domain in (
            ("prec@4", "binary:L=4"),
            ("rnorm", "binary:L=4,R=2,rel=2"),
            ("rbp?p=1/2", "graded:levels=5,L=4"),
        ):
            verdict = classify(measure_from_id(measure_id), parse_domain(domain))
            assert not verdict.injective
            assert verdict.category != INTERVAL_METRIC

    def test_witnesses_reevaluate_to_recorded_values(self):
        for measure_id, domain in (
            ("prec@4", "binary:L=4"),
            ("bpref", "binary:L=4"),
            ("novelty-ratio", "user:U=1,A=1..4"),
            ("esl", "leveled:docs=4,s=1"),
        ):
            measure = measure_from_id(measure_id)
            spec = parse_domain(domain)
            verdict = classify(measure, spec)
            witness = verdict.collision
            assert witness is not None
            universe = spec.universe if spec.kind == "rankings" else None
            for label in (witness.first, witness.second):
                element = spec.element(label)
                assert value_eq(measure.evaluate(element, universe), witness.value)

    def test_all_undefined_domain_is_an_error(self):
        # R=0 leaves the sliding ratio undefined on every element
        with pytest.raises(ConstraintError):
            classify(measure_from_id("sr"), parse_domain("binary:L=2,R=0"))

    def test_family_must_match_domain_kind(self):
        with pytest.raises(ConstraintError):
            classify(measure_from_id("recall"), parse_domain("binary:L=4"))
        with pytest.raises(ConstraintError):
            classify(measure_from_id("prec@4"), parse_domain("contingency:N=15,R=5"))

    def test_verdict_embeds_backend_and_eps(self):
        verdict = classify(measure_from_id("dcg?b=2"), parse_domain("binary:L=4"))
        assert verdict.backend == "approx"
        assert verdict.eps == 1e-9
        exact_verdict = classify(measure_from_id("ap"), parse_domain("binary:L=4"))
        assert exact_verdict.backend == "exact"
        assert exact_verdict.eps is None
