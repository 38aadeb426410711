"""Induced orders, Hasse chains, both verdict routes, and classification."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclass.enumeration import element_from_str, enumerate_domain, parse_domain
from metriclass.errors import ConfigurationError, ConstraintError
from metriclass.intrinsic import (
    INTERVAL_METRIC,
    EquivalenceClass,
    ORDINAL_METRIC,
    ORDINAL_PSEUDOMETRIC,
    build_hasse,
    check_equispaced,
    check_injective,
    classify,
    distance,
    induced_order,
    interval_scale_oracle,
    interval_span,
    order_values,
    pseudometric_check,
)
from metriclass.measures import measure_from_id
from metriclass.model import GradeScheme, Ranking, Universe
from metriclass.values import Approx, Exact, exact, value_eq

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


class TestInducedOrder:
    def test_constant_assignment_collapses_to_one_class(self):
        ordered = order_values([("a", exact(1, 3)), ("b", exact(1, 3)), ("c", exact(1, 3))])
        assert len(ordered.classes) == 1
        assert ordered.classes[0].members == (0, 1, 2)

    def test_six_element_weak_order(self):
        ordered = order_values(SIX)
        assert [len(c.members) for c in ordered.classes] == [1, 3, 1, 1]

    def test_precision_at_four_classes_match_brute_force(self):
        # independent oracle: evaluate the formula directly over all 16
        expected = {}
        for combo in product((0, 1), repeat=4):
            expected.setdefault(Fraction(sum(combo), 4), []).append(combo)
        ordered = ordered_for("prec@4", "binary:L=4")
        assert len(ordered.classes) == len(expected)
        for cls in ordered.classes:
            assert len(cls.members) == len(expected[cls.value.rational])
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

    def test_undefined_points_are_excluded_and_recorded(self):
        ordered = ordered_for("precision", "contingency:N=15,R=5,n=0..15")
        assert len(ordered.excluded) == 1  # the empty retrieved set
        assert ordered.labels[ordered.excluded[0]] == "tp=0,fp=0,fn=5,tn=10"

    def test_weak_order_totality_and_transitivity_on_samples(self):
        ordered = ordered_for("ap", "binary:L=4")
        rng = random.Random(5)
        indices = [i for i in range(len(ordered.labels)) if i not in ordered.excluded]
        for _ in range(300):
            a, b, c = (rng.choice(indices) for _ in range(3))
            ca, cb, cc = ordered.class_of(a), ordered.class_of(b), ordered.class_of(c)
            assert ca <= cb or cb <= ca  # totality
            if ca <= cb and cb <= cc:
                assert ca <= cc  # transitivity


def sort_and_scan(labeled_values):
    """The former order_values: sort every element, then scan with value_eq."""
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
                classes.append(EquivalenceClass(bucket_value, tuple(sorted(bucket))))
            bucket, bucket_value = [i], v
    classes.append(EquivalenceClass(bucket_value, tuple(sorted(bucket))))
    class_index = [-1] * len(values)
    for ci, cls in enumerate(classes):
        for member in cls.members:
            class_index[member] = ci
    excluded = tuple(i for i, v in enumerate(values) if v is None)
    return tuple(classes), tuple(class_index), excluded


EPSILONS = (1e-9, 1e-3)


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
    """(label, value) lists of Exact, Approx (declared eps) and None values."""
    chosen = draw(st.lists(
        st.tuples(
            st.sampled_from(POINTS),
            st.sampled_from(("exact", "approx", "undefined")),
            st.sampled_from(EPSILONS),
        ),
        max_size=40,
    ))
    pairs = []
    for i, ((rational, real), kind, eps) in enumerate(chosen):
        if kind == "exact":
            value = Exact(rational)
        elif kind == "approx":
            value = Approx(real, eps)
        else:
            value = None
        pairs.append((f"e{i}", value))
    return pairs


class TestOrderValuesMatchesSortAndScan:
    @settings(max_examples=300, deadline=None)
    @given(attained_values())
    @example([("a", None), ("b", None)])
    @example([("a", Approx(-0.0)), ("b", exact(0)), ("c", Approx(0.0)), ("d", Approx(-0.0))])
    @example([  # the real joins the exact anchor, the equal exact starts a class
        ("a", exact(1, 2)), ("b", Approx(0.5 + 9e-10)), ("c", exact(Fraction(0.5 + 9e-10))),
        ("d", Approx(0.5 + 9e-10)),
    ])
    @example([  # one real under two tolerances: only the wider reaches the anchor
        ("a", Approx(0.5, 1e-9)), ("b", Approx(0.5009, 1e-3)), ("c", Approx(0.5009, 1e-9)),
        ("d", Approx(0.5009, 1e-3)),
    ])
    def test_same_classes_members_values_and_index(self, pairs):
        try:
            expected = sort_and_scan(pairs)
        except ConstraintError:
            with pytest.raises(ConstraintError):
                order_values(pairs)
            return
        ordered = order_values(pairs)
        classes, class_index, excluded = expected
        assert [c.members for c in ordered.classes] == [c.members for c in classes]
        assert all(a.value is b.value for a, b in zip(ordered.classes, classes))
        assert ordered.class_index == class_index
        assert ordered.excluded == excluded


class TestOrderValuesEdges:
    def test_tolerance_free_reals_refuse_grouping(self):
        for pairs in (
            [("a", Approx(0.5, None)), ("b", Approx(0.5, None))],
            [("a", exact(1)), ("b", Approx(0.5, None))],
        ):
            with pytest.raises(ConfigurationError):
                sort_and_scan(pairs)
            with pytest.raises(ConfigurationError):
                order_values(pairs)

    def test_single_tolerance_free_real_is_a_class(self):
        ordered = order_values([("a", Approx(0.5, None)), ("b", None)])
        assert [c.members for c in ordered.classes] == [(0,)]

    def test_rationals_beyond_float_range_sort_exactly(self):
        huge = 10 ** 400
        pairs = [("a", exact(huge + 1)), ("b", exact(-huge)), ("c", exact(huge)), ("d", exact(1))]
        ordered = order_values(pairs)
        assert [c.members for c in ordered.classes] == [(1,), (3,), (2,), (0,)]


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
        assert h.node_count == 1 and h.edge_count == 0

    def test_precision_chain_weights(self):
        h = build_hasse(ordered_for("prec@4", "binary:L=4"))
        assert h.edge_count == 4
        assert all(w == exact(1, 4) for w in h.weights)

    def test_six_element_chain_weights(self):
        h = build_hasse(order_values(SIX))
        assert [w.rational for w in h.weights] == [1, 1, 2]

    def test_path_distance_equals_value_difference_exhaustively(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        h = build_hasse(ordered)
        for i in range(len(ordered.labels)):
            for j in range(len(ordered.labels)):
                direct = abs(ordered.values[i].rational - ordered.values[j].rational)
                path = h.path_distance(ordered.class_of(i), ordered.class_of(j))
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


class TestIntervalSpan:
    def test_span_of_a_point_is_its_class_size(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        bottom = ordered.labels.index("<0,0,0,0>")
        assert interval_span(ordered, bottom, bottom) == 1
        middle = ordered.labels.index("<0,1,0,1>")
        assert interval_span(ordered, middle, middle) == 6

    def test_span_counts_elements_not_classes(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<0,0,0,1>")
        assert interval_span(ordered, lo, hi) == 5  # 1 + C(4,1)

    def test_full_domain_span(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<1,1,1,1>")
        assert interval_span(ordered, lo, hi) == 16

    def test_reversed_endpoints_rejected(self):
        ordered = ordered_for("prec@4", "binary:L=4")
        lo = ordered.labels.index("<0,0,0,0>")
        hi = ordered.labels.index("<1,1,1,1>")
        with pytest.raises(ConstraintError):
            interval_span(ordered, hi, lo)


class TestIntervalScaleOracle:
    def test_equispaced_injective_domain_accepted(self):
        result = interval_scale_oracle(ordered_for("recall", "contingency:N=15,R=5,n=5"))
        assert result.verdict is True

    def test_msr_spans_equal_but_gaps_differ(self):
        result = interval_scale_oracle(ordered_for("msr", "binary:L=4,R=1,rel=1"))
        assert result.verdict is False

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
            ordered = ordered_for(measure_id, domain)
            values = [v for v in ordered.values if v is not None]
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
                element = element_from_str(spec, label)
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
