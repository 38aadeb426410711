"""Rank-based measure formulas on hand-evaluated and published scenarios."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from metriclass.errors import (
    ParameterError,
    UndefinedValueError,
    UnsatisfiableNeedError,
)
from metriclass.measures import (
    aggregate,
    average_precision,
    average_weighted_precision,
    bpref,
    discounted_cumulative_gain,
    expected_search_length,
    gain_recall_at,
    manxcg_at,
    measure_from_id,
    modified_sliding_ratio,
    normalized_precision,
    normalized_recall,
    nxcg_at,
    precision_at,
    q_measure,
    r_measure,
    r_precision,
    r_weighted_precision,
    rank_biased_precision,
    recall_at,
    reciprocal_rank,
    sliding_ratio,
)
from metriclass.model import GradeScheme, LeveledOutput, Ranking, Universe
from metriclass.values import Approx, exact, value_eq

BINARY = GradeScheme.binary()


def rk(*labels):
    return Ranking(BINARY, tuple(str(x) for x in labels))


def uni(n, r):
    return Universe(n, r)


class TestPrecisionRecallAt:
    def test_collision_at_cutoff_four(self):
        assert precision_at(4, rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert precision_at(4, rk(0, 1, 0, 0), uni(8, 4)) == exact(1, 4)

    def test_top_of_list(self):
        assert precision_at(1, rk(1, 0, 0, 0), uni(8, 4)) == exact(1)

    def test_prefix_sum(self):
        assert precision_at(3, rk(0, 1, 1), uni(8, 4)) == exact(2, 3)

    def test_cutoff_beyond_length_rejected(self):
        with pytest.raises(ParameterError):
            precision_at(5, rk(1, 0, 0, 0), uni(8, 4))

    def test_recall_at_binary_is_cg_over_r(self):
        assert recall_at(4, rk(0, 1, 0, 1), uni(8, 2)) == exact(1)
        assert recall_at(2, rk(0, 1, 0, 1), uni(8, 2)) == exact(1, 2)


class TestRFamily:
    def test_r_precision_collision(self):
        assert r_precision(rk(0, 1, 0, 1), uni(8, 2)) == exact(1, 2)
        assert r_precision(rk(1, 0, 0, 1), uni(8, 2)) == exact(1, 2)

    def test_r_wp_ideal_prefix(self):
        assert r_weighted_precision(rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_r_measure_perfect_two(self):
        assert r_measure(rk(1, 1), uni(8, 2)) == exact(1)

    def test_pads_when_shorter_than_r(self):
        # length-1 ranking against R=2: padded with a nonrelevant position
        assert r_precision(rk(1), uni(8, 2)) == exact(1, 2)

    def test_undefined_without_relevant(self):
        with pytest.raises(UndefinedValueError):
            r_precision(rk(0, 0), uni(8, 0))

    def test_undefined_names_the_measure(self):
        for fn, measure_id in ((r_precision, "r-precision"), (r_weighted_precision, "r-wp"),
                               (r_measure, "r-measure")):
            with pytest.raises(UndefinedValueError) as err:
                fn(rk(0, 0), uni(8, 0))
            assert err.value.measure_id == measure_id
            assert err.value.element == "<0,0>"


class TestSlidingRatio:
    def test_collision_with_single_relevant(self):
        assert sliding_ratio(rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert sliding_ratio(rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_modified_version_separates_ranks(self):
        assert modified_sliding_ratio(rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert modified_sliding_ratio(rk(0, 1, 0, 0), uni(8, 1)) == exact(1, 2)
        assert modified_sliding_ratio(rk(0, 0, 1, 0), uni(8, 1)) == exact(1, 3)

    def test_modified_version_ideal_is_one(self):
        assert modified_sliding_ratio(rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_gain_scaling_preserves_value(self):
        # numerator and denominator scale together
        scaled = BINARY.scaled(Fraction(7, 2))
        rng = random.Random(3)
        for _ in range(30):
            labels = tuple(rng.choice("01") for _ in range(5))
            plain = modified_sliding_ratio(Ranking(BINARY, labels), uni(9, 5))
            big = modified_sliding_ratio(Ranking(scaled, labels), uni(9, 5))
            assert plain == big


class TestRocchioNormalizations:
    def test_ideal_ranking_scores_one(self):
        assert normalized_recall(rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_worst_ranking_scores_zero(self):
        assert normalized_recall(rk(0, 0, 1, 1), uni(8, 2)) == exact(0)

    def test_rank_sum_collision(self):
        assert normalized_recall(rk(1, 0, 0, 1), uni(8, 2)) == exact(1, 2)
        assert normalized_recall(rk(0, 1, 1, 0), uni(8, 2)) == exact(1, 2)

    def test_undefined_at_r_zero_or_r_equal_l(self):
        with pytest.raises(UndefinedValueError):
            normalized_recall(rk(0, 0, 0, 0), uni(8, 0))
        with pytest.raises(UndefinedValueError):
            normalized_recall(rk(1, 1, 1, 1), uni(8, 4))

    def test_log_variant_hand_evaluated(self):
        got = normalized_precision(rk(1, 0, 0, 1), uni(8, 2))
        expected = 1 - (math.log(4) - math.log(2)) / math.log(6)
        assert isinstance(got, Approx)
        assert abs(got.real - expected) < 1e-12

    def test_log_variant_separates_rank_sum_ties(self):
        a = normalized_precision(rk(1, 0, 0, 1), uni(8, 2))
        b = normalized_precision(rk(0, 1, 1, 0), uni(8, 2))
        assert not value_eq(a, b)


class TestAveragePrecisionFamily:
    def test_ap_collision_with_r_four(self):
        assert average_precision(rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert average_precision(rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 4)

    def test_q_measure_equals_ap_here(self):
        assert q_measure(rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert q_measure(rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 4)

    def test_q_measure_equals_ap_when_relevant_ranks_at_most_r(self):
        universe = uni(8, 4)
        for combo in product("01", repeat=4):
            ranking = Ranking(BINARY, combo)
            assert q_measure(ranking, universe) == average_precision(ranking, universe)

    def test_ap_ideal_is_one(self):
        assert average_precision(rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_awp_displayed_formula(self):
        # no 1/R factor: a single top-ranked relevant document scores 1
        assert average_weighted_precision(rk(1, 0, 0, 0), uni(8, 2)) == exact(1)
        assert average_weighted_precision(rk(0, 1, 0, 1), uni(8, 2)) == exact(3, 2)

    def test_awp_collision_with_r_four(self):
        assert average_weighted_precision(rk(1, 0, 0, 0), uni(8, 4)) == exact(1)
        assert average_weighted_precision(rk(0, 1, 0, 1), uni(8, 4)) == exact(1)


class TestRankBiased:
    def test_reciprocal_rank_reads_first_relevant(self):
        assert reciprocal_rank(rk(0, 1, 0, 0), uni(8, 4)) == exact(1, 2)
        assert reciprocal_rank(rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 2)
        assert reciprocal_rank(rk(0, 0, 0, 0), uni(8, 4)) == exact(0)

    def test_discounted_gain_top_two_weigh_alike(self):
        a = discounted_cumulative_gain(2, rk(1, 0, 0, 0), uni(8, 4))
        b = discounted_cumulative_gain(2, rk(0, 1, 0, 0), uni(8, 4))
        assert abs(a.real - 1.0) <= 1e-9
        assert abs(b.real - 1.0) <= 1e-9

    def test_discounted_gain_base_must_exceed_one(self):
        with pytest.raises(ParameterError):
            discounted_cumulative_gain(1, rk(1, 0), uni(8, 2))

    def test_rbp_score_difference_changes_sign_around_golden_ratio(self):
        # (1-p) * (1 - p - p^2) is positive below the positive root and
        # negative above it
        def diff(p):
            a = rank_biased_precision(p, rk(1, 0, 0), uni(8, 3))
            b = rank_biased_precision(p, rk(0, 1, 1), uni(8, 3))
            return a.rational - b.rational

        assert diff(Fraction(3, 5)) > 0
        assert diff(Fraction(7, 10)) < 0

    def test_rbp_half_is_the_dyadic_expansion(self):
        universe = uni(8, 4)
        values = set()
        for combo in product("01", repeat=4):
            v = rank_biased_precision(Fraction(1, 2), Ranking(BINARY, combo), universe)
            expected = sum(Fraction(int(b), 2 ** (i + 1)) for i, b in enumerate(combo))
            assert v.rational == expected
            values.add(v.rational)
        assert len(values) == 16

    def test_rbp_persistence_must_be_interior(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ParameterError):
                rank_biased_precision(bad, rk(1, 0), uni(8, 2))


class TestBpref:
    def test_cross_universe_collision(self):
        one = Ranking(BINARY, ("1",))
        two = Ranking(BINARY, ("1", "1"))
        assert bpref(one, uni(4, 1)) == exact(1)
        assert bpref(two, uni(4, 2)) == exact(1)

    def test_all_nonrelevant_scores_zero(self):
        assert bpref(rk(0, 0, 0), uni(8, 2)) == exact(0)

    def test_one_nonrelevant_ranked_above(self):
        assert bpref(rk(0, 1), uni(8, 1)) == exact(0)


class TestXcgFamily:
    def test_normalized_prefix_gain_collision(self):
        assert nxcg_at(4, rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert nxcg_at(4, rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_gain_recall_collision(self):
        assert gain_recall_at(4, rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert gain_recall_at(4, rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_mean_prefix_value_as_displayed(self):
        assert manxcg_at(4, rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert manxcg_at(4, rk(0, 1, 0, 0), uni(8, 1)) == exact(3, 4)

    def test_cutoff_pads_short_ranking(self):
        assert nxcg_at(4, rk(1), uni(8, 1)) == exact(1)

    def test_undefined_without_relevant_in_universe(self):
        with pytest.raises(UndefinedValueError):
            nxcg_at(4, rk(0, 0, 0, 0), uni(8, 0))


class TestExpectedSearchLength:
    def test_single_level_no_nonrelevant(self):
        assert expected_search_length(LeveledOutput(((1, 0),), 1)) == exact(0)

    def test_hand_evaluated_two_levels(self):
        out = LeveledOutput(((0, 2), (1, 1)), 1)
        assert expected_search_length(out) == exact(5, 2)

    def test_within_level_order_is_invisible(self):
        a = LeveledOutput.from_graded_levels([["0", "1"]], BINARY, 1)
        b = LeveledOutput.from_graded_levels([["1", "0"]], BINARY, 1)
        assert expected_search_length(a) == expected_search_length(b)

    def test_unsatisfiable_need(self):
        with pytest.raises(UnsatisfiableNeedError):
            expected_search_length(LeveledOutput(((0, 3),), 1))


class TestAggregation:
    def test_mean_of_constant_list(self):
        value, warning = aggregate([exact(1, 4), exact(1, 4)], "map")
        assert value == exact(1, 4)
        assert "ordinal" in warning

    def test_geometric_mean_exact_root(self):
        value, warning = aggregate([exact(1, 4), exact(1)], "gmap")
        assert value == exact(1, 2)
        assert warning

    def test_geometric_mean_rejects_zero(self):
        with pytest.raises(UndefinedValueError):
            aggregate([exact(0), exact(1, 2)], "gmap")

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([], "map")


class TestUnitRanges:
    # suite measures whose values stay in [0,1] for gain schemes bounded by 1
    UNIT_RANGE = {
        "prec@4", "r-precision", "sr", "msr", "r-wp", "r-measure", "ap", "q-measure", "rr",
        "rbp?p=1/2", "nxcg@4", "manxcg@4", "gr@4",
    }

    def test_declared_unit_measures_stay_in_unit_interval(self):
        from metriclass.enumeration import enumerate_domain, parse_domain
        from metriclass.report import RANK_BASED_SUITE

        for measure_id, _, _, domains in RANK_BASED_SUITE:
            if measure_id not in self.UNIT_RANGE:
                continue
            measure = measure_from_id(measure_id)
            spec = parse_domain(domains[0])
            universe = spec.universe if spec.kind == "rankings" else None
            for element in enumerate_domain(spec):
                try:
                    v = measure.evaluate(element, universe)
                except UndefinedValueError:
                    continue
                x = float(v.numeric())
                assert -1e-12 <= x <= 1 + 1e-12, (measure_id, element)
