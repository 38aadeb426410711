"""Rank-based measure formulas on hand-evaluated and published scenarios."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from metriclass.errors import (
    ConstraintError,
    ParameterError,
    UndefinedValueError,
    UnsatisfiableNeedError,
)
from metriclass.measures import aggregate, measure_from_id
from metriclass.model import GradeScheme, LeveledOutput, Ranking, Universe
from metriclass.values import Approx, exact, value_eq

BINARY = GradeScheme.binary()


def rk(*labels):
    return Ranking(BINARY, tuple(str(x) for x in labels))


def uni(n, r):
    return Universe(n, r)


def ev(measure_id, element, universe=None):
    return measure_from_id(measure_id).evaluate(element, universe)


class TestPrecisionRecallAt:
    def test_collision_at_cutoff_four(self):
        assert ev("prec@4", rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert ev("prec@4", rk(0, 1, 0, 0), uni(8, 4)) == exact(1, 4)

    def test_top_of_list(self):
        assert ev("prec@1", rk(1, 0, 0, 0), uni(8, 4)) == exact(1)

    def test_prefix_sum(self):
        assert ev("prec@3", rk(0, 1, 1), uni(8, 4)) == exact(2, 3)

    def test_cutoff_beyond_length_rejected(self):
        with pytest.raises(ParameterError):
            ev("prec@5", rk(1, 0, 0, 0), uni(8, 4))

    def test_recall_at_binary_is_cg_over_r(self):
        assert ev("recall@4", rk(0, 1, 0, 1), uni(8, 2)) == exact(1)
        assert ev("recall@2", rk(0, 1, 0, 1), uni(8, 2)) == exact(1, 2)


class TestRFamily:
    def test_r_precision_collision(self):
        assert ev("r-precision", rk(0, 1, 0, 1), uni(8, 2)) == exact(1, 2)
        assert ev("r-precision", rk(1, 0, 0, 1), uni(8, 2)) == exact(1, 2)

    def test_r_wp_ideal_prefix(self):
        assert ev("r-wp", rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_r_measure_perfect_two(self):
        assert ev("r-measure", rk(1, 1), uni(8, 2)) == exact(1)

    def test_pads_when_shorter_than_r(self):
        # length-1 ranking against R=2: padded with a nonrelevant position
        assert ev("r-precision", rk(1), uni(8, 2)) == exact(1, 2)

    def test_undefined_without_relevant(self):
        with pytest.raises(UndefinedValueError):
            ev("r-precision", rk(0, 0), uni(8, 0))

    def test_undefined_names_the_measure(self):
        for measure_id in ("r-precision", "r-wp", "r-measure"):
            with pytest.raises(UndefinedValueError) as err:
                ev(measure_id, rk(0, 0), uni(8, 0))
            assert err.value.measure_id == measure_id
            assert err.value.element == "<0,0>"


class TestSlidingRatio:
    def test_collision_with_single_relevant(self):
        assert ev("sr", rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert ev("sr", rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_modified_version_separates_ranks(self):
        assert ev("msr", rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert ev("msr", rk(0, 1, 0, 0), uni(8, 1)) == exact(1, 2)
        assert ev("msr", rk(0, 0, 1, 0), uni(8, 1)) == exact(1, 3)

    def test_modified_version_ideal_is_one(self):
        assert ev("msr", rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_gain_scaling_preserves_value(self):
        # numerator and denominator scale together
        scaled = GradeScheme(BINARY.labels, tuple(g * Fraction(7, 2) for g in BINARY.gains))
        rng = random.Random(3)
        for _ in range(30):
            labels = tuple(rng.choice("01") for _ in range(5))
            plain = ev("msr", Ranking(BINARY, labels), uni(9, 5))
            big = ev("msr", Ranking(scaled, labels), uni(9, 5))
            assert plain == big


class TestRocchioNormalizations:
    def test_ideal_ranking_scores_one(self):
        assert ev("rnorm", rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_worst_ranking_scores_zero(self):
        assert ev("rnorm", rk(0, 0, 1, 1), uni(8, 2)) == exact(0)

    def test_rank_sum_collision(self):
        assert ev("rnorm", rk(1, 0, 0, 1), uni(8, 2)) == exact(1, 2)
        assert ev("rnorm", rk(0, 1, 1, 0), uni(8, 2)) == exact(1, 2)

    def test_undefined_at_r_zero_or_r_equal_l(self):
        with pytest.raises(UndefinedValueError):
            ev("rnorm", rk(0, 0, 0, 0), uni(8, 0))
        with pytest.raises(UndefinedValueError):
            ev("rnorm", rk(1, 1, 1, 1), uni(8, 4))

    def test_log_variant_hand_evaluated(self):
        got = ev("pnorm", rk(1, 0, 0, 1), uni(8, 2))
        expected = 1 - (math.log(4) - math.log(2)) / math.log(6)
        assert isinstance(got, Approx)
        assert abs(got.real - expected) < 1e-12

    def test_log_variant_separates_rank_sum_ties(self):
        a = ev("pnorm", rk(1, 0, 0, 1), uni(8, 2))
        b = ev("pnorm", rk(0, 1, 1, 0), uni(8, 2))
        assert not value_eq(a, b)


class TestAveragePrecisionFamily:
    def test_ap_collision_with_r_four(self):
        assert ev("ap", rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert ev("ap", rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 4)

    def test_q_measure_equals_ap_here(self):
        assert ev("q-measure", rk(1, 0, 0, 0), uni(8, 4)) == exact(1, 4)
        assert ev("q-measure", rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 4)

    def test_q_measure_equals_ap_when_relevant_ranks_at_most_r(self):
        universe = uni(8, 4)
        for combo in product("01", repeat=4):
            ranking = Ranking(BINARY, combo)
            assert ev("q-measure", ranking, universe) == ev("ap", ranking, universe)

    def test_ap_ideal_is_one(self):
        assert ev("ap", rk(1, 1, 0, 0), uni(8, 2)) == exact(1)

    def test_awp_displayed_formula(self):
        # no 1/R factor: a single top-ranked relevant document scores 1
        assert ev("awp", rk(1, 0, 0, 0), uni(8, 2)) == exact(1)
        assert ev("awp", rk(0, 1, 0, 1), uni(8, 2)) == exact(3, 2)

    def test_awp_collision_with_r_four(self):
        assert ev("awp", rk(1, 0, 0, 0), uni(8, 4)) == exact(1)
        assert ev("awp", rk(0, 1, 0, 1), uni(8, 4)) == exact(1)


class TestRankBiased:
    def test_reciprocal_rank_reads_first_relevant(self):
        assert ev("rr", rk(0, 1, 0, 0), uni(8, 4)) == exact(1, 2)
        assert ev("rr", rk(0, 1, 0, 1), uni(8, 4)) == exact(1, 2)
        assert ev("rr", rk(0, 0, 0, 0), uni(8, 4)) == exact(0)

    def test_discounted_gain_top_two_weigh_alike(self):
        a = ev("dcg?b=2", rk(1, 0, 0, 0), uni(8, 4))
        b = ev("dcg?b=2", rk(0, 1, 0, 0), uni(8, 4))
        assert abs(a.real - 1.0) <= 1e-9
        assert abs(b.real - 1.0) <= 1e-9

    def test_discounted_gain_base_must_exceed_one(self):
        with pytest.raises(ParameterError):
            ev("dcg?b=1", rk(1, 0), uni(8, 2))

    def test_rbp_score_difference_changes_sign_around_golden_ratio(self):
        # (1-p) * (1 - p - p^2) is positive below the positive root and
        # negative above it
        def diff(p):
            a = ev(f"rbp?p={p}", rk(1, 0, 0), uni(8, 3))
            b = ev(f"rbp?p={p}", rk(0, 1, 1), uni(8, 3))
            return a.rational - b.rational

        assert diff(Fraction(3, 5)) > 0
        assert diff(Fraction(7, 10)) < 0

    def test_rbp_half_is_the_dyadic_expansion(self):
        universe = uni(8, 4)
        values = set()
        for combo in product("01", repeat=4):
            v = ev("rbp?p=1/2", Ranking(BINARY, combo), universe)
            expected = sum(Fraction(int(b), 2 ** (i + 1)) for i, b in enumerate(combo))
            assert v.rational == expected
            values.add(v.rational)
        assert len(values) == 16

    def test_rbp_persistence_must_be_interior(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ParameterError):
                ev(f"rbp?p={bad}", rk(1, 0), uni(8, 2))


class TestBpref:
    def test_cross_universe_collision(self):
        one = Ranking(BINARY, ("1",))
        two = Ranking(BINARY, ("1", "1"))
        assert ev("bpref", one, uni(4, 1)) == exact(1)
        assert ev("bpref", two, uni(4, 2)) == exact(1)

    def test_all_nonrelevant_scores_zero(self):
        assert ev("bpref", rk(0, 0, 0), uni(8, 2)) == exact(0)

    def test_one_nonrelevant_ranked_above(self):
        assert ev("bpref", rk(0, 1), uni(8, 1)) == exact(0)


class TestXcgFamily:
    def test_normalized_prefix_gain_collision(self):
        assert ev("nxcg@4", rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert ev("nxcg@4", rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_gain_recall_collision(self):
        assert ev("gr@4", rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert ev("gr@4", rk(0, 1, 0, 0), uni(8, 1)) == exact(1)

    def test_mean_prefix_value_as_displayed(self):
        assert ev("manxcg@4", rk(1, 0, 0, 0), uni(8, 1)) == exact(1)
        assert ev("manxcg@4", rk(0, 1, 0, 0), uni(8, 1)) == exact(3, 4)

    def test_cutoff_pads_short_ranking(self):
        assert ev("nxcg@4", rk(1), uni(8, 1)) == exact(1)

    def test_undefined_without_relevant_in_universe(self):
        with pytest.raises(UndefinedValueError):
            ev("nxcg@4", rk(0, 0, 0, 0), uni(8, 0))


RANK_IDS = (
    "r-precision", "r-wp", "r-measure", "sr", "msr", "rnorm", "pnorm", "ap", "awp",
    "q-measure", "rr", "bpref", "prec@2", "recall@2", "nxcg@2", "manxcg@2", "gr@2",
    "dcg?b=2", "rbp?p=1/2",
)


class TestInconsistentRanking:
    """A ranking that does not fit its universe is refused before any formula runs."""

    @pytest.mark.parametrize("measure_id", RANK_IDS)
    @pytest.mark.parametrize("ranking, universe, message", [
        (rk(1, 0), uni(2, 0), "model: ranking retrieves more relevant items than the universe holds"),
        (rk(0, 1), uni(1, 1), "model: ranking is longer than the collection"),
    ], ids=("more-relevant-than-R", "longer-than-N"))
    def test_every_rank_measure_reports_the_model_constraint(
        self, measure_id, ranking, universe, message
    ):
        with pytest.raises(ConstraintError) as info:
            ev(measure_id, ranking, universe)
        assert str(info.value) == message


class TestExpectedSearchLength:
    def test_single_level_no_nonrelevant(self):
        assert ev("esl", LeveledOutput(((1, 0),), 1)) == exact(0)

    def test_hand_evaluated_two_levels(self):
        out = LeveledOutput(((0, 2), (1, 1)), 1)
        assert ev("esl", out) == exact(5, 2)

    def test_within_level_order_is_invisible(self):
        def level(labels):  # a level keeps only its relevant and nonrelevant counts
            rel = sum(x != "0" for x in labels)
            return LeveledOutput(((rel, len(labels) - rel),), 1)

        assert ev("esl", level(("0", "1"))) == ev("esl", level(("1", "0")))

    def test_unsatisfiable_need(self):
        with pytest.raises(UnsatisfiableNeedError):
            ev("esl", LeveledOutput(((0, 3),), 1))


class TestAggregation:
    def test_mean_of_constant_list(self):
        value, warning = aggregate([exact(1, 4), exact(1, 4)], "map")
        assert value == exact(1, 4)
        assert "ordinal" in warning

    def test_geometric_mean_exact_root(self):
        value, warning = aggregate([exact(1, 4), exact(1)], "gmap")
        assert value == exact(1, 2)
        assert warning

    def test_geometric_mean_past_the_float_range(self):
        value, _ = aggregate([exact(Fraction(1, 2**1100)), exact(1, 3)], "gmap")
        expected = math.exp(-(1100 * math.log(2) + math.log(3)) / 2)
        assert isinstance(value, Approx) and math.isfinite(value.real)
        assert math.isclose(value.real, expected, rel_tol=1e-12)

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
