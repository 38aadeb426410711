"""Set-based and user-oriented measure formulas, identities, and errors."""

from fractions import Fraction

import pytest

from metriclass.enumeration import enumerate_domain, parse_domain
from metriclass.errors import ParameterError, UndefinedValueError
from metriclass.measures import measure_from_id
from metriclass.model import ContingencyTable, UserContext
from metriclass.values import exact, value_eq

ALL_TABLES = list(enumerate_domain(parse_domain("contingency:N=15,R=5")))


def ev(measure_id, element):
    return measure_from_id(measure_id).evaluate(element)


class TestContingencyFormulas:
    def test_recall_zero_numerator(self):
        assert ev("recall", ContingencyTable(0, 0, 5, 10)) == exact(0)

    def test_precision_all_retrieved_relevant(self):
        assert ev("precision", ContingencyTable(3, 0, 2, 10)) == exact(1)

    def test_f_measure_hand_evaluated(self):
        # prec = recall = 2/5, harmonic mean stays 2/5
        assert ev("f-measure", ContingencyTable(2, 3, 3, 7)) == exact(2, 5)

    def test_utility_equal_weights_sums_collection(self):
        t = ContingencyTable(2, 3, 3, 7)
        assert ev("utility?alpha=1,beta=1,gamma=1,delta=1", t) == exact(15)

    def test_utility_rejects_nonpositive_weight(self):
        with pytest.raises(ParameterError):
            ev("utility?alpha=0,beta=1,gamma=1,delta=1", ContingencyTable(1, 1, 1, 1))

    def test_precision_undefined_when_nothing_retrieved(self):
        with pytest.raises(UndefinedValueError) as err:
            ev("precision", ContingencyTable(0, 0, 5, 10))
        assert err.value.measure_id == "precision"
        assert "tp=0" in err.value.element

    def test_f_measure_undefined_when_both_components_zero(self):
        with pytest.raises(UndefinedValueError):
            ev("f-measure", ContingencyTable(0, 3, 5, 7))

    def test_recall_plus_miss_rate_is_one(self):
        for t in ALL_TABLES:
            if t.tp + t.fn:
                assert ev("recall", t).rational + ev("miss-rate", t).rational == 1

    def test_fallout_plus_inverse_recall_is_one(self):
        for t in ALL_TABLES:
            if t.fp + t.tn:
                assert ev("fallout", t).rational + ev("inverse-recall", t).rational == 1

    def test_f_measure_algebraic_identity(self):
        # harmonic mean of precision and recall == 2tp / (2tp + fp + fn)
        checked = 0
        for t in ALL_TABLES:
            try:
                harmonic = ev("f-measure", t).rational
            except UndefinedValueError:
                continue
            checked += 1
            assert harmonic == Fraction(2 * t.tp, 2 * t.tp + t.fp + t.fn)
        assert checked == 55  # 66 tables, 11 with tp == 0

    def test_accuracy_error_rate_complement(self):
        for t in ALL_TABLES:
            total = ev("accuracy", t).rational + ev("error-rate", t).rational
            assert total == 1


class TestUserOriented:
    def test_retrieval_recall_insensitive_to_extra_nonrelevant(self):
        a = ev("retrieval-recall", UserContext(1, 1, 0, 1))
        b = ev("retrieval-recall", UserContext(1, 1, 0, 2))
        assert a == b == exact(1)

    def test_recall_effort_collision(self):
        a = ev("recall-effort", UserContext(1, 0, 1, 2))
        b = ev("recall-effort", UserContext(1, 0, 0, 2))
        assert a == b == exact(1, 2)

    def test_coverage_full(self):
        assert ev("coverage-ratio", UserContext(3, 3, 0, 4)) == exact(1)

    def test_novelty_undefined_with_no_relevant_retrieved(self):
        with pytest.raises(UndefinedValueError):
            ev("novelty-ratio", UserContext(1, 0, 0, 2))

    def test_novelty_all_new(self):
        assert ev("novelty-ratio", UserContext(1, 0, 2, 3)) == exact(1)


class TestRegistryIds:
    def test_plain_ids_resolve(self):
        m = measure_from_id("recall")
        assert m.family == "contingency" and m.backend == "exact"
        assert value_eq(m.evaluate(ContingencyTable(2, 3, 3, 7)), exact(2, 5))

    def test_utility_requires_all_weights(self):
        with pytest.raises(ParameterError):
            measure_from_id("utility?alpha=1,beta=1")
        m = measure_from_id("utility?alpha=1,beta=1,gamma=1,delta=1")
        assert m.evaluate(ContingencyTable(2, 3, 3, 7)) == exact(15)

    @pytest.mark.parametrize("weights, name", [("alpha=0,beta=1,gamma=1,delta=1", "alpha"),
                                               ("alpha=1,beta=1,gamma=-1,delta=1", "gamma")])
    def test_utility_weights_are_checked_when_the_id_is_resolved(self, weights, name):
        with pytest.raises(ParameterError, match=f"utility weight {name} must be positive"):
            measure_from_id(f"utility?{weights}")

    def test_unknown_id_rejected(self):
        from metriclass.errors import ParseError

        with pytest.raises(ParseError):
            measure_from_id("made-up-measure")

    def test_user_measure_family(self):
        m = measure_from_id("novelty-ratio")
        assert m.family == "user"
