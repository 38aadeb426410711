"""Set-based, user and leveled ratios against their formulas, written here in Fractions.

Each row of the measure table returns the integers ``(num, den)`` of its
value, and ``Measure.evaluate`` and the value summary both read that one
function, so the references that go through ``evaluate`` no longer check
the rows on their own.  Here every row is compared with its textbook
formula on drawn elements, zero denominators included: the pair must equal
the formula, an element must be undefined for both or for neither, and the
summary's key, reduced by the walks' own reducer, must be the pair in
lowest terms.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclass.enumeration import _reduced
from metriclass.errors import UndefinedValueError
from metriclass.intrinsic import _gather
from metriclass.measures import list_measure_ids, measure_from_id
from metriclass.model import ContingencyTable, LeveledOutput, UserContext
from metriclass.values import Exact

F = Fraction


def f_measure(tp, fp, fn, tn):
    p, r = F(tp, tp + fp), F(tp, tp + fn)
    return 2 * p * r / (p + r)


SET_FORMULAS = {
    "accuracy": lambda tp, fp, fn, tn: F(tp + tn, tp + fp + fn + tn),
    "error-rate": lambda tp, fp, fn, tn: F(fp + fn, tp + fp + fn + tn),
    "f-measure": f_measure,
    "fallout": lambda tp, fp, fn, tn: F(fp, fp + tn),
    "fdr": lambda tp, fp, fn, tn: F(fp, fp + tp),
    "for": lambda tp, fp, fn, tn: F(fn, fn + tn),
    "generality": lambda tp, fp, fn, tn: F(tp + fn, tp + fp + fn + tn),
    "inverse-precision": lambda tp, fp, fn, tn: F(tn, fn + tn),
    "inverse-recall": lambda tp, fp, fn, tn: F(tn, fp + tn),
    "miss-rate": lambda tp, fp, fn, tn: F(fn, tp + fn),
    "precision": lambda tp, fp, fn, tn: F(tp, tp + fp),
    "recall": lambda tp, fp, fn, tn: F(tp, tp + fn),
    "specificity": lambda tp, fp, fn, tn: F(tn, tn + fp),
}

USER_FORMULAS = {  # of (U, R_k, R_u, A)
    "coverage-ratio": lambda u, rk, ru, a: F(rk, u),
    "novelty-ratio": lambda u, rk, ru, a: F(ru, ru + rk),
    "recall-effort": lambda u, rk, ru, a: F(u, a),
    "retrieval-recall": lambda u, rk, ru, a: F(rk + ru, u),
}


def expected_search_length(levels, need):
    """j + i * s / (r + 1): j nonrelevant documents in the levels before the
    one where the need is met, which holds r relevant and s nonrelevant
    documents of which i are still needed."""
    before_rel = before_non = 0
    for rel, non in levels:
        if before_rel + rel >= need:
            return before_non + F((need - before_rel) * non, rel + 1)
        before_rel += rel
        before_non += non
    raise ZeroDivisionError("the need is never met")


def formula_or_none(formula, *args):
    try:
        return formula(*args)
    except ZeroDivisionError:
        return None


def check_row(measure, element, args, expected, raw=None):
    """The row's pair, evaluate and the summary key against the formula's value.

    ``raw(*args)`` is the row's pair; by default the row's own function.
    """
    raw = raw or measure.fn
    if expected is None:
        with pytest.raises(UndefinedValueError):
            raw(*args)
        with pytest.raises(UndefinedValueError):
            measure.evaluate(element)
    else:
        num, den = raw(*args)
        assert den > 0
        assert F(num, den) == expected
        assert measure.evaluate(element) == Exact(expected)
    try:
        key = _reduced(*raw(*args))  # the key an uncertified walk hands over
    except UndefinedValueError:
        key = None
    groups, stop = _gather([([key], False)], True)  # exact keys, as summarize has them
    assert stop is None  # one element: no collision
    if expected is None:  # the undefined points' bucket: one element, at position 0
        assert groups == {None: 0}
    else:
        assert groups == {F(num, den).as_integer_ratio(): 0}
        assert list(groups)[0] == (expected.numerator, expected.denominator)


def ids_of(family):
    ids = [i for i in list_measure_ids() if "?" not in i and "@" not in i]
    return [i for i in ids if measure_from_id(i).family == family]


def test_every_row_has_a_formula_here():
    assert sorted(ids_of("contingency")) == sorted(SET_FORMULAS)
    assert sorted(ids_of("user")) == sorted(USER_FORMULAS)
    assert ids_of("leveled") == ["esl"]
    assert "utility?alpha=..,beta=..,gamma=..,delta=.." in list_measure_ids()


COUNT = st.integers(0, 6)  # small, so that zero denominators are common


class TestSetRows:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(COUNT, COUNT, COUNT, COUNT))
    @example((0, 0, 0, 0))
    @example((0, 3, 0, 0))
    @example((0, 0, 2, 5))
    def test_each_row_matches_its_formula(self, counts):
        table = ContingencyTable(*counts)
        for measure_id, formula in SET_FORMULAS.items():
            check_row(measure_from_id(measure_id), table, counts,
                      formula_or_none(formula, *counts))

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(COUNT, COUNT, COUNT, COUNT),
           st.tuples(*[st.fractions(F(1, 10), 10, max_denominator=12)] * 4))
    def test_utility_with_rational_weights(self, counts, weights):
        alpha, beta, gamma, delta = weights
        measure = measure_from_id(
            f"utility?alpha={alpha},beta={beta},gamma={gamma},delta={delta}")
        tp, fp, fn, tn = counts
        expected = alpha * tp + beta * fn + gamma * fp + delta * tn
        check_row(measure, ContingencyTable(*counts), counts, expected)


@st.composite
def user_contexts(draw):
    u = draw(st.integers(1, 5))
    rk = draw(st.integers(0, u))
    ru = draw(st.integers(0, 5))
    a = draw(st.integers(max(1, rk + ru), rk + ru + 4))
    return u, rk, ru, a


class TestUserRows:
    @settings(max_examples=300, deadline=None)
    @given(user_contexts())
    @example((1, 0, 0, 1))
    @example((3, 0, 0, 2))
    def test_each_row_matches_its_formula(self, counts):
        context = UserContext(*counts)
        for measure_id, formula in USER_FORMULAS.items():
            check_row(measure_from_id(measure_id), context, counts,
                      formula_or_none(formula, *counts))


@st.composite
def leveled_outputs(draw):
    levels = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=1, max_size=5).filter(lambda ls: sum(map(sum, ls)) > 0))
    have = sum(rel for rel, _ in levels)
    need = draw(st.integers(1, max(1, have)))
    return LeveledOutput(tuple(levels), need)


def settled_esl(output):
    """``esl``'s level fold, bound to the output's need, run until it settles."""
    state, step = measure_from_id("esl").fn(output.need)
    for rel, non in output.levels:
        settled, state = step(state, rel, non)
        if settled:
            return state
    raise AssertionError("the fold did not settle on a satisfiable output")


class TestLeveledRow:
    @settings(max_examples=300, deadline=None)
    @given(leveled_outputs())
    @example(LeveledOutput(((0, 3), (2, 2)), 1))
    @example(LeveledOutput(((1, 0),), 1))
    def test_esl_matches_its_formula(self, output):
        if not output.satisfiable:  # leveled domains hold only satisfiable outputs
            return
        expected = expected_search_length(output.levels, output.need)
        check_row(measure_from_id("esl"), output, (output,), expected, raw=settled_esl)
