"""Domain object invariants, and the derived per-rank counts as rank measures read them."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from metriclass.errors import ConstraintError, UnsatisfiableNeedError
from metriclass.measures import measure_from_id
from metriclass.model import (
    ContingencyTable,
    GradeScheme,
    LeveledOutput,
    Ranking,
    Universe,
)

BINARY = GradeScheme.binary()

RANK_IDS = (
    "r-precision", "r-wp", "r-measure", "sr", "msr", "rnorm", "pnorm", "ap", "awp",
    "q-measure", "rr", "bpref", "prec@4", "recall@4", "nxcg@4", "manxcg@4", "gr@4",
    "dcg?b=2", "rbp?p=1/2",
)


def rk(*labels):
    return Ranking(BINARY, tuple(str(x) for x in labels))


def at_each_rank(base, ranking, universe):
    """Values of ``base@k`` for k = 1..L."""
    return tuple(
        measure_from_id(f"{base}@{k}").evaluate(ranking, universe).rational
        for k in range(1, ranking.length + 1)
    )


def cg(ranking, universe):
    """Cumulative gain per rank, read as k * prec@k."""
    return tuple(k * v for k, v in enumerate(at_each_rank("prec", ranking, universe), 1))


def count(ranking, universe):
    """Relevant count per rank: the cumulative gain of the binary reading."""
    binary = tuple("0" if x == ranking.scheme.labels[0] else "1" for x in ranking.items)
    return cg(Ranking(BINARY, binary), universe)


def cig(scheme, universe, length):
    """Ideal cumulative gain per rank, read from nxcg@k of a probe whose cg is the top gain."""
    probe = Ranking(scheme, (scheme.labels[-1],) + (scheme.labels[0],) * (length - 1))
    return tuple(scheme.gains[-1] / v for v in at_each_rank("nxcg", probe, universe))


class TestGradeScheme:
    def test_binary(self):
        assert BINARY.gains == (Fraction(0), Fraction(1))

    def test_equispaced(self):
        s = GradeScheme.equispaced(5)
        assert s.gains == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)

    def test_lowest_gain_must_be_zero(self):
        with pytest.raises(ConstraintError):
            GradeScheme(("a", "b"), (Fraction(1, 2), Fraction(1)))

    def test_gains_strictly_increase(self):
        with pytest.raises(ConstraintError):
            GradeScheme(("a", "b", "c"), (Fraction(0), Fraction(1), Fraction(1)))

    def test_needs_two_grades(self):
        with pytest.raises(ConstraintError):
            GradeScheme(("only",), (Fraction(0),))


class TestUniverse:
    def test_relevant_bounded_by_collection(self):
        with pytest.raises(ConstraintError):
            Universe(3, 4)

    def test_ranking_longer_than_collection(self):
        with pytest.raises(ConstraintError):
            measure_from_id("ap").evaluate(rk(1, 0, 0, 0), Universe(2, 1))


class TestDerivedCounts:
    def test_single_relevant_at_top(self):
        assert cg(rk(1, 0, 0, 0), Universe(8, 1)) == (1, 1, 1, 1)
        assert cig(BINARY, Universe(8, 1), 4) == (1, 1, 1, 1)

    def test_all_nonrelevant_zero_gain(self):
        assert cg(rk(0, 0, 0, 0), Universe(8, 4)) == (0, 0, 0, 0)
        assert count(rk(0, 0, 0, 0), Universe(8, 4)) == (0, 0, 0, 0)

    def test_hand_evaluated_prefix_sums(self):
        ranking, universe = rk(0, 1, 0, 1), Universe(8, 2)
        assert count(ranking, universe) == (0, 1, 1, 2)
        assert cg(ranking, universe) == (0, 1, 1, 2)
        assert cig(BINARY, universe, 4) == (1, 2, 2, 2)

    def test_too_many_relevant_rejected(self):
        for measure_id in RANK_IDS:
            with pytest.raises(ConstraintError):
                measure_from_id(measure_id).evaluate(rk(1, 1, 0, 0), Universe(8, 1))

    def test_invariants_exhaustive_binary_l4(self):
        universe = Universe(8, 2)
        ideal = cig(BINARY, universe, 4)
        assert all(a <= b for a, b in zip(ideal, ideal[1:]))
        for combo in product("01", repeat=4):
            ranking = Ranking(BINARY, combo)
            if ranking.relevant_count > universe.total_relevant:
                continue
            gains = cg(ranking, universe)
            assert count(ranking, universe)[-1] <= universe.total_relevant
            assert all(c <= i for c, i in zip(gains, ideal))
            assert all(a <= b for a, b in zip(gains, gains[1:]))

    def test_invariants_exhaustive_graded_l3(self):
        scheme = GradeScheme.equispaced(3)
        universe = Universe(6, 2)
        ideal = cig(scheme, universe, 3)
        for combo in product(scheme.labels, repeat=3):
            ranking = Ranking(scheme, combo)
            if ranking.relevant_count > universe.total_relevant:
                continue
            gains = cg(ranking, universe)
            assert count(ranking, universe)[-1] <= universe.total_relevant
            assert all(c <= i for c, i in zip(gains, ideal))
            assert all(a <= b for a, b in zip(gains, gains[1:]))

    def test_cig_ignores_ranking_order(self):
        universe = Universe(8, 2)
        reference = cig(BINARY, universe, 4)
        for combo in permutations("1100"):
            ranking = Ranking(BINARY, combo)
            expected = tuple(g / i for g, i in zip(cg(ranking, universe), reference))
            assert at_each_rank("nxcg", ranking, universe) == expected

    def test_ideal_gains_pad_and_truncate(self):
        # ideal gains (1, 1, 0, 0): R=2 top-grade documents, then padding
        assert cig(BINARY, Universe(8, 2), 4) == (1, 2, 2, 2)
        # ideal gains (1, 1, 1): R=6 truncated to the ranking length
        assert cig(BINARY, Universe(8, 6), 3) == (1, 2, 3)
        assert cig(GradeScheme.equispaced(3), Universe(8, 2), 3) == (1, 2, 2)


class TestContingencyTable:
    def test_negative_count_rejected(self):
        with pytest.raises(ConstraintError):
            ContingencyTable(1, -1, 0, 0)

    def test_display(self):
        assert ContingencyTable(2, 3, 3, 7).display() == "tp=2,fp=3,fn=3,tn=7"


class TestUserContext:
    def test_known_retrieved_bounded(self):
        from metriclass.model import UserContext

        with pytest.raises(ConstraintError):
            UserContext(1, 2, 0, 3)
        with pytest.raises(ConstraintError):
            UserContext(2, 1, 3, 3)

    def test_display_round(self):
        from metriclass.model import UserContext

        assert UserContext(1, 1, 0, 2).display() == "U=1,Rk=1,Ru=0,A=2"


class TestLeveledOutput:
    def test_satisfiable(self):
        out = LeveledOutput(((0, 2), (1, 1)), need=1)
        assert out.satisfiable
        out.require_satisfiable()

    def test_unsatisfiable(self):
        out = LeveledOutput(((0, 2),), need=1)
        with pytest.raises(UnsatisfiableNeedError):
            out.require_satisfiable()

    def test_display(self):
        assert LeveledOutput(((0, 2), (1, 1)), 1).display() == "(0,2)(1,1);s=1"
