"""TREC-style qrels and run parsing plus conversion to rankings."""

import pytest

from metriclass.errors import ConstraintError, ParseError
from metriclass.ingest import parse_qrels, parse_run, to_rankings
from metriclass.model import GradeScheme

BINARY = GradeScheme.binary()
GRADED = GradeScheme.equispaced(3)


class TestParseQrels:
    def test_single_judgment(self):
        qrels = parse_qrels("1 0 d1 1\n")
        assert qrels.judgments == (("1", "d1", 1),)

    def test_duplicate_pair_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_qrels("1 0 d1 1\n1 0 d1 1\n")
        assert err.value.line == 2

    def test_negative_grade_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels("1 0 d1 -1\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_qrels("1 0 d1\n")
        assert err.value.line == 1


class TestParseRun:
    def test_orders_by_descending_score(self):
        run = parse_run("1 Q0 dlo 1 0.3 sys\n1 Q0 dhi 2 0.9 sys\n")
        assert [e.doc for e in dict(run.by_topic)["1"]] == ["dhi", "dlo"]

    def test_score_ties_break_by_doc_id(self):
        run = parse_run("1 Q0 db 1 0.5 sys\n1 Q0 da 2 0.5 sys\n")
        assert [e.doc for e in dict(run.by_topic)["1"]] == ["da", "db"]

    def test_missing_tag_field_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_run("1 Q0 d1 1 0.9\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_score_reports_line(self, score):
        with pytest.raises(ParseError) as err:
            parse_run(f"1 Q0 a 1 0.5 sys\n1 Q0 b 2 {score} sys\n")
        assert err.value.line == 2
        assert "not finite" in str(err.value)

    def test_duplicate_doc_within_topic_rejected(self):
        with pytest.raises(ParseError):
            parse_run("1 Q0 d1 1 0.9 sys\n1 Q0 d1 2 0.8 sys\n")

    def test_rank_field_must_be_an_integer(self):
        assert parse_run("1 Q0 d1 7 0.9 sys\n").tag == "sys"
        with pytest.raises(ParseError) as err:
            parse_run("1 Q0 d1 7 0.9 sys\n1 Q0 d2 seven 0.8 sys\n")
        assert err.value.line == 2


class TestToRankings:
    def test_unjudged_documents_get_lowest_grade(self):
        qrels = parse_qrels("1 0 d1 1\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n1 Q0 d2 2 0.5 sys\n")
        rankings, skipped = to_rankings(run, qrels, BINARY, depth=4)
        ranking, universe = rankings["1"]
        assert ranking.items == ("1", "0", "0", "0")
        assert universe.total_relevant == 1
        assert not skipped

    def test_all_judged_nonrelevant(self):
        qrels = parse_qrels("1 0 d1 0\n1 0 d2 0\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n1 Q0 d2 2 0.5 sys\n")
        rankings, _ = to_rankings(run, qrels, BINARY, depth=2)
        ranking, universe = rankings["1"]
        assert ranking.items == ("0", "0")
        assert universe.total_relevant == 0

    def test_universe_counts_all_judged_relevant(self):
        lines = [f"1 0 d{k} 1" for k in range(1, 6)] + ["1 0 d9 0"]
        qrels = parse_qrels("\n".join(lines) + "\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n1 Q0 d2 2 0.8 sys\n")
        rankings, _ = to_rankings(run, qrels, BINARY, depth=2)
        ranking, universe = rankings["1"]
        assert ranking.relevant_count == 2
        assert universe.total_relevant == 5
        assert universe.collection_size == 6

    def test_topic_without_judgments_is_skipped(self):
        qrels = parse_qrels("1 0 d1 1\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n7 Q0 d1 1 0.9 sys\n")
        rankings, skipped = to_rankings(run, qrels, BINARY, depth=2)
        assert "7" in skipped and "7" not in rankings

    def test_scheme_must_cover_grades(self):
        qrels = parse_qrels("1 0 d1 2\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n")
        with pytest.raises(ConstraintError):
            to_rankings(run, qrels, BINARY, depth=2)
        rankings, _ = to_rankings(run, qrels, GRADED, depth=2)
        assert rankings["1"][0].items == ("2", "0")

    def test_depth_controls_length(self):
        qrels = parse_qrels("1 0 d1 1\n")
        run = parse_run("1 Q0 d1 1 0.9 sys\n")
        rankings, _ = to_rankings(run, qrels, BINARY, depth=3)
        assert rankings["1"][0].length == 3
