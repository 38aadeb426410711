"""TREC-style qrels and run parsing plus conversion to rankings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclass.errors import ConstraintError, ParseError
from metriclass.ingest import parse_qrels, parse_run, read_text, to_rankings
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
        assert dict(run.by_topic)["1"] == ("dhi", "dlo")

    def test_score_ties_break_by_doc_id(self):
        run = parse_run("1 Q0 db 1 0.5 sys\n1 Q0 da 2 0.5 sys\n")
        assert dict(run.by_topic)["1"] == ("da", "db")

    @pytest.mark.parametrize("first, second", [("0.0", "-0.0"), ("-0.0", "0.0")])
    def test_signed_zero_scores_tie_and_break_by_doc_id(self, first, second):
        run = parse_run(f"1 Q0 db 1 {first} sys\n1 Q0 da 2 {second} sys\n1 Q0 dc 3 -1 sys\n")
        assert dict(run.by_topic)["1"] == ("da", "db", "dc")

    def test_topics_keep_first_seen_order_when_lines_interleave(self):
        run = parse_run("2 Q0 a 1 0.1 s\n1 Q0 b 1 0.5 s\n2 Q0 c 2 0.9 s\n")
        assert run.by_topic == (("2", ("c", "a")), ("1", ("b",)))
        with pytest.raises(ParseError) as err:
            parse_run("2 Q0 a 1 0.1 s\n1 Q0 b 1 0.5 s\n2 Q0 a 2 0.9 s\n")
        assert err.value.line == 3
        qrels = parse_qrels("2 0 a 1\n1 0 b 0\n2 0 c 2\n")
        assert qrels.by_topic == {"2": {"a": 1, "c": 2}, "1": {"b": 0}}
        with pytest.raises(ParseError) as err:
            parse_qrels("2 0 a 1\n1 0 b 0\n2 0 a 2\n")
        assert err.value.line == 3

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


# characters that str.splitlines() would break a line at; here they are whitespace
IN_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineNumbersFollowNewlines:
    @pytest.mark.parametrize("char", IN_LINE_BREAKS)
    @pytest.mark.parametrize("parse, line", [(parse_qrels, "1 0 a 1"),
                                             (parse_run, "1 Q0 a 1 0.5 sys")])
    def test_duplicate_after_an_in_line_break_is_on_line_two(self, parse, line, char):
        with pytest.raises(ParseError) as err:
            parse(f"{line}{char}\n{line}\n")
        assert err.value.line == 2
        assert str(err.value).endswith("(line 2)")

    @pytest.mark.parametrize("char", IN_LINE_BREAKS)
    def test_in_line_breaks_separate_fields(self, char):
        assert parse_qrels(f"1{char}0 a{char}1\n").judgments == (("1", "a", 1),)
        run = parse_run(f"1 Q0{char}a 1 0.5 sys{char}\n")
        assert run.by_topic == (("1", ("a",)),) and run.tag == "sys"

    @pytest.mark.parametrize("parse, text, fields", [
        (parse_qrels, "1 0 a 1\r1 0 b 1\r", 8),
        (parse_run, "1 Q0 a 1 0.5 sys\r1 Q0 b 2 0.4 sys\r", 12),
    ])
    def test_bare_carriage_returns_make_one_line(self, parse, text, fields):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 1
        assert f"got {fields}" in str(err.value)


class TestReadText:
    def test_lines_end_at_lf_and_a_cr_is_whitespace(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_bytes(b"1 0 a 1\r\n1 0 b 0\r\n1 0 c 2\n")
        assert read_text(str(path)) == "1 0 a 1\r\n1 0 b 0\r\n1 0 c 2\n"
        assert parse_qrels(read_text(str(path))).by_topic == {"1": {"a": 1, "b": 0, "c": 2}}
        path.write_bytes(b"1 0 a 1\r\n1 0 b 0\r1 0 c 2\n")  # wc -l counts 2 lines
        assert read_text(str(path)) == "1 0 a 1\r\n1 0 b 0\r1 0 c 2\n"
        with pytest.raises(ParseError) as err:
            parse_qrels(read_text(str(path)))
        assert str(err.value) == "ingest: qrels line needs 4 fields, got 8 (line 2)"

    def test_bytes_that_are_not_utf8_name_the_file_and_offset(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes("1 Q0 \u00e9 1 0.9 t\n".encode() + b"1 Q0 b 2 0.8 \xff\n")
        with pytest.raises(ParseError) as err:
            read_text(str(path))
        assert str(err.value) == f"ingest: {path} is not UTF-8 (bad byte at offset 29)"


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


DOCS = ("d1", "d10", "d2", "d0", "a", "b9", "zz", "e")
TOPICS = ("1", "2", "3", "10", "q7")
SCORES = (-1.5, 0.0, 0.25, 0.5, 2.0)  # few values, so ties are common
# a blank or whitespace-only line before the row (or none), the field
# separator, and the line ending
LAYOUT = st.tuples(
    st.sampled_from((None, "", "  ", "\t", " \t ")),
    st.sampled_from((" ", "\t", "  ")),
    st.sampled_from(("\n", "\r\n")),
)


def trec_rows(*values):
    """File rows in file order, one per (topic, doc), so topics interleave."""
    return st.lists(
        st.tuples(st.sampled_from(TOPICS), st.sampled_from(DOCS), *values, LAYOUT),
        unique_by=lambda row: row[:2], max_size=20,
    )


RUN_ROWS = trec_rows(st.sampled_from(SCORES), st.sampled_from(("sysA", "sysB")))
QRELS_ROWS = trec_rows(st.integers(0, 3))


def run_lines(rows):
    return [(layout, (t, "Q0", d, str(k), str(score), tag))
            for k, (t, d, score, tag, layout) in enumerate(rows)]


def qrels_lines(rows):
    return [(layout, (t, "0", d, str(g))) for t, d, g, layout in rows]


def file_text(lines):
    text = ""
    for (blank, sep, end), fields in lines:
        if blank is not None:
            text += blank + end
        text += sep.join(fields) + end
    return text


def reference_rankings(run_rows, qrels_rows, depth):
    """Rankings as the docstring of ``metriclass.ingest`` defines them.

    Documents by descending score then doc id, grade 0 when unjudged,
    padded to the depth; R counts grades above 0, N = max(judged, depth);
    run topics without judgments are skipped in run order.
    """
    grades = {}
    for topic, doc, grade, _ in qrels_rows:
        grades.setdefault(topic, {})[doc] = grade
    scores = {}
    for topic, doc, score, _, _ in run_rows:
        scores.setdefault(topic, {})[doc] = score
    out, skipped = {}, []
    for topic, docs in scores.items():
        if topic not in grades:
            skipped.append(topic)
            continue
        ranked = sorted(docs, key=lambda d: (-docs[d], d))[:depth]
        items = [grades[topic].get(d, 0) for d in ranked] + [0] * (depth - len(ranked))
        relevant = sum(1 for g in grades[topic].values() if g > 0)
        out[topic] = (tuple(str(g) for g in items), max(len(grades[topic]), depth), relevant)
    return out, tuple(skipped)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(RUN_ROWS, QRELS_ROWS, st.integers(1, 6))
    def test_rankings_match_the_reference(self, run_rows, qrels_rows, depth):
        run = parse_run(file_text(run_lines(run_rows)))
        qrels = parse_qrels(file_text(qrels_lines(qrels_rows)))
        scheme = GradeScheme.equispaced(4)
        rankings, skipped = to_rankings(run, qrels, scheme, depth)
        got = {
            topic: (ranking.items, universe.collection_size, universe.total_relevant)
            for topic, (ranking, universe) in rankings.items()
        }
        expected, expected_skipped = reference_rankings(run_rows, qrels_rows, depth)
        assert list(got.items()) == list(expected.items())
        assert skipped == expected_skipped
        assert run.tag == (run_rows[0][3] if run_rows else "")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.just(parse_run), RUN_ROWS.filter(bool).map(run_lines), st.just(4)),
        st.tuples(st.just(parse_qrels), QRELS_ROWS.filter(bool).map(qrels_lines), st.just(3)),
    ), st.data())
    def test_duplicate_pair_reports_its_line(self, case, data):
        parse, lines, changed = case
        first = data.draw(st.integers(0, len(lines) - 1))
        at = data.draw(st.integers(first + 1, len(lines)))
        layout, fields = lines[first]
        again = fields[:changed] + ("1",) + fields[changed + 1:]  # another score or grade
        lines.insert(at, (layout, again))
        blanks_before = sum(blank is not None for (blank, _, _), _ in lines[:at + 1])
        with pytest.raises(ParseError) as err:
            parse(file_text(lines))
        assert err.value.line == at + 1 + blanks_before
