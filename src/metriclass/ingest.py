"""Parsers for TREC-style qrels and run files.

qrels lines:  ``topic iter doc grade``    (iter column ignored)
run lines:    ``topic Q0 doc rank score tag``

Both formats are whitespace-delimited UTF-8 text, LF or CRLF.  A line
ends at LF only, so the line numbers in a ``ParseError`` are those that
``wc -l`` counts; a CR, form feed or Unicode line separator is whitespace
inside a line, so a CRLF line parses as its LF form and a text ending
lines in a bare CR is one line.  ``read_text`` returns a file's decoded
text unchanged and refuses one that is not UTF-8.  The rank field of a
run line must be an integer, but ordering always comes from descending
score; score ties break by ascending doc id so conversion is
deterministic.  Unjudged documents receive the lowest grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, ParseError
from .model import GradeScheme, Ranking, Universe


@dataclass(frozen=True)
class QrelsSet:
    by_topic: dict[str, dict[str, int]]  # topic -> {doc: grade}, in first-seen order

    @property
    def judgments(self) -> tuple[tuple[str, str, int], ...]:
        """(topic, doc, grade) triples, grouped by topic."""
        return tuple(
            (topic, doc, grade) for topic, grades in self.by_topic.items()
            for doc, grade in grades.items()
        )


@dataclass(frozen=True)
class RunSet:
    tag: str
    by_topic: tuple[tuple[str, tuple[str, ...]], ...]  # (topic, doc ids best first)


def read_text(path: str) -> str:
    """A qrels or run file's text, decoded and otherwise unchanged.

    A file that is not UTF-8 is a ``ParseError`` naming it and the offset
    of its first bad byte.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"ingest: {path} is not UTF-8 (bad byte at offset {exc.start})") from None


def parse_qrels(text: str) -> QrelsSet:
    by_topic: dict[str, dict[str, int]] = {}
    current = None  # consecutive lines mostly share a topic, and so its dict
    for lineno, raw in enumerate(text.split("\n"), 1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ParseError(f"ingest: qrels line needs 4 fields, got {len(fields)}", lineno)
        topic, _, doc, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"ingest: qrels grade {grade_text!r} is not an integer", lineno)
        if grade < 0:
            raise ParseError(f"ingest: qrels grade {grade} is negative", lineno)
        if topic != current:
            current, grades = topic, by_topic.setdefault(topic, {})
        if doc in grades:
            raise ParseError(f"ingest: duplicate judgment for ({topic}, {doc})", lineno)
        grades[doc] = grade
    return QrelsSet(by_topic)


def parse_run(text: str) -> RunSet:
    """Each topic's documents by descending score, ties by ascending doc id."""
    by_topic: dict[str, dict[str, float]] = {}  # topic -> {doc: negated score}
    current = None
    tag = ""
    for lineno, raw in enumerate(text.split("\n"), 1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ParseError(f"ingest: run line needs 6 fields, got {len(fields)}", lineno)
        topic, _, doc, rank_text, score_text, line_tag = fields
        try:
            int(rank_text)
            score = float(score_text)
        except ValueError:
            raise ParseError("ingest: run rank/score fields are not numeric", lineno)
        if not math.isfinite(score):  # nan/inf would sort arbitrarily
            raise ParseError(f"ingest: run score {score_text!r} is not finite", lineno)
        if topic != current:
            current, scores = topic, by_topic.setdefault(topic, {})
        if doc in scores:
            raise ParseError(f"ingest: duplicate document {doc!r} in topic {topic}", lineno)
        scores[doc] = -score
        tag = tag or line_tag
    # (-score, doc) pairs sort best first; -0.0 == 0.0, so such a tie breaks by doc too
    return RunSet(tag, tuple(
        (topic, tuple(doc for _, doc in sorted(zip(scores.values(), scores))))
        for topic, scores in by_topic.items()
    ))


def to_rankings(
    run: RunSet,
    qrels: QrelsSet,
    scheme: GradeScheme,
    depth: int,
) -> tuple[dict[str, tuple[Ranking, Universe]], tuple[str, ...]]:
    """Convert run topics into depth-L rankings with per-topic universes.

    Grades index into the scheme's labels, so the scheme must cover every
    grade present in the qrels.  Topics in the run with no judgments at all
    are skipped and reported, not silently evaluated.
    """
    if depth < 1:
        raise ConstraintError("ingest: depth must be positive")
    judged = qrels.by_topic
    for topic, grades in judged.items():
        worst = max(grades.values())
        if worst >= scheme.size:
            raise ConstraintError(
                f"ingest: topic {topic} uses grade {worst}, scheme has {scheme.size} grades"
            )
    out: dict[str, tuple[Ranking, Universe]] = {}
    skipped: list[str] = []
    for topic, docs in run.by_topic:
        grades = judged.get(topic)
        if grades is None:
            skipped.append(topic)
            continue
        items = [scheme.labels[grades.get(doc, 0)] for doc in docs[:depth]]
        items += [scheme.labels[0]] * (depth - len(items))
        # gains start at 0 and strictly increase, so grade g is relevant iff g > 0
        total_relevant = sum(1 for g in grades.values() if g > 0)
        collection = max(len(grades), depth)
        out[topic] = (Ranking(scheme, tuple(items)), Universe(collection, total_relevant))
    return out, tuple(skipped)
