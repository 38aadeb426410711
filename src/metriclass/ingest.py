"""Parsers for TREC-style qrels and run files.

qrels lines:  ``topic iter doc grade``    (iter column ignored)
run lines:    ``topic Q0 doc rank score tag``

Both formats are whitespace-delimited UTF-8 text, LF or CRLF.  The rank
field of a run line must be an integer, but ordering always comes from
descending score; score ties break by ascending doc id so conversion is
deterministic.  Unjudged documents receive the lowest grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, ParseError
from .model import GradeScheme, Ranking, Universe


@dataclass(frozen=True)
class QrelsSet:
    judgments: tuple[tuple[str, str, int], ...]  # (topic, doc, grade)

    def by_topic(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for topic, doc, grade in self.judgments:
            out.setdefault(topic, {})[doc] = grade
        return out


@dataclass(frozen=True)
class RunEntry:
    doc: str
    score: float


@dataclass(frozen=True)
class RunSet:
    tag: str
    by_topic: tuple[tuple[str, tuple[RunEntry, ...]], ...]


def parse_qrels(text: str) -> QrelsSet:
    judgments: list[tuple[str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"ingest: qrels line needs 4 fields, got {len(fields)}", lineno)
        topic, _, doc, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"ingest: qrels grade {grade_text!r} is not an integer", lineno)
        if grade < 0:
            raise ParseError(f"ingest: qrels grade {grade} is negative", lineno)
        if (topic, doc) in seen:
            raise ParseError(f"ingest: duplicate judgment for ({topic}, {doc})", lineno)
        seen.add((topic, doc))
        judgments.append((topic, doc, grade))
    return QrelsSet(tuple(judgments))


def parse_run(text: str) -> RunSet:
    per_topic: dict[str, list[RunEntry]] = {}
    seen: set[tuple[str, str]] = set()
    tag = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
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
        if (topic, doc) in seen:
            raise ParseError(f"ingest: duplicate document {doc!r} in topic {topic}", lineno)
        seen.add((topic, doc))
        tag = tag or line_tag
        per_topic.setdefault(topic, []).append(RunEntry(doc, score))
    ordered = tuple(
        (topic, tuple(sorted(entries, key=lambda e: (-e.score, e.doc))))
        for topic, entries in per_topic.items()
    )
    return RunSet(tag, ordered)


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
    judged = qrels.by_topic()
    for topic, grades in judged.items():
        worst = max(grades.values(), default=0)
        if worst >= scheme.size:
            raise ConstraintError(
                f"ingest: topic {topic} uses grade {worst}, scheme has {scheme.size} grades"
            )
    out: dict[str, tuple[Ranking, Universe]] = {}
    skipped: list[str] = []
    lowest = scheme.labels[0]
    for topic, entries in run.by_topic:
        if topic not in judged:
            skipped.append(topic)
            continue
        grades = judged[topic]
        labels = []
        for entry in entries[:depth]:
            grade = grades.get(entry.doc, 0)
            labels.append(scheme.labels[grade])
        labels.extend(lowest for _ in range(depth - len(labels)))
        total_relevant = sum(1 for g in grades.values() if scheme.gains[g] > 0)
        collection = max(len(grades), depth)
        ranking = Ranking(scheme, tuple(labels))
        out[topic] = (ranking, Universe(collection, total_relevant))
    return out, tuple(skipped)
