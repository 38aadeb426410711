"""Rendering of classification results and the published-comparison suite.

The suite pairs every catalogued measure with documented default domains
and compares the machine category against the published category for that
measure.  Disagreements are first-class rows: two rows (F-measure and
normalized recall) are marked contested up front because the published
verdicts conflict with machine-checkable counterexamples, and the report
keeps them visible with their witnesses instead of dropping them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

from .enumeration import parse_domain
from .errors import ParseError
from .intrinsic import (
    INTERVAL_METRIC,
    ORDINAL_METRIC,
    ORDINAL_PSEUDOMETRIC,
    CollisionWitness,
    HasseDiagram,
    Verdict,
    classify,
)
from .measures import measure_from_id
from .values import from_record, to_record, fmt, fmt_short
from .version import VERSION

SCHEMA = "metriclass/1"

# Documented default domains.  Set-based measures are classified on both a
# fixed and a varying retrieved-set size, because the interval verdicts of
# the ratio measures hold only while their denominators stay constant.
CONTINGENCY_FIXED = "contingency:N=15,R=5,n=5"
CONTINGENCY_VARYING = "contingency:N=15,R=5,n=0..15"
USER_DEFAULT = "user:U=1,A=1..4"
BINARY_L4 = "binary:L=4,R=4,N=8"
BINARY_L4_EXACT2 = "binary:L=4,R=2,N=6,rel=2"
BINARY_L8 = "binary:L=8,R=4,N=12"
GRADED_L4 = "graded:levels=5,L=4,R=4,N=8"
LEVELED_DEFAULT = "leveled:docs=4,s=1"

_SET_DOMAINS = (CONTINGENCY_FIXED, CONTINGENCY_VARYING)

# (measure id, published category, contested, domain variants)
SET_BASED_SUITE: tuple[tuple[str, str, bool, tuple[str, ...]], ...] = (
    ("recall", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("precision", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("fallout", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("miss-rate", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("accuracy", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("error-rate", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("inverse-recall", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("inverse-precision", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("specificity", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("fdr", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("for", INTERVAL_METRIC, False, _SET_DOMAINS),
    ("f-measure", ORDINAL_METRIC, True, _SET_DOMAINS),
    ("generality", ORDINAL_PSEUDOMETRIC, False, _SET_DOMAINS),
    ("coverage-ratio", ORDINAL_PSEUDOMETRIC, False, (USER_DEFAULT,)),
    ("retrieval-recall", ORDINAL_PSEUDOMETRIC, False, (USER_DEFAULT,)),
    ("novelty-ratio", ORDINAL_PSEUDOMETRIC, False, (USER_DEFAULT,)),
    ("recall-effort", ORDINAL_PSEUDOMETRIC, False, (USER_DEFAULT,)),
)

RANK_BASED_SUITE: tuple[tuple[str, str, bool, tuple[str, ...]], ...] = (
    ("prec@4", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("r-precision", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("sr", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("msr", ORDINAL_METRIC, False, (BINARY_L4,)),
    ("rnorm", INTERVAL_METRIC, True, (BINARY_L4_EXACT2,)),
    ("pnorm", ORDINAL_METRIC, False, (BINARY_L4_EXACT2,)),
    ("r-wp", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("r-measure", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("ap", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("awp", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("q-measure", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("rr", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("dcg?b=2", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("rbp?p=1/2", ORDINAL_PSEUDOMETRIC, False, (GRADED_L4,)),
    ("bpref", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("nxcg@4", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("manxcg@4", ORDINAL_PSEUDOMETRIC, False, (BINARY_L8,)),
    ("gr@4", ORDINAL_PSEUDOMETRIC, False, (BINARY_L4,)),
    ("esl", ORDINAL_PSEUDOMETRIC, False, (LEVELED_DEFAULT,)),
)


@dataclass(frozen=True)
class ReportRow:
    measure_id: str
    display: str
    group: str  # set-based | rank-based
    published: str
    contested: bool
    verdicts: tuple[Verdict, ...]

    @property
    def agreement(self) -> str:
        if self.contested:
            return "contested"
        if any(v.category == self.published for v in self.verdicts):
            return "agree"
        return "disagree"


@dataclass(frozen=True)
class ClassificationReport:
    version: str
    rows: tuple[ReportRow, ...]


def build_published_suite() -> ClassificationReport:
    """Classify every suite measure on its documented default domains."""
    rows: list[ReportRow] = []
    for group, suite in (("set-based", SET_BASED_SUITE), ("rank-based", RANK_BASED_SUITE)):
        for measure_id, published, contested, domains in suite:
            measure = measure_from_id(measure_id)
            verdicts = tuple(classify(measure, parse_domain(d)) for d in domains)
            rows.append(
                ReportRow(measure.id, measure.display, group, published, contested, verdicts)
            )
    return ClassificationReport(VERSION, tuple(rows))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_CATS = (ORDINAL_PSEUDOMETRIC, ORDINAL_METRIC, INTERVAL_METRIC)
_HEADERS = (
    "measure",
    "domain",
    "ord/pseudom",
    "ord/metr",
    "interv/metr",
    "published",
    "agreement",
    "witness",
)


def _witness_summary(display: str, verdict: Verdict) -> str:
    if verdict.collision is not None:
        return f"{display}: {verdict.collision.describe()}"
    if (uneven := verdict.uneven_gaps()) is not None:
        return f"{display}: {uneven}"
    return "-"


def _rows_for(report: ClassificationReport) -> list[tuple[str, ...]]:
    out = []
    for row in report.rows:
        for verdict in row.verdicts:
            marks = tuple("x" if verdict.category == cat else "" for cat in _CATS)
            out.append(
                (
                    row.display,
                    verdict.domain,
                    *marks,
                    row.published,
                    row.agreement,
                    _witness_summary(row.display, verdict),
                )
            )
    return out


def render_table(report: ClassificationReport, fmt_name: str = "markdown") -> str:
    """Render one row per (measure, domain) verdict. Deterministic bytes."""
    body = _rows_for(report)
    if fmt_name == "csv":
        lines = [",".join(_HEADERS)]
        for row in body:
            lines.append(",".join('"' + cell.replace('"', '""') + '"' for cell in row))
        return "\n".join(lines) + "\n"
    if fmt_name == "markdown":
        lines = ["| " + " | ".join(_HEADERS) + " |"]
        lines.append("|" + "|".join(" --- " for _ in _HEADERS) + "|")
        for row in body:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    if fmt_name == "text":
        widths = [
            max(len(_HEADERS[i]), max((len(r[i]) for r in body), default=0))
            for i in range(len(_HEADERS))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(_HEADERS, widths)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ParseError(f"report: unknown table format {fmt_name!r}")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(diagram: HasseDiagram, labels: Sequence[str], name: str = "hasse") -> str:
    """Graphviz text for the quotient chain, low values at the bottom.

    ``labels`` names elements by enumeration index; class nodes list all
    their members.  Output bytes depend only on the inputs.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    for ci, (value, members) in enumerate(zip(diagram.values, diagram.members)):
        names = ", ".join(labels[i] for i in members)
        label = f"{fmt_short(value)}: {names}".replace('"', r"\"")
        lines.append(f'  c{ci} [label="{label}"];')
    for ci, weight in enumerate(diagram.weights):
        shown = fmt(weight).split(" ")[0].replace('"', r"\"")
        lines.append(f'  c{ci} -> c{ci + 1} [label="{shown}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Machine-readable record (schema metriclass/1)
# ---------------------------------------------------------------------------


# JSON keys that differ from Verdict field names, and (to JSON, from JSON)
# for the fields that are not plain JSON; None stays None both ways
_KEYS = {"measure_id": "measure"}
_CONVERTED = {
    "collision": (
        lambda c: {"first": c.first, "second": c.second, "value": to_record(c.value)},
        lambda rec: CollisionWitness(rec["first"], rec["second"], from_record(rec["value"])),
    ),
    "gap": (to_record, from_record),
    "violating_triple": (lambda t: list(map(to_record, t)), lambda t: tuple(map(from_record, t))),
}


def _convert(name: str, value, direction: int):
    if value is None or name not in _CONVERTED:
        return value
    return _CONVERTED[name][direction](value)


def _verdict_to_json(v: Verdict) -> dict:
    return {
        _KEYS.get(f.name, f.name): _convert(f.name, getattr(v, f.name), 0)
        for f in fields(Verdict)
    }


def _verdict_from_json(rec: dict) -> Verdict:
    return Verdict(**{
        f.name: _convert(f.name, rec[_KEYS.get(f.name, f.name)], 1) for f in fields(Verdict)
    })


def emit_json_report(report: ClassificationReport) -> str:
    """Lossless, versioned record; fractions stay numerator/denominator."""
    payload = {
        "schema": SCHEMA,
        "version": report.version,
        "rows": [
            {
                "measure": row.measure_id,
                "display": row.display,
                "group": row.group,
                "published": row.published,
                "contested": row.contested,
                "agreement": row.agreement,
                "verdicts": [_verdict_to_json(v) for v in row.verdicts],
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_json_report(text: str) -> ClassificationReport:
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA:
        raise ParseError(f"report: unsupported schema {payload.get('schema')!r}")
    rows = tuple(
        ReportRow(
            measure_id=rec["measure"],
            display=rec["display"],
            group=rec["group"],
            published=rec["published"],
            contested=rec["contested"],
            verdicts=tuple(_verdict_from_json(v) for v in rec["verdicts"]),
        )
        for rec in payload["rows"]
    )
    return ClassificationReport(payload["version"], rows)


def emit_verdict_json(verdict: Verdict) -> str:
    return json.dumps(
        {"schema": SCHEMA, "verdict": _verdict_to_json(verdict)}, indent=2, sort_keys=True
    ) + "\n"
