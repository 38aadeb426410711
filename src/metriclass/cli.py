"""Command-line front door.

Verbs: list-measures, evaluate, classify, witness, hasse, table,
ingest-eval.  Exit codes: 0 success, 1 usage error, 2 computation error.
Identical invocations produce byte-identical stdout; the enumeration cap
can be raised with the METRICLASS_MAX_DOMAIN environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .enumeration import DEFAULT_CAP, Contingency, Leveled, User, parse_domain, parse_fields
from .errors import MetriclassError, ParseError, UndefinedValueError
from .ingest import parse_qrels, parse_run, read_text, to_rankings
from .intrinsic import DEFAULT_ORACLE_CAP, INTERVAL_METRIC, build_hasse, classify, induced_order
from .measures import aggregate, list_measure_ids, measure_from_id
from .model import GradeScheme, Ranking, Universe
from .report import (
    RANK_BASED_SUITE,
    SET_BASED_SUITE,
    build_published_suite,
    emit_json_report,
    emit_verdict_json,
    export_dot,
    render_table,
)
from .values import fmt
from .version import VERSION


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"wants a non-negative integer, got {text!r}")


@functools.cache  # built once per process: parsing keeps its per-call state in the namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="metriclass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"metriclass {VERSION}")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list-measures", help="print every registered measure id")

    ev = sub.add_parser("evaluate", help="evaluate one measure on one element")
    ev.add_argument("--measure", required=True, help="measure id, e.g. recall or prec@4")
    ev.add_argument("--table", help="contingency counts, e.g. tp=2,fp=3,fn=3,tn=7")
    ev.add_argument("--context", help="user counts, e.g. U=1,Rk=1,Ru=0,A=2")
    ev.add_argument("--ranking", help="grade labels by rank, e.g. 1,0,0,1")
    ev.add_argument("--universe", help="collection counts, e.g. N=8,R=2")
    ev.add_argument("--scheme", default="binary", help="binary or graded:levels=<g>")
    ev.add_argument("--leveled", help="leveled output, e.g. (0,2)(1,1)")
    ev.add_argument("--need", type=int, help="relevant documents required (with --leveled)")

    cl = sub.add_parser("classify", help="classify a measure over an explicit domain")
    cl.add_argument("--measure", required=True)
    cl.add_argument("--domain", required=True, help="domain spec, e.g. binary:L=4")
    cl.add_argument("--oracle-cap", type=_non_negative, default=DEFAULT_ORACLE_CAP,
                    help="max quotient classes for the interval-scale oracle")
    cl.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    wi = sub.add_parser("witness", help="print collision / uneven-gap evidence")
    wi.add_argument("--measure", required=True)
    wi.add_argument("--domain", help="defaults to the measure's suite domain")

    ha = sub.add_parser("hasse", help="export the quotient chain as DOT")
    ha.add_argument("--measure", required=True)
    ha.add_argument("--domain", required=True)
    ha.add_argument("--out", required=True, help="output file path")

    ta = sub.add_parser("table", help="rebuild the published-comparison tables")
    ta.add_argument("--suite", required=True, choices=["paper"],
                    help="which suite to run (published comparison)")
    ta.add_argument("--format", default="markdown", choices=["markdown", "csv", "text"])
    ta.add_argument("--json", action="store_true", help="emit the machine-readable record")

    ie = sub.add_parser("ingest-eval", help="evaluate a run file against qrels")
    ie.add_argument("--qrels", required=True)
    ie.add_argument("--run", required=True)
    ie.add_argument("--measure", required=True)
    ie.add_argument("--depth", required=True, type=int, help="ranking depth L")
    ie.add_argument("--scheme", default="binary", help="binary or graded:levels=<g>")
    ie.add_argument("--aggregate", choices=["mean", "gmean"],
                    help="aggregate per-topic values (flagged)")
    ie.add_argument("--quiet-warnings", action="store_true",
                    help="suppress warning text (JSON flag stays)")
    ie.add_argument("--json", action="store_true")
    return parser


def _parse_scheme(text: str) -> GradeScheme:
    if text == "binary":
        return GradeScheme.binary()
    head, sep, rest = text.partition(":")
    if head == "graded" and sep:
        return GradeScheme.equispaced(parse_fields(rest, "cli: scheme", ("levels",))["levels"])
    raise ParseError(f"cli: unknown scheme {text!r} (use binary or graded:levels=<g>)")


def _evaluate(args, out) -> int:
    measure = measure_from_id(args.measure)
    given = [x for x in (args.table, args.context, args.ranking, args.leveled) if x]
    if len(given) != 1:
        raise UsageError("evaluate needs exactly one of --table/--context/--ranking/--leveled")
    if measure.family == "contingency":
        if not args.table:
            raise UsageError(f"{measure.id} evaluates a --table")
        value = measure.evaluate(Contingency.element(args.table))
    elif measure.family == "user":
        if not args.context:
            raise UsageError(f"{measure.id} evaluates a --context")
        value = measure.evaluate(User.element(args.context))
    elif measure.family == "ranking":
        if not args.ranking or not args.universe:
            raise UsageError(f"{measure.id} evaluates a --ranking with a --universe")
        scheme = _parse_scheme(args.scheme)
        counts = parse_fields(args.universe, "cli: universe", ("N", "R"))
        ranking = Ranking(scheme, tuple(args.ranking.split(",")))
        value = measure.evaluate(ranking, Universe(counts["N"], counts["R"]))
    else:  # leveled
        if not args.leveled or args.need is None:
            raise UsageError(f"{measure.id} evaluates a --leveled output with --need")
        value = measure.evaluate(Leveled.element(f"{args.leveled};s={args.need}"))
    print(fmt(value), file=out)
    return 0


# measure table key -> (published category, first domain) of the suite entry with that
# key, e.g. "dcg?" -> the entry of "dcg?b=2"
_SUITE = {
    measure_from_id(measure_id).key: (published, domains[0])
    for measure_id, published, _, domains in SET_BASED_SUITE + RANK_BASED_SUITE
}


def _classify(args, out, cap: int) -> int:
    measure = measure_from_id(args.measure)
    spec = parse_domain(args.domain)
    verdict = classify(measure, spec, oracle_cap=args.oracle_cap, cap=cap)
    if args.json:
        out.write(emit_verdict_json(verdict))
    else:
        print(verdict.describe(), file=out)
        print(f"domain: {verdict.domain}", file=out)
        backend = verdict.backend if verdict.eps is None else f"{verdict.backend} (eps={verdict.eps:g})"
        print(f"backend: {backend}", file=out)
    return 0


def _witness(args, out, cap: int) -> int:
    measure = measure_from_id(args.measure)
    domain_text = args.domain or _SUITE.get(measure.key, (None, None))[1]
    if not domain_text:
        raise UsageError(f"no default domain for {measure.id}; pass --domain")
    verdict = classify(measure, parse_domain(domain_text), cap=cap)
    if verdict.collision is not None:
        print(f"collision: {verdict.collision.describe()}", file=out)
    elif (uneven := verdict.uneven_gaps()) is not None:
        print(uneven, file=out)
    else:
        print("no collision or uneven gap on this domain", file=out)
    print(f"domain: {verdict.domain}", file=out)
    return 0


def _hasse(args, out, cap: int) -> int:
    measure = measure_from_id(args.measure)
    spec = parse_domain(args.domain)
    ordered = induced_order(measure, spec, cap=cap)
    text = export_dot(build_hasse(ordered), labels=ordered.labels)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}", file=out)
    return 0


def _table(args, out) -> int:
    report = build_published_suite()
    if args.json:
        out.write(emit_json_report(report))
    else:
        out.write(render_table(report, args.format))
    return 0


def _ingest_eval(args, out) -> int:
    measure = measure_from_id(args.measure)
    if measure.family != "ranking":
        raise UsageError("ingest-eval works with rank-based measures")
    qrels = parse_qrels(read_text(args.qrels))
    run = parse_run(read_text(args.run))
    scheme = _parse_scheme(args.scheme)
    rankings, skipped = to_rankings(run, qrels, scheme, args.depth)
    values = []
    lines = []
    undefined = []  # (topic, reason): skipped and reported, never scored
    for topic in sorted(rankings):
        try:
            value = measure.evaluate(*rankings[topic])
        except UndefinedValueError as exc:
            undefined.append((topic, exc.reason))
            continue
        values.append(value)
        lines.append((topic, value))

    warn_needed = _SUITE.get(measure.key, (None, None))[0] != INTERVAL_METRIC
    if args.aggregate:
        agg, warning = aggregate(values, "map" if args.aggregate == "mean" else "gmap")
    payload: dict = {
        "measure": measure.id,
        "topics": {topic: fmt(value) for topic, value in lines},
        "skipped_topics": [*skipped, *(topic for topic, _ in undefined)],
    }
    if args.json:
        if args.aggregate:
            payload["aggregate"] = {
                "kind": args.aggregate,
                "value": fmt(agg),
                "permissibility_flag": warn_needed,
                "warning": warning,
            }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    for topic, value in lines:
        print(f"topic {topic}: {measure.id} = {fmt(value)}", file=out)
    for topic in skipped:
        print(f"topic {topic}: skipped (no judgments)", file=out)
    for topic, reason in undefined:
        print(f"topic {topic}: skipped (undefined: {reason})", file=out)
    if args.aggregate:
        print(f"{args.aggregate} {measure.id} over {len(values)} topics = {fmt(agg)}", file=out)
        if warn_needed and not args.quiet_warnings:
            print(f"warning: {warning}", file=out)
    return 0


def _env_cap() -> int:
    text = os.environ.get("METRICLASS_MAX_DOMAIN")
    if text is None:
        return DEFAULT_CAP
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"cli: METRICLASS_MAX_DOMAIN wants an integer, got {text!r}") from None


def run(argv: list[str], out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        cap = _env_cap()
        if args.verb == "list-measures":
            for measure_id in list_measure_ids():
                print(measure_id, file=out)
            return 0
        if args.verb == "evaluate":
            return _evaluate(args, out)
        if args.verb == "classify":
            return _classify(args, out, cap)
        if args.verb == "witness":
            return _witness(args, out, cap)
        if args.verb == "hasse":
            return _hasse(args, out, cap)
        if args.verb == "table":
            return _table(args, out)
        return _ingest_eval(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except MetriclassError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"error: cli: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
