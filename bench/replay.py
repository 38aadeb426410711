"""Replay of CLI jobs through the layer functions, with spans timed from outside.

Each job is re-run through the public functions of ``enumeration``,
``measures``, ``intrinsic``, ``report`` and ``ingest``, with one span around
each call (or around each loop of per-element calls).  The replay rebuilds
the job's stdout, so the caller can check that it describes the same
program as ``cli.run``.  With tracing off the same code runs without spans;
the difference between the two is the tracing overhead.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# Spans whose self time is reported per layer, with the metric name used.
LAYER_SPANS = {
    "enumeration.parse": "enumeration.parse_s",
    "enumeration.enumerate": "enumeration.enumerate_s",
    "enumeration.label": "enumeration.label_s",
    "measures.resolve": "measures.resolve_s",
    "measures.evaluate": "measures.evaluate_s",
    "measures.aggregate": "measures.aggregate_s",
    "intrinsic.group": "intrinsic.group_s",
    "intrinsic.injective": "intrinsic.injective_s",
    "intrinsic.spacing": "intrinsic.spacing_s",
    "intrinsic.oracle": "intrinsic.oracle_s",
    "report.render": "report.render_s",
    "ingest.parse_qrels": "ingest.parse_qrels_s",
    "ingest.parse_run": "ingest.parse_run_s",
    "ingest.to_rankings": "ingest.to_rankings_s",
}


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index, job id]``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self, factors) -> Counter:
        """Self time per span name: duration minus the duration of its children.

        Each span is divided by its job's speed factor (``calibrate.py``).
        """
        own = Counter()
        for name, start, end, parent, job in self.spans:
            took = (end - start) / factors[job]
            own[name] += took
            if parent >= 0:
                own[self.spans[parent][0]] -= took
        return own


def _flags(argv) -> dict[str, str]:
    out = {}
    for k, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else ""
            out[arg] = "" if nxt.startswith("--") else nxt
    return out


class Replay:
    """Replays jobs against one imported copy of the program."""

    def __init__(self, program, tracer: Tracer):
        self.p = program
        self.tr = tracer
        self.counts = Counter()
        self.ingest_values: dict[str, dict] = {}  # measure id -> topic -> exact or float

    # -- classification pipeline -------------------------------------------

    def _parse(self, text):
        spec = self.p.enumeration.parse_domain(text)
        self.p.enumeration.cardinality(spec)
        return spec

    def _enumerate(self, spec):
        return list(self.p.enumeration.enumerate_domain(spec, self.p.enumeration.DEFAULT_CAP))

    def _label(self, elements):
        to_str = self.p.enumeration.element_to_str
        return [to_str(e) for e in elements]

    def _evaluate(self, measure, elements, universe):
        undefined_error = self.p.errors.UndefinedValueError
        values = []
        for element in elements:
            try:
                values.append(measure.evaluate(element, universe))
            except undefined_error:
                values.append(None)
        return values

    def classify(self, measure, domain_text, oracle_cap):
        p, tr, counts = self.p, self.tr, self.counts
        spec = tr.call("enumeration.parse", self._parse, domain_text)
        elements = tr.call("enumeration.enumerate", self._enumerate, spec)
        labels = tr.call("enumeration.label", self._label, elements)
        universe = spec.universe if spec.kind == "rankings" else None
        values = tr.call("measures.evaluate", self._evaluate, measure, elements, universe)
        intrinsic = p.intrinsic
        ordered = tr.call("intrinsic.group", intrinsic.order_values, list(zip(labels, values)))
        injective, collision = tr.call("intrinsic.injective", intrinsic.check_injective, ordered)
        spacing = tr.call("intrinsic.spacing", intrinsic.check_equispaced, ordered)
        oracle = tr.call("intrinsic.oracle", intrinsic.interval_scale_oracle, ordered, oracle_cap)

        k = len(ordered.classes)
        counts["enumeration.elements"] += len(elements)
        counts["enumeration.candidates"] += (
            sum(spec.scheme.size ** L for L in spec.lengths) if spec.kind == "rankings"
            else len(elements)
        )
        counts["measures.evaluations"] += len(elements)
        counts["measures.undefined"] += values.count(None)
        counts["intrinsic.classes"] += k
        if oracle.skipped:
            counts["intrinsic.oracle_skips"] += 1
        else:
            counts["intrinsic.oracle_runs"] += 1
            if injective:  # non-injective quotients return before the pair loop
                counts["intrinsic.oracle_pairs"] += k * (k + 1) // 2

        if injective and spacing.equispaced and not spacing.degenerate:
            category = intrinsic.INTERVAL_METRIC
        elif injective:
            category = intrinsic.ORDINAL_METRIC
        else:
            category = intrinsic.ORDINAL_PSEUDOMETRIC
        return intrinsic.Verdict(
            measure_id=measure.id,
            domain=p.enumeration.format_domain(spec),
            category=category,
            injective=injective,
            collision=collision,
            equispaced=spacing.equispaced,
            degenerate=spacing.degenerate,
            gap=spacing.gap,
            violating_triple=spacing.violating_triple,
            classes=k,
            elements=len(ordered.labels),
            excluded=len(ordered.excluded),
            excluded_example=ordered.labels[ordered.excluded[0]] if ordered.excluded else None,
            backend=measure.backend,
            eps=measure.eps,
            oracle=oracle.verdict,
            oracle_note=oracle.note,
        )

    def _render(self, fn, *args) -> str:
        text = self.tr.call("report.render", fn, *args)
        self.counts["report.bytes"] += len(text.encode("utf-8"))
        return text

    # -- jobs ----------------------------------------------------------------

    def job(self, argv) -> str:
        """Replay one CLI job and return the stdout it should have produced."""
        flags = _flags(argv)
        if argv[0] == "classify":
            measure = self.tr.call("measures.resolve", self.p.measures.measure_from_id,
                                   flags["--measure"])
            verdict = self.classify(measure, flags["--domain"],
                                    int(flags.get("--oracle-cap", "200")))
            return self._render(self.p.report.emit_verdict_json, verdict)
        if argv[0] == "table":
            return self._table("--json" in flags)
        return self._ingest(flags)

    def _table(self, as_json: bool) -> str:
        report = self.p.report
        rows = []
        for group, suite in (("set-based", report.SET_BASED_SUITE),
                             ("rank-based", report.RANK_BASED_SUITE)):
            for measure_id, published, contested, domains in suite:
                measure = self.tr.call("measures.resolve", self.p.measures.measure_from_id,
                                       measure_id)
                verdicts = tuple(self.classify(measure, d, 200) for d in domains)
                rows.append(report.ReportRow(measure.id, measure.display, group, published,
                                             contested, verdicts))
        built = report.ClassificationReport(self.p.version.VERSION, tuple(rows))
        if as_json:
            return self._render(report.emit_json_report, built)
        return self._render(report.render_table, built, "markdown")

    def _scheme(self, text):
        grades = self.p.model.GradeScheme
        return grades.binary() if text == "binary" else grades.equispaced(int(text.split("=")[1]))

    def _evaluate_topics(self, measure, rankings):
        return [(t, measure.evaluate(*rankings[t])) for t in sorted(rankings)]

    def _ingest(self, flags) -> str:
        p, tr, counts = self.p, self.tr, self.counts
        with open(flags["--qrels"], encoding="utf-8") as handle:
            qrels_text = handle.read()
        with open(flags["--run"], encoding="utf-8") as handle:
            run_text = handle.read()
        qrels = tr.call("ingest.parse_qrels", p.ingest.parse_qrels, qrels_text)
        run = tr.call("ingest.parse_run", p.ingest.parse_run, run_text)
        rankings, skipped = tr.call("ingest.to_rankings", p.ingest.to_rankings, run, qrels,
                                    self._scheme(flags["--scheme"]), int(flags["--depth"]))
        measure = tr.call("measures.resolve", p.measures.measure_from_id, flags["--measure"])
        lines = tr.call("measures.evaluate", self._evaluate_topics, measure, rankings)
        mean, _ = tr.call("measures.aggregate", p.measures.aggregate, [v for _, v in lines],
                          "map")

        counts["ingest.lines"] += len(qrels.judgments) + sum(len(e) for _, e in run.by_topic)
        counts["ingest.topics"] += len(run.by_topic)
        counts["ingest.skipped_topics"] += len(skipped)
        counts["measures.evaluations"] += len(lines)
        self.ingest_values[measure.id] = {t: v.numeric() for t, v in lines}

        fmt = p.values.fmt
        out = [f"topic {t}: {measure.id} = {fmt(v)}\n" for t, v in lines]
        out += [f"topic {t}: skipped (no judgments)\n" for t in skipped]
        out.append(f"mean {measure.id} over {len(lines)} topics = {fmt(mean)}\n")
        return "".join(out)
