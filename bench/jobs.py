"""Workload definitions, the seeded TREC generator and the reference checks.

Nothing here imports metriclass: the benchmark re-imports the package for
each set-up repetition, and hands the fresh modules to the code that needs
them.  Reference values for ``ingest-trec`` are recomputed here from the
generated data with ``fractions.Fraction``, independently of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

DEPTH = 20
INGEST_MEASURES = ("ap", "rbp?p=1/2", "rr", "dcg?b=2")
TREC_TOPICS = 2000
TREC_RUN_DOCS = 50
TREC_JUDGED = 25
TREC_UNJUDGED_SHARE = 0.02
SUITE_REPEATS = 3  # markdown and JSON table calls per suite-oracle pass
INTERVAL_METRIC = "interval/metric"

# Verdict fields compared against the recorded reference.  backend, eps,
# oracle and oracle_note are left out on purpose: planned work on tolerances
# and the oracle cap may change them without changing the verdict.
REFERENCE_FIELDS = (
    "category", "injective", "collision", "violating_triple", "gap",
    "classes", "elements", "excluded",
)


def classify_job(measure: str, domain: str, *extra: str) -> tuple[str, ...]:
    return ("classify", "--measure", measure, "--domain", domain, *extra, "--json")


RANK_LADDER = (
    # dense rungs: evaluation (Fraction prefix sums) dominates
    classify_job("ap", "binary:L=12"),
    classify_job("msr", "binary:L=11"),
    classify_job("dcg?b=2", "binary:L=12"),
    classify_job("nxcg@4", "binary:L=12"),
    classify_job("rbp?p=1/2", "graded:levels=3,L=7"),
    classify_job("q-measure", "graded:levels=3,L=7"),
    # sparse rungs: few elements out of many tuples walked
    classify_job("rr", "binary:L=18,rel=1"),
    classify_job("ap", "binary:L=16,rel=2"),
)

SET_SWEEP = (
    classify_job("recall", "contingency:N=600,R=200"),
    classify_job("precision", "contingency:N=600,R=200,n=0..600"),
    classify_job("f-measure", "contingency:N=400,R=100"),
    classify_job("novelty-ratio", "user:U=3,A=1..120"),
    classify_job("esl", "leveled:docs=8,s=1"),
)

SUITE_ORACLE = (
    *(("table", "--suite", "paper"),) * SUITE_REPEATS,
    *(("table", "--suite", "paper", "--json"),) * SUITE_REPEATS,
    *(classify_job("rbp?p=1/2", f"binary:L={L}", "--oracle-cap", "1024") for L in (8, 9, 10)),
)

# Layer each workload was designed to be dominated by, in traced self time.
PREDICTED = {
    "rank-ladder": ("measures.evaluate",),
    "set-sweep": ("intrinsic.group", "intrinsic.spacing"),
    "suite-oracle": ("intrinsic.oracle",),
    "ingest-trec": ("ingest.parse_qrels", "ingest.parse_run"),
}


# ---------------------------------------------------------------------------
# ingest-trec inputs
# ---------------------------------------------------------------------------


def make_trec(seed: int) -> dict:
    """A TREC run/qrels pair drawn from ``seed``.

    2,000 topics with 50 run documents each; scores have 4 decimals, so ties
    occur and are broken by document id.  About 2% of the run's topics have
    no judgments.  Every judged topic has 25 judged documents in grades 0-2,
    at least one of them relevant, drawn from the same 100-document pool as
    the run, so some judged documents are not retrieved and some retrieved
    ones are unjudged.  Returns the file texts and, per topic, the ranked
    grades and relevant count that the reference needs.
    """
    rng = random.Random(seed)
    topics = [str(401 + k) for k in range(TREC_TOPICS)]
    unjudged = set(rng.sample(topics, round(TREC_TOPICS * TREC_UNJUDGED_SHARE)))
    run_lines: list[str] = []
    qrels_lines: list[str] = []
    truth: dict[str, tuple[tuple[int, ...], int]] = {}
    for topic in topics:
        pool = [f"D{topic}-{k:03d}" for k in range(2 * TREC_RUN_DOCS)]
        retrieved = [(rng.randrange(10_000), doc) for doc in rng.sample(pool, TREC_RUN_DOCS)]
        retrieved.sort(key=lambda sd: (-sd[0], sd[1]))
        for rank, (score, doc) in enumerate(retrieved, 1):
            run_lines.append(f"{topic} Q0 {doc} {rank} {score / 10_000:.4f} bench\n")
        if topic in unjudged:
            continue
        judged = rng.sample(pool, TREC_JUDGED)
        grades = {doc: rng.choice((0, 0, 0, 1, 1, 2)) for doc in judged}
        if not any(grades.values()):
            grades[rng.choice(judged)] = rng.choice((1, 2))
        qrels_lines.extend(f"{topic} 0 {doc} {grades[doc]}\n" for doc in judged)
        ranked = tuple(grades.get(doc, 0) for _, doc in retrieved[:DEPTH])
        truth[topic] = (ranked, sum(1 for g in grades.values() if g > 0))
    return {
        "run": "".join(run_lines),
        "qrels": "".join(qrels_lines),
        "truth": truth,
        "skipped": sorted(unjudged, key=topics.index),
    }


def ingest_jobs(qrels: Path, run: Path) -> tuple[tuple[str, ...], ...]:
    return tuple(
        ("ingest-eval", "--qrels", str(qrels), "--run", str(run), "--measure", m,
         "--depth", str(DEPTH), "--scheme", "graded:levels=3", "--aggregate", "mean")
        for m in INGEST_MEASURES
    )


def write_probe(directory: Path) -> tuple[str, ...]:
    """Inputs where one judged topic has no relevant document."""
    qrels = directory / "probe.qrels"
    run = directory / "probe.run"
    qrels.write_text("1 0 a 1\n2 0 b 0\n2 0 c 0\n", encoding="utf-8")
    run.write_text("1 Q0 a 1 0.9 probe\n2 Q0 b 1 0.9 probe\n2 Q0 c 2 0.8 probe\n",
                   encoding="utf-8")
    return ("ingest-eval", "--qrels", str(qrels), "--run", str(run), "--measure", "ap",
            "--depth", "2")


def reference_value(measure: str, ranked: tuple[int, ...], relevant: int):
    """Per-topic value on grades 0-2 (gains 0, 1/2, 1), from the definitions."""
    if measure == "ap":
        hits, total = 0, Fraction(0)
        for rank, grade in enumerate(ranked, 1):
            if grade:
                hits += 1
                total += Fraction(hits, rank)
        return total / relevant
    if measure == "rbp?p=1/2":
        p = Fraction(1, 2)
        return (1 - p) * sum(p ** (r - 1) * Fraction(g, 2) for r, g in enumerate(ranked, 1))
    if measure == "rr":
        return next((Fraction(1, r) for r, g in enumerate(ranked, 1) if g), Fraction(0))
    if measure == "dcg?b=2":
        return sum(g / 2 / max(1.0, math.log2(r)) for r, g in enumerate(ranked, 1))
    raise ValueError(measure)


def shows(text: str, expected) -> bool:
    """Does a CLI value (``3/8 (0.375)`` or ``1.234 (~1e-09)``) show ``expected``?

    Exact values must match exactly.  Float values are printed with three
    decimals, so they must lie within half a unit of the last digit (plus
    the float tolerance of 1e-9).
    """
    head = text.split(" ", 1)[0]
    try:
        if isinstance(expected, float):
            return "." in head and abs(float(head) - expected) <= 5e-4 + 1e-9
        return "." not in head and Fraction(head) == expected
    except (ValueError, ZeroDivisionError):
        return False


def parse_ingest_output(text: str) -> tuple[dict[str, str], list[str], str | None]:
    """Split ingest-eval text output into per-topic values, skipped topics, mean."""
    values: dict[str, str] = {}
    skipped: list[str] = []
    mean = None
    for line in text.splitlines():
        if line.startswith("topic "):
            topic, _, rest = line[6:].partition(": ")
            if rest == "skipped (no judgments)":
                skipped.append(topic)
            else:
                values[topic] = rest.partition(" = ")[2]
        elif line.startswith("mean "):
            mean = line.partition(" = ")[2]
    return values, skipped, mean


def check_ingest(text: str, measure: str, trec: dict) -> list[str]:
    values, skipped, mean = parse_ingest_output(text)
    truth = trec["truth"]
    problems = []
    if sorted(values) != sorted(truth):
        problems.append(f"{measure}: evaluated topics differ from the judged topics")
    if skipped != trec["skipped"]:
        problems.append(f"{measure}: skipped topics differ")
    expected = {t: reference_value(measure, *truth[t]) for t in truth}
    bad = [t for t in truth if t in values and not shows(values[t], expected[t])]
    if bad:
        problems.append(f"{measure}: {len(bad)} topic values differ, first {bad[0]}")
    exp_mean = sum(expected.values(), 0.0 if measure == "dcg?b=2" else Fraction(0)) / len(truth)
    if mean is None or not shows(mean, exp_mean):
        problems.append(f"{measure}: mean {mean!r} differs from {exp_mean}")
    return problems


def check_ingest_values(measure: str, values: dict, trec: dict) -> list[str]:
    """Full-precision per-topic values, as a replay sees them, against the recomputation.

    Exact values must match exactly and float ones (``dcg``) within 1e-9.
    """
    truth = trec["truth"]
    bad = []
    for topic, (ranked, relevant) in truth.items():
        expected = reference_value(measure, ranked, relevant)
        got = values.get(topic)
        if got is None or (abs(got - expected) > 1e-9 if isinstance(expected, float)
                           else got != expected):
            bad.append(topic)
    if sorted(values) != sorted(truth) or bad:
        return [f"{measure}: replayed values differ on {len(bad)} topics"]
    return []


# ---------------------------------------------------------------------------
# classify and table references
# ---------------------------------------------------------------------------


def job_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(argv: tuple[str, ...], text: str, reference: dict, trec: dict | None) -> list[str]:
    """Compare one call's stdout with its reference; returns the problems found."""
    if argv[0] == "table":
        form = "json" if "--json" in argv else "markdown"
        if sha256(text) != reference["suite"][f"{form}_sha256"]:
            return [f"table {form}: bytes differ from the seed's"]
        return []
    if argv[0] == "ingest-eval":
        return check_ingest(text, argv[argv.index("--measure") + 1], trec)
    verdict = json.loads(text)["verdict"]
    expected = reference["classify"][job_key(argv)]
    return [
        f"{job_key(argv)}: {field} is {verdict[field]!r}, expected {expected[field]!r}"
        for field in REFERENCE_FIELDS
        if verdict[field] != expected[field]
    ]


def verdicts_in(argv: tuple[str, ...], text: str) -> list[dict]:
    if argv[0] == "classify":
        return [json.loads(text)["verdict"]]
    if argv[0] == "table" and "--json" in argv:
        return [v for row in json.loads(text)["rows"] for v in row["verdicts"]]
    return []


def items_of(argv: tuple[str, ...], reference: dict, trec: dict | None) -> int:
    """Work items one call completes: domain elements, or topics evaluated."""
    if argv[0] == "table":
        return reference["suite"]["elements"]
    if argv[0] == "ingest-eval":
        return len(trec["truth"])
    return reference["classify"][job_key(argv)]["elements"]


def _evaluate_args(domain: str, label: str) -> list[str]:
    """``evaluate`` flags that rebuild one element of ``domain`` from its label."""
    kind, _, rest = domain.partition(":")
    if kind in ("binary", "graded"):
        keys = dict(part.split("=") for part in rest.split(","))
        scheme = "binary" if kind == "binary" else f"graded:levels={keys['levels']}"
        return ["--ranking", label[1:-1], "--universe", f"N={keys['N']},R={keys['R']}",
                "--scheme", scheme]
    if kind == "contingency":
        return ["--table", label]
    if kind == "user":
        return ["--context", label]
    levels, _, need = label.partition(";s=")
    return ["--leveled", levels, "--need", need]


def witness_jobs(verdicts: list[dict]) -> list[tuple[tuple[str, ...], dict]]:
    """(evaluate argv, expected value record) for both sides of every collision."""
    jobs = []
    for v in verdicts:
        c = v["collision"]
        if c is None:
            continue
        for label in (c["first"], c["second"]):
            argv = ("evaluate", "--measure", v["measure"], *_evaluate_args(v["domain"], label))
            jobs.append((argv, c["value"]))
    return jobs


def oracle_disagreement(v: dict) -> str | None:
    """Why an oracle that ran disagrees with the verdict's category, if it does."""
    if v["oracle"] is None or v["oracle"] == (v["category"] == INTERVAL_METRIC):
        return None
    return f"{v['measure']} on {v['domain']}: oracle {v['oracle']} vs {v['category']}"
