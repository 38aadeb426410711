"""metriclass benchmark: four seeded closed-loop workloads over the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the repository root; the package is imported from ``src/``.  Each
workload is a fixed list of CLI argument vectors, passed one after another
to ``metriclass.cli.run(argv, out, err)`` in this process: one client, no
threads, no child processes.  The seed permutes the job order of every pass
and generates the ``ingest-trec`` files; the program only sees the argv and
the files.

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
With ``--trace 1`` it runs rounds of three passes (plain ``cli.run``, an
untraced replay and a traced replay, see ``replay.py``) and reports
per-layer metrics.  Times are scaled to a reference CPU speed (see
``calibrate.py``).  Every output is checked against ``reference.json`` or,
for ``ingest-trec``, against a Fraction recomputation from the generated
files.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; traced runs also
write their spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import jobs  # noqa: E402  (bench/ is on sys.path as the script's directory)
from calibrate import speed, timed_pass  # noqa: E402
from replay import LAYER_SPANS, Replay, Tracer  # noqa: E402

WORKLOADS = ("rank-ladder", "set-sweep", "suite-oracle", "ingest-trec")
SETUP_REPEATS = 5
MIN_PASSES = 3
MODULES = ("cli", "enumeration", "errors", "ingest", "intrinsic", "measures", "model",
           "report", "values", "version")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MiB"))
COUNTS = (
    "enumeration.elements", "enumeration.candidates", "measures.evaluations",
    "measures.undefined", "intrinsic.classes", "intrinsic.oracle_runs",
    "intrinsic.oracle_skips", "intrinsic.oracle_pairs", "report.bytes", "ingest.lines",
    "ingest.topics", "ingest.skipped_topics",
)
# Layer times that every workload exercises are reported in seconds; the
# others would read 0 on the workloads that bypass them, so every layer is
# also reported as its share of the traced pass.
PER_LAYER = (
    ("measures.resolve_s", "s"),
    ("measures.evaluate_s", "s"),
    ("measures.us_per_eval", "us"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    *((name, "count") for name in COUNTS),
    ("enumeration.yield_ratio", "ratio"),
    *((span + "_share", "ratio") for span in LAYER_SPANS),
    ("replay.glue_share", "ratio"),
)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def fresh_import() -> SimpleNamespace:
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "metriclass" or m.startswith("metriclass.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"metriclass.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "metriclass":
        raise SystemExit(f"bench: imported metriclass from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, workdir: Path):
    program = fresh_import()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    trec = None
    if workload == "ingest-trec":
        trec = jobs.make_trec(seed)
        qrels, run = workdir / "trec.qrels", workdir / "trec.run"
        qrels.write_text(trec["qrels"], encoding="utf-8")
        run.write_text(trec["run"], encoding="utf-8")
        job_list = jobs.ingest_jobs(qrels, run)
    else:
        job_list = {"rank-ladder": jobs.RANK_LADDER, "set-sweep": jobs.SET_SWEEP,
                    "suite-oracle": jobs.SUITE_ORACLE}[workload]
    return program, job_list, reference, trec


def timed_set_up(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; returns the last state, raw and scaled times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed()
        start = perf_counter()
        state = set_up(workload, seed, workdir)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] / ((before + speed()) / 2))
    return state, raw, scaled


# ---------------------------------------------------------------------------
# calls and checks
# ---------------------------------------------------------------------------


def call(cli, argv) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        code = cli.run(list(argv), out, err)
    except Exception:  # an escaped exception is a failed call, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class Outputs:
    """Runs CLI jobs, keeping each job's first stdout and whether later calls reproduced it."""

    def __init__(self, cli, ledger: Ledger):
        self.cli = cli
        self.ledger = ledger
        self.first: dict[tuple, str] = {}
        self.good_calls: Counter = Counter()

    def job(self, _job_id, argv) -> float:
        """One timed ``cli.run`` call (a ``timed_pass`` job); returns its seconds."""
        code, out, err, elapsed = call(self.cli, argv)
        if code != 0 or "Traceback" in err:
            self.ledger.record(False, f"{jobs.job_key(argv)}: exit {code}: {err.strip()[-300:]}")
            return elapsed
        first = self.first.setdefault(argv, out)
        self.ledger.record(out == first, f"{jobs.job_key(argv)}: output changed between calls")
        self.good_calls[argv] += out == first
        return elapsed

    def check(self, reference, trec):
        """Reference checks, witness re-evaluation and oracle agreement."""
        ledger = self.ledger
        verdicts = []
        for argv, text in self.first.items():
            try:
                problems = jobs.check_output(argv, text, reference, trec)
                verdicts += jobs.verdicts_in(argv, text)
            except (ValueError, KeyError, TypeError) as exc:  # output not in the expected form
                problems = [f"{jobs.job_key(argv)}: unreadable output ({exc!r})"]
            if problems:  # every call that reproduced this output was wrong
                ledger.failed += self.good_calls[argv]
                ledger.problems.extend(problems[:5])
        for argv, record in jobs.witness_jobs(verdicts):
            code, out, err, _ = call(self.cli, argv)
            expected = (record["value"] if record["kind"] == "approx"
                        else Fraction(record["num"], record["den"]))
            ledger.record(code == 0 and jobs.shows(out.strip(), expected),
                          f"witness {jobs.job_key(argv)} gave {out.strip()!r}, err {err!r}")
        for disagreement, v in ((jobs.oracle_disagreement(v), v) for v in verdicts):
            if v["oracle"] is not None:
                ledger.record(disagreement is None, f"oracle disagrees: {disagreement}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def untraced(args, program, job_list, reference, trec, setup):
    rng = random.Random(args.seed)
    ledger = Ledger()
    outputs = Outputs(program.cli, ledger)
    items_per_pass = sum(jobs.items_of(argv, reference, trec) for argv in job_list)
    raw, scaled = [], []
    begin = perf_counter()
    while len(raw) < MIN_PASSES or perf_counter() - begin < args.seconds:
        gc.collect()
        pass_raw, pass_scaled, _ = timed_pass(rng.sample(job_list, len(job_list)), outputs.job)
        raw.append(pass_raw)
        scaled.append(pass_scaled)
    outputs.check(reference, trec)

    setup_raw, setup_scaled = setup
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(scaled),
        "items_per_s": items_per_pass / statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    item = "topic evaluations" if trec else "domain elements"
    print(f"workload {args.workload}: seed {args.seed}, {len(raw)} passes of "
          f"{len(job_list)} jobs, {items_per_pass} {item} per pass")
    print(f"  raw set-up times (s): {' '.join(f'{t:.4f}' for t in setup_raw)}")
    print(f"  raw pass times (s):   {' '.join(f'{t:.4f}' for t in raw)}")
    print(f"  speed factors:        {' '.join(f'{r / s:.3f}' for r, s in zip(raw, scaled))}")
    print(f"  unscaled: median pass {statistics.median(raw):.4f} s, "
          f"{items_per_pass * len(raw) / sum(raw):.6g} items/s")
    return metrics, ledger


def traced(args, program, job_list, reference, trec):
    rng = random.Random(args.seed)
    ledger = Ledger()
    outputs = Outputs(program.cli, ledger)

    def replay_job(replay, texts):
        def run_job(job_id, argv):
            replay.tr.job = job_id
            start = perf_counter()
            texts.append((argv, replay.tr.call("job", replay.job, argv)))
            return perf_counter() - start
        return run_job

    rounds, spans = [], []
    begin = perf_counter()
    while not rounds or perf_counter() - begin < args.seconds:
        order = rng.sample(job_list, len(job_list))
        times, factors, texts, replays = {}, {}, {}, {}
        tracer = Tracer(True)
        modes = ("cli", "replay", "traced")
        shift = len(rounds) % 3
        for mode in modes[shift:] + modes[:shift]:  # rotate to spread drift evenly
            gc.collect()
            if mode == "cli":
                times[mode] = timed_pass(order, outputs.job)[1]
                continue
            replay = replays[mode] = Replay(program, tracer if mode == "traced" else Tracer(False))
            texts[mode] = []
            _, times[mode], factors[mode] = timed_pass(order, replay_job(replay, texts[mode]))
        for mode, replayed in texts.items():
            for argv, text in replayed:
                cli_text = outputs.first.get(argv)
                same = cli_text is not None and (
                    jobs.parse_ingest_output(text) == jobs.parse_ingest_output(cli_text)
                    if argv[0] == "ingest-eval" else text == cli_text)
                ledger.record(same, f"{mode} replay of {jobs.job_key(argv)} differs from cli.run")
        ledger.record(replays["traced"].counts == replays["replay"].counts,
                      "traced and untraced replays counted different work")
        for measure, values in replays["traced"].ingest_values.items():
            problems = jobs.check_ingest_values(measure, values, trec)
            ledger.record(not problems, "; ".join(problems))
        rounds.append((times, tracer.self_times(factors["traced"]), replays["traced"].counts))
        spans.append({"jobs": [jobs.job_key(argv) for argv in order], "spans": tracer.spans})
    outputs.check(reference, trec)

    counts = rounds[0][2]
    for _, _, other in rounds[1:]:
        ledger.record(other == counts, f"counts changed between rounds: {other} vs {counts}")

    def med(value):
        return statistics.median(value(r) for r in rounds)

    own = {name: med(lambda r, n=name: r[1][n]) for name in [*LAYER_SPANS, "job"]}
    traced_pass = med(lambda r: r[0]["traced"])
    metrics = {name: own[span] for span, name in LAYER_SPANS.items()}
    metrics["measures.us_per_eval"] = (
        1e6 * metrics["measures.evaluate_s"] / counts["measures.evaluations"])
    metrics["cli.self_s"] = med(lambda r: r[0]["cli"] - r[0]["replay"])
    metrics["trace.overhead_s"] = med(lambda r: r[0]["traced"] - r[0]["replay"])
    for name in COUNTS:
        metrics[name] = counts[name]
    metrics["enumeration.yield_ratio"] = (
        counts["enumeration.elements"] / counts["enumeration.candidates"]
        if counts["enumeration.candidates"] else 0.0)
    for span in LAYER_SPANS:
        metrics[span + "_share"] = own[span] / traced_pass
    metrics["replay.glue_share"] = own["job"] / traced_pass

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "span_fields": ["name", "start", "end", "parent", "job"],
        "rounds": spans,
    }), encoding="utf-8")

    ranked = sorted(LAYER_SPANS, key=lambda s: own[s], reverse=True)
    predicted = jobs.PREDICTED[args.workload]
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"spans in {trace_file.relative_to(ROOT)}")
    print(f"  median scaled passes: cli.run {med(lambda r: r[0]['cli']):.4f} s, untraced "
          f"replay {med(lambda r: r[0]['replay']):.4f} s, traced replay {traced_pass:.4f} s")
    print(f"  dominant layer: {ranked[0]} ({own[ranked[0]] / traced_pass:.1%} of the traced "
          f"pass); predicted {' + '.join(predicted)}: "
          f"{'matches' if ranked[0] in predicted else 'does NOT match'}")
    for span in ranked:
        print(f"    {LAYER_SPANS[span]:28s} {own[span]:.4f} s {own[span] / traced_pass:6.1%}")
    print(f"    {'replay glue (job self time)':28s} {own['job']:.4f} s "
          f"{own['job'] / traced_pass:6.1%}")
    return metrics, ledger


def run_one(args) -> int:
    os.environ.pop("METRICLASS_MAX_DOMAIN", None)
    sys.path.insert(0, str(SRC))
    workdir = OUT / args.workload  # generated inputs; the next run overwrites them
    workdir.mkdir(parents=True, exist_ok=True)
    (program, job_list, reference, trec), *setup = timed_set_up(
        args.workload, args.seed, workdir)
    if args.trace:
        metrics, ledger = traced(args, program, job_list, reference, trec)
        units = dict(PER_LAYER)
    else:
        metrics, ledger = untraced(args, program, job_list, reference, trec, setup)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, 's')}")
    print(f"  failed_share = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} ops)")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    if args.workload == "ingest-trec":
        code = call(program.cli, jobs.write_probe(workdir))[0]
        print(f"  probe (untimed, not counted): ingest-eval ap with a judged topic that has "
              f"no relevant document exits {code}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, and the count self-test
# ---------------------------------------------------------------------------


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    results = {w: child(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print("summary:")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"  {workload:13s} {name:30s} {metric['value']:12.6g} {metric['unit']}")
        print(f"  {workload:13s} {'failed_share':30s} "
              f"{result['failed'] / result['attempted']:12.6g} of {result['attempted']} ops")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def self_test(args) -> int:
    """Count metrics must repeat exactly between two traced runs with one seed."""
    problems = []
    for workload in WORKLOADS:
        first, second = (child(workload, args.seed, 1, 1) for _ in range(2))
        for name in (*COUNTS, "enumeration.yield_ratio"):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            print(f"self-test {workload:13s} {name:28s} {a} {'==' if a == b else '!='} {b}")
            if a != b:
                problems.append(f"{workload} {name}: {a} then {b}")
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: a run failed its checks")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that count metrics repeat exactly for one seed")
    args = parser.parse_args()
    if not (SRC / "metriclass" / "cli.py").is_file():
        print(f"bench: no metriclass package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
