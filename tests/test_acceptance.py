"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (the printed ACCEPTANCE lines show with ``-s``).
"""

import io
import math
from fractions import Fraction
from pathlib import Path

import pytest

from metriclass.cli import run
from metriclass.enumeration import enumerate_domain, parse_domain
from metriclass.errors import UndefinedValueError
from metriclass.intrinsic import INTERVAL_METRIC, build_hasse, classify, induced_order
from metriclass.measures import measure_from_id
from metriclass.model import GradeScheme, Ranking, Universe
from metriclass.report import RANK_BASED_SUITE, SET_BASED_SUITE, build_published_suite
from metriclass.values import Approx, Exact, add, exact, value_eq
from summary_reference import labeled_values
from pseudometric import pseudometric_check

BINARY = GradeScheme.binary()
DATA = Path(__file__).parent / "data"

# domains used for the exhaustive axiom check; rnorm/pnorm need 0 < R < L
AXIOM_DOMAINS = {
    "rnorm": "binary:L=4,R=2,N=6",
    "pnorm": "binary:L=4,R=2,N=6",
}

REGISTERED = (
    [row[0] for row in SET_BASED_SUITE]
    + [row[0] for row in RANK_BASED_SUITE]
    + ["recall@4", "utility?alpha=1,beta=2,gamma=3,delta=5"]
)


@pytest.fixture(scope="module")
def suite():
    return build_published_suite()


def rk(*labels):
    return Ranking(BINARY, tuple(str(x) for x in labels))


def _axiom_values(measure_id):
    """Up to 16 defined attained values from the measure's check domain."""
    measure = measure_from_id(measure_id)
    if measure.family == "ranking":
        domain = AXIOM_DOMAINS.get(measure.id, "binary:L=4,R=4,N=8")
    elif measure.family == "contingency":
        domain = "contingency:N=15,R=5,n=0..15"
    elif measure.family == "user":
        domain = "user:U=1,A=1..4"
    else:
        domain = "leveled:docs=4,s=1"
    spec = parse_domain(domain)
    universe = spec.universe if spec.kind == "rankings" else None
    values = []
    for element in enumerate_domain(spec):
        try:
            values.append(measure.evaluate(element, universe))
        except UndefinedValueError:
            continue
        if len(values) == 16:
            break
    return measure, values


def test_criterion_1_pseudometric_axioms_hold_for_every_measure():
    """Symmetry and triangle inequality, exhaustive triples, zero violations."""
    checked = 0
    for measure_id in REGISTERED:
        measure, values = _axiom_values(measure_id)
        report = pseudometric_check(values)
        assert report.ok, (measure_id, report.violations[:3])
        assert report.triples_checked == len(values) ** 3
        if measure.backend == "exact":
            assert all(isinstance(v, Exact) for v in values), measure_id
        checked += 1
    print(f"ACCEPTANCE 1 PASS: pseudometric axioms, {checked} measures, exhaustive triples")


def test_criterion_2_oracle_agrees_with_injective_and_equispaced(suite):
    """Definitional interval-scale oracle vs the quotient route, zero splits."""
    compared = 0
    for row in suite.rows:
        for verdict in row.verdicts:
            assert verdict.classes <= 200, (row.measure_id, verdict.classes)
            assert verdict.oracle is not None, (row.measure_id, verdict.oracle_note)
            assert verdict.oracle == (verdict.injective and verdict.equispaced), (
                row.measure_id,
                verdict.domain,
            )
            compared += 1
    print(f"ACCEPTANCE 2 PASS: oracle agreement on {compared} verdicts")


def test_criterion_3_hasse_path_equals_value_distance(suite):
    """Minimum path on the weighted chain reproduces |f(x) - f(y)|, all pairs."""
    pair_count = 0
    for row in suite.rows:
        measure = measure_from_id(row.measure_id)
        for verdict in row.verdicts:
            spec = parse_domain(verdict.domain)
            ordered = induced_order(measure, spec)
            assert len(ordered.labels) <= 10_000
            values = [v for _, v in labeled_values(spec, measure)]
            chain = build_hasse(ordered)
            k = len(chain.classes)
            # literal edge accumulation along the chain (never |f(x)-f(y)|)
            path = [[None] * k for _ in range(k)]
            for i in range(k):
                path[i][i] = exact(0)
                running = exact(0)
                for j in range(i + 1, k):
                    running = add(running, chain.weights[j - 1])
                    path[i][j] = running
            indices = [i for i in range(len(ordered.labels)) if i not in ordered.excluded]
            class_of = {i: ci for ci, members in enumerate(ordered.members) for i in members}
            approx = measure.backend == "approx"
            for a_pos, i in enumerate(indices):
                ci = class_of[i]
                vi = values[i]
                for j in indices[a_pos:]:
                    cj = class_of[j]
                    direct = abs(float(vi.numeric()) - float(values[j].numeric()))
                    via_chain = path[min(ci, cj)][max(ci, cj)]
                    if approx:
                        assert abs(float(via_chain.numeric()) - direct) <= 1e-9
                    else:
                        assert abs(vi.rational - values[j].rational) == via_chain.rational
                    pair_count += 1
    print(f"ACCEPTANCE 3 PASS: chain distance verified on {pair_count} pairs")


def test_criterion_4_published_witnesses_reproduce_exactly():
    """Every published collision and the uneven-spacing example, exact values."""
    u8 = Universe(8, 4)
    prec4 = measure_from_id("prec@4")
    assert prec4.evaluate(rk(1, 0, 0, 0), u8) == exact(1, 4)
    assert prec4.evaluate(rk(0, 1, 0, 0), u8) == exact(1, 4)

    dcg = measure_from_id("dcg?b=2")
    a = dcg.evaluate(rk(1, 0, 0, 0), u8)
    b = dcg.evaluate(rk(0, 1, 0, 0), u8)
    assert abs(a.real - 1.0) <= 1e-9 and abs(b.real - 1.0) <= 1e-9

    u1 = Universe(8, 1)
    sr = measure_from_id("sr")
    assert sr.evaluate(rk(1, 0, 0, 0), u1) == sr.evaluate(rk(0, 1, 0, 0), u1) == exact(1)

    rr = measure_from_id("rr")
    assert rr.evaluate(rk(0, 1, 0, 0), u8) == rr.evaluate(rk(0, 1, 0, 1), u8) == exact(1, 2)

    ap = measure_from_id("ap")
    assert ap.evaluate(rk(1, 0, 0, 0), u8) == ap.evaluate(rk(0, 1, 0, 1), u8) == exact(1, 4)

    u2 = Universe(8, 2)
    rp = measure_from_id("r-precision")
    assert rp.evaluate(rk(0, 1, 0, 1), u2) == rp.evaluate(rk(1, 0, 0, 1), u2) == exact(1, 2)

    nxcg = measure_from_id("nxcg@4")
    assert nxcg.evaluate(rk(1, 0, 0, 0), u1) == nxcg.evaluate(rk(0, 1, 0, 0), u1) == exact(1)
    gr = measure_from_id("gr@4")
    assert gr.evaluate(rk(1, 0, 0, 0), u1) == gr.evaluate(rk(0, 1, 0, 0), u1) == exact(1)

    bpref = measure_from_id("bpref")
    assert bpref.evaluate(Ranking(BINARY, ("1",)), Universe(4, 1)) == exact(1)
    assert bpref.evaluate(Ranking(BINARY, ("1", "1")), Universe(4, 2)) == exact(1)

    msr = measure_from_id("msr")
    one = msr.evaluate(rk(1, 0, 0, 0), u1)
    half = msr.evaluate(rk(0, 1, 0, 0), u1)
    third = msr.evaluate(rk(0, 0, 1, 0), u1)
    assert (one, half, third) == (exact(1), exact(1, 2), exact(1, 3))
    assert one.rational - half.rational != half.rational - third.rational

    from metriclass.model import LeveledOutput

    def leveled(level_labels):  # each level keeps only its counts, not its order
        levels = []
        for labels in level_labels:
            rel = sum(label != BINARY.labels[0] for label in labels)
            levels.append((rel, len(labels) - rel))
        return LeveledOutput(tuple(levels), 1)

    esl = measure_from_id("esl")
    swapped_inside = (leveled([["0", "1"], ["0"]]), leveled([["1", "0"], ["0"]]))
    assert esl.evaluate(swapped_inside[0]) == esl.evaluate(swapped_inside[1])
    print("ACCEPTANCE 4 PASS: published witnesses reproduced exactly")


def test_criterion_5_rbp_crossing_and_dyadic_interval_scale():
    """Score crossing sits at the positive root of p^2 + p - 1; p=1/2 is interval."""
    universe = Universe(6, 3)
    first = rk(1, 0, 0)
    second = rk(0, 1, 1)

    def score_gap(p):
        rbp = measure_from_id(f"rbp?p={p}")
        a = rbp.evaluate(first, universe)
        b = rbp.evaluate(second, universe)
        return a.rational - b.rational

    # rational grid bracket, then exact bisection
    grid = [Fraction(k, 100) for k in range(1, 100)]
    bracket = None
    for lo, hi in zip(grid, grid[1:]):
        if score_gap(lo) > 0 and score_gap(hi) < 0:
            bracket = (lo, hi)
            break
    assert bracket is not None
    lo, hi = bracket
    while hi - lo > Fraction(1, 10**7):
        mid = (lo + hi) / 2
        if score_gap(mid) > 0:
            lo = mid
        else:
            hi = mid

    def quad(p):
        return p * p + p - 1

    assert quad(lo) < 0 < quad(hi)  # the bracket pins the quadratic's root
    golden = (math.sqrt(5) - 1) / 2
    assert lo < Fraction(golden).limit_denominator(10**12) < hi

    for length in range(3, 9):
        verdict = classify(
            measure_from_id("rbp?p=1/2"), parse_domain(f"binary:L={length}")
        )
        assert verdict.category == INTERVAL_METRIC, length
        assert verdict.gap == exact(1, 2**length)
        assert verdict.classes == 2**length
    print("ACCEPTANCE 5 PASS: crossing bracketed at the golden ratio; p=1/2 interval, gap 2^-L")


def test_criterion_6_set_based_table_reproduced(suite):
    """16 of 17 set-based rows match; F-measure is contested with a witness."""
    rows = {r.measure_id: r for r in suite.rows if r.group == "set-based"}
    assert len(rows) == 17
    agreeing = [r for r in rows.values() if r.agreement == "agree"]
    assert len(agreeing) == 16
    f_row = rows["f-measure"]
    assert f_row.agreement == "contested"
    varying = f_row.verdicts[1]
    assert varying.collision is not None
    measure = measure_from_id("f-measure")
    spec = parse_domain(varying.domain)
    va = measure.evaluate(spec.element(varying.collision.first))
    vb = measure.evaluate(spec.element(varying.collision.second))
    assert value_eq(va, vb)
    print("ACCEPTANCE 6 PASS: set-based table, 16/17 agree + contested F with witness")


def test_criterion_7_rank_based_table_reproduced(suite):
    """All rank-based rows match; normalized recall is contested with the
    rank-sum collision pair."""
    rows = {r.measure_id: r for r in suite.rows if r.group == "rank-based"}
    assert len(rows) == 19
    for measure_id, row in rows.items():
        if measure_id == "rnorm":
            continue
        assert row.agreement == "agree", measure_id
    rnorm = rows["rnorm"]
    assert rnorm.agreement == "contested"
    witness = rnorm.verdicts[0].collision
    assert {witness.first, witness.second} == {"<1,0,0,1>", "<0,1,1,0>"}
    assert witness.value == exact(1, 2)
    print("ACCEPTANCE 7 PASS: rank-based table, 18/19 agree + contested Rnorm with witness")


def test_criterion_8_ingestion_round_trip():
    """Per-topic values match hand-derived rationals; mean prints the flag."""

    def invoke(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = run(list(argv), out=out, err=err)
        assert code == 0, err.getvalue()
        return out.getvalue()

    base = (
        "ingest-eval",
        "--qrels", str(DATA / "qrels.txt"),
        "--run", str(DATA / "run.txt"),
        "--depth", "4",
    )
    ap_out = invoke(*base, "--measure", "ap", "--aggregate", "mean")
    assert "topic 1: ap = 5/9 (0.556)" in ap_out
    assert "topic 2: ap = 1/4 (0.250)" in ap_out
    assert "topic 3: ap = 1 (1.000)" in ap_out
    assert "mean ap over 3 topics = 65/108 (0.602)" in ap_out
    assert "warning: mean of ordinal-scale values" in ap_out

    dcg_out = invoke(*base, "--measure", "dcg?b=2")
    assert "topic 1: dcg?b=2 = 1.631" in dcg_out  # 1 + 1/log2(3)
    assert "topic 2: dcg?b=2 = 1.000" in dcg_out
    assert "topic 3: dcg?b=2 = 1.000" in dcg_out

    rbp_out = invoke(*base, "--measure", "rbp?p=1/2")
    assert "topic 1: rbp?p=1/2 = 5/8 (0.625)" in rbp_out
    assert "topic 2: rbp?p=1/2 = 1/4 (0.250)" in rbp_out
    assert "topic 3: rbp?p=1/2 = 1/2 (0.500)" in rbp_out
    print("ACCEPTANCE 8 PASS: 3-topic fixture values and flagged mean reproduced")


def test_criterion_9_published_table_is_deterministic():
    """Two full suite runs emit byte-identical output."""
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        code = run(["table", "--suite", "paper"], out=out, err=io.StringIO())
        assert code == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0]  # nonempty
    print("ACCEPTANCE 9 PASS: byte-identical table output across runs")
