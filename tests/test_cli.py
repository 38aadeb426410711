"""Command-line behaviour: verbs, exit codes, determinism."""

import io
import json
import re
import runpy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from metriclass import cli
from metriclass.cli import run
from metriclass.errors import ParameterError, ParseError
from metriclass.measures import _bound, measure_from_id

DATA = Path(__file__).parent / "data"
DEMOS = Path(__file__).parent.parent / "demos"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, golden", [
    pytest.param(argv, golden, id=str(golden.relative_to(goldens.DATA)))
    for argv, golden in goldens.jobs()])
def test_matches_golden_bytes(argv, golden, tmp_path):
    def in_process(argv):
        code, out, _ = invoke(*argv)
        return code, out.encode("utf-8")

    code, out = goldens.pinned(argv, golden, in_process, tmp_path)
    assert code == 0
    assert out == golden.read_bytes()


class TestListMeasures:
    def test_lists_known_ids(self):
        code, out, _ = invoke("list-measures")
        assert code == 0
        for needle in ("recall", "prec@r", "rbp?p=..", "esl", "bpref"):
            assert needle in out


class TestEvaluate:
    def test_contingency_formula(self):
        code, out, _ = invoke(
            "evaluate", "--measure", "recall", "--table", "tp=2,fp=3,fn=3,tn=7"
        )
        assert code == 0
        assert out.strip() == "2/5 (0.400)"

    def test_ranking_measure(self):
        code, out, _ = invoke(
            "evaluate", "--measure", "ap", "--ranking", "1,0,1,0", "--universe", "N=5,R=3"
        )
        assert code == 0
        assert out.strip() == "5/9 (0.556)"

    def test_user_measure(self):
        code, out, _ = invoke(
            "evaluate", "--measure", "recall-effort", "--context", "U=1,Rk=0,Ru=1,A=2"
        )
        assert code == 0
        assert out.strip() == "1/2 (0.500)"

    def test_leveled_measure(self):
        code, out, _ = invoke(
            "evaluate", "--measure", "esl", "--leveled", "(0,2)(1,1)", "--need", "1"
        )
        assert code == 0
        assert out.strip() == "5/2 (2.500)"

    def test_undefined_value_is_a_computation_error(self):
        code, _, err = invoke(
            "evaluate", "--measure", "precision", "--table", "tp=0,fp=0,fn=5,tn=10"
        )
        assert code == 2
        assert "measures" in err

    def test_mismatched_element_kind_is_usage_error(self):
        code, _, err = invoke("evaluate", "--measure", "recall", "--context", "U=1,Rk=0,Ru=0,A=1")
        assert code == 1
        assert "usage error" in err


class TestClassify:
    def test_precision_collision_and_domain_echo(self):
        code, out, _ = invoke("classify", "--measure", "prec@4", "--domain", "binary:L=4")
        assert code == 0
        assert out.startswith("ordinal/pseudometric; collision ")
        assert "= 1/4 (0.250)" in out
        assert "domain: binary:L=4,R=4,N=8" in out

    def test_json_verdict(self):
        code, out, _ = invoke(
            "classify", "--measure", "recall", "--domain", "contingency:N=15,R=5,n=5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["category"] == "interval/metric"
        assert payload["verdict"]["gap"] == {"kind": "exact", "num": 1, "den": 5}

    def test_unknown_measure_is_computation_error(self):
        code, _, err = invoke("classify", "--measure", "nope", "--domain", "binary:L=4")
        assert code == 2
        assert "unknown measure" in err

    def test_domain_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("METRICLASS_MAX_DOMAIN", "10")
        code, _, err = invoke("classify", "--measure", "prec@4", "--domain", "binary:L=4")
        assert code == 2
        assert "16 elements" in err


class TestParserReuse:
    JOB = ("classify", "--measure", "msr", "--domain", "binary:L=11,seed=4", "--json")

    def test_parser_is_built_during_the_first_call_only(self, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        cli._build_parser.cache_clear()
        try:
            assert invoke("list-measures")[0] == 0
            first = len(built)
            assert first == 8  # the parser and one per verb
            for argv in (self.JOB, ("evaluate", "--measure", "recall"), ("table", "--suite", "x")):
                invoke(*argv)
            assert len(built) == first
            assert cli._build_parser() is cli._build_parser()
        finally:
            cli._build_parser.cache_clear()

    def test_calls_between_leave_no_state(self, capsys):
        import os
        import subprocess
        import sys

        before = invoke(*self.JOB)
        assert invoke("classify", "--measure", "msr")[0] == 1
        assert invoke("--version")[0] == 0
        after = invoke(*self.JOB)
        capsys.readouterr()  # argparse prints the version to sys.stdout
        assert before == after and before[0] == 0
        fresh = subprocess.run([sys.executable, "-m", "metriclass", *self.JOB],
                               capture_output=True, env=dict(os.environ), check=True)
        assert fresh.stdout == after[1].encode("utf-8")
        assert fresh.stdout == (DATA / "classify" / "msr-binary-L-11-seed-4.json").read_bytes()


class TestMeasureReuse:
    CLASSIFY = ("classify", "--measure", "nxcg@4", "--domain", "binary:L=3..9,R=3,N=12")
    TABLE = ("table", "--suite", "paper")

    def test_repeat_calls_bind_no_new_kernel(self):
        for argv in (self.CLASSIFY, self.TABLE):
            assert invoke(*argv)[0] == 0
        misses = _bound.cache_info().misses
        for argv in (self.CLASSIFY, self.CLASSIFY, self.TABLE):
            assert invoke(*argv)[0] == 0
            assert _bound.cache_info().misses == misses, argv

    @pytest.mark.parametrize("measure_id, error", [
        ("no-such-measure", ParseError), ("prec@0", ParameterError), ("rbp?p=2", ParameterError),
    ])
    def test_a_bad_id_raises_on_every_call(self, measure_id, error):
        calls = []
        for _ in range(3):
            with pytest.raises(error):
                measure_from_id(measure_id)
            calls.append(invoke("classify", "--measure", measure_id, "--domain", "binary:L=3"))
        code, out, err = calls[0]
        assert code in (1, 2) and not out and "Traceback" not in err
        assert calls == [calls[0]] * 3


class TestWitness:
    def test_uses_suite_default_domain(self):
        code, out, _ = invoke("witness", "--measure", "rr")
        assert code == 0
        assert out.startswith("collision:")

    def test_uneven_gap_evidence(self):
        code, out, _ = invoke(
            "witness", "--measure", "msr", "--domain", "binary:L=4,R=1,rel=1"
        )
        assert code == 0
        assert "uneven gaps" in out
        assert "1/4" in out and "1/3" in out and "1/2" in out

    def test_parameter_variants_reuse_the_suite_domain(self):
        code, out, _ = invoke("witness", "--measure", "dcg?b=3")
        assert code == 0
        assert "domain: binary:L=4" in out

    def test_cutoff_variant_without_suite_domain_needs_explicit_domain(self):
        # recall@4 ranks documents; it must not inherit recall's table domain
        code, _, err = invoke("witness", "--measure", "recall@4")
        assert code == 1
        assert "pass --domain" in err

    def test_family_mismatch_is_a_clean_computation_error(self):
        code, _, err = invoke("classify", "--measure", "recall", "--domain", "binary:L=4")
        assert code == 2
        assert "enumerates rankings" in err

    @pytest.mark.parametrize("measure, domain, message", [
        ("esl", "leveled:docs=3,s=5", "the domain has no element"),
        ("ap", "binary:L=2,R=3,N=5,rel=3", "the domain has no element"),
        ("sr", "binary:L=2,R=0", "every element of the domain is undefined"),
    ])
    def test_empty_domain_is_told_apart_from_an_undefined_one(self, measure, domain, message):
        code, out, err = invoke("classify", "--measure", measure, "--domain", domain)
        assert (code, out) == (2, "")
        assert err == f"error: intrinsic: {message}\n"


# a weight beyond the float range: its values are exact, but print as inf
HUGE_UTILITY = "utility?alpha=1,beta=1,gamma=1,delta=1e400"


class TestHasse:
    def test_writes_dot_file(self, tmp_path):
        target = tmp_path / "chain.gv"
        code, out, _ = invoke(
            "hasse", "--measure", "prec@4", "--domain", "binary:L=4", "--out", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph")
        assert text.count("->") == 4

    def test_values_beyond_the_float_range_render_as_inf(self, tmp_path):
        target = tmp_path / "chain.gv"
        code, _, err = invoke("hasse", "--measure", HUGE_UTILITY, "--domain",
                              "contingency:N=6,R=2", "--out", str(target))
        assert code == 0 and "Traceback" not in err
        labels = re.findall(r'label="([^:"]*):', target.read_text())
        assert labels == ["6.000", "inf", "inf", "inf", "inf"]


class TestTable:
    def test_markdown_table(self):
        code, out, _ = invoke("table", "--suite", "paper")
        assert code == 0
        assert out.splitlines()[0].startswith("| measure ")
        assert "agree" in out and "contested" in out

    def test_byte_identical_runs(self):
        first = invoke("table", "--suite", "paper")
        second = invoke("table", "--suite", "paper")
        assert first == second

    def test_byte_identical_across_interpreter_hash_seeds(self):
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-m", "metriclass", "table", "--suite", "paper"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_json_record(self):
        code, out, _ = invoke("table", "--suite", "paper", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "metriclass/1"


class TestIngestEval:
    def args(self, *extra):
        return (
            "ingest-eval",
            "--qrels", str(DATA / "qrels.txt"),
            "--run", str(DATA / "run.txt"),
            "--depth", "4",
            *extra,
        )

    def test_per_topic_values(self):
        code, out, _ = invoke(*self.args("--measure", "ap"))
        assert code == 0
        assert "topic 1: ap = 5/9 (0.556)" in out
        assert "topic 2: ap = 1/4 (0.250)" in out
        assert "topic 3: ap = 1 (1.000)" in out

    def test_mean_prints_warning(self):
        code, out, _ = invoke(*self.args("--measure", "ap", "--aggregate", "mean"))
        assert code == 0
        assert "mean ap over 3 topics = 65/108 (0.602)" in out
        assert "warning: mean of ordinal-scale values" in out

    def test_quiet_warnings_suppresses_text(self):
        code, out, _ = invoke(
            *self.args("--measure", "ap", "--aggregate", "mean", "--quiet-warnings")
        )
        assert code == 0
        assert "warning:" not in out
        assert "65/108" in out

    def test_json_keeps_permissibility_flag(self):
        code, out, _ = invoke(
            *self.args("--measure", "ap", "--aggregate", "mean", "--json", "--quiet-warnings")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["permissibility_flag"] is True

    def test_gmean_past_the_float_range_stays_exact(self, tmp_path):
        # rr is 1/2 on each of 1,100 topics, so the product 2^-1100 underflows a float
        topics = range(1, 1101)
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(f"{t} 0 d1 0\n{t} 0 d2 1\n" for t in topics))
        run_file = tmp_path / "run.txt"
        run_file.write_text("".join(f"{t} Q0 d1 1 2.0 x\n{t} Q0 d2 2 1.0 x\n" for t in topics))
        code, out, err = invoke("ingest-eval", "--qrels", str(qrels), "--run", str(run_file),
                                "--measure", "rr", "--depth", "2", "--aggregate", "gmean")
        assert (code, err) == (0, "")
        assert "gmean rr over 1100 topics = 1/2 (0.500)" in out

    @staticmethod
    def probe(tmp_path, qrels="1 0 a 1\n2 0 b 0\n2 0 c 0\n"):
        # topic 2 is judged but has no relevant document, so ap is undefined there
        (tmp_path / "q.txt").write_text(qrels)
        (tmp_path / "r.txt").write_text("1 Q0 a 1 0.9 x\n2 Q0 b 1 0.9 x\n2 Q0 c 2 0.8 x\n")
        return ("ingest-eval", "--qrels", str(tmp_path / "q.txt"),
                "--run", str(tmp_path / "r.txt"), "--depth", "2")

    def test_undefined_topic_is_skipped_and_left_out_of_the_mean(self, tmp_path):
        code, out, err = invoke(*self.probe(tmp_path), "--measure", "ap", "--aggregate", "mean",
                                "--quiet-warnings")
        assert (code, err) == (0, "")
        assert out == (
            "topic 1: ap = 1 (1.000)\n"
            "topic 2: skipped (undefined: R = 0)\n"
            "mean ap over 1 topics = 1 (1.000)\n"
        )
        code, out, _ = invoke(*self.probe(tmp_path), "--measure", "ap", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["topics"] == {"1": "1 (1.000)"}
        assert payload["skipped_topics"] == ["2"]

    def test_measure_defined_on_every_topic_scores_them_all(self, tmp_path):
        code, out, err = invoke(*self.probe(tmp_path), "--measure", "rr", "--aggregate", "mean",
                                "--quiet-warnings")
        assert (code, err) == (0, "")
        assert out == (
            "topic 1: rr = 1 (1.000)\n"
            "topic 2: rr = 0 (0.000)\n"
            "mean rr over 2 topics = 1/2 (0.500)\n"
        )

    def test_mean_over_no_evaluated_topic_is_computation_error(self, tmp_path):
        argv = self.probe(tmp_path, qrels="1 0 a 0\n2 0 b 0\n")
        code, out, err = invoke(*argv, "--measure", "ap", "--aggregate", "mean")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("which", ["--qrels", "--run"])
    def test_file_that_is_not_utf8_is_computation_error(self, tmp_path, which):
        argv = list(self.probe(tmp_path))
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 Q0 a 1 0.9 t\xff\n" if which == "--run" else b"1 0 a 1\n1 0 \xc3 0\n")
        argv[argv.index(which) + 1] = str(bad)
        code, out, err = invoke(*argv, "--measure", "ap")
        assert (code, out) == (2, "")
        offset = 14 if which == "--run" else 12
        assert err == f"error: ingest: {bad} is not UTF-8 (bad byte at offset {offset})\n"

    def test_bare_cr_does_not_end_a_line(self, tmp_path):
        # wc -l counts no line here, so the two judgments are one line of 8 fields
        argv = list(self.probe(tmp_path))
        (tmp_path / "q.txt").write_bytes(b"1 0 a 1\r1 0 a 1\r")
        code, out, err = invoke(*argv, "--measure", "ap")
        assert (code, out) == (2, "")
        assert err == "error: ingest: qrels line needs 4 fields, got 8 (line 1)\n"

    def test_missing_file_is_computation_error(self):
        code, _, err = invoke(
            "ingest-eval", "--qrels", "no-such-file", "--run", "also-missing",
            "--measure", "ap", "--depth", "4",
        )
        assert code == 2


class TestMalformedInput:
    @pytest.mark.parametrize("argv, cap", [
        pytest.param(("evaluate", "--measure", "recall", "--table", "tp=1,fp=x,fn=1,tn=1"), None,
                     id="table-fp=x"),
        pytest.param(("evaluate", "--measure", "recall-effort", "--context", "U=1,Rk=0,Ru=1,A=q"),
                     None, id="context-A=q"),
        pytest.param(("evaluate", "--measure", "esl", "--leveled", "(a,2)", "--need", "1"), None,
                     id="leveled-(a,2)"),
        pytest.param(("evaluate", "--measure", "esl", "--leveled", "(1)", "--need", "1"), None,
                     id="leveled-(1)"),
        pytest.param(("evaluate", "--measure", "ap", "--ranking", "1,0", "--universe", "N=4,R=x"),
                     None, id="universe-R=x"),
        pytest.param(("evaluate", "--measure", "ap", "--ranking", "1,0", "--universe", "N=4,R=1",
                      "--scheme", "graded:levels=x"), None, id="scheme-levels=x"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=4,R=x"), None,
                     id="domain-R=x"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=4,N=x"), None,
                     id="domain-N=x"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=4,rel=x"), None,
                     id="domain-rel=x"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=4,seed=x"), None,
                     id="domain-seed=x"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=3..2"), None,
                     id="domain-L=3..2"),
        pytest.param(("classify", "--measure", "ap", "--domain", "rankings:L=4"), None,
                     id="domain-kind-rankings"),
        pytest.param(("classify", "--measure", "ap", "--domain", "binary:L=4"), "abc",
                     id="cap-abc"),
        pytest.param(("classify", "--measure", "dcg?b=1e400", "--domain", "binary:L=4"), None,
                     id="dcg-b=1e400"),
        pytest.param(("evaluate", "--measure", "utility?alpha=1e5000,beta=1,gamma=1,delta=1",
                      "--table", "tp=1,fp=0,fn=0,tn=0"), None, id="utility-alpha=1e5000"),
        pytest.param(("evaluate", "--measure", "rbp?p=1e-5000", "--ranking", "1,1",
                      "--universe", "N=2,R=2"), None, id="rbp-p=1e-5000"),
        pytest.param(("evaluate", "--measure", "rbp?p=1e-4000", "--ranking", "1,1",
                      "--universe", "N=2,R=2"), None, id="rbp-p=1e-4000-value-digits"),
        pytest.param(("classify", "--measure", "rbp?p=1e-2200", "--domain", "binary:L=2"), None,
                     id="rbp-p=1e-2200-value-digits"),
        pytest.param(("classify", "--measure", "rbp?p=1e-2200", "--domain", "binary:L=2",
                      "--json"), None, id="rbp-p=1e-2200-value-digits-json"),
    ])
    def test_exits_with_an_error_line_not_a_traceback(self, argv, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setenv("METRICLASS_MAX_DOMAIN", cap)
        code, out, err = invoke(*argv)
        assert code in (1, 2)
        assert out == ""
        assert err.startswith(("error: ", "usage error: ")) and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["-3", "-1", "x"])
    def test_oracle_cap_must_be_a_non_negative_integer(self, cap):
        code, out, err = invoke("classify", "--measure", "rbp?p=1/2", "--domain", "binary:L=4",
                                "--oracle-cap", cap, "--json")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_oracle_cap_zero_skips_the_oracle(self):
        code, out, _ = invoke("classify", "--measure", "rbp?p=1/2", "--domain", "binary:L=4",
                              "--oracle-cap", "0", "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["oracle_note"] == (
            "skipped: 16 classes exceed the oracle cap 0")

    @pytest.mark.parametrize("argv", [
        ("classify", "--domain", "binary:L=3"),
        ("evaluate", "--ranking", "1,0", "--universe", "N=2,R=1"),
    ], ids=lambda argv: argv[0])
    def test_dcg_base_that_rounds_to_one_is_refused(self, argv):
        verb, *rest = argv
        code, out, err = invoke(verb, "--measure", "dcg?b=1.0000000000000000001", *rest)
        assert (code, out) == (2, "")
        assert err == "error: measures: dcg base must be greater than 1\n"
        assert "Traceback" not in err

    def test_nonpositive_need_reports_the_model_rule(self):
        code, _, err = invoke("evaluate", "--measure", "esl", "--leveled", "(1,2)", "--need", "0")
        assert code == 2
        assert "need must be positive" in err


class TestDemos:
    @pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
    def test_runs(self, script, capsys):
        # the goldens were written by running each demo before its evaluation path changed
        runpy.run_path(str(script), run_name="__main__")
        golden = DATA / "demos" / f"{script.stem}.txt"
        assert capsys.readouterr().out == golden.read_bytes().decode("utf-8")

    def test_readme_library_quickstart(self, capsys):
        readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
        section = readme.partition("## Library quickstart")[2]
        code = section.partition("```python\n")[2].partition("```")[0]
        exec(code, {})
        assert capsys.readouterr().out.splitlines() == [
            "Exact(5/9)", "Exact(2/5)", "interval/metric", "Exact(1/64)"]


class TestUsageErrors:
    def test_unknown_verb(self):
        code, _, err = invoke("frobnicate")
        assert code == 1

    def test_unknown_flag(self):
        code, _, err = invoke("classify", "--measure", "ap", "--bogus", "1")
        assert code == 1
        assert "usage error" in err

    def test_help_exits_zero(self, capsys):
        assert invoke("--help")[0] == 0
        assert invoke("classify", "--help")[0] == 0
        capsys.readouterr()  # swallow argparse output

    def test_every_verb_has_help(self, capsys):
        for verb in (
            "list-measures", "evaluate", "classify", "witness",
            "hasse", "table", "ingest-eval",
        ):
            assert invoke(verb, "--help")[0] == 0
        capsys.readouterr()


# Bounded generators for the exit-code property: rankings of length at most 6,
# at most 4 grades, N at most 20 and at most 5 leveled documents.  A mutation
# cuts a text short, deletes one character or inserts one non-digit, so no
# number grows; the unbounded inputs (a huge levels= or L=) are not drawn.
SMALL = st.integers(0, 6)
MEASURES = {
    "ranking": ["ap", "msr", "sr", "rr", "bpref", "rnorm", "pnorm", "q-measure", "r-precision",
                "dcg?b=2", "rbp?p=1/2", "prec@3", "recall@2", "nxcg@2", "manxcg@4", "gr@1"],
    "contingency": ["recall", "precision", "f-measure", "fallout",
                    "utility?alpha=1,beta=2,gamma=1/2,delta=3", HUGE_UTILITY],
    "user": ["novelty-ratio", "coverage-ratio", "recall-effort", "retrieval-recall"],
    "leveled": ["esl"],
}
BAD_MEASURES = ["", "nope", "rbp?p=2", "dcg?b=1", "utility?alpha=1", "prec@", "prec@0", "prec@x"]


def mutated(text):
    """The text cut short, or with one character deleted or one non-digit inserted."""
    at = st.integers(0, len(text))
    return st.one_of(
        at.map(lambda i: text[:i]),
        at.map(lambda i: text[:i] + text[i + 1:]),
        st.tuples(at, st.sampled_from(",=.:x-")).map(lambda p: text[:p[0]] + p[1] + text[p[0]:]),
    )


@st.composite
def well_formed(draw, text):
    """Mostly the text as drawn, sometimes mutated."""
    return draw(mutated(text)) if draw(st.integers(0, 4)) == 0 else text


@st.composite
def measure_for(draw, family):
    """Mostly a measure of the family, sometimes of another one or malformed."""
    pick = draw(st.integers(0, 7))
    if pick == 0:
        return draw(st.sampled_from(BAD_MEASURES))
    if pick == 1:
        family = draw(st.sampled_from(sorted(MEASURES)))
    return draw(st.sampled_from(MEASURES[family]))


@st.composite
def domain_texts(draw):
    """A measure family and a domain of it."""
    kind = draw(st.sampled_from(["binary", "graded", "contingency", "user", "leveled"]))
    if kind in ("binary", "graded"):
        family, lo = "ranking", draw(st.integers(0, 6))
        hi, r = draw(st.integers(lo - 1, 6)), draw(SMALL)
        head = "binary:" if kind == "binary" else f"graded:levels={draw(st.integers(1, 4))},"
        text = f"{head}L={lo}..{hi},R={r}"
        text += draw(st.sampled_from(["", f",N={hi + r + draw(st.integers(-1, 2))}"]))
        text += draw(st.sampled_from(["", f",rel={draw(SMALL)}"]))
    elif kind == "contingency":
        family, n = kind, draw(st.integers(0, 20))
        text = f"contingency:N={n},R={draw(st.integers(0, 21))},n={draw(st.integers(0, n))}..{n}"
    elif kind == "user":
        family = kind
        text = f"user:U={draw(st.integers(0, 3))},A={draw(st.integers(1, 2))}..{draw(SMALL)}"
    else:
        family = kind
        text = f"leveled:docs={draw(st.integers(0, 5))},s={draw(st.integers(0, 3))}"
    text += draw(st.sampled_from(["", f",seed={draw(SMALL)}"]))
    return family, draw(well_formed(text))


@st.composite
def elements(draw, family):
    """``evaluate``'s flags for one element of the family."""
    if family == "contingency":
        counts = draw(st.tuples(SMALL, SMALL, SMALL, SMALL))
        return ["--table", draw(well_formed("tp={},fp={},fn={},tn={}".format(*counts)))]
    if family == "user":
        counts = draw(st.tuples(SMALL, SMALL, SMALL, SMALL))
        return ["--context", draw(well_formed("U={},Rk={},Ru={},A={}".format(*counts)))]
    if family == "ranking":
        grades = draw(st.lists(st.sampled_from("0123x"), min_size=1, max_size=6))
        universe = f"N={draw(st.integers(0, 20))},R={draw(SMALL)}"
        scheme = draw(st.sampled_from(["binary", "graded:levels=3", "graded:levels=4",
                                       "graded:levels=x", "graded:", "ternary"]))
        return ["--ranking", ",".join(grades), "--universe", draw(well_formed(universe)),
                "--scheme", scheme]
    levels = draw(st.lists(st.tuples(SMALL, SMALL), max_size=3))
    return ["--leveled", "".join(f"({r},{n})" for r, n in levels),
            "--need", draw(st.sampled_from(["0", "1", "2", "x"]))]


@st.composite
def argvs(draw):
    """One well-formed or malformed call of a verb other than list-measures."""
    verb = draw(st.sampled_from(["classify", "witness", "hasse", "evaluate", "table",
                                 "ingest-eval"]))
    if verb == "table":
        argv = [verb, "--suite", "paper", *draw(st.sampled_from([[], ["--json"]])),
                *draw(st.sampled_from([[], ["--format", "csv"], ["--format", "text"],
                                       ["--format", "markdown"], ["--format", "html"]]))]
    elif verb == "ingest-eval":  # the small TREC pair, or a path that does not exist
        qrels = draw(st.sampled_from([str(DATA / "qrels.txt")] * 5 + ["{out}/missing.txt"]))
        run_file = draw(st.sampled_from([str(DATA / "run.txt")] * 5 + ["{out}/missing.txt"]))
        argv = [verb, "--qrels", qrels, "--run", run_file,
                "--measure", draw(measure_for("ranking")),
                "--depth", draw(st.sampled_from(["3", "6", "1", "0", "-1", "x"])),
                "--scheme", draw(st.sampled_from(["binary", "graded:levels=3", "ternary"])),
                *draw(st.sampled_from([[], [], ["--aggregate", "mean"], ["--aggregate", "gmean"],
                                       ["--aggregate", "median"]])),
                *draw(st.sampled_from([[], ["--json"]]))]
    elif verb == "evaluate":
        family = draw(st.sampled_from(sorted(MEASURES)))
        argv = [verb, "--measure", draw(measure_for(family)),
                *draw(elements(draw(st.sampled_from([family, family, *MEASURES]))))]
    else:
        family, domain = draw(domain_texts())
        argv = [verb, "--measure", draw(measure_for(family)), "--domain", domain]
        if verb == "classify":
            argv += draw(st.sampled_from([[], [], ["--json"], ["--json"], ["--oracle-cap", "3"],
                                          ["--oracle-cap", "-1"], ["--oracle-cap", "x"]]))
        if verb == "hasse":  # {out} is a temporary directory
            argv += ["--out", draw(st.sampled_from(["{out}/chain.gv", "{out}/no/chain.gv"]))]
    if draw(st.integers(0, 5)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv + (draw(st.sampled_from([["--bogus"], ["extra"]]))
                   if draw(st.integers(0, 7)) == 0 else [])


class TestExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def test_every_exit_is_0_1_or_2_without_a_traceback_and_repeats(self, drawn):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [part.replace("{out}", tmp) for part in drawn]
            first, second = invoke(*argv), invoke(*argv)
        code, out, err = first
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        assert second == first
