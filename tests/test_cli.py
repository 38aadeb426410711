"""Command-line behaviour: verbs, exit codes, determinism."""

import io
import json
from pathlib import Path

import pytest

from metriclass.cli import run

DATA = Path(__file__).parent / "data"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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

    @pytest.mark.parametrize("extra, golden", [((), "suite_paper.md"),
                                               (("--json",), "suite_paper.json")])
    def test_matches_golden_bytes(self, extra, golden):
        # recorded before the rank kernel became a fold; any refactor keeps these bytes
        code, out, _ = invoke("table", "--suite", "paper", *extra)
        assert code == 0
        assert out == (DATA / golden).read_bytes().decode("utf-8")


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

    def test_missing_file_is_computation_error(self):
        code, _, err = invoke(
            "ingest-eval", "--qrels", "no-such-file", "--run", "also-missing",
            "--measure", "ap", "--depth", "4",
        )
        assert code == 2


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
