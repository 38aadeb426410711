"""The traced benchmark replay rebuilds the same stdout as ``cli.run``.

``bench/run.py --trace 1`` re-runs each job through the layer functions
that ``bench/replay.py`` calls by name.  These cases fail when a change
renames or reshapes one of those functions, before a traced run would.
"""

import importlib
import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

from metriclass.cli import run

BENCH = Path(__file__).parent.parent / "bench"
DATA = Path(__file__).parent / "data"
MODULES = ("enumeration", "errors", "ingest", "intrinsic", "measures", "model", "report",
           "values", "version")


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replay():
    module = load("replay")
    program = SimpleNamespace(
        **{name: importlib.import_module(f"metriclass.{name}") for name in MODULES}
    )
    return module.Replay(program, module.Tracer(False))


@pytest.mark.parametrize("argv", [
    ("classify", "--measure", "dcg?b=2", "--domain", "binary:L=6", "--json"),
    ("classify", "--measure", "pnorm", "--domain", "binary:L=8,R=3,N=11,rel=3", "--json"),
    ("classify", "--measure", "precision", "--domain", "contingency:N=15,R=5", "--json"),
    ("table", "--suite", "paper"),
    ("table", "--suite", "paper", "--json"),
], ids=lambda argv: " ".join(argv))
def test_replay_reproduces_cli_stdout(replay, argv):
    out = io.StringIO()
    assert run(list(argv), out=out) == 0
    assert replay.job(list(argv)) == out.getvalue()


@pytest.mark.parametrize("measure_id", ["ap", "dcg?b=2"])
def test_replay_reproduces_ingest_eval(replay, measure_id):
    # the bench compares ingest jobs through its parser, which drops the warning line
    argv = ["ingest-eval", "--qrels", str(DATA / "qrels.txt"), "--run", str(DATA / "run.txt"),
            "--measure", measure_id, "--depth", "4", "--scheme", "binary", "--aggregate", "mean"]
    out = io.StringIO()
    assert run(argv, out=out) == 0
    parse = load("jobs").parse_ingest_output
    assert parse(replay.job(argv)) == parse(out.getvalue())
