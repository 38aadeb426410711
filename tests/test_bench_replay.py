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

REPLAY = Path(__file__).parent.parent / "bench" / "replay.py"
MODULES = ("enumeration", "errors", "ingest", "intrinsic", "measures", "model", "report",
           "values", "version")


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("bench_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
