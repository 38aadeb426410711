"""Write ``bench/reference.json`` from the current program.

    python3 bench/record_reference.py

The committed reference was recorded on the commit that introduced the
benchmark; re-recording it on a later commit turns the reference checks
into self-comparisons, so do it only when a change of verdict is intended
and reviewed.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import jobs  # noqa: E402
from metriclass import cli  # noqa: E402


def stdout_of(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    if cli.run(list(argv), out, err) != 0:
        raise SystemExit(f"{jobs.job_key(argv)} failed: {err.getvalue()}")
    return out.getvalue()


def main() -> None:
    classify = {}
    for argv in (*jobs.RANK_LADDER, *jobs.SET_SWEEP, *jobs.SUITE_ORACLE):
        if argv[0] == "classify":
            verdict = json.loads(stdout_of(argv))["verdict"]
            classify[jobs.job_key(argv)] = {f: verdict[f] for f in jobs.REFERENCE_FIELDS}
    markdown = stdout_of(("table", "--suite", "paper"))
    as_json = stdout_of(("table", "--suite", "paper", "--json"))
    rows = json.loads(as_json)["rows"]
    reference = {
        "suite": {
            "markdown_sha256": jobs.sha256(markdown),
            "json_sha256": jobs.sha256(as_json),
            "elements": sum(v["elements"] for row in rows for v in row["verdicts"]),
        },
        "classify": classify,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
