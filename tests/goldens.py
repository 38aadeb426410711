"""Every pinned output of metriclass, listed once.

A job is an argv and the file that holds the exact bytes it must print;
a hasse job writes its DOT file to the placeholder ``OUT`` instead, and
that file's bytes are pinned.  Each golden was recorded from the program
before a change that had to keep it; a new one is recorded the same way,
before the change it guards.  ``tests/test_cli.py`` checks every job
in-process through ``cli.run``.  Run as a script, this module checks every
job through a command, each in a fresh process, one after another::

    python tests/goldens.py metriclass
    PYTHONPATH=src python tests/goldens.py python -m metriclass

It prints each job whose bytes differ and exits 1 if any does.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
OUT = "{out}"  # where a hasse job writes; replaced by a path when the job runs

# classify jobs whose --json bytes are pinned: large contingency, user and
# leveled domains with thousands of classes, rankings, a raised oracle cap
# and a seed; each golden was written before exact measures returned (num, den)
CLASSIFY = [
    ("recall", "contingency:N=600,R=200"),
    ("precision", "contingency:N=600,R=200,n=0..600"),
    ("f-measure", "contingency:N=400,R=100"),
    ("novelty-ratio", "user:U=3,A=1..120"),
    ("esl", "leveled:docs=8,s=1"),
    ("ap", "binary:L=12"),
    ("rbp?p=1/2", "binary:L=8", "--oracle-cap", "1024"),
    ("precision", "contingency:N=15,R=5,seed=3"),
    # recorded from these measures' earlier hand-written folds, before their rewrite
    ("q-measure", "graded:levels=3,L=6,R=3,N=9"),
    ("awp", "graded:levels=4,L=5,R=2,N=7"),
    ("manxcg@3", "binary:L=2..5,R=2,N=7"),
    ("msr", "binary:L=7,R=3,N=10"),
    ("bpref", "binary:L=6,R=3,N=9"),
    # recorded before witnesses on rankings were unranked instead of walked to
    ("dcg?b=2", "binary:L=12"),
    ("msr", "binary:L=11,seed=4"),
    ("ap", "graded:levels=3,L=1..6,R=3,N=9,seed=2"),
    # recorded before contingency classes were keyed by certified floats: one
    # domain that certifies its floats and one whose weight is past the bound
    ("utility?alpha=7/3,beta=5,gamma=1/2,delta=11", "contingency:N=300,R=90"),
    ("utility?alpha=1,beta=1,gamma=1,delta=1e400", "contingency:N=6,R=2"),
    # recorded before undefined points came only as runs: the one undefined
    # point lies in the last row, after the first repeat; and whole lengths
    # undefined under a seed
    ("inverse-precision", "contingency:N=80,R=30,n=0..80"),
    ("rnorm", "binary:L=2..6,R=3,N=9,seed=5"),
    # recorded before rankings domains were walked a level at a time: rr's
    # settled prefixes under rel=, horizon runs over several lengths with
    # R < L, and float sums with pnorm's tie at P = 168
    ("rr", "graded:levels=3,L=8,rel=2"),
    ("nxcg@4", "binary:L=3..9,R=3,N=12"),
    ("pnorm", "binary:L=8,R=3,N=11,rel=3"),
    # recorded before leveled elements came from the level walk: witness labels
    # of outputs that hold s > 1 relevant documents
    ("esl", "leveled:docs=10,s=3"),
    # recorded on Python 3.11 before float sums were made left-to-right additions:
    # at R = 8, sum() rounds pnorm's best differently from 3.12 on
    ("pnorm", "binary:L=16,R=8,N=18,rel=8"),
]

# hasse jobs whose DOT bytes are pinned: a seed, reals, and a domain of each
# other kind; each golden was written while the Hasse export still kept a
# value and a member list in each class
HASSE = [
    ("ap", "binary:L=6,seed=3"),
    ("dcg?b=2", "binary:L=4"),
    ("recall", "contingency:N=15,R=5"),
    ("novelty-ratio", "user:U=1,A=1..4"),
    ("esl", "leveled:docs=4,s=1"),
    # seeded: positions reach the member lists out of order
    ("precision", "contingency:N=12,R=4,seed=5"),  # with an undefined point
    ("pnorm", "binary:L=6,R=3,N=9,rel=3,seed=2"),  # reals
    ("novelty-ratio", "user:U=2,A=1..5,seed=1"),  # with five undefined points
    # settled prefixes: each run's positions go into its class's member list
    ("esl", "leveled:docs=5,s=2,seed=4"),  # seeded: a run's positions are scattered
    ("nxcg@2", "binary:L=5"),  # every class is a union of runs of 8
    # recorded before contingency classes were keyed by certified floats
    ("f-measure", "contingency:N=20,R=6"),
    # recorded before an undefined length came as one run, not one per grade:
    # under a seed, the run's positions are scattered among the classes
    ("rnorm", "binary:L=2..5,R=3,N=9,seed=1"),
    # recorded before rankings domains were walked a level at a time: the
    # labels come from the same column walk as the values
    ("rbp?p=1/2", "graded:levels=3,L=4"),
    # recorded before walks handed over finished keys: uncertified pairs, each
    # reduced where its row makes it
    ("utility?alpha=1,beta=1,gamma=1,delta=1e400", "contingency:N=6,R=2"),
]

# recorded before float sums were made left-to-right additions, for the
# verbs that had no golden: a collision and uneven gaps; one value per
# family, pnorm's approximate; and ingest-eval through the gmean sum
WITNESS = [
    ("rr",),
    ("msr", "--domain", "binary:L=4,R=1,rel=1"),
]
EVALUATE = [
    ("rbp?p=1/2", "--ranking", "2,0,1", "--universe", "N=5,R=2", "--scheme", "graded:levels=3"),
    ("pnorm", "--ranking", "0,1,0,1", "--universe", "N=6,R=2"),
    ("esl", "--leveled", "(0,2)(1,1)", "--need", "1"),
    ("f-measure", "--table", "tp=2,fp=3,fn=3,tn=7"),
]
INGEST_EVAL = [
    ("ap", "--depth", "5", "--aggregate", "mean"),
    ("dcg?b=2", "--depth", "5", "--aggregate", "gmean", "--json"),
]


def golden_name(words, suffix):
    """The file name of a golden: its listed words, each run of characters other than
    letters and digits made a dash."""
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(words)).strip("-") + suffix


def jobs():
    """Yield ``(argv, golden path)`` for every pinned output."""
    # recorded before the measure registry became one table; the order is part of the output
    yield ("list-measures",), DATA / "list_measures.txt"
    # markdown and --json recorded before the rank kernel became a fold, csv
    # and text before float sums were made left-to-right additions
    for extra, suffix in [((), "md"), (("--json",), "json"),
                          (("--format", "csv"), "csv"), (("--format", "text"), "txt")]:
        yield ("table", "--suite", "paper", *extra), DATA / f"suite_paper.{suffix}"
    for measure, domain, *extra in CLASSIFY:
        yield (("classify", "--measure", measure, "--domain", domain, *extra, "--json"),
               DATA / "classify" / golden_name((measure, domain, *extra), ".json"))
    for measure, domain in HASSE:
        yield (("hasse", "--measure", measure, "--domain", domain, "--out", OUT),
               DATA / "hasse" / golden_name((measure, domain), ".gv"))
    inputs = ("--qrels", str(DATA / "qrels.txt"), "--run", str(DATA / "run.txt"))
    for verb, before, listed in [("witness", (), WITNESS), ("evaluate", (), EVALUATE),
                                 ("ingest-eval", inputs, INGEST_EVAL)]:
        for words in listed:
            suffix = ".json" if "--json" in words else ".txt"
            yield (verb, *before, "--measure", *words), DATA / verb / golden_name(words, suffix)


def pinned(argv, golden, run, scratch):
    """Run ``argv`` through ``run``, which returns an exit code and stdout bytes.

    Return the exit code and the bytes the job pins: its stdout, or the file
    a hasse job writes, placed under ``scratch``.
    """
    target = Path(scratch) / golden.name
    code, stdout = run([str(target) if word == OUT else word for word in argv])
    if OUT not in argv:
        return code, stdout
    return code, target.read_bytes() if target.exists() else b""


def main(command):
    """Check every job through ``command``; return 1 if any job's bytes differ."""
    def run(argv):
        done = subprocess.run([*command, *argv], capture_output=True)
        if done.returncode:
            sys.stdout.write(done.stderr.decode("utf-8", "replace"))
        return done.returncode, done.stdout

    listed = list(jobs())
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        for argv, golden in listed:
            code, out = pinned(argv, golden, run, scratch)
            if code != 0 or not golden.exists() or out != golden.read_bytes():
                differ += 1
                print(f"differs (exit {code}): {shlex.join([*command, *argv])}\n"
                      f"  golden: {golden.relative_to(DATA.parent.parent)}")
    print(f"{differ} of {len(listed)} pinned outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/goldens.py <command…>, such as metriclass")
    sys.exit(main(sys.argv[1:]))
