"""The `growth` transcript: for each argv below, run in-process through
cli.main, the exit status, the stdout length and sha256 prefix, and the
first stderr line, against the committed table cli_transcript.json.

A deliberate output change regenerates the table, and says so:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from commgrowth.cli import main

TABLE = Path(__file__).with_name("cli_transcript.json")

FORMATS = [[], ["--json"]]

ARGVS = [
    ["--help"], ["--version"], [],
    # rank1: text, CSV and JSON, past one output block, and each refusal
    *[["rank1", "--n", n, *fmt] for n in ("1", "30", "70000")
      for fmt in ([], ["--csv"], ["--json"])],
    ["rank1", "--help"], ["rank1", "--n", "0"], ["rank1", "--n", "x"],
    ["rank1", "--n", "10000001"], ["rank1", "--n", "3", "--csv", "--json"],
    # ball: each family and dimension, to the candidate guard at dims 2 and 3
    *[["ball", "--family", "cyclic", "--n", n, *fmt]
      for n in ("1", "2", "30", "949", "950", "1000") for fmt in FORMATS],
    *[["ball", "--family", "lattice", "--dim", d, "--n", n, *fmt]
      for d, ns in (("1", ("1", "40", "1000")), ("2", ("1", "7", "64")), ("3", ("1", "5", "13")))
      for n in ns for fmt in FORMATS],
    ["ball", "--family", "lattice", "--dim", "2", "--n", "213"],
    ["ball", "--help"], ["ball", "--family", "cyclic", "--dim", "2", "--n", "3"],
    ["ball", "--family", "lattice", "--dim", "0", "--n", "2"],
    ["ball", "--family", "lattice", "--dim", "4", "--n", "2"],
    ["ball", "--family", "lattice", "--dim", "2", "--n", "1000"],
    ["ball", "--family", "cyclic", "--n", "1001"], ["ball", "--family", "free", "--n", "2"],
    # rootsys
    *[["rootsys", "--type", t, *fmt] for t in ("A1", "G2", "E8", "d4") for fmt in FORMATS],
    ["rootsys", "--help"], ["rootsys", "--type", "E5"], ["rootsys", "--type", "A49"],
    # order, with the matrix oracle
    *[["order", "--type", t, "--p", p, "--k", k, *fmt]
      for t, p, k in (("A1", "2", "2"), ("E8", "3", "2"), ("G2", "1000003", "3"))
      for fmt in FORMATS],
    *[["order", "--type", t, "--p", "2", "--brute-force", *fmt]
      for t in ("A1", "A2", "C2") for fmt in FORMATS],
    ["order", "--help"], ["order", "--type", "A1", "--p", "4"],
    ["order", "--type", "G2", "--p", "2", "--brute-force"],
    ["order", "--type", "C2", "--p", "5", "--brute-force"],
    ["order", "--type", "E8", "--p", "1000003", "--k", "100"],
    # parahoric: levels, with the per-prime and global bounds
    *[["parahoric", "--type", t, "--k", k, *extra, *fmt]
      for t, k, extra in (("A1", "0", []), ("C2", "2", ["--p", "3", "--m", "12"]),
                          ("E8", "2", []), ("F4", "99", []), ("G2", "1", ["--p", "7"]),
                          ("B3", "5", ["--m", "6"]))
      for fmt in FORMATS],
    ["parahoric", "--help"], ["parahoric", "--type", "A1", "--k", "-1"],
    ["parahoric", "--type", "A1", "--k", "1", "--p", "6"],
    ["parahoric", "--type", "A1", "--k", "101"],
    ["parahoric", "--type", "E8", "--k", "99", "--p", "100003"],
    # check metric
    ["check", "metric"], ["check", "metric", "--samples", "20", "--seed", "3"],
    ["check", "--help"], ["check", "metric", "--help"], ["check"],
    ["check", "metric", "--samples", "0"], ["check", "metric", "--samples", "100001"],
]


def transcript_row(argv):
    """[argv, exit status, stdout bytes, stdout sha256 prefix, first stderr line]
    of one in-process call; usage text is laid out at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: --help, --version and usage errors
            status = exc.code
    data = out.getvalue().encode()
    return [argv, status, len(data), hashlib.sha256(data).hexdigest()[:16],
            err.getvalue().partition("\n")[0]]


def test_transcript_unchanged():
    expected = json.loads(TABLE.read_text())
    assert [row[0] for row in expected] == ARGVS
    for row in expected:
        assert transcript_row(row[0]) == row


if __name__ == "__main__":
    TABLE.write_text("[\n" + ",\n".join(json.dumps(transcript_row(argv)) for argv in ARGVS)
                     + "\n]\n")
