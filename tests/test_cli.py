import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from ball_oracles import ball_sizes, candidate_count

from commgrowth import arith, cli, parahoric
from commgrowth.arith import MAX_OUTPUT_DIGITS, growth_series_rank1
from commgrowth.chevalley import order_zpk
from commgrowth.cli import EXIT_DOMAIN, EXIT_FAILED_CHECK, EXIT_OK, EXIT_RESOURCE, main
from commgrowth.commgraph import RationalCyclic, RationalLattice, enumerate_ball
from commgrowth.errors import DomainError, ResourceLimitError
from commgrowth.parahoric import CocharacterCount, check_cocharacter_bound, per_prime_bound
from commgrowth.root_systems import root_system, supported_labels


RANK_LE_4 = [lab for lab in supported_labels() if root_system(lab).rank <= 4]


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "commgrowth", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def decimal(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def assert_output_guard(result):
    assert result.returncode == EXIT_RESOURCE
    assert result.stdout == ""
    assert result.stderr.startswith("resource guard: ")
    assert result.stderr.count("\n") == 1
    assert str(MAX_OUTPUT_DIGITS) in result.stderr


def assert_refused_in_little_memory(argv, capsys):
    """`growth argv` is refused by the output guard with a traced peak under
    1 MB, so the power it would print is never built."""
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert_output_guard(subprocess.CompletedProcess(argv, status, captured.out, captured.err))
    assert peak < 10 ** 6


def reference_rank1(n, fmt):
    """Row-by-row rendering of `growth rank1` that the bulk formatter must
    reproduce byte for byte."""
    series = growth_series_rank1(n)
    c, C = series.c.tolist(), series.C.tolist()
    rows = list(zip(range(1, n + 1), c, C))
    if fmt == "--json":
        return json.dumps({"n": n, "c": c, "C": C}, indent=2) + "\n"
    if fmt == "--csv":
        return "k,c_k,C_k\n" + "".join(f"{k},{ck},{Ck}\n" for k, ck, Ck in rows)
    width = len(str(C[-1]))
    return "".join(f"{k:>6} {ck:>{width}} {Ck:>{width}}\n" for k, ck, Ck in rows)


def reference_ball(gamma, n, as_json):
    """Per-member rendering of enumerate_ball that `growth ball` must reproduce
    byte for byte, and the ball's size."""
    ball = enumerate_ball(gamma, n)
    cyclic = isinstance(gamma, RationalCyclic)
    if as_json:
        items = [{"a": s.a, "b": s.b} if cyclic else
                 {"denom": s.denom, "hnf": [list(r) for r in s.basis]} for s in ball]
        return json.dumps(items, indent=2) + "\n", len(ball)
    return "\n".join(f"{s.a}/{s.b}" if cyclic else str(s) for s in ball) + "\n", len(ball)


class HashSink:
    """A stdout that keeps only the length and sha256 of what is written."""

    def __init__(self):
        self.size, self.sha = 0, hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.sha.update(text.encode())

    def flush(self):
        pass


class TestRank1:
    def test_csv_golden(self):
        result = run_cli("rank1", "--n", "10", "--csv")
        assert result.returncode == EXIT_OK
        expected = ("k,c_k,C_k\n"
                    "1,1,1\n2,2,3\n3,2,5\n4,2,7\n5,2,9\n"
                    "6,4,13\n7,2,15\n8,2,17\n9,2,19\n10,4,23\n")
        assert result.stdout == expected

    def test_json_schema(self):
        result = run_cli("rank1", "--n", "10", "--json")
        payload = json.loads(result.stdout)
        assert payload["n"] == 10
        assert payload["c"][5] == 4
        assert payload["C"][-1] == 23

    def test_csv_and_json_exclusive(self):
        result = run_cli("rank1", "--n", "5", "--csv", "--json")
        assert result.returncode == 2

    # 10**6 is the first k whose row overflows the six-wide k column, and
    # 10**6 + 1 the first n with rows of both widths; the output is written
    # in blocks of cli._ROW_BLOCK rows, so one more row crosses a block
    @pytest.mark.parametrize("fmt, n", [
        (fmt, n) for fmt in ["--csv", "--json", None]
        for n in [1, 2, 9, 10, 99, 12345, 10 ** 6, cli._ROW_BLOCK + 1]
    ] + [(None, 10 ** 6 + 1)])
    def test_output_bytes(self, n, fmt, capsys):
        assert main(["rank1", "--n", str(n)] + ([fmt] if fmt else [])) == EXIT_OK
        assert capsys.readouterr().out == reference_rank1(n, fmt)

    @pytest.mark.parametrize("fmt", ["--csv", "--json", None])
    def test_writes_the_public_series(self, fmt, monkeypatch, capsys):
        # `growth rank1` prints the arrays of arith.growth_series_rank1, one call a run
        calls = []

        def counted(n):
            calls.append(n)
            return growth_series_rank1(n)

        monkeypatch.setattr(arith, "growth_series_rank1", counted)
        for n in (1, 30):
            assert main(["rank1", "--n", str(n)] + ([fmt] if fmt else [])) == EXIT_OK
            assert capsys.readouterr().out == reference_rank1(n, fmt)
        assert calls == [1, 30]

    # rank 1 never reaches a third digit group (C_{10^7} < 10^8), so the row
    # kernel is checked on its own: one column for each top digit count up
    # to 19, every column with its least value at `low`, on either side of
    # the powers 10^(4j+4) at which a lower group is read zero-padded
    # (int32 columns, as `growth rank1` passes them, take the lows below 2**31)
    @pytest.mark.parametrize("dtype, low", [
        pytest.param(dtype, low, id=("int32-" if dtype is np.int32 else "") + str(low))
        for dtype in (np.int64, np.int32)
        for low in [1, 9, 10 ** 4 - 1, 10 ** 4, 10 ** 8 - 1, 10 ** 8,
                    10 ** 12 - 1, 10 ** 12, 10 ** 16 - 1, 10 ** 16]
        if low <= np.iinfo(dtype).max])
    def test_ascii_rows_against_printf(self, dtype, low):
        rng = random.Random(f"ascii_rows/{low}")
        columns = []
        for digits in range(len(str(low)), len(str(np.iinfo(dtype).max)) + 1):
            top = min(10 ** digits - 1, int(np.iinfo(dtype).max))
            values = [low, top] + [min(top, rng.randint(low, 10 ** rng.randint(
                len(str(low)), digits) - 1)) for _ in range(98)]
            rng.shuffle(values)
            columns.append(np.array(values, dtype=dtype))
        for first in (0, 1):
            widths = [0 if (i + first) % 2 else len(str(int(col.max()))) + rng.randint(1, 3)
                      for i, col in enumerate(columns)]
            seps = [",\n    " if (i + first) % 2 else "," for i in range(len(columns) - 1)] + ["\n"]
            expected = "".join("".join("%*d%s" % (width, value, sep)
                                       for value, width, sep in zip(row, widths, seps))
                               for row in zip(*(col.tolist() for col in columns)))
            assert cli._ascii_rows(columns, widths, seps) == expected


    # a 0 takes its own table entry, in a column whose least value is 0: alone,
    # beside values of one to three digit groups, at width 0 and past its size
    # (int32 columns leave out the top past 2**31)
    @pytest.mark.parametrize("dtype, width", [
        pytest.param(dtype, width, id=("int32-" if dtype is np.int32 else "") + str(width))
        for dtype in (np.int64, np.int32) for width in [0, 1, 3, 9]])
    def test_ascii_rows_prints_zero(self, dtype, width):
        rng = random.Random(f"ascii_rows_zero/{width}")
        columns = [np.zeros(50, dtype)]
        for top in (9, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8, 10 ** 12):
            if top <= np.iinfo(dtype).max:
                values = [0, top] + [rng.choice([0, rng.randint(0, top)]) for _ in range(48)]
                columns.append(np.array(values, dtype=dtype))
        columns.append(np.array([10 ** 9] * 50, dtype=dtype))  # a column without 0
        widths = [width if i % 2 else 0 for i in range(len(columns))]
        seps = [",", " ", "|"] * 2 + ["/", "\n"]
        expected = "".join("".join("%*d%s" % (w, value, sep)
                                   for value, w, sep in zip(row, widths, seps))
                           for row in zip(*(col.tolist() for col in columns)))
        assert cli._ascii_rows(columns, widths, seps) == expected

    # a NUL is left only where a value is shorter than a field wider than its
    # width: a width-0 column whose values share one digit count leaves none,
    # and is decoded without a second copy of the text (the long separator
    # makes the text outweigh the digit arrays), while a least value one digit
    # shorter leaves NULs that must go
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("low", [10 ** 5, 10 ** 5 - 1])
    def test_ascii_rows_removes_nuls_only_where_they_occur(self, low, dtype):
        rng = random.Random(f"ascii_rows_nul/{low}")
        values = [low] + [rng.randint(10 ** 5, 10 ** 6 - 1) for _ in range(999)]
        sep = "," + " " * 1000 + "\n"
        expected = "".join("%d%s" % (value, sep) for value in values)
        column = np.array(values, dtype=dtype)
        cli._digit_groups()  # the shared table is built once, outside the count
        tracemalloc.start()
        try:
            assert cli._ascii_rows([column], [0], [sep]) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if low == 10 ** 5:
            assert peak < 2.5 * len(expected)

    def test_digit_groups_table_stays_read_only(self):
        # every call shares one cached table, so no caller may write to it,
        # nor make it writeable again
        groups = cli._digit_groups()
        assert groups is cli._digit_groups() and not groups.flags.writeable
        with pytest.raises(ValueError):
            groups[0] = 0
        with pytest.raises(ValueError):
            groups.flags.writeable = True


class TestBall:
    def test_cyclic_json(self):
        result = run_cli("ball", "--family", "cyclic", "--n", "6", "--json")
        descriptors = json.loads(result.stdout)
        assert len(descriptors) == 13
        assert {"a": 1, "b": 1} in descriptors

    def test_lattice_json(self):
        result = run_cli("ball", "--family", "lattice", "--dim", "2", "--n", "2",
                         "--json")
        descriptors = json.loads(result.stdout)
        assert len(descriptors) == 7
        assert {"denom": 1, "hnf": [[1, 0], [0, 1]]} in descriptors

    def test_cyclic_rejects_higher_dim(self):
        result = run_cli("ball", "--family", "cyclic", "--dim", "2", "--n", "3")
        assert result.returncode == EXIT_DOMAIN

    def test_lattice_guard_exit(self):
        result = run_cli("ball", "--family", "lattice", "--dim", "5", "--n", "2")
        assert result.returncode == EXIT_RESOURCE
        assert "resource guard" in result.stderr

    # one row per member, as many as the oracle's zeta count, and a refusal
    # past the candidate guard names the oracle's candidate count
    @pytest.mark.parametrize("argv, dim, n", [
        (["--family", "cyclic"], 1, 1000),
        (["--family", "lattice", "--dim", "2"], 2, 64),
        (["--family", "lattice", "--dim", "3"], 3, 12),
    ], ids=["cyclic-1000", "dim2-64", "dim3-12"])
    def test_rows_count_the_ball(self, argv, dim, n, capsys):
        assert main(["ball", *argv, "--n", str(n)]) == EXIT_OK
        assert capsys.readouterr().out.count("\n") == ball_sizes(dim)[n]

    @pytest.mark.parametrize("dim, n", [(2, 214), (3, 42)], ids=["dim2-214", "dim3-42"])
    def test_refusal_names_the_candidate_count(self, dim, n, capsys):
        argv = ["ball", "--family", "lattice", "--dim", str(dim), "--n", str(n)]
        assert main(argv) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert f"{candidate_count(dim, n)} ball candidates exceed guard 300000" in err
        assert err.count("\n") == 1

    # stdout against the per-member rendering of enumerate_ball, and its
    # size and sha256 prefix as that rendering first printed it
    @pytest.mark.parametrize("argv, gamma, n, digests", [
        (["--family", "cyclic"], RationalCyclic(1, 1), 1000,
         ((28766, "b817bbe559a094b0"), (168405, "b5996c0163d541e5"))),
        (["--family", "lattice", "--dim", "1"], RationalLattice.standard(1), 40,
         ((1431, "86a1cc1c78e98b25"), (8691, "814f91518ccdff47"))),
        (["--family", "lattice", "--dim", "2"], RationalLattice.standard(2), 31,
         ((71907, "bb0628c7b32f00bd"), (426010, "669c34fd887b6cd7"))),
        (["--family", "lattice", "--dim", "3"], RationalLattice.standard(3), 8,
         ((43245, "61fdd3fb413a614e"), (265053, "e6d26f808eccdffa"))),
    ], ids=["cyclic-1000", "dim1-40", "dim2-31", "dim3-8"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_bytes(self, argv, gamma, n, digests, as_json, capsys):
        assert main(["ball", *argv, "--n", str(n)] + ["--json"] * as_json) == EXIT_OK
        out = capsys.readouterr().out
        ball = enumerate_ball(gamma, n)
        cyclic = isinstance(gamma, RationalCyclic)
        if as_json:
            items = [{"a": s.a, "b": s.b} if cyclic else
                     {"denom": s.denom, "hnf": [list(r) for r in s.basis]} for s in ball]
            assert out == json.dumps(items, indent=2) + "\n"
        else:
            assert out == "\n".join(f"{s.a}/{s.b}" if cyclic else str(s) for s in ball) + "\n"
        size, prefix = digests[as_json]
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()[:16]) == (size, prefix)


    # the one-member balls: one key row, and the head and separators of its template
    @pytest.mark.parametrize("argv, text, member", [
        (["--family", "cyclic"], "1/1", {"a": 1, "b": 1}),
        (["--family", "lattice"], "(1/1)<[1]>", {"denom": 1, "hnf": [[1]]}),
        (["--family", "lattice", "--dim", "2"], "(1/1)<[1,0],[0,1]>",
         {"denom": 1, "hnf": [[1, 0], [0, 1]]}),
        (["--family", "lattice", "--dim", "3"], "(1/1)<[1,0,0],[0,1,0],[0,0,1]>",
         {"denom": 1, "hnf": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ], ids=["cyclic", "dim1", "dim2", "dim3"])
    def test_radius_one(self, argv, text, member, capsys):
        assert main(["ball", *argv, "--n", "1"]) == EXIT_OK
        assert capsys.readouterr().out == text + "\n"
        assert main(["ball", *argv, "--n", "1", "--json"]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps([member], indent=2) + "\n"


    # with the block shrunk to a few rows, a listing of k whole blocks, and one
    # of k blocks and a row, must equal the per-member rendering: each block is
    # laid out on its own and only the last one is trimmed
    @pytest.mark.parametrize("argv, gamma, n, rows, block", [
        (["--family", "cyclic"], RationalCyclic(1, 1), 25, 69, 23),
        (["--family", "cyclic"], RationalCyclic(1, 1), 25, 69, 17),
        (["--family", "lattice", "--dim", "1"], RationalLattice.standard(1), 14, 35, 7),
        (["--family", "lattice", "--dim", "1"], RationalLattice.standard(1), 14, 35, 17),
        (["--family", "lattice", "--dim", "2"], RationalLattice.standard(2), 8, 165, 55),
        (["--family", "lattice", "--dim", "2"], RationalLattice.standard(2), 8, 165, 41),
        (["--family", "lattice", "--dim", "3"], RationalLattice.standard(3), 4, 153, 17),
        (["--family", "lattice", "--dim", "3"], RationalLattice.standard(3), 4, 153, 19),
    ], ids=["cyclic-3x23", "cyclic-4x17+1", "dim1-5x7", "dim1-2x17+1", "dim2-3x55",
            "dim2-4x41+1", "dim3-9x17", "dim3-8x19+1"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_across_block_edges(self, argv, gamma, n, rows, block, as_json,
                                       monkeypatch, capsys):
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
        expected, size = reference_ball(gamma, n, as_json)
        assert size == rows and rows // block >= 2 and rows % block in (0, 1)
        assert main(["ball", *argv, "--n", str(n)] + ["--json"] * as_json) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_json_past_one_block(self, capsys):
        # Z^2 at 64 lists 18,051 members: a full block of 2^14 and a second one
        expected, size = reference_ball(RationalLattice.standard(2), 64, True)
        assert size == 18051 > cli._ROW_BLOCK
        assert main(["ball", "--family", "lattice", "--dim", "2", "--n", "64", "--json"]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_output_takes_one_block_of_memory(self, monkeypatch, capsys):
        # the 253,145 rows of `ball --dim 2 --n 213 --json` (30.9 MB of text)
        # are written a block at a time, never as one whole listing: with the
        # keys precomputed, the output step peaks below 16 MB
        from commgrowth import commgraph
        keys = commgraph._ball_keys(213, 2)
        monkeypatch.setattr(commgraph, "_ball_keys", lambda n, d: keys)
        # the parser and the shared digit table are built once, outside the count
        assert main(["ball", "--family", "cyclic", "--n", "1"]) == EXIT_OK
        sink = HashSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["ball", "--family", "lattice", "--dim", "2", "--n", "213",
                         "--json"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sink.size, sink.sha.hexdigest()[:16]) == (30898183, "0d7f9e75c0de10f1")
        assert peak < 16 * 2 ** 20


class TestRootsys:
    def test_json_fields(self):
        result = run_cli("rootsys", "--type", "G2", "--json")
        payload = json.loads(result.stdout)
        assert payload == {
            "label": "G2", "rank": 2, "N": 6, "d": 14, "degrees": [2, 6],
            "positive_roots": [[0, 1], [1, 0], [1, 1], [2, 1], [3, 1], [3, 2]],
        }

    def test_bad_label_is_domain_error(self):
        result = run_cli("rootsys", "--type", "E5")
        assert result.returncode == EXIT_DOMAIN

    def test_rank_guard_exit(self):
        result = run_cli("rootsys", "--type", "A49")
        assert result.returncode == EXIT_RESOURCE
        assert result.stdout == ""
        assert result.stderr == "resource guard: rank 49 exceeds guard 48\n"

    @pytest.mark.parametrize("argv", [
        ["rootsys", "--type", "A100000"],
        ["order", "--type", "A100000", "--p", "2"],
        ["parahoric", "--type", "C100000", "--k", "1"],
    ])
    def test_huge_rank_refused_at_once(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("resource guard: rank 100000 ")


class TestOrder:
    def test_plain_value(self):
        result = run_cli("order", "--type", "A1", "--p", "2", "--k", "2")
        assert result.stdout == "48\n"

    def test_json_decimal_string(self):
        result = run_cli("order", "--type", "E8", "--p", "3", "--k", "2", "--json")
        payload = json.loads(result.stdout)
        assert isinstance(payload["order"], str)
        assert int(payload["order"]) % 3 ** 248 == 0

    def test_brute_force_crosscheck(self):
        result = run_cli("order", "--type", "A2", "--p", "2", "--k", "1",
                         "--brute-force", "--json")
        payload = json.loads(result.stdout)
        assert payload["order"] == payload["brute_force"] == "168"
        assert result.returncode == EXIT_OK

    def test_composite_p(self):
        result = run_cli("order", "--type", "A1", "--p", "4")
        assert result.returncode == EXIT_DOMAIN

    def test_brute_force_guard(self):
        result = run_cli("order", "--type", "C2", "--p", "5", "--brute-force")
        assert result.returncode == EXIT_RESOURCE

    @pytest.mark.parametrize("fmt", [None, "--json"])
    def test_past_int_str_digit_limit(self, fmt):
        value = order_zpk(root_system("E8"), 1000003, 3)
        result = run_cli("order", "--type", "E8", "--p", "1000003", "--k", "3",
                         *([fmt] if fmt else []))
        assert result.returncode == EXIT_OK, result.stderr
        text = json.loads(result.stdout)["order"] if fmt else result.stdout.rstrip("\n")
        assert text == decimal(value) and len(text) > 4300

    @pytest.mark.parametrize("fmt", [None, "--json"])
    def test_output_digit_guard(self, fmt):
        result = run_cli("order", "--type", "E8", "--p", "1000003", "--k", "100",
                         *([fmt] if fmt else []))
        assert_output_guard(result)

    def test_printed_digit_guard(self, capsys):
        # the order itself, about 10^101185, passes every power guard, and is
        # refused only when printed
        argv = ["order", "--type", "E8", "--p", "1000000000000000000000007", "--k", "17"]
        assert main(argv) == EXIT_RESOURCE
        assert capsys.readouterr() == ("", "resource guard: result has about 101185 decimal "
                                           "digits, above the output guard 100000\n")

    def test_digit_guard_refuses_before_computing(self, capsys):
        # the result is a multiple of 2**2479999752, a 310 MB integer
        assert_refused_in_little_memory(["order", "--type", "E8", "--p", "2", "--k", "10000000"],
                                        capsys)

    @pytest.mark.parametrize("k", [10 ** 306, 6 * 10 ** 307], ids=["1e306", "6e307"])
    def test_digit_guard_refuses_huge_k_before_computing(self, capsys, k):
        # at 6e307 the exponent 3*(k-1) no longer fits a float
        assert_refused_in_little_memory(["order", "--type", "A1", "--p", "2", "--k", str(k)],
                                        capsys)

    def test_digit_guard_leaves_composite_p_to_domain_error(self, monkeypatch):
        def order_zpk_rejecting(rs, p, k):
            raise DomainError(f"p must be prime, got {p}")
        monkeypatch.setattr("commgrowth.chevalley.order_zpk", order_zpk_rejecting)
        assert main(["order", "--type", "E8", "--p", "1000000", "--k", "10000000"]) \
            == EXIT_DOMAIN


class TestPrimeArguments:
    def test_eighteen_digit_prime(self):
        p = 10 ** 18 + 3
        result = run_cli("order", "--type", "A1", "--p", str(p))
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == f"{p * (p * p - 1)}\n"

    @pytest.mark.parametrize("argv", [["order", "--type", "A1"],
                                      ["parahoric", "--type", "A1", "--k", "1"]],
                             ids=["order", "parahoric"])
    def test_prime_past_psi13_refused(self, argv, capsys):
        # 2**89 - 1 is prime, but no Miller-Rabin base set is proven past psi_13
        start = time.perf_counter()
        assert main([*argv, "--p", str(2 ** 89 - 1)]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource guard: ") and err.count("\n") == 1
        assert "3317044064679887385961981" in err


class TestParahoric:
    def test_json_schema(self):
        result = run_cli("parahoric", "--type", "C2", "--k", "2",
                         "--p", "3", "--m", "12", "--json")
        payload = json.loads(result.stdout)
        assert set(payload) == {"exact", "box_bound", "paper_bound",
                                "per_prime", "m_bound"}
        assert payload["exact"] == "25"
        assert payload["box_bound"] == "49"
        assert payload["paper_bound"] == str(7 ** 10)
        assert payload["per_prime"] == str(11 * 3 ** 26)
        assert payload["m_bound"] == str(12 ** 23)

    def test_optional_flags_null(self):
        result = run_cli("parahoric", "--type", "A1", "--k", "1", "--json")
        payload = json.loads(result.stdout)
        assert payload["per_prime"] is None and payload["m_bound"] is None

    @pytest.mark.parametrize("fmt", [None, "--json"])
    def test_per_prime_past_int_str_digit_limit(self, fmt):
        value = per_prime_bound(root_system("A2"), 100000007, 99).lhs
        result = run_cli("parahoric", "--type", "A2", "--k", "99",
                         "--p", "100000007", *([fmt] if fmt else []))
        assert result.returncode == EXIT_OK, result.stderr
        if fmt:
            text = json.loads(result.stdout)["per_prime"]
        else:
            text = dict(line.split(": ") for line in result.stdout.splitlines())["per_prime"]
        assert text == decimal(value) and len(text) > 4300

    @pytest.mark.parametrize("fmt", [None, "--json"])
    def test_output_digit_guard(self, fmt):
        result = run_cli("parahoric", "--type", "E8", "--k", "99", "--p", "100003",
                         *([fmt] if fmt else []))
        assert_output_guard(result)

    @pytest.mark.parametrize("flags, name", [
        (["--p", "100003"], "_per_prime_lhs"),
        (["--m", str(10 ** 201)], "maximal_lattice_bound"),
    ])
    def test_digit_guard_refuses_before_computing(self, flags, name, capsys):
        # the library refuses the power itself, so the CLI never holds it
        rs, value = root_system("E8"), int(flags[1])
        with pytest.raises(ResourceLimitError):
            getattr(parahoric, name)(rs, value, *([99] if name == "_per_prime_lhs" else []))
        assert_refused_in_little_memory(["parahoric", "--type", "E8", "--k", "99", *flags],
                                        capsys)

    @pytest.mark.parametrize("fmt", [None, "--json"])
    def test_past_a_box_scan_prints_its_count(self, fmt, capsys):
        # F4 at level 99 is cutoff 100, where a box scan would pair 201**4
        # points against 24 roots; the count reads no box
        start = time.perf_counter()
        status = main(["parahoric", "--type", "F4", "--k", "99", *([fmt] if fmt else [])])
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert status == EXIT_OK and err == ""
        if fmt:
            payload = json.loads(out)
            assert payload["exact"] == "102020401" and payload["box_bound"] == str(201 ** 4)
        else:
            assert out == f"exact: 102020401\nbox_bound: {201 ** 4}\npaper_bound: {201 ** 52}\n"

    def test_rank_above_four_prints_its_count(self, capsys):
        assert main(["parahoric", "--type", "E7", "--k", "1", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["exact"] == "1571"

    @pytest.mark.parametrize("label", RANK_LE_4)
    def test_agrees_with_library_check(self, label, capsys):
        rs = root_system(label)
        for k in range(4):
            report = check_cocharacter_bound(rs, k)
            status = main(["parahoric", "--type", label, "--k", str(k), "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert (status == EXIT_OK) == report.holds
            assert payload["exact"] == str(report.lhs)
            assert payload["paper_bound"] == str(report.rhs)


class TestCheck:
    def test_metric_suite_passes(self):
        result = run_cli("check", "metric", "--samples", "50", "--seed", "0")
        assert result.returncode == EXIT_OK
        assert result.stdout.count("PASS") == 10
        assert "FAIL" not in result.stdout

    def test_determinism(self):
        a = run_cli("check", "metric", "--samples", "40", "--seed", "3")
        b = run_cli("check", "metric", "--samples", "40", "--seed", "3")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("samples", [10 ** 5 + 1, 10 ** 4000], ids=["guard+1", "huge"])
    def test_samples_past_the_guard_refused(self, samples, capsys):
        start = time.perf_counter()
        assert main(["check", "metric", "--samples", str(samples)]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and len(err) < 200
        assert err.startswith("resource guard: sample count ")


LONG_RANK = "9" * 5000


class TestMalformedInput:
    # every malformed request ends in one stderr line, never a traceback
    @pytest.mark.parametrize("argv, status", [
        (["rootsys", "--type", "A" + LONG_RANK], EXIT_RESOURCE),
        (["rootsys", "--type", "E" + LONG_RANK], EXIT_DOMAIN),
        (["order", "--type", "A" + LONG_RANK, "--p", "2"], EXIT_RESOURCE),
        (["parahoric", "--type", "A" + LONG_RANK, "--k", "1"], EXIT_RESOURCE),
        (["ball", "--family", "lattice", "--dim", "0", "--n", "2"], EXIT_DOMAIN),
        (["ball", "--family", "lattice", "--dim", "-2", "--n", "2"], EXIT_DOMAIN),
        (["check", "metric", "--samples", "0"], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", "0"], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", "-7"], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", "2", "--k", "0"], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", "1", "--m", "0"], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", "1", "--m", "-4"], EXIT_DOMAIN),
        (["order", "--type", "G2", "--p", "2", "--brute-force"], EXIT_DOMAIN),
        (["rootsys", "--type", "H" + LONG_RANK], EXIT_DOMAIN),
        (["order", "--type", "H" + LONG_RANK, "--p", "2"], EXIT_DOMAIN),
        (["parahoric", "--type", "H" + LONG_RANK, "--k", "1"], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", "2", "--k", "1000", "--brute-force"], EXIT_RESOURCE),
        (["order", "--type", "A1", "--p", "2", "--k", "3600", "--brute-force"], EXIT_RESOURCE),
        (["order", "--type", "A1", "--p", "2", "--k", str(10 ** 306)], EXIT_RESOURCE),
        (["order", "--type", "A1", "--p", "2", "--k", str(6 * 10 ** 307)], EXIT_RESOURCE),
        (["order", "--type", "A1", "--p", "4", "--k", str(10 ** 8)], EXIT_DOMAIN),
        # Z^dim is never built past the dimension guard
        (["ball", "--family", "lattice", "--dim", str(10 ** 6), "--n", "2"], EXIT_RESOURCE),
        (["ball", "--family", "lattice", "--dim", str(10 ** 399), "--n", "2"], EXIT_RESOURCE),
        # a huge argument is echoed by its size, with its sign
        (["ball", "--family", "lattice", "--dim", str(-10 ** 399), "--n", "2"], EXIT_DOMAIN),
        (["ball", "--family", "cyclic", "--n", str(10 ** 399)], EXIT_RESOURCE),
        (["ball", "--family", "cyclic", "--n", str(-10 ** 399)], EXIT_DOMAIN),
        (["ball", "--family", "lattice", "--dim", "2", "--n", str(10 ** 399)], EXIT_RESOURCE),
        (["ball", "--family", "lattice", "--dim", "2", "--n", str(-10 ** 399)], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", str(10 ** 399)], EXIT_RESOURCE),
        (["parahoric", "--type", "A1", "--k", str(-10 ** 399)], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", str(10 ** 399)], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", str(-10 ** 399)], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", "1", "--p", str(10 ** 399)], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", "1", "--p", str(-10 ** 399)], EXIT_DOMAIN),
        (["order", "--type", "A1", "--p", "2", "--k", str(-10 ** 399)], EXIT_DOMAIN),
        (["parahoric", "--type", "A1", "--k", "1", "--m", str(-10 ** 399)], EXIT_DOMAIN),
        # the sieve guard refuses before any array is allocated; 10**7 itself,
        # about 115 MB, is never run here
        (["rank1", "--n", str(10 ** 7 + 1)], EXIT_RESOURCE),
        (["rank1", "--n", str(10 ** 20)], EXIT_RESOURCE),
        (["rank1", "--n", str(10 ** 400)], EXIT_RESOURCE),
        # the candidate guard refuses before the HNF stack is built
        (["ball", "--family", "lattice", "--dim", "2", "--n", "1000"], EXIT_RESOURCE),
        (["ball", "--family", "lattice", "--dim", "3", "--n", "60"], EXIT_RESOURCE),
    ])
    def test_one_line_diagnostic(self, argv, status, capsys):
        start = time.perf_counter()
        assert main(argv) == status
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1 and len(err) < 200


class TestHarness:
    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith("growth ")

    def test_unknown_flag_rejected(self):
        result = run_cli("rank1", "--n", "3", "--bogus")
        assert result.returncode == 2

    def test_thread_env_ignored(self):
        plain = run_cli("rank1", "--n", "3")
        result = run_cli("rank1", "--n", "3", env_extra={"GROWTH_THREADS": "zero"})
        assert result.returncode == plain.returncode == EXIT_OK
        assert result.stdout == plain.stdout

    @pytest.mark.parametrize("args", [
        pytest.param(["rank1", "--n", "200000", "--csv"], id="--csv"),
        pytest.param(["rank1", "--n", "200000", "--json"], id="--json"),
        pytest.param(["rank1", "--n", "200000"], id="None"),
        pytest.param(["ball", "--family", "lattice", "--dim", "2", "--n", "64", "--json"],
                     id="ball"),
    ])
    def test_reader_closing_early_is_quiet(self, args):
        # `growth rank1 ... | head`: the output outgrows the pipe, so the
        # writer meets the closed end, and exits 0 with nothing on stderr;
        # the ball's two blocks (18,051 rows) may meet it between two writes
        import os
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "commgrowth", *args]
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            assert child.wait(timeout=60) == EXIT_OK
            assert child.stderr.read() == b""

    def test_repeat_runs_byte_identical(self):
        a = run_cli("ball", "--family", "lattice", "--dim", "2", "--n", "4", "--json")
        b = run_cli("ball", "--family", "lattice", "--dim", "2", "--n", "4", "--json")
        assert a.stdout == b.stdout

    def test_failed_report_maps_to_exit_one(self, monkeypatch, capsys):
        # a cocharacter count above the paper bound fails the check, and the
        # handler scans once
        scans = []

        def count_above_bound(rs, c):
            scans.append(c)
            over = (2 * c + 1) ** rs.dimension + 1
            return CocharacterCount(rs.label, c, over, over)

        monkeypatch.setattr("commgrowth.parahoric.count_admissible_cocharacters",
                            count_above_bound)
        assert EXIT_FAILED_CHECK == 1
        assert main(["parahoric", "--type", "A2", "--k", "1"]) == EXIT_FAILED_CHECK
        assert scans == [2]
        assert f"exact: {5 ** 8 + 1}\n" in capsys.readouterr().out

    def test_main_in_process(self, capsys):
        assert main(["rank1", "--n", "3", "--csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "k,c_k,C_k\n1,1,1\n2,2,3\n3,2,5\n"

    def test_repeated_calls_share_no_state(self, monkeypatch, capsys):
        # main reuses one parser per process, so in one sequence of calls
        # each answers as a fresh `python -m commgrowth` with the same argv:
        # a default comes back after a call that set it, and an argparse
        # error in the middle leaves nothing behind
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike on both sides
        sequence = [
            ["ball", "--family", "lattice", "--dim", "3", "--n", "2"],
            ["ball", "--family", "cyclic", "--n", "5"],
            ["order", "--type", "A1", "--p", "3", "--k", "4"],
            ["order", "--type", "A1", "--p", "3"],
            ["check", "metric"],
            ["rank1", "--n", "3", "--csv", "--json"],
            ["rank1", "--n", "3", "--csv"],
            ["rank1", "--n", "3"],
            ["check", "metric", "--samples", "5", "--seed", "7"],
            ["check", "metric"],
        ]
        statuses = []
        for argv in sequence:
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (status, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            statuses.append(status)
        assert statuses == [EXIT_OK] * 5 + [2] + [EXIT_OK] * 4
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == EXIT_OK
        assert capsys.readouterr().out == cli.build_parser().format_help()
