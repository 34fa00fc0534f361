#!/usr/bin/env python3
"""The mutant register: the lattice-ball kernel, its cache of keys and the
transfer check; the matrix oracle of chevalley and the metric-suite samplers;
the block writer of every `growth` listing; the rank-1 series and its
sandwich check; and the rational intake of errors and the report builder.

Each entry breaks the library on purpose: the file, the exact text it
replaces, the new text, and the tests that must fail.  For each entry the
script applies the mutant to a `git archive` copy of a revision in a
temporary directory, runs the named tests there with `pytest -x`, and
prints `killed` (a named test failed) or `survived`.  An equivalent mutant
changes nothing a test can see; it is run the same way and must survive.
Before any mutant, the named tests must pass on the unchanged copy.  The
working tree is never edited, and nothing is imported from commgrowth.

    python tools/mutants.py                 # every entry, at HEAD
    python tools/mutants.py --rev HEAD~1    # at another revision

Exit status 0 when every mutant ends as registered, 1 when one does not
(a survivor, an equivalent mutant killed, or old text not found once), 2
when a named test fails on the unchanged copy.
"""

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# address space of each test run: a mutant that builds a refused ball fails
# its test instead of exhausting the host's memory
MEMORY_BYTES = 3 * 2 ** 30

GRAPH = "src/commgrowth/commgraph.py"
CHEVALLEY = "src/commgrowth/chevalley.py"
CLI = "src/commgrowth/cli.py"
ARITH = "src/commgrowth/arith.py"
ERRORS = "src/commgrowth/errors.py"
REPORTING = "src/commgrowth/reporting.py"
BALL = "tests/test_commgraph.py::TestBallEnumeration::"
TRANSFER = "tests/test_commgraph.py::TestTransfer::"
CACHE = "tests/test_commgraph.py::TestBallCache::"
ORACLE = "tests/test_chevalley.py::TestBruteForce::"
SAMPLERS = "tests/test_commgraph.py::TestSamplersAgainstOldDraws::"
LISTING = "tests/test_cli.py::TestBall::"
SERIES = "tests/test_arith.py::TestRank1Series::"
SANDWICH = "tests/test_arith.py::TestSandwich::test_prefix_sums_not_held_as_int64_refused"
# the head of _ball_keys: the census, the cache lookup, then the stack
CENSUS = "    n, _, A, _ = _ball_census(n, dim)\n"
LOOKUP = ("    if (keys := _ball_cache.pop(key := (n, _integer(\"dim\", dim)), None)) is not None:\n"
          "        _ball_cache[key] = keys  # last in the dict: the most recently used\n"
          "        return keys\n")
STACK = "    import numpy as np\n    R, det = _hnf_stack(dim, n)\n"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple
    equivalent: bool = False


REGISTER = (
    # the stack of Hermite normal forms and its count
    Mutant("stack digits read by the wrong radices", GRAPH,
           "code, H[0, c] = code // H[c, c], code % H[c, c]",
           "code, H[0, c] = code // H[s - c, s - c], code % H[s - c, s - c]",
           (BALL + "test_hnf_stack_oracle[3]",)),
    Mutant("stack digits read last first", GRAPH,  # the same rows in another order
           "        for c in range(1, s):\n",
           "        for c in range(s - 1, 0, -1):\n",
           (BALL + "test_hnf_stack_oracle[3]", BALL + "test_keys_against_lexsort[dim3]"),
           equivalent=True),
    Mutant("count pairs t <= n//j - 1", GRAPH,
           "j, t = i.repeat(c := n // i), _offsets(c) + 1",
           "j, t = i.repeat(c := n // i - 1), _offsets(c) + 1",
           (BALL + "test_hnf_stack_oracle[2]",)),
    Mutant("stack rows permuted", GRAPH,
           "        det = H[0, 0] * det.repeat(count)\n    return H, det\n",
           "        det = H[0, 0] * det.repeat(count)\n"
           "    p = np.random.default_rng(0).permutation(len(det))\n"
           "    return {rc: col[p] for rc, col in H.items()}, det[p]\n",
           (BALL + "test_hnf_stack_oracle[3]", BALL + "test_keys_against_lexsort[dim3]",
            BALL + "test_int64_exact_at_guard_edge[dim3]", BALL + "test_ball_size_pinned[Z3-8]"),
           equivalent=True),
    Mutant("stack in descending determinant order", GRAPH,
           'order = det.argsort(kind="stable")  #',
           'order = det.argsort(kind="stable")[::-1]  #',
           (BALL + "test_ball_size_pinned[Z2-31]", BALL + "test_keys_against_lexsort[dim2]")),
    # the frames and the products
    Mutant("adjugate off-diagonal sum negated", GRAPH,
           "adj[r, x] = -sum(", "adj[r, x] = sum(",
           (BALL + "test_int64_exact_at_guard_edge[dim2]",)),
    Mutant("frame entries above the diagonal negated", GRAPH,
           "    return {(r, c): adj[dim - 1 - c, dim - 1 - r] for r, c in adj}\n",
           "    return {(r, c): adj[dim - 1 - c, dim - 1 - r] * (1 if r == c else -1)"
           " for r, c in adj}\n",
           (BALL + "test_int64_exact_at_guard_edge[dim2]",)),
    Mutant("product entry keeps its last term only", GRAPH,
           "P[r, c] = P[r, c] + x * y if r < t else x * y", "P[r, c] = x * y",
           (BALL + "test_lattice_ball_examples",)),
    Mutant("(0, 1) entry left unreduced", GRAPH,
           "        k = P[r, c] // P[c, c]\n",
           "        k = P[r, c] // P[c, c] if (r, c) != (0, 1) else 0\n",
           (BALL + "test_ball_size_pinned[Z2-31]",)),
    Mutant("one column left out of the gcd", GRAPH,
           "    for col in P.values():\n", "    for col in list(P.values())[1:]:\n",
           (BALL + "test_cyclic_ball_examples",)),
    # the sort code and the key order
    Mutant("radix max, not max + 1", GRAPH,
           "radices = [int(col.max()) + 1 for col in columns]",
           "radices = [int(col.max()) for col in columns]",
           (BALL + "test_keys_against_lexsort[dim2]",
            "tests/test_cli.py::TestBall::test_output_bytes[text-dim2-31]")),
    Mutant("last column dropped from the sort code", GRAPH,
           "    for col, radix in zip(columns, radices):",
           "    for col, radix in zip(columns[:-1], radices):",
           (BALL + "test_cyclic_ball_examples",)),
    Mutant("dim or 1 back in _ball_keys", GRAPH,
           "    R, det = _hnf_stack(dim, n)\n", "    R, det = _hnf_stack(dim or 1, n)\n",
           ("tests/test_source_rules.py::test_cyclic_branches_stay_in_their_functions",)),
    # the transported ball and the listing
    Mutant("transport by the transposed basis", GRAPH,
           "lambda t, c: gamma.basis[t][c], d)", "lambda t, c: gamma.basis[c][t], d)",
           (BALL + "test_ball_complete_against_undeduplicated_search",)),
    Mutant("transported ball left unsorted", GRAPH,
           "rows = sorted(rows[:, ::-1 if cyclic else 1].tolist()) if moved else rows.tolist()",
           "rows = rows[:, ::-1 if cyclic else 1].tolist()",
           (BALL + "test_ball_sorted_around_every_basepoint[3/2]",)),
    Mutant("transported cyclic rows sorted unreversed", GRAPH,
           "sorted(rows[:, ::-1 if cyclic else 1].tolist())", "sorted(rows.tolist())",
           (BALL + "test_dim1_lattice_ball_matches_cyclic",)),
    Mutant("listing reverses the cyclic rows again", "src/commgrowth/cli.py",
           '_write_rows("[\\n" * args.json + head, keys.T,',
           '_write_rows("[\\n" * args.json + head, (keys[:, ::-1] if cyclic else keys).T,',
           ("tests/test_cli.py::TestBall::test_output_bytes[text-cyclic-1000]",)),
    # the guards
    Mutant("count guard after the stack is built", GRAPH,
           CENSUS + LOOKUP + STACK,
           "    n = _check_ball(n, dim)\n" + LOOKUP + STACK + CENSUS,
           (BALL + "test_candidate_refusal_sorts_nothing",)),
    Mutant("count guard after the sort by determinant", GRAPH,
           CENSUS + LOOKUP + STACK + "    order = det.argsort(kind=\"stable\")",
           "    n = _check_ball(n, dim)\n" + LOOKUP + STACK
           + "    order = det.argsort(kind=\"stable\")\n" + CENSUS + "    order = order",
           (BALL + "test_candidate_refusal_sorts_nothing",)),
    Mutant("count guard inline, with >=", GRAPH,
           "    _guard(total := K(n), MAX_BALL_CANDIDATES,\n"
           "           lambda: f\"{total} ball candidates exceed guard {MAX_BALL_CANDIDATES}\")\n",
           "    if (total := K(n)) >= MAX_BALL_CANDIDATES:\n"
           "        from .errors import ResourceLimitError\n"
           "        raise ResourceLimitError("
           "f\"{total} ball candidates exceed guard {MAX_BALL_CANDIDATES}\")\n",
           (BALL + "test_candidate_guard", "tests/test_source_rules.py::test_one_guard_routine")),
    Mutant("_check_ball dropped from the census", GRAPH,
           "    n = _check_ball(n, dim)\n    import numpy as np\n    A = (a",
           "    import numpy as np\n    A = (a",
           (BALL + "test_dimension_guard_boundary", BALL + "test_radius_guard_boundary")),
    # the cache of ball keys
    Mutant("cache lookup before the census", GRAPH,
           CENSUS + LOOKUP,
           LOOKUP.replace("(n, ", "(_check_ball(n, dim), ") + CENSUS,
           (CACHE + "test_hit_refused_past_a_lowered_guard[candidates]",)),
    Mutant("cache key without dim", GRAPH,
           "key := (n, _integer(\"dim\", dim))", "key := (n,)",
           (CACHE + "test_integer_kinds_share_one_entry",)),
    Mutant("cached keys read-only, but not over bytes", GRAPH,
           "    keys = np.frombuffer(keys.tobytes(), np.int64).reshape(keys.shape).T\n",
           "    keys = keys.T\n    keys.flags.writeable = False\n",
           (CACHE + "test_shared_arrays_cannot_be_made_writeable",)),
    Mutant("cache eviction dropped", GRAPH,
           "        while _ball_cache_bytes + keys.nbytes > MAX_BALL_CACHE_BYTES:\n"
           "            _ball_cache_bytes -= _ball_cache.pop(next(iter(_ball_cache))).nbytes\n",
           "",
           (CACHE + "test_budget_lets_the_least_recently_used_go_first",)),
    Mutant("cache hit left in place: first in, first out", GRAPH,
           "keys := _ball_cache.pop(key", "keys := _ball_cache.get(key",
           (CACHE + "test_budget_lets_the_least_recently_used_go_first",)),
    # the transfer check by counts
    Mutant("transfer without the e sum", GRAPH,
           "C[x] = K(x) - sum(int(a[e]) * C[x // e ** 2] for e in range(2, math.isqrt(x) + 1))",
           "C[x] = K(x)",
           (TRANSFER + "test_sizes_are_key_lengths[2]",)),
    Mutant("transfer sums e to isqrt(x) - 1", GRAPH,
           "for e in range(2, math.isqrt(x) + 1))", "for e in range(2, math.isqrt(x)))",
           (TRANSFER + "test_sizes_are_key_lengths[2]",)),
    Mutant("transfer starts e at 3", GRAPH,
           "for e in range(2, math.isqrt(x) + 1))", "for e in range(3, math.isqrt(x) + 1))",
           (TRANSFER + "test_sizes_are_key_lengths[2]",)),
    Mutant("transfer reads C[x // e]", GRAPH,
           "C[x // e ** 2]", "C[x // e]",
           (TRANSFER + "test_sizes_are_key_lengths[2]",)),
    Mutant("transfer reads a[e - 1]", GRAPH,
           "int(a[e]) * C", "int(a[e - 1]) * C",
           (TRANSFER + "test_sizes_are_key_lengths[2]",)),
    Mutant("transfer census at n, not c*n", GRAPH,
           "_ball_census(c_ab * n, A.dim)", "_ball_census(n, A.dim)",
           (TRANSFER + "test_guards_go_to_the_balls",)),
    # the matrix oracle: forms in the last column, decided in chunks of products
    Mutant("Sp4 prefix entry (0, 1) dropped", CHEVALLEY,
           "for i, j in ((0, 1), (0, 2), (1, 2)):", "for i, j in ((0, 2), (1, 2)):",
           (ORACLE + "test_examples[Sp4-2-720]",)),
    Mutant("Sp4 prefix entry (1, 2) dropped", CHEVALLEY,  # the other five conditions imply it
           "for i, j in ((0, 1), (0, 2), (1, 2)):", "for i, j in ((0, 1), (0, 2)):",
           (ORACLE + "test_examples[Sp4-2-720]", ORACLE + "test_equals_the_full_scan[7]",
            ORACLE + "test_every_inguard_sl3_and_sp4_modulus[Sp4-3]"),
           equivalent=True),
    Mutant("cofactor 0's sign flipped", CHEVALLEY,
           "sign = (-1) ** (np.arange(n) + n - 1)[:, None]",
           "sign = (-1) ** (np.arange(n) + n - 1 + (np.arange(n) == 0))[:, None]",
           (ORACLE + "test_every_inguard_sl3_and_sp4_modulus[Sp4-3]",)),
    Mutant("target 1 in place of 1 % m", CHEVALLEY,
           "hits &= P - P // m * m == value % m", "hits &= P - P // m * m == value",
           (ORACLE + "test_trivial_modulus",)),
    Mutant("form omega(c_2, x) dropped", CHEVALLEY,
           "for i, form in enumerate(omega)]", "for i, form in enumerate(omega) if i != 2]",
           (ORACLE + "test_examples[Sp4-2-720]",)),
    Mutant("chunk loop one prefix short", CHEVALLEY,
           "for lo in range(0, cof.shape[1], step):",
           "for lo in range(0, cof.shape[1] - 1, step):",
           (ORACLE + "test_trivial_modulus",)),
    Mutant("last columns built as int8", CHEVALLEY,
           "np.indices((m,) * n, np.int32)", "np.indices((m,) * n, np.int8)",
           (ORACLE + "test_every_inguard_sl2_modulus[60]",)),
    # the metric-suite samplers and their plane closed forms
    Mutant("_below draws (k - 1).bit_length() bits", GRAPH,
           "getrandbits(k.bit_length())", "getrandbits((k - 1).bit_length())",
           (SAMPLERS + "test_below_is_randbelow[0]",)),
    Mutant("_plane without its content strip", GRAPH,
           "        if (content := math.gcd(denom, a, b, c)) > 1:\n"
           "            denom, a, b, c = denom // content, a // content, b // content, c // content\n",
           "",
           (SAMPLERS + "test_plane_is_from_hnf",)),
    Mutant("_plane_hnf without % k", GRAPH,
           "(s * b + (g - s * a) // (c or 1) * d) % (det // g)",
           "(s * b + (g - s * a) // (c or 1) * d)",
           ("tests/test_commgraph.py::test_two_row_hnf_matches_the_generic_loop",)),
    Mutant("chain step's corner left unreduced", GRAPH,
           "(a * u + v * r) % (d * r)", "(a * u + v * r)",
           (SAMPLERS + "test_equal_values_and_stream[0-lattice-chain]",)),
    # the block writer of every listing
    Mutant("every block trimmed", CLI,
           "text[:len(text) - cut] if hi == n else text", "text[:len(text) - cut]",
           (LISTING + "test_output_across_block_edges[text-cyclic-3x23]",)),
    Mutant("first block trimmed, not the last", CLI,
           "if hi == n else text", "if lo == 0 else text",
           (LISTING + "test_output_across_block_edges[text-cyclic-3x23]",)),
    Mutant("row numbers restarted in each block", CLI,
           "np.arange(lo + 1, hi + 1, dtype=np.int32)", "np.arange(1, hi - lo + 1, dtype=np.int32)",
           ("tests/test_cli.py::TestRank1::test_output_bytes[--csv-16385]",)),
    Mutant("a lone last row dropped", CLI,
           "for lo in range(0, n := len(columns[-1]), _ROW_BLOCK):",
           "for lo in range(0, (n := len(columns[-1])) - 1, _ROW_BLOCK):",
           ("tests/test_cli.py::TestRank1::test_output_bytes[--csv-1]",)),
    Mutant("del text dropped", CLI,  # two blocks of text alive at once: seen only by memory
           "        del text  # the next block is built with one block of text alive, not two\n", "",
           (LISTING + "test_output_takes_one_block_of_memory",),
           equivalent=True),
    # the rank-1 series and the prefix sums check_sandwich_bounds reads
    Mutant("prefix sums without the dtype-kind check", ARITH,
           'C.dtype.kind not in "iu" or C.dtype', "C.dtype",
           (SANDWICH + "[float64-array]",)),
    Mutant("prefix sums without the uint64 check", ARITH,
           ' or C.dtype == np.uint64:', ":",
           (SANDWICH + "[uint64-array]",)),
    Mutant("prefix sums without the shape check", ARITH,
           "C is None or C.shape != (upto,) or ", "C is None or ",
           (SANDWICH + "[column]",)),
    Mutant("series arrays left writeable", ARITH,
           "    c.flags.writeable = C.flags.writeable = False", "    pass",
           (SERIES + "test_series_is_read_only_int32[1]",)),
    Mutant("series built as int64 arrays", ARITH,
           "c = np.left_shift(np.int32(1), w)\n    C = np.cumsum(c, dtype=np.int32)",
           "c = np.left_shift(np.int64(1), w)\n    C = np.cumsum(c, dtype=np.int64)",
           (SERIES + "test_series_is_read_only_int32[1]",)),
    Mutant("sandwich prefix sums taken in int16", ARITH,  # D(n) passes 2**15 before n = 4000
           "dsum = np.cumsum(divisor_count_sieve(upto)[1:], dtype=np.int32)",
           "dsum = np.cumsum(divisor_count_sieve(upto)[1:], dtype=np.int16)",
           ("tests/test_arith.py::TestSandwich::test_chain_holds_on_exact_series",)),
    Mutant("GrowthSeries without eq=False", ARITH,
           "@dataclass(frozen=True, eq=False)\nclass GrowthSeries",
           "@dataclass(frozen=True)\nclass GrowthSeries",
           (SERIES + "test_series_is_read_only_int32[6]",)),
    # the one rational intake and the one report builder
    Mutant("rational intake without its Python-int normalisation", ERRORS,
           "return Fraction(*map(operator.index, ratio))", "return Fraction(*ratio)",
           ("tests/test_errors.py::test_rational_arguments_go_through_one_intake"
            "[int64-2^62-c_const]",)),
    Mutant("compare without its refusal", REPORTING,
           'if type(holds).__name__ not in ("bool", "bool_"):', "if False:",
           ("tests/test_reporting.py::test_operands_that_le_cannot_decide_are_refused[None]",)),
)


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def pytest(tree, tests):
    """The exit status of `pytest -x` on tests in the checkout tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          preexec_fn=limit_memory).returncode


def verdict(mutant, base, scratch):
    """Apply mutant to a copy of base and run its tests: killed, survived,
    stale (its old text is not in the file once) or an error status."""
    tree = scratch / "tree"
    shutil.copytree(base, tree)
    try:
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        status = pytest(tree, mutant.tests)
    finally:
        shutil.rmtree(tree)
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to mutate (default HEAD)")
    args = parser.parse_args(argv)
    started, failures = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        scratch, base = Path(scratch), Path(scratch) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        tests = sorted({test for m in REGISTER for test in m.tests})
        if pytest(base, tests) != 0:
            print(f"the named tests do not all pass at {args.rev} unchanged", file=sys.stderr)
            return 2
        for mutant in REGISTER:
            result = verdict(mutant, base, scratch)
            expected = "survived" if mutant.equivalent else "killed"
            failures += result != expected
            label = "equivalent, " + result if mutant.equivalent else result
            print(f"{label:<22} {mutant.name}", flush=True)
    print(f"{len(REGISTER)} mutants at {args.rev}, {failures} not as registered, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
