"""Command-line entry point: ``growth <subcommand> ...``.

Exit statuses: 0 success (including all-pass property runs), 1 any failed
bound check, 2 domain error, 3 resource-guard refusal.  Reports go to
stdout, diagnostics to stderr.  Integers that can outgrow 53-bit floats
are serialized as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .arith import MAX_OUTPUT_DIGITS, _prime, _rank1_arrays
from .chevalley import ORACLE_FAMILIES, brute_force_order, order_zpk
from .commgraph import _ball_keys, _check_ball, run_metric_checks
from .errors import DomainError, ResourceLimitError
from .parahoric import _level_count, _per_prime_lhs, maximal_lattice_bound
from .reporting import _decimal_text
from .root_systems import root_system

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3

# rows per block of `growth rank1` output
_ROW_BLOCK = 1 << 16


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj):
    _emit(json.dumps(obj, indent=2))


def _emit_fields(payload: dict, as_json: bool):
    """The payload as JSON, or as `key: value` lines without the None ones."""
    if as_json:
        _emit_json(payload)
    else:
        _emit("\n".join(f"{key}: {value}" for key, value in payload.items()
                        if value is not None))


def _decimal(value: int) -> str:
    """Decimal text of a result integer, past CPython's default int->str
    digit limit but refused above MAX_OUTPUT_DIGITS, estimated from the
    bit length before any conversion work is done."""
    digits = int(value.bit_length() * math.log10(2)) + 1
    if digits > MAX_OUTPUT_DIGITS:
        raise ResourceLimitError(f"result has about {digits} decimal digits, "
                                 f"above the output guard {MAX_OUTPUT_DIGITS}")
    return _decimal_text(value)


@functools.cache
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each r < 10000 as a uint32 word, built on
    first use: zero-padded at index 10000 + r, and with the leading zeros
    NUL at index r, for the leading group of a value (all NUL for r = 0)."""
    import numpy as np
    r = np.arange(10000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = r // place % 10 + ord("0")
    lead = np.where(r >= place, digits, 0)
    groups = np.concatenate([lead, digits]).astype(np.uint8).view(np.uint32)[:, 0]
    groups.flags.writeable = False  # one table is shared by every call
    return groups


def _ascii_rows(columns, widths, seps) -> str:
    """The rows of equal-length positive int64 columns, each value as
    `%{width}d` followed by its separator.

    Digits go four at a time through _digit_groups into uint32 words; a
    blank inside the width becomes a space, and one outside it (where a
    shorter value shares a field with a longer one) a NUL, removed at the end.
    """
    import numpy as np
    groups = _digit_groups()
    sizes = [max(width, len(str(int(col.max())))) for col, width in zip(columns, widths)]
    rows = np.empty((len(columns[0]), sum(sizes) + sum(map(len, seps))), np.uint8)
    start = 0
    for col, width, size, sep in zip(columns, widths, sizes, seps):
        words = np.empty((len(col), -(-size // 4)), np.uint32)
        q = col
        for j in range(words.shape[1]):  # lowest group first
            r, q = q, q // 10000
            # digits have the space bit set, so OR turns only NUL into space
            spaces = bytes(32 * (4 * j + 3 - i < width) for i in range(4))
            words[:, -1 - j] = groups[r - q * 10000 + (q > 0) * 10000] \
                | np.frombuffer(spaces, np.uint32)
        rows[:, start:start + size] = words.view(np.uint8)[:, -size:]
        rows[:, start + size:start + size + len(sep)] = np.frombuffer(sep.encode(), np.uint8)
        start += size + len(sep)
    return rows.tobytes().replace(b"\0", b"").decode()


def _run_rank1(args: argparse.Namespace) -> int:
    n = args.n
    c, C = _rank1_arrays(n)
    import numpy as np
    blocks = range(0, n, _ROW_BLOCK)
    if args.json:
        # json.dumps(..., indent=2) layout: all of c, then all of C
        sep = ",\n    "
        for head, values in (('{\n  "n": %d,\n  "c": [\n    ' % n, c),
                             ('\n  ],\n  "C": [\n    ', C)):
            sys.stdout.write(head)
            for lo in blocks:
                text = _ascii_rows([values[lo:lo + _ROW_BLOCK]], [0], [sep])
                sys.stdout.write(text if lo + _ROW_BLOCK < n else text[:-len(sep)])
        sys.stdout.write("\n  ]\n}\n")
        return EXIT_OK
    if args.csv:
        sys.stdout.write("k,c_k,C_k\n")
        widths, seps = [0, 0, 0], [",", ",", "\n"]
    else:
        width = len(str(int(C[-1])))
        widths, seps = [6, width, width], [" ", " ", "\n"]
    for lo in blocks:
        hi = min(lo + _ROW_BLOCK, n)
        sys.stdout.write(_ascii_rows([np.arange(lo + 1, hi + 1), c[lo:hi], C[lo:hi]],
                                     widths, seps))
    return EXIT_OK


def _run_ball(args: argparse.Namespace) -> int:
    if args.family == "cyclic" and args.dim != 1:
        raise DomainError("cyclic subgroups live in dimension 1")
    dim = None if args.family == "cyclic" else args.dim
    _check_ball(args.n, dim)
    keys = _ball_keys(args.n, dim)[:, ::1 if dim else -1]  # cyclic rows (b, a) to (a, b)
    # one `%d` template over a key row: the member as str() or json.dumps(indent=2) lays it out
    if args.json:
        member = {"a": 0, "b": 0} if dim is None else {"denom": 0, "hnf": [[0] * dim] * dim}
        template, sep = json.dumps([member], indent=2)[2:-2].replace("0", "%d"), ",\n"
    else:
        row = "[" + ",".join(["%d"] * (dim or 1)) + "]"
        template, sep = "%d/%d" if dim is None else f"(1/%d)<{','.join([row] * dim)}>", "\n"
    rows = sep.join([template] * len(keys)) % tuple(keys.ravel().tolist())
    _emit(f"[\n{rows}\n]" if args.json else rows)
    return EXIT_OK


def _run_rootsys(args: argparse.Namespace) -> int:
    rs = root_system(args.type)
    payload = {
        "label": rs.label,
        "rank": rs.rank,
        "N": rs.num_positive_roots,
        "d": rs.dimension,
        "degrees": list(rs.degrees),
        "positive_roots": [list(r) for r in rs.positive_roots],
    }
    _emit_fields(payload, args.json)
    return EXIT_OK


def _run_order(args: argparse.Namespace) -> int:
    rs = root_system(args.type)
    p, k = args.p, args.k
    value = order_zpk(rs, p, k)
    payload = {"label": rs.label, "p": p, "k": k, "order": _decimal(value)}
    status = EXIT_OK
    if args.brute_force:
        family = ORACLE_FAMILIES.get(rs.label)
        if family is None:
            raise DomainError(f"no matrix oracle for type {rs.label}; "
                              f"supported: {sorted(ORACLE_FAMILIES)}")
        brute = brute_force_order(family, p ** k)
        payload["brute_force"] = _decimal(brute)
        if brute != value:
            status = EXIT_FAILED_CHECK
            print(f"mismatch: formula {payload['order']} != enumeration "
                  f"{payload['brute_force']}", file=sys.stderr)
    if args.json:
        _emit_json(payload)
    elif args.brute_force:
        _emit(f"{payload['order']} (enumeration: {payload['brute_force']})")
    else:
        _emit(payload["order"])
    return status


def _run_parahoric(args: argparse.Namespace) -> int:
    rs = root_system(args.type)
    k, count, paper_bound = _level_count(rs, args.k)
    payload = {
        "exact": None if count.exact is None else _decimal(count.exact),
        "box_bound": _decimal(count.box_bound),
        "paper_bound": _decimal(paper_bound),
        "per_prime": None,
        "m_bound": None,
    }
    status = EXIT_OK
    if count.exact is not None and count.exact > paper_bound:
        status = EXIT_FAILED_CHECK
    if args.p is not None:
        payload["per_prime"] = _decimal(_per_prime_lhs(rs, _prime(args.p), k))
    if args.m is not None:
        payload["m_bound"] = _decimal(maximal_lattice_bound(rs, args.m))
    _emit_fields(payload, args.json)
    return status


def _run_check(args: argparse.Namespace) -> int:
    reports = run_metric_checks(samples=args.samples, seed=args.seed)
    _emit("\n".join(str(r) for r in reports))
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growth",
        description="Commensurability growth invariants: exact series, "
                    "subgroup metrics, Chevalley group orders, counting bounds.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    rank1 = sub.add_parser("rank1", help="exact growth series c_k, C_k")
    rank1.set_defaults(run=_run_rank1)
    rank1.add_argument("--n", type=int, required=True)
    fmt = rank1.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")

    ball = sub.add_parser("ball", help="enumerate a commensurability ball")
    ball.set_defaults(run=_run_ball)
    ball.add_argument("--family", choices=("cyclic", "lattice"), required=True)
    ball.add_argument("--dim", type=int, default=1)
    ball.add_argument("--n", type=int, required=True)
    ball.add_argument("--json", action="store_true")

    rootsys = sub.add_parser("rootsys", help="root system data for a type label")
    rootsys.set_defaults(run=_run_rootsys)
    rootsys.add_argument("--type", required=True)
    rootsys.add_argument("--json", action="store_true")

    order = sub.add_parser("order", help="group order over Z/p^k")
    order.set_defaults(run=_run_order)
    order.add_argument("--type", required=True)
    order.add_argument("--p", type=int, required=True)
    order.add_argument("--k", type=int, default=1)
    order.add_argument("--brute-force", action="store_true")
    order.add_argument("--json", action="store_true")

    para = sub.add_parser("parahoric", help="cocharacter counts and lattice bounds")
    para.set_defaults(run=_run_parahoric)
    para.add_argument("--type", required=True)
    para.add_argument("--k", type=int, required=True)
    para.add_argument("--p", type=int)
    para.add_argument("--m", type=int)
    para.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="seeded property suites")
    checks = check.add_subparsers(dest="suite", required=True)
    metric = checks.add_parser("metric", help="metric axioms, geodesics, chains")
    metric.set_defaults(run=_run_check)
    metric.add_argument("--samples", type=int, default=100)
    metric.add_argument("--seed", type=int, default=0)

    return parser


# built on the first main call and kept: argparse carries no state from one
# parse_args call to the next, and the handlers read their collaborators at call time
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Parse and dispatch one invocation; see the module docstring for the
    exit-status contract."""
    args = _shared_parser().parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader closed stdout (`growth rank1 ... | head`) between two
        # blocks: stop quietly, as a single whole-output write does
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
