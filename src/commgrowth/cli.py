"""Command-line entry point: ``growth <subcommand> ...``.

Exit statuses: 0 success (including all-pass property runs), 1 any failed
bound check, 2 domain error, 3 resource-guard refusal.  Reports go to
stdout, diagnostics to stderr.  Integers that can outgrow 53-bit floats
are serialized as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .errors import DomainError, ResourceLimitError, _guard

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3

# rows per block of every `growth` listing, the fastest of 2^12 to 2^16 as measured
_ROW_BLOCK = 1 << 14


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj):
    import json  # here, so that a run that writes no JSON never loads it
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
    from .arith import MAX_OUTPUT_DIGITS
    from .reporting import _decimal_text
    digits = int(value.bit_length() * math.log10(2)) + 1
    _guard(digits, MAX_OUTPUT_DIGITS, lambda: f"result has about {digits} decimal digits, "
                                              f"above the output guard {MAX_OUTPUT_DIGITS}")
    return _decimal_text(value)


@functools.cache
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each r < 10000 as a uint32 word, built on
    first use: zero-padded at index 10000 + r, and with the leading zeros
    NUL at index r, for the leading group of a value (all NUL for r = 0);
    and at index 20000 the value 0 itself, a lone "0"."""
    import numpy as np
    r = np.arange(10000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = r // place % 10 + ord("0")
    lead = np.where(r >= place, digits, 0)
    table = np.concatenate([lead, digits, [[0, 0, 0, 48]]]).astype(np.uint8)
    # shared by every call: over bytes, so no array in its .base chain can be made writeable
    return np.frombuffer(table.tobytes(), np.uint32)


def _ascii_rows(columns, widths, seps) -> str:
    """The rows of equal-length nonnegative integer columns, each value as
    `%{width}d` followed by its separator.

    Digits go four at a time through _digit_groups into uint32 words; a
    blank inside the width becomes a space, and one outside it (where a
    shorter value shares a field with a longer one) a NUL.  NULs are removed
    at the end by bytes.translate, and only when a column can hold one.
    The top group is below 10^4 for every value, so it is read from the
    lead half undivided, and a lower group from the zero-padded half when
    the least value has a digit past it, and a 0 from its own entry.  The row
    bytes start as one template row repeated: NUL fields and the separators.
    Each word is stored in place through a strided uint32 view of them, and
    the bytes of a partial top group one strided column at a time.
    """
    import numpy as np
    groups = _digit_groups()
    sizes = [max(width, len(str(int(col.max())))) for col, width in zip(columns, widths)]
    template = b"".join(b"\0" * size + sep.encode() for size, sep in zip(sizes, seps))
    text = bytearray(template) * len(columns[0])
    rows = np.frombuffer(text, np.uint8).reshape(-1, len(template))
    end, nul = 0, False
    for col, width, size, sep in zip(columns, widths, sizes, seps):
        span, low, q = -(-size // 4), int(col.min()), col
        nul |= width < size and len(str(low)) < size
        words = np.empty((span, len(col)), np.uint32)
        for j in range(span):  # lowest group first
            if j < span - 1:
                r, q = q, q // 10000
                padded = low >= 10 ** (4 * j + 4)
                index = r - q * 10000 + (10000 if padded else (q > 0) * 10000)
            else:
                padded, index = False, q
            if j == 0 and low == 0:
                index = np.where(col == 0, 20000, index)
            np.take(groups, index, out=words[j])
            # digits have the space bit set, so OR turns only NUL into space
            spaces = bytes(32 * (4 * j + 3 - i < width) for i in range(4))
            if any(spaces) and not padded:
                words[j] |= np.frombuffer(spaces, np.uint32)
        end += size
        for j in range(size // 4):
            rows[:, end - 4 * j - 4:end - 4 * j].view(np.uint32)[:, 0] = words[j]
        top = words[-1].view(np.uint8).reshape(-1, 4)
        for i in range(size % 4):
            rows[:, end - size + i] = top[:, 4 - size % 4 + i]
        end += len(sep)
    return (text.translate(None, b"\0") if nul else text).decode()


def _write_rows(head: str, columns, widths, seps, cut: int = 0):
    """head, then the rows of the columns as _ascii_rows lays them out, _ROW_BLOCK rows at
    a time and without the last cut characters; a None column (never the last) is 1, 2, ..."""
    import numpy as np
    sys.stdout.write(head)
    for lo in range(0, n := len(columns[-1]), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        text = _ascii_rows([np.arange(lo + 1, hi + 1, dtype=np.int32) if col is None else
                            col[lo:hi] for col in columns], widths, seps)
        sys.stdout.write(text[:len(text) - cut] if hi == n else text)
        del text  # the next block is built with one block of text alive, not two


def _run_rank1(args: argparse.Namespace) -> int:
    from .arith import growth_series_rank1
    series = growth_series_rank1(args.n)
    if args.json:  # json.dumps(..., indent=2) layout: all of c, then all of C
        sep = ",\n    "
        _write_rows('{\n  "n": %d,\n  "c": [\n    ' % args.n, [series.c], [0], [sep], len(sep))
        _write_rows('\n  ],\n  "C": [\n    ', [series.C], [0], [sep], len(sep))
        sys.stdout.write("\n  ]\n}\n")
    elif args.csv:
        _write_rows("k,c_k,C_k\n", [None, series.c, series.C], [0, 0, 0], [",", ",", "\n"])
    else:
        width = len(str(int(series.C[-1])))
        _write_rows("", [None, series.c, series.C], [6, width, width], [" ", " ", "\n"])
    return EXIT_OK


def _run_ball(args: argparse.Namespace) -> int:
    from .commgraph import _ball_keys
    cyclic, d = args.family == "cyclic", args.dim
    if cyclic and d != 1:
        raise DomainError("cyclic subgroups live in dimension 1")
    # (a/b)Z and (b/a)Z lie at one index a*b from Z: cyclic rows (b, a) read as (a, b) are the ball
    keys = _ball_keys(args.n, d)
    # a `%d` template over q and the upper triangle, as str() or json.dumps(indent=2) lays
    # the member out: the entries below the diagonal are always 0
    hnf = [["%d" if r <= c else 0 for c in range(d)] for r in range(d)]
    if args.json:
        import json
        member = {"a": "%d", "b": "%d"} if cyclic else {"denom": "%d", "hnf": hnf}
        template, sep = json.dumps([member], indent=2)[2:-2].replace('"%d"', "%d"), ",\n"
    else:
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in hnf)
        template, sep = "%d/%d" if cyclic else f"(1/%d)<{rows}>", "\n"
    # split at each `%d`; the last separator runs on to the next head, trimmed after the last
    head, *seps = template.split("%d")
    seps[-1] += sep + head
    _write_rows("[\n" * args.json + head, keys.T, [0] * len(seps), seps, len(sep + head))
    sys.stdout.write("\n]\n" if args.json else "\n")
    return EXIT_OK


def _run_rootsys(args: argparse.Namespace) -> int:
    from .root_systems import root_system
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
    from .chevalley import ORACLE_FAMILIES, brute_force_order, order_zpk
    from .root_systems import root_system
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
    from .arith import _prime
    from .parahoric import _per_prime_lhs, check_cocharacter_bound, maximal_lattice_bound
    from .root_systems import root_system
    rs = root_system(args.type)
    report = check_cocharacter_bound(rs, args.k)
    payload = {
        "exact": _decimal(report.lhs),
        "box_bound": _decimal(report.context["rank_box_bound"]),
        "paper_bound": _decimal(report.rhs),
        "per_prime": None,
        "m_bound": None,
    }
    if args.p is not None:
        payload["per_prime"] = _decimal(_per_prime_lhs(rs, _prime(args.p), report.context["k"]))
    if args.m is not None:
        payload["m_bound"] = _decimal(maximal_lattice_bound(rs, args.m))
    _emit_fields(payload, args.json)
    return EXIT_OK if report.holds else EXIT_FAILED_CHECK


def _run_check(args: argparse.Namespace) -> int:
    from .commgraph import run_metric_checks
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
