"""Seeded job lists for the three workloads, with an output check per job.

A run is a fixed number of passes; pass i draws its jobs from
Random(f"{workload}/{seed}/{i}").  Every pass fills the same slots: a slot is
one kind of job in a narrow size band.  A slot's size comes from stratum
i % STRATA of its band (and a slot's type from a list it cycles through), so
every STRATA passes cover each band evenly and the cost of a run barely
depends on the seed, while the seed draws the exact inputs (sizes inside the
stratum, lattices, primes, types, seeds, formats, job order).

Slots sit in cost bands placed so that a run's median and p90 latency fall
inside a band of jobs of like cost, never on the step between two bands.

A check returns None when the output is right and a short reason otherwise.
Checks use only ``oracles``, never commgrowth.
"""

from __future__ import annotations

import ast
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

import oracles

EXIT_OK, EXIT_DOMAIN, EXIT_RESOURCE = 0, 2, 3
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass
class Job:
    """One request: a CLI argv or a library call, and what it must produce."""

    label: str
    kind: str
    expect: int
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    balls: tuple = ()   # (family, dim, n) of each ball the job asks for
    slot: str = ""      # place in the workload's ladder; see _finish


# ---------------------------------------------------------------------------
# input helpers


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int) -> int:
    while True:
        p = rng.randrange(10 ** (digits - 1), 10 ** digits)
        while not is_prime(p) and p < 10 ** digits:
            p += 1
        if p < 10 ** digits:
            return p


STRATA = 4


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def stratum(rng: random.Random, i: int, lo: float, hi: float) -> int:
    """A log-uniform size from slice i % STRATA of [lo, hi]."""
    s = i % STRATA
    return log_uniform(rng, lo * (hi / lo) ** (s / STRATA), lo * (hi / lo) ** ((s + 1) / STRATA))


def _finish(rng: random.Random, slots: dict) -> list[Job]:
    for slot, job in slots.items():
        job.slot = slot
    jobs = list(slots.values())
    rng.shuffle(jobs)
    return jobs


class _Unlimited:
    """Lift the int->str digit limit while a check formats a big expected
    value; the program under test always runs with the default limit."""

    def __enter__(self):
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.saved)


def _big_str(value: int) -> str:
    with _Unlimited():
        return str(value)


def _expect_empty(out) -> str | None:
    return None if out == "" else "refused request wrote to stdout"


def _cli(label_argv, kind, expect, check, balls=()):
    return Job("growth " + " ".join(label_argv), kind, expect,
               check if expect == EXIT_OK else _expect_empty,
               argv=list(label_argv), balls=balls)


# ---------------------------------------------------------------------------
# balls


def _parse_lattice(line: str):
    denom, rest = line[3:].split(")<", 1)
    rows = [[int(v) for v in r.split(",")] for r in rest[1:-2].split("],[")]
    return int(denom), rows


def _check_ball(family: str, dim: int, n: int, as_json: bool, rng_seed: int):
    want = oracles.ball_size(dim, n)

    def check(out):
        if as_json:
            items = json.loads(out)
            if family == "cyclic":
                members = [(d["a"], d["b"]) for d in items]
            else:
                members = [(d["denom"], d["hnf"]) for d in items]
        else:
            lines = out.splitlines()
            if family == "cyclic":
                members = [tuple(int(v) for v in s.split("/")) for s in lines]
            else:
                members = [_parse_lattice(s) for s in lines]
        if len(members) != want:
            return f"{len(members)} members, expected {want}"
        if family == "cyclic":
            keys = members
            for a, b in members:
                if math.gcd(a, b) != 1 or a * b > n:
                    return f"member {a}/{b} is not reduced or lies outside the ball"
        else:
            keys = [(q,) + tuple(v for r in rows for v in r) for q, rows in members]
            sample = random.Random(rng_seed).sample(members, min(25, len(members)))
            for q, rows in sample:
                if oracles.index_from_standard(q, rows) > n:
                    return f"member {q} {rows} lies outside the ball"
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "members are not sorted and distinct"
        return None

    return check


def ball_job(family, dim, n, as_json, rng_seed):
    argv = ["ball", "--family", family, "--n", str(n)]
    if family == "lattice":
        argv[3:3] = ["--dim", str(dim)]
    if as_json:
        argv.append("--json")
    return _cli(argv, "ball", EXIT_OK, _check_ball(family, dim, n, as_json, rng_seed),
                balls=((family, dim, n),))


def _random_pair(rng: random.Random, dim: int, c_max: int):
    """Lattices A = (1/q) rows and B = (1/(q s)) T rows, neither equal to
    Z^dim, with 2 <= c(A, B) <= c_max; T is a small integer matrix."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        t = [[rng.randint(-1, 1) + 2 * (i == j) for j in range(dim)] for i in range(dim)]
        if oracles.det(rows) == 0 or oracles.det(t) == 0:
            continue
        qa = rng.randint(1, 3)
        qb = qa * rng.randint(1, 2)
        rb = [[sum(t[i][s] * rows[s][j] for s in range(dim)) for j in range(dim)]
              for i in range(dim)]
        if min(oracles.index_from_standard(qa, rows),
               oracles.index_from_standard(qb, rb)) < 2:
            continue
        c = oracles.comm_index(qa, rows, qb, rb)
        if 2 <= c <= c_max:
            return (qa, rows), (qb, rb), c


def transfer_job(cg, dim, radius, rng, refused=False):
    """check_transfer_inequality(A, B, n): |ball(A, n)| <= |ball(B, c n)|."""
    if dim == 1:
        while True:
            a, b, a2, b2 = (rng.randint(1, 40) for _ in range(4))
            c = oracles.comm_index(b, [[a]], b2, [[a2]])
            if 2 <= c <= (10 ** 6 if refused else max(2, radius // 2)) \
                    and oracles.index_from_standard(b, [[a]]) > 1 \
                    and oracles.index_from_standard(b2, [[a2]]) > 1:
                break
        left, right = ("cyclic", a, b), ("cyclic", a2, b2)
    else:
        # c <= radius/4 keeps c*n, the radius of the larger ball, near `radius`
        (qa, ra), (qb, rb), c = _random_pair(rng, dim, max(2, radius // 4))
        left, right = ("lattice", qa, ra), ("lattice", qb, rb)
    n = max(1, radius // c)
    if refused:
        n = 1000 // c + 1 + rng.randint(0, 3)   # c*n > 1000, the ball guard

    def build(spec):
        if spec[0] == "cyclic":
            return cg.RationalCyclic(spec[1], spec[2])
        return cg.RationalLattice(dim, spec[1], tuple(tuple(r) for r in spec[2]))

    def call():
        return cg.check_transfer_inequality(build(left), build(right), n)

    def check(report):
        lhs, rhs = oracles.ball_size(dim, n), oracles.ball_size(dim, c * n)
        want = (lhs, rhs, True, c, lhs, rhs)
        got = (report.lhs, report.rhs, report.holds, report.context.get("c_ab"),
               report.context.get("left_card"), report.context.get("right_card"))
        return None if got == want else f"report {got}, expected {want}"

    family = "cyclic" if dim == 1 else "lattice"
    label = f"check_transfer_inequality({left}, {right}, n={n})"
    balls = ((family, dim, n),) if refused else ((family, dim, n), (family, dim, c * n))
    return Job(label, "transfer", EXIT_RESOURCE if refused else EXIT_OK,
               (lambda r: None) if refused else check, call=call, balls=balls)


def balls_pass(rng: random.Random, i: int, cg) -> dict:
    # 20 jobs: 7 small (under 15 ms), 7 in the median band (about 25 ms:
    # cyclic JSON balls at n 850-1000, dim 2 at n 10-11, dim 3 at n 4-5, the
    # dim-3 transfer), 3 between 70 and 200 ms, and 3 dim-2 balls at n 28-31
    # (about 300 ms) on top, so p50 falls at 40 % of the median band and p90
    # at a third of the top band.
    bits = rng.getrandbits
    slots = {
        "cyclic/small0": ball_job("cyclic", 1, stratum(rng, i, 20, 100), False, bits(32)),
        "cyclic/small1": ball_job("cyclic", 1, stratum(rng, i, 100, 300), True, bits(32)),
        "cyclic/small2": ball_job("cyclic", 1, stratum(rng, i, 300, 1000), False, bits(32)),
        "lattice2/small": ball_job("lattice", 2, 4 + i % 4, i % 2 == 0, bits(32)),
        "lattice3/small": ball_job("lattice", 3, 2 + i % 2, i % 2 == 1, bits(32)),
        "transfer/1": transfer_job(cg, 1, stratum(rng, i, 100, 900), rng),
    }
    for s in range(2):
        slots[f"cyclic/mid{s}"] = ball_job("cyclic", 1, stratum(rng, i + 2 * s, 850, 1000),
                                           True, bits(32))
        slots[f"lattice2/mid{s}"] = ball_job("lattice", 2, 10 + s, (i + s) % 2 == 0, bits(32))
        slots[f"lattice3/mid{s}"] = ball_job("lattice", 3, 4 + s, (i + s) % 2 == 1, bits(32))
    slots["transfer/3"] = transfer_job(cg, 3, 4 + i % 2, rng)
    slots["lattice2/upper"] = ball_job("lattice", 2, 16 + i % 4, i % 2 == 1, bits(32))
    slots["lattice3/upper"] = ball_job("lattice", 3, 6 + i % 2, i % 2 == 0, bits(32))
    slots["transfer/2"] = transfer_job(cg, 2, 20 + i % 4, rng)
    for s in range(3):
        slots[f"lattice2/top{s}"] = ball_job("lattice", 2, 28 + (i + s) % 4, (i + s) % 2 == 0,
                                             bits(32))
    # requests the guards or the domain checks must refuse
    which = i % 5
    if which == 0:
        job = _cli(["ball", "--family", "cyclic", "--n", str(rng.randint(1001, 5000))],
                   "ball", EXIT_RESOURCE, None)
    elif which == 1:
        job = _cli(["ball", "--family", "lattice", "--dim", str(rng.randint(4, 6)),
                    "--n", "2"], "ball", EXIT_RESOURCE, None)
    elif which == 2:
        job = _cli(["ball", "--family", "cyclic", "--dim", str(rng.randint(2, 3)),
                    "--n", "5"], "ball", EXIT_DOMAIN, None)
    elif which == 3:
        job = transfer_job(cg, 1, 0, rng, refused=True)
    else:
        job = _cli(["ball", "--family", "lattice", "--dim", "2", "--n",
                    str(-rng.randint(0, 5))], "ball", EXIT_DOMAIN, None)
    slots["refused"] = job
    return slots


# ---------------------------------------------------------------------------
# series

_SERIES_TOP = 10 ** 6


@lru_cache(maxsize=1)
def series_oracle() -> tuple[np.ndarray, np.ndarray]:
    """c_k = 2**omega(k) and C_k for k <= 10^6 from the plain sieve (index 0
    holds 0), built once per process."""
    c = np.left_shift(np.int64(1), oracles.omega_upto(_SERIES_TOP)).astype(np.int32)
    c[0] = 0
    return c, np.cumsum(c, dtype=np.int64)


def _check_rank1(n: int, fmt: str):
    def check(out):
        c, C = (a[1:n + 1] for a in series_oracle())
        if fmt == "json":
            payload = json.loads(out)
            if payload.get("n") != n:
                return "wrong n field"
            if not (np.array_equal(np.asarray(payload["c"], dtype=np.int64), c)
                    and np.array_equal(np.asarray(payload["C"], dtype=np.int64), C)):
                return "series values differ from the sieve"
            return None
        if fmt == "csv":
            head = "k,c_k,C_k\n"
            if not out.startswith(head):
                return "missing CSV header"
            body = out[len(head):]
            if body.count("\n") != n or body.count(",") != 2 * n or " " in body:
                return "CSV rows are not k,c_k,C_k lines"
            body = body.replace(",", " ")
        else:
            width = len(str(int(C[-1])))
            # fixed-width rows "{k:>6} {c:>w} {C:>w}"; k = 10^6 takes a 7th column
            if len(out) != n * (2 * width + 9) + (n >= 10 ** 6) or out.count("\n") != n:
                return "text rows do not have the fixed width"
            body = out
        values = np.fromstring(body, dtype=np.int64, sep=" ")
        if values.size != 3 * n:
            return "rows do not parse as integers"
        rows = values.reshape(n, 3)
        if not (np.array_equal(rows[:, 0], np.arange(1, n + 1))
                and np.array_equal(rows[:, 1], c) and np.array_equal(rows[:, 2], C)):
            return "series values differ from the sieve"
        return None

    return check


def rank1_job(n: int, fmt: str) -> Job:
    argv = ["rank1", "--n", str(n)] + ([] if fmt == "text" else [f"--{fmt}"])
    return _cli(argv, "rank1", EXIT_OK, _check_rank1(n, fmt))


def sandwich_job(arith, n: int, n_min: int) -> Job:
    def check(report):
        C = series_oracle()[1][1:n + 1].astype(np.float64)
        ks = np.arange(n_min, n + 1, dtype=np.float64)
        cs = C[n_min - 1:]
        logs = np.log(ks)
        upper = float((cs / (ks * logs)).max())
        lower = float((cs / (ks * logs ** math.log(2))).min())
        ctx = report.context
        if (report.lhs, report.rhs, report.holds) != (0, 0, True):
            return f"chain verdict {report.lhs} <= {report.rhs}, expected 0 <= 0"
        if (ctx.get("n_min"), ctx.get("upto")) != (n_min, n):
            return "context n_min/upto wrong"
        if not (math.isclose(ctx["upper_ratio_max"], upper, rel_tol=1e-12)
                and math.isclose(ctx["lower_ratio_min"], lower, rel_tol=1e-12)):
            return "envelope ratios differ"
        return None

    return Job(f"check_sandwich_bounds(growth_series_rank1({n}), {n_min})", "sandwich",
               EXIT_OK, check,
               call=lambda: arith.check_sandwich_bounds(arith.growth_series_rank1(n), n_min))


def dirichlet_job(arith, n: int) -> Job:
    def check(value):
        want = oracles.dirichlet_residual(n)
        return None if abs(value - want) <= 1e-6 * (1 + abs(want)) else \
            f"residual {value}, expected {want}"

    return Job(f"dirichlet_residual({n})", "dirichlet", EXIT_OK, check,
               call=lambda: arith.dirichlet_residual(n))


def series_pass(rng: random.Random, i: int, arith) -> dict:
    # 15 jobs: 5 small library checks, 5 rank1 jobs of about 90 ms in the
    # median band, the 2 large library checks at about 150 ms, and 3 rank1
    # jobs of about 650 ms on top, n per format set so that the costs within
    # a band match.  p50 falls in the middle of the median band and p90 in
    # the middle of the top band, both on rank1 jobs: the numpy-bound library
    # checks slow down far more than the rest when the host is busy.  The
    # top of the csv band, n = 10^6, sets peak_rss_mb; every STRATA passes
    # reach it.
    slots = {}
    for fmt, lo, hi in (("text", 3.8e5, 4.6e5), ("json", 5.2e5, 6.4e5),
                        ("csv", 8.2e5, 1e6)):
        slots[f"rank1/{fmt}"] = rank1_job(stratum(rng, i, lo, hi), fmt)
    mid = (("csv", 1.7e5, 2e5), ("json", 1e5, 1.1e5))
    for s in range(5):
        fmt, lo, hi = mid[s % 2]
        slots[f"rank1/mid{s}"] = rank1_job(stratum(rng, i + s, lo, hi), fmt)
    slots["dirichlet/large"] = dirichlet_job(arith, stratum(rng, i, 1.1e5, 1.3e5))
    n = stratum(rng, i, 0.9e5, 1.1e5)
    slots["sandwich/large"] = sandwich_job(arith, n, rng.randint(3, 100))
    for name, lo, hi in (("small0", 1e2, 1e3), ("small1", 1e3, 1e4)):
        n = stratum(rng, i, lo, hi)
        slots[f"sandwich/{name}"] = sandwich_job(arith, n, rng.randint(3, min(n, 100)))
        slots[f"dirichlet/{name}"] = dirichlet_job(arith, stratum(rng, i, lo, hi))
    bad = [["rank1", "--n", str(-rng.randint(0, 9))],
           ["rank1", "--n", str(rng.randint(1, 99)), "--csv", "--json"]][i % 2]
    slots["refused"] = _cli(bad, "rank1", EXIT_DOMAIN, None)
    return slots


# ---------------------------------------------------------------------------
# checks


def _check_metric(samples: int, seed: int):
    names = ("metric_symmetry", "metric_identity", "metric_triangle",
             "geodesic_length", "chain_length")
    want = "".join(f"PASS {name}: 0 <= 0 [family={fam} samples={samples} seed={seed}]\n"
                   for fam in ("cyclic", "lattice2") for name in names)
    return lambda out: None if out == want else "metric report differs"


def _check_order(label, p, k, fmt, brute):
    def check(out):
        value = oracles.order_zpk(label, p, k)
        if fmt == "json":
            want = {"label": label, "p": p, "k": k, "order": _big_str(value)}
            if brute:
                want["brute_force"] = want["order"]
            return None if json.loads(out) == want else "order JSON differs"
        text = _big_str(value)
        if brute:
            text = f"{text} (enumeration: {text})"
        return None if out == text + "\n" else "order differs"

    return check


def order_job(label, p, k, fmt, brute=False, expect=EXIT_OK):
    argv = ["order", "--type", label, "--p", str(p), "--k", str(k)]
    if brute:
        argv.append("--brute-force")
    if fmt == "json":
        argv.append("--json")
    return _cli(argv, "brute" if brute else "order", expect,
                _check_order(label, p, k, fmt, brute))


def _check_parahoric(label, k, p, m, fmt):
    def check(out):
        _, _, dim = oracles.type_data(label)
        rank = len(oracles.degrees(label))
        want = {
            "exact": str(oracles.admissible_count(label, k + 1)),
            "box_bound": str((2 * k + 3) ** rank),
            "paper_bound": _big_str((2 * k + 3) ** dim),
            "per_prime": None if p is None else
            ("1" if k == 0 else _big_str((dim + 1) * p ** ((3 + dim) * k))),
            "m_bound": None if m is None else _big_str(m ** (3 + 2 * dim)),
        }
        if fmt == "json":
            return None if json.loads(out) == want else "parahoric JSON differs"
        text = "".join(f"{key}: {v}\n" for key, v in want.items() if v is not None)
        return None if out == text else "parahoric report differs"

    return check


def parahoric_job(label, k, p, m, fmt, expect=EXIT_OK):
    argv = ["parahoric", "--type", label, "--k", str(k)]
    if p is not None:
        argv += ["--p", str(p)]
    if m is not None:
        argv += ["--m", str(m)]
    if fmt == "json":
        argv.append("--json")
    return _cli(argv, "parahoric", expect, _check_parahoric(label, k, p, m, fmt))


def _check_rootsys(label, fmt):
    def check(out):
        rank, n_pos, dim = oracles.type_data(label)
        want = {"label": label, "rank": rank, "N": n_pos, "d": dim,
                "degrees": list(oracles.degrees(label)),
                "positive_roots": [list(r) for r in oracles.positive_roots(label)]}
        if fmt == "json":
            got = json.loads(out)
        else:
            got = {}
            for line in out.splitlines():
                key, value = line.split(": ", 1)
                got[key] = value if key == "label" else ast.literal_eval(value)
        return None if got == want else "root system data differs"

    return check


def rootsys_job(label, fmt):
    argv = ["rootsys", "--type", label] + (["--json"] if fmt == "json" else [])
    return _cli(argv, "rootsys", EXIT_OK, _check_rootsys(label, fmt))


# int -> str refuses values of more than 4300 digits (CPython's default limit)
_PRINT_LIMIT = 10 ** 4300
_HEAVY_BRUTE = (("A1", 2, 4), ("A2", 3, 1), ("C2", 2, 1), ("B2", 2, 1))  # m = p**k
_RANK2 = ("A2", "B2", "C2", "G2")
_RANK34 = ("A3", "A4", "B3", "B4", "C3", "C4", "D4", "F4")


def _order_draw(rng, digits, past_limit=False):
    """(type, p, k) with a `digits`-digit prime p whose order over Z/p^k is
    past the print limit, or within it."""
    while True:
        label, p, k = rng.choice(oracles.LABELS), random_prime(rng, digits), rng.randint(1, 4)
        if (oracles.order_zpk(label, p, k) >= _PRINT_LIMIT) == past_limit:
            return label, p, k


def _box_k(label, box):
    """The level k whose cocharacter box, (2k+3)^rank points, is about `box`."""
    rank = len(oracles.degrees(label))
    return min(99, max(0, (math.floor(box ** (1 / rank)) - 3) // 2))


def _parahoric_draw(rng, label, k, past_limit=False):
    """parahoric arguments; --p, when given, keeps the per-prime bound within
    the print limit or takes it past it."""
    dim = oracles.type_data(label)[2]
    m = rng.randint(2, 10 ** 6) if rng.random() < 0.5 else None
    if not past_limit and rng.random() < 0.5:
        return label, k, None, m
    while True:
        p = random_prime(rng, rng.randint(1, 9))
        if ((dim + 1) * p ** ((3 + dim) * k) >= _PRINT_LIMIT) == past_limit:
            return label, k, p, m


def checks_pass(rng: random.Random, i: int) -> dict:
    # 31 jobs: 11 small (under 5 ms: orders at primes of 1-10 digits, the
    # past-limit order, rootsys, a rank-1 parahoric, a refusal), 10 point
    # queries of about 10 ms in the median band (metric suites of 5-6
    # samples, box scans of rank 2-4 types, an 11-digit order, an A1 scan),
    # 4 between 25 and 70 ms, and 6 on top (metric suites of 60 samples,
    # heavy matrix scans, 13- and 14-digit orders).  p50 and p90 fall near
    # the middle of the median and the top band.  Each pass holds exactly
    # two requests whose output is past the print limit: an order and a
    # rank-2 parahoric --p.
    fmt = lambda: rng.choice(("text", "json"))   # noqa: E731
    slots = {}
    slots["order/1-2"] = order_job(*_order_draw(rng, 1 + i % 2), fmt())
    for digits in range(3, 7):
        slots[f"order/{digits}"] = order_job(*_order_draw(rng, digits), fmt())
    slots["order/7-10"] = order_job(*_order_draw(rng, 7 + i % 4), fmt())
    slots["order/past-limit"] = order_job(*_order_draw(rng, rng.randint(5, 9), True), fmt())
    composite = random_prime(rng, rng.randint(1, 5)) * random_prime(rng, rng.randint(1, 5))
    slots["order/composite"] = order_job(rng.choice(oracles.LABELS), composite, 1, fmt(),
                                         expect=EXIT_DOMAIN)
    slots["rootsys"] = rootsys_job(rng.choice(oracles.LABELS), fmt())
    slots["parahoric/rank1"] = parahoric_job(*_parahoric_draw(rng, "A1", rng.randint(0, 99)),
                                             fmt())

    def metric(samples):
        suite_seed = rng.randrange(10 ** 6)
        return _cli(["check", "metric", "--samples", str(samples), "--seed", str(suite_seed)],
                    "metric", EXIT_OK, _check_metric(samples, suite_seed))

    for s in range(3):
        slots[f"metric/mid{s}"] = metric(5 + (i + s) % 2)
    for s in range(4):
        label = _RANK34[(4 * i + s) % 8]
        slots[f"parahoric/mid{s}"] = parahoric_job(
            *_parahoric_draw(rng, label, _box_k(label, 30_000)), fmt())
    label = _RANK2[i % 4]
    slots["parahoric/rank2"] = parahoric_job(
        *_parahoric_draw(rng, label, _box_k(label, 100_000), True), fmt())
    slots["order/11"] = order_job(*_order_draw(rng, 11), fmt())
    slots["brute/mid"] = order_job("A1", *((7, 1), (2, 3))[i % 2], fmt(), brute=True)
    slots["order/12"] = order_job(*_order_draw(rng, 12), fmt())
    slots["brute/upper"] = order_job("A1", *((3, 2), (11, 1))[i % 2], fmt(), brute=True)
    # the largest scan, F4 at 83521 box points, sets peak_rss_mb
    slots["parahoric/upper"] = parahoric_job(
        *_parahoric_draw(rng, "F4", _box_k("F4", 100_000)), fmt())
    slots["metric/upper"] = metric(20)
    for s in range(2):
        slots[f"metric/top{s}"] = metric(60)
    slots["brute/top"] = order_job("A1", 13, 1, fmt(), brute=True)
    label, p, k = _HEAVY_BRUTE[i % 4]
    slots["brute/heavy"] = order_job(label, p, k, fmt(), brute=True)
    slots["order/13"] = order_job(*_order_draw(rng, 13), fmt())
    # 14 digits: the baseline's is_prime(10^14 + 31)
    slots["order/14"] = order_job(*_order_draw(rng, 14), fmt())
    which = i % 5
    if which == 0:
        job = order_job("A1", random_prime(rng, 3), 1, fmt(), brute=True,
                        expect=EXIT_RESOURCE)
    elif which == 1:
        job = order_job("A2", rng.choice((11, 13, 17)), 1, fmt(), brute=True,
                        expect=EXIT_RESOURCE)
    elif which == 2:
        job = order_job(rng.choice(("B2", "C2")), rng.choice((5, 7)), 1, fmt(),
                        brute=True, expect=EXIT_RESOURCE)
    elif which == 3:
        job = parahoric_job(rng.choice(oracles.SMALL_RANK_LABELS), rng.randint(100, 400),
                            None, None, fmt(), expect=EXIT_RESOURCE)
    else:
        job = order_job(rng.choice(("G2", "D4", "A3")), 5, 1, fmt(), brute=True,
                        expect=EXIT_DOMAIN)
    slots["refused"] = job
    return slots


def make_pass(workload: str, seed: int, i: int, modules) -> list[Job]:
    rng = random.Random(f"{workload}/{seed}/{i}")
    if workload == "balls":
        slots = balls_pass(rng, i, modules.commgraph)
    elif workload == "series":
        slots = series_pass(rng, i, modules.arith)
    else:
        slots = checks_pass(rng, i)
    return _finish(rng, slots)


WORKLOADS = ("balls", "series", "checks")
