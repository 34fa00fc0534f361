"""Spans around every public function of the six commgrowth layers.

The tracer is installed from outside the package: it rebinds each public
function at its defining module and at every module that holds its own
name for it (``cli.enumerate_ball``, ``chevalley.is_prime``, the package
namespace), so calls between layers are seen too.  Spans stay in memory as
(id, parent, name, start, end, job) tuples until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "arith", "commgraph", "root_systems", "chevalley", "parahoric")
SIEVES = frozenset({"arith.prime_sieve", "arith.omega_sieve", "arith.divisor_count_sieve"})
_MATRIX_SIZE = {"SL2": 2, "SL3": 3, "Sp4": 4}

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "commgraph.enumerate_ball.calls": ("count", "lower"),
    "commgraph.enumerate_ball.s": ("s", "lower"),
    "commgraph.enumerate_ball.members": ("count", "lower"),
    "commgraph.members_per_s": ("1/s", "higher"),
    "commgraph.check_transfer_inequality.self_s": ("s", "lower"),
    "commgraph.comm_index.calls": ("count", "lower"),
    "commgraph.comm_index.s": ("s", "lower"),
    "commgraph.intersect.calls": ("count", "lower"),
    "commgraph.run_metric_checks.s": ("s", "lower"),
    "commgraph.lattices_built": ("count", "lower"),
    "arith.sieve.calls": ("count", "lower"),
    "arith.sieve.s": ("s", "lower"),
    "arith.sieve.elements": ("count", "lower"),
    "arith.growth_series_rank1.s": ("s", "lower"),
    "arith.check_sandwich_bounds.self_s": ("s", "lower"),
    "arith.dirichlet_residual.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_mb": ("MB", "lower"),
    "arith.is_prime.calls": ("count", "lower"),
    "arith.is_prime.s": ("s", "lower"),
    "arith.factorize.calls": ("count", "lower"),
    "arith.factorize.s": ("s", "lower"),
    "arith.divisors.calls": ("count", "lower"),
    "arith.divisors.s": ("s", "lower"),
    "chevalley.brute_force_order.calls": ("count", "lower"),
    "chevalley.brute_force_order.s": ("s", "lower"),
    "chevalley.candidates": ("count", "lower"),
    "chevalley.candidates_per_s": ("1/s", "higher"),
    "chevalley.hit_ratio": ("ratio", "higher"),
    "chevalley.order_zpk.s": ("s", "lower"),
    "parahoric.count_admissible_cocharacters.calls": ("count", "lower"),
    "parahoric.count_admissible_cocharacters.s": ("s", "lower"),
    "parahoric.box_points": ("count", "lower"),
    "parahoric.box_points_per_s": ("1/s", "higher"),
    "parahoric.admissible_ratio": ("ratio", "higher"),
    "parahoric.scans_per_job": ("count", "lower"),
    "parahoric.maximal_lattice_bound.s": ("s", "lower"),
    "root_systems.root_system.calls": ("count", "lower"),
    "root_systems.root_system.s": ("s", "lower"),
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1                 # index of the job being run
        self.errors = Counter()       # layer -> exceptions leaving its public calls
        self.work = Counter()         # work counts taken from arguments and results
        self.scans_by_job = Counter()
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                layer = home.rpartition(".")[2]
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj) \
                        or home != f"{package.__name__}.{layer}" or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", layer, obj)
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        lattice = package.commgraph.RationalLattice
        post_init = lattice.__post_init__
        work = self.work

        def counted(obj):
            work["commgraph.lattices_built"] += 1
            return post_init(obj)

        self._undo.append((lattice, "__post_init__", post_init))
        lattice.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, ids, errors = self.spans, self._stack, self._ids, self.errors
        hook = self._hook(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][1] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, tracer.job))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hook(self, name: str, fn):
        """Work counter for the calls whose arguments and result say how much
        work was done; None for the rest."""
        work, scans = self.work, self.scans_by_job
        if name not in SIEVES and name not in ("commgraph.enumerate_ball",
                                               "chevalley.brute_force_order",
                                               "parahoric.count_admissible_cocharacters"):
            return None
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            if name in SIEVES:
                work["arith.sieve.elements"] += bound["limit"] + 1
            elif name == "commgraph.enumerate_ball":
                work["commgraph.enumerate_ball.members"] += len(result)
            elif name == "chevalley.brute_force_order":
                size = _MATRIX_SIZE[bound["family"]]
                work["chevalley.candidates"] += bound["m"] ** (size * size)
                work["chevalley.hits"] += result
            elif result.exact is not None:   # a cocharacter box was scanned
                rs, c = bound["rs"], bound["c"]
                work["parahoric.box_points"] += (2 * c + 1) ** rs.rank
                work["parahoric.admissible"] += result.exact
                scans[self.job] += 1

        return hook

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, passes: int, parahoric_jobs, stdout_chars: int,
                overhead: float) -> dict[str, float]:
        """Per-layer metrics, counts and times per pass (one job list)."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child = defaultdict(float)
        for sid, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        sieve_s = 0.0
        for sid, parent, name, start, end, _ in spans:
            duration = end - start
            calls[name] += 1
            own[name] += duration - child[sid]
            layer_self[name.partition(".")[0]] += duration - child[sid]
            outer, outer_sieve = True, name in SIEVES
            while parent >= 0:
                ancestor = by_id[parent]
                outer = outer and ancestor[2] != name
                outer_sieve = outer_sieve and ancestor[2] not in SIEVES
                parent = ancestor[1]
            if outer:
                total[name] += duration
            if outer_sieve:
                sieve_s += duration

        work = self.work
        scanned = [self.scans_by_job[j] for j in parahoric_jobs if self.scans_by_job[j]]

        def ratio(a, b):
            return a / b if b else 0.0

        raw = {
            "commgraph.enumerate_ball.calls": calls["commgraph.enumerate_ball"],
            "commgraph.enumerate_ball.s": total["commgraph.enumerate_ball"],
            "commgraph.enumerate_ball.members": work["commgraph.enumerate_ball.members"],
            "commgraph.check_transfer_inequality.self_s":
                own["commgraph.check_transfer_inequality"],
            "commgraph.comm_index.calls": calls["commgraph.comm_index"],
            "commgraph.comm_index.s": total["commgraph.comm_index"],
            "commgraph.intersect.calls": calls["commgraph.intersect"],
            "commgraph.run_metric_checks.s": total["commgraph.run_metric_checks"],
            "commgraph.lattices_built": work["commgraph.lattices_built"],
            "arith.sieve.calls": sum(calls[s] for s in SIEVES),
            "arith.sieve.s": sieve_s,
            "arith.sieve.elements": work["arith.sieve.elements"],
            "arith.growth_series_rank1.s": total["arith.growth_series_rank1"],
            "arith.check_sandwich_bounds.self_s": own["arith.check_sandwich_bounds"],
            "arith.dirichlet_residual.self_s": own["arith.dirichlet_residual"],
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": layer_self["cli"],
            "cli.stdout_mb": stdout_chars / 1e6,
            "arith.is_prime.calls": calls["arith.is_prime"],
            "arith.is_prime.s": total["arith.is_prime"],
            "arith.factorize.calls": calls["arith.factorize"],
            "arith.factorize.s": total["arith.factorize"],
            "arith.divisors.calls": calls["arith.divisors"],
            "arith.divisors.s": total["arith.divisors"],
            "chevalley.brute_force_order.calls": calls["chevalley.brute_force_order"],
            "chevalley.brute_force_order.s": total["chevalley.brute_force_order"],
            "chevalley.candidates": work["chevalley.candidates"],
            "chevalley.order_zpk.s": total["chevalley.order_zpk"],
            "parahoric.count_admissible_cocharacters.calls":
                calls["parahoric.count_admissible_cocharacters"],
            "parahoric.count_admissible_cocharacters.s":
                total["parahoric.count_admissible_cocharacters"],
            "parahoric.box_points": work["parahoric.box_points"],
            "parahoric.maximal_lattice_bound.s": total["parahoric.maximal_lattice_bound"],
            "root_systems.root_system.calls": calls["root_systems.root_system"],
            "root_systems.root_system.s": total["root_systems.root_system"],
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
        }
        out = {name: value / passes for name, value in raw.items()}
        out.update({
            "commgraph.members_per_s": ratio(work["commgraph.enumerate_ball.members"],
                                             total["commgraph.enumerate_ball"]),
            "chevalley.candidates_per_s": ratio(work["chevalley.candidates"],
                                                total["chevalley.brute_force_order"]),
            "chevalley.hit_ratio": ratio(work["chevalley.hits"], work["chevalley.candidates"]),
            "parahoric.box_points_per_s": ratio(
                work["parahoric.box_points"], total["parahoric.count_admissible_cocharacters"]),
            "parahoric.admissible_ratio": ratio(work["parahoric.admissible"],
                                                work["parahoric.box_points"]),
            "parahoric.scans_per_job": ratio(sum(scanned), len(scanned)),
            "trace.overhead": overhead,
        })
        return {name: out[name] for name in PER_LAYER}
