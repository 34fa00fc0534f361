"""Commensurability growth invariants over concrete subgroup families.

The package computes exact growth series for cyclic subgroups of the
rationals, realizes the commensurability graph as a metric space over
Hermite-normal-form lattices, the cyclic subgroups being those of rank 1,
builds root systems for every simple type, evaluates Chevalley group
orders over finite rings, and checks the admissible-cocharacter and
maximal-lattice counting bounds -- each closed form paired with an
independent brute-force oracle at desk scale.
"""

import importlib

__version__ = "0.1.0"

# public names by module, in the order of __all__; a module is imported on first
# access to it or to one of its names (PEP 562), so a process loads only what it uses
_EXPORTS = {
    "arith": ("EULER_MASCHERONI", "Factorization", "GrowthSeries", "check_sandwich_bounds",
              "cn_rank1", "dirichlet_residual", "divisor_count", "divisor_count_sieve",
              "divisors", "factorize", "growth_series_rank1", "is_prime", "omega",
              "omega_sieve", "omega_sum_ratio", "prime_sieve", "sum_divisor_count",
              "sum_omega"),
    "chevalley": ("ORACLE_FAMILIES", "brute_force_order", "check_order_bound", "order_fp",
                  "order_zm", "order_zpk"),
    "commgraph": ("CommIndex", "GeodesicPath", "RationalCyclic", "RationalLattice",
                  "chain_length", "check_transfer_inequality", "comm_index", "distance",
                  "enumerate_ball", "geodesic", "index_in", "intersect", "run_metric_checks"),
    "errors": ("DomainError", "ResourceLimitError"),
    "parahoric": ("CocharacterCount", "check_cocharacter_bound", "check_two_k_plus_three",
                  "count_admissible_cocharacters", "maximal_lattice_bound", "per_prime_bound",
                  "upper_bound_profile"),
    "reporting": ("BoundReport", "compare"),
    "root_systems": ("RootSystem", "root_system", "supported_labels"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """A module of the package, or a public name of one, imported on first access."""
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
