import dataclasses

import numpy as np
import pytest

from commgrowth import arith, chevalley, parahoric
from commgrowth.commgraph import (RationalCyclic, RationalLattice, check_transfer_inequality,
                                  enumerate_ball, run_metric_checks)
from commgrowth.errors import DomainError, _shown
from commgrowth.root_systems import root_system, supported_labels

A1, A2, F4 = root_system("A1"), root_system("A2"), root_system("F4")
Z, Z2, UNIT = RationalCyclic(1, 1), RationalLattice.standard(2), ((1, 0), (0, 1))
SERIES = arith.growth_series_rank1(30)


def test_up_to_18_digits_in_full():
    for value in (0, 7, -7, 10 ** 18 - 1, -(10 ** 18 - 1)):
        assert _shown(value) == str(value)


def test_past_18_digits_by_size_with_sign():
    assert _shown(10 ** 18) == "about 10^18"
    assert _shown(-10 ** 18) == "about -10^18"
    assert _shown(10 ** 400) == "about 10^400"
    assert _shown(-10 ** 400) == "about -10^400"
    assert _shown(-10 ** 5000) == "about -10^5000"


def test_other_values_in_full():
    assert _shown(2.5) == "2.5"
    assert _shown("x") == "x"
    assert _shown(None) == "None"


# one row per integer argument of a public function: the call with the
# argument v, a valid int, and the name a refusal gives the argument
INTEGER_ARGUMENTS = [
    ("is_prime", lambda v: arith.is_prime(v), 7, "n"),
    ("factorize", lambda v: arith.factorize(v), 12, "n"),
    ("divisors", lambda v: arith.divisors(v), 12, "n"),
    ("omega", lambda v: arith.omega(v), 12, "n"),
    ("divisor_count", lambda v: arith.divisor_count(v), 12, "n"),
    ("cn_rank1", lambda v: arith.cn_rank1(v), 12, "n"),
    ("prime_sieve", lambda v: arith.prime_sieve(v), 30, "limit"),
    ("omega_sieve", lambda v: arith.omega_sieve(v), 30, "limit"),
    ("divisor_count_sieve", lambda v: arith.divisor_count_sieve(v), 30, "limit"),
    ("growth_series_rank1", lambda v: arith.growth_series_rank1(v), 12, "series length"),
    ("sum_omega", lambda v: arith.sum_omega(v), 100, "n"),
    ("sum_divisor_count", lambda v: arith.sum_divisor_count(v), 100, "n"),
    ("omega_sum_ratio", lambda v: arith.omega_sum_ratio(v), 100, "n"),
    ("dirichlet_residual", lambda v: arith.dirichlet_residual(v), 10, "n"),
    ("check_sandwich_bounds", lambda v: arith.check_sandwich_bounds(SERIES, v), 5, "n_min"),
    ("order_fp", lambda v: chevalley.order_fp(F4, v), 5, "p"),
    ("order_zpk-p", lambda v: chevalley.order_zpk(F4, v, 2), 5, "p"),
    ("order_zpk-k", lambda v: chevalley.order_zpk(F4, 5, v), 2, "k"),
    ("order_zm", lambda v: chevalley.order_zm(A1, v), 12, "m"),
    ("brute_force_order", lambda v: chevalley.brute_force_order("SL2", v), 3, "modulus"),
    ("check_order_bound", lambda v: chevalley.check_order_bound(F4, v), 5, "p"),
    ("count_admissible_cocharacters",
     lambda v: parahoric.count_admissible_cocharacters(A2, v), 2, "cutoff"),
    ("check_cocharacter_bound", lambda v: parahoric.check_cocharacter_bound(F4, v), 1, "k"),
    ("check_two_k_plus_three-p", lambda v: parahoric.check_two_k_plus_three(v, 30), 5, "p"),
    ("check_two_k_plus_three-k", lambda v: parahoric.check_two_k_plus_three(5, v), 2, "k"),
    ("per_prime_bound-p", lambda v: parahoric.per_prime_bound(F4, v, 1), 5, "p"),
    ("per_prime_bound-k", lambda v: parahoric.per_prime_bound(F4, 5, v), 1, "k"),
    ("maximal_lattice_bound", lambda v: parahoric.maximal_lattice_bound(F4, v), 6, "m"),
    ("upper_bound_profile",
     lambda v: parahoric.upper_bound_profile(A1, v, range(1, 100)), 3, "n"),
    ("enumerate_ball-cyclic", lambda v: enumerate_ball(Z, v), 6, "ball radius"),
    ("enumerate_ball-lattice", lambda v: enumerate_ball(Z2, v), 4, "ball radius"),
    ("check_transfer_inequality",
     lambda v: check_transfer_inequality(Z, RationalCyclic(2, 3), v), 3, "ball radius"),
    ("run_metric_checks-samples", lambda v: run_metric_checks(v), 2, "samples"),
    ("run_metric_checks-seed", lambda v: run_metric_checks(2, v), 7, "seed"),
    ("supported_labels", lambda v: supported_labels(v), 4, "max_rank"),
    ("RationalCyclic-a", lambda v: RationalCyclic(v, 4), 6, "a"),
    ("RationalCyclic-b", lambda v: RationalCyclic(4, v), 6, "b"),
    ("RationalLattice-dim", lambda v: RationalLattice(v, 1, UNIT), 2, "dim"),
    ("RationalLattice-denom", lambda v: RationalLattice(2, v, UNIT), 4, "denom"),
    ("RationalLattice-entry", lambda v: RationalLattice(2, 1, ((v, 3), (0, 5))), 2,
     "basis entry"),
    ("from_rows", lambda v: RationalLattice.from_rows([[2, 0], [0, 4]], v), 6, "denom"),
    ("standard", lambda v: RationalLattice.standard(v), 3, "dim"),
    ("scaled-dim", lambda v: RationalLattice.scaled(v, 2, 3), 2, "dim"),
    ("scaled-num", lambda v: RationalLattice.scaled(2, v, 3), 6, "basis entry"),
]


def typed(value):
    """value with the type of each of its parts beside it, so that an equal
    value built from other types compares unequal."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value), typed(vars(value))
    if isinstance(value, dict):
        return dict, {key: typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value, name",
                         [pytest.param(*row[1:], id=row[0]) for row in INTEGER_ARGUMENTS])
def test_integer_arguments_go_through_one_check(call, value, name):
    # a numpy integer is the same argument as the int, converted before any
    # arithmetic (an int64 p**k would wrap); anything else is refused
    assert typed(call(np.int64(value))) == typed(call(value))
    with pytest.raises(DomainError) as caught:
        call(2.5)
    assert str(caught.value) == f"{name} must be an integer, got 2.5"


def test_integral_floats_are_refused():
    # 12.0 equals an int, but a float result would follow from it
    for call, value in ((lambda v: chevalley.order_zm(A1, v), 12.0),
                        (lambda v: arith.divisors(v), 12.0),
                        (lambda v: arith.dirichlet_residual(v), 10.0),
                        (supported_labels, 8.0)):
        with pytest.raises(DomainError, match=f"must be an integer, got {value}$"):
            call(value)


def test_constructors_store_ints():
    # equality and hashing see Python ints, whatever integer type came in
    for value, plain in ((RationalCyclic(np.int64(6), np.uint8(4)), RationalCyclic(3, 2)),
                         (RationalLattice(np.int64(2), np.int64(4), ((np.int64(2), 0), (0, 2))),
                          RationalLattice.scaled(2, 1, 2))):
        assert value == plain and hash(value) == hash(plain)
        assert typed(value) == typed(plain)
