import dataclasses
import itertools
import sys
import time
import tracemalloc
from array import array
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from commgrowth import arith, chevalley, parahoric
from commgrowth.commgraph import (RationalCyclic, RationalLattice, check_transfer_inequality,
                                  enumerate_ball, run_metric_checks)
from commgrowth.errors import DomainError, ResourceLimitError, _guard, _items, _shown
from commgrowth.root_systems import RootSystem, root_system, supported_labels

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
    assert _shown("x" * 18) == "x" * 18


def test_other_values_past_18_characters_by_their_start_and_length():
    assert _shown("x" * 19) == "xxxxxxxx... (19 characters)"


def test_containers_past_18_characters_by_their_start_and_item_count():
    assert _shown([0] * 6) == "[0, 0, 0, 0, 0, 0]"
    assert _shown(b"9" * 15) == "b'" + "9" * 15 + "'"
    assert _shown((0,) * 7) == "(0, 0, 0... (7 items)"
    assert _shown(b"9" * 16) == "b'999999... (16 items)"
    assert _shown(bytearray(3)) == "bytearra... (3 items)"
    assert _shown({k: k for k in range(10 ** 5)}) == "{0: 0, 1... (100000 items)"
    assert _shown([[0] * 10 ** 6]) == "[[0, 0, ... (1 items)"
    assert _shown(deque([0] * 6)) == "deque([0... (6 items)"
    assert _shown(array("i", [7] * 3)) == "array('i... (3 items)"
    assert _shown(range(10 ** 20)) == "range(0,... (31 characters)"  # str, as before


# a refused value holding an int past CPython's int->str digit limit, which
# str and reprlib.repr refuse with ValueError: shown by its type name and
# item count, with the interpreter's limit left as it was
@pytest.mark.parametrize("call, message", [
    (lambda: arith.factorize([10 ** 5000]), "n must be an integer, got list... (1 items)"),
    (lambda: arith.is_prime((10 ** 5000,)), "n must be an integer, got tuple... (1 items)"),
    (lambda: arith.factorize(Fraction(10 ** 5000, 3)), "n must be an integer, got Fraction"),
    (lambda: arith.factorize(np.array([10 ** 5000], dtype=object)),
     "n must be an integer, got ndarray... (1 items)"),
    (lambda: arith.factorize(np.array(10 ** 5000, dtype=object)),
     "n must be an integer, got ndarray"),
    (lambda: parahoric.upper_bound_profile(A1, 1, [Fraction(10 ** 5000, 3)]),
     "growth value must be an integer, got Fraction"),
    (lambda: RationalLattice.from_rows([[1, [10 ** 5000]], [0, 1]]),
     "basis entry must be an integer, got list... (1 items)"),
], ids=["factorize-list", "is_prime-tuple", "factorize-Fraction", "factorize-ndarray",
        "factorize-ndarray-0d", "upper_bound_profile-Fraction", "from_rows-entry"])
def test_values_past_the_int_str_digit_limit_are_shown_bounded(call, message):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message
    assert sys.get_int_max_str_digits() == limit


def test_refusing_a_long_list_takes_bounded_memory():
    # the list is shown from a bounded repr, not from its 3 MB str
    items = [0] * 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as caught:
            arith.factorize(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert str(caught.value) == "n must be an integer, got [0, 0, 0... (1000000 items)"


@pytest.mark.parametrize("items, shown", [
    (deque([0] * 10 ** 6), "deque([0... (1000000 items)"),
    (array("q", [0] * 10 ** 6), "array('q... (1000000 items)"),
], ids=["deque", "array"])
def test_refusing_a_long_deque_or_array_takes_bounded_memory(items, shown):
    # shown from a bounded repr and its item count, not from its whole str
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as caught:
            arith.factorize(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert str(caught.value) == f"n must be an integer, got {shown}"


def refused():
    raise AssertionError("message built within the budget")


def test_items_reads_one_past_the_budget():
    read = []
    endless = (read.append(i) or i for i in itertools.count())
    with pytest.raises(ResourceLimitError) as caught:
        _items("chain", endless, 3)
    assert (read, str(caught.value)) == ([0, 1, 2, 3], "chain of more than 3 items exceeds guard 3")
    assert _items("chain", iter(range(3)), 3) == [0, 1, 2]
    assert _items("chain", (), 0) == []


def test_guard_returns_the_value_up_to_the_budget():
    assert _guard(7, 7, refused) == 7
    assert _guard(-7, 7, refused) == -7
    assert _guard(10 ** 400, float("inf"), refused) == 10 ** 400


def test_guard_refuses_past_the_budget():
    with pytest.raises(ResourceLimitError, match="^8 is past 7$"):
        _guard(8, 7, lambda: "8 is past 7")
    # a float budget, as a digit guard's MAX_OUTPUT_DIGITS / log10(base)
    # is, compares exactly with an int past the float range
    assert _guard(5, 5.5, refused) == 5
    for value in (6, 10 ** 400):
        with pytest.raises(ResourceLimitError, match="^past 5.5$"):
            _guard(value, 5.5, lambda: "past 5.5")


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


# RationalLattice's public constructors as inherited by RationalCyclic, which
# builds (a/b)Z from (a, b) alone: each refused by RationalCyclic's one check
INHERITED_CONSTRUCTORS = [
    ("standard", lambda: RationalCyclic.standard(1)),
    ("scaled", lambda: RationalCyclic.scaled(1, 3, 2)),
    ("from_rows", lambda: RationalCyclic.from_rows([[3]], denom=2)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in INHERITED_CONSTRUCTORS])
def test_cyclic_refuses_inherited_constructors(call):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == "build (a/b)Z as RationalCyclic(a, b)"


# refused non-integers, and how a refusal shows them: in full up to 18
# characters, past that by the first 8 and the length, a str by its repr
HOSTILE = [
    (2.5, "2.5"),
    (None, "None"),
    ("9" * 10 ** 5, "'99999999'... (100000 characters)"),
    ([0] * 10 ** 5, "[0, 0, 0... (100000 items)"),
    (b"9" * 10 ** 5, "b'999999... (100000 items)"),
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
    for hostile, shown in HOSTILE:
        with pytest.raises(DomainError) as caught:
            call(hostile)
        assert str(caught.value) == f"{name} must be an integer, got {shown}"


# one row per rational argument of a public function, each read by
# errors._rational: the call with the argument v
RATIONAL_ARGUMENTS = [
    ("c_const", lambda v: parahoric.upper_bound_profile(A1, 3, range(1, 10), c_const=v)),
    ("D_const", lambda v: parahoric.upper_bound_profile(A1, 3, range(1, 10), D_const=v)),
]


def outcome(call, value):
    """The typed value call(value) returns, or the type and message it raises."""
    try:
        return typed(call(value))
    except (DomainError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in RATIONAL_ARGUMENTS])
@pytest.mark.parametrize("value, plain", [
    (np.int64(3), 3), (np.int32(2 ** 31 - 1), 2 ** 31 - 1), (np.int64(2 ** 62), 2 ** 62),
    (np.uint64(2 ** 64 - 1), 2 ** 64 - 1), (Fraction(np.int64(2 ** 62), 1), 2 ** 62),
    (Fraction(np.int64(3), np.int64(2)), Fraction(3, 2)), (np.float64(1.5), 1.5),
    (np.float32(1.5), 1.5), (np.int64(0), 0), (np.float32("inf"), float("inf")),
], ids=["int64", "int32-max", "int64-2^62", "uint64-max", "Fraction-int64", "Fraction-3/2",
        "float64", "float32", "zero", "float32-inf"])
def test_rational_arguments_go_through_one_intake(call, value, plain):
    # a numpy scalar, or a Fraction of numpy ints, is the same argument as the
    # Python value: read as a Fraction of Python ints before the work guard
    # sees it (an int32 or int64 c*n would wrap past it), answered or refused
    # alike and at once
    started = time.monotonic()
    assert outcome(call, value) == outcome(call, plain)
    assert time.monotonic() - started < 0.1


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


# every public call that takes a RootSystem
RS_CALLS = pytest.mark.parametrize("call", [
    lambda rs: chevalley.order_fp(rs, 3),
    lambda rs: chevalley.order_zpk(rs, 3, 1),
    lambda rs: chevalley.order_zm(rs, 1),
    lambda rs: chevalley.check_order_bound(rs, 3),
    lambda rs: parahoric.count_admissible_cocharacters(rs, 3),
    lambda rs: parahoric.check_cocharacter_bound(rs, 3),
    lambda rs: parahoric.per_prime_bound(rs, 3, 1),
    lambda rs: parahoric.maximal_lattice_bound(rs, 3),
    lambda rs: parahoric.upper_bound_profile(rs, 1, [1]),
], ids=["order_fp", "order_zpk", "order_zm", "check_order_bound",
        "count_admissible_cocharacters", "check_cocharacter_bound", "per_prime_bound",
        "maximal_lattice_bound", "upper_bound_profile"])


@RS_CALLS
@pytest.mark.parametrize("rs", ["A1", None], ids=["label", "None"])
def test_root_system_arguments_are_checked(call, rs):
    # a type label where a RootSystem belongs is refused by one check,
    # root_systems._checked, not left to a bare AttributeError
    with pytest.raises(DomainError) as caught:
        call(rs)
    assert str(caught.value) == f"rs must be a RootSystem, got {type(rs).__name__}"
    call(A1)


@RS_CALLS
def test_root_system_data_must_match_the_label(call):
    # C2's roots under the label A2 count 19 admissible cocharacters at
    # c = 2 (A2's count), where its own roots give 13: refused by the same
    # check, while an equal copy of A2 built field by field is accepted
    C2 = root_system("C2")
    mislabelled = RootSystem("A2", 2, C2.cartan, C2.positive_roots, C2.degrees)
    with pytest.raises(DomainError) as caught:
        call(mislabelled)
    assert str(caught.value) == "rs is not root_system('A2'), the system of its label"
    copy = RootSystem(*(getattr(A2, f.name) for f in dataclasses.fields(A2)))
    assert copy is not A2 and copy == A2
    call(copy)
    with pytest.raises(DomainError, match="^malformed type label 'X2'$"):
        call(dataclasses.replace(A2, label="X2"))
