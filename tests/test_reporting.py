import random
import sys

import pytest

from commgrowth import BoundReport, compare
from commgrowth.parahoric import check_two_k_plus_three
from commgrowth.reporting import _decimal_text


@pytest.mark.parametrize("lhs, rhs, holds", [(1, 2, True), (2, 2, True), (3, 2, False)])
def test_verdict_follows_the_inequality(lhs, rhs, holds):
    report = compare("x", lhs, rhs)
    assert report.holds is holds
    assert BoundReport("x", lhs, rhs).holds is holds


def test_str_format():
    assert str(compare("bound", 1, 2)) == "PASS bound: 1 <= 2"
    assert str(compare("bound", 3, 2, p=5, k=1)) == "FAIL bound: 3 <= 2 [k=1 p=5]"


def test_verdict_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        BoundReport(name="x", lhs=1, rhs=2, holds=True)


def decimal_cases():
    """Ints at the 2000-bit split, at the edges of the parts it splits into,
    near powers of ten, and of random sizes, log-uniform up to 332,200 bits
    (100,000 digits), with both signs."""
    values = [0, 1, -1, True, False]
    for bits in (1999, 2000, 2001, 4000, 4001, 6644, 10000):
        values += [2 ** bits - 1, 2 ** bits, 2 ** bits + 1]
    for digits in (602, 603, 604, 640, 641, 1000, 4300, 4301, 15000):
        values += [10 ** digits - 1, 10 ** digits, 10 ** digits + 1]
    rng = random.Random(0)
    values += [rng.getrandbits(round(332200 ** rng.random())) for _ in range(100)]
    return values + [-v for v in values[5:40]]


def test_decimal_text_equals_str_under_the_smallest_digit_limit():
    values = decimal_cases()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(v) for v in values]
        sys.set_int_max_str_digits(640)
        got = [_decimal_text(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_decimal_text_of_other_values_is_str():
    for value in (1.5, "x", None, (1, 2)):
        assert _decimal_text(value) == str(value)


def test_report_past_the_default_digit_limit_prints():
    # 5**50000 has 34,949 digits, past CPython's default limit of 4300
    report = check_two_k_plus_three(5, 50000)
    text = str(report)
    assert text.startswith("PASS 2k+3_absorbed_by_prime_power: 100003 <= 3")
    assert text.endswith(" [k=50000 p=5 sharp_applies=True]")
    assert len(text) == len("PASS 2k+3_absorbed_by_prime_power: 100003 <= ") + 34949 + \
        len(" [k=50000 p=5 sharp_applies=True]")
