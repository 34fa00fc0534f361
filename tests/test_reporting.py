import dataclasses
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from commgrowth import BoundReport, compare
from commgrowth.errors import DomainError
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


@pytest.mark.parametrize("operand", [None, "3", [1, 2], np.arange(3)],
                         ids=["None", "str", "list", "ndarray"])
def test_operands_that_le_cannot_decide_are_refused(operand):
    # `<=` raises, or gives an array: refused when the report is built, with
    # one line naming the check, not when its verdict or text is read; built
    # directly, by compare or by dataclasses.replace alike
    for lhs, rhs in ((operand, 1), (1, operand)):
        for build in (lambda: BoundReport("check", lhs, rhs),
                      lambda: compare("check", lhs, rhs),
                      lambda: dataclasses.replace(compare("check", 1, 2), lhs=lhs, rhs=rhs)):
            with pytest.raises(DomainError) as caught:
                build()
            assert str(caught.value) == \
                f"check: {type(lhs).__name__} <= {type(rhs).__name__} gives no bool"


@pytest.mark.parametrize("operand", [2, Fraction(5, 2), 2.5, np.int64(2)],
                         ids=["int", "Fraction", "float", "int64"])
def test_orderable_operands_are_accepted(operand):
    # a Python bool or a numpy bool decides the verdict
    assert BoundReport("check", operand, 3).holds is True
    assert compare("check", operand, 3).holds is True
    assert compare("check", 3, operand).holds is False
    assert str(compare("check", operand, 3)) == f"PASS check: {operand} <= 3"


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
