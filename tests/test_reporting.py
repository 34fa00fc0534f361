import pytest

from commgrowth import BoundReport, compare


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
