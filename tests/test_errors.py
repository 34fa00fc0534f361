from commgrowth.errors import _shown


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
