import pytest

from repro.stats.quantiles import ecdf, power_of_two_bucket


def test_ecdf_basic():
    values, fracs = ecdf([3.0, 1.0, 2.0, 2.0])
    assert list(values) == [1.0, 2.0, 2.0, 3.0]
    assert fracs[-1] == 1.0
    assert fracs[0] == 0.25


def test_ecdf_empty_raises():
    with pytest.raises(ValueError):
        ecdf([])


@pytest.mark.parametrize(
    "value,expected",
    [(1, 1), (2, 2), (3, 4), (8, 8), (9, 16), (100, 128), (4096, 4096)],
)
def test_power_of_two_bucket(value, expected):
    assert power_of_two_bucket(value) == expected


def test_power_of_two_bucket_minimum():
    assert power_of_two_bucket(3, minimum=8) == 8
    assert power_of_two_bucket(9, minimum=8) == 16


def test_power_of_two_bucket_rejects_nonpositive():
    with pytest.raises(ValueError):
        power_of_two_bucket(0)
