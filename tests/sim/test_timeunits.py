from repro.sim.timeunits import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    days,
    hours,
)


def test_unit_relationships():
    assert MINUTE == 60
    assert HOUR == 60 * MINUTE
    assert DAY == 24 * HOUR
    assert WEEK == 7 * DAY


def test_constructors():
    assert hours(2) == 7200
    assert days(1.5) == 129600
