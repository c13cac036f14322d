from repro.sim.timeunits import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    days,
    format_duration,
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


def test_format_duration_picks_natural_unit():
    assert format_duration(30) == "30.0s"
    assert format_duration(90) == "1.5m"
    assert format_duration(2 * HOUR) == "2.0h"
    assert format_duration(3 * DAY) == "3.0d"
