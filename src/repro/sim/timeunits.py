"""Time units and helpers.

All simulation timestamps are floats measured in seconds from the campaign
start (t=0).  Durations use the same unit.  These helpers exist so that call
sites read like the paper ("a 60 minute checkpoint interval", "failures per
node-day") instead of bare magic numbers.
"""

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY


def hours(n: float) -> float:
    """Return ``n`` hours expressed in seconds."""
    return n * HOUR


def days(n: float) -> float:
    """Return ``n`` days expressed in seconds."""
    return n * DAY
