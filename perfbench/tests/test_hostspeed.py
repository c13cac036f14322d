import signal
import time

import pytest

from hostspeed import INTERVAL_S, MIN_SAMPLES, HostSpeed, perf, reference


def busy(seconds: float) -> None:
    end = perf() + seconds
    while perf() < end:
        reference()


def test_samples_cover_the_block_and_are_subtracted():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        start = perf()
        busy(2 * MIN_SAMPLES * INTERVAL_S)
        wall = perf() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= MIN_SAMPLES
    assert all(start <= at <= start + wall for at, _ in speed.samples)
    sampled = sum(seconds for _, seconds in speed.samples)
    assert speed.own(wall) == pytest.approx(wall - sampled)
    assert speed.adjust(wall) == pytest.approx(
        speed.own(wall) / speed.slowness()
    )


def test_window_keeps_only_its_samples():
    with HostSpeed() as speed:
        start = perf()
        busy(2 * MIN_SAMPLES * INTERVAL_S)
        middle = perf()
        busy(2 * MIN_SAMPLES * INTERVAL_S)
        end = perf()
    first = [s for at, s in speed.samples if at < middle]
    assert speed.own(middle - start, (start, middle)) == pytest.approx(
        middle - start - sum(first)
    )
    assert 0 < speed.slowness((middle, end))


def test_too_few_samples_refuse_an_estimate():
    with HostSpeed() as speed:
        time.sleep(INTERVAL_S / 2)
    with pytest.raises(ValueError):
        speed.slowness()
