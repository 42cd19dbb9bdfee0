"""The speed probe samples while code runs, and leaves no timer behind."""

import signal
import time

import pytest

from probe import SpeedProbe


def test_probe_samples_during_a_busy_loop_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    assert probe.speed() == 1.0  # no samples yet
    probe.start()
    try:
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= 3
    assert probe.busy_s == pytest.approx(sum(probe.samples))
    mean = sum(probe.samples) / len(probe.samples)
    assert probe.speed() == pytest.approx(SpeedProbe.NOMINAL_S / mean)
    taken = len(probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == taken  # stopped means stopped
