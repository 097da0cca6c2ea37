"""The pacer takes its sampling out of the time it reports and scales that
time by the speed its samples measured."""

import time

import pace


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pace.chunk()


def test_sampling_is_taken_out_and_scaled():
    with pace.Pacer(sampling=True) as pacer:
        start = pacer.mark()
        t0 = time.perf_counter()
        _busy(0.5)
    wall = time.perf_counter() - t0
    seconds, scale = pacer.seconds(start), pacer.scale(start)
    assert pacer.chunks >= 5 * pace.TIMED
    assert abs(seconds - (wall - pacer.spent)) < 1e-3
    assert scale == pace.REFERENCE_S * pacer.chunks / pacer.timed
    chunks = pacer.chunks
    _busy(2 * pace.INTERVAL)  # the timer is off once the pacer is left
    assert pacer.chunks == chunks


def test_a_window_without_samples_uses_all_samples_so_far():
    with pace.Pacer(sampling=True) as pacer:
        _busy(0.3)
    mark = pacer.mark()
    assert pacer.scale(mark) == pace.REFERENCE_S * pacer.chunks / pacer.timed


def test_without_sampling_seconds_are_wall_seconds():
    with pace.Pacer(sampling=False) as pacer:
        start = pacer.mark()
        _busy(0.2)
        assert pacer.chunks == 0 and pacer.scale(start) == 1.0
        assert 0.2 <= pacer.seconds(start) < 0.3
