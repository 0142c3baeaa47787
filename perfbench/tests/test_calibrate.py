"""Tests of the host-speed calibration.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import pytest

import calibrate
import run


def _calibration(points):
    cal = calibrate.Calibration()
    for t, loop in points:
        cal.times.append(t)
        cal.samples.append(loop)
    return cal


def test_factor_uses_the_median_of_the_samples_around_an_operation():
    ref = calibrate.REF_S
    w = calibrate.WINDOW_S
    cal = _calibration([(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (100.0, 4 * ref)])
    assert cal.factor(1.0, 1.5) == pytest.approx(0.5)
    assert cal.factor(100.0 - w / 2, 100.0) == pytest.approx(0.25)
    # no sample within the window: the nearest one
    assert cal.factor(50.0, 50.0 + 1e-3) == pytest.approx(0.5)


def test_tally_scales_each_run_before_taking_the_median():
    ref = calibrate.REF_S
    cal = _calibration([(0.0, ref), (100.0, 2 * ref), (200.0, ref)])
    tally = run.Tally()
    tally.record(0, 1.0, True, "a", start=0.0)     # host at reference speed
    tally.record(0, 1.6, True, "a", start=100.0)   # host twice as slow: 0.8 at reference speed
    tally.record(0, 0.9, True, "a", start=200.0)
    assert tally.latencies() == [1.0]
    tally.cal = cal
    assert tally.latencies() == [pytest.approx(0.9)]
    assert tally.latencies(scaled=False) == [1.0]
    assert tally.ops_per_s == pytest.approx(1 / 0.9)


def test_reference_loop_is_fixed_work():
    assert calibrate.reference_loop() == calibrate.reference_loop()
    assert calibrate.sample_loop() > 0
