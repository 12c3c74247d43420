import numpy as np
import pytest

from cpn_entropy.charts import (ChartPoint, OutsideChartError, sample_w,
                                transition_map)


def test_lift_has_unit_norm():
    p = ChartPoint(0, np.array([0.3 + 0.2j, -1.5 + 0.7j]))
    assert abs(np.linalg.norm(p.lift()) - 1.0) < 1e-15


def test_homogeneous_inserts_one_at_chart_slot():
    p = ChartPoint(1, np.array([2.0 + 0j, 3.0 + 0j]))
    assert np.allclose(p.homogeneous(), [2.0, 1.0, 3.0])


def test_invalid_chart_index_rejected():
    with pytest.raises(ValueError):
        ChartPoint(3, np.array([1.0 + 0j, 2.0 + 0j]))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        ChartPoint(0, np.array([np.inf + 0j, 0j]))


def test_transition_swaps_unit_coordinates():
    # N=2, chart 0, w=(1,0) -> chart 1, w=(1,0)
    p = ChartPoint(0, np.array([1.0 + 0j, 0.0 + 0j]))
    q = transition_map(p, 1)
    assert q.chart == 1
    assert np.allclose(q.w, [1.0, 0.0])


def test_transition_roundtrip_is_identity():
    p = ChartPoint(0, np.array([0.4 - 0.3j, 1.2 + 0.9j]))
    q = transition_map(transition_map(p, 1), 0)
    assert np.max(np.abs(q.w - p.w)) < 1e-14


def test_transition_outside_chart_signals():
    p = ChartPoint(0, np.array([0.0 + 0j, 0.0 + 0j]))
    with pytest.raises(OutsideChartError):
        transition_map(p, 1)


def test_sample_w_is_seeded_and_bounded():
    a = sample_w(2, 50, seed=11)
    b = sample_w(2, 50, seed=11)
    c = sample_w(2, 50, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    radii = np.sqrt(np.sum(np.abs(a) ** 2, axis=1))
    assert np.all(radii <= 2.0)
