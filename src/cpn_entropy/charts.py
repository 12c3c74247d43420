"""Affine charts on CP^N and seeded sample-point generation.

A point is held in one of the N+1 standard charts: chart ``c`` sets the
``c``-th homogeneous coordinate to 1 and keeps the remaining N complex
affine coordinates in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OutsideChartError(ValueError):
    """Raised when a point is re-expressed in a chart that does not contain it."""


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of CP^N in affine chart ``chart`` with coordinates ``w``."""

    chart: int
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("w must be a nonempty complex vector")
        if not (0 <= self.chart <= w.shape[0]):
            raise ValueError(f"chart index {self.chart} out of range for N={w.shape[0]}")
        if not np.all(np.isfinite(w.view(float))):
            raise ValueError("coordinates must be finite")

    @property
    def N(self) -> int:
        return self.w.shape[0]

    def homogeneous(self) -> np.ndarray:
        """Unnormalized homogeneous representative with 1 in slot ``chart``."""
        z = np.empty(self.N + 1, dtype=complex)
        z[: self.chart] = self.w[: self.chart]
        z[self.chart] = 1.0
        z[self.chart + 1:] = self.w[self.chart:]
        return z

    def lift(self) -> np.ndarray:
        """Unit-norm homogeneous representative (the sphere lift)."""
        z = self.homogeneous()
        return z / np.linalg.norm(z)


def transition_map(p: ChartPoint, target_chart: int) -> ChartPoint:
    """Re-express ``p`` in ``target_chart``; involutive up to roundoff."""
    if not (0 <= target_chart <= p.N):
        raise ValueError(f"target chart {target_chart} out of range")
    z = p.homogeneous()
    pivot = z[target_chart]
    if abs(pivot) == 0.0:
        raise OutsideChartError(
            f"point outside target chart {target_chart}: pivot coordinate is zero")
    z = z / pivot
    w = np.concatenate([z[:target_chart], z[target_chart + 1:]])
    return ChartPoint(target_chart, w)


def sample_w(N: int, count: int, seed: int) -> np.ndarray:
    """Seeded points drawn uniformly from the chart-0 ball |w| <= 2.

    Returns a (count, N) complex array; chart 0 covers CP^N up to a
    measure-zero set, so this samples the whole manifold for our purposes.
    """
    rng = np.random.default_rng(seed)
    xy = rng.standard_normal((count, 2 * N))
    norms = np.linalg.norm(xy, axis=1, keepdims=True)
    radii = 2.0 * rng.random((count, 1)) ** (1.0 / (2 * N))
    xy = xy / norms * radii
    return xy[:, :N] + 1j * xy[:, N:]
