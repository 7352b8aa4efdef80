"""Metric points and balls in the L2(P_X) geometry.

Every class body in this package represents members by a finite coordinate
vector (parameters for linear classes, grid values for function classes) and
measures distance as ``metric_scale * ||u - v||_2``, which equals the
L2(P_X) distance for the design implied by the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class MetricPoint:
    """A class member: its coordinate vector."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise DimensionMismatch("coords must be a 1-D vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class Ball:
    """Closed metric ball B(center, radius) in L2(P_X) units."""

    center: MetricPoint
    radius: float

    def __post_init__(self):
        if not 0 <= self.radius < np.inf:
            raise ValueError("radius must be nonnegative and finite")


def as_coords(point) -> np.ndarray:
    """Coordinate array of a MetricPoint or raw vector."""
    if isinstance(point, MetricPoint):
        return point.coords
    return np.asarray(point, dtype=np.float64)
