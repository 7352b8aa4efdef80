"""Metric points in the L2(P_X) geometry.

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
        coords = np.array(self.coords, dtype=np.float64)  # a private copy to freeze
        if coords.ndim != 1:
            raise DimensionMismatch("coords must be a 1-D vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def as_coords(point) -> np.ndarray:
    """Coordinate array of a MetricPoint or raw vector."""
    if isinstance(point, MetricPoint):
        return point.coords
    return np.asarray(point, dtype=np.float64)
