"""Uniform spatial grids ("city blocks") over a local projection.

The paper's utility metric compares the *area coverage* of a user before
and after protection at the granularity of a city block.  A
:class:`SpatialGrid` discretises the plane around a reference point into
square cells of a configurable size (200 m by default, the order of a
San Francisco block) and exposes set operations on covered cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from .point import LatLon
from .projection import LocalProjection

__all__ = [
    "SpatialGrid",
    "cell_f1",
    "cell_jaccard",
    "f1_from_counts",
    "shared_rows",
]

Cell = Tuple[int, int]

#: One cell as an opaque 16-byte row: the raw bytes of its int64
#: ``(ix, iy)`` pair, so equal rows are exactly equal cells whatever
#: their span.
_CELL_ROW = np.dtype((np.void, 16))


@dataclass(frozen=True)
class SpatialGrid:
    """Square grid of side ``cell_size_m`` anchored at a reference point."""

    projection: LocalProjection
    cell_size_m: float = 200.0

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise ValueError("cell size must be positive")

    @classmethod
    def around(cls, ref: LatLon, cell_size_m: float = 200.0) -> "SpatialGrid":
        """Grid anchored at ``ref`` with the given cell size."""
        return cls(LocalProjection(ref), cell_size_m)

    def cells_of(self, lats, lons) -> np.ndarray:
        """Cell indices of each coordinate; shape ``(n, 2)`` ints."""
        x, y = self.projection.to_xy(lats, lons)
        ix = np.floor(x / self.cell_size_m).astype(np.int64)
        iy = np.floor(y / self.cell_size_m).astype(np.int64)
        return np.stack([ix, iy], axis=1)

    def cell_of(self, p: LatLon) -> Cell:
        """Cell index of a single point."""
        cells = self.cells_of(np.asarray([p.lat]), np.asarray([p.lon]))
        return (int(cells[0, 0]), int(cells[0, 1]))

    def covered_cells(self, lats, lons) -> FrozenSet[Cell]:
        """The set of distinct cells touched by the coordinates."""
        cells = self.cells_of(lats, lons)
        return frozenset(map(tuple, cells.tolist()))

    def cell_rows(self, lats, lons) -> np.ndarray:
        """The distinct cells touched, as sorted unique 16-byte rows.

        The array counterpart of :meth:`covered_cells`: its size is
        the number of covered cells, and :func:`shared_rows` counts
        the cells two such arrays share.  Rows sort by their bytes,
        not numerically; only their equality carries meaning.
        """
        cells = self.cells_of(lats, lons)
        return np.unique(cells.view(_CELL_ROW).ravel())

    def cell_center(self, cell: Cell) -> LatLon:
        """Lat/lon of the centre of ``cell``."""
        x = (cell[0] + 0.5) * self.cell_size_m
        y = (cell[1] + 0.5) * self.cell_size_m
        return self.projection.point_to_latlon(x, y)

    def snap(self, lats, lons):
        """Snap coordinates to their cell centres; returns (lat, lon) arrays.

        This is the geometric core of the grid-rounding (spatial
        cloaking) LPPM.
        """
        x, y = self.projection.to_xy(lats, lons)
        cx = (np.floor(x / self.cell_size_m) + 0.5) * self.cell_size_m
        cy = (np.floor(y / self.cell_size_m) + 0.5) * self.cell_size_m
        return self.projection.to_latlon(cx, cy)


def cell_jaccard(a: Iterable[Cell], b: Iterable[Cell]) -> float:
    """Jaccard similarity of two cell sets; 1.0 when both are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union


def cell_f1(a: Iterable[Cell], b: Iterable[Cell]) -> float:
    """F1 overlap of two cell sets; 1.0 when both are empty.

    Treating ``a`` as ground truth and ``b`` as prediction, this is the
    harmonic mean of precision and recall of the covered-cell sets —
    the default area-coverage utility in this library.
    """
    sa, sb = set(a), set(b)
    return f1_from_counts(len(sa), len(sb), len(sa & sb))


def f1_from_counts(n_a: int, n_b: int, n_shared: int) -> float:
    """F1 overlap of two cell sets from their sizes and shared count.

    The arithmetic of :func:`cell_f1`, for callers that count cells
    without building Python sets (:meth:`SpatialGrid.cell_rows`).
    """
    if not n_a and not n_b:
        return 1.0
    if not n_a or not n_b or n_shared == 0:
        return 0.0
    precision = n_shared / n_b
    recall = n_shared / n_a
    return 2.0 * precision * recall / (precision + recall)


def shared_rows(a: np.ndarray, b: np.ndarray) -> int:
    """How many rows two :meth:`SpatialGrid.cell_rows` arrays share.

    Both inputs are sorted and unique, so a stable sort of their
    concatenation is one merge, and each shared row is exactly one
    adjacent equal pair.
    """
    both = np.concatenate([a, b])
    both.sort(kind="stable")
    return int(np.count_nonzero(both[1:] == both[:-1]))
