"""Coronal projections: DRR rendering and 2D<->3D mask transforms.

The DRR is an orthographic parallel-ray projection along +y: each output
pixel is the mean HU of its y-column, mapped through a display window to
8 bits. render_drr folds over the volume's z-chunks (grid.fold_y) and
sums each chunk along y while it is in cache, so a phantom's volume is
painted, and a loaded volume read from its file, ~512 KB at a time: only
the (nz, nx) column sums are held. The sum first adds the two halves of a
chunk's rows in int16, three times, into one buffer of half a chunk, and
widens only the eighth of the rows left: exact, because 8 voxels of
range-checked HU fit int16, and about twice as fast as widening every
row. A loaded or held volume of grid._SPLIT_BYTES (~6 MiB) or more, such
as the 128 MB CT volume, is read, checked and summed in two z-halves at
once, each with its own chunk buffer and half-chunk scratch; the sums
are exact integers, so the image is the same. A phantom's volume, painted
slice from slice, and a 4 MiB desk volume are summed in one pass. Masks
move between 2D and 3D by extrusion (replicate along y) and projection
(OR along y).
project(extrude(m)) == m for every ny >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import HU_MAX, HU_MIN, DrrImage, GridGeometry, Mask2D, Mask3D, VoxelVolume, fold_y


@dataclass(frozen=True)
class WindowSpec:
    """Display window in HU; lo maps to 0, hi maps to 255.

    lo, hi and their width hi - lo must be finite: an infinite bound or
    width would scale every pixel to 0 or NaN.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(
                f"window requires finite lo < hi with a finite width, got ({self.lo}, {self.hi})")


# Default window spans air to light soft tissue so lungs stay mid-gray.
DEFAULT_WINDOW = WindowSpec(-1000.0, 200.0)


# Adding the two halves of a column's int16 rows k times leaves sums of 2**k
# voxels in each int16 value: exact while 2**k voxels of the widest HU fit
# int16 (8 x 3071 = 24,568 <= 32,767), so k = 3.
_FOLDS = (np.iinfo(np.int16).max // max(-HU_MIN, HU_MAX)).bit_length() - 1


def _column_sums(volume: VoxelVolume) -> np.ndarray:
    """Exact integer sum of each (z, x) column of a volume, shape (nz, nx), one z-chunk at a time.

    A large loaded or held volume is summed in two z-halves at once
    (grid.fold_y). Each chunk's rows are first added in int16 halves,
    _FOLDS times (grid.sum_y), which cannot overflow: every kind of
    volume yields HU values already range-checked (a VoxelVolume when it
    is built, a loaded volume as each chunk is read, a phantom's from its
    checked TissueHu). Only the ny / 8 rows left are widened, to int32
    when ny voxels of the widest HU fit it and to int64 otherwise.
    """
    g = volume.geometry
    acc = np.int32 if max(-HU_MIN, HU_MAX) * g.ny <= np.iinfo(np.int32).max else np.int64
    return fold_y((volume,), np.empty((g.nz, g.nx), acc), folds=_FOLDS)


def _mean_along_y(volume: VoxelVolume) -> np.ndarray:
    """float64 mean of each (z, x) column of a volume, shape (nz, nx).

    The exact column sums of _column_sums over ny, so the quotient is
    bit-identical to ``values.mean(axis=1, dtype=np.float64)``.
    """
    return _column_sums(volume) / volume.geometry.ny


def render_drr(volume: VoxelVolume, window: WindowSpec = DEFAULT_WINDOW) -> DrrImage:
    """Mean-intensity projection along y, windowed to uint8.

    pixel = round(255 * clamp((mean - lo) / (hi - lo), 0, 1)), with
    round half away from zero (the scaled value is nonnegative, so this
    is floor(v + 0.5)). Every kind of volume yields HU values already in
    range: a VoxelVolume is checked when it is built, a phantom's values
    come from its checked spec, and a loaded volume checks each chunk as
    it reads it (io.load_volume).
    """
    # in place, the same operations in the same order: one (nz, nx) float64 array, not
    # one per step, so a CT-grid drr does not grow and trim the malloc heap by ~4 MB a call
    v = _mean_along_y(volume)
    v -= window.lo
    v /= window.hi - window.lo
    np.clip(v, 0.0, 1.0, out=v)
    v *= 255.0
    v += 0.5
    np.floor(v, out=v)
    return DrrImage(volume.geometry.nx, volume.geometry.nz, v.astype(np.uint8))


def extrude_mask(mask: Mask2D, ny: int, sy: float) -> Mask3D:
    """Replicate a coronal mask ny times along y into a 3D mask."""
    geom = GridGeometry(mask.nx, ny, mask.nz, mask.sx, sy, mask.sz)
    bits = np.broadcast_to(mask.bits[:, None, :], geom.shape_zyx)
    return Mask3D(geom, bits, mask.label)


def project_mask(mask: Mask3D) -> Mask2D:
    """Coronal silhouette: OR along y, the columns that count a voxel (Mask3D.column_counts).

    The counts fold over the mask's z-chunks, so a phantom's truth mask is
    painted, and a loaded one read, ~512 KB at a time, never held whole.
    """
    g = mask.geometry
    return Mask2D(g.nx, g.nz, g.sx, g.sz, mask.column_counts > 0, mask.label)
