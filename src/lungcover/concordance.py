"""Covered/obscured partition of a 3D mask against a coronal 2D mask.

The paper's definition extrudes the 2D mask along y: reference voxels
inside the extrusion are "covered", the rest are "obscured". Every voxel
of one (z, x) column lies inside the extrusion when pixel (z, x) of the
2D mask is set, and outside it otherwise. So with ``cols[z, x]`` the
number of reference voxels in column (z, x),

    covered  = sum of cols over the pixels the 2D mask sets
    obscured = sum of cols - covered

These are the same integers the voxel-by-voxel split counts, computed
from one popcount pass over the reference's packed bits (one bit per
voxel) and no 3D bool temporary. ``cols`` is ``Mask3D.column_counts``,
a cached property of the immutable mask, so a mask measured against
several 2D masks is counted once. Dice and Jaccard popcount the packed
bytes of both masks and of their AND, one z-chunk at a time, and the
voxelwise AND works on the packed bytes too. The counts
partition the reference, so covered_ml + obscured_ml == total_ml holds
bit-exactly (one shared voxel-volume factor, applied once at the end).
``extrude_mask`` with ``overlap_mask``/``obscured_mask`` is the
voxel-by-voxel reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import BothEmpty, EmptyReference, GeometryMismatch
from .grid import GridGeometry, Mask2D, Mask3D, fold_y, voxel_volume_ml


def _require_same_grid(a: Mask3D, b: Mask3D) -> None:
    if a.geometry != b.geometry:
        raise GeometryMismatch(f"mask grids differ: {a.geometry} vs {b.geometry}")


def _require_same_plane(a: Mask2D, b: Mask2D) -> None:
    if (a.nx, a.nz, a.sx, a.sz) != (b.nx, b.nz, b.sx, b.sz):
        raise GeometryMismatch("2D mask planes differ")


def _combined_label(a: str, b: str) -> str:
    return a if a == b else "both"


def overlap_mask(a: Mask3D, b: Mask3D) -> Mask3D:
    """Voxelwise AND, on the packed bytes."""
    _require_same_grid(a, b)
    return Mask3D.from_packed(a.geometry, a.packed & b.packed, _combined_label(a.label, b.label))


def obscured_mask(reference: Mask3D, cover: Mask3D) -> Mask3D:
    """Reference voxels not inside the cover (AND NOT); the reference's padding bits are 0."""
    _require_same_grid(reference, cover)
    return Mask3D.from_packed(reference.geometry, reference.packed & ~cover.packed,
                              reference.label)


def union2d(a: Mask2D, b: Mask2D) -> Mask2D:
    """Pixelwise OR of two coplanar 2D masks."""
    _require_same_plane(a, b)
    return Mask2D(nx=a.nx, nz=a.nz, sx=a.sx, sz=a.sz,
                  bits=a.bits | b.bits, label=_combined_label(a.label, b.label))


def mask_volume_ml(mask: Mask3D) -> float:
    return mask.voxel_count * voxel_volume_ml(mask.geometry)


def dice(a, b) -> float:
    """Dice coefficient 2|A&B| / (|A|+|B|) for two masks of one kind."""
    return _dice(*_pair_counts(a, b))


def jaccard(a, b) -> float:
    """Jaccard index: intersection over union; equals dsc/(2-dsc)."""
    return _jaccard(*_pair_counts(a, b))


def _dice(ca: int, cb: int, inter: int) -> float:
    if ca + cb == 0:
        raise BothEmpty("Dice undefined: both masks empty")
    return 2.0 * inter / (ca + cb)


def _jaccard(ca: int, cb: int, inter: int) -> float:
    union = ca + cb - inter
    if union == 0:
        raise BothEmpty("Jaccard undefined: both masks empty")
    return inter / union


def _pair_counts(a, b) -> tuple[int, int, int]:
    """(|A|, |B|, |A&B|) of two masks of one kind.

    Two 3D masks are counted in one pass over their packed z-chunks, so
    a loaded mask is read and a phantom's painted as it is counted: no
    whole 3D mask, and no 3D AND, is held.
    """
    if isinstance(a, Mask3D) and isinstance(b, Mask3D):
        _require_same_grid(a, b)
        counts = [0, 0, 0]
        for ca, cb in zip(a.chunks(), b.chunks()):
            for k, part in enumerate((ca, cb, ca & cb)):
                counts[k] += int(np.bitwise_count(part).sum(dtype=np.int64))
        return tuple(counts)
    if isinstance(a, Mask2D) and isinstance(b, Mask2D):
        _require_same_plane(a, b)
        return a.pixel_count, b.pixel_count, int(np.count_nonzero(a.bits & b.bits))
    raise GeometryMismatch(f"cannot compare {type(a).__name__} with {type(b).__name__}")


@dataclass(frozen=True)
class AgreementReport:
    """DSC/JI between two same-kind masks."""

    label: str
    mask_kind: str  # "ct3d" or "drr2d"
    dsc: float
    ji: float

    def as_dict(self) -> dict:
        return asdict(self)


def agreement(a, b) -> AgreementReport:
    """DSC and JI of two same-kind masks, both from one count of |A|, |B| and |A&B|."""
    kind = "ct3d" if isinstance(a, Mask3D) else "drr2d"
    counts = _pair_counts(a, b)
    return AgreementReport(_combined_label(a.label, b.label), kind,
                           _dice(*counts), _jaccard(*counts))


@dataclass(frozen=True)
class LabelMeasures:
    """Volumes for one label: exact voxel counts plus derived ml."""

    total_voxels: int
    covered_voxels: int
    obscured_voxels: int
    total_ml: float
    covered_ml: float
    obscured_ml: float
    obscured_fraction_pct: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConcordanceReport:
    """Per-case partition measures for right, left and both lungs."""

    case_id: str
    labels: dict  # label -> LabelMeasures

    def as_dict(self) -> dict:
        return asdict(self)


def _measure(cols: np.ndarray, g: GridGeometry, mask2d: Mask2D) -> LabelMeasures:
    """Partition the reference whose column counts are ``cols``."""
    if (mask2d.nx, mask2d.nz) != (g.nx, g.nz) or (mask2d.sx, mask2d.sz) != (g.sx, g.sz):
        raise GeometryMismatch(
            f"2D mask plane ({mask2d.nx}x{mask2d.nz} @ {mask2d.sx},{mask2d.sz}) does not "
            f"match grid ({g.nx}x{g.nz} @ {g.sx},{g.sz})"
        )
    total = int(cols.sum(dtype=np.int64))
    if total == 0:
        raise EmptyReference("obscured fraction undefined: reference mask empty")
    covered = int(cols[mask2d.bits].sum(dtype=np.int64))
    obscured = total - covered
    vv = voxel_volume_ml(g)
    covered_ml = covered * vv
    obscured_ml = obscured * vv
    return LabelMeasures(
        total_voxels=total,
        covered_voxels=covered,
        obscured_voxels=obscured,
        total_ml=covered_ml + obscured_ml,
        covered_ml=covered_ml,
        obscured_ml=obscured_ml,
        obscured_fraction_pct=100.0 * obscured / total,
    )


def obscured_fraction(reference: Mask3D, mask2d: Mask2D) -> float:
    """Percent of reference voxels outside the extruded 2D mask.

    Spacing-invariant: a pure count ratio, times 100.
    """
    return _measure(reference.column_counts, reference.geometry, mask2d).obscured_fraction_pct


def _and_count(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The popcount of a & b, made in out: grid.fold_y's op for the intersection counts."""
    return np.bitwise_count(np.bitwise_and(a, b, out=out), out=out)


def _union_column_counts(right: Mask3D, left: Mask3D) -> np.ndarray:
    """Column counts of right | left without a 3D union.

    |R| + |L| - |R & L| per column. |R & L| is counted only when some
    column has voxels of both masks (none does when the lungs are
    disjoint in projection), in one fold over both masks' packed z-chunks
    (grid.fold_y: two loaded CT-grid masks in two z-halves at once), so
    neither mask is held whole; each chunk's AND and popcount are made in
    one buffer per z-half (_and_count). The result is at most ny, so it
    fits the column dtype.
    """
    cols_r, cols_l = right.column_counts, left.column_counts
    if not ((cols_r > 0) & (cols_l > 0)).any():
        return cols_r + cols_l
    inter = fold_y((right, left), np.empty_like(cols_l), _and_count)
    return cols_r + (cols_l - inter)


def analyze_case(
    ct_right: Mask3D,
    ct_left: Mask3D,
    mask2d_right: Mask2D,
    mask2d_left: Mask2D,
    case_id: str = "case",
) -> ConcordanceReport:
    """Partition both lungs against their 2D masks; adds a combined row.

    The "both" row partitions the union of the 3D masks against the
    union of the 2D masks. Labels are taken from argument position, not
    from mask.label, so swapped inputs still produce a report (the
    fractions make the swap obvious).
    """
    _require_same_grid(ct_right, ct_left)
    g = ct_right.geometry
    both2d = union2d(mask2d_right, mask2d_left)
    labels = {
        "right": _measure(ct_right.column_counts, g, mask2d_right),
        "left": _measure(ct_left.column_counts, g, mask2d_left),
        "both": _measure(_union_column_counts(ct_right, ct_left), g, both2d),
    }
    return ConcordanceReport(case_id=case_id, labels=labels)
