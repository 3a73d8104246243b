"""Synthetic chest phantoms with exact masks and analytic fraction oracles.

A phantom is a torso ellipsoid of soft tissue holding two lung
ellipsoids, an optional heart/mediastinum ellipsoid and optional
diaphragm domes (sphere caps protruding into the lungs from below).
Voxel membership is voxel-center inclusion, painted with priority
heart/diaphragm > lung > soft tissue > air, so brute-force counts are
exact. Every painter uses one voxel-center test per solid, made once on
the whole grid: voxel (z, y, x) is inside when ty[y] + tx[x] <= bounds[z]
(_box). The solid's index box is derived from that test, as the tightest
box holding every voxel that passes, and its (y, x) columns are sorted
by txy = ty[y] + tx[x] (_sort): at slice z the test holds on exactly the
first searchsorted(sorted txy, bounds[z], "right") of them, so going from
one slice to the next changes only the columns between the two counts.
generate_phantom makes every sort a case needs, and only it: the lungs
and the heart once per case, and the torso and the domes, which every
case of a cohort shares, once per cohort (_sort_solid). The painters
only paint, one slice after another, each slice painted in place in
the chunk being read from the slice before it (_painter), and
generate_phantom makes no 3D array at all. Each coronal silhouette is
made in 2D from the least ty, which is exactly the OR over y of the
voxel test. A case's HU volume and packed truth masks are grid
types built from_source their painters (_volume_painter, _truth_painter),
so by grid's one chunk rule each is painted in z-chunks of ~512 KB as it
is read: io.save_volume, io.save_mask3d and projection.render_drr never
hold a 128 MB volume or 8 MB mask of the 512 x 512 x 244 CT grid. The
volume painter repaints only the pixels some solid gains or loses, with
one put per slice of (column, HU) pairs made a block at a time; the
truth painter toggles each changed lung voxel's bit in a packed slice
(Mask3D.packed layout). On the CT grid a volume chunk is one slice,
painted in the buffer that already holds the slice before it, so no
slice is copied. "Lungs intersect" is tested only where the two
lung boxes overlap (_lungs_meet). The truth masks are the voxelized lung
ellipsoids themselves; the contour-style 2D mask is the lung silhouette
minus the occluder silhouettes; a second annotator is simulated by
seeded boundary jitter, on a band found by numpy 4-neighbour dilation
and erosion (_grow), so making a phantom needs no scipy.
The oracle is the continuous obscured fraction of every phantom family,
by one quadrature over the lung (analytic_obscured_fraction).

Randomness: every stream is a numpy PCG64 generator seeded through
numpy.random.SeedSequence, a fixed and portable algorithm, so cohorts
reproduce bit-identically across machines and thread counts.
"""

from __future__ import annotations

import functools
import math
import reprlib
import threading
from dataclasses import MISSING, astuple, dataclass, field, fields, replace

import numpy as np

from .errors import SpecViolation
from .grid import HU_MAX, HU_MIN, GridGeometry, Mask2D, Mask3D, VoxelVolume, is_finite_number

# Probability that a boundary-band pixel flips in the annotator-2 variant.
# Calibrated on the default cohort so the median 2D Dice between the two
# annotators lands near 0.97 (see scripts/calibrate_jitter.py).
JITTER_FLIP_PROB = 0.3

MAX_COHORT_RETRIES = 8


def _floats(obj, name: str, n: int = 0, positive: bool = False) -> None:
    """Store obj.name as a float (n = 0) or a tuple of n floats, each finite (and > 0).

    The one number rule of the spec types: bool, NaN, +-Infinity, huge
    ints and strings are SpecViolation, as are lists of the wrong length
    and lengths of 1e150 mm or more, whose squares would overflow.
    """
    v = getattr(obj, name)
    items = v if n else [v]
    if not (isinstance(items, (list, tuple)) and len(items) == max(n, 1) and all(
            is_finite_number(x) and abs(float(x)) < 1e150 and (x > 0 or not positive)
            for x in items)):
        raise SpecViolation(f"{type(obj).__name__} {name} must be {n or 'one'} {'positive ' * positive}"
                            f"number(s) below 1e150 in magnitude, got {reprlib.repr(v)}")
    floats = tuple(float(x) for x in items)
    object.__setattr__(obj, name, floats if n else floats[0])


def _int(obj, name: str, lo: int, hi: float = math.inf) -> None:
    """Store obj.name as an int in [lo, hi]; bool is not an int here."""
    v = getattr(obj, name)
    if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi):
        raise SpecViolation(f"{name} must be an integer in [{lo}, {hi}], got {reprlib.repr(v)}")
    object.__setattr__(obj, name, int(v))


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid: center and semi-axes in mm."""

    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def __post_init__(self):
        _floats(self, "center", 3)
        _floats(self, "semi_axes", 3, positive=True)

    def scaled(self, factor: float) -> "Ellipsoid":
        return Ellipsoid(self.center, tuple(a * factor for a in self.semi_axes))

    def volume_mm3(self) -> float:
        a, b, c = self.semi_axes
        return 4.0 / 3.0 * math.pi * a * b * c


@dataclass(frozen=True)
class SphereCap:
    """Part of a sphere at or above the cap plane z = cap_z (a dome)."""

    center: tuple[float, float, float]
    radius: float
    cap_z: float

    def __post_init__(self):
        _floats(self, "center", 3)
        _floats(self, "radius", positive=True)
        _floats(self, "cap_z")


@dataclass(frozen=True)
class TissueHu:
    air: int = -1000
    lung: int = -800
    soft: int = 0
    heart: int = 40
    diaphragm: int = 50

    def __post_init__(self):
        for f in fields(self):
            _int(self, f.name, HU_MIN, HU_MAX)


# The JSON form: each part of a spec document and its type, and each type's
# JSON keys in constructor order.
_PARTS = {"lung_right": Ellipsoid, "lung_left": Ellipsoid, "torso": Ellipsoid,
          "heart": Ellipsoid, "diaphragm_right": SphereCap, "diaphragm_left": SphereCap,
          "hu": TissueHu}
_KEYS = {Ellipsoid: ("center_mm", "semi_axes_mm"),
         SphereCap: ("center_mm", "radius_mm", "cap_z_mm"),
         TissueHu: ("air", "lung", "soft", "heart", "diaphragm")}


@dataclass(frozen=True)
class PhantomSpec:
    geometry: GridGeometry
    lung_right: Ellipsoid
    lung_left: Ellipsoid
    torso: Ellipsoid | None = None
    heart: Ellipsoid | None = None
    diaphragm_right: SphereCap | None = None
    diaphragm_left: SphereCap | None = None
    hu: TissueHu = field(default_factory=TissueHu)
    rng_seed: int = 0
    annotator_jitter_px: int = 1

    def __post_init__(self):
        _int(self, "rng_seed", 0)
        _int(self, "annotator_jitter_px", 0)
        g = self.geometry
        fov = (g.nx * g.sx, g.ny * g.sy, g.nz * g.sz)
        for name, lung in (("lung_right", self.lung_right), ("lung_left", self.lung_left)):
            for axis in range(3):
                lo = lung.center[axis] - lung.semi_axes[axis]
                hi = lung.center[axis] + lung.semi_axes[axis]
                if lo < 0.0 or hi > fov[axis]:
                    raise SpecViolation(
                        f"{name} extends outside the grid on axis {axis}: "
                        f"[{lo:.3f}, {hi:.3f}] mm vs [0, {fov[axis]:.3f}] mm"
                    )


@dataclass(frozen=True)
class PhantomCase:
    """One phantom: its spec, its truth, and its annotators' 2D masks, which are held.

    volume and the truth masks are built from_source their painters, so
    by grid's one chunk rule each is painted when read, until values or
    packed paints it whole and keeps it. Every part but the spec compares
    by identity.
    """

    spec: PhantomSpec
    volume: VoxelVolume
    truth_right: Mask3D
    truth_left: Mask3D
    sota2d_right: Mask2D
    sota2d_left: Mask2D
    annot2_right: Mask2D
    annot2_left: Mask2D


# --- rasterization -----------------------------------------------------------

def _axis_centers(n: int, s: float) -> np.ndarray:
    return (np.arange(n) + 0.5) * s


@dataclass(frozen=True)
class _Box:
    """A solid's voxel-center test on the whole grid, and the index box where it passes.

    Voxel (z, y, x) of the grid is inside the solid when
    ty[y] + tx[x] <= bounds[z]: the one test every mask, silhouette and
    volume is painted with. zs, ys and xs are derived from it (_box):
    the tightest runs of slices, rows and columns holding every voxel
    that passes. The terms are read-only, and cost nx + ny + nz floats.
    """

    zs: slice
    ys: slice
    xs: slice
    ty: np.ndarray
    tx: np.ndarray
    bounds: np.ndarray

    @property
    def txy(self) -> np.ndarray:
        """The test values of the box's (y, x) columns, made anew on each use."""
        return self.ty[self.ys, None] + self.tx[None, self.xs]


def _run(passes: np.ndarray) -> slice | None:
    """The indices from the first that passes to the last, or None when none does."""
    at = np.flatnonzero(passes)
    return slice(int(at[0]), int(at[-1]) + 1) if at.size else None


def _box(geom: GridGeometry, solid: Ellipsoid | SphereCap | None) -> _Box | None:
    """The solid's test and box, or None when there is no solid or no voxel passes its test.

    Rounding a sum is monotone in each term, so the least test value of
    the grid is ty.min() + tx.min(): slice z holds a voxel that passes
    when that sum is <= bounds[z], and row y (column x) when
    ty[y] + tx.min() (ty.min() + tx[x]) is <= the greatest bound. A dome's
    bounds are -inf below its cap plane.
    """
    if solid is None:
        return None
    cx, cy, cz = solid.center
    zc = _axis_centers(geom.nz, geom.sz)
    # the sphere test is in mm: x / 1.0 is exact
    ux, uy, uz = solid.semi_axes if isinstance(solid, Ellipsoid) else (1.0, 1.0, solid.radius)
    # a semi-axis a few ulps above 0 overflows a term to inf (a bound to -inf): the exact
    # limit of the test, which no voxel center off the solid's center plane passes
    with np.errstate(over="ignore"):  # thread-local, as every errstate is
        tx = ((_axis_centers(geom.nx, geom.sx) - cx) / ux) ** 2
        ty = ((_axis_centers(geom.ny, geom.sy) - cy) / uy) ** 2
        if isinstance(solid, Ellipsoid):
            bounds = 1.0 - ((zc - cz) / uz) ** 2
        else:  # scalar ** is C pow, which can round differently from the array square
            bounds = np.full(geom.nz, -np.inf)
            cap = int(np.searchsorted(zc, solid.cap_z))  # the centers ascend: first at or above
            bounds[cap:] = [uz * uz - (z - cz) ** 2 for z in zc[cap:]]
    zs = _run(ty.min() + tx.min() <= bounds)
    if zs is None:
        return None
    for arr in (ty, tx, bounds):
        arr.flags.writeable = False
    top = bounds.max()
    return _Box(zs, _run(ty + tx.min() <= top), _run(ty.min() + tx <= top), ty, tx, bounds)


def _silhouette(geom: GridGeometry, box: _Box | None) -> np.ndarray:
    """The solid's coronal (nz, nx) silhouette: the OR over y of its voxel test.

    Made in 2D and exact: some y of a column passes ty[y] + tx[x] <= bound
    exactly when ty.min() + tx[x] does, because rounding a sum is
    monotone in each term.
    """
    if box is None:
        return np.zeros((geom.nz, geom.nx), bool)
    return box.ty.min() + box.tx <= box.bounds[:, None]


@dataclass(frozen=True)
class _Sorted:
    """A solid's test (box), with its box's columns sorted by their test value.

    cols holds the box's (y, x) columns as flat int32 indices y * nx + x
    of a grid slice, in ascending txy (ties in any order). At slice z the
    test txy <= bound holds on exactly cols[:counts[z]], where counts[z]
    is searchsorted(sorted txy, bounds[z], "right"): every value <= bound
    sorts before every value > bound, and equal values pass or fail
    together. No voxel outside the box passes, so neither does any off
    the first counts[z] columns. Between slices z - 1 and z only the
    columns between counts[z - 1] and counts[z] change, whichever is
    larger; the bounds need not be monotone. cols and the box's terms
    are read-only and counts a tuple: one sort may serve many cases
    (_sort_solid).
    """

    cols: np.ndarray
    counts: tuple[int, ...]  # one per grid slice
    box: _Box


def _sort(geom: GridGeometry, box: _Box | None) -> _Sorted | None:
    """Sort the box's columns by their test value, once: see _Sorted.

    The int64 argsort is the largest temporary besides txy itself:
    searchsorted reads the sorted values through it, without a copy.
    txy is freed before the columns are built, so the two never meet.
    A slice off the box has every bound below the least txy: count 0.
    """
    if box is None:
        return None
    txy, width = box.txy.ravel(), box.xs.stop - box.xs.start
    order = np.argsort(txy)
    counts = np.searchsorted(txy, box.bounds, "right", sorter=order)
    del txy
    cols = order.astype(np.int32)
    del order
    rows = cols // width  # box-local y * width + x -> the grid slice's y * nx + x
    rows *= geom.nx - width
    cols += rows
    cols += box.ys.start * geom.nx + box.xs.start
    cols.flags.writeable = False
    return _Sorted(cols, tuple(counts.tolist()), box)


# The solids that cohort_case takes unchanged from the base spec, so that every case of a
# cohort shares them; it scales the lungs and the heart of each case.
_COHORT_SOLIDS = ("torso", "diaphragm_right", "diaphragm_left")


# Held around the calls of _sort_solid: lru_cache lets two threads that miss at
# once both compute, so without it both cases of a phantom command's first pair
# would sort the torso. The second waits and then hits.
_SHARED_SORTS = threading.Lock()


@functools.lru_cache(maxsize=len(_COHORT_SOLIDS))
def _sort_solid(geom: GridGeometry, solid: Ellipsoid | SphereCap) -> _Sorted | None:
    """_sort of the solid's box, kept for the cases that share the solid.

    generate_phantom sorts here the torso and the domes, which every
    case of a cohort shares (_COHORT_SOLIDS), so each is sorted once per
    cohort (~0.6 MB of torso columns on the CT grid). Keyed by the frozen
    geometry and solid; a read-only _Sorted carries no state from one
    case to the next. The cache holds one cohort's shared solids and
    nothing more: a heart, scaled anew in every case, is never kept.
    """
    return _sort(geom, _box(geom, solid))


def _painter(blank, step):
    """The fill(out, z0) of grid.z_chunks and z_whole for a painter that goes slice by slice.

    fill paints slices z0 .. z0 + len(out) in place in out and returns
    it. Each slice starts as the slice before it, and step(plane, z)
    then changes the pixels that differ at slice z; slice 0 starts as
    blank. The slice before out[0] is the last one the previous call
    painted. When out[0] is that very slice, as in a one-slice chunk of
    z_chunks' reused buffer (the CT grid), nothing is copied; otherwise
    it is copied forward. Calls follow on in z order, as z_chunks makes
    them, and nothing else writes to out between them (z_chunks hands
    its callers read-only views): out holds the painter's state.
    """
    last = None

    def fill(out: np.ndarray, z0: int) -> np.ndarray:
        nonlocal last
        prev = last
        for k, plane in enumerate(out):
            if prev is None:
                plane[...] = blank
            elif k or not np.may_share_memory(plane, prev):  # one bounds test per chunk
                plane[...] = prev
            step(plane, z0 + k)
            prev = plane
        last = prev
        return out
    return fill


def _truth_painter(geom: GridGeometry, lung: _Sorted):
    """The fill(out, z0) that paints the lung's packed truth slices (Mask3D.packed): see _painter.

    At slice z the voxels of the columns between counts[z - 1] and
    counts[z] enter or leave; each flips bit y % 8 of its byte. Several
    voxels of one byte may flip in one slice, hence np.bitwise_xor.at.
    """
    byte, x = np.divmod(lung.cols, geom.nx)  # byte holds y until it is made the byte index
    bit = np.uint8(1) << (byte & 7).astype(np.uint8)
    byte >>= 3
    byte *= geom.nx
    byte += x
    del x
    counts = (0,) + lung.counts

    def step(plane: np.ndarray, z: int) -> None:
        lo, hi = sorted(counts[z:z + 2])
        if lo < hi:  # plane is a slice of a C-contiguous out: reshape is a view
            np.bitwise_xor.at(plane.reshape(-1), byte[lo:hi], bit[lo:hi])
    return _painter(0, step)


def _lungs_meet(a: _Box, b: _Box) -> bool:
    """Some voxel passes both lungs' tests: looked for only where their boxes overlap."""
    zs, ys, xs = (slice(max(p.start, q.start), min(p.stop, q.stop))
                  for p, q in ((a.zs, b.zs), (a.ys, b.ys), (a.xs, b.xs)))
    if zs.start >= zs.stop or ys.start >= ys.stop or xs.start >= xs.stop:
        return False
    ta, tb = (box.ty[ys, None] + box.tx[None, xs] for box in (a, b))
    return any(((ta <= a.bounds[z]) & (tb <= b.bounds[z])).any() for z in range(zs.start, zs.stop))


# The solids of the HU volume in paint order, each with its HU field.
_PAINT_ORDER = (("torso", "soft"), ("lung_right", "lung"), ("lung_left", "lung"),
                ("heart", "heart"), ("diaphragm_right", "diaphragm"),
                ("diaphragm_left", "diaphragm"))
_LUNGS = ("lung_right", "lung_left")
_OCCLUDERS = ("heart", "diaphragm_right", "diaphragm_left")


# The most change events a volume painter makes at once. A block's intp columns, its HUs
# and the temporaries of its tests take ~0.5 MiB; CT slice 0, where the clipped torso and
# the 10 m heart enter together, has ~96 K events and is cut into 12 blocks. 1 << 14
# paints a CT volume ~15 % faster, but a 4-case CT phantom, two threads painting, then
# peaks ~1 MB higher (ru_maxrss 46.9 against 45.9 MB).
_EVENTS = 1 << 13


def _volume_painter(geom: GridGeometry, air: int, solids: list):
    """The fill(out, z0) that paints the HU volume's (ny, nx) slices: see _painter.

    solids holds one (_Sorted, HU) pair per solid in _PAINT_ORDER, as
    generate_phantom sorted them. A pixel takes the HU of the last solid
    whose test it passes, or air. Between slices only the columns a solid
    gains or loses (see _Sorted) can change, so each slice is the
    slice before it and one put of its change events, (column, HU) pairs,
    each HU found by testing every solid at the event's voxel with
    ty[y] + tx[x] <= bounds[z], the expression _sort ranks by. The events
    are laid out slice by slice and, in a slice, solid by solid, so no
    sort is needed: solid s's events at slice z are its cols between
    counts[z - 1] and counts[z]. They are made a block at a time, whole
    slices of at most _EVENTS events or _EVENTS events of one larger
    slice, which then takes one put per block. A block is one concatenate
    of its pieces of cols, then one vectorized test per solid.
    """
    ns = len(solids)
    counts = np.array([sorted_.counts for sorted_, _ in solids]).T  # (nz, ns)
    before = np.zeros_like(counts)
    before[1:] = counts[:-1]
    first = np.zeros(counts.size + 1, np.intp)  # segment k = z * ns + s: solid s at slice z,
    np.cumsum(np.abs(counts - before), out=first[1:])  # its events [first[k], first[k + 1])
    shift = (np.minimum(before, counts).ravel() - first[:-1]).tolist()  # e is cols[e + shift[k]]
    starts = first[::ns]  # slice z's events: [starts[z], starts[z + 1])
    sources = [sorted_.cols for sorted_, _ in solids]
    block = [0, 0, None, None]  # the events [e0, e1) made, their columns and their HUs

    def make(e0: int, z: int) -> None:  # event e0 is one of slice z's
        e1 = int(starts[np.searchsorted(starts, e0 + _EVENTS, "right") - 1])
        if e1 <= e0:  # slice z has more than _EVENTS events left
            e1 = e0 + _EVENTS
        z1 = int(np.searchsorted(starts, e1))  # slices z .. z1 - 1 have events in the block
        ends = np.clip(first[z * ns:z1 * ns + 1], e0, e1)
        per_slice = np.diff(ends[::ns])
        ends = ends.tolist()
        cols = np.concatenate([sources[k % ns][a + shift[k]:b + shift[k]]
                               for k, a, b in zip(range(z * ns, z1 * ns), ends, ends[1:]) if a < b],
                              dtype=np.intp)
        y, x = np.divmod(cols, geom.nx)
        hu = np.full(e1 - e0, air, np.int16)
        for sorted_, value in solids:  # in paint order: the last solid passed wins
            box = sorted_.box
            if box.zs.start < z1 and z < box.zs.stop:  # else no voxel of the block passes
                t = box.ty.take(y)
                t += box.tx.take(x)
                np.copyto(hu, value, where=t <= np.repeat(box.bounds[z:z1], per_slice))
        block[:] = e0, e1, cols, hu

    starts_list = starts.tolist()

    def step(plane: np.ndarray, z: int) -> None:
        e, end = starts_list[z], starts_list[z + 1]
        while e < end:  # more than once only for a slice of more than _EVENTS events
            if e >= block[1]:
                make(e, z)
            e0, e1, cols, hu = block
            stop = min(end, e1)
            plane.put(cols[e - e0:stop - e0], hu[e - e0:stop - e0])  # flat y * nx + x indices
            e = stop
    return _painter(air, step)


# --- annotator jitter ---------------------------------------------------------

def _grow(bits: np.ndarray, radius: int, outside: bool) -> np.ndarray:
    """4-neighbour dilation of a 2D mask, radius times; off-array pixels read as outside.

    The pad of width radius stands in for the off-array pixels of every
    step; a path through it is never shorter than one inside the array.
    """
    grown = np.pad(bits, radius, constant_values=outside)
    for _ in range(radius):
        step = grown.copy()
        step[1:] |= grown[:-1]
        step[:-1] |= grown[1:]
        step[:, 1:] |= grown[:, :-1]
        step[:, :-1] |= grown[:, 1:]
        grown = step
    return grown[radius:radius + bits.shape[0], radius:radius + bits.shape[1]]


def _jitter_bits(bits: np.ndarray, radius: int, rng: np.random.Generator) -> np.ndarray:
    """Flip boundary-band pixels independently; at least one pixel changes.

    The band is the radius-dilation minus the radius-erosion, both with
    off-array pixels as background: erosion is ~_grow(~bits, radius, True).
    """
    if radius == 0:
        return bits.copy()
    # at nz + nx the band is already every pixel a larger radius could reach
    radius = min(radius, bits.shape[0] + bits.shape[1])
    band = _grow(bits, radius, False) & _grow(~bits, radius, True)
    idx = np.flatnonzero(band)
    out = bits.copy().ravel()
    if idx.size:
        flips = rng.random(idx.size) < JITTER_FLIP_PROB
        if not flips.any():
            flips[0] = True  # keep "strictly less than 1 when jitter > 0" seed-proof
        out[idx[flips]] = ~out[idx[flips]]
    return out.reshape(bits.shape)


# --- generation ---------------------------------------------------------------

def generate_phantom(spec: PhantomSpec) -> PhantomCase:
    """Paint the spec's 2D annotator masks; its volume and truth masks are painted when read.

    Every SpecViolation comes from here, before any solid is sorted or
    any volume or truth slice is painted. Here, and only here, are a
    case's solids sorted: the lungs and the heart from their boxes, the
    torso and the domes through _sort_solid. The painters take the sorts.
    """
    g = spec.geometry
    boxes = {name: _box(g, getattr(spec, name)) for name in _LUNGS + _OCCLUDERS}
    sota_r_bits, sota_l_bits = (_silhouette(g, boxes[name]) for name in _LUNGS)
    if not sota_r_bits.any() or not sota_l_bits.any():
        raise SpecViolation("a lung rasterizes to zero voxels at this resolution")
    if _lungs_meet(*(boxes[name] for name in _LUNGS)):
        raise SpecViolation("lungs intersect")

    occ_sil = np.zeros((g.nz, g.nx), dtype=bool)
    for name in _OCCLUDERS:
        occ_sil |= _silhouette(g, boxes[name])
    sota_r_bits &= ~occ_sil
    sota_l_bits &= ~occ_sil
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.rng_seed)))
    annot2_r = _jitter_bits(sota_r_bits, spec.annotator_jitter_px, rng)  # right drawn first
    annot2_l = _jitter_bits(sota_l_bits, spec.annotator_jitter_px, rng)

    with _SHARED_SORTS:
        sorts = {name: _sort_solid(g, getattr(spec, name)) for name in _COHORT_SOLIDS
                 if getattr(spec, name) is not None}
    sorts.update((name, _sort(g, boxes[name])) for name in _LUNGS + ("heart",))
    solids = [(sorts[name], getattr(spec.hu, tissue)) for name, tissue in _PAINT_ORDER
              if sorts.get(name) is not None]

    def m2d(bits: np.ndarray, label: str) -> Mask2D:
        return Mask2D(g.nx, g.nz, g.sx, g.sz, bits, label)

    return PhantomCase(
        spec=spec,
        volume=VoxelVolume.from_source(g, functools.partial(_volume_painter, g, spec.hu.air,
                                                            solids)),
        truth_right=Mask3D.from_source(g, functools.partial(_truth_painter, g, sorts["lung_right"]),
                                       "right"),
        truth_left=Mask3D.from_source(g, functools.partial(_truth_painter, g, sorts["lung_left"]),
                                      "left"),
        sota2d_right=m2d(sota_r_bits, "right"),
        sota2d_left=m2d(sota_l_bits, "left"),
        annot2_right=m2d(annot2_r, "right"),
        annot2_left=m2d(annot2_l, "left"),
    )


# --- analytic oracle ----------------------------------------------------------

# Gauss-Legendre rule applied on every panel.
_GL_T, _GL_W = np.polynomial.legendre.leggauss(24)


def _shadow(occ: Ellipsoid | SphereCap, lung: Ellipsoid) -> tuple[float, ...]:
    """Occluder silhouette in the lung frame u = (x-cx)/ax, w = (z-cz)/az.

    Returns (u0, a, w0, c, w_cut): the ellipse ((u-u0)/a)^2 + ((w-w0)/c)^2 <= 1,
    cut below at w = w_cut (-inf for the heart, the cap plane for a dome).
    """
    (lx, _, lz), (lax, _, laz) = lung.center, lung.semi_axes
    if isinstance(occ, Ellipsoid):
        (x, _, z), (sx, _, sz), cut = occ.center, occ.semi_axes, -math.inf
    else:
        (x, _, z), sx, sz, cut = occ.center, occ.radius, occ.radius, occ.cap_z
    return (x - lx) / lax, sx / lax, (z - lz) / laz, sz / laz, (cut - lz) / laz


def _crossings(p: tuple, q: tuple) -> list[float]:
    """u of every point where the outlines of ellipses p, q = (u0, a, w0, c) meet.

    p's boundary at angle phi, put into q's implicit equation, is a
    degree-2 trigonometric polynomial; times z^2 with z = exp(i phi) it is
    a quartic in z whose roots on the unit circle are the crossings.
    """
    u0, a, w0, c = p
    du, ca = (u0 - q[0]) / q[1], a / q[1]
    dw, cc = (w0 - q[2]) / q[3], c / q[3]
    quad = (ca * ca - cc * cc) / 4.0
    lin = complex(du * ca, -dw * cc)
    mid = du * du + dw * dw + (ca * ca + cc * cc) / 2.0 - 1.0
    z = np.roots([quad, lin, mid, lin.conjugate(), quad])
    # near-tangent roots drift off the circle; a spare panel end is harmless
    z = z[np.abs(np.abs(z) - 1.0) < 1e-6]
    return list(u0 + a * (z.real / np.abs(z)))


def _breakpoints(shadows: list) -> np.ndarray:
    """Panel ends in u: lung edge, x-extents, cap-plane chord ends, edge crossings."""
    ellipses = [(0.0, 1.0, 0.0, 1.0)] + [s[:4] for s in shadows]
    points = []
    for i, (u0, a, w0, c) in enumerate(ellipses):
        points += [u0 - a, u0 + a]
        for *_, cut in shadows:
            if abs(cut - w0) < c:
                half = a * math.sqrt(1.0 - ((cut - w0) / c) ** 2)
                points += [u0 - half, u0 + half]
        for other in ellipses[i + 1:]:
            points += _crossings((u0, a, w0, c), other)
    return np.unique(np.clip(points, -1.0, 1.0))


def _chord_integral(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """G(w) = integral of sqrt(k^2 - t^2) dt from 0 to w, for |w| <= k."""
    r = np.divide(w, k, out=np.zeros_like(w), where=k > 0.0)
    return 0.5 * (w * np.sqrt(k * k - w * w) + k * k * np.arcsin(r))


@functools.lru_cache(maxsize=64)
def _lung_fraction(lung: Ellipsoid, occluders: tuple) -> float:
    """Obscured fraction of one lung: the volume whose (x, z) falls in a shadow.

    In the lung frame the lung is the unit ball. At fixed u its coronal
    chord is |w| <= k = sqrt(1 - u^2), with y-depth 2 sqrt(k^2 - w^2); each
    occluder's silhouette gives one z-interval, clipped to the chord.
    The inner integral over the gaps between the merged intervals is
    closed form; the outer one uses Gauss-Legendre on panels between the
    breakpoints, mapped u = mid + half sin(pi t / 2) so that square-root
    edges at panel ends become smooth. Obscured and total volume are
    summed on the same nodes, so a missed lung is exactly 0.0 and a fully
    shadowed one exactly 1.0. Cached: a pure function of hashable frozen
    specs, so the "both" oracle of a case reuses its two sides. A shadow
    whose width or height is 0 in the lung frame (an occluder so much
    smaller than the lung that the ratio underflows) covers no area, and
    is left out.
    """
    shadows = [s for s in (_shadow(occ, lung) for occ in occluders) if s[1] > 0 and s[3] > 0]
    b = _breakpoints(shadows)
    mid, half = (b[1:, None] + b[:-1, None]) / 2.0, (b[1:, None] - b[:-1, None]) / 2.0
    u = (mid + half * np.sin(0.5 * np.pi * _GL_T)).ravel()
    weight = (half * (0.5 * np.pi) * np.cos(0.5 * np.pi * _GL_T) * _GL_W).ravel()
    k = np.sqrt(1.0 - u * u)
    u0, a, w0, c, cut = (col[:, None] for col in np.reshape(shadows, (-1, 5)).T)
    h = c * np.sqrt(np.maximum(1.0 - ((u - u0) / a) ** 2, 0.0))  # 0 off the x-extent
    lo = np.clip(np.maximum(w0 - h, cut), -k, k)
    hi = np.clip(w0 + h, -k, k)
    # an empty or inverted (dome cut above its top) interval moves to the top of the
    # chord: it covers nothing there, and a missed lung stays exactly 0
    empty = ~(hi > lo)
    lo, hi = np.where(empty, k, lo), np.where(empty, k, hi)
    order = np.argsort(lo, axis=0)
    reach, gaps = -k, np.zeros_like(u)
    for lo_i, hi_i in zip(np.take_along_axis(lo, order, 0), np.take_along_axis(hi, order, 0)):
        gaps += _chord_integral(np.maximum(lo_i, reach), k) - _chord_integral(reach, k)
        reach = np.maximum(reach, hi_i)
    top = _chord_integral(k, k)
    gaps += top - _chord_integral(reach, k)
    total = top - _chord_integral(-k, k)
    return float(np.dot(weight, total - gaps) / np.dot(weight, total))


def analytic_obscured_fraction(spec: PhantomSpec, side: str) -> float:
    """Fraction in [0, 1] of the lung ellipsoid(s) inside the occluders' coronal shadow.

    Any mix of heart ellipsoid and diaphragm domes is covered; the value
    is the continuous (unvoxelized) fraction, within ~1e-9 of adaptive
    quadrature on the built-in families.
    Each lung is integrated once (_lung_fraction is cached on the lung and
    its occluders), and "both" is the volume-weighted mean of the sides.
    """
    occluders = tuple(o for o in (spec.heart, spec.diaphragm_right, spec.diaphragm_left)
                      if o is not None)
    if side in ("right", "left"):
        return _lung_fraction(getattr(spec, f"lung_{side}"), occluders)
    if side != "both":
        raise ValueError(f"side must be right, left or both, got {side!r}")
    vr, vl = spec.lung_right.volume_mm3(), spec.lung_left.volume_mm3()
    fr, fl = (analytic_obscured_fraction(spec, s) for s in ("right", "left"))
    return (vr * fr + vl * fl) / (vr + vl)


def oracle_tolerance_pct(spec: PhantomSpec, side: str) -> float:
    """Voxelization tolerance (percentage points) for oracle comparisons.

    A band edge can land anywhere within half a voxel of its analytic
    position; the cap-fraction derivative along the normalized axis is
    at most 3/4, so the edge term is bounded by
    100 * (3/4) * (sx/2) / semi_x. A flat 0.5-point term covers surface
    sampling noise on the curved boundary. Shrinks with resolution.
    """
    if side == "both":
        return max(oracle_tolerance_pct(spec, "right"), oracle_tolerance_pct(spec, "left"))
    if side not in ("right", "left"):
        raise ValueError(f"side must be right, left or both, got {side!r}")
    lung = getattr(spec, f"lung_{side}")
    return 100.0 * 0.375 * spec.geometry.sx / lung.semi_axes[0] + 0.5


# --- built-in specs -----------------------------------------------------------

# Generator defaults for JSON specs that omit "geometry" (CT-scale grid).
DEFAULT_JSON_GEOMETRY = GridGeometry(512, 512, 244, 0.66, 0.66, 1.25)


def default_spec(rng_seed: int = 0, annotator_jitter_px: int = 1) -> PhantomSpec:
    """Desk-scale cohort phantom with a slab-like mediastinum occluder.

    The mediastinal ellipsoid is made extremely tall (z semi-axis 10 m)
    so its coronal shadow crosses each lung as a nearly straight vertical
    band. Band edges sit at 112.5 and 200.0 mm; with 55 mm lung semi-axes
    at x = 98/222 mm that yields base fractions of about 30.7% (left) and
    21.6% (right).
    """
    return PhantomSpec(
        geometry=GridGeometry(128, 128, 128, 2.5, 2.5, 2.5),
        lung_right=Ellipsoid((222.0, 160.0, 175.0), (55.0, 75.0, 105.0)),
        lung_left=Ellipsoid((98.0, 160.0, 175.0), (55.0, 75.0, 105.0)),
        torso=Ellipsoid((160.0, 160.0, 160.0), (150.0, 105.0, 260.0)),
        heart=Ellipsoid((156.25, 160.0, 160.0), (43.75, 80.0, 10000.0)),
        rng_seed=rng_seed,
        annotator_jitter_px=annotator_jitter_px,
    )


def anatomical_spec(rng_seed: int = 0, annotator_jitter_px: int = 1) -> PhantomSpec:
    """Phantom with a compact heart and diaphragm domes: curved shadow edges."""
    return PhantomSpec(
        geometry=GridGeometry(128, 128, 128, 2.5, 2.5, 2.5),
        lung_right=Ellipsoid((222.0, 160.0, 175.0), (55.0, 75.0, 105.0)),
        lung_left=Ellipsoid((98.0, 160.0, 175.0), (55.0, 75.0, 105.0)),
        torso=Ellipsoid((160.0, 160.0, 160.0), (150.0, 105.0, 260.0)),
        heart=Ellipsoid((135.0, 180.0, 110.0), (48.0, 42.0, 50.0)),
        diaphragm_right=SphereCap((222.0, 160.0, 30.0), 75.0, 80.0),
        diaphragm_left=SphereCap((98.0, 160.0, 20.0), 75.0, 78.0),
        rng_seed=rng_seed,
        annotator_jitter_px=annotator_jitter_px,
    )


NAMED_SPECS = {"default": default_spec, "anatomical": anatomical_spec}


# --- cohorts ------------------------------------------------------------------

def cohort_case(base: PhantomSpec, index: int, seed: int,
                perturb_pct: float = 15.0) -> PhantomCase:
    """Generate one cohort member: lung/heart sizes scaled within +-perturb_pct.

    Case index i at attempt a draws its scale factors from PCG64 seeded
    with SeedSequence(seed, spawn_key=(i, a)), so the result depends
    only on (base, index, seed, perturb_pct), never on scheduling. The
    jitter seed becomes base.rng_seed + index, so index 0 at zero
    perturbation reproduces generate_phantom(base) bit for bit. A draw
    that violates spec invariants (or rasterizes a lung away) retries on
    the next attempt substream, at most MAX_COHORT_RETRIES times.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    if not (0.0 <= perturb_pct < 100.0):
        raise ValueError("perturb_pct must be in [0, 100)")
    scale = perturb_pct / 100.0
    last_error = ""
    for attempt in range(MAX_COHORT_RETRIES):
        ss = np.random.SeedSequence(seed, spawn_key=(index, attempt))
        rng = np.random.Generator(np.random.PCG64(ss))
        f_right, f_left, f_heart = rng.uniform(1.0 - scale, 1.0 + scale, size=3)
        try:
            candidate = replace(
                base,
                lung_right=base.lung_right.scaled(f_right),
                lung_left=base.lung_left.scaled(f_left),
                heart=base.heart.scaled(f_heart) if base.heart is not None else None,
                rng_seed=base.rng_seed + index,
            )
            return generate_phantom(candidate)
        except SpecViolation as exc:
            # the message only: the exception's traceback and the frame holding it
            # would form a cycle that keeps the failed attempt's masks until a gc pass
            last_error = str(exc)
    raise SpecViolation(
        f"case {index}: no valid perturbation in {MAX_COHORT_RETRIES} attempts: {last_error}"
    )


def generate_cohort(base: PhantomSpec, n: int, seed: int,
                    perturb_pct: float = 15.0) -> list[PhantomCase]:
    """n perturbed cases, deterministic given (base, n, seed, perturb_pct).

    The list holds each case's 2D masks and its lungs' and heart's sorted
    columns, not its volume or its truth masks: those are painted from the
    columns only when read (grid.VoxelVolume.from_source,
    Mask3D.from_source), and cached on their case only when read whole.
    """
    if n < 1:
        raise ValueError("cohort size must be at least 1")
    return [cohort_case(base, i, seed, perturb_pct) for i in range(n)]


# --- JSON form ----------------------------------------------------------------

def spec_to_dict(spec: PhantomSpec) -> dict:
    g = spec.geometry
    out: dict = {"geometry": {"dims": [g.nx, g.ny, g.nz], "spacing_mm": [g.sx, g.sy, g.sz]},
                 "rng_seed": spec.rng_seed, "annotator_jitter_px": spec.annotator_jitter_px}
    for name, cls in _PARTS.items():
        part = getattr(spec, name)
        if part is not None:
            out[name] = {key: list(v) if isinstance(v, tuple) else v
                         for key, v in zip(_KEYS[cls], astuple(part))}
    return out


def _object(doc, keys, required, where: str) -> dict:
    """doc, once it is a JSON object with every required key and no other key."""
    if not isinstance(doc, dict):
        raise SpecViolation(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown, missing = sorted(set(doc) - set(keys)), sorted(set(required) - set(doc))
    if unknown or missing:
        raise SpecViolation(f"{where}: unknown keys {unknown}, missing keys {missing} "
                            f"(keys: {', '.join(keys)})")
    return doc


def spec_from_dict(doc: dict) -> PhantomSpec:
    """Parse the JSON spec form; omitted geometry defaults to the CT-scale grid.

    Only the document's structure is checked here: an object at every
    level, no unknown key, every required key. The values are checked by
    the types they build.
    """
    _object(doc, [f.name for f in fields(PhantomSpec)], ("lung_right", "lung_left"),
            "phantom spec")
    kwargs = {"geometry": DEFAULT_JSON_GEOMETRY, **doc}
    if "geometry" in doc:
        gd = _object(doc["geometry"], ("dims", "spacing_mm"), ("dims", "spacing_mm"), "geometry")
        if not all(isinstance(v, list) and len(v) == 3 for v in gd.values()):
            raise SpecViolation("geometry: dims and spacing_mm must each list 3 values")
        try:
            kwargs["geometry"] = GridGeometry(*gd["dims"], *gd["spacing_mm"])
        except ValueError as exc:
            raise SpecViolation(f"geometry: {exc}") from exc
    for name, cls in _PARTS.items():
        if name in doc:
            pairs = list(zip(_KEYS[cls], fields(cls)))
            required = [k for k, f in pairs if f.default is MISSING]
            part = _object(doc[name], _KEYS[cls], required, name)
            try:
                kwargs[name] = cls(**{f.name: part[k] for k, f in pairs if k in part})
            except SpecViolation as exc:
                raise SpecViolation(f"{name}: {exc}") from exc
    return PhantomSpec(**kwargs)
