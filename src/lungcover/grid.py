"""Voxel-grid domain types shared by every stage of the pipeline.

Axis convention: x runs left-right, y runs anterior-posterior (the
projection axis), z runs cranio-caudal. The coronal plane is x-z.
Arrays are stored C-contiguous with shape (nz, ny, nx), so the flat
element order is x-fastest, then y, then z: offset = x + nx*(y + ny*z).
2D coronal arrays use shape (nz, nx) with the same x-fastest order.
A 3D mask keeps one bit per voxel: 8 consecutive y voxels of a column
share one byte (numpy's packbits along y, bitorder="little"), so the
column counts the covered/obscured split needs are a popcount summed
over y.

All types are immutable: constructors take ownership of the array and
mark it read-only. So a value derived from a mask's bits, such as
``Mask3D.column_counts``, is cached on the mask and cannot go stale.

A volume (VoxelVolume) or a 3D mask (Mask3D) is held, built from its
array, or built ``from_source``: source() returns a fresh fill(out, z0)
of z-slices (z_chunks), a phantom's painter or a file's payload reader.
One chunk rule serves both (_ZArray): once the whole array is held
(built held, or filled whole by ``values`` / ``packed``, which cache
it), chunks() yields z_views of it; otherwise z_chunks of a new fill, in
one buffer that the next chunk overwrites, so the array is never held
on the way to a file, a DRR or a column count. The repr of either shows
no array, and both compare (and hash) by identity.

Every 2D answer (the DRR's column sums, a mask's column counts, the
intersection counts of two masks) is one fold over the chunks, fold_y.
A seekable array, held or read by a file's positional reader, of at
least the floor is folded in two z-halves at once, as a pair of
in_pairs. A painter paints each slice from the one before it, so it is
not seekable, and its array is folded in one pass; so is a smaller
array.

in_pairs is the one place a thread starts, and _paired is its one
floor, _SPLIT_BYTES (6 MiB): two items run at once, on two cores, only
when each streams at least that many bytes. It has two users, fold_y's
z-halves and the phantom command's cases. So a CT-grid volume or truth
mask is folded in two threads, and CT-grid cases are made two at a
time. Every array and case of a 128^3 desk cohort is made or folded
whole, one at a time, in the caller's thread: there a thread start, a
second buffer and a second malloc arena cost more than a second core
saves. A caller may give in_pairs an ahead step, as the phantom command
does to create a case's temp files: below the floor one worker thread
runs it one item ahead of the caller, so the next case's files are
created while this one paints.
"""

from __future__ import annotations

import math
import reprlib
import sys
import threading
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

HU_MIN = -1024
HU_MAX = 3071

LABELS = ("right", "left", "both")


def _freeze(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def is_finite_number(v) -> bool:
    """A finite Python or numpy number: json reads NaN, Infinity and huge ints; bool is an int."""
    if isinstance(v, np.generic):
        v = v.item()  # numpy would compare float16(inf) with float max cast to float16: inf
    return (isinstance(v, (int, float, np.floating)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


# The rules every size, spacing and label obeys, whether it comes from Python,
# a phantom spec or a file header: each value passes or raises ValueError,
# whose message shows the value abridged by reprlib (a spec or header value
# may be a list nested hundreds deep).

def check_size(name: str, n) -> None:
    # bool is a subclass of int
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {reprlib.repr(n)}")


def check_spacing(name: str, s) -> None:
    if not (is_finite_number(s) and s > 0):
        raise ValueError(f"{name} must be positive and finite, got {reprlib.repr(s)}")


def check_label(label) -> None:
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {reprlib.repr(label)}")


# A volume or a packed mask is painted, read, range-checked, counted and
# summed in z-chunks of about this many bytes (at least one slice): each
# chunk stays in cache from the pass that fills it to the passes that use
# it. The one depth rule of every volume and 3D mask kind.
_CHUNK_BYTES = 1 << 19


# The one floor of in_pairs (_paired): two items run at once only when each streams
# at least this many bytes. Its two users:
# - fold_y, whose item is a z-half of a seekable array (held, or read from a
#   file) and whose size is the whole array's: the 128 MB volume and 7.6 MiB
#   packed truth masks of the 512 x 512 x 244 CT grid fold in two threads.
#   Folding every 4 MiB desk volume in halves made 55 desk render_drr calls 35 %
#   slower on two CPUs (12-16 % pinned to one): each call paid a thread start and
#   a second buffer.
# - the phantom command, whose item is a case and whose size is the case's
#   volume, 2 * voxel_count bytes: CT-grid cases pair, which cut `ct` phantom_s
#   31 % (BENCH_25.json). The 4 MiB cases of the 55-case desk cohort run one at a
#   time: paired, their worker threads' malloc arena raised the peak by ~1.4 MB, at
#   a third more CPU time and ~18 K context switches, for a wall time within ~10 %
#   either way (BENCH_31.json). At 32 MB (256 x 256 x 244) pairing was even in wall
#   time and cost ~1.6 MB of peak. Below the floor, the one worker of the command's
#   ahead step creates case i + 1's directory and 14 temp files while case i paints:
#   creating files took ~40 % of a desk phantom on an ext4 VM disk, and hiding it cut
#   `desk` phantom_s 34 % (BENCH_33.json). At or above the floor each case of a pair
#   creates its own, with no third thread, whose malloc arena was measured to raise
#   `ct` peak_rss_mb by ~2 MB.
_SPLIT_BYTES = 6 << 20


def _paired(nbytes: int) -> bool:
    """Whether two items that each stream nbytes run at once (in_pairs, fold_y's split)."""
    return nbytes >= _SPLIT_BYTES


def chunk_depth(slice_bytes: int) -> int:
    """Slices per z-chunk when one slice takes slice_bytes: ~_CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // slice_bytes)


def z_chunks(shape: tuple[int, ...], dtype, fill, z0: int = 0, z1: int | None = None):
    """Yield an array's z-chunks of slices [z0, z1) in order, in one buffer the next overwrites.

    shape is (nz, *slice shape): (nz, ny, nx) int16 for a volume,
    GridGeometry.packed_zyx uint8 for a packed 3D mask; z1 None is nz.
    fill(out, z) writes slices z .. z + len(out) into out and returns it;
    out holds chunk_depth slices, fewer at the end. Each chunk is yielded
    as a read-only view: the buffer is fill's alone (a phantom painter
    paints each chunk from the slice it left there), so a caller's write
    raises.
    """
    nz = shape[0] if z1 is None else z1
    plane = tuple(shape[1:])
    depth = chunk_depth(math.prod(plane) * np.dtype(dtype).itemsize)
    buf = np.empty((min(depth, nz - z0), *plane), dtype)
    for z in range(z0, nz, depth):
        chunk = fill(buf[:nz - z], z).view()
        chunk.flags.writeable = False
        yield chunk


def z_whole(shape: tuple[int, ...], dtype, fill) -> np.ndarray:
    """z_chunks' whole-array counterpart: fill(out, 0) of a new array of that shape, read-only.

    The values or packed bytes, for library callers, of a volume or mask painted or read by chunk.
    """
    out = fill(np.empty(shape, dtype), 0)
    out.flags.writeable = False
    return out


def z_views(arr: np.ndarray):
    """Yield views of a held (nz, ...) array's z-chunks in order, by the same depth rule."""
    depth = chunk_depth(arr[0].nbytes)
    return (arr[z:z + depth] for z in range(0, len(arr), depth))


class _ZArray:
    """A volume's or a 3D mask's (nz, ...) array, held or filled from its source by z-chunk.

    The one chunk rule of both kinds. A subclass names the cached
    property that holds the whole array (_WHOLE) and gives its shape and
    dtype (_layout); from_source sets _source and _seeks.
    """

    _WHOLE: str

    def chunks(self, z0: int = 0, z1: int | None = None):
        """The array's z-chunks of slices [z0, z1) in order (z1 None: nz), ~512 KB of slices each.

        z_views of the array once it is held, else z_chunks of a new
        fill. Only a seekable array (_seekable) is asked for chunks from
        a z0 other than 0, and z0 is then on a chunk boundary.
        """
        held = vars(self).get(self._WHOLE)
        if held is not None:
            return z_views(held[z0:z1])
        return z_chunks(*self._layout, self._source(), z0, z1)

    def _seekable(self) -> bool:
        """Whether chunks may start at any chunk boundary and run beside another thread's.

        True of a held array and of a file's positional reader; not of a
        painter, whose chunks come only in z order from slice 0, each slice
        painted from the one before it.
        """
        return self._WHOLE in vars(self) or self._seeks


def sum_y(chunks, out: np.ndarray, folds: int = 0) -> np.ndarray:
    """Sum each z-chunk along axis 1 into its rows of out, in out's dtype; return out.

    chunks are the z-chunks of one (nz, n, nx) array in order, and out
    is (nz, nx): every consumer of a 2D answer folds over them this way,
    so only one chunk is held.

    folds > 0 first adds the two halves of each chunk's rows in the
    chunk's own dtype, folds times, into one scratch buffer of half the
    deepest chunk, and widens only the n / 2**folds rows left; the row
    a level of odd count leaves over is added to out's rows at the end.
    Each value left is then a sum of 2**folds values, so the caller
    passes folds only where that sum cannot overflow the chunk's dtype.
    """
    z = 0
    scratch = None
    for chunk in chunks:
        rows = out[z:z + len(chunk)]
        z += len(chunk)
        leftovers = []
        for _ in range(folds):
            n = chunk.shape[1]
            if n < 2:
                break
            if scratch is None or len(scratch) < len(chunk):
                scratch = np.empty((len(chunk), n // 2, chunk.shape[2]), chunk.dtype)
            if n % 2:  # row n - 1, which the next levels (rows < n // 2) do not overwrite
                leftovers.append(chunk[:, n - 1])
            chunk = np.add(chunk[:, :n // 2], chunk[:, n // 2:n - n % 2],
                           out=scratch[:len(chunk), :n // 2])
        chunk.sum(axis=1, dtype=out.dtype, out=rows)
        for row in leftovers:
            rows += row
    return out


def in_pairs(fn, items, nbytes: int, ahead=None):
    """Yield fn(item) for each item of a sequence in order, two at once if _paired(nbytes).

    nbytes is what one item streams: a phantom case's volume, or the whole
    array of a fold. Below the floor this is a plain loop in this thread.
    At or above it, fn(items[2k + 1]) runs in a new worker thread while
    fn(items[2k]), or a last odd item, runs in this one; both end before
    either result is yielded. The error is a plain loop's: the lower item's
    if it raises, else the upper item's, raised after the lower result is
    yielded.

    An ahead step is work that fn(item, value) would otherwise do itself,
    which ahead(item) does beforehand and returns as value. Below the floor,
    one worker thread (_one_ahead) runs the ahead steps in item order, at
    most one item ahead: ahead(items[i + 1]) runs while fn(items[i],
    value) runs in this thread. Each value is closed (its close()) once fn
    ends or raises with it, or once its item is known never to run; an
    error of ahead(items[i]) is raised after items < i are yielded, as a
    plain loop would raise it. At or above the floor, where there are two
    threads already, no ahead step runs: fn(item, None) does the work.
    """
    if ahead is not None:
        if not _paired(nbytes):
            yield from _one_ahead(fn, ahead, items)
            return
        fn = partial(_without_ahead, fn)
    if not _paired(nbytes):
        yield from map(fn, items)
        return
    for k in range(0, len(items), 2):
        upper, failed = [], []  # the upper item's result or error, once its worker ends

        def run(item) -> None:
            try:
                upper.append(fn(item))
            except BaseException as exc:  # raised in the caller's thread, after the lower item
                failed.append(exc)
        workers = [threading.Thread(target=run, args=(item,), name="lungcover-pair")
                   for item in items[k + 1:k + 2]]  # none for a last odd item
        for worker in workers:
            worker.start()
        try:
            lower = fn(items[k])
        finally:  # the upper item ends before an error of the lower one is raised
            for worker in workers:
                worker.join()
        yield lower
        if failed:
            raise failed[0]
        yield from upper


def _without_ahead(fn, item):
    """fn(item, None): an item at or above the floor, which does its ahead step's work itself."""
    return fn(item, None)


def _one_ahead(fn, ahead, items):
    """in_pairs' loop below the floor with an ahead step, which one worker runs one item ahead.

    The worker appends each item's (ahead(item), None) to ready, or
    (None, error) and stops; this thread takes them in item order. An
    item's value stays first in ready until its fn returns, so once the
    worker has ended, each value still in ready (a failed item's and the
    one made for the item after it) is closed, the later one first.
    """
    ready, made, wanted = [], threading.Semaphore(0), threading.Semaphore(1)
    stopped = False

    def run() -> None:
        for item in items:
            wanted.acquire()  # once per item this thread has taken, and once to start
            if stopped:
                return
            try:
                ready.append((ahead(item), None))
            except BaseException as exc:  # raised in the caller's thread, at its item
                ready.append((None, exc))
                return
            finally:
                made.release()

    worker = threading.Thread(target=run, name="lungcover-ahead")
    worker.start()
    try:
        for item in items:
            made.acquire()
            prepared, error = ready[0]
            if error is not None:
                raise error
            wanted.release()  # the worker prepares the next item while fn runs
            result = fn(item, prepared)
            ready.pop(0)
            prepared.close()
            yield result
    finally:
        stopped = True
        wanted.release()
        worker.join()
        for prepared, _ in reversed(ready):
            if prepared is not None:
                prepared.close()


def fold_y(arrays, out: np.ndarray, op=None, folds: int = 0) -> np.ndarray:
    """sum_y of op(*chunks, out=buf) over the arrays' z-chunks into out, (nz, nx); return out.

    arrays are volumes or 3D masks of one grid and kind. op writes the
    (depth, n, nx) chunk summed, made from one z-chunk of each array, into
    buf and returns it (a ufunc such as np.bitwise_count); buf is one
    buffer of the arrays' chunk shape and dtype per span, which every chunk
    of the span overwrites. None takes the one array's chunk as it is. The
    one fold of every 2D answer.

    When every array is seekable (_ZArray._seekable) and _paired, [0, mid)
    and [mid, nz) are folded at once as a pair of in_pairs, in two threads
    and buffers (mid: the chunk boundary at or past nz / 2; the reads,
    checks and folds release the GIL). Else [0, nz) is folded in this
    thread. out and any error (the lower half's) are a single pass's.
    """
    shape, dtype = arrays[0]._layout
    nz, slice_bytes = shape[0], math.prod(shape[1:]) * np.dtype(dtype).itemsize
    depth = chunk_depth(slice_bytes)
    mid = depth * -(-nz // (2 * depth))

    def fold(span: tuple[int, int]) -> None:
        parts = [a.chunks(*span) for a in arrays]
        if op is None:
            chunks = parts[0]
        else:
            buf = np.empty((min(depth, span[1] - span[0]), *shape[1:]), dtype)
            chunks = (op(*each, out=buf[:len(each[0])]) for each in zip(*parts))
        sum_y(chunks, out[slice(*span)], folds)

    nbytes, spans = nz * slice_bytes, [(0, nz)]
    if mid < nz and _paired(nbytes) and all(a._seekable() for a in arrays):
        spans = [(0, mid), (mid, nz)]
    list(in_pairs(fold, spans, nbytes))  # each span's fold fills its rows of out
    return out


def _within_hu(raw: np.ndarray) -> bool:
    """Every value of a (nz, ny, nx) array lies in [HU_MIN, HU_MAX]; NaN does not.

    The max pass reads each z-chunk while the min pass has left it in
    cache, so the array streams from memory once.
    """
    return all(HU_MIN <= block.min() and block.max() <= HU_MAX for block in z_views(raw))


@dataclass(frozen=True)
class GridGeometry:
    """Grid dims (int voxel counts; their product fits np.intp) and per-axis spacing (float mm)."""

    nx: int
    ny: int
    nz: int
    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            check_size(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("sx", "sy", "sz"):
            check_spacing(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.voxel_count > np.iinfo(np.intp).max:  # numpy's own indexing limit
            raise ValueError(f"dims {self.nx} x {self.ny} x {self.nz}: too many voxels for numpy")

    @property
    def shape_zyx(self) -> tuple[int, int, int]:
        return (self.nz, self.ny, self.nx)

    @property
    def packed_zyx(self) -> tuple[int, int, int]:
        """Shape of a 3D mask's packed bits (Mask3D.packed): 8 y voxels per byte."""
        return (self.nz, -(-self.ny // 8), self.nx)

    @property
    def voxel_count(self) -> int:
        return self.nx * self.ny * self.nz


def voxel_volume_ml(geometry: GridGeometry) -> float:
    """Volume of one voxel in milliliters (mm^3 / 1000)."""
    return geometry.sx * geometry.sy * geometry.sz / 1000.0


# A source fills a volume file's byte order: a loaded payload reads right on any host.
_SOURCE_HU = np.dtype("<i2")


@dataclass(frozen=True, init=False, eq=False)
class VoxelVolume(_ZArray):
    """CT-like scalar volume, int16 HU values in [-1024, 3071], held or filled from a source.

    ``VoxelVolume(geometry, values)`` range-checks the values and holds
    them; ``from_source(geometry, source, seekable)`` fills little-endian
    int16 slices, from a phantom's painter (its spec is checked) or a
    volume file's reader (io.load_volume checks each chunk's HU range;
    seekable). chunks(), for io.save_volume and projection.render_drr,
    and values follow the module's one chunk rule.
    """

    geometry: GridGeometry
    _WHOLE = "values"

    def __init__(self, geometry: GridGeometry, values):
        raw = np.asarray(values)
        if raw.shape != geometry.shape_zyx:
            raise ValueError(f"values shape {raw.shape} != geometry {geometry.shape_zyx}")
        # range check before the int16 narrowing so nothing wraps silently
        if not _within_hu(raw):
            raise ValueError(f"values outside [{HU_MIN}, {HU_MAX}]")
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "values", _freeze(raw, np.int16))

    @classmethod
    def from_source(cls, geometry: GridGeometry, source, seekable: bool = False) -> "VoxelVolume":
        """A volume whose slices source() fills: a painter, or a reader if seekable."""
        volume = cls.__new__(cls)
        for name, value in dict(geometry=geometry, _source=source, _seeks=seekable).items():
            object.__setattr__(volume, name, value)
        return volume

    @property
    def _layout(self) -> tuple[tuple[int, int, int], np.dtype]:
        return self.geometry.shape_zyx, _SOURCE_HU

    @cached_property
    def values(self) -> np.ndarray:
        """The read-only (nz, ny, nx) int16 volume, filled whole from the source on first use."""
        return z_whole(*self._layout, self._source())


def check_padding(ny: int, chunks) -> None:
    """ValueError if a packed mask's z-chunks set a bit for some y >= ny.

    Only a last byte row that ny does not fill holds such bits; when ny is
    a multiple of 8 the chunks are not read.
    """
    tail = ny % 8
    if tail and any((chunk[:, -1] >> tail).any() for chunk in chunks):
        raise ValueError(f"packed bits beyond ny = {ny} must be 0")


@dataclass(frozen=True, init=False, eq=False)
class Mask3D(_ZArray):
    """Binary voxel mask on a grid, labeled right/left/both, one bit per voxel.

    ``packed`` is the read-only uint8 array, shape ``geometry.packed_zyx``:
    byte (z, j, x) holds y = 8j .. 8j+7 of column (z, x), bit k being
    y = 8j + k (np.packbits along y, bitorder="little"), and the bits past
    ny are 0. It is the only copy of the mask kept.
    ``Mask3D(geometry, bits, label)`` packs and holds a bool (or 0/1)
    array; ``Mask3D.from_packed`` holds packed bytes as they are, once
    their padding bits (y >= ny) are 0 (check_padding);
    ``from_source(geometry, source, label, seekable)`` fills packed
    slices, from a phantom's truth painter or a "u1y" file's reader
    (io.load_mask3d; seekable). chunks(), which io.save_mask3d writes and
    column_counts folds over, and packed follow the module's one chunk
    rule.
    """

    geometry: GridGeometry
    label: str
    _WHOLE = "packed"

    def __init__(self, geometry: GridGeometry, bits, label: str):
        bits = np.asarray(bits, bool)
        if bits.shape != geometry.shape_zyx:
            raise ValueError(f"bits shape {bits.shape} != geometry {geometry.shape_zyx}")
        packed = np.packbits(bits, axis=1, bitorder="little")
        self._set(geometry, label, packed=_freeze(packed, np.uint8))

    @classmethod
    def from_packed(cls, geometry: GridGeometry, packed, label: str) -> "Mask3D":
        packed = np.asarray(packed)
        if packed.dtype != np.uint8 or packed.shape != geometry.packed_zyx:
            raise ValueError(f"packed bits must be uint8 of shape {geometry.packed_zyx}, "
                             f"got {packed.dtype} {packed.shape}")
        check_padding(geometry.ny, (packed,))
        return cls.__new__(cls)._set(geometry, label, packed=_freeze(packed, np.uint8))

    @classmethod
    def from_source(cls, geometry: GridGeometry, source, label: str,
                    seekable: bool = False) -> "Mask3D":
        """A mask whose packed slices source() fills: a painter, or a reader if seekable."""
        return cls.__new__(cls)._set(geometry, label, _source=source, _seeks=seekable)

    def _set(self, geometry: GridGeometry, label: str, **packed_or_source) -> "Mask3D":
        check_label(label)
        for name, value in dict(geometry=geometry, label=label, **packed_or_source).items():
            object.__setattr__(self, name, value)
        return self

    @property
    def _layout(self) -> tuple[tuple[int, int, int], np.dtype]:
        return self.geometry.packed_zyx, np.dtype(np.uint8)

    @cached_property
    def packed(self) -> np.ndarray:
        """The read-only (nz, ceil(ny/8), nx) packed mask, filled whole from source on first use."""
        return z_whole(*self._layout, self._source())

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only (nz, ny, nx) bool unpack of the mask, made on first use and cached."""
        bits = np.unpackbits(self.packed, axis=1, count=self.geometry.ny,
                             bitorder="little").view(bool)
        bits.flags.writeable = False
        return bits

    @property
    def voxel_count(self) -> int:
        return int(self.column_counts.sum(dtype=np.int64))

    @cached_property
    def column_counts(self) -> np.ndarray:
        """Read-only mask voxel count of each (z, x) column along y, shape (nz, nx).

        A popcount summed over y, one z-chunk at a time, each chunk's
        popcount made in one buffer (fold_y: a large loaded mask in two
        z-halves at once, one buffer each). Cached: the bits cannot
        change. The dtype is the smallest unsigned type that holds ny, so
        the sum cannot overflow.
        """
        g = self.geometry
        cols = fold_y((self,), np.empty((g.nz, g.nx), np.min_scalar_type(g.ny)),
                      np.bitwise_count)
        cols.flags.writeable = False
        return cols


@dataclass(frozen=True, eq=False)
class Mask2D:
    """Binary coronal-plane mask (x-z), labeled right/left/both."""

    nx: int
    nz: int
    sx: float
    sz: float
    bits: np.ndarray  # (nz, nx) bool, read-only
    label: str

    def __post_init__(self):
        check_size("nx", self.nx)
        check_size("nz", self.nz)
        check_spacing("sx", self.sx)
        check_spacing("sz", self.sz)
        bits = _freeze(self.bits, bool)
        if bits.shape != (self.nz, self.nx):
            raise ValueError(f"bits shape {bits.shape} != (nz, nx) = {(self.nz, self.nx)}")
        check_label(self.label)
        object.__setattr__(self, "bits", bits)

    @property
    def pixel_count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True, eq=False)
class DrrImage:
    """8-bit synthetic radiograph on the coronal plane."""

    nx: int
    nz: int
    pixels: np.ndarray  # (nz, nx) uint8, read-only

    def __post_init__(self):
        check_size("nx", self.nx)
        check_size("nz", self.nz)
        px = _freeze(self.pixels, np.uint8)
        if px.shape != (self.nz, self.nx):
            raise ValueError(f"pixels shape {px.shape} != (nz, nx) = {(self.nz, self.nx)}")
        object.__setattr__(self, "pixels", px)
