"""On-disk formats: JSON sidecar headers with raw binary payloads, plus PGM.

A volume or mask is stored as a small JSON header next to a raw
little-endian payload. The header names the payload file via a relative
path with no ``..`` part, so a case directory can be moved wholesale:

    {"dims": [nx, ny, nz], "spacing_mm": [sx, sy, sz],
     "dtype": "i16le", "data": "volume.raw"}

Masks additionally carry "label" (right/left/both). A 3D mask is
written with dtype "u1y", one bit per voxel packed along y: byte (z, j, x)
holds the voxels y = 8j .. 8j+7 of column (z, x), bit k (value 1 << k)
being y = 8j + k, which is numpy's bitorder="little". Bytes run x-fastest,
then j, then z, so the payload is nz * ceil(ny/8) * nx bytes; the bits
for y >= ny in the last byte row must be 0, and a set one is a
MalformedMask. A 3D "u8" payload (one byte 0 or 1 per voxel, the format
before "u1y") is still read, and packed on load. 2D masks use "u8" and
store dims [nx, nz] and spacing_mm [sx, sz]. Element order is always
x-fastest, then y, then z. Every header is read by _load (through
read_json, which reads every JSON input) and written by _save; its dims,
spacing_mm and label obey the grid types' own rules (grid.check_size,
check_spacing, check_label), and one that breaks them is a
MalformedHeader.

Writes are atomic (temp file in the target directory, then rename) and
contain no timestamps, so identical inputs produce byte-identical files.
A payload is written from an iterable of buffers, one after another: a
2D mask is one buffer, and a volume or a 3D mask is its z-chunks
(``volume.chunks()``, ``mask.chunks()``). A phantom's volume and truth
masks paint each chunk as it is written, so none of them is held whole;
if a chunk fails to paint or write, the temp file is removed and no
payload is left.
A written file gets the mode ``open()`` would give it: 0o666 less the
umask.

Every payload is read through one positional reader (_Payload): a load
checks the header and the payload's size, and a volume or a 3D "u1y"
mask holds a duplicate of the payload's descriptor until it is freed.
Each is a grid type built from_source its payload's reader, so by
grid's one chunk rule it is read ~512 KB of slices at a time into one
buffer as its chunks() are used, until values or packed reads it whole
and keeps it; a volume checks each chunk's HU range while it is in cache
(_volume_reader). So drr holds no volume, and cohort counts each truth
mask's columns holding about one chunk of it. The reader is seekable: it
reads any slices, from any thread, with no state of its own. So a
payload of grid._SPLIT_BYTES (~6 MiB) or more, such as a CT-grid volume
or truth mask, is summed or counted in two z-halves at once
(grid.fold_y), one buffer per half, and each half's chunks are
range-checked as they are read. An error in either half is raised after
both end, the lower half's first, as a single pass would meet it. A
128^3 desk payload (4 MiB volume, 256 KiB mask) is read on one thread.
A "u1y" mask's padding bits are checked at load, by chunk, when ny is
not a multiple of 8. A 3D "u8" payload is checked (0 or 1) and packed
one z-chunk at a time at load, and a 2D mask is read whole at load;
neither holds a descriptor.
Because writes replace a file by rename, a loaded volume or mask reads
the bytes it was loaded with; a payload cut short after the load is a
SizeMismatch when the missing bytes are read.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
import secrets
import weakref
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedHeader, MalformedMask, SizeMismatch
from .grid import (HU_MAX, HU_MIN, DrrImage, GridGeometry, Mask2D, Mask3D, VoxelVolume,
                   _within_hu, check_label, check_padding, check_size, check_spacing, z_chunks)

_DTYPES = {"i16le": np.dtype("<i2"), "u8": np.dtype(np.uint8), "u1y": np.dtype(np.uint8)}
# The payload dtypes a header may name, by its number of dims.
_VOLUME = {3: ("i16le",)}
_MASKS = {2: ("u8",), 3: ("u1y", "u8")}


def _create_temp(path: Path) -> tuple[int, Path]:
    """A new file beside ``path``, created as ``open()`` would: mode 0o666 & ~umask."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


def _atomic_write_bytes(path: Path, chunks: Iterable) -> None:
    """Write each buffer of chunks, in order, to a temp file beside path; then rename it to path.

    path's directory is made only when the temp file cannot be created
    for want of it, so a cohort's files cost no mkdir each.
    """
    path = Path(path)
    try:
        try:
            fd, tmp = _create_temp(path)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = _create_temp(path)
        try:
            with os.fdopen(fd, "wb", buffering=0) as fh:
                for chunk in chunks:
                    view = memoryview(chunk).cast("B")  # a C-contiguous array's bytes, not a copy
                    while view:  # an unbuffered write may be partial
                        view = view[fh.write(view):]
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _header_to_json(header: dict) -> bytes:
    return (json.dumps(header, sort_keys=True, indent=2) + "\n").encode("utf-8")


def relative_path(name, where: str) -> str:
    """``name`` if, joined to a directory, it stays inside; else MalformedHeader."""
    if not (isinstance(name, str) and name and not Path(name).is_absolute()
            and ".." not in Path(name).parts):
        raise MalformedHeader(f"{where} must be a relative path with no '..', "
                              f"got {reprlib.repr(name)}")
    return name


class _Payload:
    """A payload file, size-checked by _open_payload, read by slices with positional reads.

    Holds a duplicate of the descriptor _open_payload opened, and closes it when freed.
    read keeps no file position, so two threads may read one payload at once (grid.fold_y).
    """

    def __init__(self, path: Path, size: int, fd: int):
        self.path = path
        self.size = size
        self._fd = fd
        weakref.finalize(self, os.close, fd)

    def read(self, out: np.ndarray, z0: int) -> np.ndarray:
        """Read slices z0 .. z0 + len(out) into out and return it; SizeMismatch if it ends first."""
        view = memoryview(out).cast("B")
        offset = z0 * out[0].nbytes
        while view:  # a read may be partial
            try:
                n = os.preadv(self._fd, [view], offset)
            except OSError as exc:
                raise IoFailure(f"cannot read {self.path}: {exc}") from exc
            if not n:
                raise SizeMismatch(f"{self.path}: payload ends at byte {offset}, "
                                   f"header implies {self.size}")
            view, offset = view[n:], offset + n
        return out


def _open_payload(data_path: Path, expect_bytes: int) -> _Payload:
    """The payload opened read-only, once its size is the one the header implies."""
    try:
        with open(data_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expect_bytes:
                raise SizeMismatch(
                    f"{data_path}: payload is {size} bytes, header implies {expect_bytes}")
            return _Payload(data_path, expect_bytes, os.dup(fh.fileno()))
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable path
        raise IoFailure(f"cannot read {data_path}: {exc}") from exc


def read_json(path: str | Path, kind: type[Exception]) -> dict:
    """The JSON object a file holds: the one reader of headers, specs and manifests.

    A file that cannot be read is IoFailure; one that is not UTF-8 JSON,
    is nested too deeply to parse, or holds anything but an object is kind.
    """
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable path
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON, a huge int
        raise kind(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise kind(f"{path}: must hold a JSON object, got {type(doc).__name__}")
    return doc


def _load(path: str | Path, dtypes: dict[int, tuple[str, ...]], labeled: bool):
    """The checked dims, spacing, label and dtype of a header, and its payload's path.

    The only header reader. dims, spacing_mm and label are checked by the
    grid types' own rules, their ValueError re-raised as MalformedHeader,
    and dtype must be one that dtypes lists for that many dims.
    """
    path = Path(path)
    header = read_json(path, MalformedHeader)
    for key in ("dims", "spacing_mm", "dtype", "data"):
        if key not in header:
            raise MalformedHeader(f"{path}: missing key {key!r}")
    dims, spacing, label = header["dims"], header["spacing_mm"], header.get("label")
    if not (isinstance(dims, list) and len(dims) in dtypes
            and isinstance(spacing, list) and len(spacing) == len(dims)):
        raise MalformedHeader(f"{path}: dims and spacing_mm must list "
                              f"{' or '.join(map(str, dtypes))} values, "
                              f"got {reprlib.repr(dims)}, {reprlib.repr(spacing)}")
    try:
        for n in dims:
            check_size("dims", n)
        for s in spacing:
            check_spacing("spacing_mm", s)
        if labeled:
            check_label(label)
    except ValueError as exc:
        raise MalformedHeader(f"{path}: {exc}") from exc
    dtype = header["dtype"]
    if dtype not in dtypes[len(dims)]:
        raise MalformedHeader(f"{path}: expected dtype {' or '.join(map(repr, dtypes[len(dims)]))}"
                              f", got {reprlib.repr(dtype)}")
    data_path = path.parent / relative_path(header["data"], f"{path}: data")
    return dims, [float(s) for s in spacing], label, dtype, data_path


def _save(path: str | Path, chunks: Iterable[np.ndarray], dims, spacing, dtype: str,
          label: str | None = None) -> None:
    """The only header writer: the payload first, chunk by chunk, then the header that names it."""
    path = Path(path)
    data_name = path.stem + ".raw"
    header = {"dims": [int(n) for n in dims], "spacing_mm": [float(s) for s in spacing],
              "dtype": dtype, "data": data_name}
    if label is not None:
        header["label"] = label
    # copies only on a big-endian host
    _atomic_write_bytes(path.parent / data_name,
                        (np.ascontiguousarray(c, dtype=_DTYPES[dtype]) for c in chunks))
    _atomic_write_bytes(path, (_header_to_json(header),))


def _check_bits(path: Path, array: np.ndarray) -> None:
    """MalformedMask unless every byte of a "u8" mask payload is 0 or 1."""
    if array.max() > 1:
        raise MalformedMask(f"{path}: mask bytes must be 0 or 1, "
                            f"found {int(array[array > 1][0])}")


def _load_mask(path: str | Path, ndims: tuple[int, ...]) -> Mask2D | Mask3D:
    """A "u1y" mask read as it is used; a "u8" one read (by z-chunk if 3D), checked 0/1, held."""
    dims, spacing, label, dtype, data_path = _load(path, {n: _MASKS[n] for n in ndims},
                                                   labeled=True)
    shape = dims[::-1] if dtype != "u1y" else [dims[2], -(-dims[1] // 8), dims[0]]
    payload = _open_payload(data_path, math.prod(shape))
    if len(dims) == 2:
        array = payload.read(np.empty(shape, np.uint8), 0)
        _check_bits(data_path, array)
        return Mask2D(*dims, *spacing, array.view(bool), label)
    g = GridGeometry(*dims, *spacing)
    if dtype == "u1y":
        mask = Mask3D.from_source(g, lambda: payload.read, label, seekable=True)
        try:
            check_padding(g.ny, mask.chunks())
        except ValueError as exc:  # a padding bit is set
            raise MalformedMask(f"{path}: {exc}") from exc
        return mask
    packed, z = np.empty(g.packed_zyx, np.uint8), 0
    for chunk in z_chunks(shape, np.uint8, payload.read):
        _check_bits(data_path, chunk)
        packed[z:z + len(chunk)] = np.packbits(chunk, axis=1, bitorder="little")
        z += len(chunk)
    return Mask3D.from_packed(g, packed, label)


def _volume_reader(payload: _Payload):
    """A volume file's fill(out, z0): payload.read, the HU range checked while out is in cache.

    A value outside [HU_MIN, HU_MAX] is a ValueError naming the payload.
    """
    def read(out: np.ndarray, z0: int) -> np.ndarray:
        if not _within_hu(payload.read(out, z0)):
            raise ValueError(f"{payload.path}: values outside [{HU_MIN}, {HU_MAX}]")
        return out
    return read


def load_volume(path: str | Path) -> VoxelVolume:
    """A volume (header JSON + i16le raw) whose payload is read, and checked, as it is used."""
    dims, spacing, _, _, data_path = _load(path, _VOLUME, labeled=False)
    payload = _open_payload(data_path, 2 * math.prod(dims))
    return VoxelVolume.from_source(GridGeometry(*dims, *spacing),
                                   functools.partial(_volume_reader, payload), seekable=True)


def load_mask3d(path: str | Path) -> Mask3D:
    """A 3D mask; a "u1y" payload is read as it is used."""
    return _load_mask(path, (3,))


def load_mask2d(path: str | Path) -> Mask2D:
    return _load_mask(path, (2,))


def load_mask(path: str | Path) -> Mask2D | Mask3D:
    """A 2D or a 3D mask, whichever its header's dims describe."""
    return _load_mask(path, (2, 3))


def save_volume(volume: VoxelVolume, path: str | Path) -> None:
    """Write a volume from its z-chunks: a loaded one, or a phantom's, painted as it is written."""
    g = volume.geometry
    _save(path, volume.chunks(), (g.nx, g.ny, g.nz), (g.sx, g.sy, g.sz), "i16le")


def save_mask3d(mask: Mask3D, path: str | Path) -> None:
    """Write a 3D mask from its packed z-chunks: a phantom's truth mask is painted as written."""
    g = mask.geometry
    _save(path, mask.chunks(), (g.nx, g.ny, g.nz), (g.sx, g.sy, g.sz), "u1y", mask.label)


def save_mask2d(mask: Mask2D, path: str | Path) -> None:
    _save(path, (mask.bits.view(np.uint8),), (mask.nx, mask.nz), (mask.sx, mask.sz), "u8",
          mask.label)


# --- PGM --------------------------------------------------------------------

def pgm_bytes(image: DrrImage) -> bytes:
    """Binary PGM (P5, maxval 255); row order is z ascending."""
    return b"P5\n%d %d\n255\n" % (image.nx, image.nz) + image.pixels.tobytes()


def save_pgm(image: DrrImage, path: str | Path) -> None:
    _atomic_write_bytes(Path(path), (pgm_bytes(image),))


def write_json(obj: dict | list, path: str | Path) -> None:
    """Write a report JSON: UTF-8, sorted keys, trailing newline, atomic."""
    _atomic_write_bytes(Path(path), (_header_to_json(obj),))


def write_text(text: str, path: str | Path) -> None:
    _atomic_write_bytes(Path(path), (text.encode("utf-8"),))
