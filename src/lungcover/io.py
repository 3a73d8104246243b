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
A save may be handed its temp files made early (EarlyTemps): the phantom
command has one thread create a case's directory and its 14 temp files
(7 payloads, 7 headers) while the case before it paints, since creating
a file costs about as much as writing it. Its saves then write and
rename them as they would their own. So while a case paints, the next
case's temp files exist: a process killed then can leave
``<name>.<12 hex digits>`` temp files in the case's directory and in at
most the next case's. A case that fails leaves none (EarlyTemps.close).
A CSV table (write_csv) is RFC 4180 (CRLF, minimal quoting), with a '.'
decimal point and 6 significant digits per float.
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

import csv
import functools
import json
import math
import os
import reprlib
import weakref
from collections.abc import Iterable
from io import StringIO
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
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


def _make_dirs(directory: Path) -> list[Path]:
    """Make directory and its missing parents; return the ones made, outermost first."""
    try:
        os.mkdir(directory)
    except FileExistsError:  # a file there fails the create that follows
        return []
    except FileNotFoundError:
        made = _make_dirs(directory.parent)
        try:
            os.mkdir(directory)
        except FileExistsError:
            return made
    else:
        made = []
    return made + [directory]


def _new_temp(path: Path) -> tuple[int, Path, list[Path]]:
    """_create_temp(path), and the directories made for it: only if the create fails for want of one.

    So a cohort's files cost no mkdir each.
    """
    try:
        return *_create_temp(path), []
    except FileNotFoundError:
        made = _make_dirs(path.parent)
        return *_create_temp(path), made


def _payload_path(header: Path) -> Path:
    """Where _save writes the payload of the header at ``header``: beside it, as <stem>.raw."""
    return header.with_name(header.stem + ".raw")


class EarlyTemps:
    """The temp files of some headers and their payloads, made before the saves that write them.

    ``EarlyTemps(headers)`` creates, for each header path, the temp file of
    its payload (``<stem>.raw``) and of the header, as _atomic_write_bytes
    would, making their directory if it is missing. A save given this
    object (save_volume, save_mask3d, save_mask2d) takes the temp file of
    each path it writes, writes it and renames it, as it would its own.
    close() closes and removes every temp file no save took, and the
    directories made here too if no save took one, so a case that fails
    before its first save leaves what it would have left without them.
    A failure to create them is an IoFailure naming the path, and leaves
    nothing.
    """

    def __init__(self, headers: Iterable[Path]):
        self._files: dict[Path, tuple[int, Path]] = {}
        self._made: list[Path] = []
        self._taken = False
        try:
            for header in map(Path, headers):
                for path in (_payload_path(header), header):
                    fd, tmp, made = _new_temp(path)
                    self._files[path] = fd, tmp
                    self._made += made
        except OSError as exc:
            self.close()
            raise IoFailure(f"cannot write {path}: {exc}") from exc

    def take(self, path: Path) -> tuple[int, Path] | None:
        """The descriptor and name of path's temp file, which the caller now owns; None if none."""
        early = self._files.pop(path, None)
        self._taken = self._taken or early is not None
        return early

    def close(self) -> None:
        """Close and remove the temp files not taken, and, if none was, the directories made."""
        while self._files:
            fd, tmp = self._files.popitem()[1]
            os.close(fd)
            os.unlink(tmp)
        if not self._taken:
            for directory in reversed(self._made):
                try:
                    os.rmdir(directory)
                except OSError:  # it holds what another case wrote
                    break
        self._made = []


def _atomic_write_bytes(path: Path, chunks: Iterable, temps: EarlyTemps | None = None) -> None:
    """Write each buffer of chunks, in order, to a temp file beside path; then rename it to path.

    The temp file is path's in temps, if it has one, else a new one;
    path's directory is made only when it cannot be created for want of it.
    """
    path = Path(path)
    try:
        early = temps.take(path) if temps is not None else None
        fd, tmp = early if early is not None else _new_temp(path)[:2]
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
          label: str | None, temps: EarlyTemps | None) -> None:
    """The only header writer: the payload first, chunk by chunk, then the header that names it.

    Each is written into its temp file in temps, if it has one (EarlyTemps).
    """
    path = Path(path)
    data_path = _payload_path(path)
    header = {"dims": [int(n) for n in dims], "spacing_mm": [float(s) for s in spacing],
              "dtype": dtype, "data": data_path.name}
    if label is not None:
        header["label"] = label
    # copies only on a big-endian host
    _atomic_write_bytes(data_path,
                        (np.ascontiguousarray(c, dtype=_DTYPES[dtype]) for c in chunks), temps)
    _atomic_write_bytes(path, (_header_to_json(header),), temps)


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


def save_volume(volume: VoxelVolume, path: str | Path, temps: EarlyTemps | None = None) -> None:
    """Write a volume from its z-chunks: a loaded one, or a phantom's, painted as it is written.

    temps: EarlyTemps holding the temp files to write, if they were made early.
    """
    g = volume.geometry
    _save(path, volume.chunks(), (g.nx, g.ny, g.nz), (g.sx, g.sy, g.sz), "i16le", None, temps)


def save_mask3d(mask: Mask3D, path: str | Path, temps: EarlyTemps | None = None) -> None:
    """Write a 3D mask from its packed z-chunks: a phantom's truth mask is painted as written."""
    g = mask.geometry
    _save(path, mask.chunks(), (g.nx, g.ny, g.nz), (g.sx, g.sy, g.sz), "u1y", mask.label, temps)


def save_mask2d(mask: Mask2D, path: str | Path, temps: EarlyTemps | None = None) -> None:
    _save(path, (mask.bits.view(np.uint8),), (mask.nx, mask.nz), (mask.sx, mask.sz), "u8",
          mask.label, temps)


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


def fmt(value) -> str:
    """CSV cell: 6 significant digits for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    buf = StringIO()
    writer = csv.writer(buf)  # default lineterminator CRLF per RFC 4180
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    write_text(buf.getvalue(), path)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
