"""On-disk formats: JSON sidecar headers with raw binary payloads, plus PGM.

A volume or mask is stored as a small JSON header next to a raw
little-endian payload. The header names the payload file via a relative
path with no ``..`` part, so a case directory can be moved wholesale:

    {"dims": [nx, ny, nz], "spacing_mm": [sx, sy, sz],
     "dtype": "i16le", "data": "volume.raw"}

Masks additionally carry "label" (right/left/both) and use dtype "u8"
with one byte per element, value 0 or 1 (not bit-packed). 2D masks store
dims [nx, nz] and spacing_mm [sx, sz]. Payload element order is always
x-fastest, then y, then z.

Writes are atomic (temp file in the target directory, then rename) and
contain no timestamps, so identical inputs produce byte-identical files.
A written file gets the mode ``open()`` would give it: 0o666 less the
umask.

Payloads are read by mapping them read-only, not by copying them: a
loaded array is a read-only view of the page cache, and the validation
scans and every computation read the mapped bytes in place. The map
holds a duplicate of the file descriptor, so each live loaded array
keeps one descriptor open until the array is freed. Because writes
replace a file by rename, a mapped payload's bytes never change under
it; truncating a payload in place while another process has it loaded
is unsupported (on POSIX the reader gets SIGBUS).
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedHeader, MalformedMask, SizeMismatch
from .grid import LABELS, DrrImage, GridGeometry, Mask2D, Mask3D, VoxelVolume, is_finite_number

_I16 = np.dtype("<i2")


def _create_temp(path: Path) -> tuple[int, Path]:
    """A new file beside ``path``, created as ``open()`` would: mode 0o666 & ~umask."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


def _atomic_write_bytes(path: Path, payload: bytes | np.ndarray) -> None:
    path = Path(path)
    view = memoryview(payload).cast("B")  # a C-contiguous array's bytes, not a copy
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = _create_temp(path)
        try:
            with os.fdopen(fd, "wb", buffering=0) as fh:
                while view:  # an unbuffered write may be partial
                    view = view[fh.write(view):]
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_bytes(path: Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _header_to_json(header: dict) -> bytes:
    return (json.dumps(header, sort_keys=True, indent=2) + "\n").encode("utf-8")


def relative_path(name, where: str) -> str:
    """``name`` if, joined to a directory, it stays inside; else MalformedHeader."""
    if not (isinstance(name, str) and name and not Path(name).is_absolute()
            and ".." not in Path(name).parts):
        raise MalformedHeader(f"{where} must be a relative path with no '..', got {name!r}")
    return name


def read_header(path: Path) -> dict:
    """The JSON object in a header file, unchecked beyond being an object."""
    try:
        header = json.loads(_read_bytes(path).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"{path}: not a JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader(f"{path}: header must be a JSON object")
    return header


def _load_header(path: Path, *, ndim: int, want_dtype: str, want_label: bool) -> dict:
    header = read_header(path)
    for key in ("dims", "spacing_mm", "dtype", "data"):
        if key not in header:
            raise MalformedHeader(f"{path}: missing key {key!r}")
    dims = header["dims"]
    spacing = header["spacing_mm"]
    # bool is a subclass of int
    if not (isinstance(dims, list) and len(dims) == ndim
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)):
        raise MalformedHeader(f"{path}: dims must be {ndim} positive integers, got {dims!r}")
    if not (isinstance(spacing, list) and len(spacing) == ndim
            and all(is_finite_number(s) and s > 0 for s in spacing)):
        raise MalformedHeader(
            f"{path}: spacing_mm must be {ndim} positive finite numbers, got {spacing!r}")
    if header["dtype"] != want_dtype:
        raise MalformedHeader(f"{path}: expected dtype {want_dtype!r}, got {header['dtype']!r}")
    relative_path(header["data"], f"{path}: data")
    if want_label:
        if header.get("label") not in LABELS:
            raise MalformedHeader(f"{path}: label must be one of {LABELS}, got {header.get('label')!r}")
    return header


def _load_payload(header_path: Path, header: dict, expect_bytes: int) -> mmap.mmap:
    """The payload mapped read-only, once its size is the one the header implies."""
    data_path = Path(header_path).parent / header["data"]
    try:
        with open(data_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expect_bytes:
                raise SizeMismatch(
                    f"{data_path}: payload is {size} bytes, header implies {expect_bytes}")
            # the map keeps its own duplicate of the descriptor
            return mmap.mmap(fh.fileno(), expect_bytes, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise IoFailure(f"cannot read {data_path}: {exc}") from exc


def _mask_bits(payload: mmap.mmap, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Read-only bool view of a validated 0/1 payload; makes no copy."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size and raw.max() > 1:
        bad = int(raw[raw > 1][0])
        raise MalformedMask(f"{where}: mask bytes must be 0 or 1, found {bad}")
    return raw.reshape(shape).view(bool)


# --- volumes ---------------------------------------------------------------

def load_volume(path: str | Path) -> VoxelVolume:
    """Read a volume (header JSON + i16le raw); enforces type invariants."""
    path = Path(path)
    header = _load_header(path, ndim=3, want_dtype="i16le", want_label=False)
    nx, ny, nz = header["dims"]
    sx, sy, sz = (float(s) for s in header["spacing_mm"])
    payload = _load_payload(path, header, 2 * nx * ny * nz)
    values = np.frombuffer(payload, dtype=_I16).reshape(nz, ny, nx)
    return VoxelVolume(GridGeometry(nx, ny, nz, sx, sy, sz), values)


def save_volume(volume: VoxelVolume, path: str | Path) -> None:
    path = Path(path)
    g = volume.geometry
    data_name = path.stem + ".raw"
    header = {
        "dims": [g.nx, g.ny, g.nz],
        "spacing_mm": [g.sx, g.sy, g.sz],
        "dtype": "i16le",
        "data": data_name,
    }
    # copies only on a big-endian host
    _atomic_write_bytes(path.parent / data_name, np.ascontiguousarray(volume.values, dtype=_I16))
    _atomic_write_bytes(path, _header_to_json(header))


# --- 3D masks ---------------------------------------------------------------

def load_mask3d(path: str | Path) -> Mask3D:
    path = Path(path)
    header = _load_header(path, ndim=3, want_dtype="u8", want_label=True)
    nx, ny, nz = header["dims"]
    sx, sy, sz = (float(s) for s in header["spacing_mm"])
    payload = _load_payload(path, header, nx * ny * nz)
    bits = _mask_bits(payload, (nz, ny, nx), str(path))
    return Mask3D(GridGeometry(nx, ny, nz, sx, sy, sz), bits, header["label"])


def save_mask3d(mask: Mask3D, path: str | Path) -> None:
    path = Path(path)
    g = mask.geometry
    data_name = path.stem + ".raw"
    header = {
        "dims": [g.nx, g.ny, g.nz],
        "spacing_mm": [g.sx, g.sy, g.sz],
        "dtype": "u8",
        "data": data_name,
        "label": mask.label,
    }
    _atomic_write_bytes(path.parent / data_name, mask.bits)
    _atomic_write_bytes(path, _header_to_json(header))


# --- 2D masks ---------------------------------------------------------------

def load_mask2d(path: str | Path) -> Mask2D:
    path = Path(path)
    header = _load_header(path, ndim=2, want_dtype="u8", want_label=True)
    nx, nz = header["dims"]
    sx, sz = (float(s) for s in header["spacing_mm"])
    payload = _load_payload(path, header, nx * nz)
    bits = _mask_bits(payload, (nz, nx), str(path))
    return Mask2D(nx, nz, sx, sz, bits, header["label"])


def save_mask2d(mask: Mask2D, path: str | Path) -> None:
    path = Path(path)
    data_name = path.stem + ".raw"
    header = {
        "dims": [mask.nx, mask.nz],
        "spacing_mm": [mask.sx, mask.sz],
        "dtype": "u8",
        "data": data_name,
        "label": mask.label,
    }
    _atomic_write_bytes(path.parent / data_name, mask.bits)
    _atomic_write_bytes(path, _header_to_json(header))


# --- PGM --------------------------------------------------------------------

def pgm_bytes(image: DrrImage) -> bytes:
    """Binary PGM (P5, maxval 255); row order is z ascending."""
    return b"P5\n%d %d\n255\n" % (image.nx, image.nz) + image.pixels.tobytes()


def save_pgm(image: DrrImage, path: str | Path) -> None:
    _atomic_write_bytes(Path(path), pgm_bytes(image))


def write_json(obj: dict | list, path: str | Path) -> None:
    """Write a report JSON: UTF-8, sorted keys, trailing newline, atomic."""
    _atomic_write_bytes(Path(path), _header_to_json(obj))


def write_text(text: str, path: str | Path) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))
