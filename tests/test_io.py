"""File formats: JSON header + raw payload volumes/masks, PGM images.

Round trips must be lossless and saves byte-deterministic; malformed
inputs fail with typed errors, never partial objects.
"""

import contextlib
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lungcover import grid
from lungcover import io as io_module
from lungcover.cli import main
from lungcover.concordance import agreement
from lungcover.errors import IoFailure, MalformedHeader, MalformedMask, SizeMismatch
from lungcover.grid import HU_MAX, HU_MIN, DrrImage, GridGeometry, Mask2D, Mask3D, VoxelVolume
from lungcover.io import (
    load_mask,
    load_mask2d,
    load_mask3d,
    load_volume,
    pgm_bytes,
    save_mask2d,
    save_mask3d,
    save_pgm,
    save_volume,
    write_json,
)

from strategies import mutated


def small_volume() -> VoxelVolume:
    g = GridGeometry(nx=4, ny=3, nz=2, sx=0.66, sy=0.66, sz=1.25)
    values = (np.arange(g.voxel_count, dtype=np.int16) * 7 - 1000).reshape(g.shape_zyx)
    return VoxelVolume(g, values)


class TestVolumeRoundTrip:
    def test_values_and_geometry_survive(self, tmp_path):
        vol = small_volume()
        path = tmp_path / "vol.json"
        save_volume(vol, path)
        back = load_volume(path)
        assert back.geometry == vol.geometry
        np.testing.assert_array_equal(back.values, vol.values)

    def test_header_contents(self, tmp_path):
        save_volume(small_volume(), tmp_path / "vol.json")
        header = json.loads((tmp_path / "vol.json").read_text())
        assert header == {
            "dims": [4, 3, 2],
            "spacing_mm": [0.66, 0.66, 1.25],
            "dtype": "i16le",
            "data": "vol.raw",
        }

    def test_payload_is_little_endian_x_fastest(self, tmp_path):
        vol = small_volume()
        save_volume(vol, tmp_path / "vol.json")
        raw = (tmp_path / "vol.raw").read_bytes()
        assert raw == vol.values.astype("<i2").tobytes(order="C")

    def test_save_is_byte_deterministic(self, tmp_path):
        vol = small_volume()
        save_volume(vol, tmp_path / "a.json")
        save_volume(vol, tmp_path / "b.json")
        a = (tmp_path / "a.json").read_text().replace("a.raw", "x.raw")
        b = (tmp_path / "b.json").read_text().replace("b.raw", "x.raw")
        assert a == b
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_volume(tmp_path / "absent.json")

    def test_truncated_payload_is_size_mismatch(self, tmp_path):
        save_volume(small_volume(), tmp_path / "vol.json")
        raw = tmp_path / "vol.raw"
        raw.write_bytes(raw.read_bytes()[:-2])
        with pytest.raises(SizeMismatch):
            load_volume(tmp_path / "vol.json")

    @pytest.mark.parametrize("mutate", [
        lambda h: h.update(dims=[4, 3]),
        lambda h: h.update(dims=[4, 3, 0]),
        lambda h: h.update(spacing_mm=[0.66, -0.66, 1.25]),
        lambda h: h.update(dtype="f32"),
        lambda h: h.pop("data"),
        lambda h: h.update(data="/etc/absolute.raw"),
        lambda h: h.update(dims=[True, 3, 2]),
        lambda h: h.update(spacing_mm=[True, 0.66, 1.25]),
        lambda h: h.update(spacing_mm=[float("inf"), 0.66, 1.25]),
        lambda h: h.update(spacing_mm=[float("nan"), 0.66, 1.25]),
        lambda h: h.update(spacing_mm=[10**400, 0.66, 1.25]),
        lambda h: h.update(data="../vol.raw"),
        lambda h: h.update(data="sub/../../vol.raw"),
        lambda h: h.update(dims=[4, "3", 2]),
        lambda h: h.update(dims=[4.0, 3, 2]),
        lambda h: h.update(spacing_mm=["0.66", 0.66, 1.25]),
        lambda h: h.update(dtype=["i16le"]),
    ])
    def test_malformed_header(self, tmp_path, mutate):
        save_volume(small_volume(), tmp_path / "vol.json")
        header = json.loads((tmp_path / "vol.json").read_text())
        mutate(header)
        (tmp_path / "vol.json").write_text(json.dumps(header))
        with pytest.raises(MalformedHeader):
            load_volume(tmp_path / "vol.json")

    def test_header_not_json(self, tmp_path):
        (tmp_path / "vol.json").write_text("not json at all")
        with pytest.raises(MalformedHeader):
            load_volume(tmp_path / "vol.json")


class TestMaskRoundTrip:
    def test_mask3d(self, tmp_path):
        g = GridGeometry(nx=5, ny=4, nz=3, sx=1.0, sy=2.0, sz=3.0)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[::2, 1, 2] = True
        mask = Mask3D(g, bits, "left")
        save_mask3d(mask, tmp_path / "m.json")
        back = load_mask3d(tmp_path / "m.json")
        assert back.geometry == g
        assert back.label == "left"
        np.testing.assert_array_equal(back.bits, bits)

    def test_mask3d_payload_one_bit_per_voxel(self, tmp_path):
        # byte (z, j, x) holds y = 8j .. 8j+7 of column (z, x); bit k is y = 8j + k
        g = GridGeometry(nx=2, ny=9, nz=2, sx=1.0, sy=1.0, sz=1.0)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[0, 0, 1] = True
        bits[1, 1, 0] = True
        bits[1, 7, 0] = True
        bits[1, 8, 1] = True
        save_mask3d(Mask3D(g, bits, "right"), tmp_path / "m.json")
        assert (tmp_path / "m.raw").read_bytes() == bytes([0, 1, 0, 0, 0x82, 0, 0, 1])
        assert json.loads((tmp_path / "m.json").read_text())["dtype"] == "u1y"

    def test_mask2d(self, tmp_path):
        bits = np.zeros((3, 4), dtype=bool)
        bits[1, 2] = True
        mask = Mask2D(nx=4, nz=3, sx=0.5, sz=0.75, bits=bits, label="both")
        save_mask2d(mask, tmp_path / "m.json")
        back = load_mask2d(tmp_path / "m.json")
        assert (back.nx, back.nz, back.sx, back.sz) == (4, 3, 0.5, 0.75)
        assert back.label == "both"
        np.testing.assert_array_equal(back.bits, bits)

    def test_mask3d_bits_view_the_payload(self, tmp_path):
        g = GridGeometry(nx=3, ny=2, nz=2, sx=1.0, sy=1.0, sz=1.0)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[1, 0, 2] = True
        save_mask3d(Mask3D(g, bits, "right"), tmp_path / "m.json")
        back = load_mask3d(tmp_path / "m.json")
        # the packed bits are the payload's bytes; bits is a read-only unpack of them
        assert not back.packed.flags.writeable
        assert back.packed.tobytes() == (tmp_path / "m.raw").read_bytes()
        assert back.bits.dtype == bool and not back.bits.flags.writeable
        np.testing.assert_array_equal(back.bits, bits)

    def test_mask3d_payload_values_above_one_rejected(self, tmp_path):
        g = GridGeometry(nx=2, ny=1, nz=2, sx=1.0, sy=1.0, sz=1.0)
        save_mask3d(Mask3D(g, np.zeros(g.shape_zyx, dtype=bool), "right"), tmp_path / "m.json")
        (tmp_path / "m.raw").write_bytes(bytes([0, 1, 2, 0]))
        with pytest.raises(MalformedMask):
            load_mask3d(tmp_path / "m.json")

    def test_mask_payload_values_above_one_rejected(self, tmp_path):
        bits = np.zeros((2, 2), dtype=bool)
        save_mask2d(Mask2D(nx=2, nz=2, sx=1.0, sz=1.0, bits=bits, label="right"),
                    tmp_path / "m.json")
        (tmp_path / "m.raw").write_bytes(bytes([0, 2, 0, 0]))
        with pytest.raises(MalformedMask):
            load_mask2d(tmp_path / "m.json")

    def test_mask_header_requires_label(self, tmp_path):
        bits = np.zeros((2, 2), dtype=bool)
        save_mask2d(Mask2D(nx=2, nz=2, sx=1.0, sz=1.0, bits=bits, label="right"),
                    tmp_path / "m.json")
        header = json.loads((tmp_path / "m.json").read_text())
        del header["label"]
        (tmp_path / "m.json").write_text(json.dumps(header))
        with pytest.raises(MalformedHeader):
            load_mask2d(tmp_path / "m.json")

    def test_mask_dims_must_match_kind(self, tmp_path):
        g = GridGeometry(nx=2, ny=2, nz=2, sx=1.0, sy=1.0, sz=1.0)
        save_mask3d(Mask3D(g, np.zeros(g.shape_zyx, dtype=bool), "right"),
                    tmp_path / "m.json")
        with pytest.raises(MalformedHeader):
            load_mask2d(tmp_path / "m.json")

    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_mask3d_round_trips(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        g = GridGeometry(nx=int(rng.integers(1, 9)), ny=int(rng.integers(1, 9)),
                         nz=int(rng.integers(1, 9)), sx=1.0, sy=1.0, sz=1.0)
        bits = rng.random(g.shape_zyx) < 0.4
        path = tmp_path_factory.mktemp("masks") / "m.json"
        save_mask3d(Mask3D(g, bits, "both"), path)
        np.testing.assert_array_equal(load_mask3d(path).bits, bits)


# ny values around the byte boundaries; the desk and CT grids (ny 128 and
# 512) are multiples of 8, so only tests reach a partial last byte row.
PACKED_NY = [1, 5, 7, 8, 9, 13, 244]


# Run in a fresh interpreter by _resident_growth: load the masks at the given headers, then
# count the first one's columns (count) or compare the two (agreement). Prints the step's
# result and how far it grew the resident set (Linux /proc), in bytes; count then also
# reads the mask's packed bits whole, the control, which grows it by the mask.
_RESIDENT_PROBE = """
import json, os, sys
from lungcover.concordance import agreement
from lungcover.io import load_mask3d

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

step, *headers = sys.argv[1:]
masks = [load_mask3d(header) for header in headers]
before = resident()
if step == "count":
    counts = masks[0].column_counts
    grown = [resident() - before]
    masks[0].packed.sum()
    grown.append(resident() - before)
    result = [int(counts.min()), int(counts.max())]
else:
    report = agreement(*masks)
    grown = [resident() - before]
    result = [report.dsc, report.ji]
print(json.dumps({"result": result, "grown": grown}))
"""


def _child_env() -> dict:
    """The environment of a child that imports this lungcover."""
    src = str(Path(grid.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _resident_growth(step: str, *headers) -> dict:
    """_RESIDENT_PROBE's record, from a fresh interpreter.

    In a fresh process the growth depends on nothing that ran before it,
    such as which tests ran first and what their heaps left resident.
    """
    done = subprocess.run([sys.executable, "-c", _RESIDENT_PROBE, step, *map(str, headers)],
                          env=_child_env(), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


# Run by _peak_growth in a child of a bare launcher: load the masks at the given headers,
# count each one's columns, and print how far that raised the child's peak resident set
# (ru_maxrss, KiB on Linux), in bytes, and the largest column count of each mask.
_PEAK_PROBE = """
import json, resource, sys
from lungcover.io import load_mask3d

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

masks = [load_mask3d(header) for header in sys.argv[1:]]
before = peak()
counts = [mask.column_counts for mask in masks]
print(json.dumps({"grown": peak() - before, "max": [int(c.max()) for c in counts]}))
"""

# Spawns its arguments from a Python that imports only os and sys, as CI's memory step does:
# a child's ru_maxrss starts at its spawner's peak (exec keeps the peak of the address space
# it replaces), so a child of pytest itself would start above anything the probe reaches.
_BARE_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def _peak_growth(*headers) -> dict:
    """_PEAK_PROBE's record, from a fresh interpreter spawned by _BARE_LAUNCHER."""
    done = subprocess.run([sys.executable, "-c", _BARE_LAUNCHER, "-c", _PEAK_PROBE,
                           *map(str, headers)], env=_child_env(), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


class TestPackedMask3D:
    """3D masks are stored one bit per voxel along y ("u1y"); "u8" is still read."""

    @given(ny=st.sampled_from(PACKED_NY), nx=st.integers(1, 5), nz=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, tmp_path_factory, ny, nx, nz, seed):
        rng = np.random.default_rng(seed)
        g = GridGeometry(nx=nx, ny=ny, nz=nz, sx=1.0, sy=1.0, sz=1.0)
        bits = rng.random(g.shape_zyx) < rng.random()
        path = tmp_path_factory.mktemp("packed") / "m.json"
        save_mask3d(Mask3D(g, bits, "left"), path)
        assert path.with_suffix(".raw").read_bytes() == np.packbits(
            bits, axis=1, bitorder="little").tobytes()
        back = load_mask3d(path)
        assert back.packed.shape == (nz, -(-ny // 8), nx)
        np.testing.assert_array_equal(back.bits, bits)
        np.testing.assert_array_equal(back.column_counts, bits.sum(axis=1))

    @pytest.mark.parametrize("ny", [1, 5, 7, 9, 13])
    @pytest.mark.parametrize("load", [load_mask3d, load_mask])
    def test_set_padding_bit_is_malformed_mask(self, tmp_path, ny, load):
        g = GridGeometry(nx=3, ny=ny, nz=2, sx=1.0, sy=1.0, sz=1.0)
        save_mask3d(Mask3D(g, np.ones(g.shape_zyx, bool), "right"), tmp_path / "m.json")
        raw = tmp_path / "m.raw"
        full = raw.read_bytes()
        assert load(tmp_path / "m.json").voxel_count == g.voxel_count
        rows = -(-ny // 8)
        # byte (z, j, x) is at (z * rows + j) * nx + x: the last byte row of
        # column (0, 0), then of column (1, 2); its bits from y = ny on are past the grid
        for at in ((rows - 1) * 3, len(full) - 1):
            for k in range(ny % 8, 8):
                data = bytearray(full)
                data[at] |= 1 << k
                raw.write_bytes(bytes(data))
                with pytest.raises(MalformedMask, match="beyond ny"):
                    load(tmp_path / "m.json")

    @pytest.mark.parametrize("ny", [5, 13, 70])
    def test_set_padding_bit_in_the_last_chunk_is_malformed_mask(self, tmp_path, ny, monkeypatch):
        """One slice per chunk, and the padding bit in the last slice: still caught at load."""
        g = GridGeometry(nx=3, ny=ny, nz=7, sx=1.0, sy=1.0, sz=1.0)
        monkeypatch.setattr(grid, "_CHUNK_BYTES", -(-ny // 8) * g.nx)
        save_mask3d(Mask3D(g, np.ones(g.shape_zyx, bool), "right"), tmp_path / "m.json")
        raw = tmp_path / "m.raw"
        data = bytearray(raw.read_bytes())
        data[-1] |= 1 << 7  # y = 8 * (rows - 1) + 7 >= ny of column (6, 2)
        raw.write_bytes(bytes(data))
        with pytest.raises(MalformedMask, match="beyond ny"):
            load_mask3d(tmp_path / "m.json")

    @pytest.mark.parametrize("planes", [0, 1, 5, 1000], ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("ny", [5, 13, 70])
    def test_loaded_column_counts_fold_over_chunks(self, tmp_path, ny, planes, monkeypatch):
        """A loaded mask counts by chunk, and reads the same bytes by chunk and whole."""
        rng = np.random.default_rng(ny)
        g = GridGeometry(nx=300, ny=ny, nz=12, sx=1.0, sy=1.0, sz=1.0)
        mask = Mask3D(g, rng.random(g.shape_zyx) < 0.5, "left")
        save_mask3d(mask, tmp_path / "m.json")
        monkeypatch.setattr(grid, "_CHUNK_BYTES", max(1, planes * mask.packed[0].nbytes))
        loaded = load_mask3d(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.column_counts,
                                      np.bitwise_count(mask.packed).sum(axis=1))
        np.testing.assert_array_equal(loaded.packed, mask.packed)
        assert b"".join(c.tobytes() for c in loaded.chunks()) == mask.packed.tobytes()

    def test_repr_and_equality_read_no_payload(self, tmp_path, monkeypatch):
        """repr shows the geometry (and label); == and hash are by identity; no payload is read.

        So for 3D masks and volumes; 2D masks and DRR images, held whole,
        compare by identity too, where comparing their arrays would raise.
        """
        g = GridGeometry(nx=3, ny=5, nz=2, sx=1.0, sy=1.0, sz=1.0)
        held = Mask3D(g, np.ones(g.shape_zyx, bool), "right")
        save_mask3d(held, tmp_path / "m.json")
        save_volume(VoxelVolume(g, np.zeros(g.shape_zyx, np.int16)), tmp_path / "v.json")
        save_mask2d(Mask2D(3, 2, 1.0, 1.0, np.ones((2, 3), bool), "left"), tmp_path / "m2.json")
        a, b = load_mask3d(tmp_path / "m.json"), load_mask3d(tmp_path / "m.json")
        va, vb = load_volume(tmp_path / "v.json"), load_volume(tmp_path / "v.json")
        flat_a, flat_b = load_mask2d(tmp_path / "m2.json"), load_mask2d(tmp_path / "m2.json")
        drr_a, drr_b = (DrrImage(3, 2, np.zeros((2, 3), np.uint8)) for _ in range(2))

        def read(*args):
            raise AssertionError("payload read")
        monkeypatch.setattr(io_module._Payload, "read", read)
        assert repr(a) == repr(held) == f"Mask3D(geometry={g!r}, label='right')"
        assert repr(va) == f"VoxelVolume(geometry={g!r})"
        for x, y in ((a, b), (held, a), (va, vb), (flat_a, flat_b), (drr_a, drr_b)):
            assert x == x and x != y and y != x
            assert len({x, y, x}) == 2
        assert "packed" not in vars(a) and "packed" not in vars(b)
        assert "values" not in vars(va) and "values" not in vars(vb)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads the resident set size from /proc")
    def test_counting_a_loaded_mask_keeps_about_one_chunk_resident(self, tmp_path):
        """A CT-grid truth mask (7.6 MiB packed) is counted with ~1.6 MiB more resident, not 7.6.

        Measured in a fresh interpreter. Reading packed whole then grows
        it by the mask: the check can see it.
        """
        g = GridGeometry(512, 512, 244, 0.66, 0.66, 1.25)
        save_mask3d(Mask3D.from_packed(g, np.full(g.packed_zyx, 0x5A, np.uint8), "right"),
                    tmp_path / "m.json")
        record = _resident_growth("count", tmp_path / "m.json")
        assert record["result"] == [4 * 64, 4 * 64]
        counted, read = record["grown"]
        assert counted < 2 * 2 ** 20 and read > 6 * 2 ** 20, (counted, read)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads the resident set size from /proc")
    def test_agreement_of_loaded_masks_keeps_about_one_chunk_resident(self, tmp_path):
        """Two CT-grid truth masks (7.6 MiB packed each) are compared with ~0.4 MiB more resident.

        Measured in a fresh interpreter.
        """
        g = GridGeometry(512, 512, 244, 0.66, 0.66, 1.25)
        for name, byte in (("a", 0x5A), ("b", 0x0F)):
            save_mask3d(Mask3D.from_packed(g, np.full(g.packed_zyx, byte, np.uint8), "right"),
                        tmp_path / f"{name}.json")
        record = _resident_growth("agreement", tmp_path / "a.json", tmp_path / "b.json")
        assert record["result"] == [0.5, 2 / 6]  # |A| = |B| = 4 bits a byte, |A&B| = 2
        (grown,) = record["grown"]
        assert grown < 2 * 2 ** 20, grown

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB (Linux)")
    def test_counting_loaded_masks_peaks_below_a_popcount_per_chunk(self, tmp_path):
        """Counting 4 loaded CT-grid truth masks raises the peak by < 3.6 MiB, the median of 3.

        Each z-half (grid.fold_y) reads its chunks into one 512 KiB buffer
        and popcounts them into one more, and the 4 counts kept take 0.95
        MiB. One fresh interpreter, spawned by a bare launcher, read
        2.78-3.51 MiB (median 3.35, 60 runs). With a new 512 KiB popcount
        array for every chunk, where the last one is still held while the
        next is made, it read 2.85-4.43 MiB (median 3.8, 26 of 30 runs at
        3.6 or more). The median of 3 runs keeps one run's spread out of
        the verdict.
        """
        g = GridGeometry(512, 512, 244, 0.66, 0.66, 1.25)
        save_mask3d(Mask3D.from_packed(g, np.full(g.packed_zyx, 0x5A, np.uint8), "right"),
                    tmp_path / "m.json")
        records = [_peak_growth(*[tmp_path / "m.json"] * 4) for _ in range(3)]
        assert all(record["max"] == [4 * 64] * 4 for record in records)
        grown = sorted(record["grown"] for record in records)
        assert grown[1] < 3.6 * 2 ** 20, grown

    def test_legacy_u8_payload_loads_as_the_same_mask(self, tmp_path, rng, legacy_u8):
        g = GridGeometry(nx=7, ny=13, nz=6, sx=1.0, sy=2.0, sz=3.0)
        mask = Mask3D(g, rng.random(g.shape_zyx) < 0.5, "left")
        save_mask3d(mask, tmp_path / "m.json")
        legacy_u8(tmp_path / "m.json", tmp_path / "old.json")
        assert json.loads((tmp_path / "old.json").read_text())["dtype"] == "u8"
        assert (tmp_path / "old.raw").stat().st_size == g.voxel_count
        for load in (load_mask3d, load_mask):
            back = load(tmp_path / "old.json")
            assert (back.geometry, back.label) == (g, "left")
            assert back.packed.tobytes() == mask.packed.tobytes()
        data = bytearray((tmp_path / "old.raw").read_bytes())
        data[5] = 2
        (tmp_path / "old.raw").write_bytes(bytes(data))
        with pytest.raises(MalformedMask, match="0 or 1"):
            load_mask3d(tmp_path / "old.json")

    def test_legacy_u8_load_holds_the_packed_mask_and_one_chunk(self, tmp_path, rng, legacy_u8):
        """A 128^3 "u8" payload (2 MiB) is packed by chunk: the load peaks near 256 + 576 KiB."""
        g = GridGeometry(128, 128, 128, 2.5, 2.5, 2.5)
        mask = Mask3D(g, rng.random(g.shape_zyx) < 0.5, "right")
        save_mask3d(mask, tmp_path / "m.json")
        legacy_u8(tmp_path / "m.json", tmp_path / "old.json")
        load_mask3d(tmp_path / "old.json")  # warm imports and caches
        tracemalloc.start()
        try:
            loaded = load_mask3d(tmp_path / "old.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the packed mask, one chunk of the payload and that chunk packed: never the payload
        assert peak <= mask.packed.nbytes + grid._CHUNK_BYTES * 9 // 8 + 2 ** 15, peak
        assert loaded.packed.tobytes() == mask.packed.tobytes()

    def test_2d_masks_stay_one_byte_per_pixel(self, tmp_path):
        save_mask2d(Mask2D(4, 3, 1.0, 1.0, np.ones((3, 4), bool), "right"), tmp_path / "m.json")
        header = json.loads((tmp_path / "m.json").read_text())
        assert header["dtype"] == "u8" and (tmp_path / "m.raw").read_bytes() == bytes([1] * 12)
        header["dtype"] = "u1y"
        (tmp_path / "m.json").write_text(json.dumps(header))
        with pytest.raises(MalformedHeader, match="expected dtype"):
            load_mask2d(tmp_path / "m.json")


class TestLoadMask:
    """load_mask takes the mask kind from the header's dims."""

    def test_dispatches_on_dims(self, tmp_path):
        g = GridGeometry(nx=3, ny=2, nz=2, sx=1.0, sy=2.0, sz=3.0)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[1, 0, 2] = True
        save_mask3d(Mask3D(g, bits, "left"), tmp_path / "m3.json")
        save_mask2d(Mask2D(3, 2, 1.0, 3.0, bits[:, 0], "right"), tmp_path / "m2.json")
        m3, m2 = load_mask(tmp_path / "m3.json"), load_mask(tmp_path / "m2.json")
        assert isinstance(m3, Mask3D) and (m3.geometry, m3.label) == (g, "left")
        assert isinstance(m2, Mask2D) and (m2.nx, m2.nz, m2.sz, m2.label) == (3, 2, 3.0, "right")
        np.testing.assert_array_equal(m3.bits, bits)
        np.testing.assert_array_equal(m2.bits, bits[:, 0])

    @pytest.mark.parametrize("dims, spacing", [([6], [1.0]), ([1, 1, 2, 3], [1.0] * 4),
                                               ([2, 3], [1.0, 1.0, 1.0]), ([], [])])
    def test_other_dims_rejected(self, tmp_path, dims, spacing):
        save_mask2d(Mask2D(2, 3, 1.0, 1.0, np.ones((3, 2), bool), "right"), tmp_path / "m.json")
        header = json.loads((tmp_path / "m.json").read_text())
        header.update(dims=dims, spacing_mm=spacing)
        (tmp_path / "m.json").write_text(json.dumps(header))
        with pytest.raises(MalformedHeader):
            load_mask(tmp_path / "m.json")


# --- header mutations: every malformed header is one of the package's errors ---

LOAD_ERRORS = (MalformedHeader, SizeMismatch, MalformedMask, IoFailure)
HEADER_KEYS = ("dims", "spacing_mm", "dtype", "data", "label")
ODD_VALUES = st.one_of(
    st.sampled_from([
        True, False, None, "", "1", "u8", "i16le", "right", "both", [], {}, [1], ["u8"],
        {"label": "right"}, [2, 2], [2, 2, 2], [1.0, 1.0, 1.0], [True, 2, 2],
        float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 2**40, 2**64,
        [2**40, 2**40, 2**40], 0, -1, 0.5, 2.0, 1e308, 5e-324,
        "/etc/passwd", "/m3.raw", "../m3.raw", "sub/../../m2.raw", ".", "m2.raw", "vol.raw",
        "twos.raw", "a\0b.raw", "\ud800.raw",
    ]),
    st.integers(), st.floats(), st.text(max_size=6),
)


def header_keys(header: dict) -> list:
    return [(header, HEADER_KEYS)]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One valid volume, 3D mask and 2D mask (nonempty masks), and a 2D-mask-sized bad payload."""
    root = tmp_path_factory.mktemp("headers")
    g = GridGeometry(nx=3, ny=2, nz=2, sx=0.5, sy=1.0, sz=2.0)
    save_volume(VoxelVolume(g, np.full(g.shape_zyx, -500, np.int16)), root / "vol.json")
    bits = np.zeros(g.shape_zyx, dtype=bool)
    bits[:, 1, 1] = True
    save_mask3d(Mask3D(g, bits, "right"), root / "m3.json")
    save_mask2d(Mask2D(3, 2, 0.5, 2.0, bits[:, 1], "left"), root / "m2.json")
    (root / "twos.raw").write_bytes(bytes([2] * 6))
    return root


def write_mutation(root, header: dict):
    path = root / "mutated.json"
    path.write_text(json.dumps(header))
    return path


@pytest.mark.parametrize("stem, load", [
    ("vol", load_volume), ("m3", load_mask3d), ("m2", load_mask2d),
    ("m3", load_mask), ("m2", load_mask),
], ids=["volume", "mask3d", "mask2d", "mask_3d", "mask_2d"])
@given(data=st.data())
def test_mutated_header_raises_only_load_errors(saved, stem, load, data):
    header = json.loads((saved / f"{stem}.json").read_text())
    path = write_mutation(saved, data.draw(mutated(header, header_keys, ODD_VALUES)))
    with contextlib.suppress(*LOAD_ERRORS):
        load(path)


@pytest.mark.parametrize("stem", ["m3", "m2"])
@given(data=st.data())
def test_agreement_on_mutated_header_is_one_error_line(saved, stem, data):
    header = json.loads((saved / f"{stem}.json").read_text())
    path = str(write_mutation(saved, data.draw(mutated(header, header_keys, ODD_VALUES))))
    try:
        load_mask(path)
        want = 0
    except IoFailure:
        want = 2
    except (MalformedHeader, SizeMismatch, MalformedMask):
        want = 1
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["agreement", path, path])
    assert rc == want
    if want:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


@pytest.mark.parametrize("data", ["a\0b.raw", "\ud800.raw"], ids=["nul", "surrogate"])
def test_unopenable_payload_name_is_io_failure(saved, data):
    header = json.loads((saved / "m2.json").read_text())
    header["data"] = data
    with pytest.raises(IoFailure):
        load_mask2d(write_mutation(saved, header))


class TestPayloadWrites:
    """Payloads are written from the arrays' own memory: same bytes, no copy."""

    def test_mask3d_payload_bytes(self, tmp_path, rng):
        g = GridGeometry(nx=7, ny=13, nz=6, sx=1.0, sy=1.0, sz=1.0)
        bits = rng.random(g.shape_zyx) < 0.5
        save_mask3d(Mask3D(g, bits, "left"), tmp_path / "m.json")
        assert (tmp_path / "m.raw").read_bytes() == np.packbits(
            bits, axis=1, bitorder="little").tobytes()

    def test_mask2d_payload_bytes(self, tmp_path, rng):
        bits = rng.random((6, 7)) < 0.5
        save_mask2d(Mask2D(7, 6, 1.0, 2.0, bits, "right"), tmp_path / "m.json")
        assert (tmp_path / "m.raw").read_bytes() == bits.astype(np.uint8).tobytes()

    @pytest.mark.parametrize("save, build", [
        (save_volume, lambda g: VoxelVolume(g, np.full(g.shape_zyx, -1000, np.int16))),
        (save_mask3d, lambda g: Mask3D(g, np.ones(g.shape_zyx, bool), "right")),
        # the coronal plane of the 512 x 512 x 244 CT grid
        (save_mask2d, lambda g: Mask2D(512, 244, 0.66, 1.25, np.ones((244, 512), bool), "left")),
    ], ids=["volume", "mask3d", "mask2d"])
    def test_save_makes_no_payload_copy(self, tmp_path, save, build):
        obj = build(GridGeometry(128, 128, 128, 2.5, 2.5, 2.5))
        payload = {save_volume: lambda: obj.values, save_mask3d: lambda: obj.packed,
                   save_mask2d: lambda: obj.bits}[save]().nbytes
        save(obj, tmp_path / "warm.json")
        tracemalloc.start()
        try:
            save(obj, tmp_path / "x.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * payload, peak

    def test_partial_writes_are_completed(self, tmp_path, monkeypatch):
        class ShortWrites:
            """A file object that writes at most 3 bytes per call."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                return self.fh.write(memoryview(data)[:3])

        real = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: ShortWrites(real(*a, **kw)))
        vol = small_volume()
        save_volume(vol, tmp_path / "vol.json")
        monkeypatch.undo()
        assert (tmp_path / "vol.raw").read_bytes() == vol.values.astype("<i2").tobytes()
        np.testing.assert_array_equal(load_volume(tmp_path / "vol.json").values, vol.values)


    def test_missing_directories_are_made_on_the_first_write(self, tmp_path, monkeypatch):
        """A file in a new directory makes it; one in an existing directory calls no mkdir."""
        made = []
        real = os.mkdir
        monkeypatch.setattr(os, "mkdir", lambda *a, **kw: made.append(a[0]) or real(*a, **kw))
        save_volume(small_volume(), tmp_path / "a" / "b" / "vol.json")
        assert {os.path.basename(p) for p in made} == {"a", "b"}
        made.clear()
        write_json({"a": 1}, tmp_path / "a" / "b" / "x.json")
        save_volume(small_volume(), tmp_path / "a" / "b" / "vol.json")
        assert made == []
        assert json.loads((tmp_path / "a" / "b" / "x.json").read_text()) == {"a": 1}
        np.testing.assert_array_equal(load_volume(tmp_path / "a" / "b" / "vol.json").values,
                                      small_volume().values)

    @pytest.mark.parametrize("parent", ["file", "file/sub"], ids=["file", "below-a-file"])
    def test_directory_that_is_a_file_is_one_io_failure_line(self, tmp_path, capsys, parent):
        (tmp_path / "file").write_bytes(b"kept")
        with pytest.raises(IoFailure, match="cannot write"):
            write_json({"a": 1}, tmp_path / parent / "x.json")
        assert main(["phantom", "--out", str(tmp_path / parent), "--n", "1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IoFailure: cannot write ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["file"]
        assert (tmp_path / "file").read_bytes() == b"kept"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        save_volume(small_volume(), tmp_path / "vol.json")
        write_json({"a": 1}, tmp_path / "x.json")
    finally:
        os.umask(old)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {
        "vol.json": mode, "vol.raw": mode, "x.json": mode}


class TestPayloadLoads:
    """Loads allocate nothing payload-sized: a volume or a "u1y" mask is read as it is used."""

    @pytest.mark.parametrize("save, load, attr, build", [
        (save_volume, load_volume, "values",
         lambda g: VoxelVolume(g, np.full(g.shape_zyx, -1000, np.int16))),
        (save_mask3d, load_mask3d, "packed",
         lambda g: Mask3D(g, np.ones(g.shape_zyx, bool), "right")),
    ], ids=["volume", "mask3d"])
    def test_load_makes_no_payload_copy(self, tmp_path, save, load, attr, build):
        obj = build(GridGeometry(128, 128, 128, 2.5, 2.5, 2.5))
        save(obj, tmp_path / "x.json")
        load(tmp_path / "x.json")  # warm imports and caches
        tracemalloc.start()
        try:
            loaded = load(tmp_path / "x.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * getattr(obj, attr).nbytes, peak
        arr = getattr(loaded, attr)
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, getattr(obj, attr))

    @pytest.mark.parametrize("save, load, build", [
        (save_volume, load_volume, lambda g: VoxelVolume(g, np.full(g.shape_zyx, 7, np.int16))),
        (save_mask3d, load_mask3d, lambda g: Mask3D(g, np.ones(g.shape_zyx, bool), "right")),
    ], ids=["volume", "mask3d"])
    def test_loaded_chunks_are_read_only(self, tmp_path, save, load, build):
        save(build(GridGeometry(8, 6, 5, 1.0, 1.0, 1.0)), tmp_path / "x.json")
        for chunk in load(tmp_path / "x.json").chunks():
            with pytest.raises(ValueError, match="read-only"):
                chunk[...] = 0

    @pytest.mark.parametrize("resize", [lambda b: b[:-1], lambda b: b + b"\0", lambda b: b""],
                             ids=["short", "long", "empty"])
    @pytest.mark.parametrize("save, load, obj", [
        (save_volume, load_volume, small_volume()),
        (save_mask3d, load_mask3d,
         Mask3D(small_volume().geometry, np.ones((2, 3, 4), bool), "left")),
        (save_mask2d, load_mask2d, Mask2D(4, 2, 1.0, 1.0, np.ones((2, 4), bool), "left")),
    ], ids=["volume", "mask3d", "mask2d"])
    def test_wrong_payload_size_is_size_mismatch(self, tmp_path, save, load, obj, resize):
        save(obj, tmp_path / "x.json")
        raw = tmp_path / "x.raw"
        raw.write_bytes(resize(raw.read_bytes()))
        with pytest.raises(SizeMismatch, match="header implies"):
            load(tmp_path / "x.json")

    def test_payload_that_is_a_directory_is_io_failure(self, tmp_path, capsys):
        save_volume(small_volume(), tmp_path / "vol.json")
        (tmp_path / "vol.raw").unlink()
        (tmp_path / "vol.raw").mkdir()
        with pytest.raises(IoFailure):
            load_volume(tmp_path / "vol.json")
        assert main(["drr", str(tmp_path / "vol.json"), "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IoFailure: ") and err.count("\n") == 1
        assert not (tmp_path / "x.pgm").exists()

    def test_loaded_array_keeps_its_bytes_when_the_file_is_replaced(self, tmp_path):
        vol = small_volume()
        save_volume(vol, tmp_path / "vol.json")
        before = load_volume(tmp_path / "vol.json")
        save_volume(VoxelVolume(vol.geometry, np.full(vol.geometry.shape_zyx, 7, np.int16)),
                    tmp_path / "new.json")
        os.replace(tmp_path / "new.raw", tmp_path / "vol.raw")
        np.testing.assert_array_equal(before.values, vol.values)
        assert (load_volume(tmp_path / "vol.json").values == 7).all()


class TestVolumeReads:
    """A loaded volume or 3D mask reads its payload by z-chunk, through the descriptor it opened."""

    G = GridGeometry(nx=8, ny=6, nz=5, sx=1.0, sy=1.0, sz=1.0)

    @pytest.mark.parametrize("bad", [HU_MIN - 1, HU_MAX + 1])
    def test_out_of_range_voxel_in_the_last_slice(self, tmp_path, capsys, bad):
        save_volume(VoxelVolume(self.G, np.zeros(self.G.shape_zyx, np.int16)),
                    tmp_path / "vol.json")
        raw = tmp_path / "vol.raw"
        raw.write_bytes(raw.read_bytes()[:-2] + np.array(bad, "<i2").tobytes())
        message = re.escape(f"{raw}: values outside [{HU_MIN}, {HU_MAX}]")
        pgm = tmp_path / "vol.pgm"
        # one slice per chunk: only the last chunk holds the voxel
        with mock.patch.object(grid, "_CHUNK_BYTES", 2 * self.G.ny * self.G.nx):
            assert main(["drr", str(tmp_path / "vol.json"), "--out", str(pgm)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.fullmatch(f"error: ValueError: {message}\n", err)
        assert not pgm.exists()
        with pytest.raises(ValueError, match=message):
            load_volume(tmp_path / "vol.json").values

    def save_kind(self, tmp_path, kind: str):
        """Save a volume or a 3D mask of grid G as x.json; return it, its loader and slice bytes."""
        ramp = np.arange(self.G.voxel_count).reshape(self.G.shape_zyx)
        if kind == "volume":
            obj = VoxelVolume(self.G, ramp - 1000)
            save_volume(obj, tmp_path / "x.json")
            return obj, load_volume, 2 * self.G.ny * self.G.nx
        obj = Mask3D(self.G, ramp % 3 == 0, "left")
        save_mask3d(obj, tmp_path / "x.json")
        return obj, load_mask3d, self.G.nx  # ny = 6: one packed byte row per slice

    # the payload keeps `slices` whole slices and `extra` bytes (G has nz = 5)
    @pytest.mark.parametrize("kind, slices, extra", [
        pytest.param("volume", 0, 0, id="empty"),
        pytest.param("volume", 2, 7, id="mid-slice"),
        pytest.param("volume", 5, -1, id="one-byte-short"),
        pytest.param("mask3d", 0, 0, id="mask3d-empty"),
        pytest.param("mask3d", 2, 7, id="mask3d-mid-slice"),
        pytest.param("mask3d", 5, -1, id="mask3d-one-byte-short"),
    ])
    def test_payload_truncated_after_load_is_size_mismatch(self, tmp_path, kind, slices, extra):
        """Every read of a loaded payload cut short after the load is a SizeMismatch."""
        _, load, slice_bytes = self.save_kind(tmp_path, kind)
        reads = [lambda x: list(x.chunks())] + (
            [lambda x: x.values] if kind == "volume"
            else [lambda x: x.column_counts, lambda x: x.packed])
        loaded = [load(tmp_path / "x.json") for _ in reads]
        os.truncate(tmp_path / "x.raw", slices * slice_bytes + extra)  # in place: the loads see it
        with mock.patch.object(grid, "_CHUNK_BYTES", slice_bytes):  # one slice per chunk
            for read, obj in zip(reads, loaded):
                with pytest.raises(SizeMismatch, match="payload ends at byte"):
                    read(obj)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("kind", ["volume", "mask3d"])
    def test_holds_one_descriptor_until_freed(self, tmp_path, kind):
        obj, load, _ = self.save_kind(tmp_path, kind)
        gc.collect()
        start = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loaded = load(tmp_path / "x.json")
            assert len(os.listdir("/proc/self/fd")) == start + 1
            read = [c.copy() for c in loaded.chunks()]
            assert len(os.listdir("/proc/self/fd")) == start + 1
            del loaded  # reference counting alone frees it
            assert len(os.listdir("/proc/self/fd")) == start
        np.testing.assert_array_equal(np.concatenate(read),
                                      obj.values if kind == "volume" else obj.packed)


class TestPgm:
    def test_exact_bytes(self):
        pixels = np.array([[0, 128], [255, 7]], dtype=np.uint8)
        img = DrrImage(nx=2, nz=2, pixels=pixels)
        assert pgm_bytes(img) == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])

    def test_save(self, tmp_path):
        img = DrrImage(nx=3, nz=1, pixels=np.array([[9, 8, 7]], dtype=np.uint8))
        save_pgm(img, tmp_path / "out.pgm")
        assert (tmp_path / "out.pgm").read_bytes() == b"P5\n3 1\n255\n" + bytes([9, 8, 7])


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        write_json({"b": 1, "a": {"d": 2, "c": 3}}, tmp_path / "x.json")
        text = (tmp_path / "x.json").read_text()
        assert text == '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'

    def test_no_leftover_temp_files(self, tmp_path):
        write_json({"a": 1}, tmp_path / "x.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
