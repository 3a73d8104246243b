"""Geometry and container invariants: shapes, ranges, immutability."""

import dataclasses
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lungcover import grid
from lungcover.concordance import _union_column_counts
from lungcover.errors import SizeMismatch
from lungcover.grid import (
    HU_MAX,
    HU_MIN,
    DrrImage,
    GridGeometry,
    Mask2D,
    Mask3D,
    VoxelVolume,
    voxel_volume_ml,
)
from lungcover.io import load_mask3d, load_volume, save_mask3d, save_volume
from lungcover.phantom import default_spec, generate_phantom
from lungcover.projection import _column_sums, render_drr


def small_geometry(nx=4, ny=3, nz=2, sx=1.0, sy=1.0, sz=1.0) -> GridGeometry:
    return GridGeometry(nx=nx, ny=ny, nz=nz, sx=sx, sy=sy, sz=sz)


class TestGridGeometry:
    def test_shape_is_z_y_x(self):
        g = small_geometry(nx=5, ny=7, nz=11)
        assert g.shape_zyx == (11, 7, 5)
        assert g.voxel_count == 5 * 7 * 11

    @pytest.mark.parametrize("field", ["nx", "ny", "nz"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_nonpositive_counts(self, field, value):
        with pytest.raises(ValueError):
            small_geometry(**{field: value})

    @pytest.mark.parametrize("field", ["nx", "ny", "nz"])
    def test_rejects_bool_counts(self, field):
        with pytest.raises(ValueError):
            small_geometry(**{field: True})

    @pytest.mark.parametrize("field", ["sx", "sy", "sz"])
    # json reads huge ints; bool is an int; a str compared with a float raised TypeError
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf"), "1",
                                       pytest.param(10**400, id="10**400"), True])
    def test_rejects_bad_spacing(self, field, value):
        with pytest.raises(ValueError):
            small_geometry(**{field: value})

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(2.5), np.int64(2), 3])
    def test_accepts_numpy_and_integer_spacing(self, value):
        assert small_geometry(sy=value).sy == value

    def test_stores_int_counts_and_float_spacing(self):
        g = small_geometry(nx=np.int64(5), sy=np.float32(0.5), sz=3)
        assert (g.nx, g.sy, g.sz) == (5, 0.5, 3.0)
        assert type(g.nx) is int and type(g.sy) is float and type(g.sz) is float

    @pytest.mark.parametrize("dims", [(2**40, 2**40, 1), (10**400, 1, 1), (2**21, 2**21, 2**21)])
    def test_rejects_counts_numpy_cannot_index(self, dims):
        with pytest.raises(ValueError, match="too many voxels"):
            small_geometry(nx=dims[0], ny=dims[1], nz=dims[2])

    def test_accepts_the_largest_indexable_grid(self):
        assert small_geometry(nx=np.iinfo(np.intp).max, ny=1, nz=1).voxel_count > 0

    @pytest.mark.parametrize("value", [np.float32("nan"), np.float16("inf"), np.bool_(True)])
    def test_rejects_bad_numpy_spacing(self, value):
        with pytest.raises(ValueError):
            small_geometry(sz=value)

    def test_voxel_volume_ml(self):
        g = small_geometry(sx=2.5, sy=2.5, sz=2.5)
        assert voxel_volume_ml(g) == 2.5 ** 3 / 1000.0
        assert voxel_volume_ml(small_geometry(sx=0.66, sy=0.66, sz=1.25)) == (
            0.66 * 0.66 * 1.25 / 1000.0
        )

    @given(
        nx=st.integers(1, 32), ny=st.integers(1, 32), nz=st.integers(1, 32),
        sx=st.floats(0.1, 10.0), sy=st.floats(0.1, 10.0), sz=st.floats(0.1, 10.0),
    )
    def test_volume_times_count_is_physical_volume(self, nx, ny, nz, sx, sy, sz):
        g = GridGeometry(nx=nx, ny=ny, nz=nz, sx=sx, sy=sy, sz=sz)
        total_ml = voxel_volume_ml(g) * g.voxel_count
        assert total_ml == pytest.approx(nx * ny * nz * sx * sy * sz / 1000.0)


class TestVoxelVolume:
    def test_accepts_full_hu_range(self):
        g = small_geometry()
        values = np.full(g.shape_zyx, HU_MIN, dtype=np.int16)
        values[0, 0, 0] = HU_MAX
        vol = VoxelVolume(g, values)
        assert vol.values.dtype == np.int16
        assert vol.values[0, 0, 0] == HU_MAX

    @pytest.mark.parametrize("bad", [HU_MIN - 1, HU_MAX + 1])
    def test_rejects_out_of_range(self, bad):
        g = small_geometry()
        values = np.zeros(g.shape_zyx, dtype=np.int32)
        values[1, 2, 3] = bad
        with pytest.raises(ValueError):
            VoxelVolume(g, values)

    def test_rejects_wrong_shape(self):
        g = small_geometry()
        with pytest.raises(ValueError):
            VoxelVolume(g, np.zeros((2, 3, 5), dtype=np.int16))

    @pytest.mark.parametrize("bad", [HU_MIN - 1, HU_MAX + 1])
    @pytest.mark.parametrize("where", ["first", "last", "inside_partial_block"])
    def test_range_check_reads_every_block(self, bad, where):
        rows = grid.chunk_depth(256 * 256 * 2)  # int16 slices per scan block
        g = small_geometry(nx=256, ny=256, nz=rows + rows // 2 + 1)  # ends in a partial block
        partial = g.nz - g.nz % rows
        assert 0 < partial < g.nz
        values = np.zeros(g.shape_zyx, dtype=np.int16)
        index = {"first": (0, 0, 0), "last": (-1, -1, -1),
                 "inside_partial_block": (partial + 1, 40, 17)}[where]
        values[index] = bad
        with pytest.raises(ValueError, match="outside"):
            VoxelVolume(g, values)
        values[index] = HU_MAX
        assert VoxelVolume(g, values).values[index] == HU_MAX

    def test_rejects_nan(self):
        g = small_geometry()
        values = np.zeros(g.shape_zyx)
        values[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="outside"):
            VoxelVolume(g, values)

    def test_values_are_read_only(self):
        g = small_geometry()
        vol = VoxelVolume(g, np.zeros(g.shape_zyx, dtype=np.int16))
        with pytest.raises(ValueError):
            vol.values[0, 0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            vol.values = vol.values


class TestMask3D:
    def test_counts_voxels(self):
        g = small_geometry()
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[0, 1, 2] = True
        bits[1, 2, 3] = True
        m = Mask3D(g, bits, "right")
        assert m.voxel_count == 2
        assert m.label == "right"

    def test_rejects_unknown_label(self):
        g = small_geometry()
        with pytest.raises(ValueError):
            Mask3D(g, np.zeros(g.shape_zyx, dtype=bool), "upper")

    def test_rejects_shape_mismatch(self):
        g = small_geometry()
        with pytest.raises(ValueError):
            Mask3D(g, np.zeros((1, 1, 1), dtype=bool), "left")

    def test_bits_are_read_only(self):
        g = small_geometry()
        m = Mask3D(g, np.zeros(g.shape_zyx, dtype=bool), "both")
        with pytest.raises(ValueError):
            m.bits[0, 0, 0] = True

    def test_coerces_integer_bits_to_bool(self):
        g = small_geometry()
        m = Mask3D(g, np.ones(g.shape_zyx, dtype=np.uint8), "left")
        assert m.bits.dtype == np.bool_
        assert m.voxel_count == g.voxel_count

    def test_column_counts_are_read_only_and_cached(self, monkeypatch):
        g = small_geometry(ny=255)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[1, :, 2] = True
        bits[0, 3, 0] = True
        m = Mask3D(g, bits, "right")
        calls = []
        scalar_type = np.min_scalar_type
        monkeypatch.setattr(np, "min_scalar_type", lambda n: calls.append(n) or scalar_type(n))
        cols = m.column_counts
        assert cols.dtype == np.uint8 and cols.shape == (g.nz, g.nx)
        np.testing.assert_array_equal(cols, bits.sum(axis=1))
        assert m.column_counts is cols and calls == [255]
        with pytest.raises(ValueError):
            cols[0, 0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.column_counts = cols
        with pytest.raises(dataclasses.FrozenInstanceError):
            del m.column_counts


class TestPackedMask3D:
    """Mask3D keeps one bit per voxel: byte (z, j, x) holds y = 8j + k in bit k."""

    @given(ny=st.sampled_from([1, 5, 7, 8, 9, 13, 244]), seed=st.integers(0, 2**32 - 1))
    def test_packs_and_counts_like_numpy(self, ny, seed):
        rng = np.random.default_rng(seed)
        g = small_geometry(nx=int(rng.integers(1, 6)), ny=ny, nz=int(rng.integers(1, 6)))
        bits = rng.random(g.shape_zyx) < rng.random()
        m = Mask3D(g, bits, "left")
        want = np.packbits(bits, axis=1, bitorder="little")
        assert m.packed.dtype == np.uint8 and not m.packed.flags.writeable
        np.testing.assert_array_equal(m.packed, want)
        np.testing.assert_array_equal(m.bits, bits)
        np.testing.assert_array_equal(m.column_counts, bits.sum(axis=1))
        assert m.column_counts.dtype == np.min_scalar_type(ny)
        assert m.voxel_count == np.count_nonzero(bits)
        back = Mask3D.from_packed(g, want, "right")
        np.testing.assert_array_equal(back.bits, bits)
        assert back.packed is want and back.label == "right"

    @pytest.mark.parametrize("planes", [0, 1, 5, 1000], ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("ny", [1, 5, 7, 9, 13, 70])
    def test_column_counts_fold_over_chunks(self, ny, planes, monkeypatch):
        """Chunks of depth 1 (a slice larger than a chunk), 1, 5 (not dividing nz) and all of nz."""
        rng = np.random.default_rng(ny)
        g = small_geometry(nx=6, ny=ny, nz=12)
        m = Mask3D(g, rng.random(g.shape_zyx) < 0.5, "right")
        monkeypatch.setattr(grid, "_CHUNK_BYTES", max(1, planes * m.packed[0].nbytes))
        depth = min(max(planes, 1), 12)
        chunks = list(m.chunks())
        assert [len(c) for c in chunks] == [min(depth, 12 - z) for z in range(0, 12, depth)]
        assert all(np.shares_memory(c, m.packed) for c in chunks)  # views: nothing is copied
        np.testing.assert_array_equal(m.column_counts, np.bitwise_count(m.packed).sum(axis=1))

    def test_keeps_no_bool_array(self):
        g = small_geometry(ny=13)
        m = Mask3D(g, np.ones(g.shape_zyx, bool), "right")
        assert "bits" not in vars(m)  # unpacked on first use only
        assert m.packed.shape == (g.nz, 2, g.nx)
        assert m.bits is m.bits and not m.bits.flags.writeable

    @pytest.mark.parametrize("ny", [1, 5, 7, 9, 13])
    def test_from_packed_rejects_set_padding_bits(self, ny):
        g = small_geometry(ny=ny)
        packed = np.zeros((g.nz, -(-ny // 8), g.nx), np.uint8)
        for k in range(ny % 8, 8):
            bad = packed.copy()
            bad[-1, -1, -1] = 1 << k
            with pytest.raises(ValueError, match="beyond ny"):
                Mask3D.from_packed(g, bad, "right")
        packed[:] = 0xFF
        packed[:, -1] = (1 << (ny % 8)) - 1  # every bit below ny is allowed
        assert Mask3D.from_packed(g, packed, "right").voxel_count == g.nz * g.nx * ny

    @pytest.mark.parametrize("packed", [
        np.zeros((2, 1, 4), np.uint16), np.zeros((2, 3, 4), np.uint8), np.zeros((2, 4), np.uint8),
    ], ids=["dtype", "unpacked_shape", "2d"])
    def test_from_packed_rejects_other_arrays(self, packed):
        with pytest.raises(ValueError, match="packed bits must be uint8"):
            Mask3D.from_packed(small_geometry(), packed, "right")

    def test_from_packed_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="label"):
            Mask3D.from_packed(small_geometry(), np.zeros((2, 1, 4), np.uint8), "upper")


class TestMask2D:
    def test_shape_is_z_x(self):
        m = Mask2D(nx=4, nz=3, sx=1.0, sz=2.0, bits=np.ones((3, 4), dtype=bool),
                   label="left")
        assert m.pixel_count == 12

    def test_rejects_transposed_bits(self):
        with pytest.raises(ValueError):
            Mask2D(nx=4, nz=3, sx=1.0, sz=2.0, bits=np.ones((4, 3), dtype=bool),
                   label="left")

    @pytest.mark.parametrize("kwargs", [
        dict(nx=0, nz=3, sx=1.0, sz=1.0),
        dict(nx=4, nz=3, sx=-1.0, sz=1.0),
        dict(nx=4, nz=3, sx=1.0, sz=0.0),
    ])
    def test_rejects_bad_plane(self, kwargs):
        with pytest.raises(ValueError):
            Mask2D(bits=np.ones((kwargs["nz"], max(kwargs["nx"], 1)), dtype=bool),
                   label="right", **kwargs)

    @pytest.mark.parametrize("field", ["sx", "sz"])
    # json reads huge ints; bool is an int; a str compared with a float raised TypeError
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf"), "1",
                                       pytest.param(10**400, id="10**400"), True])
    def test_rejects_spacing_the_geometry_rejects(self, field, value):
        spacing = {"sx": 1.0, "sz": 1.0, field: value}
        with pytest.raises(ValueError, match="positive and finite"):
            Mask2D(nx=2, nz=2, bits=np.ones((2, 2), dtype=bool), label="right", **spacing)
        with pytest.raises(ValueError, match="positive and finite"):
            small_geometry(**spacing)

    def test_rejects_bool_sizes(self):
        with pytest.raises(ValueError):
            Mask2D(nx=True, nz=True, sx=1.0, sz=1.0, bits=np.ones((1, 1), dtype=bool),
                   label="right")


class TestDrrImage:
    def test_holds_uint8_plane(self):
        img = DrrImage(nx=4, nz=2, pixels=np.arange(8, dtype=np.uint8).reshape(2, 4))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.shape == (2, 4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DrrImage(nx=4, nz=2, pixels=np.zeros((4, 2), dtype=np.uint8))

    @pytest.mark.parametrize("sizes", [dict(nx=True, nz=1), dict(nx=1, nz=True),
                                       dict(nx=2.0, nz=1), dict(nx=1, nz=1.0)],
                             ids=["bool_nx", "bool_nz", "float_nx", "float_nz"])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="positive integer"):
            DrrImage(pixels=np.zeros((int(sizes["nz"]), int(sizes["nx"])), np.uint8), **sizes)

    def test_pixels_are_read_only(self):
        img = DrrImage(nx=2, nz=2, pixels=np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9


# The built-in specs' 320 mm field on a 32^3 grid.
COARSE = GridGeometry(32, 32, 32, 10.0, 10.0, 10.0)
WHOLE = {"volume": "values", "mask": "packed"}


def one_of_each(kind: str, made: str, tmp_path):
    """The default phantom's volume or right truth mask on COARSE: held, loaded or painted."""
    case = generate_phantom(replace(default_spec(), geometry=COARSE))
    painted = case.volume if kind == "volume" else case.truth_right
    if made == "painted":
        return painted
    if made == "held":
        return (VoxelVolume(COARSE, painted.values) if kind == "volume"
                else Mask3D.from_packed(COARSE, painted.packed, "right"))
    save, load = (save_volume, load_volume) if kind == "volume" else (save_mask3d, load_mask3d)
    save(painted, tmp_path / "saved.json")
    return load(tmp_path / "saved.json")


def count_source_calls(obj) -> list:
    """Make obj's source append to the list returned each time it is called."""
    calls, source = [], obj._source
    object.__setattr__(obj, "_source", lambda: calls.append(1) or source())
    return calls


@pytest.mark.parametrize("made", ["held", "loaded", "painted"])
@pytest.mark.parametrize("kind", ["volume", "mask"])
class TestOneChunkRule:
    """Every volume and 3D mask: views of the whole array once it is held, else a source's chunks."""

    def test_chunks_view_the_whole_array_once_it_is_held(self, kind, made, tmp_path,
                                                         monkeypatch):
        obj = one_of_each(kind, made, tmp_path)
        slice_bytes = (2 * COARSE.ny if kind == "volume" else COARSE.packed_zyx[1]) * COARSE.nx
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 5 * slice_bytes)  # 7 chunks of 32 slices
        if made == "held":
            calls = []
        else:
            assert WHOLE[kind] not in vars(obj)
            streamed = np.concatenate([chunk.copy() for chunk in obj.chunks()])
            calls = count_source_calls(obj)
        whole = getattr(obj, WHOLE[kind])
        assert len(calls) == (made != "held")  # filled once, from a new fill
        chunks = list(obj.chunks())
        assert [len(chunk) for chunk in chunks] == [5] * 6 + [2]
        assert all(np.shares_memory(chunk, whole) for chunk in chunks)
        np.testing.assert_array_equal(np.concatenate(chunks), whole)
        assert len(calls) == (made != "held")  # the source is not called again
        if made != "held":
            np.testing.assert_array_equal(streamed, whole)

    def test_every_kind_is_the_one_grid_type(self, kind, made, tmp_path):
        assert type(one_of_each(kind, made, tmp_path)) is (VoxelVolume if kind == "volume"
                                                           else Mask3D)


def record_fills(obj) -> list:
    """Make each fill of obj's source append (first slice, thread ident) to the list returned."""
    fills, source = [], obj._source

    def traced():
        fill = source()

        def recorded(out, z0):
            fills.append((z0, threading.get_ident()))
            return fill(out, z0)
        return recorded
    object.__setattr__(obj, "_source", traced)
    return fills


class Stop(BaseException):
    """Not an Exception: what a worker's KeyboardInterrupt or SystemExit would be."""


class TestInPairs:
    """in_pairs runs each pair's upper item in a worker beside its lower one, as a loop would.

    At the size floor items pair; below it they run one at a time in the caller.
    """

    AT_FLOOR = grid._SPLIT_BYTES

    @pytest.fixture
    def started(self, monkeypatch) -> list:
        """The names of the threads started while the test runs."""
        names, real = [], threading.Thread.start

        def start(thread):
            names.append(thread.name)
            return real(thread)
        monkeypatch.setattr(threading.Thread, "start", start)
        return names

    @staticmethod
    def recorded(fails=(), raises=ValueError):
        """fn for in_pairs, and the (item, thread ident) of each call; fails raise."""
        calls = []

        def fn(item):
            calls.append((item, threading.get_ident()))
            if item in fails:
                raise raises(f"item {item}")
            return 10 * item
        return fn, calls

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_results_come_in_item_order(self, n, started):
        start, here = threading.active_count(), threading.get_ident()
        begun = [threading.Event() for _ in range(n)]
        fn, calls = self.recorded()

        def both_at_once(item):
            begun[item].set()
            if item % 2 == 0 and item + 1 < n:  # the worker makes item + 1 meanwhile
                assert begun[item + 1].wait(10)
                time.sleep(0.01)  # and ends first
            return fn(item)
        pairs = grid.in_pairs(both_at_once, range(n), self.AT_FLOOR)
        assert list(pairs) == [10 * i for i in range(n)]
        assert sorted(item for item, _ in calls) == list(range(n))
        assert {item for item, ident in calls if ident == here} == set(range(0, n, 2))
        assert len(started) == n // 2
        assert threading.active_count() == start

    @pytest.mark.parametrize("upper_fails", [True, False])
    def test_lower_error_wins_after_the_upper_item_ends(self, upper_fails, started):
        start = threading.active_count()
        fn, _ = self.recorded(fails={0, 1} if upper_fails else {0})
        ended = []

        def slow_upper(item):
            try:
                if item == 1:
                    time.sleep(0.05)  # still running when the lower item raises
                return fn(item)
            finally:
                ended.append(item)
        with pytest.raises(ValueError, match="^item 0$"):
            list(grid.in_pairs(slow_upper, [0, 1, 2], self.AT_FLOOR))
        assert sorted(ended) == [0, 1]  # item 1 ended before the error; item 2 never began
        assert threading.active_count() == start

    def test_upper_error_comes_after_the_lower_result(self, started):
        start = threading.active_count()
        fn, calls = self.recorded(fails={3})
        pairs = grid.in_pairs(fn, range(5), self.AT_FLOOR)
        assert [next(pairs) for _ in range(3)] == [0, 10, 20]
        assert threading.active_count() == start  # the worker ended before item 2 came
        with pytest.raises(ValueError, match="^item 3$"):
            next(pairs)
        assert sorted(item for item, _ in calls) == [0, 1, 2, 3]
        assert threading.active_count() == start

    @pytest.mark.parametrize("fails", [{1}, {0, 1}])
    def test_base_exception_in_the_worker_reaches_the_caller(self, fails, started):
        start = threading.active_count()
        fn, _ = self.recorded(fails=fails, raises=Stop)
        with pytest.raises(Stop, match=f"^item {min(fails)}$"):
            list(grid.in_pairs(fn, [0, 1], self.AT_FLOOR))
        assert threading.active_count() == start

    @pytest.mark.parametrize("fails", [(), {2}])
    def test_a_lone_item_runs_in_the_caller_and_starts_no_thread(self, fails, started):
        start = threading.active_count()
        fn, calls = self.recorded(fails=fails)
        pairs = grid.in_pairs(fn, [0, 1, 2], self.AT_FLOOR)
        assert [next(pairs), next(pairs)] == [0, 10]
        assert len(started) == 1
        if fails:
            with pytest.raises(ValueError, match="^item 2$"):
                next(pairs)
        else:
            assert list(pairs) == [20]
        assert calls[-1] == (2, threading.get_ident())
        assert len(calls) == 3 and len(started) == 1
        assert threading.active_count() == start
        assert list(grid.in_pairs(fn, [1], self.AT_FLOOR)) == [10]
        assert calls[-1] == (1, threading.get_ident()) and len(started) == 1

    @pytest.mark.parametrize("fails", [(), {1}, {2}])
    def test_below_the_floor_items_run_one_at_a_time_in_the_caller(self, fails, started):
        """A plain loop: no thread, and an error at item i comes after items 0..i only."""
        fn, calls = self.recorded(fails=fails)
        pairs = grid.in_pairs(fn, range(4), self.AT_FLOOR - 1)
        if fails:
            (at,) = fails
            assert [next(pairs) for _ in range(at)] == [10 * i for i in range(at)]
            with pytest.raises(ValueError, match=f"^item {at}$"):
                next(pairs)
            assert [item for item, _ in calls] == list(range(at + 1))
        else:
            assert list(pairs) == [0, 10, 20, 30]
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert started == []


class TestTwoHalves:
    """fold_y folds a large seekable array's two z-halves at once, to the one-pass answer."""

    NX, NY = 7, 11

    @staticmethod
    def one_pass(monkeypatch, fold):
        """fold() with no array large enough to split."""
        with monkeypatch.context() as m:
            m.setattr(grid, "_SPLIT_BYTES", 1 << 62)
            return fold()

    @staticmethod
    def split_into_chunks(monkeypatch, slice_bytes: int, depth: int) -> None:
        """Split every seekable array, in chunks of depth slices of slice_bytes."""
        monkeypatch.setattr(grid, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(grid, "_CHUNK_BYTES", depth * slice_bytes)

    def assert_halves(self, fills, nz: int, depth: int) -> None:
        """Each chunk was filled once: [0, mid) in this thread and [mid, nz) in one other."""
        mid = depth * -(-nz // (2 * depth))
        assert sorted(z for z, _ in fills) == list(range(0, nz, depth))
        here = threading.get_ident()
        assert {ident for z, ident in fills if z < mid} == {here}
        upper = {ident for z, ident in fills if z >= mid}
        assert len(upper) == (mid < nz) and here not in upper

    # odd nz, nz not a multiple of the depth, nz = 1 (never split) and an even split
    CASES = [(13, 2), (12, 5), (15, 3), (1, 1), (1, 4), (2, 1), (16, 4)]

    @pytest.mark.parametrize("nz, depth", CASES)
    def test_drr_is_the_one_pass_drr(self, nz, depth, tmp_path, monkeypatch):
        g = small_geometry(self.NX, self.NY, nz)
        values = np.random.default_rng(nz * depth).integers(HU_MIN, HU_MAX + 1, g.shape_zyx)
        held = VoxelVolume(g, values)
        save_volume(held, tmp_path / "vol.json")
        loaded = load_volume(tmp_path / "vol.json")
        want = self.one_pass(monkeypatch, lambda: render_drr(held).pixels)
        fills = record_fills(loaded)
        self.split_into_chunks(monkeypatch, 2 * self.NY * self.NX, depth)
        for volume in (held, loaded):
            np.testing.assert_array_equal(_column_sums(volume),
                                          values.sum(axis=1, dtype=np.int64))
            np.testing.assert_array_equal(render_drr(volume).pixels, want)
        self.assert_halves(fills[:len(fills) // 2], nz, depth)

    @pytest.mark.parametrize("nz, depth", CASES)
    def test_column_and_union_counts_are_the_one_pass_counts(self, nz, depth, tmp_path,
                                                             monkeypatch):
        g = small_geometry(self.NX, self.NY, nz)
        rng = np.random.default_rng(nz * depth)
        bits = [rng.random(g.shape_zyx) < 0.35 for _ in range(2)]  # overlapping columns
        held = [Mask3D(g, b, "right") for b in bits]
        for k, mask in enumerate(held):
            save_mask3d(mask, tmp_path / f"m{k}.json")

        def loaded():
            return [load_mask3d(tmp_path / f"m{k}.json") for k in range(2)]
        want = self.one_pass(monkeypatch, lambda: _union_column_counts(*loaded()))
        np.testing.assert_array_equal(want, (bits[0] | bits[1]).sum(axis=1))
        self.split_into_chunks(monkeypatch, g.packed_zyx[1] * self.NX, depth)
        masks = loaded()
        fills = record_fills(masks[0])
        for pair in (held, masks, loaded()):
            np.testing.assert_array_equal(_union_column_counts(*pair), want)
            for mask, b in zip(pair, bits):
                np.testing.assert_array_equal(mask.column_counts, b.sum(axis=1))
        # masks[0]: column_counts, then the intersection pass
        self.assert_halves(fills[:len(fills) // 2], nz, depth)
        self.assert_halves(fills[len(fills) // 2:], nz, depth)

    G = small_geometry(NX, NY, 9)  # depth 2: [0, 6) and [6, 9)
    MID = 6

    def saved_volume(self, tmp_path, bad_slices=()):
        """A loaded volume of G with HU_MAX + 1 in one voxel of each of bad_slices."""
        values = np.zeros(self.G.shape_zyx, np.int16)
        save_volume(VoxelVolume(self.G, values), tmp_path / "vol.json")
        raw = tmp_path / "vol.raw"
        data = bytearray(raw.read_bytes())
        for z in bad_slices:
            at = 2 * z * self.NY * self.NX
            data[at:at + 2] = np.array(HU_MAX + 1, "<i2").tobytes()
        raw.write_bytes(data)
        return load_volume(tmp_path / "vol.json")

    def fold_error(self, monkeypatch, volume, split: bool) -> Exception:
        """The error render_drr raises: the two halves' fold if split, else one pass."""
        start = threading.active_count()
        with monkeypatch.context() as m:
            m.setattr(grid, "_SPLIT_BYTES", 0 if split else 1 << 62)
            m.setattr(grid, "_CHUNK_BYTES", 2 * 2 * self.NY * self.NX)
            with pytest.raises((ValueError, SizeMismatch)) as caught:
                render_drr(volume)
        assert threading.active_count() == start  # the worker ended with the call
        return caught.value

    @pytest.mark.parametrize("bad_slices", [(0, 8), (5, 6), (8,), (1,)],
                             ids=["both-halves", "both-sides-of-mid", "upper-only", "lower-only"])
    def test_out_of_range_hu_is_the_one_pass_error(self, tmp_path, monkeypatch, bad_slices):
        volume = self.saved_volume(tmp_path, bad_slices)
        err = self.fold_error(monkeypatch, volume, split=True)
        assert type(err) is ValueError
        assert str(err) == f"{tmp_path / 'vol.raw'}: values outside [{HU_MIN}, {HU_MAX}]"

    @pytest.mark.parametrize("cut_at, bad_slices, error", [
        (3, (), SizeMismatch),  # both halves end early: the lower half's offset
        (8, (), SizeMismatch),  # only the upper half ends early
        (8, (1,), ValueError),  # the lower half's HU error, not the upper half's SizeMismatch
        (0, (), SizeMismatch),
    ])
    def test_payload_cut_short_is_the_one_pass_error(self, tmp_path, monkeypatch, cut_at,
                                                     bad_slices, error):
        """A payload cut to cut_at slices after the load fails as a single pass would."""
        volume = self.saved_volume(tmp_path, bad_slices)
        os.truncate(tmp_path / "vol.raw", cut_at * 2 * self.NY * self.NX + 3)
        want = self.fold_error(monkeypatch, volume, split=False)
        got = self.fold_error(monkeypatch, volume, split=True)
        assert type(got) is type(want) is error and str(got) == str(want)

    def test_a_painted_volume_folds_in_one_pass(self, monkeypatch):
        """A painter paints each slice from the one before: it is never split, at any size."""
        case = generate_phantom(replace(default_spec(), geometry=COARSE))
        held = VoxelVolume(COARSE, case.volume.values)
        fresh = generate_phantom(case.spec)
        fills = record_fills(fresh.volume)
        self.split_into_chunks(monkeypatch, 2 * COARSE.ny * COARSE.nx, 3)
        drr = render_drr(fresh.volume).pixels
        assert [z for z, _ in fills] == list(range(0, COARSE.nz, 3))
        assert {ident for _, ident in fills} == {threading.get_ident()}
        np.testing.assert_array_equal(drr, render_drr(held).pixels)
        truth = record_fills(fresh.truth_right)
        np.testing.assert_array_equal(fresh.truth_right.column_counts,
                                      case.truth_right.bits.sum(axis=1))
        assert {ident for _, ident in truth} == {threading.get_ident()}
