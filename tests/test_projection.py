"""Radiograph synthesis and the 2D<->3D mask transforms.

The rendering contract: pixel = floor(255 * clamp((mean - lo)/(hi - lo), 0, 1) + 0.5)
with the mean taken along the anterior-posterior axis. Half-counts round
away from zero, not to even.
"""

import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lungcover import grid
from lungcover.grid import HU_MAX, HU_MIN, GridGeometry, Mask2D, Mask3D, VoxelVolume
from lungcover.io import load_volume, save_volume
from lungcover.phantom import (_PAINT_ORDER, TissueHu, _box, _sort, _volume_painter, default_spec,
                               generate_phantom)
from lungcover.projection import (
    _FOLDS,
    DEFAULT_WINDOW,
    WindowSpec,
    _column_sums,
    _mean_along_y,
    extrude_mask,
    project_mask,
    render_drr,
)
from test_phantom import assert_truth_is_unpainted


def volume_from(values: np.ndarray, sx=1.0, sy=1.0, sz=1.0) -> VoxelVolume:
    nz, ny, nx = values.shape
    g = GridGeometry(nx=nx, ny=ny, nz=nz, sx=sx, sy=sy, sz=sz)
    return VoxelVolume(g, values.astype(np.int16))


def geometries(max_side=10):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side),
                     st.integers(1, max_side))


def mask3d_strategy(max_side=10):
    return st.builds(
        lambda dims, seed: _random_mask3d(dims, seed),
        geometries(max_side), st.integers(0, 2**31),
    )


def _random_mask3d(dims, seed) -> Mask3D:
    nx, ny, nz = dims
    g = GridGeometry(nx=nx, ny=ny, nz=nz, sx=1.0, sy=1.0, sz=1.0)
    bits = np.random.default_rng(seed).random(g.shape_zyx) < 0.35
    return Mask3D(g, bits, "right")


def _random_mask2d(dims, seed) -> Mask2D:
    nx, nz = dims
    bits = np.random.default_rng(seed).random((nz, nx)) < 0.35
    return Mask2D(nx=nx, nz=nz, sx=1.0, sz=1.0, bits=bits, label="left")


class TestRenderDrr:
    def test_window_endpoints_map_to_black_and_white(self):
        values = np.array([[[-1000, 200, -400]]], dtype=np.int16)
        img = render_drr(volume_from(values))
        assert img.pixels.tolist() == [[0, 255, 128]]

    def test_clamps_outside_window(self):
        values = np.array([[[-1024, 3071]]], dtype=np.int16)
        img = render_drr(volume_from(values))
        assert img.pixels.tolist() == [[0, 255]]

    def test_mean_along_anterior_posterior(self):
        # two voxels deep: (-1000 + 200) / 2 = -400 -> exact mid-gray
        values = np.zeros((1, 2, 1), dtype=np.int16)
        values[0, 0, 0] = -1000
        values[0, 1, 0] = 200
        img = render_drr(volume_from(values))
        assert img.pixels.tolist() == [[128]]

    def test_half_counts_round_away_from_zero(self):
        # 253/510 maps to 255*f + 0.5 = 127.0 after the +0.5 shift only if
        # f = 126.5/255, i.e. floor(...) = 127 while round-to-even gives 126.
        values = np.array([[[253]]], dtype=np.int16)
        img = render_drr(volume_from(values), WindowSpec(0.0, 510.0))
        assert img.pixels.tolist() == [[127]]

    def test_custom_window(self):
        values = np.array([[[50]]], dtype=np.int16)
        img = render_drr(volume_from(values), WindowSpec(0.0, 100.0))
        assert img.pixels.tolist() == [[128]]

    def test_dims_follow_volume(self):
        values = np.zeros((3, 4, 5), dtype=np.int16)
        img = render_drr(volume_from(values))
        assert (img.nx, img.nz) == (5, 3)
        assert img.pixels.shape == (3, 5)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            WindowSpec(200.0, -1000.0)

    @given(dims=geometries(8), seed=st.integers(0, 2**31))
    def test_formula_matches_reference_expression(self, dims, seed):
        nx, ny, nz = dims
        rng = np.random.default_rng(seed)
        values = rng.integers(-1024, 3072, size=(nz, ny, nx)).astype(np.int16)
        img = render_drr(volume_from(values))
        lo, hi = DEFAULT_WINDOW.lo, DEFAULT_WINDOW.hi
        frac = np.clip((values.mean(axis=1, dtype=np.float64) - lo) / (hi - lo), 0, 1)
        expected = np.floor(255.0 * frac + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(img.pixels, expected)

    @given(dims=geometries(8), seed=st.integers(0, 2**31))
    def test_invariant_under_shuffle_within_y_columns(self, dims, seed):
        nx, ny, nz = dims
        rng = np.random.default_rng(seed)
        values = rng.integers(-1024, 3072, size=(nz, ny, nx)).astype(np.int16)
        shuffled = values.copy()
        for z in range(nz):
            for x in range(nx):
                rng.shuffle(shuffled[z, :, x])
        a = render_drr(volume_from(values))
        b = render_drr(volume_from(shuffled))
        np.testing.assert_array_equal(a.pixels, b.pixels)


class TestColumnMean:
    """The integer-accumulated column mean is bit-identical to a float64 mean."""

    @given(dims=geometries(8), seed=st.integers(0, 2**31))
    def test_extreme_hu_volumes(self, dims, seed):
        nx, ny, nz = dims
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array([HU_MIN, HU_MAX], np.int16), size=(nz, ny, nx))
        mean = _mean_along_y(volume_from(values))
        assert mean.dtype == np.float64
        assert mean.tobytes() == values.mean(axis=1, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("hu", [HU_MIN, HU_MAX])
    def test_column_too_deep_for_int32(self, hu):
        # 700000 * 3071 > 2**31 - 1: an int32 sum of this column would wrap
        values = np.full((1, 700_000, 1), hu, np.int16)
        mean = _mean_along_y(volume_from(values))
        assert mean.tobytes() == values.mean(axis=1, dtype=np.float64).tobytes()
        assert render_drr(volume_from(values)).pixels.tolist() == [[0 if hu == HU_MIN else 255]]

    def test_deepest_int32_column(self):
        ny = (2**31 - 1) // HU_MAX  # the deepest column still summed in int32
        values = np.full((1, ny, 1), HU_MAX, np.int16)
        assert _mean_along_y(volume_from(values)).tolist() == [[float(HU_MAX)]]


def drr_contract(values: np.ndarray) -> np.ndarray:
    """The DRR of a whole volume: floor(255 * clip((mean_y - lo) / (hi - lo), 0, 1) + 0.5)."""
    lo, hi = DEFAULT_WINDOW.lo, DEFAULT_WINDOW.hi
    frac = np.clip((values.mean(axis=1) - lo) / (hi - lo), 0.0, 1.0)
    return np.floor(255.0 * frac + 0.5).astype(np.uint8)


def assert_drr_in_chunks(values: np.ndarray, chunk_bytes: int, out_dir) -> None:
    """render_drr of values as a VoxelVolume and as a loaded file, in z-chunks of chunk_bytes."""
    vol = volume_from(values)
    save_volume(vol, out_dir / "vol.json")
    with mock.patch.object(grid, "_CHUNK_BYTES", chunk_bytes):
        for volume in (vol, load_volume(out_dir / "vol.json")):
            np.testing.assert_array_equal(render_drr(volume).pixels, drr_contract(values))


class TestStreamedDrr:
    """render_drr folds over z-chunks; the image is the whole volume's, for any chunk size."""

    @given(dims=geometries(12), seed=st.integers(0, 2**31), chunk_bytes=st.integers(1, 3000))
    def test_random_volumes(self, dims, seed, chunk_bytes, tmp_path_factory):
        nx, ny, nz = dims
        values = np.random.default_rng(seed).integers(HU_MIN, HU_MAX + 1, size=(nz, ny, nx))
        assert_drr_in_chunks(values, chunk_bytes, tmp_path_factory.mktemp("drr"))

    @pytest.mark.parametrize("planes", [0, 1, 2, 1000], ids=lambda n: f"{n}-planes")
    def test_int64_accumulator_grid(self, planes, tmp_path):
        """Columns too deep for int32 sums, in chunks of 1 byte, 1 and 2 planes (of 3), and one."""
        ny = 700_000  # 700000 * 3071 > 2**31 - 1
        values = np.random.default_rng(ny).choice(np.array([HU_MIN, HU_MAX], np.int16),
                                                  size=(3, ny, 2))
        assert_drr_in_chunks(values, max(1, planes * 2 * ny * 2), tmp_path)


def phantom_volume(ny: int, hu: TissueHu) -> VoxelVolume:
    """The default spec on a 12 x ny x 10 grid over its own 320 mm field, painted with hu.

    Built from the volume painter itself: generate_phantom's lung checks reject these grids.
    """
    g = GridGeometry(nx=12, ny=ny, nz=10, sx=320 / 12, sy=320 / ny, sz=320 / 10)
    spec = replace(default_spec(), geometry=g, hu=hu)
    sorts = [(_sort(g, _box(g, getattr(spec, name))), getattr(hu, tissue))
             for name, tissue in _PAINT_ORDER]
    solids = [(sorted_, tissue) for sorted_, tissue in sorts if sorted_ is not None]
    return VoxelVolume.from_source(g, partial(_volume_painter, g, hu.air, solids))


class TestFoldedColumnSums:
    """The int16 half-sums are exact: every column sum is the int64 sum of the voxels."""

    def test_fold_count_comes_from_the_hu_range(self):
        assert 2 ** _FOLDS * max(-HU_MIN, HU_MAX) <= np.iinfo(np.int16).max
        assert 2 ** (_FOLDS + 1) * HU_MAX > np.iinfo(np.int16).max

    @pytest.mark.parametrize("planes", [0, 1, 5, 1000], ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("fill", ["max", "min", "random"])
    @pytest.mark.parametrize("ny", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 70, 511, 512, 513])
    def test_column_sums_are_exact(self, ny, fill, planes, tmp_path, monkeypatch):
        """In-memory, loaded and phantom volumes, in chunks of 1 byte, 1, 5 and all slices."""
        rng = np.random.default_rng(ny)
        hu = {"max": TissueHu(*[HU_MAX] * 5), "min": TissueHu(*[HU_MIN] * 5),
              "random": TissueHu(*rng.integers(HU_MIN, HU_MAX + 1, 5).tolist())}[fill]
        phantom = phantom_volume(ny, hu)
        if fill == "random":
            values = rng.integers(HU_MIN, HU_MAX + 1, phantom.geometry.shape_zyx)
        else:
            values = np.full(phantom.geometry.shape_zyx, hu.air)
        vol = VoxelVolume(phantom.geometry, values)
        save_volume(vol, tmp_path / "vol.json")
        monkeypatch.setattr(grid, "_CHUNK_BYTES", max(1, planes * vol.values[0].nbytes))
        for volume in (vol, load_volume(tmp_path / "vol.json"), phantom):
            want = volume.values.sum(axis=1, dtype=np.int64)
            np.testing.assert_array_equal(_column_sums(volume), want)

    def test_scratch_is_half_a_chunk(self):
        """An in-memory volume is one chunk of 2 MB; it is summed through ~512 KB views."""
        g = GridGeometry(nx=128, ny=128, nz=64, sx=1.0, sy=1.0, sz=1.0)
        vol = VoxelVolume(g, np.full(g.shape_zyx, HU_MAX, np.int16))
        outputs = g.nz * g.nx * (4 + 8 + 1)  # int32 sums, float64 mean, uint8 pixels
        tracemalloc.start()
        try:
            pixels = render_drr(vol).pixels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (pixels == 255).all()
        assert peak <= outputs + grid._CHUNK_BYTES // 2 + 2 ** 16, peak


class TestExtrudeProject:
    def test_extrude_replicates_along_y(self):
        bits = np.array([[True, False], [False, True], [True, True]])
        m = Mask2D(nx=2, nz=3, sx=1.5, sz=2.0, bits=bits, label="right")
        m3 = extrude_mask(m, ny=4, sy=0.5)
        assert m3.geometry == GridGeometry(nx=2, ny=4, nz=3, sx=1.5, sy=0.5, sz=2.0)
        assert m3.label == "right"
        for y in range(4):
            np.testing.assert_array_equal(m3.bits[:, y, :], bits)

    def test_project_is_silhouette(self):
        g = GridGeometry(nx=2, ny=3, nz=2, sx=1.0, sy=1.0, sz=1.0)
        bits = np.zeros(g.shape_zyx, dtype=bool)
        bits[0, 1, 0] = True  # only one y-slice set
        m2 = project_mask(Mask3D(g, bits, "left"))
        assert m2.bits.tolist() == [[True, False], [False, False]]
        assert (m2.nx, m2.nz, m2.sx, m2.sz) == (2, 2, 1.0, 1.0)
        assert m2.label == "left"

    @given(dims=st.tuples(st.integers(1, 10), st.integers(1, 10)),
           seed=st.integers(0, 2**31), ny=st.sampled_from([1, 3, 17]))
    def test_project_after_extrude_is_identity(self, dims, seed, ny):
        m = _random_mask2d(dims, seed)
        back = project_mask(extrude_mask(m, ny=ny, sy=1.0))
        np.testing.assert_array_equal(back.bits, m.bits)
        assert (back.nx, back.nz, back.sx, back.sz) == (m.nx, m.nz, m.sx, m.sz)
        assert back.label == m.label

    @given(mask=mask3d_strategy())
    def test_extrude_after_project_covers_original(self, mask):
        prism = extrude_mask(project_mask(mask), ny=mask.geometry.ny,
                             sy=mask.geometry.sy)
        assert not np.any(mask.bits & ~prism.bits)

    def test_projects_a_phantom_mask_without_painting_it(self):
        case = generate_phantom(default_spec())
        silhouettes = [project_mask(m) for m in (case.truth_right, case.truth_left)]
        assert_truth_is_unpainted(case)
        for m2, m3 in zip(silhouettes, (case.truth_right, case.truth_left)):
            np.testing.assert_array_equal(m2.bits, m3.packed.any(axis=1))

    def test_empty_mask_round_trip(self):
        m = Mask2D(nx=3, nz=2, sx=1.0, sz=1.0,
                   bits=np.zeros((2, 3), dtype=bool), label="both")
        back = project_mask(extrude_mask(m, ny=5, sy=2.0))
        assert back.pixel_count == 0
