"""Synthetic chest phantom: rasterization, jitter, analytic oracle, cohorts.

The slice-streamed painter is checked against the full-volume
rasterizers it replaced, kept here as the reference painter, with the
scipy.ndimage boundary band that the numpy jitter morphology replaced. The oracle
is checked against two references kept here. For a straight
vertical band the spherical-cap identity V_cap/V_sphere = h^2(3-h)/4
is closed form. Hand-checkable anchors used below: a half-plane through
the lung center obscures exactly 1/2; one whose edge sits half a radius
inside the near side obscures h=1/2, i.e. (1/2)^2 (3 - 1/2) / 4 = 5/32
= 0.15625. For curved shadows, scipy.integrate.quad integrates over z
on the outside, the transposed order of the oracle's own quadrature.
"""

import contextlib
import gc
import io
import json
import math
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, ndimage

from lungcover.cli import main
from lungcover.concordance import dice, obscured_fraction
from lungcover.errors import SpecViolation
from lungcover.grid import GridGeometry, Mask3D, VoxelVolume
from lungcover.phantom import (
    DEFAULT_JSON_GEOMETRY,
    Ellipsoid,
    PhantomSpec,
    SphereCap,
    TissueHu,
    analytic_obscured_fraction,
    anatomical_spec,
    cohort_case,
    default_spec,
    generate_cohort,
    generate_phantom,
    oracle_tolerance_pct,
    spec_from_dict,
    spec_to_dict,
)
from lungcover import grid, phantom
from lungcover.io import load_mask3d, load_volume, save_mask3d, save_volume
from lungcover.phantom import JITTER_FLIP_PROB, _box, _grow, _jitter_bits, _sort, _sort_solid
from lungcover.projection import DEFAULT_WINDOW, project_mask, render_drr

from strategies import JSON_VALUES, mutated


SLAB_Z = 1.0e6  # z semi-axis huge enough that the coronal shadow edge is straight
BAND_Z = 1.0e7  # straight to 1e-9 in fraction: the closed form's error falls as 1/az^2


# Same 320 mm field of view as the built-in specs' 128^3 grid: same cohort draws.
COARSE_128 = GridGeometry(nx=32, ny=32, nz=32, sx=10.0, sy=10.0, sz=10.0)


def coarse_geometry() -> GridGeometry:
    return GridGeometry(nx=64, ny=64, nz=64, sx=5.0, sy=5.0, sz=5.0)


def two_sphere_spec(heart: Ellipsoid | None, jitter: int = 0) -> PhantomSpec:
    """Right lung sphere R=40 at x=222, small left decoy at x=60."""
    return PhantomSpec(
        geometry=coarse_geometry(),
        lung_right=Ellipsoid((222.0, 160.0, 160.0), (40.0, 40.0, 40.0)),
        lung_left=Ellipsoid((60.0, 160.0, 160.0), (20.0, 20.0, 20.0)),
        heart=heart,
        annotator_jitter_px=jitter,
    )


def vox(spec: PhantomSpec, x: float, y: float, z: float) -> tuple[int, int, int]:
    """(iz, iy, ix) of the voxel containing an off-boundary mm point."""
    g = spec.geometry
    return (int(z / g.sz), int(y / g.sy), int(x / g.sx))


def cap_fraction(t: float) -> float:
    """Fraction of a unit sphere with normalized coordinate <= t (clamped cap height)."""
    h = min(max(1.0 + t, 0.0), 2.0)
    return h * h * (3.0 - h) / 4.0


def band_fraction(spec: PhantomSpec, side: str) -> float:
    """Closed form for a heart whose shadow crosses the lung as a vertical band."""
    lung = getattr(spec, f"lung_{side}")
    (cx, _, _), (ax, _, _) = lung.center, lung.semi_axes
    hx, hax = spec.heart.center[0], spec.heart.semi_axes[0]
    return cap_fraction((hx + hax - cx) / ax) - cap_fraction((hx - hax - cx) / ax)


def quad_fraction(spec: PhantomSpec, side: str) -> float:
    """Obscured fraction by scipy quad over w = sin(theta), z normalized to the lung.

    At each w the lung's axial section is the disk u^2 + v^2 <= r^2 and every
    occluder shadow is one u-interval; the v-depth integral over the merged
    intervals is closed form.
    """
    lung = getattr(spec, f"lung_{side}")
    (lx, _, lz), (lax, _, laz) = lung.center, lung.semi_axes
    shadows = []
    for occ in (spec.heart, spec.diaphragm_right, spec.diaphragm_left):
        if isinstance(occ, Ellipsoid):
            (x, _, z), (sx, _, sz), cut = occ.center, occ.semi_axes, -math.inf
        elif occ is not None:
            (x, _, z), sx, sz, cut = occ.center, occ.radius, occ.radius, occ.cap_z
        else:
            continue
        shadows.append(((x - lx) / lax, sx / lax, (z - lz) / laz, sz / laz, (cut - lz) / laz))

    def depth(t, r):  # integral of sqrt(r^2 - s^2) ds from 0 to t
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r))

    def area(theta):
        w, r = math.sin(theta), math.cos(theta)
        spans = sorted((max(u0 - a * math.sqrt(1 - ((w - w0) / c) ** 2), -r),
                        min(u0 + a * math.sqrt(1 - ((w - w0) / c) ** 2), r))
                       for u0, a, w0, c, cut in shadows if abs(w - w0) < c and w >= cut)
        covered, reach = 0.0, -r
        for lo, hi in spans:
            lo = max(lo, reach)
            if hi > lo:
                covered += depth(hi, r) - depth(lo, r)
                reach = hi
        return covered * r  # dw = cos(theta) dtheta

    points = sorted({math.asin(p) for u0, a, w0, c, cut in shadows
                     for p in (w0 - c, w0 + c, cut) if -1.0 < p < 1.0})
    value, _ = integrate.quad(area, -math.pi / 2, math.pi / 2, points=points or None,
                              limit=500, epsabs=1e-11, epsrel=1e-10)
    return value / (2.0 * math.pi / 3.0)  # unit ball volume / 2: depth is 2 sqrt(.)


def centers(n: int, s: float) -> np.ndarray:
    return (np.arange(n) + 0.5) * s


def ellipsoid_field(geom: GridGeometry, e: Ellipsoid) -> np.ndarray:
    """Normalized squared distance of every voxel center from the ellipsoid."""
    (cx, cy, cz), (ax, ay, az) = e.center, e.semi_axes
    tx = ((centers(geom.nx, geom.sx) - cx) / ax) ** 2
    ty = ((centers(geom.ny, geom.sy) - cy) / ay) ** 2
    tz = ((centers(geom.nz, geom.sz) - cz) / az) ** 2
    return tz[:, None, None] + ty[None, :, None] + tx[None, None, :]


def rasterize_ellipsoid(geom: GridGeometry, e: Ellipsoid) -> np.ndarray:
    """Bool (nz, ny, nx): voxel centers inside the ellipsoid, each voxel of the grid tested."""
    (cx, cy, cz), (ax, ay, az) = e.center, e.semi_axes
    tx = ((centers(geom.nx, geom.sx) - cx) / ax) ** 2
    ty = ((centers(geom.ny, geom.sy) - cy) / ay) ** 2
    tz = ((centers(geom.nz, geom.sz) - cz) / az) ** 2
    txy = ty[:, None] + tx[None, :]
    return np.stack([txy <= 1.0 - t for t in tz])


def rasterize_cap(geom: GridGeometry, c: SphereCap) -> np.ndarray:
    """Bool (nz, ny, nx): voxel centers inside the sphere and at z >= cap_z, each voxel tested."""
    (cx, cy, cz), r = c.center, c.radius
    xs = centers(geom.nx, geom.sx) - cx
    ys = centers(geom.ny, geom.sy) - cy
    txy = (ys ** 2)[:, None] + (xs ** 2)[None, :]
    r2 = r * r
    return np.stack([txy <= r2 - (z - cz) ** 2 if z >= c.cap_z else np.zeros_like(txy, bool)
                     for z in centers(geom.nz, geom.sz)])


def rasterize(geom: GridGeometry, solid: Ellipsoid | SphereCap) -> np.ndarray:
    return (rasterize_ellipsoid if isinstance(solid, Ellipsoid) else rasterize_cap)(geom, solid)


def scipy_band(bits: np.ndarray, radius: int) -> np.ndarray:
    """Pixels within radius 4-neighbour steps of the mask edge, by scipy.ndimage."""
    return (ndimage.binary_dilation(bits, iterations=radius)
            & ~ndimage.binary_erosion(bits, iterations=radius))


def reference_jitter(bits: np.ndarray, radius: int, rng: np.random.Generator) -> np.ndarray:
    """The annotator-2 flips drawn on the scipy band, in the same rng order."""
    out = bits.copy()
    if radius == 0:
        return out
    idx = np.flatnonzero(scipy_band(bits, radius))
    if idx.size:
        flips = rng.random(idx.size) < JITTER_FLIP_PROB
        if not flips.any():
            flips[0] = True
        out.flat[idx[flips]] ^= True
    return out


def reference_phantom(spec: PhantomSpec) -> dict[str, np.ndarray]:
    """Every output array, painted by full-volume masks in priority order.

    Keyed by case file stem; torso < lungs < heart and domes.
    """
    g = spec.geometry
    truth_r = rasterize_ellipsoid(g, spec.lung_right)
    truth_l = rasterize_ellipsoid(g, spec.lung_left)
    if not truth_r.any() or not truth_l.any():
        raise SpecViolation("a lung rasterizes to zero voxels at this resolution")
    if (truth_r & truth_l).any():
        raise SpecViolation("lungs intersect")
    occluders = [(rasterize_ellipsoid(g, spec.heart), spec.hu.heart)] if spec.heart else []
    occluders += [(rasterize_cap(g, dome), spec.hu.diaphragm)
                  for dome in (spec.diaphragm_right, spec.diaphragm_left) if dome]
    values = np.full(g.shape_zyx, spec.hu.air, dtype=np.int16)
    if spec.torso is not None:
        values[rasterize_ellipsoid(g, spec.torso)] = spec.hu.soft
    values[truth_r | truth_l] = spec.hu.lung
    occ_sil = np.zeros((g.nz, g.nx), dtype=bool)
    for bits, hu in occluders:
        values[bits] = hu
        occ_sil |= bits.any(axis=1)
    sota_r = truth_r.any(axis=1) & ~occ_sil
    sota_l = truth_l.any(axis=1) & ~occ_sil
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.rng_seed)))
    annot2_r = reference_jitter(sota_r, spec.annotator_jitter_px, rng)
    annot2_l = reference_jitter(sota_l, spec.annotator_jitter_px, rng)
    return {"volume": values, "truth_right": truth_r, "truth_left": truth_l,
            "sota2d_right": sota_r, "sota2d_left": sota_l,
            "annot2_right": annot2_r, "annot2_left": annot2_l}


def case_arrays(case) -> dict[str, np.ndarray]:
    return {"volume": case.volume.values,
            **{name: getattr(case, name).bits for name in (
                "truth_right", "truth_left", "sota2d_right", "sota2d_left",
                "annot2_right", "annot2_left")}}


def assert_matches_reference(spec: PhantomSpec) -> None:
    """generate_phantom equals the reference painter, or raises as it does."""
    try:
        want = reference_phantom(spec)
    except SpecViolation as exc:
        with pytest.raises(SpecViolation, match=str(exc)):
            generate_phantom(spec)
        return
    got = case_arrays(generate_phantom(spec))
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr), name


# 0.66 x 0.66 x 1.25 mm like the CT grid, on a test-sized 63 x 53 x 90 mm field.
ANISO = PhantomSpec(
    geometry=GridGeometry(nx=96, ny=80, nz=72, sx=0.66, sy=0.66, sz=1.25),
    lung_right=Ellipsoid((45.0, 26.0, 47.0), (12.5, 17.0, 30.0)),
    lung_left=Ellipsoid((18.0, 26.4, 45.3), (10.2, 18.0, 31.0)),
    torso=Ellipsoid((31.7, 26.4, 45.0), (40.0, 30.0, 60.0)),  # clipped on every side
    heart=Ellipsoid((29.0, 30.0, 30.0), (9.0, 10.0, 200.0)),  # clipped in z
    diaphragm_right=SphereCap((45.0, 26.0, 0.5), 22.0, 19.375),  # cap plane on slice 15
    diaphragm_left=SphereCap((18.0, 26.0, 5.0), 10.0, 15.2),  # cap plane above the top
)


@st.composite
def phantom_specs(draw) -> PhantomSpec:
    """Small grids with anisotropic spacing; solids may be clipped or cut away."""
    dims = [draw(st.integers(6, 22)) for _ in range(3)]
    spacing = [draw(st.floats(0.5, 3.0)) for _ in range(3)]
    fov = [n * s for n, s in zip(dims, spacing)]

    def frac(lo=0.0, hi=1.0):
        return draw(st.floats(lo, hi))

    def lung(x_lo, x_hi):  # inside the grid, and in [x_lo, x_hi] of the x field
        lo, width = (fov[0] * x_lo, 0.0, 0.0), (fov[0] * (x_hi - x_lo), fov[1], fov[2])
        semi = [w * frac(0.08, 0.45) for w in width]
        center = [lo[k] + semi[k] + (width[k] - 2 * semi[k]) * frac(0.01, 0.99)
                  for k in range(3)]
        return Ellipsoid(tuple(center), tuple(semi))

    def solid():  # anywhere, up to half past the grid edges
        center = tuple(f * frac(-0.5, 1.5) for f in fov)
        return Ellipsoid(center, tuple(f * frac(0.05, 1.0) for f in fov))

    def dome():
        (cx, cy, cz), (r, _, _) = solid().center, solid().semi_axes
        return SphereCap((cx, cy, cz), r, cz + r * frac(-1.5, 1.5))

    return PhantomSpec(
        geometry=GridGeometry(*dims, *spacing),
        lung_right=lung(0.4, 1.0),
        lung_left=lung(0.0, 0.6),  # the x ranges overlap: lungs may intersect
        torso=solid() if draw(st.booleans()) else None,
        heart=solid() if draw(st.booleans()) else None,
        diaphragm_right=dome() if draw(st.booleans()) else None,
        diaphragm_left=dome() if draw(st.booleans()) else None,
        rng_seed=draw(st.integers(0, 1000)),
    )


# A sphere centred on a voxel centre of a 1 mm grid: txy = dx^2 + dy^2 are
# small integers, exact in floating point, so many columns tie. Its cap plane
# is the voxel-centre plane z = 8.5, and on that slice the bound 25 equals the
# txy of the 12 columns (+-3, +-4), (+-4, +-3), (+-5, 0) and (0, +-5).
TIE_GEOMETRY = GridGeometry(17, 17, 17, 1.0, 1.0, 1.0)
TIE_CAP = SphereCap((8.5, 8.5, 8.5), 5.0, 8.5)


# Every solid centred on a voxel centre of TIE_GEOMETRY with integer or dyadic terms, so
# many columns tie with each other and with a slice's bound, and the right dome is TIE_CAP,
# whose cap plane is the voxel-centre plane of slice 8.
TIE_SPEC = PhantomSpec(
    geometry=TIE_GEOMETRY,
    lung_right=Ellipsoid((12.5, 8.5, 8.5), (2.0, 4.0, 4.0)),
    lung_left=Ellipsoid((4.5, 8.5, 8.5), (2.0, 4.0, 4.0)),
    torso=Ellipsoid((8.5, 8.5, 8.5), (8.0, 8.0, 8.0)),
    heart=Ellipsoid((8.5, 8.5, 8.5), (4.0, 4.0, 4.0)),
    diaphragm_right=TIE_CAP,
)

PAINTER_SPECS = {
    "default": default_spec(),
    "anatomical": anatomical_spec(),
    "anisotropic": ANISO,
    "cap-below-grid": replace(ANISO, diaphragm_left=SphereCap((18.0, 26.0, -30.0), 12.0, -35.0)),
    "jitter-3px": replace(ANISO, annotator_jitter_px=3),
    # index box past the grid's y end, at y = 84..: rounding its start down to
    # a multiple of 8 must not make it a box of no voxels but nonzero size
    "heart-beyond-y": replace(ANISO, heart=Ellipsoid((29.0, 60.0, 30.0), (9.0, 3.0, 200.0))),
    # ny not a multiple of 8: the lung boxes' packed byte rows end in padding bits
    "ny-70": replace(ANISO, geometry=GridGeometry(96, 70, 72, 0.66, 0.66, 1.25)),
    # the byte pin's grid: anisotropic, the torso clipped in z, ny % 8 != 0
    "pinned-grid": replace(default_spec(), geometry=GridGeometry(80, 60, 100, 4.0, 5.4, 3.2)),
    "ties": TIE_SPEC,
}


def assert_truth_is_unpainted(case) -> None:
    """Neither packed truth mask of the case is held whole: each is painted only when read."""
    for mask in (case.truth_right, case.truth_left):
        assert isinstance(mask, Mask3D) and "packed" not in vars(mask)


class TestSlicePainter:
    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_matches_full_volume_reference(self, spec):
        assert_matches_reference(spec)

    def test_cases_cover_clipping_and_empty_caps(self):
        g = ANISO.geometry
        fov = (g.nx * g.sx, g.ny * g.sy, g.nz * g.sz)
        for e in (ANISO.torso, ANISO.heart):  # clipped by the grid edge
            assert any(e.center[k] + e.semi_axes[k] > fov[k] for k in range(3))
        dome = ANISO.diaphragm_left
        assert dome.cap_z > dome.center[2] + dome.radius
        assert not rasterize_cap(g, dome).any()
        assert rasterize_cap(g, ANISO.diaphragm_right).any()

    @settings(max_examples=80)
    @given(spec=phantom_specs())
    def test_random_specs_match_reference(self, spec):
        assert_matches_reference(spec)

    @pytest.mark.parametrize("build", [default_spec, anatomical_spec])
    def test_peak_memory_is_the_outputs(self, build):
        """No 3D array at all: the traced peak is the 2D masks and a little work.

        The work is each lung's sort (its txy, argsort and sorted columns,
        which the case keeps for its volume and truth masks) and the 2D
        temporaries of the silhouettes and the jitter. An int16 volume
        (4 MB here) or a bool one (2 MB) would be many times that, and one
        packed truth mask (256 KB) takes the whole bound. The bound is one
        slab of 65536 voxels tighter than the slab painter's: 2 slabs and
        8 (nz, nx) bool planes.
        """
        spec = build()
        g = spec.geometry
        generate_phantom(spec)  # first-call allocations are not the painter's
        tracemalloc.start()
        try:
            case = generate_phantom(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "values" not in vars(case.volume)  # painted only when read
        assert_truth_is_unpainted(case)
        outputs = 4 * case.sota2d_right.bits.nbytes
        work = 65536 + 8 * g.nz * g.nx
        assert peak <= outputs + work, (peak, outputs, work)

    @pytest.mark.parametrize("name", ["default", "anatomical"])
    def test_phantom_command_writes_reference_bytes(self, tmp_path, name):
        out = tmp_path / "cohort"
        assert main(["phantom", "--out", str(out), "--spec", name, "--n", "3", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["cases"]) == 3
        for entry in manifest["cases"]:
            spec = spec_from_dict(entry["spec"])
            g = spec.geometry
            want = {}
            for stem, arr in reference_phantom(spec).items():
                dims, spacing = (([g.nx, g.ny, g.nz], [g.sx, g.sy, g.sz]) if arr.ndim == 3
                                 else ([g.nx, g.nz], [g.sx, g.sz]))
                dtype = {"volume": "i16le", "truth": "u1y"}.get(stem.split("_")[0], "u8")
                header = {"dims": dims, "spacing_mm": spacing, "dtype": dtype,
                          "data": stem + ".raw"}
                if stem != "volume":
                    header["label"] = stem.rsplit("_", 1)[1]
                want[stem + ".json"] = (json.dumps(header, sort_keys=True, indent=2)
                                        + "\n").encode()
                if dtype == "u1y":  # 8 y voxels per byte, y = 8j + k in bit k
                    arr = np.packbits(arr, axis=1, bitorder="little")
                want[stem + ".raw"] = arr.astype("<i2" if stem == "volume" else np.uint8
                                                 ).tobytes()
            case_dir = out / entry["dir"]
            assert sorted(p.name for p in case_dir.iterdir()) == sorted(want)
            for file_name, data in want.items():
                assert (case_dir / file_name).read_bytes() == data, file_name


SOLIDS = ("torso", "lung_right", "lung_left", "heart", "diaphragm_right", "diaphragm_left")


def assert_sorted_columns_are_the_test(geom: GridGeometry, solid) -> None:
    """At every slice z, _sort's first counts[z] columns are the slice's columns passing the test.

    Compared as sets of grid-slice indices y * nx + x, against
    np.flatnonzero(ty[:, None] + tx[None, :] <= bounds[z]) over the whole
    slice; cols is a permutation of the box's columns.
    """
    box = _box(geom, solid)
    sorted_ = _sort(geom, box)
    if box is None:
        assert sorted_ is None
        return
    assert sorted_.box is box and len(sorted_.counts) == geom.nz
    ys, xs = np.arange(box.ys.start, box.ys.stop), np.arange(box.xs.start, box.xs.stop)
    flat = (ys[:, None] * geom.nx + xs[None, :]).ravel()  # box column -> grid slice index
    np.testing.assert_array_equal(np.sort(sorted_.cols), np.sort(flat))  # a permutation
    txy = (box.ty[:, None] + box.tx[None, :]).ravel()
    for z in range(geom.nz):
        got = sorted_.cols[:sorted_.counts[z]]
        np.testing.assert_array_equal(np.sort(got), np.flatnonzero(txy <= box.bounds[z]),
                                      err_msg=f"slice {z}")


def assert_box_bounds_the_voxels_that_pass(geom: GridGeometry, solid) -> None:
    """_box's spans are exactly the bounding box of the voxels the whole-grid reference passes.

    The box is None exactly when no voxel passes.
    """
    with np.errstate(over="ignore"):  # a semi-axis of a few ulps overflows the reference too
        inside = rasterize(geom, solid)
    box = _box(geom, solid)
    if not inside.any():
        assert box is None
        return
    spans = []
    for axes in ((1, 2), (0, 2), (0, 1)):
        at = np.flatnonzero(inside.any(axis=axes))
        spans.append(slice(int(at[0]), int(at[-1]) + 1))
    assert (box.zs, box.ys, box.xs) == tuple(spans)


@st.composite
def solids_on_grids(draw) -> tuple[GridGeometry, Ellipsoid | SphereCap]:
    """A solid of phantom_specs on its grid; a cap may lie on a voxel-center plane.

    An ellipsoid may be 5e-324 mm thick on one axis, and then is centred
    on a voxel-center plane of that axis, where some voxels pass, or left
    where it was.
    """
    spec = draw(phantom_specs())
    g = spec.geometry
    solid = getattr(spec, draw(st.sampled_from([n for n in SOLIDS if getattr(spec, n)])))
    if isinstance(solid, SphereCap) and draw(st.booleans()):
        solid = replace(solid, cap_z=(draw(st.integers(-1, g.nz)) + 0.5) * g.sz)
    elif isinstance(solid, Ellipsoid) and draw(st.booleans()):
        axis = draw(st.integers(0, 2))
        n, s = ((g.nx, g.sx), (g.ny, g.sy), (g.nz, g.sz))[axis]
        semi, center = list(solid.semi_axes), list(solid.center)
        semi[axis] = 5e-324
        if draw(st.booleans()):
            center[axis] = (draw(st.integers(0, n - 1)) + 0.5) * s
        solid = Ellipsoid(tuple(center), tuple(semi))
    return g, solid


class TestSortedColumns:
    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_first_counts_are_the_voxels_that_pass(self, spec):
        for name in SOLIDS:
            if getattr(spec, name) is not None:
                assert_sorted_columns_are_the_test(spec.geometry, getattr(spec, name))

    @settings(max_examples=60)
    @given(spec=phantom_specs())
    def test_random_specs_first_counts_are_the_voxels_that_pass(self, spec):
        for name in SOLIDS:
            if getattr(spec, name) is not None:
                assert_sorted_columns_are_the_test(spec.geometry, getattr(spec, name))

    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_box_bounds_the_voxels_that_pass(self, spec):
        for name in SOLIDS:
            if getattr(spec, name) is not None:
                assert_box_bounds_the_voxels_that_pass(spec.geometry, getattr(spec, name))

    @settings(max_examples=150)
    @given(case=solids_on_grids())
    def test_random_solids_box_bounds_the_voxels_that_pass(self, case):
        assert_box_bounds_the_voxels_that_pass(*case)

    @pytest.mark.parametrize("solid", [TIE_CAP, Ellipsoid((8.5, 8.5, 8.5), (5.0, 5.0, 5.0)),
                                       Ellipsoid((8.5, 8.5, 8.5), (4.0, 4.0, 4.0))],
                             ids=["cap-on-centre-plane", "sphere-on-centre", "dyadic-sphere"])
    def test_ties_pass_or_fail_together(self, solid):
        """Columns of equal txy, and a bound equal to a txy, on a symmetric grid.

        With semi-axes 4 every txy = (dx^2 + dy^2) / 16 and bound
        1 - dz^2 / 16 is exact, so the centre slice's bound 1 ties with
        (+-4, 0) and (0, +-4).
        """
        box = _box(TIE_GEOMETRY, solid)
        ties = [np.count_nonzero(box.txy == b) for b in box.bounds]
        assert max(ties) >= 4  # some slice's bound equals the txy of several columns
        assert_sorted_columns_are_the_test(TIE_GEOMETRY, solid)

    def test_cap_plane_slice_holds_its_boundary_ring(self):
        box = _box(TIE_GEOMETRY, TIE_CAP)
        assert box.zs.start == 8 and box.bounds[8] == 25.0  # the cap plane is slice 8's centre
        assert box.bounds[7] == -np.inf
        assert np.count_nonzero(box.txy == 25.0) == 12
        sorted_ = _sort(TIE_GEOMETRY, box)
        assert sorted_.counts[8] == np.count_nonzero(box.txy <= 25.0)
        assert sorted_.counts[7] == 0

    def test_ct_grid_peak_memory(self):
        """On the CT grid a case peaks at ~1.5 MiB, a volume pass at ~1 and a truth pass at ~2.

        The bounds are in MiB. The slab painter peaked at 17.10 MiB in
        generate_phantom, and the eager truth painter at 17.2 with its two
        7.6 MiB packed masks; now generate_phantom holds neither. A
        chunks() pass holds one chunk (one 512 KB slice of the volume, 16
        packed slices of a truth mask), painted in place, and the
        painter's state: for the volume each slice's event offsets and
        one block of at most phantom._EVENTS (2**13) change events, their
        columns and HUs, with the test temporaries that make it (~1 MiB in
        all); for a truth mask the byte and bit of each of its lung's
        columns. column_counts adds one chunk's popcount. The budget cuts
        even slice 0, where the clipped torso and the 10 m heart enter
        together (~96 K events): made in one block, the pass took ~4.5 MiB.
        """
        spec = replace(default_spec(), geometry=DEFAULT_JSON_GEOMETRY)
        generate_phantom(spec)  # first-call allocations are not the painter's
        tracemalloc.start()
        try:
            case = generate_phantom(spec)
            held, peak = tracemalloc.get_traced_memory()
            peaks = []
            for run in (lambda: [None for _ in case.volume.chunks()],
                        lambda: [None for _ in case.truth_right.chunks()],
                        lambda: case.truth_left.column_counts):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20, peak
        volume_pass, truth_pass, count_pass = peaks
        assert volume_pass <= 2 * 2 ** 20, volume_pass
        assert truth_pass <= 2 * 2 ** 20, truth_pass
        assert count_pass <= 3 * 2 ** 20, count_pass
        assert "values" not in vars(case.volume)
        assert_truth_is_unpainted(case)


def slice_events(spec: PhantomSpec) -> np.ndarray:
    """The change events of each slice of the spec's volume: the columns its solids gain or lose."""
    g = spec.geometry
    events = np.zeros(g.nz, np.intp)
    for name in SOLIDS:
        sorted_ = _sort(g, _box(g, getattr(spec, name)))
        if sorted_ is not None:
            events += np.abs(np.diff(sorted_.counts, prepend=0))
    return events


def assert_volume_is_the_reference(spec: PhantomSpec) -> None:
    """The volume's chunks() are reference_phantom's volume."""
    got = np.concatenate([chunk.copy() for chunk in generate_phantom(spec).volume.chunks()])
    np.testing.assert_array_equal(got, reference_phantom(spec)["volume"])


@st.composite
def torso_and_heart_from_below(draw) -> PhantomSpec:
    """phantom_specs with a torso and a heart that both reach below the grid's first slice."""
    spec = draw(phantom_specs())
    g = spec.geometry
    fov = (g.nx * g.sx, g.ny * g.sy, g.nz * g.sz)

    def from_below():
        center = (fov[0] * draw(st.floats(0.1, 0.9)), fov[1] * draw(st.floats(0.1, 0.9)),
                  fov[2] * draw(st.floats(-0.2, 0.2)))
        semi = (fov[0] * draw(st.floats(0.2, 1.0)), fov[1] * draw(st.floats(0.2, 1.0)),
                fov[2] * draw(st.floats(0.3, 1.0)))
        return Ellipsoid(center, semi)
    return replace(spec, torso=from_below(), heart=from_below())


class TestVolumeBlocks:
    """The volume painter's change events, made in blocks of at most phantom._EVENTS."""

    @pytest.mark.parametrize("spec", [TIE_SPEC, replace(anatomical_spec(), geometry=COARSE_128)],
                             ids=["ties", "coarse-anatomical"])
    def test_one_event_blocks(self, spec, monkeypatch):
        """A budget of 1: each event is a block, so every slice of more than one event is split."""
        assert slice_events(spec).max() > 1
        monkeypatch.setattr(phantom, "_EVENTS", 1)
        assert_volume_is_the_reference(spec)

    def test_budget_cuts_blocks_between_and_inside_slices(self, monkeypatch):
        """3000 events: slice 0 takes three blocks, and later blocks hold several slices."""
        base = default_spec()
        events = slice_events(base)
        assert 2 * 3000 < events[0] and max(events[1:]) < 1000
        monkeypatch.setattr(phantom, "_EVENTS", 3000)
        for case in generate_cohort(base, 3, seed=5):
            assert_volume_is_the_reference(case.spec)

    @settings(max_examples=40)
    @given(spec=torso_and_heart_from_below(), budget=st.sampled_from([1, 7, 64, 1 << 13]))
    def test_random_heart_entering_with_the_torso(self, spec, budget):
        """Both enter at slice 0, as in ANISO, where many columns change for both at once."""
        g = spec.geometry
        torso, heart = (_sort(g, _box(g, solid)) for solid in (spec.torso, spec.heart))
        assume(torso is not None and heart is not None and torso.counts[0] and heart.counts[0])
        with mock.patch.object(phantom, "_EVENTS", budget):
            assert_matches_reference(spec)


def assert_streams_its_values(spec: PhantomSpec, chunk_bytes: int, out_dir) -> None:
    """volume.raw as save_volume streams it in chunks of chunk_bytes is the painted values."""
    try:
        case = generate_phantom(spec)
    except SpecViolation:
        return
    want = case.volume.values.astype("<i2").tobytes()  # painted as one chunk
    with mock.patch.object(grid, "_CHUNK_BYTES", chunk_bytes):
        save_volume(case.volume, out_dir / "volume.json")
    assert (out_dir / "volume.raw").read_bytes() == want


def drr_contract(values: np.ndarray) -> np.ndarray:
    """The DRR of a whole volume: floor(255 * clip((mean_y - lo) / (hi - lo), 0, 1) + 0.5)."""
    lo, hi = DEFAULT_WINDOW.lo, DEFAULT_WINDOW.hi
    frac = np.clip((values.mean(axis=1) - lo) / (hi - lo), 0.0, 1.0)
    return np.floor(255.0 * frac + 0.5).astype(np.uint8)


def assert_projects_its_values(spec: PhantomSpec, chunk_bytes: int, out_dir) -> None:
    """render_drr in z-chunks of chunk_bytes is the contract's DRR of the painted values.

    For each volume kind: the phantom's own volume, which must stay
    unpainted, a VoxelVolume of its values, and its file as loaded.
    """
    try:
        case = generate_phantom(spec)
    except SpecViolation:
        return
    values = generate_phantom(spec).volume.values  # painted as one chunk, by another instance
    want = drr_contract(values)
    save_volume(case.volume, out_dir / "volume.json")
    with mock.patch.object(grid, "_CHUNK_BYTES", chunk_bytes):
        for volume in (case.volume, VoxelVolume(spec.geometry, values),
                       load_volume(out_dir / "volume.json")):
            np.testing.assert_array_equal(render_drr(volume).pixels, want)
    assert "values" not in vars(case.volume)


class TestStreamedVolume:
    @pytest.mark.parametrize("planes", [0, 1, 5, 1000], ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_payload_is_the_values(self, spec, planes, tmp_path):
        """Chunks of depth 1 (a plane larger than a chunk), 1, 5 (not dividing nz) and all of nz."""
        plane = 2 * spec.geometry.ny * spec.geometry.nx
        assert_streams_its_values(spec, max(1, planes * plane), tmp_path)

    @settings(max_examples=60)
    @given(spec=phantom_specs(), chunk_bytes=st.integers(1, 4 * 2 * 22 * 22))
    def test_random_specs_stream_their_values(self, spec, chunk_bytes, tmp_path_factory):
        assert_streams_its_values(spec, chunk_bytes, tmp_path_factory.mktemp("stream"))

    @pytest.mark.parametrize("planes", [0, 1, 5, 1000], ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_drr_is_the_drr_of_the_values(self, spec, planes, tmp_path):
        """Chunks of depth 1 (a plane larger than a chunk), 1, 5 (not dividing nz) and all of nz."""
        plane = 2 * spec.geometry.ny * spec.geometry.nx
        assert_projects_its_values(spec, max(1, planes * plane), tmp_path)

    @settings(max_examples=40)
    @given(spec=phantom_specs(), chunk_bytes=st.integers(1, 4 * 2 * 22 * 22))
    def test_random_specs_project_their_values(self, spec, chunk_bytes, tmp_path_factory):
        assert_projects_its_values(spec, chunk_bytes, tmp_path_factory.mktemp("drr"))

    def test_painter_state_belongs_to_each_iterator(self):
        """Two chunks() iterators consumed alternately, and values read mid-stream, are exact."""
        spec = PAINTER_SPECS["anatomical"]
        want = reference_phantom(spec)["volume"]
        volume = generate_phantom(spec).volume
        with mock.patch.object(grid, "_CHUNK_BYTES", 5 * 2 * spec.geometry.ny * spec.geometry.nx):
            ahead, behind = volume.chunks(), volume.chunks()
            got_ahead, got_behind = [next(ahead).copy()], []
            for a, b in zip(ahead, behind):  # ahead one chunk in front of behind
                got_ahead.append(a.copy())
                got_behind.append(b.copy())
            got_behind += [b.copy() for b in behind]
            half = volume.chunks()
            first = [next(half).copy() for _ in range(13)]  # 13 of 26 chunks
            np.testing.assert_array_equal(volume.values, want)
            rest = [c.copy() for c in half]
        for chunks in (got_ahead, got_behind, first + rest):
            np.testing.assert_array_equal(np.concatenate(chunks), want)

    def test_chunks_repeat_and_do_not_share_a_buffer(self):
        volume = generate_phantom(ANISO).volume
        once = b"".join(c.tobytes() for c in volume.chunks())
        pairs = list(zip(volume.chunks(), volume.chunks()))
        assert len(pairs) == 3  # 72 slices in chunks of 34
        assert all(np.array_equal(a, b) and not np.shares_memory(a, b) for a, b in pairs)
        assert b"".join(c.tobytes() for c in volume.chunks()) == once
        assert once == volume.values.tobytes()


# The built-in specs' 320 mm field on 512 x 512 slices of 2 bytes: at the real _CHUNK_BYTES
# (512 KB) one slice is one chunk, as on the CT grid, so each chunk is painted in place
# in z_chunks' reused buffer from the slice that buffer already holds.
ONE_SLICE_CHUNKS = GridGeometry(512, 512, 6, 0.625, 0.625, 320.0 / 6)


class TestOneSliceChunks:
    @pytest.fixture  # new cases for each test: once a volume's values are read, it paints no more
    def cases(self):
        base = replace(anatomical_spec(), geometry=ONE_SLICE_CHUNKS)
        assert grid.chunk_depth(2 * 512 * 512) == 1
        return [cohort_case(base, index, seed=7) for index in (0, 1)]

    def test_chunks_are_the_values_and_the_reference(self, cases):
        volume = cases[0].volume
        want = reference_phantom(cases[0].spec)["volume"]
        chunks = [c.copy() for c in volume.chunks()]
        assert [len(c) for c in chunks] == [1] * 6
        np.testing.assert_array_equal(np.concatenate(chunks), want)
        np.testing.assert_array_equal(volume.values, want)

    def test_interleaved_iterators_give_the_same_bytes(self, cases):
        volume = cases[0].volume
        ahead, behind = volume.chunks(), volume.chunks()
        got_ahead, got_behind = [next(ahead).tobytes()], []
        for a, b in zip(ahead, behind):  # ahead one chunk in front of behind
            got_ahead.append(a.tobytes())
            got_behind.append(b.tobytes())
        got_behind += [b.tobytes() for b in behind]
        assert b"".join(got_ahead) == b"".join(got_behind) == volume.values.tobytes()

    def test_writing_into_a_chunk_raises(self, cases):
        """A chunk is the painter's buffer: a caller's write raises, and later slices stay exact."""
        case = cases[0]
        for painted, whole in ((case.volume, "values"), (case.truth_right, "packed")):
            got = []
            for chunk in painted.chunks():
                with pytest.raises(ValueError, match="read-only"):
                    chunk[...] = 1
                got.append(chunk.copy())
            np.testing.assert_array_equal(np.concatenate(got), getattr(painted, whole))

    def test_the_sort_cache_keeps_only_the_shared_solids(self, cases):
        """Two cases sort the torso and the domes once, and each case's heart anew."""
        assert cases[0].spec.heart != cases[1].spec.heart
        _sort_solid.cache_clear()
        for case in [generate_phantom(case.spec) for case in cases]:
            for _ in case.volume.chunks():
                pass
        info = _sort_solid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 3, 3)

    def test_painting_a_generated_case_sorts_nothing(self, cases, monkeypatch):
        """generate_phantom makes every sort its case needs: the painters only paint."""
        case = generate_phantom(cases[1].spec)

        def sort(*args):
            raise AssertionError("sorted while painting")
        for name in ("_sort", "_sort_solid"):
            monkeypatch.setattr(phantom, name, sort)
        painted = [b"".join(c.tobytes() for c in payload.chunks())
                   for payload in (case.volume, case.truth_right, case.truth_left)]
        want = reference_phantom(case.spec)
        assert painted[0] == want["volume"].tobytes()
        for got, truth in zip(painted[1:], ("truth_right", "truth_left")):
            assert got == np.packbits(want[truth], axis=1, bitorder="little").tobytes()

    def test_shared_torso_sort_carries_no_state(self, cases):
        """Cases 0, 1, then 0 again: the torso, sorted once for both, paints each case exactly."""
        first, second = cases
        g = first.spec.geometry
        assert first.spec.torso == second.spec.torso
        torso = _sort_solid(g, first.spec.torso)
        assert _sort_solid(g, second.spec.torso) is torso
        assert isinstance(torso.counts, tuple)
        with pytest.raises(ValueError, match="read-only"):
            torso.cols[0] = 0
        painted = [b"".join(c.tobytes() for c in case.volume.chunks())
                   for case in (first, second, first, generate_phantom(first.spec))]
        assert painted[0] == reference_phantom(first.spec)["volume"].tobytes()
        assert painted[1] == reference_phantom(second.spec)["volume"].tobytes()
        assert painted[0] != painted[1]
        assert painted[2] == painted[3] == painted[0]


def eager_truth(geom: GridGeometry, box) -> np.ndarray:
    """A lung's packed truth mask as generate_phantom painted it before it streamed: whole.

    Each slice is toggled from the one before it, over the bytes of the
    lung's box, and the slices since the last change are copied in one go.
    """
    lung = _sort(geom, box)
    truth = np.zeros(geom.packed_zyx, np.uint8)
    js, width = slice(box.ys.start // 8, geom.packed_zyx[1]), box.xs.stop - box.xs.start
    y, x = np.divmod(lung.cols, geom.nx)
    bit = np.uint8(1) << (y & 7).astype(np.uint8)
    byte = ((y >> 3) - js.start) * width + (x - box.xs.start)
    plane = np.zeros((js.stop - js.start, width), np.uint8)
    flat, count, done = plane.reshape(-1), 0, 0
    for z, new in enumerate(lung.counts):
        if new != count:
            truth[done:z, js, box.xs] = plane
            lo, hi = sorted((count, new))
            np.bitwise_xor.at(flat, byte[lo:hi], bit[lo:hi])
            count, done = new, z
    truth[done:, js, box.xs] = plane
    return truth


def assert_streams_its_truth(spec: PhantomSpec, planes: int, out_dir) -> None:
    """Each truth payload, streamed in chunks of planes packed slices, is the eager painter's mask.

    planes = 0 is a budget of one byte. Counting the mask's columns, or
    the payload's once loaded, at that budget gives the eager mask's
    counts; neither the save nor the count paints the mask whole, and
    packed, painted whole on request, is the eager mask too.
    """
    try:
        case = generate_phantom(spec)
    except SpecViolation:
        return
    g = spec.geometry
    for mask, lung in ((case.truth_right, spec.lung_right), (case.truth_left, spec.lung_left)):
        want = eager_truth(g, _box(g, lung))
        counts = np.bitwise_count(want).sum(axis=1)
        with mock.patch.object(grid, "_CHUNK_BYTES", max(1, planes * want[0].nbytes)):
            save_mask3d(mask, out_dir / "truth.json")
            np.testing.assert_array_equal(mask.column_counts, counts)
            np.testing.assert_array_equal(load_mask3d(out_dir / "truth.json").column_counts,
                                          counts)
        assert "packed" not in vars(mask)
        assert (out_dir / "truth.raw").read_bytes() == want.tobytes()
        np.testing.assert_array_equal(mask.packed, want)


PLANE_COUNTS = [0, 1, 5, 1000]


class TestStreamedTruth:
    @pytest.mark.parametrize("planes", PLANE_COUNTS, ids=lambda n: f"{n}-planes")
    @pytest.mark.parametrize("spec", PAINTER_SPECS.values(), ids=PAINTER_SPECS.keys())
    def test_payload_is_the_eager_mask(self, spec, planes, tmp_path):
        """Budgets of one byte, 1 slice, 5 slices (not dividing nz) and 1000 (all of nz)."""
        assert_streams_its_truth(spec, planes, tmp_path)

    @settings(max_examples=60)
    @given(spec=phantom_specs(), planes=st.sampled_from(PLANE_COUNTS))
    def test_random_specs_stream_the_eager_mask(self, spec, planes, tmp_path_factory):
        assert_streams_its_truth(spec, planes, tmp_path_factory.mktemp("truth"))

    def test_phantom_command_paints_no_3d_array_whole(self, tmp_path, monkeypatch):
        """phantom writes every volume and truth mask from its chunks, never from a whole array."""
        def whole(self):
            raise AssertionError(f"{type(self).__name__} painted whole")
        for cls, name in ((Mask3D, "packed"), (Mask3D, "bits"), (VoxelVolume, "values")):
            monkeypatch.setattr(cls, name, property(whole))
        for spec in ("default", "anatomical"):
            assert main(["phantom", "--out", str(tmp_path / spec), "--spec", spec, "--n", "2",
                         "--quiet"]) == 0

    def test_repr_and_equality_paint_nothing(self, monkeypatch):
        """repr shows the geometry and label; == and hash are by identity; nothing is painted.

        So a case, whose 2D masks compare by identity too, compares without raising.
        """
        def painter(*args):
            raise AssertionError("painted")
        for name in ("_truth_painter", "_volume_painter"):  # before a case takes them
            monkeypatch.setattr(phantom, name, painter)
        case, again = generate_phantom(ANISO), generate_phantom(ANISO)
        right, left = case.truth_right, case.truth_left
        assert repr(right) == f"Mask3D(geometry={ANISO.geometry!r}, label='right')"
        assert repr(case.volume) == f"VoxelVolume(geometry={ANISO.geometry!r})"
        assert right == right and right != left
        assert len({right, left, right}) == 2
        assert case == case and case != again and case.volume != again.volume
        assert case.sota2d_right == case.sota2d_right != again.sota2d_right
        assert len({case, again, case}) == 2
        assert_truth_is_unpainted(case)
        assert "values" not in vars(case.volume)

    def test_lungs_meeting_only_inside_their_box_overlap_intersect(self):
        """Lungs whose boxes overlap in every axis: meeting in a few voxels, and diagonally apart.

        Voxel centres are 10 mm apart at 5 + 10 k mm. The right lung's box
        spans x and y = 135 .. 215 mm. The left lung, 70 mm to its left,
        spans x = 65 .. 145 mm and meets it at x = 135 and 145 mm. Moved
        70 mm down in y as well, its box spans 65 .. 145 mm in x and y, so
        the two boxes still share the corner x, y = 135 .. 145 mm; the
        lungs, 99 mm apart against radii of 45 mm, share no voxel.
        """
        g = COARSE_128
        right = Ellipsoid((175.0, 175.0, 165.0), (45.0, 45.0, 45.0))
        for (x, y), meets in (((105.0, 175.0), True), ((105.0, 105.0), False)):
            left = Ellipsoid((x, y, 165.0), (45.0, 45.0, 45.0))
            spec = PhantomSpec(geometry=g, lung_right=right, lung_left=left)
            both = rasterize_ellipsoid(g, right) & rasterize_ellipsoid(g, left)
            assert both.any() == meets
            a, b = _box(g, right), _box(g, left)
            for p, q in ((a.zs, b.zs), (a.ys, b.ys), (a.xs, b.xs)):  # the boxes overlap
                assert max(p.start, q.start) < min(p.stop, q.stop)
            if meets:
                with pytest.raises(SpecViolation, match="lungs intersect"):
                    generate_phantom(spec)
            else:
                generate_phantom(spec)


class TestGeneratePhantom:
    def test_truth_masks_are_voxelized_ellipsoids(self):
        spec = default_spec()
        case = generate_phantom(spec)
        for lung, mask in [(spec.lung_right, case.truth_right),
                           (spec.lung_left, case.truth_left)]:
            field = ellipsoid_field(spec.geometry, lung)
            # strict bands leave only half-ulp boundary cases unchecked
            assert mask.bits[field < 1.0 - 1e-9].all()
            assert not mask.bits[field > 1.0 + 1e-9].any()

    def test_lungs_disjoint_and_nonempty(self):
        case = generate_phantom(default_spec())
        assert case.truth_right.voxel_count > 0
        assert case.truth_left.voxel_count > 0
        assert not np.any(case.truth_right.bits & case.truth_left.bits)

    def test_tissue_painting(self):
        spec = default_spec()
        case = generate_phantom(spec)
        v = case.volume.values
        assert v[vox(spec, 1.0, 1.0, 1.0)] == spec.hu.air               # corner
        assert v[vox(spec, 261.25, 158.75, 301.25)] == spec.hu.soft     # torso only
        assert v[vox(spec, 221.25, 158.75, 176.25)] == spec.hu.lung     # right lung
        assert v[vox(spec, 156.25, 158.75, 158.75)] == spec.hu.heart    # mediastinum

    def test_occluder_paints_over_lung_but_truth_keeps_it(self):
        spec = default_spec()
        case = generate_phantom(spec)
        idx = vox(spec, 181.25, 158.75, 176.25)  # inside right lung AND mediastinum
        assert case.volume.values[idx] == spec.hu.heart
        assert case.truth_right.bits[idx]

    def test_sota_is_projection_minus_occluder_silhouette(self):
        spec = default_spec()
        case = generate_phantom(spec)
        proj = project_mask(case.truth_right).bits
        removed = proj & ~case.sota2d_right.bits
        assert removed.any()
        # every removed pixel must sit inside the mediastinal band in x
        g = spec.geometry
        xs = (np.arange(g.nx) + 0.5) * g.sx
        in_band = np.abs(xs - spec.heart.center[0]) <= spec.heart.semi_axes[0]
        assert not np.any(removed & ~in_band[None, :])

    def test_no_occluders_means_sota_equals_projection(self):
        case = generate_phantom(two_sphere_spec(heart=None))
        np.testing.assert_array_equal(case.sota2d_right.bits,
                                      project_mask(case.truth_right).bits)
        np.testing.assert_array_equal(case.sota2d_left.bits,
                                      project_mask(case.truth_left).bits)

    def test_lung_outside_grid_rejected(self):
        with pytest.raises(SpecViolation):
            replace(default_spec(),
                    lung_right=Ellipsoid((310.0, 160.0, 175.0), (55.0, 75.0, 105.0)))

    def test_intersecting_lungs_rejected(self):
        spec = replace(default_spec(),
                       lung_left=Ellipsoid((200.0, 160.0, 175.0), (55.0, 75.0, 105.0)))
        with pytest.raises(SpecViolation, match="lungs intersect"):
            generate_phantom(spec)

    def test_vanishing_lung_rejected(self):
        # fits the grid but contains no 5 mm voxel center
        spec = replace(two_sphere_spec(heart=None),
                       lung_left=Ellipsoid((5.0, 160.0, 160.0), (1.0, 1.0, 1.0)))
        with pytest.raises(SpecViolation, match="zero voxels"):
            generate_phantom(spec)

    @pytest.mark.parametrize("build", [
        lambda: Ellipsoid((float("nan"), 160.0, 160.0), (40.0, 40.0, 40.0)),
        lambda: SphereCap((222.0, float("inf"), 30.0), 75.0, 80.0),
        lambda: SphereCap((222.0, 160.0, 30.0), 75.0, float("nan")),
        # a misspelled solid and an unknown key inside one, through the spec
        # document; then a string center and a string radius
        lambda: spec_from_dict(dict(spec_to_dict(anatomical_spec()),
                                    hart={"center_mm": [135.0, 180.0, 110.0],
                                          "semi_axes_mm": [48.0, 42.0, 50.0]})),
        lambda: spec_from_dict(dict(spec_to_dict(anatomical_spec()),
                                    heart={"center_mm": [135.0, 180.0, 110.0],
                                           "semi_axes_mm": [48.0, 42.0, 50.0], "hu": 40})),
        lambda: Ellipsoid(("135.0", 180.0, 110.0), (48.0, 42.0, 50.0)),
        lambda: SphereCap((222.0, 160.0, 30.0), "75.0", 80.0),
    ])
    def test_non_finite_solid_rejected(self, build):
        with pytest.raises(SpecViolation):
            build()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_heart_a_few_ulps_thick_paints_without_a_warning(self, axis):
        """A semi-axis of 5e-324 mm overflows the box's terms to inf: no warning, no voxel."""
        semi = list(SMALL_ANATOMICAL["heart"]["semi_axes_mm"])
        semi[axis] = 5e-324
        spec = spec_from_dict(dict(SMALL_ANATOMICAL,
                                   heart=dict(SMALL_ANATOMICAL["heart"], semi_axes_mm=semi)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            case = generate_phantom(spec)
            got = {"volume": np.concatenate(list(case.volume.chunks())),
                   **{name: np.concatenate(list(getattr(case, name).chunks()))
                      for name in ("truth_right", "truth_left")}}
        with np.errstate(over="ignore"):  # the reference divides by the semi-axis too
            want = reference_phantom(spec)
        assert np.array_equal(got["volume"], want["volume"])
        for name in ("truth_right", "truth_left"):
            assert np.array_equal(got[name], np.packbits(want[name], axis=1, bitorder="little"))
        assert not np.isin(want["volume"], spec.hu.heart).any()

    def test_hu_values_validated(self):
        with pytest.raises(SpecViolation):
            TissueHu(air=-2000)

    @pytest.mark.parametrize("build", [
        lambda: TissueHu(air=-1000.5),
        lambda: TissueHu(heart=True),
        lambda: replace(default_spec(), rng_seed=1.0),
        lambda: replace(default_spec(), rng_seed=-1),  # SeedSequence takes no negative seed
        lambda: replace(default_spec(), annotator_jitter_px=False),
    ])
    def test_spec_integers_are_ints_not_bools(self, build):
        with pytest.raises(SpecViolation):
            build()

    def test_solids_store_tuples_of_floats(self):
        e = Ellipsoid([98, np.float32(160.0), 175], [55.0, 75, np.float64(105.0)])
        assert e == Ellipsoid((98.0, 160.0, 175.0), (55.0, 75.0, 105.0))
        assert all(type(v) is float for v in (*e.center, *e.semi_axes))
        cap = SphereCap([1, 2, 3], np.float64(4.0), 5)
        assert (cap.center, cap.radius, cap.cap_z) == ((1.0, 2.0, 3.0), 4.0, 5.0)
        assert type(cap.radius) is float and type(cap.cap_z) is float
        hu = TissueHu(air=np.int16(-900))
        assert hu.air == -900 and type(hu.air) is int


class TestAnnotatorJitter:
    def test_zero_jitter_reproduces_sota(self):
        case = generate_phantom(two_sphere_spec(heart=None, jitter=0))
        np.testing.assert_array_equal(case.annot2_right.bits, case.sota2d_right.bits)
        np.testing.assert_array_equal(case.annot2_left.bits, case.sota2d_left.bits)

    def test_jitter_changes_masks_strictly(self):
        case = generate_phantom(default_spec(annotator_jitter_px=1))
        assert dice(case.sota2d_right, case.annot2_right) < 1.0
        assert dice(case.sota2d_left, case.annot2_left) < 1.0

    def test_flips_confined_to_boundary_band(self):
        case = generate_phantom(default_spec(annotator_jitter_px=1))
        for sota, annot in [(case.sota2d_right, case.annot2_right),
                            (case.sota2d_left, case.annot2_left)]:
            band = scipy_band(sota.bits, 1)
            flipped = sota.bits ^ annot.bits
            assert flipped.any()
            assert not np.any(flipped & ~band)

    def test_same_seed_same_jitter(self):
        a = generate_phantom(default_spec(rng_seed=5))
        b = generate_phantom(default_spec(rng_seed=5))
        np.testing.assert_array_equal(a.annot2_right.bits, b.annot2_right.bits)
        np.testing.assert_array_equal(a.annot2_left.bits, b.annot2_left.bits)

    def test_different_seed_different_jitter(self):
        a = generate_phantom(default_spec(rng_seed=5))
        b = generate_phantom(default_spec(rng_seed=6))
        assert not np.array_equal(a.annot2_right.bits, b.annot2_right.bits)

    def test_default_jitter_dice_near_calibration_point(self):
        case = generate_phantom(default_spec())
        assert 0.93 <= dice(case.sota2d_right, case.annot2_right) <= 0.99


def assert_grow_matches_scipy(bits: np.ndarray, radius: int) -> None:
    """_grow dilation and its dual erosion equal scipy's, off-array pixels as 0."""
    np.testing.assert_array_equal(_grow(bits, radius, False),
                                  ndimage.binary_dilation(bits, iterations=radius))
    np.testing.assert_array_equal(~_grow(~bits, radius, True),
                                  ndimage.binary_erosion(bits, iterations=radius))


class TestGrow:
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (7, 5)])
    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("radius", [1, 2, 3, 12])  # 12 exceeds every side
    def test_constant_and_thin_masks(self, shape, fill, radius):
        assert_grow_matches_scipy(np.full(shape, fill), radius)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (3, 4)])
    def test_single_pixel_wider_radius(self, shape):
        bits = np.zeros(shape, bool)
        bits[-1, -1] = True
        assert_grow_matches_scipy(bits, max(shape) + 2)

    @settings(max_examples=300)
    @given(h=st.integers(1, 24), w=st.integers(1, 24), radius=st.integers(1, 6),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_random_masks(self, h, w, radius, density, seed):
        bits = np.random.default_rng(seed).random((h, w)) < density
        assert_grow_matches_scipy(bits, radius)

    @settings(max_examples=100)
    @given(h=st.integers(1, 24), w=st.integers(1, 24), radius=st.integers(0, 4),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_jitter_flips_the_scipy_band(self, h, w, radius, density, seed):
        bits = np.random.default_rng(seed).random((h, w)) < density
        got = _jitter_bits(bits, radius, np.random.default_rng(seed))
        np.testing.assert_array_equal(
            got, reference_jitter(bits, radius, np.random.default_rng(seed)))


    @pytest.mark.parametrize("shape", [(16, 16), (9, 20)])
    def test_jitter_radius_beyond_the_mask_is_clamped(self, shape):
        # past nz + nx the band is every pixel a radius can reach: a huge
        # radius draws what the unclamped reference draws a little past it
        bits = np.zeros(shape, bool)
        bits[3:7, 4:11] = True
        start = time.perf_counter()
        got = _jitter_bits(bits, 10**6, np.random.default_rng(5))
        assert time.perf_counter() - start < 2.0
        np.testing.assert_array_equal(
            got, _jitter_bits(bits, sum(shape), np.random.default_rng(5)))
        np.testing.assert_array_equal(
            got, reference_jitter(bits, sum(shape) + 8, np.random.default_rng(5)))


class TestAnalyticOracle:
    def test_list_solids_are_hashable_for_the_cache(self):
        tuples = two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0), (100.0, 50.0, SLAB_Z)))
        lists = replace(tuples, heart=Ellipsoid([122.0, 160.0, 160.0], [100.0, 50.0, SLAB_Z]),
                        lung_right=Ellipsoid([222, 160, 160], [40, 40, 40]))
        for side in ("right", "left", "both"):
            want = analytic_obscured_fraction(tuples, side)
            assert analytic_obscured_fraction(lists, side) == want

    def test_no_occluders_is_zero(self):
        spec = two_sphere_spec(heart=None)
        for side in ("right", "left", "both"):
            assert analytic_obscured_fraction(spec, side) == 0.0

    def test_vanishing_occluder_obscures_nothing(self):
        """A dome whose radius over the lung's semi-axis underflows to 0 leaves the fraction as is."""
        spec = anatomical_spec()
        tiny = replace(spec, diaphragm_right=SphereCap((222.0, 160.0, 30.0), 5e-324, 80.0))
        without = replace(spec, diaphragm_right=None)
        for side in ("right", "left", "both"):
            assert analytic_obscured_fraction(tiny, side) == analytic_obscured_fraction(without,
                                                                                         side)

    def test_shadow_missing_lungs_is_zero(self):
        # slab strictly medial of the right lung and lateral of the decoy
        spec = two_sphere_spec(heart=Ellipsoid((130.0, 160.0, 160.0),
                                               (20.0, 50.0, SLAB_Z)))
        assert analytic_obscured_fraction(spec, "right") == 0.0
        assert analytic_obscured_fraction(spec, "left") == 0.0

    def test_half_plane_through_center_obscures_half(self):
        # slab edge at the right lung center x=222
        spec = two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0),
                                               (100.0, 50.0, SLAB_Z)))
        assert analytic_obscured_fraction(spec, "right") == pytest.approx(0.5, abs=1e-6)
        # decoy x-range [40, 80] lies inside the slab's [22, 222]: fully covered
        assert analytic_obscured_fraction(spec, "left") == 1.0

    def test_quarter_chord_edge_obscures_5_32(self):
        # slab edge at x = 222 - 40/2 = 202, half a radius into the lung
        spec = two_sphere_spec(heart=Ellipsoid((102.0, 160.0, 160.0),
                                               (100.0, 50.0, SLAB_Z)))
        assert analytic_obscured_fraction(spec, "right") == pytest.approx(
            5.0 / 32.0, abs=1e-6)

    def test_both_is_volume_weighted(self):
        spec = two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0),
                                               (100.0, 50.0, SLAB_Z)))
        fr = analytic_obscured_fraction(spec, "right")
        fl = analytic_obscured_fraction(spec, "left")
        vr, vl = 40.0 ** 3, 20.0 ** 3  # semi-axis products; 4pi/3 cancels
        expected = (vr * fr + vl * fl) / (vr + vl)
        assert analytic_obscured_fraction(spec, "both") == pytest.approx(expected,
                                                                         rel=1e-12)

    def test_overlapping_shadows_are_not_double_counted(self):
        # a giant-radius cap is also a straight band; its shadow (edge at
        # x=202) lies entirely inside the heart slab's (edge at x=222), so
        # the union obscures exactly half, not 1/2 + 5/32
        spec = replace(
            two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0),
                                            (100.0, 50.0, SLAB_Z))),
            diaphragm_right=SphereCap((202.0 - SLAB_Z, 160.0, 160.0),
                                      SLAB_Z, 160.0 - SLAB_Z),
        )
        assert analytic_obscured_fraction(spec, "right") == pytest.approx(0.5, abs=1e-6)

    def test_curved_occluder_matches_quadrature(self):
        # modest z semi-axis: the shadow edge bows ~0.3 mm across the lung
        spec = two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0),
                                               (100.0, 50.0, 500.0)))
        fr, fl = quad_fraction(spec, "right"), quad_fraction(spec, "left")
        assert analytic_obscured_fraction(spec, "right") == pytest.approx(fr, abs=1e-7)
        vr, vl = 40.0 ** 3, 20.0 ** 3
        assert analytic_obscured_fraction(spec, "both") == pytest.approx(
            (vr * fr + vl * fl) / (vr + vl), abs=1e-7)

    def test_occluder_not_spanning_z_matches_quadrature(self):
        spec = two_sphere_spec(heart=Ellipsoid((222.0, 160.0, 160.0),
                                               (30.0, 50.0, 20.0)))
        assert analytic_obscured_fraction(spec, "right") == pytest.approx(
            quad_fraction(spec, "right"), abs=1e-7)

    def test_cap_below_lung_contributes_nothing(self):
        # dome silhouette spans z in [80, 90]; the lung starts at z = 120
        spec = replace(two_sphere_spec(heart=None),
                       diaphragm_right=SphereCap((222.0, 160.0, 60.0), 30.0, 80.0))
        assert analytic_obscured_fraction(spec, "right") == 0.0

    def test_dome_into_lung_matches_quadrature(self):
        spec = anatomical_spec()
        for side in ("right", "left"):
            assert analytic_obscured_fraction(spec, side) == pytest.approx(
                quad_fraction(spec, side), abs=1e-7)

    @pytest.mark.parametrize("index", range(5))
    def test_perturbed_anatomical_cases_match_quadrature(self, index):
        spec = cohort_case(replace(anatomical_spec(), geometry=COARSE_128), index, 0).spec
        for side in ("right", "left"):
            assert analytic_obscured_fraction(spec, side) == pytest.approx(
                quad_fraction(spec, side), abs=1e-7)

    @pytest.mark.parametrize("spec", [
        replace(default_spec(), heart=Ellipsoid((156.25, 160.0, 160.0), (43.75, 80.0, BAND_Z))),
        two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0), (100.0, 50.0, BAND_Z))),
        two_sphere_spec(heart=Ellipsoid((102.0, 160.0, 160.0), (100.0, 50.0, BAND_Z))),
        two_sphere_spec(heart=Ellipsoid((215.0, 160.0, 160.0), (20.0, 50.0, BAND_Z))),
    ], ids=["default", "half_plane", "quarter_chord", "strip_inside_lung"])
    def test_band_matches_cap_closed_form(self, spec):
        for side in ("right", "left"):
            assert analytic_obscured_fraction(spec, side) == pytest.approx(
                band_fraction(spec, side), abs=1e-9)

    @pytest.mark.parametrize("build", [default_spec, anatomical_spec])
    def test_every_cohort_case_has_an_oracle(self, build):
        base = replace(build(), geometry=COARSE_128)
        for index in range(55):
            spec = cohort_case(base, index, 0).spec
            for side in ("right", "left", "both"):
                frac = analytic_obscured_fraction(spec, side)
                assert isinstance(frac, float) and 0.0 <= frac <= 1.0

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            analytic_obscured_fraction(default_spec(), "upper")

    def test_default_spec_measured_matches_oracle(self):
        spec = default_spec()
        case = generate_phantom(spec)
        for side, truth, mask in [("right", case.truth_right, case.sota2d_right),
                                  ("left", case.truth_left, case.sota2d_left)]:
            measured = obscured_fraction(truth, mask)
            expected = 100.0 * analytic_obscured_fraction(spec, side)
            assert abs(measured - expected) <= oracle_tolerance_pct(spec, side)

    def test_coarse_sphere_measured_matches_oracle(self):
        spec = two_sphere_spec(heart=Ellipsoid((122.0, 160.0, 160.0),
                                               (100.0, 50.0, SLAB_Z)))
        case = generate_phantom(spec)
        measured = obscured_fraction(case.truth_right, case.sota2d_right)
        assert abs(measured - 50.0) <= oracle_tolerance_pct(spec, "right")


class TestOracleTolerance:
    def test_formula(self):
        spec = default_spec()
        g = spec.geometry
        assert oracle_tolerance_pct(spec, "right") == (
            100.0 * 0.375 * g.sx / spec.lung_right.semi_axes[0] + 0.5)

    @pytest.mark.parametrize("side", ["bogus", "Right", "", None])
    def test_unknown_side_is_an_error(self, side):
        """As analytic_obscured_fraction: an unknown side is not the left lung's tolerance."""
        for oracle in (oracle_tolerance_pct, analytic_obscured_fraction):
            with pytest.raises(ValueError, match="side must be right, left or both"):
                oracle(default_spec(), side)

    def test_both_takes_worst_side(self):
        spec = two_sphere_spec(heart=None)  # smaller left lung, larger tolerance
        assert oracle_tolerance_pct(spec, "both") == max(
            oracle_tolerance_pct(spec, "right"), oracle_tolerance_pct(spec, "left"))

    def test_shrinks_with_resolution(self):
        coarse = default_spec()
        g = coarse.geometry
        fine = replace(coarse, geometry=GridGeometry(
            nx=g.nx * 2, ny=g.ny * 2, nz=g.nz * 2,
            sx=g.sx / 2, sy=g.sy / 2, sz=g.sz / 2))
        assert oracle_tolerance_pct(fine, "right") < oracle_tolerance_pct(coarse, "right")


class TestCohort:
    def test_deterministic(self):
        base = default_spec()
        a = cohort_case(base, 3, seed=9)
        b = cohort_case(base, 3, seed=9)
        np.testing.assert_array_equal(a.volume.values, b.volume.values)
        np.testing.assert_array_equal(a.annot2_right.bits, b.annot2_right.bits)
        assert a.spec == b.spec

    def test_index_zero_without_perturbation_is_base(self):
        base = default_spec()
        a = cohort_case(base, 0, seed=42, perturb_pct=0.0)
        b = generate_phantom(base)
        assert a.spec == base
        np.testing.assert_array_equal(a.volume.values, b.volume.values)
        np.testing.assert_array_equal(a.annot2_left.bits, b.annot2_left.bits)

    def test_cases_vary(self):
        base = default_spec()
        a = cohort_case(base, 0, seed=1)
        b = cohort_case(base, 1, seed=1)
        assert a.spec.lung_right.semi_axes != b.spec.lung_right.semi_axes

    def test_jitter_seed_follows_index(self):
        case = cohort_case(default_spec(), 4, seed=0, perturb_pct=0.0)
        assert case.spec.rng_seed == default_spec().rng_seed + 4

    def test_generate_cohort_size(self):
        cases = generate_cohort(default_spec(), 3, seed=2)
        assert len(cases) == 3
        with pytest.raises(ValueError):
            generate_cohort(default_spec(), 0, seed=2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cohort_case(default_spec(), -1, seed=0)
        with pytest.raises(ValueError):
            cohort_case(default_spec(), 0, seed=0, perturb_pct=100.0)

    def test_a_failed_attempt_is_freed_before_the_retry(self, monkeypatch):
        """cohort_case keeps nothing of a failed attempt, so its masks go before the next one's.

        With gc off only reference counts free memory: an exception kept in
        a local would hold its traceback, whose frames hold the attempt's
        arrays and the local itself, a cycle. On the CT grid that is 16 MB.
        """
        from lungcover import phantom
        real, freed = phantom.generate_phantom, []

        def first_attempt_fails(spec):
            if not freed:
                masks = np.zeros(1 << 16, np.uint8)  # stands for the attempt's truth masks
                freed.append(weakref.ref(masks))
                raise SpecViolation("lungs intersect")
            assert freed[0]() is None  # before the retry paints anything
            return real(spec)
        monkeypatch.setattr(phantom, "generate_phantom", first_attempt_fails)
        gc.disable()
        try:
            case = cohort_case(default_spec(), 0, seed=0)
        finally:
            gc.enable()
        assert case.truth_right.voxel_count > 0

    def test_impossible_base_exhausts_retries(self):
        # lungs that overlap at every scale draw
        base = replace(default_spec(),
                       lung_right=Ellipsoid((150.0, 160.0, 175.0), (40.0, 40.0, 40.0)),
                       lung_left=Ellipsoid((160.0, 160.0, 175.0), (40.0, 40.0, 40.0)))
        with pytest.raises(SpecViolation, match="case 0: no valid perturbation in 8 attempts: "
                                                "lungs intersect"):
            cohort_case(base, 0, seed=0, perturb_pct=1.0)


class TestSpecJson:
    def test_round_trip(self):
        spec = anatomical_spec(rng_seed=7, annotator_jitter_px=2)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_round_trip_without_optional_parts(self):
        spec = two_sphere_spec(heart=None)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_geometry_defaults_to_ct_scale(self):
        doc = spec_to_dict(two_sphere_spec(heart=None))
        del doc["geometry"]
        assert spec_from_dict(doc).geometry == DEFAULT_JSON_GEOMETRY

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("lung_right"),
        lambda d: d["lung_left"].update(semi_axes_mm=[1.0, 2.0]),
        lambda d: d.update(hu={"air": -1000.5}),
        lambda d: d.update(hu={"bone": 700}),
        lambda d: d.update(rng_seed="zero"),
        lambda d: d.update(annotator_jitter_px=-1),
        lambda d: d.update(geometry={"dims": [0, 64, 64],
                                     "spacing_mm": [5.0, 5.0, 5.0]}),
        # bool is an int to Python; json reads NaN, Infinity and huge ints
        lambda d: d["lung_right"].update(semi_axes_mm=[True, 75.0, 105.0]),
        lambda d: d["lung_left"].update(center_mm=[10 ** 400, 160.0, 175.0]),
        lambda d: d["heart"].update(center_mm=[float("nan"), 160.0, 160.0]),
        lambda d: d["heart"].update(center_mm=[156.25, float("inf"), 160.0]),
        lambda d: d["geometry"].update(spacing_mm=[True, 2.5, 2.5]),
        lambda d: d["geometry"].update(spacing_mm=[2.5, 2.5, float("nan")]),
        lambda d: d.update(hu={"heart": True}),
        lambda d: d.update(diaphragm_right={"center_mm": [222.0, 160.0, 30.0],
                                            "radius_mm": True, "cap_z_mm": 80.0}),
        lambda d: d.update(diaphragm_right={"center_mm": [222.0, 160.0, 30.0],
                                            "radius_mm": 75.0, "cap_z_mm": float("-inf")}),
        lambda d: d.update(diaphragm_left={"center_mm": [98.0, float("nan"), 20.0],
                                           "radius_mm": 75.0, "cap_z_mm": 78.0}),
        # a misspelled key is an error, not a solid left out
        lambda d: d.update(hart=d.pop("heart")),
        lambda d: d["heart"].update(hu=40),
        lambda d: d["heart"].update(center_mm=["156.25", 160.0, 160.0]),
        lambda d: d["geometry"].update(origin_mm=[0.0, 0.0, 0.0]),
        lambda d: d["geometry"].update(dims=[10 ** 400, 128, 128]),
        lambda d: d["geometry"].update(dims=[2 ** 40, 2 ** 40, 128]),  # more than numpy indexes
    ])
    def test_malformed_documents_rejected(self, mutate):
        doc = spec_to_dict(default_spec())
        mutate(doc)
        with pytest.raises(SpecViolation):
            spec_from_dict(doc)

    def test_named_specs_generate(self):
        for build in (default_spec, anatomical_spec):
            assert generate_phantom(build()).truth_right.voxel_count > 0

    def test_integer_spacing_reads_as_float(self):
        doc = spec_to_dict(two_sphere_spec(heart=None))
        doc["geometry"]["spacing_mm"] = [5, 5, 5]
        spacing = spec_to_dict(spec_from_dict(doc))["geometry"]["spacing_mm"]
        assert spacing == [5.0, 5.0, 5.0] and all(type(v) is float for v in spacing)


# --- spec mutations: every malformed spec is one SpecViolation -----------------

SPEC_ODD_VALUES = st.one_of(
    st.sampled_from([
        True, False, None, "", "1", "heart", [], {}, [1.0], [1.0, 2.0], [1.0, 2.0, 3.0],
        [True, 2.0, 3.0], ["1", 2.0, 3.0], [[1.0, 2.0, 3.0]], [[[[[1.0]]]]],
        {"center_mm": [1.0, 2.0, 3.0]}, {"dims": [24, 24, 24]},
        float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 2**40, 2**64,
        [2**40, 24, 24], [10**400, 24, 24], 0, -1, 0.5, 24, 1e308, 5e-324,
    ]),
    JSON_VALUES,
)


def spec_keys(doc: dict) -> list:
    """The document and each of its objects, with misspelled ("hart", "centre_mm") and new keys."""
    objects = [doc] + [v for v in doc.values() if isinstance(v, dict)]
    return [(o, sorted(o) * 2 + ["hart", "centre_mm", "bogus"]) for o in objects]


@given(data=st.data())
def test_mutated_spec_parses_or_is_spec_violation(data):
    doc = data.draw(mutated(spec_to_dict(anatomical_spec()), spec_keys, SPEC_ODD_VALUES))
    try:
        spec = spec_from_dict(doc)
    except SpecViolation:
        return
    out = spec_to_dict(spec)
    for key, value in doc.items():  # no key was ignored
        assert key in out and (not isinstance(value, dict) or set(value) <= set(out[key]))
    assert spec_from_dict(out) == spec


# The anatomical phantom on a 24^3 grid of 13.5 mm voxels: a 324 mm field of
# view, which holds the built-in 320 mm one.
SMALL_ANATOMICAL = spec_to_dict(replace(anatomical_spec(),
                                        geometry=GridGeometry(24, 24, 24, 13.5, 13.5, 13.5)))


@pytest.fixture(scope="module")
def spec_run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated_spec")


@given(data=st.data())
def test_phantom_on_mutated_spec_is_one_error_line(spec_run_dir, data):
    doc = data.draw(mutated(SMALL_ANATOMICAL, spec_keys, SPEC_ODD_VALUES))
    try:
        voxels = spec_from_dict(doc).geometry.voxel_count
    except SpecViolation:
        voxels = 0
    if voxels > 24 ** 3:  # a dropped geometry is the CT grid; a mutated dims may be huge
        return
    path = spec_run_dir / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["phantom", "--out", str(spec_run_dir / "out"), "--spec", str(path),
                   "--n", "1", "--quiet"])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_solid_reaching_infinity_is_one_error_line(spec_run_dir, capsys):
    """A dome at x = 1e308 of radius 1e308 would end at x = inf: the spec rejects it, in one line."""
    doc = json.loads(json.dumps(SMALL_ANATOMICAL))
    doc["diaphragm_right"].update(center_mm=[1e308, 160.0, 30.0], radius_mm=1e308)
    path = spec_run_dir / "infinite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["phantom", "--out", str(spec_run_dir / "infinite"), "--spec", str(path),
               "--n", "1", "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: SpecViolation: diaphragm_right: SphereCap center must be ")
    assert err.count("\n") == 1


def test_small_anatomical_spec_runs(spec_run_dir):
    # the unmutated base of the test above makes a phantom
    path = spec_run_dir / "base.json"
    path.write_text(json.dumps(SMALL_ANATOMICAL), encoding="utf-8")
    assert main(["phantom", "--out", str(spec_run_dir / "base"), "--spec", str(path),
                 "--n", "1", "--quiet"]) == 0
