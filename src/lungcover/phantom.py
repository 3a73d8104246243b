"""Synthetic chest phantoms with exact masks and analytic fraction oracles.

A phantom is a torso ellipsoid of soft tissue holding two lung
ellipsoids, an optional heart/mediastinum ellipsoid and optional
diaphragm domes (sphere caps protruding into the lungs from below).
Voxel membership is voxel-center inclusion, painted with priority
heart/diaphragm > lung > soft tissue > air, so brute-force counts are
exact. The truth masks are the voxelized lung ellipsoids themselves;
the contour-style 2D mask is the lung silhouette minus the occluder
silhouettes; a second annotator is simulated by seeded boundary jitter.

Randomness: every stream is a numpy PCG64 generator seeded through
numpy.random.SeedSequence, a fixed and portable algorithm, so cohorts
reproduce bit-identically across machines and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .errors import SpecViolation
from .grid import HU_MAX, HU_MIN, GridGeometry, Mask2D, Mask3D, VoxelVolume
from .projection import project_mask

# Probability that a boundary-band pixel flips in the annotator-2 variant.
# Calibrated on the default cohort so the median 2D Dice between the two
# annotators lands near 0.97 (see scripts/calibrate_jitter.py).
JITTER_FLIP_PROB = 0.3

MAX_COHORT_RETRIES = 8


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid: center and semi-axes in mm."""

    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def __post_init__(self):
        if len(self.center) != 3 or len(self.semi_axes) != 3:
            raise SpecViolation("ellipsoid needs 3 center and 3 semi-axis values")
        if not all(a > 0 and math.isfinite(a) for a in self.semi_axes):
            raise SpecViolation(f"semi-axes must be positive, got {self.semi_axes}")

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
        if len(self.center) != 3:
            raise SpecViolation("sphere cap needs a 3-component center")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise SpecViolation(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class TissueHu:
    air: int = -1000
    lung: int = -800
    soft: int = 0
    heart: int = 40
    diaphragm: int = 50

    def __post_init__(self):
        for name in ("air", "lung", "soft", "heart", "diaphragm"):
            v = getattr(self, name)
            if not (HU_MIN <= v <= HU_MAX):
                raise SpecViolation(f"HU for {name} outside [{HU_MIN}, {HU_MAX}]: {v}")


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
        if self.annotator_jitter_px < 0:
            raise SpecViolation("annotator_jitter_px must be nonnegative")
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


def _index_span(lo_mm: float, hi_mm: float, n: int, s: float) -> tuple[int, int]:
    """Index range whose voxel centers might fall in [lo_mm, hi_mm], padded by 1."""
    lo = max(0, int(math.floor(lo_mm / s - 0.5)) - 1)
    hi = min(n, int(math.ceil(hi_mm / s - 0.5)) + 2)
    return lo, max(lo, hi)


def _rasterize_ellipsoid(geom: GridGeometry, e: Ellipsoid) -> np.ndarray:
    """Bool (nz, ny, nx): voxel centers inside the ellipsoid."""
    out = np.zeros(geom.shape_zyx, dtype=bool)
    (cx, cy, cz), (ax, ay, az) = e.center, e.semi_axes
    x0, x1 = _index_span(cx - ax, cx + ax, geom.nx, geom.sx)
    y0, y1 = _index_span(cy - ay, cy + ay, geom.ny, geom.sy)
    z0, z1 = _index_span(cz - az, cz + az, geom.nz, geom.sz)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return out
    tx = ((_axis_centers(geom.nx, geom.sx)[x0:x1] - cx) / ax) ** 2
    ty = ((_axis_centers(geom.ny, geom.sy)[y0:y1] - cy) / ay) ** 2
    tz = ((_axis_centers(geom.nz, geom.sz)[z0:z1] - cz) / az) ** 2
    txy = ty[:, None] + tx[None, :]
    for k, t in enumerate(tz):  # z-slice loop keeps peak memory at O(ny*nx)
        out[z0 + k, y0:y1, x0:x1] = txy <= 1.0 - t
    return out


def _rasterize_cap(geom: GridGeometry, c: SphereCap) -> np.ndarray:
    """Bool (nz, ny, nx): voxel centers inside the sphere and at z >= cap_z."""
    out = np.zeros(geom.shape_zyx, dtype=bool)
    (cx, cy, cz), r = c.center, c.radius
    x0, x1 = _index_span(cx - r, cx + r, geom.nx, geom.sx)
    y0, y1 = _index_span(cy - r, cy + r, geom.ny, geom.sy)
    z0, z1 = _index_span(max(c.cap_z, cz - r), cz + r, geom.nz, geom.sz)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return out
    xs = _axis_centers(geom.nx, geom.sx)[x0:x1] - cx
    ys = _axis_centers(geom.ny, geom.sy)[y0:y1] - cy
    zs = _axis_centers(geom.nz, geom.sz)[z0:z1]
    txy = (ys ** 2)[:, None] + (xs ** 2)[None, :]
    r2 = r * r
    for k, z in enumerate(zs):
        if z < c.cap_z:
            continue
        out[z0 + k, y0:y1, x0:x1] = txy <= r2 - (z - cz) ** 2
    return out


# --- annotator jitter ---------------------------------------------------------

def _jitter_bits(bits: np.ndarray, radius: int, rng: np.random.Generator) -> np.ndarray:
    """Flip boundary-band pixels independently; at least one pixel changes."""
    if radius == 0:
        return bits.copy()
    band = ndimage.binary_dilation(bits, iterations=radius) & ~ndimage.binary_erosion(
        bits, iterations=radius
    )
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
    """Rasterize the spec into a volume, truth masks and 2D annotator masks."""
    g = spec.geometry
    truth_r = _rasterize_ellipsoid(g, spec.lung_right)
    truth_l = _rasterize_ellipsoid(g, spec.lung_left)
    if not truth_r.any() or not truth_l.any():
        raise SpecViolation("a lung rasterizes to zero voxels at this resolution")
    if (truth_r & truth_l).any():
        raise SpecViolation("lungs intersect")

    occluders = []
    if spec.heart is not None:
        occluders.append((_rasterize_ellipsoid(g, spec.heart), spec.hu.heart))
    if spec.diaphragm_right is not None:
        occluders.append((_rasterize_cap(g, spec.diaphragm_right), spec.hu.diaphragm))
    if spec.diaphragm_left is not None:
        occluders.append((_rasterize_cap(g, spec.diaphragm_left), spec.hu.diaphragm))

    values = np.full(g.shape_zyx, spec.hu.air, dtype=np.int16)
    if spec.torso is not None:
        values[_rasterize_ellipsoid(g, spec.torso)] = spec.hu.soft
    values[truth_r] = spec.hu.lung
    values[truth_l] = spec.hu.lung
    for occ_bits, hu in occluders:
        values[occ_bits] = hu

    occ_sil = np.zeros((g.nz, g.nx), dtype=bool)
    for occ_bits, _ in occluders:
        occ_sil |= occ_bits.any(axis=1)

    mask_r = Mask3D(g, truth_r, "right")
    mask_l = Mask3D(g, truth_l, "left")
    sota_r_bits = project_mask(mask_r).bits & ~occ_sil
    sota_l_bits = project_mask(mask_l).bits & ~occ_sil

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.rng_seed)))
    annot2_r = _jitter_bits(sota_r_bits, spec.annotator_jitter_px, rng)  # right drawn first
    annot2_l = _jitter_bits(sota_l_bits, spec.annotator_jitter_px, rng)

    def m2d(bits: np.ndarray, label: str) -> Mask2D:
        return Mask2D(g.nx, g.nz, g.sx, g.sz, bits, label)

    return PhantomCase(
        spec=spec,
        volume=VoxelVolume(g, values),
        truth_right=mask_r,
        truth_left=mask_l,
        sota2d_right=m2d(sota_r_bits, "right"),
        sota2d_left=m2d(sota_l_bits, "left"),
        annot2_right=m2d(annot2_r, "right"),
        annot2_left=m2d(annot2_l, "left"),
    )


# --- analytic oracle ----------------------------------------------------------

def _cap_fraction(t: float) -> float:
    """Fraction of a unit sphere with normalized coordinate <= t.

    Spherical cap of height h = 1 + t (clamped to [0, 2]):
    V_cap / V_sphere = h^2 (3 - h) / 4.
    """
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    h = min(max(1.0 + t, 0.0), 2.0)
    return h * h * (3.0 - h) / 4.0


def _silhouette_extent(occ) -> tuple[float, float, float, float, float]:
    """(x_center, x_semi, z_lo, z_hi, z_center) of the occluder's coronal shadow."""
    if isinstance(occ, Ellipsoid):
        return occ.center[0], occ.semi_axes[0], occ.center[2] - occ.semi_axes[2], \
            occ.center[2] + occ.semi_axes[2], occ.center[2]
    return occ.center[0], occ.radius, max(occ.cap_z, occ.center[2] - occ.radius), \
        occ.center[2] + occ.radius, occ.center[2]


def _edge_offset(occ, dz: float) -> float:
    """Half-width of the occluder silhouette at |z - z_center| = dz."""
    if isinstance(occ, Ellipsoid):
        ax, az = occ.semi_axes[0], occ.semi_axes[2]
        u = min(dz / az, 1.0)
        return ax * math.sqrt(max(0.0, 1.0 - u * u))
    u = min(dz / occ.radius, 1.0)
    return occ.radius * math.sqrt(max(0.0, 1.0 - u * u))


def _occluder_interval(occ, lung: Ellipsoid, tol: float):
    """Reduce one occluder to an x-interval over the lung silhouette.

    Returns None when the occluder's shadow misses the lung, an (lo, hi)
    pair when it behaves as a straight vertical band across the lung's
    whole z-extent (edges flat within tol, or clear of the lung), and
    raises LookupError when no closed form applies.
    """
    lcx, lcz = lung.center[0], lung.center[2]
    lax, laz = lung.semi_axes[0], lung.semi_axes[2]
    lx0, lx1, lz0, lz1 = lcx - lax, lcx + lax, lcz - laz, lcz + laz
    ox, osemi, oz0, oz1, ozc = _silhouette_extent(occ)
    if oz1 <= lz0 or oz0 >= lz1 or ox + osemi <= lx0 or ox - osemi >= lx1:
        return None  # shadow misses the lung's bounding box entirely
    if oz0 > lz0 + tol or oz1 < lz1 - tol:
        raise LookupError("occluder does not span the lung's z-extent")
    dz_far = max(abs(lz0 - ozc), abs(lz1 - ozc))
    dz_near = 0.0 if lz0 <= ozc <= lz1 else min(abs(lz0 - ozc), abs(lz1 - ozc))
    wide, narrow = _edge_offset(occ, dz_near), _edge_offset(occ, dz_far)
    flat = (wide - narrow) <= tol
    mid = (wide + narrow) / 2.0
    if ox - narrow <= lx0:          # left edge clear of the lung
        lo = -math.inf
    elif flat:
        lo = ox - mid
    else:
        raise LookupError("curved occluder edge inside the lung silhouette")
    if ox + narrow >= lx1:          # right edge clear of the lung
        hi = math.inf
    elif flat:
        hi = ox + mid
    else:
        raise LookupError("curved occluder edge inside the lung silhouette")
    return (lo, hi)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _side_fraction(spec: PhantomSpec, lung: Ellipsoid) -> float | None:
    occluders = [o for o in (spec.heart, spec.diaphragm_right, spec.diaphragm_left)
                 if o is not None]
    if not occluders:
        return 0.0
    tol = 0.01 * min(spec.geometry.sx, spec.geometry.sz)
    intervals = []
    for occ in occluders:
        try:
            iv = _occluder_interval(occ, lung, tol)
        except LookupError:
            return None
        if iv is not None:
            intervals.append(iv)
    if not intervals:
        return 0.0
    lcx, lax = lung.center[0], lung.semi_axes[0]
    frac = 0.0
    for lo, hi in _merge_intervals(intervals):
        t_lo = -math.inf if math.isinf(lo) else (lo - lcx) / lax
        t_hi = math.inf if math.isinf(hi) else (hi - lcx) / lax
        frac += _cap_fraction(t_hi) - _cap_fraction(t_lo)
    return min(max(frac, 0.0), 1.0)


def analytic_obscured_fraction(spec: PhantomSpec, side: str) -> float | None:
    """Closed-form obscured fraction in [0, 1], or None when unavailable.

    Supported configurations: each occluder's coronal shadow either
    misses the lung or crosses it as a straight vertical band spanning
    the lung's full z-extent (a half-plane or strip in x). The lung
    ellipsoid rescales affinely to the unit sphere, where a band
    contributes a difference of spherical-cap volumes
    V_cap/V_sphere = h^2(3-h)/4 with h = 1 + t clamped to [0, 2].

    Everything else (domes poking into the lung, partially covering
    shadows) has no closed form here and yields None.
    """
    if side == "right":
        return _side_fraction(spec, spec.lung_right)
    if side == "left":
        return _side_fraction(spec, spec.lung_left)
    if side == "both":
        fr = _side_fraction(spec, spec.lung_right)
        fl = _side_fraction(spec, spec.lung_left)
        if fr is None or fl is None:
            return None
        vr = spec.lung_right.volume_mm3()
        vl = spec.lung_left.volume_mm3()
        return (vr * fr + vl * fl) / (vr + vl)
    raise ValueError(f"side must be right, left or both, got {side!r}")


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
    lung = spec.lung_right if side == "right" else spec.lung_left
    return 100.0 * 0.375 * spec.geometry.sx / lung.semi_axes[0] + 0.5


# --- built-in specs -----------------------------------------------------------

# Generator defaults for JSON specs that omit "geometry" (CT-scale grid).
DEFAULT_JSON_GEOMETRY = GridGeometry(512, 512, 244, 0.66, 0.66, 1.25)


def default_spec(rng_seed: int = 0, annotator_jitter_px: int = 1) -> PhantomSpec:
    """Desk-scale cohort phantom with a slab-like mediastinum occluder.

    The mediastinal ellipsoid is made extremely tall (z semi-axis 10 m)
    so its coronal shadow crosses each lung as a straight vertical band:
    exactly the oracle-supported family. Band edges sit at 112.5 and
    200.0 mm; with 55 mm lung semi-axes at x = 98/222 mm that yields
    base fractions of about 30.7% (left) and 21.6% (right).
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
    """Phantom with a compact heart and diaphragm domes (no closed-form oracle)."""
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
    last_error: Exception | None = None
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
            last_error = exc
    raise SpecViolation(
        f"case {index}: no valid perturbation in {MAX_COHORT_RETRIES} attempts: {last_error}"
    )


def generate_cohort(base: PhantomSpec, n: int, seed: int,
                    perturb_pct: float = 15.0) -> list[PhantomCase]:
    """n perturbed cases, deterministic given (base, n, seed, perturb_pct)."""
    if n < 1:
        raise ValueError("cohort size must be at least 1")
    return [cohort_case(base, i, seed, perturb_pct) for i in range(n)]


# --- JSON form ----------------------------------------------------------------

def _ellipsoid_to_dict(e: Ellipsoid) -> dict:
    return {"center_mm": list(e.center), "semi_axes_mm": list(e.semi_axes)}


def _cap_to_dict(c: SphereCap) -> dict:
    return {"center_mm": list(c.center), "radius_mm": c.radius, "cap_z_mm": c.cap_z}


def spec_to_dict(spec: PhantomSpec) -> dict:
    g = spec.geometry
    out: dict = {
        "geometry": {"dims": [g.nx, g.ny, g.nz], "spacing_mm": [g.sx, g.sy, g.sz]},
        "lung_right": _ellipsoid_to_dict(spec.lung_right),
        "lung_left": _ellipsoid_to_dict(spec.lung_left),
        "hu": {"air": spec.hu.air, "lung": spec.hu.lung, "soft": spec.hu.soft,
               "heart": spec.hu.heart, "diaphragm": spec.hu.diaphragm},
        "rng_seed": spec.rng_seed,
        "annotator_jitter_px": spec.annotator_jitter_px,
    }
    if spec.torso is not None:
        out["torso"] = _ellipsoid_to_dict(spec.torso)
    if spec.heart is not None:
        out["heart"] = _ellipsoid_to_dict(spec.heart)
    if spec.diaphragm_right is not None:
        out["diaphragm_right"] = _cap_to_dict(spec.diaphragm_right)
    if spec.diaphragm_left is not None:
        out["diaphragm_left"] = _cap_to_dict(spec.diaphragm_left)
    return out


def _triple(d: dict, key: str, where: str) -> tuple[float, float, float]:
    v = d.get(key)
    if not (isinstance(v, list) and len(v) == 3
            and all(isinstance(x, (int, float)) for x in v)):
        raise SpecViolation(f"{where}: {key} must be a list of 3 numbers, got {v!r}")
    return (float(v[0]), float(v[1]), float(v[2]))


def _ellipsoid_from_dict(d, where: str) -> Ellipsoid:
    if not isinstance(d, dict):
        raise SpecViolation(f"{where}: expected an object, got {d!r}")
    return Ellipsoid(_triple(d, "center_mm", where), _triple(d, "semi_axes_mm", where))


def _cap_from_dict(d, where: str) -> SphereCap:
    if not isinstance(d, dict):
        raise SpecViolation(f"{where}: expected an object, got {d!r}")
    for key in ("radius_mm", "cap_z_mm"):
        if not isinstance(d.get(key), (int, float)):
            raise SpecViolation(f"{where}: {key} must be a number, got {d.get(key)!r}")
    return SphereCap(_triple(d, "center_mm", where), float(d["radius_mm"]), float(d["cap_z_mm"]))


def spec_from_dict(doc: dict) -> PhantomSpec:
    """Parse the JSON spec form; omitted geometry defaults to the CT-scale grid."""
    if not isinstance(doc, dict):
        raise SpecViolation("phantom spec must be a JSON object")
    for key in ("lung_right", "lung_left"):
        if key not in doc:
            raise SpecViolation(f"phantom spec missing {key!r}")
    if "geometry" in doc:
        gd = doc["geometry"]
        if not (isinstance(gd, dict) and isinstance(gd.get("dims"), list)
                and len(gd["dims"]) == 3
                and all(isinstance(v, int) and not isinstance(v, bool) for v in gd["dims"])):
            raise SpecViolation("geometry.dims must be a list of 3 integers")
        sx, sy, sz = _triple(gd, "spacing_mm", "geometry")
        try:
            geometry = GridGeometry(*gd["dims"], sx, sy, sz)
        except ValueError as exc:
            raise SpecViolation(f"geometry: {exc}") from exc
    else:
        geometry = DEFAULT_JSON_GEOMETRY
    hu = TissueHu()
    if "hu" in doc:
        if not isinstance(doc["hu"], dict):
            raise SpecViolation("hu must be an object")
        known = {"air", "lung", "soft", "heart", "diaphragm"}
        bad = set(doc["hu"]) - known
        if bad:
            raise SpecViolation(f"unknown hu keys: {sorted(bad)}")
        if not all(isinstance(v, int) for v in doc["hu"].values()):
            raise SpecViolation("hu values must be integers")
        hu = TissueHu(**doc["hu"])
    seed = doc.get("rng_seed", 0)
    jitter = doc.get("annotator_jitter_px", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecViolation(f"rng_seed must be an integer, got {seed!r}")
    if not isinstance(jitter, int) or isinstance(jitter, bool) or jitter < 0:
        raise SpecViolation(f"annotator_jitter_px must be a nonnegative integer, got {jitter!r}")
    return PhantomSpec(
        geometry=geometry,
        lung_right=_ellipsoid_from_dict(doc["lung_right"], "lung_right"),
        lung_left=_ellipsoid_from_dict(doc["lung_left"], "lung_left"),
        torso=_ellipsoid_from_dict(doc["torso"], "torso") if "torso" in doc else None,
        heart=_ellipsoid_from_dict(doc["heart"], "heart") if "heart" in doc else None,
        diaphragm_right=_cap_from_dict(doc["diaphragm_right"], "diaphragm_right")
        if "diaphragm_right" in doc else None,
        diaphragm_left=_cap_from_dict(doc["diaphragm_left"], "diaphragm_left")
        if "diaphragm_left" in doc else None,
        hu=hu,
        rng_seed=seed,
        annotator_jitter_px=jitter,
    )
