"""Covered/obscured partition, volumes, Dice/Jaccard, per-case reports."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lungcover.grid
from lungcover.concordance import (
    _union_column_counts,
    agreement,
    analyze_case,
    dice,
    jaccard,
    mask_volume_ml,
    obscured_fraction,
    obscured_mask,
    overlap_mask,
    union2d,
)
from lungcover.errors import BothEmpty, EmptyReference, GeometryMismatch
from lungcover.grid import GridGeometry, Mask2D, Mask3D
from lungcover.io import load_mask3d, save_mask3d
from lungcover.phantom import Ellipsoid, default_spec, generate_phantom
from lungcover.projection import extrude_mask, project_mask
from test_phantom import assert_truth_is_unpainted


def grid(nx=4, ny=3, nz=2, s=1.0) -> GridGeometry:
    return GridGeometry(nx=nx, ny=ny, nz=nz, sx=s, sy=s, sz=s)


def mask3d(g: GridGeometry, where, label="right") -> Mask3D:
    bits = np.zeros(g.shape_zyx, dtype=bool)
    for idx in where:
        bits[idx] = True
    return Mask3D(g, bits, label)


def random_pair(seed: int, max_side=8):
    rng = np.random.default_rng(seed)
    g = grid(nx=int(rng.integers(1, max_side + 1)),
             ny=int(rng.integers(1, max_side + 1)),
             nz=int(rng.integers(1, max_side + 1)))
    a = rng.random(g.shape_zyx) < 0.4
    b = rng.random(g.shape_zyx) < 0.4
    return Mask3D(g, a, "right"), Mask3D(g, b, "left")


class TestPartition:
    def test_hand_worked_counts(self):
        g = grid(nx=2, ny=2, nz=2, s=2.0)  # voxel = 8 mm^3 = 0.008 ml
        ct = mask3d(g, [(0, 0, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)])
        cover = mask3d(g, [(0, 0, 0), (1, 1, 1), (0, 1, 1)], label="left")
        covered = overlap_mask(ct, cover)
        obscured = obscured_mask(ct, cover)
        assert covered.voxel_count == 2
        assert obscured.voxel_count == 2
        assert mask_volume_ml(covered) == 2 * 0.008
        assert covered.label == "both"  # differing labels combine
        assert obscured.label == "right"

    @given(seed=st.integers(0, 2**32 - 1))
    def test_partition_is_exact(self, seed):
        ct, cover = random_pair(seed)
        covered = overlap_mask(ct, cover)
        obscured = obscured_mask(ct, cover)
        assert covered.voxel_count + obscured.voxel_count == ct.voxel_count
        assert not np.any(covered.bits & obscured.bits)
        np.testing.assert_array_equal(covered.bits | obscured.bits, ct.bits)

    def test_mismatched_grids_rejected(self):
        a = mask3d(grid(nx=4), [])
        b = mask3d(grid(nx=5), [])
        with pytest.raises(GeometryMismatch):
            overlap_mask(a, b)

    def test_same_dims_different_spacing_rejected(self):
        a = mask3d(grid(s=1.0), [])
        b = mask3d(grid(s=2.0), [])
        with pytest.raises(GeometryMismatch):
            obscured_mask(a, b)


class TestUnion2d:
    def test_or_and_label(self):
        a = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                   bits=np.array([[True, False]]), label="right")
        b = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                   bits=np.array([[False, True]]), label="left")
        u = union2d(a, b)
        assert u.bits.tolist() == [[True, True]]
        assert u.label == "both"
        assert union2d(a, a).label == "right"

    def test_plane_mismatch_rejected(self):
        a = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                   bits=np.zeros((1, 2), dtype=bool), label="right")
        b = Mask2D(nx=2, nz=1, sx=2.0, sz=1.0,
                   bits=np.zeros((1, 2), dtype=bool), label="right")
        with pytest.raises(GeometryMismatch):
            union2d(a, b)


class TestDiceJaccard:
    def test_hand_worked_values(self):
        g = grid(nx=8, ny=1, nz=1)
        a = mask3d(g, [(0, 0, i) for i in range(4)])          # |A| = 4
        b = mask3d(g, [(0, 0, i) for i in range(1, 7)])       # |B| = 6, overlap 3
        assert dice(a, b) == 2 * 3 / (4 + 6)
        assert jaccard(a, b) == 3 / 7

    def test_identical_masks_score_one(self):
        g = grid()
        a = mask3d(g, [(0, 0, 0), (1, 2, 3)])
        assert dice(a, a) == 1.0
        assert jaccard(a, a) == 1.0

    def test_disjoint_masks_score_zero(self):
        g = grid()
        a = mask3d(g, [(0, 0, 0)])
        b = mask3d(g, [(1, 1, 1)])
        assert dice(a, b) == 0.0
        assert jaccard(a, b) == 0.0

    def test_both_empty_raises(self):
        g = grid()
        with pytest.raises(BothEmpty):
            dice(mask3d(g, []), mask3d(g, []))
        with pytest.raises(BothEmpty):
            jaccard(mask3d(g, []), mask3d(g, []))

    def test_one_empty_is_zero(self):
        g = grid()
        assert dice(mask3d(g, []), mask3d(g, [(0, 0, 0)])) == 0.0

    def test_works_on_2d_masks(self):
        a = Mask2D(nx=4, nz=1, sx=1.0, sz=1.0,
                   bits=np.array([[True, True, False, False]]), label="right")
        b = Mask2D(nx=4, nz=1, sx=1.0, sz=1.0,
                   bits=np.array([[True, False, True, False]]), label="right")
        assert dice(a, b) == pytest.approx(0.5)
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_mixed_kinds_rejected(self):
        a = mask3d(grid(), [(0, 0, 0)])
        b = Mask2D(nx=4, nz=2, sx=1.0, sz=1.0,
                   bits=np.ones((2, 4), dtype=bool), label="right")
        with pytest.raises(GeometryMismatch):
            dice(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_jaccard_dice_identity(self, seed):
        a, b = random_pair(seed)
        if a.voxel_count + b.voxel_count == 0:
            return
        d = dice(a, b)
        assert abs(jaccard(a, b) - d / (2.0 - d)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    def test_dice_symmetric_and_bounded(self, seed):
        a, b = random_pair(seed)
        if a.voxel_count + b.voxel_count == 0:
            return
        d = dice(a, b)
        assert d == dice(b, a)
        assert 0.0 <= d <= 1.0
        # score 1 exactly when the masks are identical and nonempty
        assert (d == 1.0) == (a.voxel_count > 0 and np.array_equal(a.bits, b.bits))


class TestAgreement:
    def test_report_kinds(self):
        g = grid()
        a = mask3d(g, [(0, 0, 0)])
        rep = agreement(a, a)
        assert rep.mask_kind == "ct3d"
        assert rep.dsc == rep.ji == 1.0
        m = Mask2D(nx=2, nz=2, sx=1.0, sz=1.0,
                   bits=np.eye(2, dtype=bool), label="left")
        rep2 = agreement(m, m)
        assert rep2.mask_kind == "drr2d"
        assert rep2.label == "left"

    def test_combined_label(self):
        g = grid()
        rep = agreement(mask3d(g, [(0, 0, 0)], "right"),
                        mask3d(g, [(0, 0, 0)], "left"))
        assert rep.label == "both"

    @given(seed=st.integers(0, 2**32 - 1), planes=st.sampled_from([0, 1, 5, 1000]))
    def test_3d_counts_fold_over_chunks(self, seed, planes):
        """One pass over both masks' z-chunks (1 byte, 1, 5, all slices) gives the AND's counts."""
        a, b = random_pair(seed)
        inter = overlap_mask(a, b).voxel_count
        ca, cb = a.voxel_count, b.voxel_count
        with mock.patch.object(lungcover.grid, "_CHUNK_BYTES", max(1, planes * a.packed[0].nbytes)):
            if ca + cb == 0:
                with pytest.raises(BothEmpty, match="Dice"):
                    agreement(a, b)
                return
            rep = agreement(a, b)
        assert (rep.dsc, rep.ji) == (2.0 * inter / (ca + cb), inter / (ca + cb - inter))
        assert (rep.dsc, rep.ji) == (dice(a, b), jaccard(a, b))

    def test_3d_agreement_paints_no_truth_mask_whole(self):
        case = generate_phantom(default_spec())
        rep = agreement(case.truth_right, case.truth_left)
        assert_truth_is_unpainted(case)
        assert (rep.dsc, rep.ji) == (0.0, 0.0)  # the lungs never intersect
        rep = agreement(case.truth_left, case.truth_left)
        assert_truth_is_unpainted(case)
        assert (rep.dsc, rep.ji, rep.label) == (1.0, 1.0, "left")

    def test_3d_grids_must_match(self):
        a, b = mask3d(grid(), [(0, 0, 0)]), mask3d(grid(ny=4), [(0, 0, 0)])
        with pytest.raises(GeometryMismatch):
            agreement(a, b)


class TestObscuredFraction:
    def test_percent_scale(self):
        g = grid(nx=2, ny=2, nz=2)
        ct = mask3d(g, [(z, y, x) for z in range(2) for y in range(2)
                        for x in range(2)])  # all 8 voxels
        cover = Mask2D(nx=2, nz=2, sx=1.0, sz=1.0,
                       bits=np.array([[True, False], [True, True]]), label="right")
        # cover misses pixel (z=0, x=1): 2 of 8 voxels obscured
        assert obscured_fraction(ct, cover) == 100.0 * 2 / 8

    def test_full_cover_is_zero(self):
        g = grid(nx=2, ny=1, nz=1)
        ct = mask3d(g, [(0, 0, 0), (0, 0, 1)])
        cover = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                       bits=np.ones((1, 2), dtype=bool), label="right")
        assert obscured_fraction(ct, cover) == 0.0

    def test_no_cover_is_hundred(self):
        g = grid(nx=2, ny=1, nz=1)
        ct = mask3d(g, [(0, 0, 0)])
        cover = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                       bits=np.zeros((1, 2), dtype=bool), label="right")
        assert obscured_fraction(ct, cover) == 100.0

    def test_empty_reference_raises(self):
        g = grid(nx=2, ny=1, nz=1)
        cover = Mask2D(nx=2, nz=1, sx=1.0, sz=1.0,
                       bits=np.ones((1, 2), dtype=bool), label="right")
        with pytest.raises(EmptyReference):
            obscured_fraction(mask3d(g, []), cover)

    def test_plane_must_match_grid(self):
        g = grid(nx=2, ny=1, nz=1)
        ct = mask3d(g, [(0, 0, 0)])
        cover = Mask2D(nx=3, nz=1, sx=1.0, sz=1.0,
                       bits=np.ones((1, 3), dtype=bool), label="right")
        with pytest.raises(GeometryMismatch):
            obscured_fraction(ct, cover)


class TestAnalyzeCase:
    @staticmethod
    def _inputs():
        g = grid(nx=4, ny=2, nz=2, s=2.0)
        right = mask3d(g, [(0, 0, 0), (0, 1, 0), (1, 0, 1)], label="right")
        left = mask3d(g, [(0, 0, 3), (1, 1, 2)], label="left")
        m2_right = Mask2D(nx=4, nz=2, sx=2.0, sz=2.0, label="right",
                          bits=np.array([[True, False, False, False],
                                         [False, False, False, False]]))
        m2_left = Mask2D(nx=4, nz=2, sx=2.0, sz=2.0, label="left",
                         bits=np.array([[False, False, False, True],
                                        [False, False, True, True]]))
        return g, right, left, m2_right, m2_left

    def test_counts_and_fractions(self):
        g, right, left, m2_right, m2_left = self._inputs()
        rep = analyze_case(right, left, m2_right, m2_left, case_id="toy")
        assert rep.case_id == "toy"
        r = rep.labels["right"]
        # right: covers (z0,x0) only -> 2 of 3 voxels covered
        assert (r.total_voxels, r.covered_voxels, r.obscured_voxels) == (3, 2, 1)
        assert r.obscured_fraction_pct == pytest.approx(100.0 / 3.0)
        lft = rep.labels["left"]
        assert (lft.total_voxels, lft.covered_voxels, lft.obscured_voxels) == (2, 2, 0)
        both = rep.labels["both"]
        assert both.total_voxels == 5
        assert both.covered_voxels == 4

    def test_total_ml_is_sum_of_parts(self):
        _, right, left, m2_right, m2_left = self._inputs()
        rep = analyze_case(right, left, m2_right, m2_left)
        for measures in rep.labels.values():
            assert measures.total_ml == measures.covered_ml + measures.obscured_ml

    def test_both_combines_with_union_cover(self):
        g, right, left, m2_right, m2_left = self._inputs()
        rep = analyze_case(right, left, m2_right, m2_left)
        union3d = Mask3D(g, right.bits | left.bits, "both")
        cover = extrude_mask(union2d(m2_right, m2_left), ny=g.ny, sy=g.sy)
        expected_covered = int(np.count_nonzero(union3d.bits & cover.bits))
        assert rep.labels["both"].covered_voxels == expected_covered

    def test_swapped_sides_still_compute(self):
        _, right, left, m2_right, m2_left = self._inputs()
        rep = analyze_case(right, left, m2_left, m2_right)  # 2D masks swapped
        assert rep.labels["right"].obscured_fraction_pct == 100.0
        assert rep.labels["left"].obscured_fraction_pct == 100.0

    def test_label_order_in_report(self):
        _, right, left, m2_right, m2_left = self._inputs()
        rep = analyze_case(right, left, m2_right, m2_left)
        assert list(rep.labels) == ["right", "left", "both"]

    def test_lungs_overlapping_in_projection_paint_no_truth_mask_whole(self):
        """Lungs one behind the other share (z, x) columns: |R & L| is counted by chunk."""
        spec = replace(default_spec(),
                       lung_right=Ellipsoid((200.0, 110.0, 175.0), (55.0, 40.0, 105.0)),
                       lung_left=Ellipsoid((160.0, 200.0, 175.0), (55.0, 40.0, 105.0)))
        case = generate_phantom(spec)
        rep = analyze_case(case.truth_right, case.truth_left, case.sota2d_right, case.sota2d_left)
        assert_truth_is_unpainted(case)
        ref = generate_phantom(spec)
        right, left = ref.truth_right.bits, ref.truth_left.bits
        assert (right.any(axis=1) & left.any(axis=1)).any() and not (right & left).any()
        both = rep.labels["both"]
        union = Mask3D(spec.geometry, right | left, "both")
        assert (both.total_voxels, both.covered_voxels, both.obscured_voxels) == \
            extrude_counts(union, union2d(case.sota2d_right, case.sota2d_left))

    def test_peak_memory_below_one_mask(self):
        # a full-volume temporary (extrusion, union, AND) would exceed this
        case = generate_phantom(default_spec())
        args = (case.truth_right, case.truth_left, case.sota2d_right, case.sota2d_left)
        tracemalloc.start()
        try:
            analyze_case(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < case.truth_right.bits.nbytes


def extrude_counts(reference: Mask3D, mask2d: Mask2D) -> tuple[int, int, int]:
    """Brute-force (total, covered, obscured) from the 3D extrusion."""
    g = reference.geometry
    cover = extrude_mask(mask2d, g.ny, g.sy)
    return (reference.voxel_count, overlap_mask(reference, cover).voxel_count,
            obscured_mask(reference, cover).voxel_count)


def random_plane(rng, g: GridGeometry, kind: str, label: str) -> Mask2D:
    shape = (g.nz, g.nx)
    bits = {"empty": np.zeros(shape, dtype=bool),
            "full": np.ones(shape, dtype=bool),
            "random": rng.random(shape) < 0.5}[kind]
    return Mask2D(nx=g.nx, nz=g.nz, sx=g.sx, sz=g.sz, bits=bits, label=label)


class TestColumnCountsMatchExtrusion:
    """analyze_case counts columns; the extrusion is the reference."""

    @staticmethod
    def _assert_matches_reference(right, left, m2_right, m2_left):
        g = right.geometry
        rep = analyze_case(right, left, m2_right, m2_left)
        expected = {
            "right": extrude_counts(right, m2_right),
            "left": extrude_counts(left, m2_left),
            "both": extrude_counts(Mask3D(g, right.bits | left.bits, "both"),
                                   union2d(m2_right, m2_left)),
        }
        for label, (total, covered, obscured) in expected.items():
            m = rep.labels[label]
            assert (m.total_voxels, m.covered_voxels, m.obscured_voxels) == \
                (total, covered, obscured)
            assert m.obscured_fraction_pct == 100.0 * obscured / total
            assert m.total_ml == m.covered_ml + m.obscured_ml

    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.tuples(st.sampled_from(["random", "empty", "full"]),
                           st.sampled_from(["random", "empty", "full"])),
           loaded=st.booleans(), planes=st.sampled_from([0, 1, 5, 1000]))
    def test_random_overlapping_masks(self, tmp_path_factory, seed, kinds, loaded, planes):
        """In-memory or saved-and-loaded masks, in chunks of 1 byte, 1, 5 and all slices."""
        rng = np.random.default_rng(seed)
        g = grid(nx=int(rng.integers(1, 7)), ny=int(rng.integers(1, 7)),
                 nz=int(rng.integers(1, 7)), s=float(rng.choice([0.5, 1.0, 2.5])))
        sides = []
        for _ in range(2):  # independent densities: disjoint to heavily overlapping
            bits = rng.random(g.shape_zyx) < rng.random()
            bits[tuple(int(rng.integers(n)) for n in g.shape_zyx)] = True  # nonempty
            sides.append(bits)
        right, left = Mask3D(g, sides[0], "right"), Mask3D(g, sides[1], "left")
        if loaded:
            where = tmp_path_factory.mktemp("masks")
            for mask in (right, left):
                save_mask3d(mask, where / f"{mask.label}.json")
            right, left = load_mask3d(where / "right.json"), load_mask3d(where / "left.json")
        with mock.patch.object(lungcover.grid, "_CHUNK_BYTES",
                               max(1, planes * math.prod(g.packed_zyx[1:]))):
            self._assert_matches_reference(right, left,
                                           random_plane(rng, g, kinds[0], "right"),
                                           random_plane(rng, g, kinds[1], "left"))

    @pytest.mark.parametrize("ny", [255, 256])
    def test_full_overlapping_columns(self, ny):
        # 255 is the largest column count a uint8 holds; 256 needs uint16
        g = grid(nx=3, ny=ny, nz=2)
        full = np.ones(g.shape_zyx, dtype=bool)
        rng = np.random.default_rng(ny)
        self._assert_matches_reference(Mask3D(g, full, "right"), Mask3D(g, full, "left"),
                                       random_plane(rng, g, "random", "right"),
                                       random_plane(rng, g, "full", "left"))


class TestPackedCountsMatchBoolReference:
    """Every 3D count and mask operation works on the packed bits (one bit per voxel).

    Plain numpy on the bool arrays is the reference; ny runs over both sides
    of the byte boundaries, where a partial last byte row holds padding bits.
    """

    @given(ny=st.sampled_from([1, 5, 7, 8, 9, 13, 244]), seed=st.integers(0, 2**32 - 1))
    def test_counts_and_masks(self, ny, seed):
        rng = np.random.default_rng(seed)
        g = grid(nx=int(rng.integers(1, 6)), ny=ny, nz=int(rng.integers(1, 6)))
        a = rng.random(g.shape_zyx) < rng.random()
        b = rng.random(g.shape_zyx) < rng.random()
        a.flat[0] = True  # Dice and Jaccard need a nonempty mask
        right, left = Mask3D(g, a, "right"), Mask3D(g, b, "left")
        np.testing.assert_array_equal(_union_column_counts(right, left), (a | b).sum(axis=1))
        inter, total = np.count_nonzero(a & b), np.count_nonzero(a) + np.count_nonzero(b)
        assert dice(right, left) == 2.0 * inter / total
        assert jaccard(right, left) == inter / (total - inter)
        np.testing.assert_array_equal(overlap_mask(right, left).bits, a & b)
        np.testing.assert_array_equal(obscured_mask(right, left).bits, a & ~b)
        np.testing.assert_array_equal(project_mask(left).bits, b.any(axis=1))
        plane = Mask2D(g.nx, g.nz, g.sx, g.sz, b.any(axis=1), "left")
        np.testing.assert_array_equal(extrude_mask(plane, ny, g.sy).bits,
                                      np.broadcast_to(plane.bits[:, None, :], g.shape_zyx))
