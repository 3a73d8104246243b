"""End-to-end command line tests: every subcommand, exit codes, determinism."""

import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lungcover
from lungcover.cli import main
from lungcover.concordance import obscured_fraction
from lungcover.errors import SpecViolation
from lungcover.grid import LABELS, Mask2D
from lungcover.io import fmt, load_mask2d, load_mask3d, save_mask2d
from lungcover.phantom import (analytic_obscured_fraction, default_spec, spec_from_dict,
                               spec_to_dict)
from lungcover.stats import describe, describe_quartiles

from strategies import JSON_VALUES, mutated

# Small slab phantom: the analytic fractions are ~5.5% (right) and
# exactly 15.625% (left) before per-case size perturbation.
SMALL_SPEC = {
    "geometry": {"dims": [48, 48, 48], "spacing_mm": [5.0, 5.0, 5.0]},
    "lung_right": {"center_mm": [160.0, 120.0, 120.0], "semi_axes_mm": [35.0, 35.0, 35.0]},
    "lung_left": {"center_mm": [60.0, 120.0, 120.0], "semi_axes_mm": [30.0, 30.0, 30.0]},
    "heart": {"center_mm": [105.0, 120.0, 120.0], "semi_axes_mm": [30.0, 40.0, 1.0e6]},
}

# Deeper than any JSON reader can parse.
NESTED = "[" * 100_000 + "]" * 100_000

CASE_FILES = ("volume.json", "truth_right.json", "truth_left.json",
              "sota2d_right.json", "sota2d_left.json",
              "annot2_right.json", "annot2_left.json")
RAW_FILES = tuple(name.replace(".json", ".raw") for name in CASE_FILES)

# The name of a temp file beside its target (io._create_temp): <name>.<12 hex digits>.
TEMP_NAME = re.compile(r"\.[0-9a-f]{12}$")


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("spec") / "small_spec.json"
    path.write_text(json.dumps(SMALL_SPEC), encoding="utf-8")
    return path


@pytest.fixture
def paired(monkeypatch) -> None:
    """Pair phantom's cases on any grid, as a case of grid._SPLIT_BYTES or more (a CT case)."""
    from lungcover import grid
    monkeypatch.setattr(grid, "_SPLIT_BYTES", 0)


def make_cohort(out: Path, spec_file: Path, n: int = 3) -> None:
    rc = main(["phantom", "--out", str(out), "--spec", str(spec_file),
               "--n", str(n), "--seed", "7", "--quiet"])
    assert rc == 0


@pytest.fixture(scope="module")
def cohort(tmp_path_factory, spec_file) -> Path:
    out = tmp_path_factory.mktemp("work") / "cohort"
    make_cohort(out, spec_file)
    return out


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _case_files(out: Path) -> dict[str, list[str]]:
    """Each directory under out -> the names of its files; no temp file may be left anywhere."""
    if not out.exists():
        return {}
    assert [p for p in out.rglob("*") if TEMP_NAME.search(p.name)] == []
    return {d.name: sorted(p.name for p in d.iterdir()) for d in out.iterdir() if d.is_dir()}


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# --- parser basics ---------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["phantom", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_phantom_help_names_every_named_spec(capsys):
    from lungcover.phantom import NAMED_SPECS
    assert main(["phantom", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "named spec (%s)" % ", ".join(sorted(NAMED_SPECS)) in text


# The public names of the package, as they were when each was imported eagerly.
PUBLIC_NAMES = (
    'AgreementReport', 'AllZeroDifferences', 'BothEmpty', 'ConcordanceReport',
    'DEFAULT_WINDOW', 'DegenerateVariance', 'DescriptiveSummary', 'DrrImage', 'Ellipsoid',
    'EmptyInput', 'EmptyReference', 'GeometryMismatch', 'GridGeometry', 'HU_MAX', 'HU_MIN',
    'IoFailure', 'LABELS', 'LabelMeasures', 'LengthMismatch', 'LungCoverError',
    'MalformedHeader', 'MalformedMask', 'Mask2D', 'Mask3D', 'PairedComparison', 'PhantomCase',
    'PhantomSpec', 'QuartileSummary', 'SizeMismatch', 'SpecViolation', 'SphereCap',
    'TestResult', 'TissueHu', 'TooFewSamples', 'TooManySamples', 'ValidationError',
    'VoxelVolume', 'WindowSpec', 'agreement', 'analytic_obscured_fraction', 'analyze_case',
    'anatomical_spec', 'cohort_case', 'default_spec', 'describe', 'describe_quartiles', 'dice',
    'extrude_mask', 'generate_cohort', 'generate_phantom', 'jaccard', 'load_mask',
    'load_mask2d', 'load_mask3d', 'load_volume', 'mask_volume_ml', 'obscured_fraction',
    'obscured_mask', 'oracle_tolerance_pct', 'overlap_mask', 'paired_compare', 'paired_t_test',
    'pgm_bytes', 'project_mask', 'render_drr', 'save_mask2d', 'save_mask3d', 'save_pgm',
    'save_volume', 'shapiro_wilk', 'spec_from_dict', 'spec_to_dict', 'union2d',
    'voxel_volume_ml', 'wilcoxon_signed_rank')
SUBMODULES = ("cli", "concordance", "errors", "grid", "io", "phantom", "projection",
              "reporting", "stats")


def test_package_names_are_pinned():
    assert lungcover.__all__ == list(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(lungcover))


def test_every_package_name_is_its_module_attribute():
    import importlib
    for module in SUBMODULES:
        assert getattr(lungcover, module) is importlib.import_module(f"lungcover.{module}")
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"lungcover.{lungcover._MODULE_OF[name]}")
        assert getattr(lungcover, name) is getattr(module, name), name
    namespace = {}
    exec("from lungcover import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lungcover.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from lungcover import no_such_name", {})


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert one_error_line(capsys).startswith("error: UsageError:")


def test_unknown_command_rejected(capsys):
    assert main(["frobnicate"]) == 1
    one_error_line(capsys)


def test_main_reuses_one_parser_and_looks_up_the_command_per_call(cohort, tmp_path,
                                                                  monkeypatch):
    import lungcover.cli as cli
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    vol = str(cohort / "case_000" / "volume.json")
    first, second = tmp_path / "first.pgm", tmp_path / "second.pgm"
    assert main(["drr", vol, "--out", str(first), "--quiet"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_drr", lambda args: seen.append(args.out) or 0)
    assert main(["drr", vol, "--out", str(second), "--quiet"]) == 0
    assert seen == [str(second)] and first.exists() and not second.exists()
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def _jitter_px(result) -> int:
    return json.loads(result["files"]["manifest.json"])["base_spec"]["annotator_jitter_px"]


# name: (perturbing call, clean call, check(perturbed, clean)); "{out}" is each
# call's own output directory
_STATELESS_CASES = {
    "usage_error": (
        ["drr", "{vol}", "--out", "{out}/chest.pgm", "--window-lo", "dark"],
        ["drr", "{vol}", "--out", "{out}/chest.pgm"],
        lambda a, b: (a["rc"], b["rc"]) == (1, 0) and a["err"].count("\n") == 1
        and a["err"].startswith("error: UsageError:") and b["files"]),
    "help": (
        ["drr", "--help"],
        ["drr", "--help"],
        lambda a, b: (a["rc"], b["rc"]) == (0, 0) and "usage" in a["out"] and a == b),
    "jitter": (
        ["phantom", "--out", "{out}", "--spec", "{spec}", "--n", "1", "--jitter-px", "3"],
        ["phantom", "--out", "{out}", "--spec", "{spec}", "--n", "1"],
        lambda a, b: (_jitter_px(a), _jitter_px(b)) == (3, 1)),
    "window": (
        ["drr", "{vol}", "--out", "{out}/chest.pgm", "--window-lo", "-500"],
        ["drr", "{vol}", "--out", "{out}/chest.pgm"],
        lambda a, b: a["files"]["chest.pgm"] != b["files"]["chest.pgm"]),
    "quiet": (
        ["phantom", "--out", "{out}", "--spec", "{spec}", "--n", "1", "--quiet"],
        ["phantom", "--out", "{out}", "--spec", "{spec}", "--n", "1"],
        lambda a, b: "wrote" not in a["out"] and "wrote" in b["out"]),
}


@pytest.mark.parametrize("name", list(_STATELESS_CASES))
def test_reused_parser_carries_nothing_between_calls(cohort, spec_file, tmp_path, capsys,
                                                     name):
    """The clean call gives the same result before and after the perturbing one."""
    perturbing, clean, check = _STATELESS_CASES[name]

    def run(argv, out):
        out.mkdir(exist_ok=True)
        values = {"vol": cohort / "case_000" / "volume.json", "spec": spec_file, "out": out}
        rc = main([arg.format(**values) for arg in argv])
        captured = capsys.readouterr()
        return {"rc": rc, "out": captured.out, "err": captured.err, "files": tree_bytes(out)}

    before = run(clean, tmp_path / "clean")
    perturbed = run(perturbing, tmp_path / "perturbed")
    after = run(clean, tmp_path / "clean")
    assert after == before
    assert check(perturbed, after)


# --- phantom -----------------------------------------------------------------------

def test_phantom_layout(cohort):
    manifest = json.loads((cohort / "manifest.json").read_text())
    assert manifest["kind"] == "lungcover-cohort"
    assert manifest["n_cases"] == 3 and manifest["cohort_seed"] == 7
    assert len(manifest["cases"]) == 3
    for entry in manifest["cases"]:
        case_dir = cohort / entry["dir"]
        for name in CASE_FILES:
            header = case_dir / name
            assert header.exists()
            payload = json.loads(header.read_text())["data"]
            assert (case_dir / payload).exists()


def test_phantom_manifest_oracles_match_specs(cohort):
    manifest = json.loads((cohort / "manifest.json").read_text())
    for entry in manifest["cases"]:
        spec = spec_from_dict(entry["spec"])
        for side in ("right", "left", "both"):
            frac = analytic_obscured_fraction(spec, side)
            stored = entry["oracle_obscured_pct"][side]
            assert math.isclose(stored, 100.0 * frac, rel_tol=1e-12)
            assert entry["oracle_tolerance_pct"][side] > 0.0


def test_phantom_rerun_is_byte_identical(tmp_path, spec_file, cohort):
    again = tmp_path / "again"
    make_cohort(again, spec_file)
    assert tree_bytes(again) == tree_bytes(cohort)


# The default spec on a JSON grid that is anisotropic, clips the torso in z
# and has ny % 8 != 0, so the last packed truth byte of a column is padded.
PINNED_GRID = {"dims": [80, 60, 100], "spacing_mm": [4.0, 5.4, 3.2]}


@pytest.mark.parametrize("run", ["default", "anatomical", "grid"])
def test_phantom_bytes_are_pinned(run, tmp_path, monkeypatch):
    """SHA-256 of every file phantom writes, recorded in tests/phantom_sha256.json.

    manifest.json is left out: its oracle floats go through LAPACK
    (np.roots), so their last bits may vary by platform. A refactor keeps
    every digest: a change that moves one voxel, one jitter flip or one
    header byte fails here, and one that changes the output on purpose
    records the new digests and says why. Each run is made twice: with the
    size floor at 0, the cases in pairs, and at its real value, one at a time.
    """
    from lungcover import grid
    if run in ("default", "anatomical"):  # anatomical paints both domes (SphereCap)
        argv = ["--spec", run, "--n", "3", "--seed", "0"]
    else:
        doc = spec_to_dict(default_spec())
        doc["geometry"] = PINNED_GRID
        (tmp_path / "grid.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--spec", str(tmp_path / "grid.json"), "--n", "2"]
    want = json.loads((Path(__file__).parent / "phantom_sha256.json").read_text())[run]
    for floor in (0, grid._SPLIT_BYTES):
        out = tmp_path / f"{run}-{floor}"
        with monkeypatch.context() as m:
            m.setattr(grid, "_SPLIT_BYTES", floor)
            assert main(["phantom", "--out", str(out), *argv, "--quiet"]) == 0
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in tree_bytes(out).items() if name != "manifest.json"}
        assert got == want, floor


def test_phantom_zero_jitter_copies_first_annotator(tmp_path, spec_file):
    out = tmp_path / "nojitter"
    rc = main(["phantom", "--out", str(out), "--spec", str(spec_file),
               "--n", "1", "--jitter-px", "0", "--quiet"])
    assert rc == 0
    case = out / "case_000"
    sota = json.loads((case / "sota2d_right.json").read_text())
    annot = json.loads((case / "annot2_right.json").read_text())
    assert (case / annot["data"]).read_bytes() == (case / sota["data"]).read_bytes()


def test_phantom_quiet_prints_only_manifest_path(tmp_path, spec_file, capsys):
    out = tmp_path / "quiet"
    rc = main(["phantom", "--out", str(out), "--spec", str(spec_file),
               "--n", "1", "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == f"{out / 'manifest.json'}\n"


def test_phantom_bad_arguments(tmp_path, capsys):
    assert main(["phantom", "--out", str(tmp_path / "x"), "--n", "0"]) == 1
    assert one_error_line(capsys).startswith("error: UsageError:")
    assert main(["phantom", "--out", str(tmp_path / "x"),
                 "--spec", str(tmp_path / "missing.json")]) == 2
    one_error_line(capsys)


def test_phantom_invalid_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("[1, 2, 3]", NESTED):
        bad.write_text(text, encoding="utf-8")
        assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(bad)]) == 1
        assert one_error_line(capsys).startswith("error: SpecViolation:")


def test_phantom_spec_with_unindexable_grid_rejected(tmp_path, capsys):
    spec = tmp_path / "huge_dims.json"
    spec.write_text(json.dumps(dict(SMALL_SPEC, geometry={"dims": [10**400, 48, 48],
                                                          "spacing_mm": [5.0, 5.0, 5.0]})))
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec), "--n", "1"]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


def test_phantom_deeply_nested_dims_is_one_short_line(tmp_path):
    # a fresh interpreter's json parses a list nested 980 deep; the message
    # shows it abridged, not as ~2 KB of brackets
    dims = "[" * 980 + "1" + "]" * 980
    spec = tmp_path / "nested_dims.json"
    spec.write_text(json.dumps(SMALL_SPEC).replace('"dims": [48,', f'"dims": [{dims},'))
    src = str(Path(lungcover.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "lungcover.cli", "phantom", "--out",
                           str(tmp_path / "x"), "--spec", str(spec), "--n", "1"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1 and done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: SpecViolation: geometry: nx must be a positive integer")
    assert len(done.stderr) < 300, len(done.stderr)


def test_phantom_out_of_memory_is_one_line(tmp_path, spec_file, capsys, monkeypatch):
    # a grid numpy can index but the machine cannot hold: no real allocation is tried.
    # The painter's first np.zeros is a lung's (nz, nx) silhouette.
    def zeros(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB for an array")
    monkeypatch.setattr(np, "zeros", zeros)
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec_file),
                 "--n", "1", "--quiet"]) == 2
    assert one_error_line(capsys).startswith("error: MemoryError:")


def _paint_fails_on_second_chunk(monkeypatch, module, name: str, size: str) -> None:
    """module.name makes fill(out, z0) painters that run out of memory on the second chunk."""
    real = getattr(module, name)

    def painter(*args):
        fill = real(*args)

        def failing(out, z0):
            if z0:  # the first slice of the second chunk
                raise MemoryError(f"Unable to allocate {size} for an array")
            return fill(out, z0)
        return failing
    monkeypatch.setattr(module, name, painter)


def test_phantom_failing_to_paint_a_truth_mask_is_one_line(tmp_path, spec_file, capsys,
                                                           monkeypatch):
    """A truth mask is painted as it is written: a failure mid-mask is exit 2 and leaves no payload."""
    from lungcover import grid, phantom
    monkeypatch.setattr(grid, "_CHUNK_BYTES", 5 * 288)  # 5 packed slices of the 48^3 grid
    _paint_fails_on_second_chunk(monkeypatch, phantom, "_truth_painter", "32. KiB")
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec_file),
                 "--n", "1", "--quiet"]) == 2
    assert one_error_line(capsys).startswith("error: MemoryError:")
    assert sorted(p.name for p in (tmp_path / "x" / "case_000").iterdir()) == [
        "volume.json", "volume.raw"]


def test_phantom_with_intersecting_lungs_is_one_line(tmp_path, capsys):
    """Lungs that share voxels in every perturbation: one SpecViolation line, no case file."""
    spec = tmp_path / "overlap.json"
    lung = {"center_mm": [110.0, 120.0, 120.0], "semi_axes_mm": [35.0, 35.0, 35.0]}
    spec.write_text(json.dumps(dict(SMALL_SPEC, lung_right=lung, lung_left=lung)))
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec), "--n", "1"]) == 1
    assert one_error_line(capsys).startswith(
        "error: SpecViolation: case 0: no valid perturbation in 8 attempts: lungs intersect")
    assert not (tmp_path / "x").exists()


def _fail_on_second_chunk_write(monkeypatch):
    """The disk fills up on the second write of the first file written (volume.raw's chunk 2)."""
    real, writes = os.fdopen, []

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(data)

    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: Full(real(*args, **kwargs)))


def _fail_painting_the_second_chunk(monkeypatch):
    """The volume painter runs out of memory on the first slice of the second chunk."""
    from lungcover import phantom
    _paint_fails_on_second_chunk(monkeypatch, phantom, "_volume_painter", "512. KiB")


@pytest.mark.parametrize("fail, kind", [(_fail_on_second_chunk_write, "IoFailure"),
                                        (_fail_painting_the_second_chunk, "MemoryError")],
                         ids=["disk_full", "out_of_memory"])
def test_phantom_failing_mid_stream_leaves_no_volume(tmp_path, capsys, monkeypatch, fail, kind):
    """A volume that fails after its first chunk is written leaves neither payload nor temp file."""
    fail(monkeypatch)
    # the default 128^3 grid streams its volume in 8 chunks of 16 slices
    assert main(["phantom", "--out", str(tmp_path / "x"), "--n", "1", "--quiet"]) == 2
    assert one_error_line(capsys).startswith(f"error: {kind}:")
    assert list((tmp_path / "x" / "case_000").iterdir()) == []


def test_phantom_peak_memory_is_below_one_volume(tmp_path):
    """phantom never holds a case's volume: it paints and writes it a z-chunk at a time."""
    argv = ["phantom", "--n", "1", "--quiet", "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == 0  # first-call allocations are not phantom's
    tracemalloc.start()
    try:
        assert main(argv + [str(tmp_path / "x")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 ** 3 * 2, peak  # one int16 volume of the default 128^3 spec is 4 MB


def test_drr_peak_memory_is_below_one_volume(tmp_path, capsys):
    """drr never holds the volume: it reads and sums it a z-chunk at a time."""
    assert main(["phantom", "--n", "1", "--quiet", "--out", str(tmp_path)]) == 0
    argv = ["drr", str(tmp_path / "case_000" / "volume.json"), "--quiet", "--out"]
    assert main(argv + [str(tmp_path / "warm.pgm")]) == 0  # first-call allocations are not drr's
    tracemalloc.start()
    try:
        assert main(argv + [str(tmp_path / "x.pgm")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 ** 3 * 2, peak  # one int16 volume of the default 128^3 spec is 4 MB


def test_phantom_spec_with_bool_dims_rejected(tmp_path, capsys):
    spec = tmp_path / "bool_dims.json"
    # 300 mm across one voxel: the lungs fit, so only the bool can fail
    spec.write_text(json.dumps(dict(SMALL_SPEC, geometry={"dims": [True, 48, 48],
                                                          "spacing_mm": [300.0, 5.0, 5.0]})))
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec), "--n", "1"]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


def test_phantom_spec_with_nan_center_rejected(tmp_path, capsys):
    spec = tmp_path / "nan_heart.json"
    heart = dict(SMALL_SPEC["heart"], center_mm=[float("nan"), 120.0, 120.0])
    spec.write_text(json.dumps(dict(SMALL_SPEC, heart=heart)))
    assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec), "--n", "1"]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_phantom_huge_jitter_radius_runs(tmp_path, where):
    # the radius is clamped to the mask: no allocation grows with it
    doc = dict(SMALL_SPEC, geometry={"dims": [16, 16, 16], "spacing_mm": [15.0, 15.0, 15.0]})
    argv = ["phantom", "--out", str(tmp_path / "x"), "--n", "1", "--quiet"]
    if where == "flag":
        argv += ["--jitter-px", "1000000"]
    else:
        doc["annotator_jitter_px"] = 1000000
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(argv + ["--spec", str(tmp_path / "spec.json")]) == 0


def test_phantom_integrates_each_lung_once(tmp_path, spec_file):
    from lungcover.phantom import _lung_fraction
    _lung_fraction.cache_clear()
    assert main(["phantom", "--out", str(tmp_path / "c"), "--spec", str(spec_file),
                 "--n", "3", "--quiet"]) == 0
    info = _lung_fraction.cache_info()
    # right, left, then "both" from the two cached sides, per case
    assert (info.misses, info.hits) == (2 * 3, 2 * 3)


def test_phantom_sorts_each_shared_solid_once(tmp_path, monkeypatch, paired):
    """Both cases of a pair need the torso's and domes' sorts: one thread sorts each, and
    the other waits for it rather than sorting it again."""
    from dataclasses import replace

    from lungcover import phantom
    from lungcover.grid import GridGeometry
    spec = replace(phantom.anatomical_spec(), geometry=GridGeometry(32, 32, 32, 10.0, 10.0, 10.0))
    (tmp_path / "spec.json").write_text(json.dumps(phantom.spec_to_dict(spec)), encoding="utf-8")
    real = phantom._sort

    def slow(*args):  # a wide window in which both threads of a pair ask for one sort
        time.sleep(0.02)
        return real(*args)

    monkeypatch.setattr(phantom, "_sort", slow)
    phantom._sort_solid.cache_clear()
    make_cohort(tmp_path / "c", tmp_path / "spec.json", n=4)
    info = phantom._sort_solid.cache_info()
    assert info.misses == info.currsize == 3, info


def _alive_when_requested(out, spec_file, monkeypatch, worker_first=False) -> dict:
    """Case index -> the indices of the cases still alive when case index is requested.

    With worker_first, the main thread asks for case 2k only once the worker has made
    case 2k + 1, the order in which the worker runs ahead of the main thread."""
    import threading
    import weakref

    from lungcover import cli
    real, cases, alive = cli.cohort_case, {}, {}
    made = {i: threading.Event() for i in range(5)}

    def tracked(base, index, *args, **kwargs):
        if worker_first and index % 2 == 0 and index + 1 < 5:
            assert made[index + 1].wait(10)
        alive[index] = sorted(i for i, ref in list(cases.items()) if ref() is not None)
        case = real(base, index, *args, **kwargs)
        cases[index] = weakref.ref(case)
        made[index].set()
        return case

    monkeypatch.setattr(cli, "cohort_case", tracked)
    gc.disable()  # freed by reference counting, not by a collection that may come later
    try:
        make_cohort(out, spec_file, n=5)
    finally:
        gc.enable()
    assert sorted(alive) == list(range(5))
    return alive


def test_phantom_frees_each_case_before_the_next(tmp_path, spec_file, monkeypatch, paired):
    """A CT case holds 2 x 8 MB of truth masks (and 128 MB more once its volume is read).
    Cases are made in pairs (2k, 2k + 1), so when case i is requested only case i ^ 1,
    its pair's other case, may be alive: every case of an earlier pair must be gone."""
    for index, seen in _alive_when_requested(tmp_path / "c", spec_file, monkeypatch).items():
        assert set(seen) <= {index ^ 1}, (index, seen)


def test_phantom_frees_each_case_while_the_worker_runs_ahead(tmp_path, spec_file,
                                                            monkeypatch, paired):
    """The worker may make case 2k + 1 before the main thread asks for case 2k; then
    case 2k + 1 may be alive, and still no case of an earlier pair."""
    alive = _alive_when_requested(tmp_path / "c", spec_file, monkeypatch, worker_first=True)
    for index, seen in alive.items():
        assert set(seen) <= {index ^ 1}, (index, seen)


@pytest.mark.parametrize("fail_at, error_of", [({2}, 2), ({3}, 3), ({2, 3}, 2)])
def test_phantom_failing_pair_raises_its_lowest_error_and_starts_no_later_case(
        tmp_path, spec_file, capsys, monkeypatch, paired, fail_at, error_of):
    """A pair in which a case fails waits for its other case, then raises the error of
    its lower failing index: no later case starts, and no manifest is written."""
    from lungcover import cli
    real, asked = cli.cohort_case, []

    def cohort_case(base, index, *args, **kwargs):
        asked.append(index)
        if index in fail_at:
            raise SpecViolation(f"case {index}: made to fail")
        return real(base, index, *args, **kwargs)

    monkeypatch.setattr(cli, "cohort_case", cohort_case)
    out = tmp_path / "c"
    assert main(["phantom", "--out", str(out), "--spec", str(spec_file), "--n", "5"]) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: SpecViolation: case {error_of}: made to fail\n"
    # every case below the lower failing index printed its line before the error
    assert printed.out.splitlines() == [f"wrote {out / f'case_{i:03d}'}" for i in range(error_of)]
    assert sorted(asked) == [0, 1, 2, 3]
    assert not (out / "manifest.json").exists()
    written = sorted(p.name for p in out.iterdir())
    assert written == [f"case_{i:03d}" for i in range(4) if i not in fail_at]
    for name in written:
        assert sorted(p.name for p in (out / name).glob("*.json")) == sorted(CASE_FILES)


def test_phantom_below_the_floor_frees_each_case_before_the_next(tmp_path, spec_file,
                                                                 monkeypatch):
    """One case at a time: when case i is requested, no earlier case is alive."""
    for index, seen in _alive_when_requested(tmp_path / "c", spec_file, monkeypatch).items():
        assert seen == [], (index, seen)


def _await_the_next_case(out: Path, index: int) -> None:
    """Wait until the worker has begun the next case's temp files, as it does while case
    index runs; the case then fails with them made."""
    deadline = time.monotonic() + 10
    while not (out / f"case_{index + 1:03d}").exists():
        assert time.monotonic() < deadline, f"case {index + 1} was not begun ahead"
        time.sleep(0.001)


@pytest.mark.parametrize("fail_at", [0, 2, 3])
def test_phantom_failing_case_below_the_floor_stops_at_it(tmp_path, spec_file, capsys,
                                                          monkeypatch, fail_at):
    """Cases below the size floor run one at a time: a failure at case i asks for cases
    0..i only, raises that case's error, and writes no manifest. The temp files made
    ahead for cases i and i + 1 are removed, with their directories."""
    from lungcover import cli
    real, asked, out = cli.cohort_case, [], tmp_path / "c"

    def cohort_case(base, index, *args, **kwargs):
        asked.append(index)
        if index == fail_at:
            _await_the_next_case(out, index)
            raise SpecViolation(f"case {index}: made to fail")
        return real(base, index, *args, **kwargs)

    monkeypatch.setattr(cli, "cohort_case", cohort_case)
    assert main(["phantom", "--out", str(out), "--spec", str(spec_file), "--n", "5"]) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: SpecViolation: case {fail_at}: made to fail\n"
    assert printed.out.splitlines() == [f"wrote {out / f'case_{i:03d}'}" for i in range(fail_at)]
    assert asked == list(range(fail_at + 1))
    assert not (out / "manifest.json").exists()
    # the temp files made ahead for cases fail_at and fail_at + 1 are gone, with their
    # directories, and --out too if no case was written
    assert out.exists() == bool(fail_at)
    assert _case_files(out) == {f"case_{i:03d}": sorted(CASE_FILES + RAW_FILES)
                                for i in range(fail_at)}


@pytest.mark.parametrize("fail_at", [0, 2, 3])
def test_phantom_failing_write_below_the_floor_stops_at_it(tmp_path, spec_file, capsys,
                                                           monkeypatch, fail_at):
    """The disk fills up while case i writes its left truth mask: the error is one IoFailure
    line, case i keeps the files it renamed before the failure, as a case that makes its
    own temp files would, and no temp file or later case's directory is left."""
    from lungcover import io as lc_io
    out, real = tmp_path / "c", lc_io._atomic_write_bytes
    failing = out / f"case_{fail_at:03d}" / "truth_left.raw"

    def first_chunk_then_full(chunks):
        yield next(iter(chunks))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def atomic_write_bytes(path, chunks, temps=None):
        if path == failing:
            _await_the_next_case(out, fail_at)
            chunks = first_chunk_then_full(chunks)
        return real(path, chunks, temps)

    monkeypatch.setattr(lc_io, "_atomic_write_bytes", atomic_write_bytes)
    assert main(["phantom", "--out", str(out), "--spec", str(spec_file), "--n", "5"]) == 2
    printed = capsys.readouterr()
    assert printed.err == (f"error: IoFailure: cannot write {failing}: [Errno {errno.ENOSPC}] "
                           f"{os.strerror(errno.ENOSPC)}\n")
    assert printed.out.splitlines() == [f"wrote {out / f'case_{i:03d}'}" for i in range(fail_at)]
    assert not (out / "manifest.json").exists()
    files = {f"case_{i:03d}": sorted(CASE_FILES + RAW_FILES) for i in range(fail_at)}
    files[f"case_{fail_at:03d}"] = ["truth_right.json", "truth_right.raw",
                                    "volume.json", "volume.raw"]
    assert _case_files(out) == files


@pytest.mark.parametrize("nz, pair_threads", [(191, 0), (192, 1)])
def test_phantom_pairs_cases_only_from_the_size_floor(tmp_path, monkeypatch, nz, pair_threads):
    """A 128 x 128 x 192 int16 volume is 6 MiB, grid._SPLIT_BYTES: two such cases make one
    pair, with one lungcover-pair thread and no other. One slice fewer, they run one at a
    time, and one lungcover-ahead thread makes each case's temp files."""
    import threading

    from lungcover import grid
    assert 2 * 128 * 128 * 192 == grid._SPLIT_BYTES
    doc = spec_to_dict(default_spec())
    doc["geometry"] = {"dims": [128, 128, nz], "spacing_mm": [2.5, 2.5, 2.5]}
    (tmp_path / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
    names, real = [], threading.Thread.start

    def start(thread):
        names.append(thread.name)
        return real(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    assert main(["phantom", "--out", str(tmp_path / "c"), "--spec", str(tmp_path / "spec.json"),
                 "--n", "2", "--quiet"]) == 0
    assert names == (["lungcover-pair"] if pair_threads else ["lungcover-ahead"])


def test_phantom_progress_lines_come_in_index_order(tmp_path, spec_file, capsys):
    out = tmp_path / "c"
    assert main(["phantom", "--out", str(out), "--spec", str(spec_file), "--n", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        [f"wrote {out / f'case_{i:03d}'}" for i in range(5)] + [str(out / "manifest.json")])
    cases = json.loads((out / "manifest.json").read_text())["cases"]
    assert [entry["case_id"] for entry in cases] == [f"case_{i:03d}" for i in range(5)]


def test_anatomical_cohort_matches_its_oracles(tmp_path):
    cohort = tmp_path / "anatomical"
    assert main(["phantom", "--out", str(cohort), "--spec", "anatomical", "--n", "5",
                 "--quiet"]) == 0
    assert main(["cohort", str(cohort), "--quiet"]) == 0
    with open(cohort / "report" / "cases_annotator1.csv", newline="") as fh:
        measured = {(r["case_id"], r["label"]): float(r["obscured_fraction_pct"])
                    for r in csv.DictReader(fh)}
    for entry in json.loads((cohort / "manifest.json").read_text())["cases"]:
        for side in ("right", "left", "both"):
            oracle = entry["oracle_obscured_pct"][side]
            assert oracle is not None
            gap = abs(measured[(entry["case_id"], side)] - oracle)
            assert gap <= entry["oracle_tolerance_pct"][side], (entry["case_id"], side, gap)


# --- drr -----------------------------------------------------------------------------

def test_drr_writes_pgm(cohort, tmp_path, capsys):
    out = tmp_path / "chest.pgm"
    rc = main(["drr", str(cohort / "case_000" / "volume.json"), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"{out}\n"
    assert out.read_bytes().startswith(b"P5\n48 48\n255\n")


def test_drr_custom_window_changes_image(cohort, tmp_path):
    vol = str(cohort / "case_000" / "volume.json")
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["drr", vol, "--out", str(a)]) == 0
    assert main(["drr", vol, "--out", str(b),
                 "--window-lo", "-1000", "--window-hi", "-500"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_drr_inverted_window_rejected(cohort, tmp_path, capsys):
    rc = main(["drr", str(cohort / "case_000" / "volume.json"),
               "--out", str(tmp_path / "x.pgm"),
               "--window-lo", "200", "--window-hi", "-1000"])
    assert rc == 1
    one_error_line(capsys)


@pytest.mark.parametrize("window", [["--window-lo=-inf"], ["--window-hi", "inf"],
                                    ["--window-lo=-1e308", "--window-hi=1e308"]],
                         ids=["lo_-inf", "hi_inf", "width_overflows"])
def test_drr_infinite_window_rejected(cohort, tmp_path, capsys, window):
    out = tmp_path / "x.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the window must be refused before any arithmetic
        rc = main(["drr", str(cohort / "case_000" / "volume.json"), "--out", str(out)] + window)
    assert rc == 1
    assert one_error_line(capsys).startswith("error: ValueError: window requires finite")
    assert not out.exists()


def test_drr_missing_volume_is_io_failure(tmp_path, capsys):
    rc = main(["drr", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.pgm")])
    assert rc == 2
    assert one_error_line(capsys).startswith("error: IoFailure:")


def test_path_holding_a_newline_is_one_error_line(tmp_path, capsys):
    """Every whitespace run of a message is one space, so a newline in a path ends no line."""
    rc = main(["drr", str(tmp_path / "no\nsuch.json"), "--out", str(tmp_path / "x.pgm")])
    assert rc == 2
    assert one_error_line(capsys).startswith("error: IoFailure:")


# --- analyze -----------------------------------------------------------------------

def analyze_args(case_dir: Path, out: Path, prefix: str = "sota2d",
                 case_id: str = "case_000") -> list[str]:
    return ["analyze",
            "--ct-right", str(case_dir / "truth_right.json"),
            "--ct-left", str(case_dir / "truth_left.json"),
            "--mask2d-right", str(case_dir / f"{prefix}_right.json"),
            "--mask2d-left", str(case_dir / f"{prefix}_left.json"),
            "--case-id", case_id, "--out", str(out)]


def test_analyze_writes_report(cohort, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(analyze_args(cohort / "case_000", out)) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(
        r"case_000: obscured right \d+\.\d\d% left \d+\.\d\d% both \d+\.\d\d%", line)
    doc = json.loads((out / "report.json").read_text())
    assert doc["case_id"] == "case_000"
    csv_lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 4  # header + right/left/both

    # the CLI must report exactly what the library computes
    measured = obscured_fraction(load_mask3d(cohort / "case_000" / "truth_right.json"),
                                 load_mask2d(cohort / "case_000" / "sota2d_right.json"))
    assert doc["labels"]["right"]["obscured_fraction_pct"] == measured


def test_analyze_missing_mask_is_io_failure(cohort, tmp_path, capsys):
    args = analyze_args(cohort / "case_000", tmp_path / "r")
    args[2] = str(tmp_path / "gone.json")
    assert main(args) == 2
    assert one_error_line(capsys).startswith("error: IoFailure:")


@pytest.mark.parametrize("mismatch", ["dims", "spacing"])
def test_analyze_plane_must_match_grid(cohort, tmp_path, capsys, mismatch):
    case = cohort / "case_000"
    for side in ("right", "left"):
        m = load_mask2d(case / f"sota2d_{side}.json")
        if mismatch == "dims":
            m = Mask2D(m.nx - 1, m.nz, m.sx, m.sz, m.bits[:, :-1], m.label)
        else:
            m = Mask2D(m.nx, m.nz, 2.0 * m.sx, m.sz, m.bits, m.label)
        save_mask2d(m, tmp_path / f"bad_{side}.json")
    args = analyze_args(case, tmp_path / "r")
    args[6], args[8] = str(tmp_path / "bad_right.json"), str(tmp_path / "bad_left.json")
    assert main(args) == 1
    assert one_error_line(capsys).startswith("error: GeometryMismatch:")


# --- agreement ---------------------------------------------------------------------

def test_agreement_identical_masks(cohort, tmp_path, capsys):
    mask = str(cohort / "case_000" / "sota2d_right.json")
    out = tmp_path / "agree.json"
    assert main(["agreement", mask, mask, "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "label=right kind=drr2d dsc=1.000000 ji=1.000000"
    doc = json.loads(out.read_text())
    assert doc["dsc"] == 1.0 and doc["ji"] == 1.0


def test_agreement_on_3d_masks(cohort, capsys):
    mask = str(cohort / "case_000" / "truth_left.json")
    assert main(["agreement", mask, mask]) == 0
    assert "kind=ct3d" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("dims", "[true, 4]"),
    ("spacing_mm", "[Infinity, 1]"),
    ("spacing_mm", "[true, 1]"),
])
def test_agreement_malformed_header_is_one_line(tmp_path, capsys, field, value):
    save_mask2d(Mask2D(nx=1, nz=4, sx=1.0, sz=1.0, bits=np.ones((4, 1), dtype=bool),
                       label="right"), tmp_path / "m.json")
    header = json.loads((tmp_path / "m.json").read_text())
    header[field] = "@"
    (tmp_path / "m.json").write_text(json.dumps(header).replace('"@"', value))
    mask = str(tmp_path / "m.json")
    assert main(["agreement", mask, mask]) == 1
    assert one_error_line(capsys).startswith("error: MalformedHeader:")


@pytest.mark.parametrize("text", ["[]", '"x"', "null", "3",
                                  pytest.param(NESTED, id="nested")])
def test_agreement_non_object_header_is_one_line(tmp_path, capsys, text):
    (tmp_path / "h.json").write_text(text)
    mask = str(tmp_path / "h.json")
    assert main(["agreement", mask, mask]) == 1
    assert one_error_line(capsys).startswith("error: MalformedHeader:")


@pytest.mark.parametrize("data", ["../outside.raw", "sub/../../outside.raw"])
def test_agreement_payload_must_stay_inside_header_dir(tmp_path, capsys, data):
    case = tmp_path / "case"
    save_mask2d(Mask2D(nx=1, nz=4, sx=1.0, sz=1.0, bits=np.ones((4, 1), dtype=bool),
                       label="right"), case / "m.json")
    shutil.copy(case / "m.raw", tmp_path / "outside.raw")
    header = json.loads((case / "m.json").read_text())
    header["data"] = data
    (case / "m.json").write_text(json.dumps(header))
    mask = str(case / "m.json")
    assert main(["agreement", mask, mask]) == 1
    assert one_error_line(capsys).startswith("error: MalformedHeader:")


def test_agreement_mixed_kinds_rejected(cohort, capsys):
    rc = main(["agreement", str(cohort / "case_000" / "truth_right.json"),
               str(cohort / "case_000" / "sota2d_right.json")])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: GeometryMismatch:")


# --- cohort ------------------------------------------------------------------------

def test_cohort_report_files_and_summary(cohort, capsys):
    assert main(["cohort", str(cohort)]) == 0
    out = capsys.readouterr().out
    report_dir = cohort / "report"
    assert out.strip().endswith(str(report_dir / "cohort_report.json"))
    assert re.search(r"^right: obscured annotator1 .+%", out, re.M)
    for name in ("exam.csv", "cases_annotator1.csv", "cases_annotator2.csv",
                 "agreement.csv", "table1.csv", "table2.csv", "table3.csv",
                 "table4.csv", "cohort_report.json"):
        assert (report_dir / name).exists()
    doc = json.loads((report_dir / "cohort_report.json").read_text())
    assert doc["n_cases"] == 3
    assert doc["case_ids"] == ["case_000", "case_001", "case_002"]
    assert set(doc["fractions"]) == {"annotator1", "annotator2"}
    assert set(doc["fraction_tests"]) == {"right", "left", "both"}
    assert doc["agreement"]["drr2d"]["dsc"]["both"]["n"] == 3


def test_cohort_rerun_is_byte_identical(cohort, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cohort", str(cohort), "--out", str(a), "--quiet"]) == 0
    assert main(["cohort", str(cohort), "--out", str(b), "--quiet"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_cohort_aggregates_recompute_from_csvs(cohort, tmp_path):
    out = tmp_path / "report"
    assert main(["cohort", str(cohort), "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "cohort_report.json").read_text())

    import csv
    with open(out / "cases_annotator1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fracs = [float(r["obscured_fraction_pct"]) for r in rows if r["label"] == "right"]
    expected = describe(fracs)
    got = doc["fractions"]["annotator1"]["right"]
    assert got["mean"] == expected.mean and got["sd"] == expected.sd

    with open(out / "agreement.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    dscs = [float(r["dsc"]) for r in rows if r["label"] == "left"]
    assert doc["agreement"]["drr2d"]["dsc"]["left"]["median"] == \
        describe_quartiles(dscs).median


def _test_cells(node: dict) -> list[str]:
    """The p_value and test cells of a paired-test node of the report document."""
    if "skipped" in node:
        return ["", ""]
    return [fmt(node["result"]["p_value"]), node["chosen"]]


def _expected_tables(doc: dict) -> dict[str, list[list[str]]]:
    """table1..table4 rebuilt from cohort_report.json, one fmt() cell per JSON value."""
    def cells(*values) -> list[str]:
        return [fmt(v) for v in values]

    t1 = [cells(metric, *(doc["exam"][metric][k] for k in ("n", "mean", "sd", "min", "max")))
          for metric in ("pixel_spacing_mm", "num_slices", "scan_length_mm")]
    t2 = [cells(kind, metric, label, *(q[k] for k in ("n", "median", "q1", "q3", "min", "max")))
          for kind in sorted(doc["agreement"]) for metric in ("dsc", "ji")
          for label in LABELS if (q := doc["agreement"][kind][metric].get(label))]
    t3, t4 = [], []
    for annot in sorted(doc["volumes"]):
        for label in LABELS:
            tot, cov = (doc["volumes"][annot][label][k] for k in ("total", "covered"))
            t3.append(cells(annot, label, tot["n"], tot["mean"], tot["sd"], tot["min"],
                            tot["max"], cov["mean"], cov["sd"], cov["min"], cov["max"])
                      + _test_cells(doc["volume_tests"][annot][label]))
            s = doc["fractions"][annot][label]
            t4.append(cells(annot, label, s["n"], s["mean"], s["sd"], s["min"], s["max"])
                      + _test_cells(doc["fraction_tests"][label]))
    return {"table1.csv": t1, "table2.csv": t2, "table3.csv": t3, "table4.csv": t4}


@pytest.mark.parametrize("n_cases", [3, 1])
def test_cohort_tables_mirror_the_report_document(cohort, tmp_path, capsys, n_cases):
    # each table cell is fmt() of the cohort_report.json value it shows; one
    # case leaves every paired test skipped and every sd undefined
    source = cohort
    if n_cases == 1:
        source = tmp_path / "one"
        shutil.copytree(cohort / "case_000", source / "case_000")
        manifest = json.loads((cohort / "manifest.json").read_text())
        manifest["cases"] = manifest["cases"][:1]
        (source / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "report"
    capsys.readouterr()
    assert main(["cohort", str(source), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    doc = json.loads((out / "cohort_report.json").read_text())
    assert doc["n_cases"] == n_cases

    for name, rows in _expected_tables(doc).items():
        with open(out / name, newline="") as fh:
            assert list(csv.reader(fh))[1:] == rows, name

    tests = [*doc["fraction_tests"].values(),
             *(node for by_label in doc["volume_tests"].values() for node in by_label.values())]
    assert len(tests) == 9
    if n_cases == 3:
        assert all("result" in node for node in tests)
        assert "sd n/a" not in stdout and stdout.count("p=") == 3
        return
    assert all(set(node) == {"skipped"} and node["skipped"].startswith("TooFewSamples: ")
               for node in tests)
    empty = {"table1.csv": ("sd",),
             "table3.csv": ("total_ml_sd", "covered_ml_sd", "p_value", "test"),
             "table4.csv": ("sd_pct", "p_value", "test")}
    for name, columns in empty.items():
        with open(out / name, newline="") as fh:
            assert all(row[c] == "" for row in csv.DictReader(fh) for c in columns), name
    assert stdout.count("(sd n/a)") == 6 and "p=" not in stdout


def stage_report(case: Path, kind: str) -> None:
    """Leave a per-case report.json of the given kind in the case directory."""
    if kind == "not_json":
        (case / "report.json").write_text("{not json", encoding="utf-8")
        return
    prefix = "annot2" if kind == "stale" else "sota2d"
    case_id = "case_999" if kind == "other_case_id" else case.name
    assert main(analyze_args(case, case, prefix=prefix, case_id=case_id) + ["--quiet"]) == 0


@pytest.mark.parametrize("kind", ["fresh", "stale", "other_case_id", "not_json"])
def test_cohort_ignores_staged_case_report(cohort, tmp_path, kind):
    # cohort recomputes every case; a report.json left in a case
    # directory, whatever it holds, cannot change the published bytes
    pristine = tmp_path / "pristine"
    assert main(["cohort", str(cohort), "--out", str(pristine), "--quiet"]) == 0
    clone = tmp_path / "clone"
    shutil.copytree(cohort, clone)
    stage_report(clone / "case_001", kind)
    out = tmp_path / "staged"
    assert main(["cohort", str(clone), "--out", str(out), "--quiet"]) == 0
    assert tree_bytes(out) == tree_bytes(pristine)


def test_cohort_loads_each_mask_file_once(cohort, tmp_path, monkeypatch):
    import lungcover.cli as cli
    loaded = []

    def counting(load):
        def wrapper(path):
            loaded.append(Path(path).name)
            return load(path)
        return wrapper

    monkeypatch.setattr(cli, "load_mask3d", counting(cli.load_mask3d))
    monkeypatch.setattr(cli, "load_mask2d", counting(cli.load_mask2d))
    assert main(["cohort", str(cohort), "--out", str(tmp_path / "r"), "--quiet"]) == 0
    n = len(json.loads((cohort / "manifest.json").read_text())["cases"])
    # each of a case's 2 truth and 4 annotator mask files once: 2n + 4n loads
    assert sorted(loaded) == sorted(CASE_FILES[1:] * n)



def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_cohort_frees_each_case_mapping(cohort, tmp_path, monkeypatch):
    """A loaded truth mask holds one descriptor of its payload until the mask is freed.

    With the garbage collector off, only reference counting frees a case's
    masks: every case must start with the descriptors the run started with.
    """
    import lungcover.cli as cli
    at_case_start, after_load = [], []

    def counting(load):
        def wrapper(path):
            mask = load(path)
            after_load.append(_open_fds())
            return mask
        return wrapper

    def case_report(case_report):
        def wrapper(case_dir, case_id):
            at_case_start.append(_open_fds())
            return case_report(case_dir, case_id)
        return wrapper

    monkeypatch.setattr(cli, "_case_report", case_report(cli._case_report))
    monkeypatch.setattr(cli, "load_mask3d", counting(cli.load_mask3d))
    monkeypatch.setattr(cli, "load_mask2d", counting(cli.load_mask2d))
    gc.collect()
    gc.disable()
    try:
        start = _open_fds()
        assert main(["cohort", str(cohort), "--out", str(tmp_path / "r"), "--quiet"]) == 0
        end = _open_fds()
    finally:
        gc.enable()
    n = len(json.loads((cohort / "manifest.json").read_text())["cases"])
    assert at_case_start == [start] * n
    assert len(after_load) == 6 * n and max(after_load) <= start + 6
    assert end == start


def test_cohort_exam_rows_come_from_the_mask_headers(cohort, tmp_path):
    # a manifest spec that disagrees with the masks cannot reach exam.csv
    pristine = tmp_path / "pristine"
    assert main(["cohort", str(cohort), "--out", str(pristine), "--quiet"]) == 0
    clone = tmp_path / "clone"
    shutil.copytree(cohort, clone, ignore=shutil.ignore_patterns("report"))
    manifest = json.loads((clone / "manifest.json").read_text())
    manifest["cases"][1]["spec"]["geometry"]["spacing_mm"] = [9.0, 9.0, 9.0]
    (clone / "manifest.json").write_text(json.dumps(manifest))
    assert main(["cohort", str(clone), "--out", str(tmp_path / "edited"), "--quiet"]) == 0
    assert tree_bytes(tmp_path / "edited") == tree_bytes(pristine)


def test_cohort_case_needs_only_id_and_dir(cohort, tmp_path):
    # a CT-derived cohort has no phantom spec to list
    pristine = tmp_path / "pristine"
    assert main(["cohort", str(cohort), "--out", str(pristine), "--quiet"]) == 0
    clone = tmp_path / "clone"
    shutil.copytree(cohort, clone, ignore=shutil.ignore_patterns("report"))
    manifest = json.loads((clone / "manifest.json").read_text())
    cases = [{"case_id": e["case_id"], "dir": e["dir"]} for e in manifest["cases"]]
    (clone / "manifest.json").write_text(json.dumps({"cases": cases}))
    assert main(["cohort", str(clone), "--out", str(tmp_path / "bare"), "--quiet"]) == 0
    assert tree_bytes(tmp_path / "bare") == tree_bytes(pristine)


def test_cohort_reads_legacy_u8_truth_masks(cohort, tmp_path, legacy_u8):
    # a cohort written before the packed format measures to the same bytes
    packed = tmp_path / "packed"
    assert main(["cohort", str(cohort), "--out", str(packed), "--quiet"]) == 0
    legacy = tmp_path / "legacy"
    shutil.copytree(cohort, legacy, ignore=shutil.ignore_patterns("report"))
    for header in sorted(legacy.glob("case_*/truth_*.json")):
        legacy_u8(header, header)
        assert json.loads(header.read_text())["dtype"] == "u8"
    assert main(["cohort", str(legacy), "--out", str(tmp_path / "u8"), "--quiet"]) == 0
    assert tree_bytes(tmp_path / "u8") == tree_bytes(packed)


@pytest.mark.parametrize("command", ["agreement", "cohort"])
def test_set_padding_bit_is_one_error_line(tmp_path, capsys, command):
    # ny = 45: the last byte row of each column holds 5 voxels and 3 padding bits
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(SMALL_SPEC, geometry={"dims": [48, 45, 48],
                                                          "spacing_mm": [5.0, 5.0, 5.0]})))
    out = tmp_path / "c"
    assert main(["phantom", "--out", str(out), "--spec", str(spec), "--n", "2", "--quiet"]) == 0
    raw = out / "case_001" / "truth_left.raw"
    data = bytearray(raw.read_bytes())
    data[-1] |= 0x80  # y = 47 of the last column
    raw.write_bytes(bytes(data))
    capsys.readouterr()
    truth = str(out / "case_001" / "truth_left.json")
    argv = ["agreement", truth, truth] if command == "agreement" else ["cohort", str(out)]
    assert main(argv + ["--quiet"]) == 1
    assert one_error_line(capsys).startswith("error: MalformedMask: ")


def test_cohort_without_manifest_rejected(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["cohort", str(empty)]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


def test_cohort_with_no_cases_rejected(tmp_path, capsys):
    d = tmp_path / "c"
    d.mkdir()
    (d / "manifest.json").write_text('{"kind": "lungcover-cohort", "cases": []}')
    assert main(["cohort", str(d)]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


@pytest.mark.parametrize("text", ["[]", '"cohort"', '{"cases": {"case_000": {}}}',
                                  '{"cases": "case_000"}', pytest.param(NESTED, id="nested")])
def test_cohort_manifest_must_be_object_with_case_list(tmp_path, capsys, text):
    d = tmp_path / "c"
    d.mkdir()
    (d / "manifest.json").write_text(text)
    assert main(["cohort", str(d)]) == 1
    assert one_error_line(capsys).startswith("error: SpecViolation:")


@pytest.mark.parametrize("entry", [
    {"case_id": ["case_000"], "dir": "case_000"}, {"case_id": 0, "dir": "case_000"},
    {"case_id": "", "dir": "case_000"}, {"dir": "case_000"}, ["case_000"], "case_000",
    # a case listed twice, by id or by dir, would count as two examinations
    {"case_id": "case_000", "dir": "case_001"}, {"case_id": "case_001", "dir": "case_000"},
    {"case_id": "case_001", "dir": "./case_000/"}, {"case_id": "case_000"},
], ids=["list_id", "int_id", "empty_id", "no_id", "list", "string",
        "repeated_id", "repeated_dir", "repeated_dir_spelled_apart", "repeated_id_and_dir"])
def test_cohort_bad_case_entry_is_malformed_header(cohort, tmp_path, capsys, entry):
    manifest = json.loads((cohort / "manifest.json").read_text())
    manifest["cases"][1] = entry
    shutil.copytree(cohort, tmp_path / "c", ignore=shutil.ignore_patterns("report"))
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
    assert main(["cohort", str(tmp_path / "c"), "--quiet"]) == 1
    assert one_error_line(capsys).startswith("error: MalformedHeader:")


@pytest.mark.parametrize("case_dir", ["../c/{id}", "{id}/../../c/{id}", "{root}/c/{id}"])
def test_cohort_case_dir_must_stay_inside_cohort(cohort, tmp_path, capsys, case_dir):
    shutil.copytree(cohort, tmp_path / "c")
    manifest = json.loads((cohort / "manifest.json").read_text())
    for entry in manifest["cases"]:
        entry["dir"] = case_dir.format(id=entry["case_id"], root=tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    assert main(["cohort", str(tmp_path / "d"), "--quiet"]) == 1
    assert one_error_line(capsys).startswith("error: MalformedHeader:")


# --- manifest mutations: every malformed manifest is one error line ---------------

MANIFEST_ODD_VALUES = st.one_of(
    st.sampled_from([
        True, False, None, "", ".", "case_000", "case_001", "../case_000", "/case_000",
        "case_000/..", ["case_000"], [], {}, {"case_id": "case_000"}, [[[[["case_000"]]]]],
        0, -1, 10**400, float("nan"), float("inf"), 0.5,
    ]),
    JSON_VALUES,
)


def manifest_keys(manifest: dict) -> list:
    """The case list and the case id and dir of each entry: what cohort reads."""
    cases = manifest.get("cases")
    entries = [e for e in cases if isinstance(e, dict)] if isinstance(cases, list) else []
    return [(manifest, ["cases", "bogus"])] + [(e, ["case_id", "dir", "bogus"]) for e in entries]


@pytest.fixture(scope="module")
def two_case_cohort(tmp_path_factory, spec_file) -> Path:
    out = tmp_path_factory.mktemp("two") / "cohort"
    make_cohort(out, spec_file, n=2)
    return out


@given(data=st.data())
def test_cohort_on_mutated_manifest_is_one_error_line(two_case_cohort, data):
    pristine = json.loads((two_case_cohort / "manifest.json").read_text())
    clone = two_case_cohort.parent / "mutated"
    if not clone.exists():
        shutil.copytree(two_case_cohort, clone)
    manifest = data.draw(mutated(pristine, manifest_keys, MANIFEST_ODD_VALUES))
    (clone / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["cohort", str(clone), "--out", str(clone / "report"), "--quiet"])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# --- start-up cost -------------------------------------------------------------------

# Runs one command (or, given "null", only ``import lungcover``) in a fresh interpreter
# and prints the lungcover, numpy and scipy modules and the worker pool it loaded.
_MODULE_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import lungcover
else:
    from lungcover.cli import main
    assert main(argv + ["--quiet"]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("lungcover")
                        or m in ("numpy", "scipy", "scipy.special", "concurrent.futures"))))
"""


@pytest.fixture(scope="module")
def fresh_modules(tmp_path_factory, spec_file) -> dict[str, set[str]]:
    """Step -> the modules a fresh interpreter loaded to run it; phantom makes the cohort."""
    out = tmp_path_factory.mktemp("fresh") / "cohort"
    case = out / "case_000"
    steps = {
        "import": None,
        "phantom": ["phantom", "--out", str(out), "--spec", str(spec_file), "--n", "2"],
        "drr": ["drr", str(case / "volume.json"), "--out", str(out / "a.pgm")],
        "analyze": ["analyze", "--ct-right", str(case / "truth_right.json"),
                    "--ct-left", str(case / "truth_left.json"),
                    "--mask2d-right", str(case / "sota2d_right.json"),
                    "--mask2d-left", str(case / "sota2d_left.json"), "--out", str(out / "an")],
        "agreement": ["agreement", str(case / "sota2d_right.json"),
                      str(case / "annot2_right.json")],
        "cohort": ["cohort", str(out)],
    }
    src = str(Path(lungcover.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    seen = {}
    for step, argv in steps.items():
        done = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(argv)],
                              env=env, capture_output=True, text=True, check=True)
        seen[step] = set(json.loads(done.stdout.splitlines()[-1]))
    return seen


def test_import_lungcover_loads_no_numpy_and_no_submodule(fresh_modules):
    assert fresh_modules["import"] == {"lungcover"}


def test_each_command_loads_only_its_own_modules(fresh_modules):
    """drr needs no phantom, concordance or reporting; phantom no reporting; cohort no
    phantom. No command imports a thread pool: grid.in_pairs runs two jobs at once."""
    assert not fresh_modules["drr"] & {"lungcover.phantom", "lungcover.concordance",
                                       "lungcover.reporting", "lungcover.stats"}
    assert not fresh_modules["phantom"] & {"lungcover.concordance", "lungcover.reporting",
                                           "lungcover.stats"}
    assert "lungcover.phantom" not in fresh_modules["cohort"]
    for step, modules in fresh_modules.items():
        # only by way of scipy, whose import of numpy.testing loads concurrent.futures
        assert "concurrent.futures" not in modules or "scipy.special" in modules, step


def test_only_cohort_loads_scipy(fresh_modules):
    """Every command but cohort runs on numpy alone; cohort loads scipy.special."""
    for step in ("import", "phantom", "drr", "analyze", "agreement"):
        assert not {m for m in fresh_modules[step] if m.startswith("scipy")}, step
    for step in ("phantom", "drr", "analyze", "agreement", "cohort"):
        assert "numpy" in fresh_modules[step], step
    assert "scipy.special" in fresh_modules["cohort"]


# --- benchmark contract ------------------------------------------------------------

def test_traced_benchmark_still_resolves_every_target(tmp_path, spec_file):
    """bench/tracing.py wraps names in lungcover.cli; a traced run must find them all."""
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    tracer.check_targets()
    tracer.begin_iteration()
    out = tmp_path / "cohort"
    with tracer.step("phantom"):
        make_cohort(out, spec_file, n=2)
    with tracer.step("drr"):
        for case in ("case_000", "case_001"):
            assert main(["drr", str(out / case / "volume.json"),
                         "--out", str(out / "drr" / f"{case}.pgm"), "--quiet"]) == 0
    with tracer.step("cohort"):
        assert main(["cohort", str(out), "--quiet"]) == 0
    tracer.check_targets()
    metrics = tracing.iteration_metrics(tracer._iteration_spans(0))
    assert metrics["cli.reuse_ratio"][0] == 0.0
    assert metrics["concordance.analyze_calls"][0] == 4
