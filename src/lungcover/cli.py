"""Command line interface.

Subcommands:
  phantom    generate a synthetic cohort (volumes, masks, manifest)
  drr        render a volume to an 8-bit PGM radiograph
  analyze    partition two 3D lung masks against their 2D masks
  agreement  Dice/Jaccard between two masks of the same kind
  cohort     aggregate a cohort directory into report tables

Exit codes: 0 success, 1 invalid input or arguments, 2 I/O failure or out of memory.
Errors print exactly one line on stderr: ``error: <Kind>: <message>``.

``main(argv)`` may be called repeatedly in one process, as
``scripts/run_pipeline.py`` and the benchmark do. The parser is built on the
first call and reused; each call looks up ``cmd_<command>`` in this module
when it runs, so a wrapper set on a ``cmd_*`` attribute still takes effect.

A command loads only the modules it uses. This module imports what every
command needs (errors, grid, io, and projection for the drr window
defaults); phantom, concordance and reporting (with stats) are imported
by the commands that use them, so a fresh ``drr`` loads none of them,
and none imports a thread pool. The functions that bench/tracing.py
and the tests rebind on this module (cohort_case, analyze_case,
build_cohort_report, ...) stay attributes of it, as stand-ins that
import their module when first called.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from dataclasses import replace
from pathlib import Path

from .errors import IoFailure, LungCoverError, MalformedHeader, SpecViolation, ValidationError
from .grid import LABELS, in_pairs
from .io import (
    load_mask,
    load_mask2d,
    load_mask3d,
    load_volume,
    read_csv,
    read_json,
    relative_path,
    save_mask2d,
    save_mask3d,
    save_pgm,
    save_volume,
    write_csv,
    write_json,
)
from .projection import DEFAULT_WINDOW, WindowSpec, render_drr


def _stand_in(module: str, name: str):
    """Call lungcover.<module>.<name>, importing the module on the first call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


cohort_case = _stand_in("phantom", "cohort_case")
analytic_obscured_fraction = _stand_in("phantom", "analytic_obscured_fraction")
oracle_tolerance_pct = _stand_in("phantom", "oracle_tolerance_pct")
analyze_case = _stand_in("concordance", "analyze_case")
agreement = _stand_in("concordance", "agreement")
union2d = _stand_in("concordance", "union2d")
build_cohort_report = _stand_in("reporting", "build_cohort_report")
write_cohort_tables = _stand_in("reporting", "write_cohort_tables")
report_from_json = _stand_in("reporting", "report_from_json")  # bench/tracing.py wraps it


class UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors raise instead of exiting, for uniform reporting."""

    def error(self, message):
        raise UsageError(message)


class _SpecHelp(argparse.HelpFormatter):
    """Names the phantom specs only when help is shown, so parsing imports no phantom."""

    def _expand_help(self, action):
        text = super()._expand_help(action)
        if "{specs}" in text:
            from .phantom import NAMED_SPECS
            text = text.replace("{specs}", ", ".join(sorted(NAMED_SPECS)))
        return text


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


# --- phantom -------------------------------------------------------------------

def _load_spec(name_or_path: str, seed: int, jitter_px: int | None):
    from .phantom import NAMED_SPECS, spec_from_dict
    builder = NAMED_SPECS.get(name_or_path)
    if builder is not None:
        return builder(rng_seed=seed,
                       annotator_jitter_px=1 if jitter_px is None else jitter_px)
    spec = spec_from_dict(read_json(name_or_path, SpecViolation))
    if jitter_px is not None:
        spec = replace(spec, annotator_jitter_px=jitter_px)
    return spec


def _phantom_case(args, base, out: Path, index: int) -> dict:
    """Make case index of the cohort, write its seven files, and return its manifest entry.

    cmd_phantom's item of grid.in_pairs: in this thread one case at a time, or
    one case of a pair in either thread. The case, its 2D masks and its lungs'
    and heart's sorted columns are freed on return; the torso's and domes'
    sorted columns outlive it, shared by the cohort (phantom._sort_solid).
    """
    from .phantom import spec_to_dict
    case = cohort_case(base, index, args.seed, args.perturb_pct)
    case_id = f"case_{index:03d}"
    case_dir = out / case_id
    save_volume(case.volume, case_dir / "volume.json")
    save_mask3d(case.truth_right, case_dir / "truth_right.json")
    save_mask3d(case.truth_left, case_dir / "truth_left.json")
    save_mask2d(case.sota2d_right, case_dir / "sota2d_right.json")
    save_mask2d(case.sota2d_left, case_dir / "sota2d_left.json")
    save_mask2d(case.annot2_right, case_dir / "annot2_right.json")
    save_mask2d(case.annot2_left, case_dir / "annot2_left.json")
    return {
        "case_id": case_id,
        "dir": case_id,
        "oracle_obscured_pct": {s: 100.0 * analytic_obscured_fraction(case.spec, s)
                                for s in LABELS},
        "oracle_tolerance_pct": {s: oracle_tolerance_pct(case.spec, s) for s in LABELS},
        "spec": spec_to_dict(case.spec),
    }


def cmd_phantom(args) -> int:
    """Write the cohort's cases, two at a time on a large grid, then its manifest.

    The cases run through grid.in_pairs, each sized by its volume, 2 *
    voxel_count bytes, against in_pairs' one floor, _SPLIT_BYTES (6 MiB).
    At or above it (the 128 MB cases of the CT grid), cases are made in
    index-ordered pairs: this thread makes case 2k while a worker thread
    makes case 2k + 1, so one case paints while the kernel copies the
    other's writes (which release the GIL); that cut `ct` phantom_s 31 %.
    Below it (a 4 MiB case of the 128^3 desk grid, every test grid), the
    cases are made one at a time in this thread: paired, the 55-case desk
    cohort took a third more CPU time and ~1.4 MB more peak (the worker's
    malloc arena), for a wall time within ~10 % either way. Every case
    depends only on its index, so each file's bytes, the manifest's
    entries and the ``wrote`` lines are the same either way, in index
    order.

    A failing case ends the command with its error, and no later case
    starts and no manifest is written. One at a time, the cases written
    are those below it. In a pair, the other case is waited for, the error
    of the lower failing index is raised, and the other case, if it did
    not fail, stays written too.
    """
    from .phantom import spec_to_dict
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    base = _load_spec(args.spec, args.seed, args.jitter_px)
    out = Path(args.out)
    entries = []
    make = functools.partial(_phantom_case, args, base, out)
    for entry in in_pairs(make, range(args.n), 2 * base.geometry.voxel_count):
        entries.append(entry)
        _say(args, f"wrote {out / entry['dir']}")
    manifest = {
        "kind": "lungcover-cohort",
        "n_cases": args.n,
        "cohort_seed": args.seed,
        "perturb_pct": args.perturb_pct,
        "base_spec": spec_to_dict(base),
        "cases": entries,
    }
    write_json(manifest, out / "manifest.json")
    print(out / "manifest.json")
    return 0


# --- drr -----------------------------------------------------------------------

def cmd_drr(args) -> int:
    window = WindowSpec(args.window_lo, args.window_hi)
    volume = load_volume(args.volume)
    save_pgm(render_drr(volume, window), args.out)
    print(args.out)
    return 0


# --- analyze -------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .reporting import CASE_COLUMNS, concordance_rows
    report = analyze_case(
        load_mask3d(args.ct_right),
        load_mask3d(args.ct_left),
        load_mask2d(args.mask2d_right),
        load_mask2d(args.mask2d_left),
        case_id=args.case_id,
    )
    out = Path(args.out)
    write_json(report.as_dict(), out / "report.json")
    write_csv(out / "report.csv", CASE_COLUMNS, concordance_rows(report))
    vals = {label: report.labels[label].obscured_fraction_pct for label in LABELS}
    print(f"{report.case_id}: obscured right {vals['right']:.2f}% "
          f"left {vals['left']:.2f}% both {vals['both']:.2f}%")
    return 0


# --- agreement -------------------------------------------------------------------

def cmd_agreement(args) -> int:
    report = agreement(load_mask(args.first), load_mask(args.second))
    if args.out:
        write_json(report.as_dict(), args.out)
    print(f"label={report.label} kind={report.mask_kind} "
          f"dsc={report.dsc:.6f} ji={report.ji:.6f}")
    return 0


# --- cohort ----------------------------------------------------------------------

_ANNOTATORS = {"annotator1": "sota2d", "annotator2": "annot2"}


def _case_report(case_dir: Path, case_id: str) -> tuple[tuple, dict[str, list], list[tuple]]:
    """The exam row, the concordance rows per annotator, and the agreement rows of one case.

    Each mask file is loaded once; the exam row describes the grid the truth
    masks were measured on, and the 2D masks also serve the agreement pairs.
    """
    from .reporting import concordance_rows
    truth = [load_mask3d(case_dir / f"truth_{side}.json") for side in ("right", "left")]
    g = truth[0].geometry
    exam_row = (case_id, g.sx, g.sz, g.nz, g.nz * g.sz)
    masks2d = {annot: [load_mask2d(case_dir / f"{prefix}_{side}.json")
                       for side in ("right", "left")]
               for annot, prefix in _ANNOTATORS.items()
               if annot == "annotator1" or (case_dir / f"{prefix}_right.json").exists()}
    rows = {annot: concordance_rows(analyze_case(*truth, *pair, case_id=case_id))
            for annot, pair in masks2d.items()}
    agreement_rows = []
    if len(masks2d) == 2:
        (sota_r, sota_l), (ann_r, ann_l) = masks2d.values()
        for a, b in ((sota_r, ann_r), (sota_l, ann_l),
                     (union2d(sota_r, sota_l), union2d(ann_r, ann_l))):
            rep = agreement(a, b)
            agreement_rows.append((case_id, rep.label, rep.mask_kind, rep.dsc, rep.ji))
    return exam_row, rows, agreement_rows


def cmd_cohort(args) -> int:
    from .reporting import AGREEMENT_COLUMNS, CASE_COLUMNS, EXAM_COLUMNS
    cohort_dir = Path(args.cohort)
    manifest_path = cohort_dir / "manifest.json"
    if not manifest_path.exists():
        raise SpecViolation(f"{cohort_dir}: no manifest.json, not a cohort directory")
    cases = read_json(manifest_path, SpecViolation).get("cases")
    if not (isinstance(cases, list) and cases):
        raise SpecViolation(f"{manifest_path}: cohort lists no cases")

    case_dirs: dict[str, Path] = {}  # case id -> case dir, in manifest order
    for entry in cases:
        try:
            case_id = entry["case_id"]
            if not (isinstance(case_id, str) and case_id):
                raise MalformedHeader(f"{manifest_path}: case_id must be a non-empty string, "
                                      f"got {case_id!r}")
            case_dir = cohort_dir / relative_path(entry.get("dir", case_id),
                                                  f"{manifest_path}: case dir")
        except (KeyError, TypeError) as exc:
            raise MalformedHeader(f"{manifest_path}: bad case entry: {exc}") from exc
        # a case listed twice would count as two examinations in every summary
        if case_id in case_dirs or case_dir in case_dirs.values():
            raise MalformedHeader(f"{manifest_path}: case {case_id!r} in {case_dir} "
                                  "repeats an earlier case id or dir")
        case_dirs[case_id] = case_dir

    out_dir = Path(args.out) if args.out else cohort_dir / "report"
    case_ids = list(case_dirs)
    exam_rows: list[tuple] = []
    rows: dict[str, list] = {annot: [] for annot in _ANNOTATORS}
    agreement_rows: list[tuple] = []

    for case_id, case_dir in case_dirs.items():
        exam_row, measured, pair_rows = _case_report(case_dir, case_id)
        exam_rows.append(exam_row)
        for annot, annot_rows in measured.items():
            rows[annot].extend(annot_rows)
        agreement_rows.extend(pair_rows)
        _say(args, f"measured {case_id}")

    write_csv(out_dir / "exam.csv", EXAM_COLUMNS, exam_rows)
    case_rows = {}
    for annot, annot_rows in rows.items():
        if annot_rows:  # annotator 1 has rows for every case
            write_csv(out_dir / f"cases_{annot}.csv", CASE_COLUMNS, annot_rows)
            case_rows[annot] = read_csv(out_dir / f"cases_{annot}.csv")
    write_csv(out_dir / "agreement.csv", AGREEMENT_COLUMNS, agreement_rows)

    report = build_cohort_report(
        case_ids=case_ids,
        exam_rows=read_csv(out_dir / "exam.csv"),
        case_rows=case_rows,
        agreement_rows=read_csv(out_dir / "agreement.csv"),
    )
    write_cohort_tables(report, out_dir)

    if not args.quiet:
        for label in LABELS:
            parts = []
            for annot in sorted(report["fractions"]):
                s = report["fractions"][annot][label]
                sd = "n/a" if s["sd"] is None else f"{s['sd']:.2f}"
                parts.append(f"{annot} {s['mean']:.2f}% (sd {sd})")
            test = report["fraction_tests"].get(label, {})
            if "result" in test:
                parts.append(f"p={test['result']['p_value']:.4g} ({test['chosen']})")
            print(f"{label}: obscured " + "; ".join(parts))
    print(out_dir / "cohort_report.json")
    return 0


# --- parser ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: every ``main`` call shares it, so nothing may modify it."""
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines (result paths still print)")
    parser = _Parser(prog="lungcover",
                     description="Quantify lung volume missed by 2D coverage masks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", parents=[common], formatter_class=_SpecHelp,
                       help="generate a synthetic cohort with analytic ground truth")
    p.add_argument("--out", required=True, help="cohort output directory")
    p.add_argument("--spec", default="default",
                   help="named spec ({specs}) or a JSON spec file")
    p.add_argument("--n", type=int, default=55, help="number of cases (default 55)")
    p.add_argument("--seed", type=int, default=0,
                   help="cohort seed; with a JSON spec it drives only the perturbations")
    p.add_argument("--jitter-px", type=int, default=None,
                   help="second-annotator boundary jitter radius in pixels")
    p.add_argument("--perturb-pct", type=float, default=15.0,
                   help="size perturbation range in percent (default 15)")

    p = sub.add_parser("drr", parents=[common],
                       help="render a mean-intensity projection to PGM")
    p.add_argument("volume", help="volume header (.json)")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--window-lo", type=float, default=DEFAULT_WINDOW.lo,
                   help="HU mapped to black (default %(default)s)")
    p.add_argument("--window-hi", type=float, default=DEFAULT_WINDOW.hi,
                   help="HU mapped to white (default %(default)s)")

    p = sub.add_parser("analyze", parents=[common],
                       help="partition 3D lung masks against 2D coverage masks")
    p.add_argument("--ct-right", required=True, help="right lung 3D mask header")
    p.add_argument("--ct-left", required=True, help="left lung 3D mask header")
    p.add_argument("--mask2d-right", required=True, help="right lung 2D mask header")
    p.add_argument("--mask2d-left", required=True, help="left lung 2D mask header")
    p.add_argument("--case-id", default="case", help="identifier in the report")
    p.add_argument("--out", required=True, help="directory for report.json/report.csv")

    p = sub.add_parser("agreement", parents=[common],
                       help="Dice/Jaccard between two masks of the same kind")
    p.add_argument("first", help="mask header (.json), 2D or 3D")
    p.add_argument("second", help="mask header of the same kind and grid")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("cohort", parents=[common],
                       help="aggregate a cohort directory into report tables")
    p.add_argument("cohort", help="cohort directory containing manifest.json")
    p.add_argument("--out", default=None,
                   help="report output directory (default <cohort>/report)")
    return parser


def _fail(exc: Exception) -> None:
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        _fail(exc)
        return 1
    try:
        # looked up per call, not a parser default: a cmd_* rebound after the parser
        # was built (a timing or tracing wrapper) must still be the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except IoFailure as exc:
        _fail(exc)
        return 2
    except (LungCoverError, ValueError) as exc:
        _fail(exc)
        return 1
    except (OSError, MemoryError) as exc:
        _fail(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
