"""Cohort aggregation and the CSV/JSON report tables.

Numbers written to CSV (io.write_csv) carry 6 significant digits. Every aggregate in
the cohort report is computed from the values re-read out of the
just-written per-case CSVs, not from in-memory intermediates, so the
report always equals the stats functions applied to the published
per-case rows.

The cohort report is built as one document, the dict written to
``cohort_report.json``; ``table1.csv`` .. ``table4.csv`` are views of it.
"""

from __future__ import annotations

from pathlib import Path

from .concordance import ConcordanceReport
from .errors import MalformedHeader, ValidationError
from .grid import LABELS
from .io import write_csv, write_json
from .stats import describe, describe_quartiles, paired_compare

CASE_COLUMNS = ("case_id", "label", "total_ml", "covered_ml", "obscured_ml",
                "obscured_fraction_pct")
EXAM_COLUMNS = ("case_id", "pixel_spacing_mm", "slice_thickness_mm", "num_slices",
                "scan_length_mm")
AGREEMENT_COLUMNS = ("case_id", "label", "mask_kind", "dsc", "ji")


def concordance_rows(report: ConcordanceReport) -> list[tuple]:
    return [
        (report.case_id, label, m.total_ml, m.covered_ml, m.obscured_ml,
         m.obscured_fraction_pct)
        for label in LABELS
        for m in (report.labels[label],)
    ]


# --- cohort report ------------------------------------------------------------

def _floats(rows: list[dict[str, str]], column: str) -> list[float]:
    return [float(r[column]) for r in rows]


def _by_label(rows: list[dict[str, str]], label: str) -> list[dict[str, str]]:
    return [r for r in rows if r["label"] == label]


def _safe_compare(xs: list[float], ys: list[float]) -> dict:
    try:
        return paired_compare(xs, ys).as_dict()
    except ValidationError as exc:
        return {"skipped": f"{type(exc).__name__}: {exc}"}


def build_cohort_report(
    case_ids: list[str],
    exam_rows: list[dict[str, str]],
    case_rows: dict[str, list[dict[str, str]]],       # annotator -> rows
    agreement_rows: list[dict[str, str]],
) -> dict:
    """Aggregate re-read CSV rows into the cohort report document.

    Rows must come from the CSVs written for this cohort; all summaries
    and tests are computed on those (6-significant-digit) values. Each
    summary or test is the ``as_dict()`` of its stats result, and a test
    whose preconditions fail is ``{"skipped": "<Kind>: <message>"}``.
    """
    exam = {
        metric: describe(_floats(exam_rows, metric)).as_dict()
        for metric in ("pixel_spacing_mm", "slice_thickness_mm", "num_slices",
                       "scan_length_mm")
    }
    volumes: dict = {}         # annotator -> label -> {"total","covered"} -> summary
    fractions: dict = {}       # annotator -> label -> summary
    volume_tests: dict = {}    # annotator -> label -> test (total vs covered)
    for annot, rows in case_rows.items():
        volumes[annot] = {}
        fractions[annot] = {}
        volume_tests[annot] = {}
        for label in LABELS:
            sub = _by_label(rows, label)
            totals = _floats(sub, "total_ml")
            covered = _floats(sub, "covered_ml")
            volumes[annot][label] = {"total": describe(totals).as_dict(),
                                     "covered": describe(covered).as_dict()}
            fractions[annot][label] = describe(_floats(sub, "obscured_fraction_pct")).as_dict()
            volume_tests[annot][label] = _safe_compare(totals, covered)
    fraction_tests: dict = {}  # label -> test (annotator1 vs annotator2)
    if "annotator1" in case_rows and "annotator2" in case_rows:
        for label in LABELS:
            xs = _floats(_by_label(case_rows["annotator1"], label), "obscured_fraction_pct")
            ys = _floats(_by_label(case_rows["annotator2"], label), "obscured_fraction_pct")
            fraction_tests[label] = _safe_compare(xs, ys)
    agreement: dict = {}       # mask_kind -> metric -> label -> quartile summary
    kinds = sorted({r["mask_kind"] for r in agreement_rows})
    for kind in kinds:
        agreement[kind] = {"dsc": {}, "ji": {}}
        kind_rows = [r for r in agreement_rows if r["mask_kind"] == kind]
        for label in LABELS:
            sub = _by_label(kind_rows, label)
            if not sub:
                continue
            agreement[kind]["dsc"][label] = describe_quartiles(_floats(sub, "dsc")).as_dict()
            agreement[kind]["ji"][label] = describe_quartiles(_floats(sub, "ji")).as_dict()
    return {
        "n_cases": len(case_ids),
        "case_ids": list(case_ids),
        "exam": exam,
        "volumes": volumes,
        "fractions": fractions,
        "agreement": agreement,
        "volume_tests": volume_tests,
        "fraction_tests": fraction_tests,
    }


def _p_and_test(node: dict) -> tuple[float | None, str | None]:
    """(p_value, test) of a paired-test node; (None, None) when it was skipped or absent."""
    if "result" not in node:
        return None, None
    return node["result"]["p_value"], node["chosen"]


def write_cohort_tables(report: dict, out_dir: Path) -> None:
    """Write the four table CSVs and ``cohort_report.json`` from the report document."""
    out_dir = Path(out_dir)

    rows = []
    for metric in ("pixel_spacing_mm", "num_slices", "scan_length_mm"):
        s = report["exam"][metric]
        rows.append((metric, s["n"], s["mean"], s["sd"], s["min"], s["max"]))
    write_csv(out_dir / "table1.csv", ("metric", "n", "mean", "sd", "min", "max"), rows)

    rows = []
    for kind, metrics in report["agreement"].items():
        for metric in ("dsc", "ji"):
            for label in LABELS:
                q = metrics[metric].get(label)
                if q is None:
                    continue
                rows.append((kind, metric, label, q["n"], q["median"], q["q1"], q["q3"],
                             q["min"], q["max"]))
    write_csv(out_dir / "table2.csv",
              ("mask_kind", "metric", "label", "n", "median", "q1", "q3", "min", "max"), rows)

    rows = []
    for annot in sorted(report["volumes"]):
        for label in LABELS:
            tot = report["volumes"][annot][label]["total"]
            cov = report["volumes"][annot][label]["covered"]
            p, test = _p_and_test(report["volume_tests"][annot][label])
            rows.append((annot, label, tot["n"], tot["mean"], tot["sd"], tot["min"], tot["max"],
                         cov["mean"], cov["sd"], cov["min"], cov["max"], p, test))
    write_csv(out_dir / "table3.csv",
              ("annotator", "label", "n", "total_ml_mean", "total_ml_sd",
               "total_ml_min", "total_ml_max", "covered_ml_mean", "covered_ml_sd",
               "covered_ml_min", "covered_ml_max", "p_value", "test"), rows)

    rows = []
    for annot in sorted(report["fractions"]):
        for label in LABELS:
            s = report["fractions"][annot][label]
            p, test = _p_and_test(report["fraction_tests"].get(label, {}))
            rows.append((annot, label, s["n"], s["mean"], s["sd"], s["min"], s["max"], p, test))
    write_csv(out_dir / "table4.csv",
              ("annotator", "label", "n", "mean_pct", "sd_pct", "min_pct",
               "max_pct", "p_value", "test"), rows)

    write_json(report, out_dir / "cohort_report.json")


def report_from_json(doc: dict) -> ConcordanceReport:
    """Rehydrate a per-case report written by the analyze command."""
    from .concordance import LabelMeasures
    try:
        labels = {
            label: LabelMeasures(
                total_voxels=int(m["total_voxels"]),
                covered_voxels=int(m["covered_voxels"]),
                obscured_voxels=int(m["obscured_voxels"]),
                total_ml=float(m["total_ml"]),
                covered_ml=float(m["covered_ml"]),
                obscured_ml=float(m["obscured_ml"]),
                obscured_fraction_pct=float(m["obscured_fraction_pct"]),
            )
            for label, m in doc["labels"].items()
        }
        return ConcordanceReport(case_id=str(doc["case_id"]), labels=labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHeader(f"bad per-case report JSON: {exc}") from exc
