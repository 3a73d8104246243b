"""Cohort aggregation and the CSV/JSON report writers.

Numbers written to CSV carry 6 significant digits. Every aggregate in
the cohort report is computed from the values re-read out of the
just-written per-case CSVs, not from in-memory intermediates, so the
report always equals the stats functions applied to the published
per-case rows.

CSV dialect: RFC 4180 (CRLF, minimal quoting), '.' decimal point.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .concordance import ConcordanceReport
from .errors import MalformedHeader, ValidationError
from .io import write_json, write_text
from .stats import (
    DescriptiveSummary,
    PairedComparison,
    QuartileSummary,
    describe,
    describe_quartiles,
    paired_compare,
)

LABEL_ORDER = ("right", "left", "both")

CASE_COLUMNS = ("case_id", "label", "total_ml", "covered_ml", "obscured_ml",
                "obscured_fraction_pct")
EXAM_COLUMNS = ("case_id", "pixel_spacing_mm", "slice_thickness_mm", "num_slices",
                "scan_length_mm")
AGREEMENT_COLUMNS = ("case_id", "label", "mask_kind", "dsc", "ji")


def fmt(value) -> str:
    """CSV cell: 6 significant digits for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # default lineterminator CRLF per RFC 4180
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    write_text(buf.getvalue(), path)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def concordance_rows(report: ConcordanceReport) -> list[tuple]:
    return [
        (report.case_id, label, m.total_ml, m.covered_ml, m.obscured_ml,
         m.obscured_fraction_pct)
        for label in LABEL_ORDER
        for m in (report.labels[label],)
    ]


def write_concordance_csv(report: ConcordanceReport, path: Path) -> None:
    write_csv(path, CASE_COLUMNS, concordance_rows(report))


# --- cohort report ------------------------------------------------------------

@dataclass(frozen=True)
class CohortReport:
    n_cases: int
    case_ids: list[str]
    exam: dict                 # metric -> DescriptiveSummary
    volumes: dict              # annotator -> label -> {"total","covered"} -> summary
    fractions: dict            # annotator -> label -> DescriptiveSummary
    agreement: dict            # mask_kind -> metric -> label -> QuartileSummary
    volume_tests: dict         # annotator -> label -> PairedComparison
    fraction_tests: dict       # label -> PairedComparison (annot1 vs annot2)

    def as_dict(self) -> dict:
        def conv(node):
            if isinstance(node, dict):
                return {k: conv(v) for k, v in node.items()}
            if isinstance(node, (DescriptiveSummary, QuartileSummary, PairedComparison)):
                return node.as_dict()
            return node
        return {
            "n_cases": self.n_cases,
            "case_ids": list(self.case_ids),
            "exam": conv(self.exam),
            "volumes": conv(self.volumes),
            "fractions": conv(self.fractions),
            "agreement": conv(self.agreement),
            "volume_tests": conv(self.volume_tests),
            "fraction_tests": conv(self.fraction_tests),
        }


def _floats(rows: list[dict[str, str]], column: str) -> list[float]:
    return [float(r[column]) for r in rows]


def _by_label(rows: list[dict[str, str]], label: str) -> list[dict[str, str]]:
    return [r for r in rows if r["label"] == label]


def _skipped(reason: str) -> dict:
    return {"skipped": reason}


def _safe_compare(xs: list[float], ys: list[float]):
    try:
        return paired_compare(xs, ys)
    except ValidationError as exc:
        return _skipped(f"{type(exc).__name__}: {exc}")


def build_cohort_report(
    case_ids: list[str],
    exam_rows: list[dict[str, str]],
    case_rows: dict[str, list[dict[str, str]]],       # annotator -> rows
    agreement_rows: list[dict[str, str]],
) -> CohortReport:
    """Aggregate re-read CSV rows into the cohort report.

    Rows must come from the CSVs written for this cohort; all summaries
    and tests are computed on those (6-significant-digit) values.
    """
    exam = {
        metric: describe(_floats(exam_rows, metric))
        for metric in ("pixel_spacing_mm", "slice_thickness_mm", "num_slices",
                       "scan_length_mm")
    }
    volumes: dict = {}
    fractions: dict = {}
    volume_tests: dict = {}
    for annot, rows in case_rows.items():
        volumes[annot] = {}
        fractions[annot] = {}
        volume_tests[annot] = {}
        for label in LABEL_ORDER:
            sub = _by_label(rows, label)
            totals = _floats(sub, "total_ml")
            covered = _floats(sub, "covered_ml")
            volumes[annot][label] = {"total": describe(totals), "covered": describe(covered)}
            fractions[annot][label] = describe(_floats(sub, "obscured_fraction_pct"))
            volume_tests[annot][label] = _safe_compare(totals, covered)
    fraction_tests: dict = {}
    if "annotator1" in case_rows and "annotator2" in case_rows:
        for label in LABEL_ORDER:
            xs = _floats(_by_label(case_rows["annotator1"], label), "obscured_fraction_pct")
            ys = _floats(_by_label(case_rows["annotator2"], label), "obscured_fraction_pct")
            fraction_tests[label] = _safe_compare(xs, ys)
    agreement: dict = {}
    kinds = sorted({r["mask_kind"] for r in agreement_rows})
    for kind in kinds:
        agreement[kind] = {"dsc": {}, "ji": {}}
        kind_rows = [r for r in agreement_rows if r["mask_kind"] == kind]
        for label in LABEL_ORDER:
            sub = _by_label(kind_rows, label)
            if not sub:
                continue
            agreement[kind]["dsc"][label] = describe_quartiles(_floats(sub, "dsc"))
            agreement[kind]["ji"][label] = describe_quartiles(_floats(sub, "ji"))
    return CohortReport(
        n_cases=len(case_ids),
        case_ids=case_ids,
        exam=exam,
        volumes=volumes,
        fractions=fractions,
        agreement=agreement,
        volume_tests=volume_tests,
        fraction_tests=fraction_tests,
    )


def _test_p(node) -> float | None:
    if isinstance(node, PairedComparison):
        return node.result.p_value
    return None


def _test_name(node) -> str | None:
    if isinstance(node, PairedComparison):
        return node.chosen
    return None


def write_cohort_tables(report: CohortReport, out_dir: Path) -> list[Path]:
    """Write the four table CSVs mirroring the familiar report layout."""
    out_dir = Path(out_dir)
    paths = []

    t1 = out_dir / "table1.csv"
    rows = []
    for metric in ("pixel_spacing_mm", "num_slices", "scan_length_mm"):
        s = report.exam[metric]
        rows.append((metric, s.n, s.mean, s.sd, s.min, s.max))
    write_csv(t1, ("metric", "n", "mean", "sd", "min", "max"), rows)
    paths.append(t1)

    t2 = out_dir / "table2.csv"
    rows = []
    for kind, metrics in report.agreement.items():
        for metric in ("dsc", "ji"):
            for label in LABEL_ORDER:
                q = metrics[metric].get(label)
                if q is None:
                    continue
                rows.append((kind, metric, label, q.n, q.median, q.q1, q.q3, q.min, q.max))
    write_csv(t2, ("mask_kind", "metric", "label", "n", "median", "q1", "q3", "min", "max"),
              rows)
    paths.append(t2)

    t3 = out_dir / "table3.csv"
    rows = []
    for annot in sorted(report.volumes):
        for label in LABEL_ORDER:
            tot = report.volumes[annot][label]["total"]
            cov = report.volumes[annot][label]["covered"]
            p = _test_p(report.volume_tests[annot][label])
            rows.append((annot, label, tot.n, tot.mean, tot.sd, tot.min, tot.max,
                         cov.mean, cov.sd, cov.min, cov.max, p,
                         _test_name(report.volume_tests[annot][label])))
    write_csv(t3, ("annotator", "label", "n", "total_ml_mean", "total_ml_sd",
                   "total_ml_min", "total_ml_max", "covered_ml_mean", "covered_ml_sd",
                   "covered_ml_min", "covered_ml_max", "p_value", "test"), rows)
    paths.append(t3)

    t4 = out_dir / "table4.csv"
    rows = []
    for annot in sorted(report.fractions):
        for label in LABEL_ORDER:
            s = report.fractions[annot][label]
            p = _test_p(report.fraction_tests.get(label))
            rows.append((annot, label, s.n, s.mean, s.sd, s.min, s.max, p,
                         _test_name(report.fraction_tests.get(label))))
    write_csv(t4, ("annotator", "label", "n", "mean_pct", "sd_pct", "min_pct",
                   "max_pct", "p_value", "test"), rows)
    paths.append(t4)

    write_json(report.as_dict(), out_dir / "cohort_report.json")
    paths.append(out_dir / "cohort_report.json")
    return paths


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
