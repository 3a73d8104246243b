"""Per-layer spans for the traced benchmark run.

The tracer wraps the functions ``lungcover.cli`` calls, under the names
the CLI resolves at call time (plus the three names ``reporting`` calls
internally), only while a timed step runs. Each call records a span:
name, start, end, parent and a few counters. Spans stay in memory and
are written as JSON lines at the end of the run.

A span's self time is its duration minus that of its child spans; a
layer's self time is the sum over its spans. The layer is the part of
the span name before the first dot.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path


def _nbytes_arg(attr):
    return lambda args, result: {"bytes": getattr(args[0], attr).nbytes}


def _nbytes_result(attr):
    def counters(args, result):
        return {"bytes": getattr(result, attr).nbytes, "path": os.path.abspath(args[0])}
    return counters


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _case_voxels(args, result):
    g = result.spec.geometry
    return {"voxels": g.nx * g.ny * g.nz}


def _drr_voxels(args, result):
    return {"voxels": args[0].values.size}


def _analyze_counters(args, result):
    return {"voxels": args[0].bits.size,
            "input_bytes": sum(m.bits.nbytes for m in args[:4])}


def _reuse_hit(args, result):
    return {"hit": (Path(args[0]) / args[1]).exists()}


# (module, attribute, span name, counters(args, result) -> dict or None)
TARGETS = (
    ("cli", "cmd_phantom", "cli.phantom", None),
    ("cli", "cmd_drr", "cli.drr", None),
    ("cli", "cmd_cohort", "cli.cohort", None),
    ("cli", "cohort_case", "phantom.cohort_case", _case_voxels),
    ("cli", "analytic_obscured_fraction", "phantom.analytic_obscured_fraction", None),
    ("cli", "oracle_tolerance_pct", "phantom.oracle_tolerance_pct", None),
    ("cli", "save_volume", "io.save_volume", _nbytes_arg("values")),
    ("cli", "save_mask3d", "io.save_mask3d", _nbytes_arg("bits")),
    ("cli", "save_mask2d", "io.save_mask2d", _nbytes_arg("bits")),
    ("cli", "save_pgm", "io.save_pgm", _nbytes_arg("pixels")),
    ("cli", "write_json", "io.write_json", _file_size),
    ("cli", "load_volume", "io.load_volume", _nbytes_result("values")),
    ("cli", "load_mask3d", "io.load_mask3d", _nbytes_result("bits")),
    ("cli", "load_mask2d", "io.load_mask2d", _nbytes_result("bits")),
    ("cli", "render_drr", "projection.render_drr", _drr_voxels),
    ("cli", "analyze_case", "concordance.analyze_case", _analyze_counters),
    ("cli", "agreement", "concordance.agreement", None),
    ("cli", "union2d", "concordance.union2d", None),
    ("cli", "_case_report", "reporting.case_report", _reuse_hit),
    ("cli", "report_from_json", "reporting.report_from_json", None),
    ("cli", "write_csv", "reporting.write_csv", None),
    ("cli", "read_csv", "reporting.read_csv", None),
    ("cli", "build_cohort_report", "reporting.build_cohort_report", None),
    ("cli", "write_cohort_tables", "reporting.write_cohort_tables", None),
    ("reporting", "paired_compare", "stats.paired_compare", None),
    ("reporting", "write_csv", "reporting.write_csv", None),
    ("reporting", "write_json", "reporting.write_json", None),
)

# Called only when a cohort finds a report.json to reuse.
OPTIONAL = {"reporting.report_from_json"}
TRACEMALLOC = {"concordance.analyze_case"}
LAYERS = ("step", "cli", "phantom", "io", "projection", "concordance", "stats", "reporting")


class TraceTargetMissing(RuntimeError):
    pass


def _module(name: str):
    return importlib.import_module("lungcover." + name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._iteration = -1

    def check_targets(self) -> None:
        """Fail loudly when the CLI no longer resolves a traced name."""
        for mod, attr, _, _ in TARGETS:
            if not callable(getattr(_module(mod), attr, None)):
                raise TraceTargetMissing(f"lungcover.{mod}.{attr} no longer exists; "
                                         "update bench/tracing.py TARGETS")

    def begin_iteration(self) -> None:
        self._iteration += 1

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "iteration": self._iteration, "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _wrap(self, fn, name, counters):
        malloc = name in TRACEMALLOC

        def wrapper(*args, **kwargs):
            span = self._open(name)
            if malloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if malloc:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counters is not None:
                span.update(counters(args, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def step(self, step_name: str):
        """Install every wrapper and open a root span for one timed step."""
        saved = []
        for mod, attr, name, counters in TARGETS:
            module = _module(mod)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counters))
        span = self._open("step." + step_name)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # --- metrics ----------------------------------------------------------------

    def _iteration_spans(self, k: int) -> list[dict]:
        spans = [s for s in self.spans if s["iteration"] == k]
        called = {s["name"] for s in spans}
        missing = {t[2] for t in TARGETS} - called - OPTIONAL
        if missing:
            raise TraceTargetMissing(
                f"traced names never called: {sorted(missing)}; lungcover.cli no "
                "longer reaches them, update bench/tracing.py TARGETS")
        return spans

    def metrics(self, timed, flags) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: the median over traced iterations of each value."""
        per_iter = [iteration_metrics(self._iteration_spans(k))
                    for k in range(self._iteration + 1)]
        out = {name: (statistics.median(m[name][0] for m in per_iter), unit)
               for name, (_, unit) in per_iter[0].items()}
        out["trace.overhead_pct"] = (overhead_pct(timed, flags), "%")
        return out

    def summary_lines(self, timed, flags) -> list[str]:
        spans = self._iteration_spans(0)
        selfs = self_times(spans)
        lines = [f"layer self time (traced iteration 0): {layer} {selfs.get(layer, 0.0):.4f} s"
                 for layer in LAYERS]
        for name in sorted({s["name"] for s in spans}):
            durs = [_dur(s) for s in spans if s["name"] == name]
            lines.append(f"span {name}: {len(durs)} calls, {sum(durs):.4f} s, "
                         f"{1000.0 * sum(durs) / len(durs):.3f} ms/call")
        analyze = [s for s in spans if s["name"] == "concordance.analyze_case"]
        per_call = analyze[0]["input_bytes"]
        busy = sum(_dur(s) for s in analyze)
        lines.append(f"concordance input bytes per analyze_case call (computed): {per_call} B")
        lines.append("concordance input bytes/s (computed, inputs read once): "
                     f"{per_call * len(analyze) / busy:.4g} B/s")
        same = len({it.report_digest for it in timed if it.report_digest}) == 1
        lines.append(f"traced iterations wrote the same report bytes as untraced: {same}")
        return lines


def _dur(span) -> float:
    return span["end"] - span["start"]


def _child_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> summed duration of its direct children."""
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    return child


def self_times(spans: list[dict]) -> dict[str, float]:
    """Layer -> sum over its spans of duration minus child durations."""
    child = _child_time(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + _dur(s) - child.get(s["id"], 0.0)
    return out


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def iteration_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    child = _child_time(spans)

    def pick(*names):
        return [s for n in names for s in by.get(n, [])]

    def total(*names):
        return sum(_dur(s) for s in pick(*names))

    def own(*names):
        return sum(_dur(s) - child.get(s["id"], 0.0) for s in pick(*names))

    cases = pick("phantom.cohort_case")
    case_ms = [1000.0 * _dur(s) for s in cases]
    case_s = total("phantom.cohort_case")
    saves = pick("io.save_volume", "io.save_mask3d", "io.save_mask2d", "io.save_pgm",
                 "io.write_json")
    loads = pick("io.load_volume", "io.load_mask3d", "io.load_mask2d")
    # A file counts once per subcommand that loads it.
    by_id = {s["id"]: s for s in spans}

    def top(s):
        while s["parent"] is not None and not by_id[s["parent"]]["name"].startswith("step."):
            s = by_id[s["parent"]]
        return s["id"]

    unique = len({(top(s), s["path"]) for s in loads})
    drr = pick("projection.render_drr")
    drr_s = total("projection.render_drr")
    analyze = pick("concordance.analyze_case")
    analyze_ms = [1000.0 * _dur(s) for s in analyze]
    analyze_s = total("concordance.analyze_case")
    reports = pick("reporting.case_report")
    return {
        "phantom.case_s": (case_s, "s"),
        "phantom.case_ms_p50": (_quantile(case_ms, 50), "ms"),
        "phantom.case_ms_p90": (_quantile(case_ms, 90), "ms"),
        "phantom.voxels_per_s": (sum(s["voxels"] for s in cases) / case_s, "voxel/s"),
        "phantom.oracle_s": (total("phantom.analytic_obscured_fraction",
                                   "phantom.oracle_tolerance_pct"), "s"),
        "io.save_s": (sum(_dur(s) for s in saves), "s"),
        "io.save_calls": (len(saves), "count"),
        "io.save_bytes": (sum(s["bytes"] for s in saves), "B"),
        "io.load_s": (sum(_dur(s) for s in loads), "s"),
        "io.load_calls": (len(loads), "count"),
        "io.load_bytes": (sum(s["bytes"] for s in loads), "B"),
        "io.load_unique_ratio": (unique / len(loads), "ratio"),
        "projection.drr_s": (drr_s, "s"),
        "projection.drr_voxels_per_s": (sum(s["voxels"] for s in drr) / drr_s, "voxel/s"),
        "concordance.analyze_s": (analyze_s, "s"),
        "concordance.analyze_calls": (len(analyze), "count"),
        "concordance.analyze_ms_p50": (_quantile(analyze_ms, 50), "ms"),
        "concordance.analyze_ms_p90": (_quantile(analyze_ms, 90), "ms"),
        "concordance.voxels_per_s": (sum(s["voxels"] for s in analyze) / analyze_s, "voxel/s"),
        "concordance.peak_mb": (max(s["peak_bytes"] for s in analyze) / 2**20, "MB"),
        "concordance.agreement_s": (total("concordance.agreement", "concordance.union2d"), "s"),
        "concordance.agreement_calls": (len(pick("concordance.agreement")), "count"),
        "stats.compare_s": (total("stats.paired_compare"), "s"),
        "stats.compare_calls": (len(pick("stats.paired_compare")), "count"),
        "reporting.build_s": (own("reporting.build_cohort_report"), "s"),
        "reporting.csv_s": (total("reporting.write_csv", "reporting.read_csv"), "s"),
        "reporting.files_written": (len(pick("reporting.write_csv", "reporting.write_json")),
                                    "count"),
        "reporting.reuse_s": (own("reporting.case_report")
                              + total("reporting.report_from_json"), "s"),
        "cli.reuse_ratio": (sum(s["hit"] for s in reports) / len(reports), "ratio"),
        "cli.self_s": (own("cli.phantom", "cli.drr", "cli.cohort"), "s"),
    }


def overhead_pct(timed, flags) -> float:
    """Traced vs untraced median wall time of the timed steps, in percent."""
    def wall(it):
        return sum(it.steps.values())
    plain = statistics.median(wall(it) for it, on in zip(timed, flags) if not on)
    traced = statistics.median(wall(it) for it, on in zip(timed, flags) if on)
    return 100.0 * (traced - plain) / plain
