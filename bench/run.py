"""lungcover benchmark: wall time of phantom, drr and cohort per workload.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0

One process drives ``lungcover.cli.main`` in-process as a closed loop
with a single caller and no extra threads. Each iteration runs
``phantom`` -> ``drr`` on every case -> ``cohort`` and checks the outputs
(see ``check_iteration``). The first iteration is a checked warm-up;
the iterations that start within ``--seconds`` after it are timed and
each step is reported as its median over them. Output bytes are compared
with the digests committed in ``bench/reference.json``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate and it holds the per-layer metrics of ``tracing.py``.
Scratch files live in ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_SAMPLES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # None: the named "default" spec. Otherwise the default spec as a JSON
    # file whose geometry is replaced by this one; {} drops the key, which
    # selects the CT-scale DEFAULT_JSON_GEOMETRY.
    geometry: dict | None
    # Stage report.json in every case directory before cohort runs.
    reuse: bool = False
    # Workloads with the same inputs share their reference digests.
    inputs: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("desk", 55, None, inputs="desk"),
    Workload("ct", 4, {}, inputs="ct"),
    Workload("coarse", 400, {"dims": [32, 32, 32], "spacing_mm": [10.0, 10.0, 10.0]},
             inputs="coarse"),
    Workload("desk-reuse", 55, None, reuse=True, inputs="desk"),
)}

STEPS = ("phantom_s", "drr_s", "cohort_s")


def _require_source() -> None:
    if not (SRC / "lungcover" / "cli.py").is_file():
        raise SystemExit(f"bench: {SRC / 'lungcover'} not found; run from a lungcover checkout")


def call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stderr)."""
    from lungcover.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--quiet"])
    return rc, err.getvalue().strip()


def case_ids(n: int) -> list[str]:
    return [f"case_{i:03d}" for i in range(n)]


# --- set-up ------------------------------------------------------------------

def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports lungcover and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lungcover"], env=env, cwd=REPO,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def write_spec(wl: Workload, seed: int, work: Path) -> str:
    """The --spec argument for phantom; JSON specs get rng_seed = seed."""
    if wl.geometry is None:
        return "default"
    from lungcover.phantom import default_spec, spec_to_dict
    doc = spec_to_dict(default_spec(rng_seed=seed))
    if wl.geometry:
        doc["geometry"] = wl.geometry
    else:
        del doc["geometry"]
    path = work / f"spec-{seed}.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def stage_reports(cohort: Path, n: int) -> dict[str, str]:
    """analyze --out <case_dir> for every case, so cohort can reuse report.json."""
    errors = {}
    for cid in case_ids(n):
        d = cohort / cid
        rc, err = call(["analyze", "--ct-right", str(d / "truth_right.json"),
                        "--ct-left", str(d / "truth_left.json"),
                        "--mask2d-right", str(d / "sota2d_right.json"),
                        "--mask2d-left", str(d / "sota2d_left.json"),
                        "--case-id", cid, "--out", str(d)])
        if rc:
            errors[cid] = err
    return errors


# --- one iteration -------------------------------------------------------------

@dataclass
class Iteration:
    steps: dict[str, float] = field(default_factory=dict)
    staging_s: float = 0.0
    failed: set[str] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    report_digest: str = ""
    drr_digest: str = ""


def run_iteration(wl: Workload, seed: int, spec: str, cohort: Path,
                  step_wrapper=contextlib.nullcontext) -> Iteration:
    """phantom -> drr on every case -> [staging] -> cohort, each step timed.

    ``step_wrapper(name)`` is entered around each timed step; the traced
    run uses it to install its wrappers only while a step runs.
    """
    it = Iteration()
    ids = case_ids(wl.n)
    # Every iteration writes into an empty directory: on ext4, renaming a
    # file over an existing one starts its writeback at once, so from the
    # second iteration on the timed steps would wait on the disk. The sync
    # commits the deletion before the clock starts.
    shutil.rmtree(cohort, ignore_errors=True)
    os.sync()

    def fail(cases, message):
        it.failed.update(cases)
        it.errors.append(message)

    with step_wrapper("phantom"):
        t0 = time.perf_counter()
        rc, err = call(["phantom", "--out", str(cohort), "--n", str(wl.n),
                        "--seed", str(seed), "--spec", spec])
        it.steps["phantom_s"] = time.perf_counter() - t0
    if rc:
        fail(ids, f"phantom exit {rc}: {err}")
        return it

    # Writeback of the previous step's output (1 GB on ct) must not land,
    # by chance, inside the next step's timing.
    os.sync()
    run_drr(wl, cohort, it, step_wrapper)
    os.sync()
    if wl.reuse:
        t0 = time.perf_counter()
        for cid, err in stage_reports(cohort, wl.n).items():
            fail([cid], f"analyze {cid}: {err}")
        it.staging_s = time.perf_counter() - t0

    run_cohort(wl, cohort, it, step_wrapper)
    return it


def run_drr(wl: Workload, cohort: Path, it: Iteration,
            step_wrapper=contextlib.nullcontext) -> None:
    """The timed drr step: one DRR per case into <cohort>/drr/."""
    with step_wrapper("drr"):
        t0 = time.perf_counter()
        for cid in case_ids(wl.n):
            rc, err = call(["drr", str(cohort / cid / "volume.json"),
                            "--out", str(cohort / "drr" / f"{cid}.pgm")])
            if rc:
                it.failed.add(cid)
                it.errors.append(f"drr {cid} exit {rc}: {err}")
        it.steps["drr_s"] = time.perf_counter() - t0


def run_cohort(wl: Workload, cohort: Path, it: Iteration,
               step_wrapper=contextlib.nullcontext) -> None:
    """The timed cohort step, then the checks of the iteration's outputs."""
    with step_wrapper("cohort"):
        t0 = time.perf_counter()
        rc, err = call(["cohort", str(cohort)])
        it.steps["cohort_s"] = time.perf_counter() - t0
    if rc:
        it.failed.update(case_ids(wl.n))
        it.errors.append(f"cohort exit {rc}: {err}")
    else:
        check_iteration(cohort, it)


# --- correctness -----------------------------------------------------------------

def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def oracle_misses(cohort: Path) -> dict[str, str]:
    """Cases whose annotator-1 obscured fraction misses the manifest oracle."""
    manifest = json.loads((cohort / "manifest.json").read_text(encoding="utf-8"))
    with open(cohort / "report" / "cases_annotator1.csv", newline="", encoding="utf-8") as fh:
        measured = {(r["case_id"], r["label"]): float(r["obscured_fraction_pct"])
                    for r in csv.DictReader(fh)}
    misses = {}
    for entry in manifest["cases"]:
        cid = entry["case_id"]
        for label in ("right", "left", "both"):
            oracle = entry["oracle_obscured_pct"][label]
            tol = entry["oracle_tolerance_pct"][label]
            got = measured.get((cid, label))
            if oracle is None or got is None:
                misses[cid] = f"{cid} {label}: measured {got}, oracle {oracle}"
            elif abs(got - oracle) > tol:
                misses[cid] = (f"{cid} {label}: measured {got} vs oracle {oracle:.4f} "
                               f"(tolerance {tol:.4f})")
    return misses


def check_iteration(cohort: Path, it: Iteration) -> None:
    """Oracle check per case, PGM shape check, then the output digests."""
    for cid, message in oracle_misses(cohort).items():
        it.failed.add(cid)
        it.errors.append("oracle miss: " + message)
    manifest = json.loads((cohort / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["cases"]:
        nx, _, nz = entry["spec"]["geometry"]["dims"]
        head = b"P5\n%d %d\n255\n" % (nx, nz)
        path = cohort / "drr" / f"{entry['case_id']}.pgm"
        pgm = path.read_bytes() if path.is_file() else b""
        if not (pgm.startswith(head) and len(pgm) == len(head) + nx * nz):
            it.failed.add(entry["case_id"])
            it.errors.append(f"{entry['case_id']}: DRR is not a {nx}x{nz} PGM")
    it.report_digest = tree_digest(cohort / "report")
    it.drr_digest = tree_digest(cohort / "drr")


def reference_digests(wl: Workload) -> dict[str, dict[str, str]]:
    """Committed digests of wl's inputs by seed: {"<seed>": {"report", "drr"}}."""
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.inputs, {})


def compare_digests(wl: Workload, seed: int, iterations: list[Iteration],
                    want: dict[str, str] | None = None) -> str | None:
    """Every iteration's report and DRR bytes must equal the reference.

    The reference is `want`, normally the committed digests of this seed;
    when `want` is None it is the first iteration's digests. Returns the
    reference report digest.
    """
    done = [it for it in iterations if it.report_digest]
    if not done:
        return None
    source = f"the reference of seed {seed}" if want else "the first iteration"
    want = want or {"report": done[0].report_digest, "drr": done[0].drr_digest}
    ids = case_ids(wl.n)
    for k, it in enumerate(done):
        if (it.report_digest, it.drr_digest) != (want["report"], want["drr"]):
            it.failed.update(ids)
            it.errors.append(f"iteration {k}: output bytes differ from {source}")
    return want["report"]


def fresh_cohort_digest(wl: Workload, cohort: Path) -> tuple[str | None, str]:
    """Recompute the cohort report without the staged report.json files."""
    for cid in case_ids(wl.n):
        (cohort / cid / "report.json").unlink(missing_ok=True)
        (cohort / cid / "report.csv").unlink(missing_ok=True)
    fresh = cohort.parent / "report_fresh"
    rc, err = call(["cohort", str(cohort), "--out", str(fresh)])
    return (None, err) if rc else (tree_digest(fresh), "")


# --- the run ----------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, traced: bool):
    """Warm-up, then timed iterations for `seconds`, then the digest checks.

    Returns (all checked iterations, timed iterations, traced flag per
    timed iteration, tracer or None, reused-equals-fresh or None).
    The warm-up runs at `seed` when bench/reference.json has its digests,
    and otherwise at a seed that has them, so every run compares output
    bytes with the committed ones.
    """
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cohort = work / "cohort"
    committed = reference_digests(wl)
    if not committed:
        raise SystemExit(f"bench: {REFERENCE.name} has no digests for inputs {wl.inputs!r}")
    check_seed = seed if str(seed) in committed else seed % len(committed)

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.check_targets()

    warmup = run_iteration(wl, check_seed, write_spec(wl, check_seed, work), cohort)
    compare_digests(wl, check_seed, [warmup], committed[str(check_seed)])
    spec = write_spec(wl, seed, work)
    timed: list[Iteration] = []
    traced_flags: list[bool] = []
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or (traced and not (True in traced_flags and False in traced_flags))):
        on = traced and len(timed) % 2 == 1
        wrapper = tracer.step if on else contextlib.nullcontext
        if on:
            tracer.begin_iteration()
        timed.append(run_iteration(wl, seed, spec, cohort, wrapper))
        traced_flags.append(on)
    every = [warmup] + timed
    reference = compare_digests(wl, seed, timed, committed.get(str(seed)))

    fresh_ok = None
    if wl.reuse and reference:
        fresh, err = fresh_cohort_digest(wl, cohort)
        fresh_ok = fresh == reference
        if not fresh_ok:
            timed[-1].failed.update(case_ids(wl.n))
            timed[-1].errors.append("reused cohort report differs from a fresh one: "
                                    + (err or f"{fresh} != {reference}"))
    shutil.rmtree(work, ignore_errors=True)
    return every, timed, traced_flags, tracer, fresh_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _require_source()
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    os.sync()  # earlier runs' writeback must not land in the set-up timing
    import_s = [_import_seconds() for _ in range(SETUP_SAMPLES)]
    import lungcover  # noqa: F401  (the in-process import the steps use)

    every, timed, flags, tracer, fresh_ok = measure(
        wl, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = wl.n * len(every) + (wl.n if fresh_ok is not None else 0)
    failed = sum(len(it.failed) for it in every) + (wl.n if fresh_ok is False else 0)
    for it in every:
        for message in it.errors[:5]:
            print("FAIL", message)
    for step in STEPS:
        samples = " ".join(f"{it.steps[step]:.4f}" for it in timed if step in it.steps)
        print(f"{step} samples: warm-up {every[0].steps.get(step, float('nan')):.4f}; "
              f"timed {samples}")
    untraced = [it for it, on in zip(timed, flags) if not on]
    staging = [it.staging_s for it in every]
    setup_s = statistics.median(import_s) + statistics.median(staging)

    print(f"workload {wl.name} seed {args.seed}: {len(every)} iterations "
          f"(1 warm-up, {len(untraced)} timed untraced, {len(timed) - len(untraced)} traced)")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} cases)")
    if fresh_ok is not None:
        print(f"reused cohort report equals a fresh one: {fresh_ok}")

    if args.trace:
        metrics = tracer.metrics(timed, flags)
        tracer.write_jsonl(WORK / "traces" / f"{wl.name}-seed{args.seed}.jsonl")
        for line in tracer.summary_lines(timed, flags):
            print(line)
    else:
        metrics = {"setup_s": (setup_s, "s")}
        for step in STEPS:
            values = [it.steps[step] for it in untraced if step in it.steps]
            if not values:
                raise SystemExit(f"bench: no {step} step completed; see FAIL lines above")
            metrics[step] = (statistics.median(values), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
