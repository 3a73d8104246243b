"""Negative self-test of the benchmark's correctness accounting.

Run from the repository root:

    python3 bench/selftest.py

On a 3-case cohort at 32^3 voxels it runs the benchmark's own iteration
and checks once cleanly, then once after each of five corruptions, and
requires failed_frac = 0 for the clean run and failed_frac > 0 for every
corruption. Output bytes are compared with the clean run's.

- a volume payload cut short before drr (drr exits non-zero for that
  case, cohort still succeeds and the missing DRR is counted);
- a mask payload byte set to 2 (cohort must exit non-zero);
- one lung voxel cleared in a truth mask (report bytes change);
- a staged report.json with an obscured fraction nudged by 0.01 points
  (report bytes change, the oracle still passes);
- a staged report.json with an obscured fraction set to 99% (oracle miss).

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

WL = run.Workload("selftest", 3, {"dims": [32, 32, 32], "spacing_mm": [10.0, 10.0, 10.0]},
                  inputs="selftest")
SEED = 0


def main() -> int:
    run._require_source()
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cohort = work / "cohort"
    spec = run.write_spec(WL, SEED, work)

    def fresh_cohort():
        for report in cohort.glob("case_*/report.*"):
            report.unlink()
        return run.run_iteration(WL, SEED, spec, cohort)

    def cohort_only():
        it = run.Iteration()
        run.run_cohort(WL, cohort, it)
        return it

    def lung_voxel_cleared():
        fresh_cohort()
        raw = cohort / "case_001" / "truth_left.raw"
        data = bytearray(raw.read_bytes())
        data[data.index(1)] = 0
        raw.write_bytes(bytes(data))
        return cohort_only()

    def volume_truncated():
        fresh_cohort()
        shutil.rmtree(cohort / "drr")
        raw = cohort / "case_001" / "volume.raw"
        raw.write_bytes(raw.read_bytes()[:-1])
        it = run.Iteration()
        run.run_drr(WL, cohort, it)
        run.run_cohort(WL, cohort, it)
        return it

    def byte_two():
        fresh_cohort()
        raw = cohort / "case_001" / "truth_right.raw"
        data = bytearray(raw.read_bytes())
        data[0] = 2
        raw.write_bytes(bytes(data))
        return cohort_only()

    def edited_report(delta=None, value=None):
        def scenario():
            fresh_cohort()
            run.stage_reports(cohort, WL.n)
            path = cohort / "case_002" / "report.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            right = doc["labels"]["right"]
            right["obscured_fraction_pct"] = (value if value is not None
                                              else right["obscured_fraction_pct"] + delta)
            path.write_text(json.dumps(doc), encoding="utf-8")
            return cohort_only()
        return scenario

    def staged_unchanged():
        fresh_cohort()
        run.stage_reports(cohort, WL.n)
        return cohort_only()

    scenarios = [
        ("clean run", fresh_cohort, False),
        ("reused report.json, unchanged", staged_unchanged, False),
        ("volume payload cut short before drr", volume_truncated, True),
        ("mask byte set to 2", byte_two, True),
        ("lung voxel cleared", lung_voxel_cleared, True),
        ("report.json fraction +0.01 points", edited_report(delta=0.01), True),
        ("report.json fraction set to 99%", edited_report(value=99.0), True),
    ]
    ok = True
    clean = None
    for name, scenario, expect_failure in scenarios:
        it = scenario()
        clean = clean or {"report": it.report_digest, "drr": it.drr_digest}
        run.compare_digests(WL, SEED, [it], clean)
        frac = len(it.failed) / WL.n
        passed = (frac > 0) == expect_failure
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: failed_frac {frac:.3g}"
              + (f" ({it.errors[0][:120]})" if it.errors else ""))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
