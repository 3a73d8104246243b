"""Write bench/reference.json: the committed output digests of every workload input.

Run from the repository root after a deliberate change of the program's
output bytes, and commit the result with that change:

    python3 bench/make_reference.py

For each set of workload inputs (desk, ct, coarse) and each seed
0..SEEDS-1 it runs one untimed benchmark iteration (phantom, drr on every
case, cohort) and records the SHA-256 digests of its report/ and drr/
trees. An iteration that fails a check (a step exits non-zero, an
oracle misses, a DRR is malformed) is not recorded: the script stops
with exit 1 and writes nothing.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = 32


def main() -> int:
    run._require_source()
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "make_reference"
    table: dict[str, dict[str, dict[str, str]]] = {}
    for wl in run.WORKLOADS.values():
        if wl.inputs in table:
            continue
        table[wl.inputs] = {}
        for seed in range(SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            it = run.run_iteration(wl, seed, run.write_spec(wl, seed, work), work / "cohort")
            if it.failed:
                print(f"{wl.inputs} seed {seed}: {len(it.failed)} cases failed: {it.errors[:3]}")
                return 1
            table[wl.inputs][str(seed)] = {"report": it.report_digest, "drr": it.drr_digest}
            print(f"{wl.inputs} seed {seed}: {it.report_digest[:16]} {it.drr_digest[:16]}",
                  flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
