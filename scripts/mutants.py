#!/usr/bin/env python3
"""Mutation gate: every catalogued mutant of src/ must fail the tests named for it.

Run from the repository root:

    python scripts/mutants.py

The catalogue, scripts/mutants.json, is a JSON list. Each entry gives
a name, a file under src/, an exact old text that must occur in that
file exactly once, the new text that replaces it, and the tests
(pytest node ids) that must fail once it is replaced. The gate first
checks every old text, so a refactor that moves one has to update the
catalogue on purpose. Then, in a temporary copy of src/, it runs all
the named tests unmutated (they must pass), and each mutant in turn:
apply it, run ``python -m pytest -x -q`` on its tests with the copy
first on PYTHONPATH, and put the file back. A mutant is killed when
pytest reports a failed test (exit 1); any other outcome, a pass
included, fails the gate. Exit status 0 means every mutant was killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load() -> list[dict]:
    """The catalogue's entries, once each old text occurs exactly once in its file."""
    entries = json.loads((REPO / "scripts" / "mutants.json").read_text(encoding="utf-8"))
    stale = []
    for entry in entries:
        count = (REPO / "src" / entry["file"]).read_text(encoding="utf-8").count(entry["old"])
        if count != 1:
            stale.append(f"{entry['name']}: old text found {count} times in {entry['file']}")
    if stale:
        raise SystemExit("mutants: stale catalogue\n" + "\n".join(stale))
    return entries


def pytest(src: Path, tests: list[str], *flags: str) -> int:
    """pytest's exit code on tests, importing lungcover from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", *flags, "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    entries = load()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({test for entry in entries for test in entry["tests"]})
        if pytest(src, every_test) != 0:
            print("mutants: the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        failed = 0
        for entry in entries:
            path = src / entry["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(entry["old"], entry["new"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = pytest(src, entry["tests"], "-x")
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "killed" if code == 1 else ("SURVIVED" if code == 0 else f"ERROR {code}")
            failed += code != 1
            print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {entry['name']}",
                  flush=True)
    print(f"mutants: {len(entries) - failed} of {len(entries)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
