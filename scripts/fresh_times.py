#!/usr/bin/env python3
"""Wall time of fresh `lungcover` processes, for two source trees side by side.

Run from the repository root, naming the `src` directory of each tree:

    python scripts/fresh_times.py --a ../parent/src --b src --rounds 21

Each command runs as `python -m lungcover.cli ...` in a new interpreter,
so the time includes start-up and every import, as a user's shell pays
it. In each round every command runs once per tree, in an order that
alternates between rounds. The desk cohort (55 default cases) that
`drr` and `cohort` read is made once, with tree b, in a temporary
directory. The environment is passed through unchanged; with
PYTHONDONTWRITEBYTECODE=1 every process also compiles each module it
loads. Prints one markdown row per command: each tree's median and
quartiles, the change of the medians, and the rounds in which b was
faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def commands(tmp: Path) -> dict[str, list[str]]:
    cli = [sys.executable, "-m", "lungcover.cli"]
    return {
        "import lungcover": [sys.executable, "-c", "import lungcover"],
        "drr (one desk case)": [*cli, "drr", str(tmp / "desk" / "case_000" / "volume.json"),
                                "--out", str(tmp / "case_000.pgm"), "--quiet"],
        "phantom --n 1": [*cli, "phantom", "--out", str(tmp / "one"), "--n", "1", "--quiet"],
        "cohort (55 desk cases)": [*cli, "cohort", str(tmp / "desk"),
                                   "--out", str(tmp / "report"), "--quiet"],
        "usage error": [*cli, "drr"],
    }


def run(src: Path, argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="src directory of the baseline")
    parser.add_argument("--b", type=Path, required=True, help="src directory compared to it")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, "-m", "lungcover.cli", "phantom", "--out",
                        str(tmp / "desk"), "--quiet"], check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONPATH=str(args.b.resolve())))
        cmds = commands(tmp)
        times = {name: {"a": [], "b": []} for name in cmds}
        for k in range(args.rounds):
            for name, argv in cmds.items():
                for side in ("ab" if k % 2 == 0 else "ba"):
                    times[name][side].append(run(getattr(args, side), argv))

    print("| fresh process | a: median [q1–q3] s | b: median [q1–q3] s | b vs a | b faster |")
    print("|---|---|---|---|---|")
    for name, t in times.items():
        (a1, a2, a3), (b1, b2, b3) = quartiles(t["a"]), quartiles(t["b"])
        faster = sum(b < a for a, b in zip(t["a"], t["b"]))
        print(f"| {name} | {a2:.3f} [{a1:.3f}–{a3:.3f}] | {b2:.3f} [{b1:.3f}–{b3:.3f}] "
              f"| {100 * (b2 - a2) / a2:+.1f} % | {faster}/{args.rounds} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
