#!/usr/bin/env python3
"""Wall time, peak memory and CPU time of fresh `lungcover` processes, for two source trees.

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
quartiles of the wall time, the change of the medians, and the rounds in
which b was faster; then each tree's median peak resident set
(ru_maxrss) and user + system CPU time, both from os.wait4's rusage of
the child alone. A spawned child's ru_maxrss starts at its spawner's
peak (exec keeps the peak of the address space it replaces), so the
script also prints its own peak: a row that reads no more than that
peaked no higher.
"""

from __future__ import annotations

import argparse
import os
import resource
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
        "phantom --n 55": [*cli, "phantom", "--out", str(tmp / "desk55"), "--n", "55", "--quiet"],
        "cohort (55 desk cases)": [*cli, "cohort", str(tmp / "desk"),
                                   "--out", str(tmp / "report"), "--quiet"],
        "usage error": [*cli, "drr"],
    }


def run(src: Path, argv: list[str]) -> tuple[float, float, float]:
    """Wall time (s), ru_maxrss (MB) and user + system CPU time (s) of one child."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=quiet)
    _, _, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime  # KiB on Linux


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
        runs = {name: {"a": [], "b": []} for name in cmds}
        for k in range(args.rounds):
            for name, argv in cmds.items():
                for side in ("ab" if k % 2 == 0 else "ba"):
                    runs[name][side].append(run(getattr(args, side), argv))

    print("| fresh process | a: median [q1–q3] s | b: median [q1–q3] s | b vs a | b faster "
          "| a / b: ru_maxrss MB | a / b: user+sys s |")
    print("|---|---|---|---|---|---|---|")
    for name, r in runs.items():
        (wall_a, rss_a, cpu_a), (wall_b, rss_b, cpu_b) = zip(*r["a"]), zip(*r["b"])
        (a1, a2, a3), (b1, b2, b3) = quartiles(wall_a), quartiles(wall_b)
        faster = sum(b < a for a, b in zip(wall_a, wall_b))
        print(f"| {name} | {a2:.3f} [{a1:.3f}–{a3:.3f}] | {b2:.3f} [{b1:.3f}–{b3:.3f}] "
              f"| {100 * (b2 - a2) / a2:+.1f} % | {faster}/{args.rounds} "
              f"| {statistics.median(rss_a):.1f} / {statistics.median(rss_b):.1f} "
              f"| {statistics.median(cpu_a):.3f} / {statistics.median(cpu_b):.3f} |")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\nThis script peaked at {own:.1f} MB ru_maxrss, the floor of every child's reading.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
