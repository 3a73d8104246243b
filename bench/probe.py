"""Machine probe: memory copy bandwidth and the analyze_case input roofline.

Run from the repository root:

    python3 bench/probe.py

Prints the copy bandwidth of numpy arrays four times the last-level
cache reported in sysfs, so the copy streams from and to memory, and the
computed input bytes of one analyze_case call at each workload's grid
(taken from run.WORKLOADS and lungcover's specs) with the voxel rate
that bandwidth would allow if those inputs were read once. The numbers
describe the machine; they are not regression metrics. Memory use is
twice the array size (two arrays of 4 x LLC).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

import run

MIB = 2**20
REPEATS = 5


def last_level_cache_mib() -> float:
    """Largest cache size the kernel reports for cpu0, in MiB."""
    sizes = []
    for f in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = f.read_text().strip()
        scale = {"K": 1 / 1024, "M": 1.0}.get(text[-1], 1 / MIB)
        sizes.append(float(text.rstrip("KM")) * scale)
    if not sizes:
        raise SystemExit("probe: sysfs reports no cache size for cpu0")
    return max(sizes)


def copy_bandwidth(nbytes: int) -> list[float]:
    """Bytes moved per second (read + write) of np.copyto, per repeat."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.zeros(nbytes, dtype=np.uint8)
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * nbytes / (time.perf_counter() - t0))
    return rates


def workload_dims(wl: run.Workload) -> tuple[int, int, int]:
    """The grid a workload's phantom step generates."""
    from lungcover.phantom import DEFAULT_JSON_GEOMETRY, default_spec
    if wl.geometry is None:
        g = default_spec().geometry
    elif not wl.geometry:
        g = DEFAULT_JSON_GEOMETRY
    else:
        return tuple(wl.geometry["dims"])
    return g.nx, g.ny, g.nz


def main() -> None:
    run._require_source()
    sys.path.insert(0, str(run.SRC))
    llc = last_level_cache_mib()
    size = int(4 * llc * MIB)
    rates = copy_bandwidth(size)
    bw = statistics.median(rates)
    print(f"last-level cache {llc:.0f} MiB; copy arrays {size / MIB:.0f} MiB each")
    print(f"copy bandwidth (read+write): median {bw / 1e9:.2f} GB/s, "
          f"best {max(rates) / 1e9:.2f} GB/s over {REPEATS} copies")
    # analyze_case reads two 3D bool masks and two 2D bool masks.
    for name, wl in run.WORKLOADS.items():
        nx, ny, nz = workload_dims(wl)
        per_call = 2 * nx * ny * nz + 2 * nx * nz
        print(f"{name}: analyze_case input bytes per call (computed) {per_call}; "
              f"read once at {bw / 1e9:.2f} GB/s that is "
              f"{nx * ny * nz * bw / per_call:.3g} voxel/s")


if __name__ == "__main__":
    main()
