import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Array-heavy strategies vary a lot in per-example cost; wall-clock
# deadlines just make them flaky.
settings.register_profile(
    "lungcover",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lungcover")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


@pytest.fixture
def legacy_u8():
    """Write a 3D mask header as the "u8" format written before "u1y": one 0/1 byte per voxel.

    legacy_u8(src, dst) reads the mask at header src and writes dst and
    its payload dst.raw; dst may be src.
    """
    import json

    from lungcover.io import load_mask3d

    def write(src, dst):
        header = json.loads(src.read_text(encoding="utf-8"))
        payload = np.ascontiguousarray(load_mask3d(src).bits).view(np.uint8).tobytes()
        header.update(dtype="u8", data=dst.stem + ".raw")
        dst.with_suffix(".raw").write_bytes(payload)
        dst.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    return write
