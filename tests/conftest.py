"""Shared fixtures: small environments and tables sized for fast tests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.landmarks import Landmark, _validate_curve
from repro.sim.profile import DeviceProfile
from repro.storage import BPlusTree, StorageEnv, Table

#: Small pages so tiny tables still span many pages (realistic mechanics).
SMALL_PROFILE = DeviceProfile(page_size=1024, memory_bytes=1 << 20)

#: Exact measurements the per-item operator paths recorded before they
#: were deleted: the reference of the plan-level identity tests.
REFERENCE_MEASUREMENTS = json.loads(
    (Path(__file__).parent / "data" / "reference_measurements.json").read_text()
)


@pytest.fixture
def env() -> StorageEnv:
    """Fresh small-page environment per test."""
    return StorageEnv(SMALL_PROFILE, pool_pages=64)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_table(env: StorageEnv, n_rows: int = 4096, seed: int = 7) -> Table:
    """A three-column integer table with indexable columns a, b, val."""
    generator = np.random.default_rng(seed)
    columns = {
        "a": generator.integers(0, 1 << 16, n_rows),
        "b": generator.integers(0, 1 << 20, n_rows),
        "val": generator.integers(0, 1000, n_rows),
    }
    return Table(env, "t", columns)


@pytest.fixture
def table(env: StorageEnv) -> Table:
    return make_table(env)


@pytest.fixture
def indexed_table(env: StorageEnv) -> Table:
    """Table with single-column and composite indexes pre-built."""
    t = make_table(env)
    t.create_index("idx_a", ["a"])
    t.create_index("idx_b", ["b"])
    t.create_index("idx_ab", ["a", "b"])
    t.create_index("idx_ba", ["b", "a"])
    t.create_index("idx_val", ["val"])
    return t


@pytest.fixture
def bulk_loads(monkeypatch) -> list[str]:
    """Names of the trees bulk-loaded with entries while the test runs."""
    loads: list[str] = []
    real = BPlusTree.bulk_load

    def counting(self, keys, payload, fill_factor=1.0):
        if len(keys):
            loads.append(self.name)
        return real(self, keys, payload, fill_factor)

    monkeypatch.setattr(BPlusTree, "bulk_load", counting)
    return loads


@pytest.fixture
def decoded(monkeypatch) -> list:
    """Every cell-store shard line handed to ``_decode_line`` while the
    test runs (each is parsed and digest-verified there, once)."""
    import repro.core.cellstore as module

    lines: list = []
    real = module._decode_line

    def counting(line):
        lines.append(line)
        return real(line)

    monkeypatch.setattr(module, "_decode_line", counting)
    return lines


# The flattening landmark's detector is a test oracle: the physics tests
# (graceful degradation of the improved index scan) read curves with it.
def flattening_violations(
    xs: np.ndarray, ys: np.ndarray, slope_growth_tol: float = 1.25,
    rise_tol: float = 0.02,
) -> list[Landmark]:
    """Points where the marginal cost (dy/dx) *increases* materially.

    The paper's condition: "the difference between fetching 100 and 200
    rows should not be greater than between fetching 1,000 and 1,100
    rows" — i.e. the first derivative should monotonically decrease.
    A dip (negative slope) followed by a material rise (beyond
    ``rise_tol``, mirroring the monotonicity detector's tolerance) is a
    sign-flipping derivative increase and is reported too; plateaus are
    not, so page-quantized staircase curves stay clean.
    """
    xs, ys = _validate_curve(xs, ys)
    landmarks = []
    slopes = np.diff(ys) / np.diff(xs)
    for i in range(1, slopes.size):
        if np.isnan(slopes[i]) or np.isnan(slopes[i - 1]):
            continue
        if slopes[i - 1] <= 0:
            # Dip-then-spike: the dip itself is the monotonicity
            # detector's finding; the rebound is ours.
            if slopes[i - 1] < 0 and ys[i + 1] > ys[i] * (1.0 + rise_tol):
                landmarks.append(
                    Landmark(
                        "flattening",
                        i + 1,
                        float(xs[i + 1]),
                        f"marginal cost flipped sign "
                        f"{slopes[i - 1]:.4g} -> {slopes[i]:.4g} s/unit",
                    )
                )
            continue
        if slopes[i] > slopes[i - 1] * slope_growth_tol:
            landmarks.append(
                Landmark(
                    "flattening",
                    i + 1,
                    float(xs[i + 1]),
                    f"marginal cost grew {slopes[i - 1]:.4g} -> {slopes[i]:.4g} s/unit",
                )
            )
    return landmarks
