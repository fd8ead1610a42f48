"""Shared pieces of the end-to-end benchmark: paths, sizes, clocks.

Everything the benchmark writes goes under ``benchmarks/e2e/.work``
inside the checkout (git-ignored, removed on exit); the program under
test is imported from the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

DEFAULT_SEED = 2009
"""The seed ``expected.json`` holds digests for."""

REQUEST_TIMEOUT_S = 120.0


def require_program() -> None:
    """Put the checkout's ``src`` on the path, or stop before measuring."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks/e2e: no program to measure: {SRC}/repro is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a CLI child: this checkout, no inherited knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


@contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, gone when the run ends."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------


def _sqrt2_axis(start: int, points: int) -> tuple[int, ...]:
    return tuple(int(round(start * 2 ** (k / 2))) for k in range(points))


@dataclass(frozen=True)
class Scale:
    """How big one run is.  ``FULL`` is what BENCHMARK.json measures;
    ``SMOKE`` exercises the same code in seconds for the tier-1 test."""

    name: str
    cli_env: tuple[tuple[str, str], ...]
    """``REPRO_BENCH_*`` knobs of the CLI child (none: the CLI defaults,
    2^17 rows, the scale its claims are calibrated for)."""
    cold_rows: int
    warm_rows: int
    min_exp_1d: int
    min_exp_2d: int
    join_rows: tuple[int, ...]
    sort_rows: tuple[int, ...]
    sort_memory: tuple[int, ...]
    probe_rows: int
    """Table rows of the fixed per-layer probes."""
    probe_min_exp: int
    lru_accesses: int
    calibration_rounds: int
    startup_samples: int

    @property
    def verified(self) -> bool:
        """Digests in expected.json are for the full scale only."""
        return self.name == "full"


FULL = Scale(
    name="full",
    cli_env=(),
    cold_rows=1 << 15,
    warm_rows=1 << 17,
    min_exp_1d=-16,
    min_exp_2d=-12,
    join_rows=_sqrt2_axis(512, 15),
    sort_rows=tuple(int(round(2048 * 2 ** (k / 3))) for k in range(13)),
    sort_memory=tuple((64 << 10) << k for k in range(8)),
    probe_rows=1 << 14,
    probe_min_exp=-8,
    lru_accesses=1 << 18,
    calibration_rounds=45,
    startup_samples=3,
)

SMOKE = Scale(
    name="smoke",
    cli_env=(
        ("REPRO_BENCH_ROWS", "4096"),
        ("REPRO_BENCH_MIN_EXP", "-3"),
        ("REPRO_BENCH_MIN_EXP_2D", "-3"),
    ),
    cold_rows=4096,
    warm_rows=4096,
    min_exp_1d=-3,
    min_exp_2d=-3,
    join_rows=_sqrt2_axis(512, 4),
    sort_rows=(2048, 4096, 8192, 16384),
    sort_memory=(256 << 10, 512 << 10, 1 << 20, 2 << 20),
    probe_rows=4096,
    probe_min_exp=-3,
    lru_accesses=1 << 14,
    calibration_rounds=1,
    startup_samples=1,
)


# ---------------------------------------------------------------------------
# clocks and counters
# ---------------------------------------------------------------------------


def calibrate(rounds: int) -> float:
    """Seconds for a fixed amount of numpy and interpreter work.

    The same work on every machine and every commit, so a row of results
    divided by this number compares across machines, and set-up time is
    never close to zero.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    values = rng.random(1 << 18)
    for _ in range(rounds):
        np.sort(values)
        np.argsort(values)
        np.cumsum(values)
        total = 0
        marks = {}
        for i in range(200_000):
            total += i * i % 7
            if not i & 1023:
                marks[i] = total
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# digests and declarations
# ---------------------------------------------------------------------------


def canonical_json(data: object) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def load_expected() -> dict:
    if not EXPECTED_JSON.is_file():
        return {}
    return json.loads(EXPECTED_JSON.read_text())
