"""Every example script must run end-to-end (at tiny scale), and so must
the README's "write your own scenario" and observability blocks."""

import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenario import SCENARIO_TYPES

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_EXAMPLE_ROWS", "2048")
    monkeypatch.setenv("REPRO_EXAMPLE_MIN_EXP", "-4")
    monkeypatch.setenv("REPRO_EXAMPLE_SORT_MEMORY", str(256 * 1024))
    monkeypatch.chdir(tmp_path)  # artifacts land in tmp


def test_examples_exist():
    assert "quickstart.py" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 3


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_quickstart_writes_svg(tmp_path):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    assert (tmp_path / "quickstart_fig1.svg").exists()


def test_two_predicate_study_writes_artifacts(tmp_path):
    runpy.run_path(str(EXAMPLES_DIR / "two_predicate_study.py"), run_name="__main__")
    out_dir = tmp_path / "two_predicate_out"
    names = {p.name for p in out_dir.iterdir()}
    assert {"fig4.svg", "fig5.svg", "fig7.svg", "fig8.svg", "fig9.svg", "fig10.svg"} <= names


def test_readme_custom_scenario_block_runs_serial_and_parallel():
    """The extension point's documentation is executed, not trusted."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("### Defining a custom scenario"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {"__name__": "readme_custom_scenario"}
    try:
        exec(compile(block, "README.md", "exec"), namespace)
    finally:
        SCENARIO_TYPES.pop("hash-memory", None)  # leave the registry as found
    scenario, serial = namespace["scenario"], namespace["mapdata"]
    parallel = namespace["parallel"]

    assert serial.plan_ids == ["A.cover_hash_rids", "A.cover_hash_index"]
    assert [axis.name for axis in serial.axes] == ["memory_bytes"]
    assert serial.grid_shape == (3,) and not serial.aborted.any()
    # The swept knob matters: both hash plans get cheaper with memory.
    assert np.all(serial.times[:, 0] > serial.times[:, -1])
    # Everything but plan ids and cells came from the base class.
    assert scenario.spec().params == {
        "axes": [["memory_bytes", [65536.0, 1048576.0, 4194304.0]]],
        "selectivity": 0.25,
    }
    assert list(serial.meta) == [
        "sweep", "selectivity", "budget_seconds", "systems", "n_rows_table",
        "scenario",
    ]
    # ... and the process pool measured the same map, bit for bit.
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times)
    assert np.array_equal(parallel.rows, serial.rows)
    assert list(parallel.meta.items()) == list(serial.meta.items())


def test_readme_observability_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Observability"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {"__name__": "readme_observability"}
    exec(compile(block, "README.md", "exec"), namespace)
    map_data, profiles = namespace["map_data"], namespace["profiles"]
    assert len(profiles) == map_data.times.size
    # Spill seconds appear exactly where the build side outgrew memory,
    # and account for nearly all of those cells' measured time.
    spill, measured = namespace["spill"], map_data.times_for("join.hash.graceful")
    assert np.isnan(spill[0]).all() and not np.isnan(spill[1]).any()
    assert np.all(spill[1] > 0.9 * measured[1])
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert len(trace["traceEvents"]) > len(profiles)


def test_documents_name_only_files_that_exist():
    """A path under benchmarks/, examples/ or tools/ that a document tells
    the reader (or CI) to run is in the checkout."""
    missing = []
    for document in (
        "README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"
    ):
        named = set(
            re.findall(
                r"\b(?:benchmarks|examples|tools)/[\w./-]*\w",
                (ROOT / document).read_text(),
            )
        )
        assert named, f"{document} names no file; has the pattern gone stale?"
        missing += [
            (document, path)
            for path in sorted(named)
            if not (ROOT / path).exists()
        ]
    assert not missing
