"""What really happens to the stores: faults injected on purpose."""

from repro.bench import cli
from repro.bench.harness import BenchConfig
from repro.core.cellstore import CellStore, measurement_key
from repro.service import JobManager

RECORD = {"s": 1.0, "a": False, "r": 1}


def test_append_after_a_torn_write_keeps_old_and_new_records(tmp_path, caplog):
    """A writer killed mid-append leaves half a line.  The next append
    starts on a fresh line, so the fragment is one corrupt line — skipped,
    counted, logged — and every record before and after it still answers;
    glued onto the fragment, the new record was lost and every later
    process refused the store."""
    old, new = (measurement_key({"k": k}) for k in ("old", "new"))
    while old[0] != new[0]:  # the two must share a shard
        new = measurement_key({"k": new})
    CellStore(tmp_path).put_many([(old, RECORD)])
    shard = next(tmp_path.glob("cells-*.jsonl"))
    whole = shard.read_bytes()
    with shard.open("ab") as fh:
        fh.write(whole[: len(whole) // 2])  # killed here
    writer = CellStore(tmp_path)
    assert writer.get(old) == RECORD and writer.corrupt_lines == 0  # a tail, so far
    writer.put_many([(new, {**RECORD, "s": 2.0})])
    for store in (writer, CellStore(tmp_path)):
        store.refresh()
        assert store.get(old) == RECORD
        assert store.get(new) == {**RECORD, "s": 2.0}
        assert store.corrupt_lines == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"corrupt cell-store shard {shard} (line 2): skipped; "
        "compact() drops damaged entries"
    ] * 2
    assert writer.compact() == {"kept": 2, "superseded": 0, "corrupt": 1}
    assert CellStore(tmp_path).corrupt_lines == 0


def test_a_damaged_store_is_counted_on_every_front_door(tmp_path, capsys):
    """The CLI's summary line and the service's ``/metrics`` say how many
    lines were skipped; the maps are those of an undamaged store."""
    cells = tmp_path / "cells"
    flags = ["--scenario", "join", "--rows", "512", "--cell-cache", str(cells), "--quiet"]
    assert cli.main([str(tmp_path / "cold"), *flags]) == 0
    assert "corrupt" not in capsys.readouterr().out
    torn = sorted(cells.glob("cells-*.jsonl"))[:2]
    for shard in torn:
        with shard.open("ab") as fh:
            fh.write(b'{"k": "torn')
    assert cli.main([str(tmp_path / "warm"), *flags]) == 0
    out = capsys.readouterr().out
    assert "25/25 cells from store (100% hit rate)" in out
    assert out.rstrip().endswith("entries total")  # tails, not yet lines
    with torn[0].open("ab") as fh:
        fh.write(b"\n")
    assert cli.main([str(tmp_path / "again"), *flags]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", 1 corrupt lines skipped")
    assert (tmp_path / "again" / "scenario_join.json").read_bytes() == (
        tmp_path / "cold" / "scenario_join.json"
    ).read_bytes()

    manager = JobManager(BenchConfig(n_rows=512, cell_cache_dir=str(cells)), workers=1)
    try:
        assert "repro_cellstore_corrupt_lines_total 0\n" in manager.metrics.render()
        len(manager.cell_store)  # the first read is the scan
        assert "repro_cellstore_corrupt_lines_total 1\n" in manager.metrics.render()
    finally:
        manager.close()
