"""Unit tests for tables and secondary indexes."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.executor.context import ExecContext
from repro.executor.plans import TableScanNode
from repro.executor.predicates import ColumnRange, apply_predicates
from repro.sim.profile import DeviceProfile
from repro.storage import BPlusTree, StorageEnv, Table
from repro.storage.bitmap import dedupe_sorted
from tests.conftest import SMALL_PROFILE, make_table


def test_table_rejects_empty_columns(env):
    with pytest.raises(StorageError):
        Table(env, "t", {})


def test_table_rejects_ragged_columns(env):
    with pytest.raises(StorageError):
        Table(env, "t", {"a": np.arange(3), "b": np.arange(4)})


def test_row_bytes_inferred(env):
    table = Table(env, "t", {"a": np.arange(10, dtype=np.int64)})
    assert table.row_bytes == 24 + 8


def test_geometry(env, table):
    assert table.n_rows == 4096
    layout = BPlusTree(env, "layout", entry_bytes=table.row_bytes).bulk_load(
        np.arange(table.n_rows), table.columns
    )
    assert table.n_pages == layout.flat.n_leaves
    assert table.n_pages == -(-table.n_rows // layout.leaf_capacity)


def test_column_access(table):
    assert table.column("a").size == table.n_rows
    with pytest.raises(StorageError):
        table.column("nope")


def test_pages_of_rids_monotone(table):
    rids = np.arange(table.n_rows)
    pages = table.pages_of_rids(rids)
    assert np.all(np.diff(pages) >= 0)
    assert pages[0] == 0
    assert pages[-1] == table.n_pages - 1


def test_pages_of_rids_out_of_range(table):
    with pytest.raises(StorageError):
        table.pages_of_rids(np.array([table.n_rows]))


def test_gather_matches_columns(table, rng):
    rids = rng.integers(0, table.n_rows, 100)
    out = table.gather(rids, ["a", "val"])
    assert np.array_equal(out["a"], table.column("a")[rids])
    assert np.array_equal(out["val"], table.column("val")[rids])


def test_gather_all_columns_by_default(table):
    out = table.gather(np.array([0, 1]))
    assert set(out) == set(table.columns)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=3000),
    page_size=st.integers(min_value=32, max_value=8192),
    rid_dtype=st.sampled_from([np.int32, np.int64]),
    data=st.data(),
)
def test_arithmetic_data_pages_are_a_laid_out_clustered_index(
    n_rows, page_size, rid_dtype, data
):
    """What a table computes of its data pages is what a clustered
    B+-tree bulk-loaded over its row ids, with its row bytes, stores:
    page numbers and their dtype, a sorted fetch's page sweep, gathered
    values, and a table scan's clock, disk statistics and rows."""
    generator = np.random.default_rng(n_rows)
    columns = {
        "a": generator.integers(0, 50, n_rows),
        "b": generator.integers(0, 1000, n_rows).astype(np.int32),
    }
    profile = DeviceProfile(page_size=page_size)
    table = Table(StorageEnv(profile, pool_pages=8), "t", columns)
    # The leaf level every table laid out before its pages were
    # arithmetic.  It is its environment's first file, as the table's
    # data file is, so the two have one file id.
    layout_env = StorageEnv(profile, pool_pages=8)
    layout = BPlusTree(layout_env, "t.clustered", entry_bytes=table.row_bytes)
    layout.bulk_load(np.arange(n_rows, dtype=np.int64), table.columns)
    assert layout.handle == table.handle
    flat = layout.flat
    assert table.n_pages == flat.n_leaves

    rids = np.array(
        data.draw(st.lists(st.integers(0, n_rows - 1), max_size=300))
        if n_rows
        else [],
        dtype=rid_dtype,
    )
    pages = table.pages_of_rids(rids)
    expected = flat.leaf_pages[flat.leaf_index_of(rids)]
    assert pages.dtype == expected.dtype and np.array_equal(pages, expected)
    ordered = np.sort(rids)
    pages = table.distinct_pages_of_sorted_rids(ordered)
    expected = flat.leaf_pages[dedupe_sorted(flat.leaf_index_of(ordered))]
    assert pages.dtype == expected.dtype and np.array_equal(pages, expected)
    gathered = table.gather(rids)
    assert list(gathered) == list(flat.payload)
    for name, values in gathered.items():
        expected = flat.payload[name][rids]
        assert values.dtype == expected.dtype
        assert np.array_equal(values, expected)

    # A scan charges the layout's leaf scan (BPlusTree.scan_all) and the
    # node's per-row and per-predicate CPU.
    a_lo, a_hi = sorted(data.draw(st.tuples(st.integers(0, 49), st.integers(0, 49))))
    predicates = [
        ColumnRange("a", a_lo, a_hi),
        ColumnRange("b", 0, data.draw(st.integers(0, 999))),
    ]
    result = TableScanNode(table, predicates, project=["b"]).execute(
        ExecContext(table.env)
    )
    ctx = ExecContext(layout_env)
    layout.scan_all()
    mask = apply_predicates(flat.payload, predicates)
    count = int(np.count_nonzero(mask))
    ctx.charge(n_rows, profile.cpu_row)
    ctx.charge(n_rows * len(predicates), profile.cpu_predicate)
    ctx.charge(count, profile.cpu_row)
    assert table.env.clock.now.hex() == layout_env.clock.now.hex()
    assert table.env.disk.stats == layout_env.disk.stats
    assert result.n_rows == count
    assert np.array_equal(result.rids, np.flatnonzero(mask))
    assert list(result.columns) == ["b", "a"]
    for name, values in result.columns.items():
        assert np.array_equal(values, flat.payload[name][result.rids])


def test_create_index_and_lookup(indexed_table):
    index = indexed_table.indexes["idx_a"]
    assert index.key_columns == ("a",)
    lo, hi = index.key_range_for({"a": (100, 500)})
    keys, rids = index.read_range(lo, hi)
    mask = (indexed_table.column("a") >= 100) & (indexed_table.column("a") <= 500)
    assert keys.size == mask.sum()
    assert set(rids.tolist()) == set(np.flatnonzero(mask).tolist())


def test_duplicate_index_name_rejected(indexed_table):
    with pytest.raises(StorageError):
        indexed_table.create_index("idx_a", ["a"])


def test_an_empty_table_can_be_indexed(env):
    table = Table(env, "t", {"a": np.empty(0, dtype=np.int64)})
    assert table.create_index("idx", ["a"]).codec.bits == (1,)


def test_negative_column_cannot_be_indexed(env):
    table = Table(env, "t", {"a": np.array([-1, 2, 3])})
    with pytest.raises(StorageError):
        table.create_index("idx", ["a"])


def test_index_is_laid_out_by_its_first_reader(table, bulk_loads):
    idx_a = table.create_index("idx_a", ["a"])
    idx_b = table.create_index("idx_b", ["b"])
    # Creating an index, naming it, asking for key ranges and reading
    # its geometry (what a cost model prices) sort nothing.
    assert table.indexes["idx_b"] is idx_b
    # The key layout is the bits each column's values need.
    assert (idx_a.codec.bits, idx_b.codec.bits) == ((16,), (20,))
    assert idx_a.key_range_for({"a": (100, 500)}) == (100, 500)
    assert idx_b.n_leaf_pages > 1 and idx_b.height > 1
    assert table.n_pages > 1
    assert bulk_loads == []
    # First use does, in order of use; file ids are in order of creation.
    assert idx_b.rid_positions().size > 0
    assert idx_a.scan_all()[0].size == table.n_rows
    assert bulk_loads == ["t.idx_b", "t.idx_a"]
    assert idx_b.tree.handle.file_id == idx_a.tree.handle.file_id + 1
    # ...and only the first.
    idx_a.read_range(100, 500)
    idx_b.read_range(100, 500)
    assert bulk_loads == ["t.idx_b", "t.idx_a"]


def test_two_threads_reading_an_unbuilt_tree_build_it_once(
    table, bulk_loads, monkeypatch
):
    index = table.create_index("idx_ab", ["a", "b"])
    counting = BPlusTree.bulk_load

    def slow(self, keys, payload, fill_factor=1.0):
        time.sleep(0.05)  # hold the build open while the other thread arrives
        return counting(self, keys, payload, fill_factor)

    monkeypatch.setattr(BPlusTree, "bulk_load", slow)
    start = threading.Barrier(2)
    seen = []

    def read():
        start.wait(timeout=10)
        tree = index.tree
        seen.append((tree, tree.flat.n_entries))

    threads = [threading.Thread(target=read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert bulk_loads == ["t.idx_ab"]
    # Neither reader saw the tree before its leaves were in place.
    assert seen == [(index.tree, table.n_rows)] * 2


def test_composite_index_full_range_defaults(indexed_table):
    index = indexed_table.indexes["idx_ab"]
    lo, hi = index.key_range_for({"a": (5, 10)})  # b unconstrained
    keys, _rids = index.read_range(lo, hi)
    a_vals = index.codec.decode(keys)[0]
    assert np.all((a_vals >= 5) & (a_vals <= 10))


def test_index_scan_all(indexed_table):
    index = indexed_table.indexes["idx_b"]
    keys, rids = index.scan_all()
    assert keys.size == indexed_table.n_rows
    assert np.all(np.diff(keys) >= 0)
    assert set(rids.tolist()) == set(range(indexed_table.n_rows))


def test_index_entries_sorted_by_encoded_key(indexed_table):
    index = indexed_table.indexes["idx_ab"]
    keys, _ = index.scan_all()
    assert np.all(np.diff(keys) >= 0)


def test_index_narrower_than_table(indexed_table):
    assert indexed_table.indexes["idx_a"].n_leaf_pages < indexed_table.n_pages


def test_key_range_clamps_to_domain(indexed_table):
    index = indexed_table.indexes["idx_a"]
    lo, hi = index.key_range_for({"a": (-50, 1 << 40)})
    keys, rids = index.read_range(lo, hi)
    assert rids.size == indexed_table.n_rows


def test_repr(table):
    assert "t" in repr(table)
