"""Unit tests for tables and secondary indexes."""

import threading
import time

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import BPlusTree, StorageEnv, Table
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


def test_geometry(table):
    assert table.n_rows == 4096
    assert table.n_pages == -(-table.n_rows // table.clustered.leaf_capacity)


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
    assert set(out) == set(table.clustered.flat.payload)


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


def test_values_wider_than_the_given_bits_are_refused_at_creation(table):
    with pytest.raises(StorageError):
        table.create_index("idx_a", ["a"], bits=[4])  # a spans 16 bits
    with pytest.raises(StorageError):
        table.create_index("idx_ab", ["a", "b"], bits=[16])  # one width short
    assert table.create_index("idx_a", ["a"], bits=[16]).codec.bits == (16,)


def test_index_is_laid_out_by_its_first_reader(table, bulk_loads):
    idx_a = table.create_index("idx_a", ["a"])
    idx_b = table.create_index("idx_b", ["b"])
    # Creating an index, naming it and asking for key ranges sort nothing.
    assert table.indexes["idx_b"] is idx_b
    assert idx_a.key_range_for({"a": (100, 500)}) == (100, 500)
    assert bulk_loads == []
    # First use does, in order of use; file ids are in order of creation.
    assert idx_b.n_leaf_pages > 1
    assert idx_a.scan_all()[0].size == table.n_rows
    assert bulk_loads == ["t.idx_b", "t.idx_a"]
    assert idx_b.tree.handle.file_id == idx_a.tree.handle.file_id + 1
    # ...and only the first.
    idx_a.read_range(100, 500)
    idx_b.rid_positions()
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
