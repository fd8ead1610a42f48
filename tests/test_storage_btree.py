"""Unit and property tests for the B+-tree."""

from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StorageError
from repro.sim.profile import DeviceProfile
from repro.storage.btree import BPlusTree
from repro.storage.env import StorageEnv
from repro.storage.table import Table


def make_tree(entry_bytes=64, page_size=512, pool_pages=256, **geometry):
    env = StorageEnv(DeviceProfile(page_size=page_size), pool_pages=pool_pages)
    return BPlusTree(env, "t", entry_bytes=entry_bytes, **geometry), env


def bulk(keys, values=None):
    tree, env = make_tree()
    keys = np.asarray(keys, dtype=np.int64)
    payload = {"v": np.asarray(values if values is not None else keys)}
    tree.bulk_load(keys, payload)
    return tree, env


def oracle_levels(keys, per_leaf, fanout):
    """Independent layout model: levels of node dicts, leaves first.

    Leaves are ``per_leaf``-sized chunks, every level above groups
    ``fanout`` nodes of the one below, and pages are numbered level by
    level, left to right.
    """
    chunks = [keys[i : i + per_leaf] for i in range(0, len(keys), per_leaf)] or [[]]
    level = [{"page": page, "keys": chunk} for page, chunk in enumerate(chunks)]
    for leaf in level:
        leaf["min"] = leaf["keys"][0] if leaf["keys"] else None
    levels, next_page = [level], len(level)
    while len(level) > 1:
        groups = [level[i : i + fanout] for i in range(0, len(level), fanout)]
        level = [
            {
                "page": next_page + i,
                "children": group,
                "separators": [child["min"] for child in group[1:]],
                "min": group[0]["min"],
            }
            for i, group in enumerate(groups)
        ]
        next_page += len(level)
        levels.append(level)
    return levels


def oracle_probe_pages(levels, key):
    """Pages one probe touches: per-level bisect_left, then the leaf chain."""
    node, pages = levels[-1][0], []
    while "children" in node:
        pages.append(node["page"])
        node = node["children"][bisect_left(node["separators"], key)]
    leaves, at = levels[0], node["page"]  # a leaf's page is its chain position
    pages.append(at)
    while at + 1 < len(leaves) and leaves[at]["keys"][-1] <= key:
        at += 1
        pages.append(at)
    return pages


def assert_layout_matches_oracle(tree, env, keys, per_leaf, probe_keys=()):
    levels = oracle_levels([int(k) for k in keys], per_leaf, tree.inner_fanout)
    leaves = levels[0]
    assert tree.height == len(levels)
    assert tree.n_pages == sum(len(level) for level in levels)
    assert tree.flat.leaf_pages.tolist() == [leaf["page"] for leaf in leaves]
    sizes = [len(leaf["keys"]) for leaf in leaves]
    assert tree.flat.leaf_starts.tolist() == np.cumsum([0] + sizes).tolist()
    for key in probe_keys:
        expected = oracle_probe_pages(levels, key)
        env.cold_reset()
        tree.probe(key)
        # The pages of one cold probe are distinct and all fit the pool,
        # so its LRU order is their touch order.
        assert len(expected) <= env.pool.capacity_pages
        assert [page for _file, page in env.pool._resident] == expected


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=160),
    st.integers(2, 7),
    st.integers(2, 5),
    st.sampled_from([1.0, 0.8, 0.5]),
    st.lists(st.integers(-2, 42), max_size=12),
)
@example([], 4, 4, 1.0, [0, 7])  # the empty tree
@example(list(range(10)), 2, 4, 1.0, [-1, 0, 7, 8, 9, 10])  # last inner node: 1 child
@example([1] + [5] * 9 + [8], 2, 3, 1.0, [0, 1, 5, 6, 8, 9])  # duplicates over >= 3 leaves
def test_layout_and_probe_pages_match_level_oracle(
    keys, leaf_capacity, inner_fanout, fill_factor, probe_keys
):
    tree, env = make_tree(leaf_capacity=leaf_capacity, inner_fanout=inner_fanout)
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    tree.bulk_load(keys, {"v": np.arange(keys.size)}, fill_factor=fill_factor)
    per_leaf = max(2, int(leaf_capacity * fill_factor))
    assert_layout_matches_oracle(tree, env, keys, per_leaf, probe_keys)


def assert_geometry_is_the_loaded_trees(page_size, n_rows):
    """An index's leaf pages and height, and its table's pages, read
    before any tree is loaded, are the loaded trees'; and the loaded
    trees have the levels the independent layout model lays out."""
    env = StorageEnv(DeviceProfile(page_size=page_size), pool_pages=8)
    table = Table(env, "t", {"a": np.arange(n_rows, dtype=np.int64)})
    index = table.create_index("idx_a", ["a"])
    with mock.patch.object(
        BPlusTree, "bulk_load", side_effect=AssertionError("a tree was loaded")
    ):
        geometry = (table.n_pages, index.n_leaf_pages, index.height)
    clustered = BPlusTree(env, "layout", entry_bytes=table.row_bytes).bulk_load(
        np.arange(n_rows, dtype=np.int64), table.columns
    )
    tree = index.tree
    assert geometry == (clustered.flat.n_leaves, tree.flat.n_leaves, tree.height)
    for loaded in (clustered, tree):
        levels = oracle_levels(
            list(range(n_rows)), loaded.leaf_capacity, loaded.inner_fanout
        )
        assert (loaded.flat.n_leaves, loaded.height) == (len(levels[0]), len(levels))


@pytest.mark.parametrize("page_size", [16, 48, 64, 256, 1024])
def test_geometry_at_the_edges_is_the_loaded_trees(page_size):
    """No rows, one row, and either side of a full leaf and of a full
    inner level (one to three levels up), for the index's 16-byte and
    the one-column table's 32-byte entries."""
    env = StorageEnv(DeviceProfile(page_size=page_size), pool_pages=8)
    edges = {0, 1}
    for width in (16, 32):
        shape = BPlusTree(env, "shape", entry_bytes=width)
        for level in range(4):
            edge = shape.leaf_capacity * shape.inner_fanout**level
            edges.update(n for n in (edge - 1, edge, edge + 1) if n <= 20000)
    for n_rows in sorted(edges):
        assert_geometry_is_the_loaded_trees(page_size, n_rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 2048), st.integers(0, 5000))
def test_geometry_read_before_any_load_is_the_loaded_trees(page_size, n_rows):
    assert_geometry_is_the_loaded_trees(page_size, n_rows)


def test_empty_tree():
    tree, _env = make_tree()
    assert tree.flat.n_entries == 0
    assert tree.height == 1
    keys, payload = tree.scan_all()
    assert keys.size == 0


def test_bulk_load_requires_sorted():
    tree, _env = make_tree()
    with pytest.raises(StorageError):
        tree.bulk_load(np.array([3, 1, 2]), {"v": np.array([0, 0, 0])})


def test_bulk_load_rejects_misaligned_payload():
    tree, _env = make_tree()
    with pytest.raises(StorageError):
        tree.bulk_load(np.array([1, 2, 3]), {"v": np.array([0])})


def test_bulk_load_leaves_consecutive_pages():
    tree, _env = bulk(np.arange(1000))
    pages = tree.flat.leaf_pages
    assert np.array_equal(pages, np.arange(pages.size))


def test_height_grows_with_size():
    small, _ = bulk(np.arange(4))
    large, env = bulk(np.arange(5000))
    assert large.height > small.height
    assert_layout_matches_oracle(
        large, env, np.arange(5000), large.leaf_capacity, probe_keys=[0, 2500, 4999]
    )


def test_scan_all_returns_everything_in_order():
    keys = np.sort(np.random.default_rng(0).integers(0, 1 << 30, 3000))
    tree, _env = bulk(keys, values=np.arange(3000))
    out_keys, payload = tree.scan_all()
    assert np.array_equal(out_keys, keys)
    assert np.array_equal(payload["v"], np.arange(3000))


def test_read_range_matches_oracle():
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 1000, 2000)
    order = np.argsort(raw, kind="stable")
    tree, _env = bulk(raw[order], values=order)
    keys, payload = tree.read_range(100, 300)
    mask = (raw >= 100) & (raw <= 300)
    assert keys.size == mask.sum()
    assert set(payload["v"].tolist()) == set(np.flatnonzero(mask).tolist())


def test_read_range_empty_range():
    tree, _env = bulk(np.arange(100))
    keys, _payload = tree.read_range(1000, 2000)
    assert keys.size == 0


def test_read_range_charges_io():
    tree, env = bulk(np.arange(5000))
    before = env.clock.now
    tree.read_range(0, 4999)
    assert env.clock.now > before


def test_probe_finds_duplicates_across_leaves():
    # Many duplicates of one key force duplicates to span leaves.
    keys = np.sort(np.concatenate([np.full(50, 7), np.arange(100) * 10 + 100]))
    tree, _env = bulk(keys, values=np.arange(keys.size))
    found, payload = tree.probe(7)
    assert found.size == 50
    assert np.all(found == 7)


def test_probe_missing_key():
    tree, _env = bulk(np.arange(0, 100, 2))
    found, _payload = tree.probe(3)
    assert found.size == 0


def test_probe_charges_pool_accesses():
    tree, env = bulk(np.arange(5000))
    env.cold_reset()
    before = env.pool.stats.hits + env.pool.stats.misses
    tree.probe(2500)
    assert env.pool.stats.hits + env.pool.stats.misses - before >= tree.height


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 10000), min_size=1, max_size=400),
    st.integers(0, 10000),
    st.integers(0, 10000),
)
def test_range_scan_matches_oracle(keys, bound1, bound2):
    lo, hi = min(bound1, bound2), max(bound1, bound2)
    sorted_keys = np.sort(np.asarray(keys, dtype=np.int64))
    tree, _env = make_tree(entry_bytes=128, page_size=512)
    tree.bulk_load(sorted_keys, {"v": np.arange(sorted_keys.size)})
    found, _payload = tree.read_range(lo, hi)
    expected = sorted_keys[(sorted_keys >= lo) & (sorted_keys <= hi)]
    assert np.array_equal(found, expected)


def test_fill_factor_spreads_leaves():
    keys = np.arange(1000)
    full, _ = bulk(keys)
    tree_loose, _env = make_tree()
    tree_loose.bulk_load(keys, {"v": keys}, fill_factor=0.5)
    assert tree_loose.flat.n_leaves > full.flat.n_leaves
    assert_layout_matches_oracle(
        tree_loose, _env, keys, tree_loose.leaf_capacity // 2, probe_keys=[0, 999]
    )


def test_fill_factor_validation():
    tree, _env = make_tree()
    with pytest.raises(StorageError):
        tree.bulk_load(np.arange(10), {"v": np.arange(10)}, fill_factor=0.01)


def test_a_loaded_leaf_level_is_read_only():
    """Two trees may hold one pair of leaf arrays (the index layout
    Systems B and C share), so a load makes the arrays it keeps
    read-only."""
    tree, _env = bulk(np.arange(100), np.arange(100) * 2)
    with pytest.raises(ValueError):
        tree.flat.keys[0] = 1
    with pytest.raises(ValueError):
        tree.flat.payload["v"][0] = 1


def test_tree_keeps_the_arrays_it_was_loaded_with():
    """The leaf level is the caller's arrays, not a second copy of them."""
    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=64)
    generator = np.random.default_rng(3)
    table = Table(env, "t", {"a": generator.integers(0, 50, 600), "b": np.arange(600)})
    # A table's columns as the payload of a leaf level over its row ids.
    clustered = BPlusTree(env, "layout", entry_bytes=table.row_bytes).bulk_load(
        np.arange(table.n_rows), table.columns
    )
    for name in table.columns:
        assert np.shares_memory(table.column(name), clustered.flat.payload[name])
    # A secondary index, built the way Table.create_index builds one.
    order = np.argsort(table.column("a"), kind="stable")
    keys, rids = table.column("a")[order], order.astype(np.int64)
    tree = BPlusTree(env, "ix", entry_bytes=16).bulk_load(keys, {"rid": rids})
    assert np.shares_memory(keys, tree.flat.keys)
    assert np.shares_memory(rids, tree.flat.payload["rid"])
    inverse = tree.flat.rid_positions()
    assert inverse is tree.flat.rid_positions()  # cached on the view
    assert np.array_equal(rids[inverse], np.arange(600))
