"""Unit and property tests for the B+-tree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import StorageError
from repro.sim.profile import DeviceProfile
from repro.storage.btree import BPlusTree
from repro.storage.env import StorageEnv


def make_tree(entry_bytes=64, page_size=512, pool_pages=256):
    env = StorageEnv(DeviceProfile(page_size=page_size), pool_pages=pool_pages)
    return BPlusTree(env, "t", entry_bytes=entry_bytes), env


def bulk(keys, values=None):
    tree, env = make_tree()
    keys = np.asarray(keys, dtype=np.int64)
    payload = {"v": np.asarray(values if values is not None else keys)}
    tree.bulk_load(keys, payload)
    return tree, env


def test_empty_tree():
    tree, _env = make_tree()
    assert tree.n_entries == 0
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
    large, _ = bulk(np.arange(5000))
    assert large.height > small.height
    large.validate()


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


def test_next_key_after():
    tree, _env = bulk(np.array([1, 5, 5, 9]))
    assert tree.next_key_after(0) == 1
    assert tree.next_key_after(5) == 9
    assert tree.next_key_after(9) is None


def test_insert_into_empty_tree():
    tree, _env = make_tree()
    tree.insert(5, {"v": 50})
    assert tree.n_entries == 1
    found, payload = tree.probe(5)
    assert payload["v"][0] == 50


def test_insert_splits_and_validates():
    tree, _env = make_tree(entry_bytes=128, page_size=512)  # capacity 4
    for i in range(100):
        tree.insert(i * 3 % 97, {"v": i})
        tree.validate()
    assert tree.n_entries == 100
    assert tree.height >= 3


def test_insert_rejects_wrong_schema():
    tree, _env = make_tree()
    tree.insert(1, {"v": 1})
    with pytest.raises(StorageError):
        tree.insert(2, {"other": 2})


def test_delete_missing_returns_false():
    tree, _env = bulk(np.array([1, 2, 3]))
    assert not tree.delete(99)
    assert tree.n_entries == 3


def test_delete_one_duplicate_only():
    tree, _env = bulk(np.array([5, 5, 5]))
    assert tree.delete(5)
    assert tree.n_entries == 2


def test_delete_to_empty_leaf_unlinks():
    tree, _env = make_tree(entry_bytes=128, page_size=512)
    for i in range(50):
        tree.insert(i, {"v": i})
    for i in range(50):
        assert tree.delete(i)
        tree.validate()
    assert tree.n_entries == 0


def test_probe_charges_pool_accesses():
    tree, env = bulk(np.arange(5000))
    env.cold_reset()
    before = env.pool.stats.accesses
    tree.probe(2500)
    assert env.pool.stats.accesses - before >= tree.height


def test_split_pages_allocated_at_end():
    tree, _env = bulk(np.arange(1000))
    n_pages_before = tree.n_pages
    for i in range(200):
        tree.insert(500, {"v": i})
    assert tree.n_pages > n_pages_before
    tree.validate()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_btree_matches_sorted_list_oracle(operations):
    """Random inserts/deletes: tree contents equal a sorted-list oracle."""
    tree, _env = make_tree(entry_bytes=128, page_size=512)
    oracle: list[int] = []
    for op, key in operations:
        if op == "insert":
            tree.insert(key, {"v": key})
            oracle.append(key)
        else:
            deleted = tree.delete(key)
            assert deleted == (key in oracle)
            if deleted:
                oracle.remove(key)
    tree.validate()
    assert np.array_equal(tree.flat.keys, np.sort(np.asarray(oracle, dtype=np.int64)))


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
    assert tree_loose.n_leaves > full.n_leaves
    tree_loose.validate()


def test_fill_factor_validation():
    tree, _env = make_tree()
    with pytest.raises(StorageError):
        tree.bulk_load(np.arange(10), {"v": np.arange(10)}, fill_factor=0.01)


def test_rid_position_cache_dropped_on_mutation():
    tree, _env = make_tree()
    rids = np.random.default_rng(3).permutation(200)
    tree.bulk_load(np.arange(200, dtype=np.int64), {"rid": rids})
    inverse = tree.flat.rid_positions()
    assert inverse is tree.flat.rid_positions()  # cached on the view
    assert np.array_equal(rids[inverse], np.arange(200))
    tree.insert(50, {"rid": 200})
    rebuilt = tree.flat.rid_positions()
    assert rebuilt is not inverse
    assert rebuilt.size == 201
    assert np.array_equal(tree.flat.payload["rid"][rebuilt], np.arange(201))
    assert tree.delete(50)
    after_delete = tree.flat.rid_positions()
    assert after_delete is not rebuilt
    assert np.count_nonzero(after_delete >= 0) == 200


def test_flat_view_shortcuts_fall_back_after_splits():
    """Stride division and page order hold for a bulk load only."""
    tree, _env = bulk(np.arange(1000))
    positions = np.arange(1000)

    def by_search(flat):
        return np.searchsorted(flat.leaf_starts, positions, side="right") - 1

    assert np.array_equal(tree.flat.leaf_index_of(positions), by_search(tree.flat))
    for i in range(200):
        tree.insert(500, {"v": i})
    flat = tree.flat
    positions = np.arange(flat.n_entries)
    assert np.any(np.diff(flat.leaf_pages) < 0)  # split pages sit at the end
    assert np.array_equal(flat.leaf_index_of(positions), by_search(flat))
    leaves = flat.leaf_index_of(positions)
    for pages, expected in (
        (flat.pages_of_leaves(leaves), flat.leaf_pages),
        (flat.pages_for_span(0, flat.n_entries), flat.leaf_pages),
        (flat.unique_leaf_pages(), flat.leaf_pages),
        (flat.pages_for_span(450, 800), flat.leaf_pages[leaves[450] : leaves[799] + 1]),
    ):
        assert np.array_equal(pages, np.unique(expected))
