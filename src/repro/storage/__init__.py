"""Storage engine substrate.

Implements the physical structures behind every plan in the paper: a
bulk-loadable B+-tree (clustered storage, single-column and composite
secondary indexes), an LRU buffer pool, row-id bitmaps for sorted fetches,
and an order-preserving key codec for multi-column index keys.
"""

from repro.storage.env import StorageEnv
from repro.storage.codec import CompositeKeyCodec
from repro.storage.bitmap import RowIdBitmap
from repro.storage.buffer_pool import BufferPool, PoolStats
from repro.storage.btree import BPlusTree
from repro.storage.table import Table, SecondaryIndex

__all__ = [
    "StorageEnv",
    "CompositeKeyCodec",
    "RowIdBitmap",
    "BufferPool",
    "PoolStats",
    "BPlusTree",
    "Table",
    "SecondaryIndex",
]
