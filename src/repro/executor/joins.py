"""Table-join operators: the workload behind the paper's Figs 4-5.

The paper reads its join maps through the symmetry landmark: "the
symmetry in this diagram indicates that the two dimensions ... have very
similar effects", merge-join maps are symmetric in the two inputs while
"hash join plans perform better in some cases but are not symmetric
[GLS94]".  Three classic implementations reproduce that contrast:

* :class:`MergeJoinNode` — sorts both inputs through
  :class:`~repro.executor.sort.ExternalSort` and merges; every charge is
  a function of the *unordered pair* of input sizes, so its map is
  symmetric by construction.
* :class:`HashJoinNode` — builds an in-memory table on one side and
  probes with the other.  The build side pays double hashing cost and,
  memory permitting, the whole join stays in the workspace granted by
  the :class:`~repro.executor.memory.MemoryBroker`; otherwise the join
  partitions to temp storage, either gracefully (only the overflow
  spills) or all-or-nothing (the paper's discontinuous cliff), with
  recursive partitioning passes when the build side exceeds memory by
  more than the partitioning fan-out.
* :class:`IndexNestedLoopJoinNode` — one B-tree descent per probe row
  through the shared :class:`~repro.storage.buffer_pool.BufferPool`.
  Under the sweep's cold-cache methodology the first touch of every
  index page is a random read, so the map climbs steeply with the
  indexed (build) input until the index is pool-resident and with the
  probe count thereafter — asymmetric on both counts.

All three agree on the join result (the inner natural join, duplicates
multiplied out), so the sweep's oracle check holds for every plan.
"""

from __future__ import annotations

import numpy as np

from repro.executor import batching
from repro.executor.context import ExecContext
from repro.executor.plans import PlanNode
from repro.executor.results import Result
from repro.executor.sort import ExternalSort, SpillPolicy
from repro.obs.tracer import trace_op
from repro.storage.bitmap import intersect_rids
from repro.storage.btree import BPlusTree
from repro.storage.env import StorageEnv

#: Per-entry bucket/pointer overhead of the hash join's build table.
_HASH_BUCKET_OVERHEAD = 16

#: Probes between budget checks in the index nested-loop join.
_PROBE_BUDGET_STRIDE = 256

#: Key span per input row up to which :func:`join_matches` counts keys
#: instead of sorting them.  Counting costs O(span) and sorting
#: O(rows log rows); measured with NumPy 2.4 on one Xeon core, they
#: break even near three span units per row, and this stays below that.
_DENSE_SPAN_PER_ROW = 2


def join_matches(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted matched keys of the inner natural join (many-to-many).

    A key occurring ``l`` times on the left and ``r`` times on the right
    contributes ``l * r`` output rows.  Shared by all join operators and
    by scenario oracles, so every plan provably agrees on the result.

    A dense key domain (span at most :data:`_DENSE_SPAN_PER_ROW` times
    the input rows) is counted with one ``bincount`` per side; a sparse
    one sorts both sides.  Both give the same array.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.size == 0 or right.size == 0:
        return np.empty(0, dtype=np.int64)
    low = min(int(left.min()), int(right.min()))
    span = max(int(left.max()), int(right.max())) - low + 1
    if span <= _DENSE_SPAN_PER_ROW * (left.size + right.size):
        products = np.bincount(left - low, minlength=span) * np.bincount(
            right - low, minlength=span
        )
        common = np.flatnonzero(products)
        return np.repeat(common.astype(np.int64) + low, products[common])
    left_keys, left_counts = np.unique(left, return_counts=True)
    right_keys, right_counts = np.unique(right, return_counts=True)
    # Join keys may be negative; rids may not.  Shift both onto [0, ...).
    shifted, left_idx, right_idx = intersect_rids(
        left_keys - low, right_keys - low
    )
    common = shifted + low
    return np.repeat(
        common.astype(np.int64), left_counts[left_idx] * right_counts[right_idx]
    )


def _result_for(ctx: ExecContext, matched: np.ndarray) -> Result:
    ctx.charge(matched.size, ctx.profile.cpu_row)
    ctx.check_budget()
    return Result(np.arange(matched.size, dtype=np.int64), {"key": matched})


class MergeJoinNode(PlanNode):
    """Sort-based join of two bound key arrays (Fig 5's symmetric map)."""

    def __init__(
        self,
        left_keys: np.ndarray,
        right_keys: np.ndarray,
        row_bytes: int = 16,
    ) -> None:
        self.left = np.asarray(left_keys, dtype=np.int64)
        self.right = np.asarray(right_keys, dtype=np.int64)
        self.row_bytes = int(row_bytes)
        self.label = (
            f"MergeJoin({self.left.size} x {self.right.size} rows; "
            f"{self.row_bytes}B/row)"
        )

    def execute(self, ctx: ExecContext) -> Result:
        # Graceful spill on both sides: the sort cost is a function of
        # each input's size alone, so swapping the inputs swaps two
        # independent charges — the map stays symmetric even when one
        # side spills.
        for which, side in (("left", self.left), ("right", self.right)):
            with trace_op(ctx, f"merge-join:sort-{which}", "join"):
                ExternalSort(
                    ctx, row_bytes=self.row_bytes, policy=SpillPolicy.GRACEFUL
                ).sort(side)
        with trace_op(ctx, "merge-join:merge", "join"):
            ctx.charge(self.left.size + self.right.size, ctx.profile.cpu_compare)
            return _result_for(ctx, join_matches(self.left, self.right))


class HashJoinNode(PlanNode):
    """Build/probe hash join with memory-aware partition spilling.

    Building costs twice the per-row hashing of probing (insert + bucket
    maintenance), and only the *build* side must fit the workspace — the
    two asymmetries that break the merge join's map symmetry.
    """

    def __init__(
        self,
        build_keys: np.ndarray,
        probe_keys: np.ndarray,
        row_bytes: int = 16,
        policy: SpillPolicy = SpillPolicy.GRACEFUL,
    ) -> None:
        self.build = np.asarray(build_keys, dtype=np.int64)
        self.probe = np.asarray(probe_keys, dtype=np.int64)
        self.row_bytes = int(row_bytes)
        self.policy = policy
        self.label = (
            f"HashJoin(build={self.build.size}, probe={self.probe.size}; "
            f"{policy.value})"
        )

    @property
    def entry_bytes(self) -> int:
        return self.row_bytes + _HASH_BUCKET_OVERHEAD

    def execute(self, ctx: ExecContext) -> Result:
        profile = ctx.profile
        n_build = int(self.build.size)
        n_probe = int(self.probe.size)
        grant = ctx.broker.try_grant(n_build * self.entry_bytes)
        if grant is None:
            with trace_op(ctx, "hash-join:partition-spill", "join"):
                self._partitioned_join(ctx, n_build, n_probe)
        else:
            try:
                with trace_op(ctx, "hash-join:build-probe", "join"):
                    # Build pays double hashing (insert + bucket
                    # maintenance).
                    ctx.charge_many(
                        (n_build, n_probe),
                        (2 * profile.cpu_hash, profile.cpu_hash),
                    )
            finally:
                grant.release()
        return _result_for(ctx, join_matches(self.build, self.probe))

    def _partitioned_join(
        self, ctx: ExecContext, n_build: int, n_probe: int
    ) -> None:
        """Charge the spill passes of a grace hash join.

        Graceful: the first memory-full of build rows (and the matching
        probe fraction) stays resident; only the overflow is partitioned.
        All-or-nothing: both inputs spill entirely.  When the spilled
        build data still exceeds memory after one partitioning pass, the
        partitions are partitioned again (recursive partitioning).
        """
        profile = ctx.profile
        available = max(1, ctx.broker.available_bytes)
        if self.policy is SpillPolicy.ALL_OR_NOTHING:
            in_memory_rows = 0
        else:
            in_memory_rows = min(n_build, available // self.entry_bytes)
        spilled_build = n_build - in_memory_rows
        # The probe side spills in proportion to the build rows it can no
        # longer find resident.
        spilled_probe = -(-n_probe * spilled_build // max(1, n_build))
        # Partitioning fan-out is bounded by one page-sized output buffer
        # per partition; deeper inputs need recursive passes.
        fanout = max(2, available // profile.page_size)
        passes = 0
        remaining = spilled_build * self.entry_bytes
        while remaining > available:
            passes += 1
            remaining = -(-remaining // fanout)
        passes = max(1, passes)

        workspace = min(
            available,
            max(in_memory_rows * self.entry_bytes, fanout * profile.page_size),
        )
        with ctx.broker.grant(workspace):
            for _ in range(passes):
                for rows in (spilled_build, spilled_probe):
                    if rows:
                        run = ctx.temp.write_run(rows, self.row_bytes)
                        ctx.temp.read_run_fully(run)
                # Every spilled row is re-hashed to route it to a partition.
                ctx.charge(spilled_build + spilled_probe, profile.cpu_hash)
                ctx.check_budget()
            # Final build + probe over the resident portion and each
            # (now memory-sized) partition.
            ctx.charge_many(
                (n_build, n_probe), (2 * profile.cpu_hash, profile.cpu_hash)
            )


class JoinIndex:
    """The B-tree an index nested-loop join probes, over one build input.

    Bulk-loaded at the first probe in a storage environment and kept
    while probes stay in that one, so every plan handed the same
    ``JoinIndex`` shares one load.  Sharing cannot move a charge: the
    tree's pages depend only on its keys, and the file id it keeps never
    meets a head position left by an earlier measurement, because
    :meth:`~repro.storage.env.StorageEnv.cold_reset` forgets it before
    every measurement.
    """

    def __init__(self, build_keys: np.ndarray) -> None:
        self.build = np.asarray(build_keys, dtype=np.int64)
        self._tree: BPlusTree | None = None
        self._env: StorageEnv | None = None

    def tree(self, env: StorageEnv) -> BPlusTree:
        """The bulk-loaded tree in ``env`` (loaded at the first ask)."""
        if self._tree is None or self._env is not env:
            order = np.argsort(self.build, kind="stable")
            tree = BPlusTree(env, "inlj", entry_bytes=16)
            tree.bulk_load(self.build[order], {"rid": order.astype(np.int64)})
            self._tree = tree
            self._env = env
        return self._tree


class IndexNestedLoopJoinNode(PlanNode):
    """Per-probe-row B-tree descents against an index on the build side.

    The index is treated as pre-existing (building it is DDL and charges
    nothing); every probe row pays a root-to-leaf descent through the
    buffer pool.  Starting cold, each index page's first touch is a
    random read, so both the index size (pages to fault in) and the
    probe cardinality (descent CPU, pool hits) shape the cost.  ``index``
    (a :class:`JoinIndex` over the same build keys) shares one B-tree
    with other plans; without it the node keeps its own.
    """

    def __init__(
        self,
        build_keys: np.ndarray,
        probe_keys: np.ndarray,
        index: JoinIndex | None = None,
    ) -> None:
        self.build = np.asarray(build_keys, dtype=np.int64)
        self.probe = np.asarray(probe_keys, dtype=np.int64)
        self.index = index if index is not None else JoinIndex(self.build)
        self.label = (
            f"IndexNestedLoopJoin(index={self.build.size} entries, "
            f"probes={self.probe.size})"
        )

    def execute(self, ctx: ExecContext) -> Result:
        # Building the index is uncharged DDL, so it stays outside the
        # probe span.
        tree = self.index.tree(ctx.env)
        with trace_op(ctx, "btree-probe", "index"):
            ctx.charge(self.probe.size, ctx.profile.cpu_row)
            if batching.batched_enabled():
                # probe_many preserves the stride-boundary budget checks
                # of the reference loop (exact clock at every boundary),
                # so even censored runs abort at the same probe in both
                # modes.
                tree.probe_many(
                    self.probe,
                    budget_check=lambda done: ctx.check_budget_every(
                        done, _PROBE_BUDGET_STRIDE
                    ),
                    budget_stride=_PROBE_BUDGET_STRIDE,
                )
            else:
                for done, key in enumerate(self.probe.tolist()):
                    tree.probe(int(key))
                    ctx.check_budget_every(done, _PROBE_BUDGET_STRIDE)
        return _result_for(ctx, join_matches(self.build, self.probe))


#: Plan ids of the standard join inventory, in measurement order.
JOIN_PLAN_IDS = (
    "join.merge",
    "join.hash.graceful",
    "join.hash.all-or-nothing",
    "join.inl",
)


def join_plan_inventory(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    row_bytes: int = 16,
    index: JoinIndex | None = None,
) -> dict[str, PlanNode]:
    """The forced join plans every provider exposes for one input pair;
    ``index`` is the index nested-loop join's (see
    :class:`IndexNestedLoopJoinNode`)."""
    return {
        "join.merge": MergeJoinNode(build_keys, probe_keys, row_bytes=row_bytes),
        "join.hash.graceful": HashJoinNode(
            build_keys, probe_keys, row_bytes=row_bytes, policy=SpillPolicy.GRACEFUL
        ),
        "join.hash.all-or-nothing": HashJoinNode(
            build_keys,
            probe_keys,
            row_bytes=row_bytes,
            policy=SpillPolicy.ALL_OR_NOTHING,
        ),
        "join.inl": IndexNestedLoopJoinNode(build_keys, probe_keys, index=index),
    }
