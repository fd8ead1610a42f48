"""Content-addressed per-cell measurement store: incremental sweeps.

The whole-map disk caches (``BenchConfig.cache_path``) are all-or-nothing:
change the grid resolution, add one plan, or rerun a refinement at a
bigger budget and every previously measured cell is thrown away.  This
module stores *individual* cell measurements under a content address, so
overlapping grids and refinement reruns reuse what they already
measured — repeated figure builds and exploratory
reruns become O(new cells) instead of O(grid).

Key discipline
--------------

A key covers everything that shapes one ``(plan, cell)`` measurement and
nothing that merely shapes the sweep around it (the
``BenchConfig.fingerprint`` discipline, minus grid shape, plan set, and
cell policy):

* the scenario's registry name and its spec parameters *except* the axis
  grids (column, input seeds, row widths, key domains, error model, ...);
* the cell's **coordinates as axis values** — ``(axis name, target
  value)`` pairs, never grid indices, so the same selectivity measured on
  a 17-point and a 33-point grid shares one entry;
* the plan id (each plan is its own entry);
* the result-shaping sweep knobs: cost budget and workspace memory;
* an opaque caller ``context`` string for whatever shapes the providers
  outside the spec (table rows/seed, buffer-pool pages — see
  ``BenchConfig.cell_store_context``);
* for jittered sweeps only: the jitter parameters *and* the grid
  coordinates, because :class:`~repro.core.runner.Jitter` seeds its draw
  on the cell's indices — a jittered measurement is only reusable at the
  same grid position, and pretending otherwise would silently break the
  warm-equals-cold guarantee.

Grid shape, the plan inventory, worker counts, chunking, and the cell
policy are deliberately **absent**: none of them can change what one cell
measures (the sweep engines are bit-identical across all of them).

Storage format
--------------

Dependency-light pure python: 16 append-only JSONL shards (fanned out on
the first hex digit of the key) plus an in-memory index built on first
access and extended by tailing the shards at the start of every sweep
wave (see :class:`CellStore`).  Appends are atomic (one ``write`` of
complete lines, started on a fresh line when a killed writer left half
of one behind); every line carries a blake2s digest of its record, and
a complete line that is malformed or tampered with answers no lookup:
it is skipped, counted (:attr:`CellStore.corrupt_lines`) and logged.
:meth:`CellStore.compact` rewrites the shards, dropping superseded
duplicates and corrupt (orphaned) lines.  Every append and every whole
compaction holds an advisory ``flock`` on the store directory, so two
processes on one store never append to a shard another is replacing.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.obs.logs import get_logger

logger = get_logger("core.cellstore")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.mapdata import MapData
    from repro.core.runner import Jitter
    from repro.core.scenario import Scenario

#: One record of the store: a single (plan, cell) measurement.
#: ``{"s": seconds | None, "a": aborted, "r": oracle rows}`` — seconds is
#: None exactly where the map holds NaN (budget-censored runs).
CellRecord = dict

_KEY_DIGEST_BYTES = 16
_LINE_DIGEST_BYTES = 8
_SHARD_PREFIX = "cells-"


def _canonical(payload: object) -> bytes:
    """Canonical JSON bytes — the single serialization behind every digest.

    ``allow_nan=False`` makes non-JSON floats (NaN/inf) a loud error
    instead of a silently non-portable literal.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def measurement_key(context: Mapping) -> str:
    """Content address of one measurement context (blake2s-128 hex)."""
    return hashlib.blake2s(
        _canonical(dict(context)), digest_size=_KEY_DIGEST_BYTES
    ).hexdigest()


def _record_digest(record: CellRecord) -> str:
    return hashlib.blake2s(
        _canonical(record), digest_size=_LINE_DIGEST_BYTES
    ).hexdigest()


def _encode_line(key: str, record: CellRecord) -> bytes:
    return _canonical({"k": key, "d": _record_digest(record), "r": record}) + b"\n"


def _decode_line(line: str | bytes) -> tuple[str, CellRecord]:
    """Parse one shard line; raises ``ValueError`` on any corruption."""
    obj = json.loads(line)
    key, digest, record = obj["k"], obj["d"], obj["r"]
    if not isinstance(key, str) or not isinstance(record, dict):
        raise ValueError("malformed entry")
    if _record_digest(record) != digest:
        raise ValueError("record digest mismatch")
    return key, record


def _decoded(
    lines: Iterable[bytes], corrupt: list[int], lines_before: int = 0
) -> Iterator[tuple[str, CellRecord]]:
    """The entries of consecutive shard lines; the line number of every one
    that does not parse or verify is appended to ``corrupt``."""
    for lineno, line in enumerate(lines, lines_before + 1):
        if not line.strip():
            continue
        try:
            yield _decode_line(line)
        except (ValueError, KeyError, TypeError):
            corrupt.append(lineno)


class SweepKeyer:
    """Per-(plan, cell) content addresses for one configured sweep.

    Built once per sweep from the scenario's picklable spec; the
    sweep-level part of the key (scenario params, budget, memory, jitter,
    caller context) is canonicalized eagerly so a scenario whose spec
    params are not JSON-serializable fails loudly up front instead of
    corrupting keys cell by cell.
    """

    def __init__(
        self,
        scenario: "Scenario",
        budget_seconds: float | None,
        memory_bytes: int | None,
        jitter: "Jitter | None",
        context: str = "",
    ) -> None:
        spec = scenario.spec()
        self._base: dict = {
            "scenario": spec.name,
            "params": spec.settings,
            "budget_seconds": (
                None if budget_seconds is None else float(budget_seconds)
            ),
            "memory_bytes": None if memory_bytes is None else int(memory_bytes),
            "context": str(context),
        }
        if jitter is not None:
            self._base["jitter"] = [
                float(jitter.rel),
                float(jitter.abs),
                int(jitter.seed),
            ]
        self._jittered = jitter is not None
        self._axes: list[tuple[str, list[float]]] = [
            (axis.name, [float(v) for v in axis.targets])
            for axis in scenario.axes
        ]
        try:
            _canonical(self._base)
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"scenario {spec.name!r} spec params are not content-"
                f"addressable (must be canonical JSON): {exc}"
            ) from exc

    def key(self, plan_id: str, idx: tuple[int, ...]) -> str:
        """Content address of one plan's measurement at grid position idx."""
        payload = dict(self._base)
        payload["plan"] = str(plan_id)
        payload["coords"] = [
            [name, targets[i]]
            for (name, targets), i in zip(self._axes, idx)
        ]
        if self._jittered:
            # Jitter draws are seeded on the grid position, so jittered
            # values are only reusable at identical coordinates.
            payload["jitter_cell"] = [int(i) for i in idx]
        return measurement_key(payload)


class CellStore:
    """Persistent content-addressed store of per-cell measurements.

    ``get``/``put_many`` work at the key level; :func:`lookup_cells` and
    :func:`records_from_part` adapt whole sweep waves.

    One instance serves a whole process front door (a CLI run, a
    :class:`~repro.service.jobs.JobManager` and every job on it): the
    shards are read once and *tailed* afterwards.  The first read of
    :attr:`index` decodes every shard from offset 0; after that
    :meth:`refresh` — which :func:`lookup_cells` calls at the start of
    each wave — stats the shards and decodes only the bytes past each
    one's remembered ``(inode, offset)``, so another process's appends
    show up at the next wave and every line is still parsed and
    digest-verified exactly once before it can answer a lookup.

    * Only whole lines are consumed.  An unterminated tail is another
      process mid-append: it is left for the next refresh, not an error.
      A *complete* line that does not parse or verify is what a killed
      writer leaves: it is skipped with a warning and counted in
      ``corrupt_lines`` until :meth:`compact` drops it.
    * A shard whose inode changed or that shrank was rewritten by another
      process's :meth:`compact`; offsets into it mean nothing, so the
      index is dropped and rebuilt from offset 0.
    * Own appends advance the offset when they landed right behind it;
      otherwise the next refresh re-reads them, which is idempotent.

    Load, refresh, ``put_many``, ``compact`` and the counters share one
    lock, so threads may share a store; key reads go straight to the
    dict.  Processes share a store through an advisory ``flock`` on its
    directory (no lock file, so a store holds its shards and nothing
    else), held around each append and each whole compaction: a
    compaction reads and replaces a shard with no append in between,
    and an append that waited lands in the shard that replaced it.
    Reads take no lock; the ``(inode, offset)`` check above handles a
    shard replaced under them.

    ``cell_hits`` / ``cell_misses`` count *cells* (a hit needs a stored
    record for every swept plan), which is the rate the CLI and the
    examples report.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._index: dict[str, CellRecord] | None = None  # None: not loaded
        #: shard -> (inode, bytes consumed, lines consumed)
        self._tails: dict[Path, tuple[int, int, int]] = {}
        self.cell_hits = 0
        self.cell_misses = 0
        self.writes = 0
        self.corrupt_lines = 0

    # ------------------------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.directory / f"{_SHARD_PREFIX}{key[0]}.jsonl"

    def _shard_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"{_SHARD_PREFIX}?.jsonl"))

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Hold the store-wide advisory lock (every process on the
        directory).

        Released explicitly: a process forked meanwhile (a pool worker of
        a concurrent sweep) shares the descriptor, and closing ours alone
        would leave the lock held for as long as that process lives.
        """
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    @property
    def index(self) -> dict[str, CellRecord]:
        """key -> record; the first read scans every shard from offset 0."""
        if self._index is None:
            with self._lock:
                if self._index is None:
                    self._scan()
        return self._index

    def refresh(self) -> None:
        """Fold in every complete line appended since the last look."""
        with self._lock:
            if self._index is None:
                # Not loaded yet: the first read of ``index`` is the scan
                # (one place where a full load happens, and can be timed).
                _ = self.index
            else:
                self._scan()

    def _scan(self) -> None:
        """Decode what the shards hold past the remembered offsets.

        Lock held.  Starts over from nothing when the index is not loaded
        yet or a shard was replaced.
        """
        index, tails = self._index, self._tails
        if index is None:
            index, tails = {}, {}
        for path in self._shard_paths():
            stat = path.stat()
            inode, offset, lineno = tails.get(path, (stat.st_ino, 0, 0))
            if (stat.st_ino, stat.st_size) == (inode, offset):
                continue
            with path.open("rb") as fh:
                # Judge the file that was opened, not the name.
                stat = os.fstat(fh.fileno())
                if stat.st_ino != inode or stat.st_size < offset:
                    self._index = None  # compacted by another process
                    return self._scan()
                fh.seek(offset)
                lines = fh.read().split(b"\n")
            lines.pop()  # empty after a newline, else a writer mid-append
            corrupt: list[int] = []
            index.update(_decoded(lines, corrupt, lineno))  # later appends supersede
            for bad in corrupt:
                logger.warning(
                    "corrupt cell-store shard %s (line %d): skipped; "
                    "compact() drops damaged entries", path, bad,
                )
            self.corrupt_lines += len(corrupt)
            offset += sum(len(line) + 1 for line in lines)
            tails[path] = (inode, offset, lineno + len(lines))
        self._index, self._tails = index, tails

    def __len__(self) -> int:
        return len(self.index)

    def get(self, key: str) -> CellRecord | None:
        return self.index.get(key)

    def put_many(self, entries: Iterable[tuple[str, CellRecord]]) -> int:
        """Append entries (atomic per shard); returns how many were new.

        Keys already present with an identical record are skipped (the
        sweeps are deterministic, so legitimate duplicates carry the same
        data); a differing record supersedes the old one — last write
        wins, and :meth:`compact` drops the shadowed line.
        """
        with self._lock, self._exclusive():
            index = self.index
            by_shard: dict[Path, list[bytes]] = {}
            written = 0
            for key, record in entries:
                if index.get(key) == record:
                    continue
                by_shard.setdefault(self._shard_path(key), []).append(
                    _encode_line(key, record)
                )
                index[key] = record
                written += 1
            for path, lines in by_shard.items():
                blob = b"".join(lines)
                fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
                try:
                    # Under the store lock nobody else appends, so the
                    # size read here is where this blob starts.
                    stat = os.fstat(fd)
                    if stat.st_size and os.pread(fd, 1, stat.st_size - 1) != b"\n":
                        # Half a line from a killed writer: end it, so
                        # it is one corrupt line and nothing is glued on.
                        blob = b"\n" + blob
                    os.write(fd, blob)  # one write: atomic append
                finally:
                    os.close(fd)
                inode, offset, lineno = self._tails.get(path, (stat.st_ino, 0, 0))
                if (inode, offset) == (stat.st_ino, stat.st_size):
                    # Nothing appended since the last look: no re-read.
                    end = stat.st_size + len(blob)
                    self._tails[path] = (inode, end, lineno + len(lines))
            self.writes += written
            return written

    def count_lookups(self, hits: int, misses: int) -> None:
        """Add one wave's cell-level hit/miss counts (see :func:`lookup_cells`)."""
        with self._lock:
            self.cell_hits += hits
            self.cell_misses += misses

    # ------------------------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Rewrite every shard, dropping superseded and orphaned entries.

        Superseded: earlier lines shadowed by a later append of the same
        key.  Orphaned: lines that no longer parse or whose record digest
        does not verify (e.g. a torn write from a killed process), which
        every load until then skips and counts.  Shard rewrites are atomic
        (tmp file + rename).  Returns
        ``{"kept": ..., "superseded": ..., "corrupt": ...}``.
        """
        stats = {"kept": 0, "superseded": 0, "corrupt": 0}
        index: dict[str, CellRecord] = {}
        tails: dict[Path, tuple[int, int, int]] = {}
        with self._lock, self._exclusive():
            for path in self._shard_paths():
                entries: dict[str, CellRecord] = {}
                corrupt: list[int] = []
                for key, record in _decoded(path.read_bytes().split(b"\n"), corrupt):
                    stats["superseded"] += key in entries
                    entries[key] = record
                stats["corrupt"] += len(corrupt)
                stats["kept"] += len(entries)
                tmp = path.with_suffix(".jsonl.tmp")
                blob = b"".join(
                    _encode_line(k, r) for k, r in sorted(entries.items())
                )
                tmp.write_bytes(blob)
                tmp.replace(path)
                index.update(entries)
                tails[path] = (path.stat().st_ino, len(blob), len(entries))
            self._index, self._tails = index, tails
        return stats

    def stats(self) -> dict[str, int | float]:
        """Lookup counters plus the hit rate (for CLI/bench reporting)."""
        with self._lock:
            lookups = self.cell_hits + self.cell_misses
            return {
                "entries": len(self),
                "cell_hits": self.cell_hits,
                "cell_misses": self.cell_misses,
                "writes": self.writes,
                "corrupt_lines": self.corrupt_lines,
                "hit_rate": self.cell_hits / lookups if lookups else 0.0,
            }


# ---------------------------------------------------------------------------
# sweep-wave adapters (shared by the serial and parallel engines)
# ---------------------------------------------------------------------------


def lookup_cells(
    store: CellStore,
    keyer: SweepKeyer,
    plan_ids: Sequence[str],
    cells: Sequence[int],
    shape: tuple[int, ...],
) -> dict[int, dict[str, CellRecord]]:
    """Partition a wave: the cells the store can answer completely.

    A cell is a hit only when **every** swept plan has a stored record —
    a partially known cell still needs its measurement pass (the runner
    measures whole cells), so it counts as a miss.  Brings the store up
    to date with its shards first (:meth:`CellStore.refresh`) and adds
    the wave to its cell-level hit/miss counters.
    """
    store.refresh()
    hits: dict[int, dict[str, CellRecord]] = {}
    misses = 0
    for flat in cells:
        idx = tuple(int(k) for k in np.unravel_index(flat, shape))
        records: dict[str, CellRecord] = {}
        for plan_id in plan_ids:
            record = store.get(keyer.key(plan_id, idx))
            if record is None:
                break
            records[plan_id] = record
        if len(records) == len(plan_ids):
            hits[flat] = records
        else:
            misses += 1
    store.count_lookups(len(cells) - misses, misses)
    return hits


def records_from_part(
    keyer: SweepKeyer, part: "MapData"
) -> list[tuple[str, CellRecord]]:
    """Store entries for every measured (plan, cell) of a sweep part.

    The inverse of :func:`lookup_cells`: walks the part's
    :meth:`~repro.core.mapdata.MapData.cell_records` (its ``meta["cells"]``
    coverage) and keys each value for write-back.  Both engines call it on
    every part they measured — the in-process engine per cell, the pool's
    parent process per chunk a worker returns (workers never touch the
    store).

    Parts measured with profile capture carry span trees in
    ``meta["profiles"]``; those ride along under derived
    ``plan_id + "#profile"`` keys so warm reruns replay them too.
    """
    from repro.obs.profile import (
        PROFILES_META_KEY,
        STORE_KEY_SUFFIX,
        parse_profile_key,
    )

    entries = [
        (keyer.key(plan_id, idx), {"s": seconds, "a": aborted, "r": rows})
        for idx, plan_id, seconds, aborted, rows in part.cell_records()
    ]
    for key, profile in part.meta.get(PROFILES_META_KEY, {}).items():
        plan_id, idx = parse_profile_key(key)
        entries.append((keyer.key(plan_id + STORE_KEY_SUFFIX, idx), profile))
    return entries
