"""Content-addressed per-cell measurement store: incremental sweeps.

This module stores *individual* cell measurements under a content
address, so a rerun, an overlapping grid, one more plan or a refinement
pass at a bigger budget reuses every cell it already measured —
repeated figure builds and exploratory reruns become O(new cells)
instead of O(grid).

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
of one behind).

Every line has one layout, the one every writer of this store has used:
``_canonical({"k": key, "d": digest, "r": record})``, i.e.
``{"d":"<16 hex>","k":"<32 hex>","r":<record>}`` with the record's
canonical JSON as the fixed slice ``[67:-1]`` and ``d`` its blake2s-64.
A writer dumps the record once and hashes those bytes; a reader checks
the layout and the digest over the line's own bytes, and parses the
records a shard's new lines hold with one ``json.loads`` over them,
joined into a JSON array.  A complete line
that is not in that layout, fails its digest, or whose record is not an
object answers no lookup: it is skipped, counted
(:attr:`CellStore.corrupt_lines`) and logged.  (The digest catches torn
and damaged lines, not a forger.)  :meth:`CellStore.compact` rewrites the
shards, dropping superseded duplicates and corrupt (orphaned) lines.
Every append and every whole compaction holds an advisory ``flock`` on
the store directory, so two processes on one store never append to a
shard another is replacing.
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
    from repro.core.runner import Jitter
    from repro.core.scenario import Scenario

#: One record of the store: a single (plan, cell) measurement.
#: ``{"s": seconds | None, "a": aborted, "r": oracle rows}`` — seconds is
#: None exactly where the map holds NaN (budget-censored runs).
CellRecord = dict

#: Sweep cells in the store's shape: flat cell -> store name -> record.
#: A store name is a plan id, or under profile capture ``plan_id +
#: "#profile"`` for that plan's span tree.  Store hits, measured parts and
#: write-back all move cells in this one shape.
Cells = dict[int, dict[str, CellRecord]]

_KEY_DIGEST_BYTES = 16
_LINE_DIGEST_BYTES = 8
_SHARD_PREFIX = "cells-"


#: ``json.dumps`` with these settings, without building an encoder per call.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def _canonical(payload: object) -> bytes:
    """Canonical JSON bytes — the single serialization behind every digest.

    ``allow_nan=False`` makes non-JSON floats (NaN/inf) a loud error
    instead of a silently non-portable literal.
    """
    return _ENCODER.encode(payload).encode("utf-8")


def measurement_key(context: Mapping) -> str:
    """Content address of one measurement context (blake2s-128 hex).

    The definition every store key follows; :class:`SweepKeyer` builds
    the same bytes from pre-encoded fragments.
    """
    return hashlib.blake2s(
        _canonical(dict(context)), digest_size=_KEY_DIGEST_BYTES
    ).hexdigest()


# Every shard line is ``_canonical({"k": key, "d": digest, "r": record})``:
# the record's canonical bytes behind a fixed 67-byte head, then ``}``.
_RECORD_START = 67
_HEX = "0123456789abcdef"


def _encode_line(key: str, record: CellRecord) -> bytes:
    """One shard line: the record dumped once, its digest over those bytes."""
    well_formed = len(key) == 2 * _KEY_DIGEST_BYTES and not key.strip(_HEX)
    if not well_formed or not isinstance(record, dict):
        raise ValueError(f"not a cell-store entry: {key!r}")
    body = _canonical(record)
    digest = hashlib.blake2s(body, digest_size=_LINE_DIGEST_BYTES).hexdigest()
    return b'{"d":"%b","k":"%b","r":%b}\n' % (
        digest.encode("ascii"), key.encode("ascii"), body
    )


def _verified(
    lines: Iterable[bytes], lines_before: int
) -> tuple[list[str], list[bytes], list[int], list[int]]:
    """Verify consecutive shard lines (no trailing newlines) from their
    own bytes.

    A line verifies when it is in the layout :func:`_encode_line` writes
    (its key's digits are checked by :func:`_parsed`) and its digest
    matches its record's bytes as they stand.  Returns the key, record
    bytes and line number of every verified line, and the number of
    every other non-blank line (the corrupt ones).
    """
    keys: list[str] = []
    bodies: list[bytes] = []
    linenos: list[int] = []
    corrupt: list[int] = []
    for lineno, line in enumerate(lines, lines_before + 1):
        body = line[_RECORD_START:-1]
        if (
            line[:6] == b'{"d":"'
            and line[22:29] == b'","k":"'
            and line[61:_RECORD_START] == b'","r":'
            and line[-1:] == b"}"
            and hashlib.blake2s(body, digest_size=_LINE_DIGEST_BYTES)
            .hexdigest()
            .encode("ascii")
            == line[6:22]
        ):
            keys.append(line[29:61].decode("latin-1"))
            bodies.append(body)
            linenos.append(lineno)
        elif line.strip():
            corrupt.append(lineno)
    return keys, bodies, linenos, corrupt


def _parsed(
    keys: list[str], bodies: list[bytes], linenos: list[int], corrupt: list[int]
) -> list[tuple[str, CellRecord]]:
    """The entries of verified lines, their records parsed as one JSON
    array.

    A batch that does not parse into one object per record, or holds a
    key that is not 32 hex digits (only a line forged to pass its digest
    does either), is halved until each bad line stands alone; its line
    number goes to ``corrupt``.
    """
    try:
        records = json.loads(b"[" + b",".join(bodies) + b"]")
        if (
            len(records) != len(bodies)
            or not all(isinstance(record, dict) for record in records)
            or "".join(keys).strip(_HEX)
        ):
            raise ValueError("not one object and one hex key per line")
        return list(zip(keys, records))
    except (ValueError, RecursionError):
        if len(bodies) == 1:
            corrupt.append(linenos[0])
            return []
        mid = len(bodies) // 2
        return _parsed(
            keys[:mid], bodies[:mid], linenos[:mid], corrupt
        ) + _parsed(keys[mid:], bodies[mid:], linenos[mid:], corrupt)


def grid_positions(
    cells: Sequence[int], shape: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The grid index tuple of every flat cell, unravelled in one call."""
    flat = np.asarray(cells, dtype=np.intp).reshape(-1)
    return list(zip(*(axis.tolist() for axis in np.unravel_index(flat, shape))))


class SweepKeyer:
    """Per-(plan, cell) content addresses for one configured sweep.

    Built once per sweep from the scenario's picklable spec.  A key is
    :func:`measurement_key` of the payload ``{"budget_seconds", "context",
    "coords", ["jitter", "jitter_cell",] "memory_bytes", "params", "plan",
    "scenario"}`` — the order canonical JSON sorts it into.  Only
    ``coords`` and ``jitter_cell`` vary per cell and only ``plan`` per
    plan, after them, so the keyer encodes every other fragment once
    (each axis target's ``[name, value]`` too) and hashes the head once;
    a cell copies that hash state and feeds it the cell's fragments, a
    plan copies the cell's state and feeds it the rest.  The bytes
    hashed, and so every key, are those of :func:`measurement_key`.
    Encoding up front also makes a scenario whose spec params are not
    JSON-serializable fail loudly here instead of corrupting keys cell
    by cell.
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
        #: the sweep's grid shape, for the flat cells of a part
        self.shape = tuple(len(axis.targets) for axis in scenario.axes)
        budget = None if budget_seconds is None else float(budget_seconds)
        memory = None if memory_bytes is None else int(memory_bytes)
        try:
            head = b'{"budget_seconds":%b,"context":%b,"coords":[' % (
                _canonical(budget), _canonical(str(context))
            )
            #: per axis, per target: the ``[name, value]`` fragment
            self._coords: list[list[bytes]] = [
                [_canonical([axis.name, float(v)]) for v in axis.targets]
                for axis in scenario.axes
            ]
            self._jitter: bytes | None = None
            if jitter is not None:
                # Jitter draws are seeded on the grid position, so jittered
                # values are only reusable at identical coordinates.
                self._jitter = b',"jitter":%b,"jitter_cell":[' % _canonical(
                    [float(jitter.rel), float(jitter.abs), int(jitter.seed)]
                )
            self._before_plan = b',"memory_bytes":%b,"params":%b,"plan":' % (
                _canonical(memory), _canonical(spec.settings)
            )
            self._after_plan = b',"scenario":%b}' % _canonical(spec.name)
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"scenario {spec.name!r} spec params are not content-"
                f"addressable (must be canonical JSON): {exc}"
            ) from exc
        self._head = hashlib.blake2s(head, digest_size=_KEY_DIGEST_BYTES)
        self._plans: dict[str, bytes] = {}

    def keys(
        self, plan_ids: Iterable[str], idx: Sequence[int]
    ) -> Iterator[str]:
        """Content addresses of the plans' measurements at grid position
        idx, one by one (a caller may stop at the first it misses)."""
        tail = b"]"
        if self._jitter is not None:
            cell_indices = ",".join(str(int(i)) for i in idx).encode("ascii")
            tail += self._jitter + cell_indices + b"]"
        cell = self._head.copy()
        cell.update(
            b",".join(targets[i] for targets, i in zip(self._coords, idx))
            + tail
            + self._before_plan
        )
        plans = self._plans
        for plan_id in plan_ids:
            suffix = plans.get(plan_id)
            if suffix is None:
                suffix = plans[plan_id] = _canonical(str(plan_id)) + self._after_plan
            key = cell.copy()
            key.update(suffix)
            yield key.hexdigest()

    def key(self, plan_id: str, idx: Sequence[int]) -> str:
        """Content address of one plan's measurement at grid position idx."""
        return next(self.keys((plan_id,), idx))


class CellStore:
    """Persistent content-addressed store of per-cell measurements.

    ``get``/``put_many`` work at the key level; :func:`lookup_cells` and
    :func:`records_from_part` read and write whole sweep waves as
    :data:`Cells`.

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
        yet or a shard was replaced.  A shard's new lines are verified
        one by one, then their records parsed together, in one
        ``json.loads``.
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
                data = fh.read()
            lines = data.split(b"\n")
            # The last piece is empty after a newline, else a writer
            # mid-append: left for the next refresh.
            offset += len(data) - len(lines.pop())
            keys, bodies, linenos, corrupt = _verified(lines, lineno)
            # later appends supersede
            index.update(_parsed(keys, bodies, linenos, corrupt))
            for bad in sorted(corrupt):
                logger.warning(
                    "corrupt cell-store shard %s (line %d): skipped; "
                    "compact() drops damaged entries", path, bad,
                )
            self.corrupt_lines += len(corrupt)
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
        wins, and :meth:`compact` drops the shadowed line.  The whole
        batch is encoded before the index or a shard changes, so an entry
        that cannot be written (a non-JSON value, a malformed key) raises
        and leaves no trace of its batch.
        """
        with self._lock, self._exclusive():
            index = self.index
            by_shard: dict[Path, list[tuple[str, CellRecord, bytes]]] = {}
            batch: dict[str, CellRecord] = {}
            for key, record in entries:
                if batch.get(key, index.get(key)) == record:
                    continue
                by_shard.setdefault(self._shard_path(key), []).append(
                    (key, record, _encode_line(key, record))
                )
                batch[key] = record
            written = 0
            for path, shard_entries in by_shard.items():
                blob = b"".join(line for _, _, line in shard_entries)
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
                index.update((key, record) for key, record, _ in shard_entries)
                written += len(shard_entries)
                inode, offset, lineno = self._tails.get(path, (stat.st_ino, 0, 0))
                if (inode, offset) == (stat.st_ino, stat.st_size):
                    # Nothing appended since the last look: no re-read.
                    end = stat.st_size + len(blob)
                    self._tails[path] = (inode, end, lineno + len(shard_entries))
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
        key.  Orphaned: lines not in the written layout or whose digest
        does not match their record (e.g. a torn write from a killed
        process), which every load until then skips and counts.  Shard
        rewrites are atomic (tmp file + rename).  Returns
        ``{"kept": ..., "superseded": ..., "corrupt": ...}``.
        """
        stats = {"kept": 0, "superseded": 0, "corrupt": 0}
        index: dict[str, CellRecord] = {}
        tails: dict[Path, tuple[int, int, int]] = {}
        with self._lock, self._exclusive():
            for path in self._shard_paths():
                keys, bodies, linenos, corrupt = _verified(
                    path.read_bytes().split(b"\n"), 0
                )
                entries: dict[str, CellRecord] = {}
                for key, record in _parsed(keys, bodies, linenos, corrupt):
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
# sweep waves as :data:`Cells` (shared by the serial and parallel engines)
# ---------------------------------------------------------------------------


def lookup_cells(
    store: CellStore,
    keyer: SweepKeyer,
    plan_ids: Sequence[str],
    cells: Sequence[int],
    shape: tuple[int, ...],
) -> Cells:
    """Partition a wave: the cells the store can answer completely.

    A cell is a hit only when **every** swept plan has a stored record —
    a partially known cell still needs its measurement pass (the runner
    measures whole cells), so it counts as a miss.  Brings the store up
    to date with its shards first (:meth:`CellStore.refresh`) and adds
    the wave to its cell-level hit/miss counters.  The hits are
    :data:`Cells`, the shape a measured part has too.
    """
    store.refresh()
    index = store.index
    hits: Cells = {}
    misses = 0
    for flat, idx in zip(cells, grid_positions(cells, shape)):
        records: dict[str, CellRecord] = {}
        for plan_id, key in zip(plan_ids, keyer.keys(plan_ids, idx)):
            record = index.get(key)
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
    keyer: SweepKeyer, part: Cells
) -> list[tuple[str, CellRecord]]:
    """Store entries for every record of a measured sweep part.

    The inverse of :func:`lookup_cells`: a part is already the store's
    records under their store names (each plan id, and under profile
    capture its ``plan_id + "#profile"`` span tree), so write-back pairs
    each record with its key.  Both engines call it on every part they
    measured — the in-process engine per cell, the pool's parent process
    per chunk a worker returns (workers never touch the store).
    """
    positions = grid_positions(list(part), keyer.shape)
    return [
        entry
        for idx, records in zip(positions, part.values())
        for entry in zip(keyer.keys(records, idx), records.values())
    ]
