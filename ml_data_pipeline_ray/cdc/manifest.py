"""Exactly-once lake manifest: two-phase commit + per-partition checkpoints.

The reference's only sink-finalization hook is ``Sink::flush()``
(``ml-data/ml-data-core/src/sink.rs:18`` — SURVEY.md K5); exactly-once is
absent there and designed here Delta-Lake-style (PAPERS.md "Delta Lake",
VLDB 2020):

- Each replay transaction stages its files under
  ``lake/data/txn-{version:06d}/`` (phase 1: stage). A partition's state
  is a **base file** (``pid={pid:05d}.parquet``, live rows only) plus the
  **deltas** committed since it: merge-on-read. Each merge task writes
  one delta file (``pid={first:05d}-{last:05d}.delta.parquet``) holding,
  pid after pid, the rows whose winner the transaction changed (deletes
  included); a pid's rows are both its next delta and the change data
  feed ``CDCEngine.table_changes`` reads. A base is written only on a
  partition's first write, whose base is its change record, and when its
  deltas fold into a new base.
- The transaction becomes visible only when ``_CURRENT`` is atomically
  replaced to point at ``manifest-{version:06d}.json`` (phase 2: commit,
  a single ``os.replace`` — atomic on POSIX).
- A crash between phases leaves orphaned data files that no manifest
  references; the next replay recomputes the same transaction
  idempotently (same version number, same deterministic file names) and
  overwrites them. Readers only ever resolve the table through
  ``_CURRENT`` → manifest → file list, so a partially written
  transaction is never observable (exactly-once effect on top of
  at-least-once execution).

A partition entry (pid -> ``{file, last_lsn, rows, tombstones, bytes,
deltas}``) names its base ``file`` and that file's ``bytes``, the pid's
live ``rows`` (base and deltas resolved) and its ``deltas``, a list of
``{file, row_group, offset, rows, bytes}`` (the pid's rows of a delta
file) in commit order. Each version records its own change records under
``changes`` (pid -> one such record; ``{file, row_group: null, bytes}``
for a whole base file); unlike partition entries they are **not**
carried forward.

The manifest also carries the **per-partition checkpoints** (last applied
LSN + row metrics) used for resume: a restarted replay filters the
changelog to ``lsn > checkpoint[pid]`` (SURVEY.md §4 "Checkpoint /
resume"; reference analogs: ``reset()``/``seek_to_row`` row-offset index,
``ml-data/ml-data-readers/src/csv/reader.rs:582-637``).

On a multi-node cluster ``lake_dir`` must live on shared storage (S3 /
NFS); in this sandbox it is a local directory, which has the same
visibility semantics for a single node.

**Single-writer contract**: exactly one process may run transactions
against a lake at a time (the normal deployment for a WAL applier —
the changelog itself is a single logical stream). Concurrent writers
racing on the same version collide on the exclusive manifest create
below and fail loudly rather than silently losing a committed update.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any

CURRENT_POINTER = "_CURRENT"


class LakeManifest:
    """Versioned manifest of a partitioned Parquet lake table."""

    def __init__(self, lake_dir: str):
        # absolute once: tasks write lake files from other working directories
        self.lake_dir = os.path.abspath(lake_dir)
        self.manifest_dir = os.path.join(self.lake_dir, "_manifests")
        self.data_dir = os.path.join(self.lake_dir, "data")
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.data_dir, exist_ok=True)

    # -- read side ----------------------------------------------------------

    def current_version(self) -> int:
        p = os.path.join(self.lake_dir, CURRENT_POINTER)
        if not os.path.exists(p):
            return 0
        with open(p) as f:
            return int(json.load(f)["version"])

    def load(self, version: int | None = None) -> dict[str, Any]:
        """A committed manifest — the current one, or a pinned historical
        ``version`` (manifests are retained, so any committed version remains
        readable: snapshot-isolation time travel)."""
        v = self.current_version() if version is None else version
        if v == 0:
            return {"version": 0, "partitions": {}, "meta": {}, "metrics": {}}
        if version is not None and version > self.current_version():
            raise ValueError(f"version {version} has not been committed "
                             f"(current: {self.current_version()})")
        with open(os.path.join(self.manifest_dir, f"manifest-{v:06d}.json")) as f:
            return json.load(f)

    def checkpoints(self) -> dict[int, int]:
        """pid -> last applied LSN."""
        m = self.load()
        return {int(pid): int(e["last_lsn"]) for pid, e in m["partitions"].items()}

    def partitions(self, version: int | None = None) -> dict[int, dict[str, Any]]:
        """pid -> partition entry (at the current or a pinned version), its
        base and delta paths absolute."""
        m = self.load(version)
        return {int(pid): {**e, "file": self._absolute(e["file"]),
                           "deltas": [{**d, "file": self._absolute(d["file"])}
                                      for d in e["deltas"]]}
                for pid, e in m["partitions"].items()}

    def partition_files(self, version: int | None = None) -> dict[int, str]:
        """pid -> absolute path of the partition's base file (at the current
        or a pinned version)."""
        return {pid: e["file"] for pid, e in self.partitions(version).items()}

    def _absolute(self, path: str) -> str:
        return os.path.join(self.lake_dir, path)

    # -- write side ---------------------------------------------------------

    def txn_data_dir(self, version: int) -> str:
        """Staging directory of transaction ``version``. Not created here:
        the tasks that write lake files create it, so a transaction
        with nothing to write leaves no directory behind."""
        return os.path.join(self.data_dir, f"txn-{version:06d}")

    def commit(self, version: int, new_partitions: dict[int, dict[str, Any]],
               meta: dict[str, Any] | None = None,
               metrics: dict[str, Any] | None = None, *,
               changes: dict[int, dict[str, Any]]) -> dict[str, Any]:
        """Phase-2 commit: publish ``new_partitions`` (pid -> {file, last_lsn,
        rows, ...}) merged over the previous manifest's entries, then
        atomically swing ``_CURRENT``. ``changes`` (pid -> {file, row_group,
        ...}) records this version's change records only.
        """
        prev = self.load()
        if version != prev["version"] + 1:
            raise ValueError(
                f"stale transaction: committing v{version} over v{prev['version']}")
        partitions = dict(prev["partitions"])
        partitions.update(self._relative(new_partitions))
        manifest = {
            "version": version,
            "partitions": partitions,
            "meta": {**prev.get("meta", {}), **(meta or {})},
            "metrics": metrics or {},
            "changes": self._relative(changes),
        }
        # make the staged data files' directory entries durable before any
        # manifest references them (files themselves were fsynced by their
        # merge tasks, in parallel)
        txn_dir = self.txn_data_dir(version)
        if os.path.isdir(txn_dir):
            _fsync_dir(txn_dir)
        mpath = os.path.join(self.manifest_dir, f"manifest-{version:06d}.json")
        try:
            _write_json_exclusive(mpath, manifest)
        except FileExistsError:
            # The engine requires exactly ONE writer per lake (standard for a
            # WAL applier). An existing file at this version is only crash
            # debris from this writer's prior attempt if _CURRENT still
            # points BELOW it (no reader can have observed it); re-check
            # before replacing. If _CURRENT already reached this version, a
            # concurrent writer committed it in the window since our load() —
            # unlinking would silently destroy THEIR committed manifest, so
            # fail loudly instead.
            if self.current_version() >= version:
                raise ValueError(
                    f"stale transaction: v{version} was committed by a "
                    f"concurrent writer (single-writer contract violated)")
            os.unlink(mpath)
            _write_json_exclusive(mpath, manifest)
        _atomic_write_json(os.path.join(self.lake_dir, CURRENT_POINTER),
                           {"version": version})
        return manifest

    def _relative(self, entries: dict[int, dict[str, Any]]) -> dict[str, dict]:
        """pid -> entry with ``file`` (and its deltas' ``file``) relative to
        the lake root (a relocatable lake)."""
        root = self.lake_dir + os.sep

        def rel(e: dict) -> dict:
            path = self._absolute(e["file"])
            if not path.startswith(root):
                raise ValueError(f"{path} lies outside the lake {self.lake_dir}")
            e = {**e, "file": path[len(root):]}
            if "deltas" in e:
                e["deltas"] = [rel(d) for d in e["deltas"]]
            return e
        return {str(pid): rel(e) for pid, e in entries.items()}

    def vacuum_orphans(self) -> list[str]:
        """Remove txn data dirs newer than the committed version (crash debris)."""
        v = self.current_version()
        removed = []
        if not os.path.isdir(self.data_dir):
            return removed
        for name in os.listdir(self.data_dir):
            if name.startswith("txn-") and int(name.split("-")[1]) > v:
                shutil.rmtree(os.path.join(self.data_dir, name))
                removed.append(name)
        return removed


def _fsync_dir(path: str) -> None:
    """Make a rename/create in ``path`` durable (POSIX requires fsyncing the
    directory entry, not just the file contents)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _json(obj: Any) -> str:
    """Compact JSON: the C encoder, written in one call (an indented dump
    streams a manifest with many delta entries through the pure-Python
    encoder in tens of thousands of writes)."""
    return json.dumps(obj, separators=(",", ":"))


def _atomic_write_json(path: str, obj: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(_json(obj))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))


def _write_json_exclusive(path: str, obj: Any) -> None:
    """Durably create ``path``, failing with FileExistsError if present
    (O_EXCL — the single-writer collision detector)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    with os.fdopen(fd, "w") as f:
        f.write(_json(obj))
        f.flush()
        os.fsync(f.fileno())
    _fsync_dir(os.path.dirname(path))
