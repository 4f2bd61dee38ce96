"""CDC changelog replay — the flagship Ray-Data-native pipeline.

Implements the north rule from BASELINE.json: a binlog/WAL-style change-event
tailer over Parquet transcript tables. Change events
``(lsn, op ∈ {insert,update,delete}, conv_id, turn_idx, payload…)`` are read
as zero-copy Arrow tables by stateless Ray tasks, hash-partitioned by
``conv_id`` and merged with per-key last-writer-wins LSN ordering into a
partitioned Parquet lake with an exactly-once manifest commit
(:mod:`.manifest`); the lake is read back as ``ray.data`` Datasets.

The lake is merge-on-read, like Delta Lake's base-plus-log tables: a
partition's state is a base file (live rows only) plus the deltas
committed since it. A delta is what a change data feed records anyway:
the winner of every key an event changed, deletes included, with the
previous winner's LSN. So a tail poll writes O(delta) bytes: one delta
file per merge task and no base. Once a partition's delta bytes pass
``FOLD_FRACTION`` of its base's, its next merge folds them into a new
base, which bounds both a snapshot's resolve work and the files per
partition. A base never holds a deleted row: every stored ``_lsn`` is at
or below its partition's checkpoint, below every event a later merge
applies.

Dataflow (SURVEY.md §7.1)::

    driver: skip the changelog files this engine has applied already
         (while the lake is at the version it left); read each other
         footer once; plan row-group splits from them (LSN-pruned) and
         G = min(P, cluster CPUs) merge groups, contiguous ranges of pids;
         decide from the manifest which pids fold
      -> map task per split: read with lsn > checkpoint pushdown, align
         schema, op->rank, pid = hash(conv_id) % P, per-split LWW combine,
         split into P shards, one Arrow IPC file buffer per group
         (a record batch per pid)                         [stateless tasks]
      -> merge task per group:                            [THE one
         a pid's first write: its live winners -> base     wide step]
           file (which is also its change record);
         a fold: base + deltas + events, one LWW sort ->
           new base file, change rows;
         every other pid, all at once: the narrow
           (key..., _lsn) of its base and deltas, kept to
           the touched conversations, + events, one LWW
           sort -> change rows (= its next delta), live rows
           counted, not rewritten;
         change rows of the group -> ONE delta file, pid
           after pid, fsynced once
      -> driver: collect per-pid metrics -> atomic manifest commit  [2PC]
         recording each pid's base, deltas and live rows, and this
         version's change records

    final_dataset(version): each pid's base + deltas, in tasks of up to
         SPLIT_MIB recorded bytes
      -> per task: read the deltas of its pids at once, keep each key's
         last record; stream each base row group (projected, aligned),
         dropping the rows a delta record names by (key..., _lsn_from);
         then the live delta winners -> snapshot (a pid without deltas
         reads its base as is)

    table_changes(v_from, v_to): each pid's change records of versions
         v_from+1..v_to, kept together, in tasks of up to SPLIT_MIB
         recorded bytes
      -> per task: read each delta file once; pid by pid, a pid with
         one record is projected (one row per key), one with several is
         sorted and folded (first record: state before the range, last
         record: state after) -> row diff

    both reads run on the package's one Parquet reader
         (sources/parquet.py::_file_tasks): one task -> one Ray-core
         task at the call, handed over as one executed Dataset; several
         tasks -> one Ray Data map task each, streamed

Correctness depends only on per-key max-LSN (commutative across arrival
order), so Ray's unordered execution is safe and duplicate /
out-of-order / late events are absorbed (idempotent replay ⇒ exactly-once
effect on at-least-once delivery). Tie-break at equal LSN: op precedence
delete > update > insert (documented engine rule; the reference is silent —
SURVEY.md §4 "Ordering"). An ``op`` outside those three fails the replay.

Reference parity: this replaces the reference's single-threaded
source→transform→sink loop (``ml-data/ml-data-core/src/schedule.rs:150-235``)
with parallel Ray tasks; the keyed upsert is the reference's
nearest-analog of dictionary-merge state (``string_cache.rs:155-260``)
re-expressed as a distributed hash exchange (SURVEY.md §2.4 ST7, §2.5).

Scale notes (100 TB / 10^10 events):
- ``num_partitions`` is the unit of lake layout and of merge state;
  size it to ~2-4x total cluster cores so one partition's state fits a
  worker heap. Merge parallelism is the group count, at most the cluster's
  CPUs: a group task rewrites (first writes, folds) one partition at a
  time, so its heap holds one partition's full state plus the narrow
  ``key..., _lsn`` of the others, and the exchange ships B x G objects,
  not B x P.
  The changelog is processed in LSN-ordered rounds
  (:meth:`CDCEngine.replay_in_rounds`) so merge state is bounded per round
  (SURVEY.md §7.5.2).
- The only all-to-all exchange is the P-way hash exchange; the per-split
  LWW combiner runs before it (map-side partial reduce), so a hot
  conversation ships at most one row per key per split to its merge task.
- Reads prune with column projection + ``lsn > checkpoint`` row-group
  pushdown (reference P3 analog, ``parquet/predicates.rs:336-375``); the
  split planner already drops row groups whose footer LSN range the
  pushdown would empty, and the engine skips unread the files its last
  unbounded replay listed (an offset into the log, like Delta Lake's
  streaming source), so a tail poll reads footers and schedules map tasks
  only for the new segments.
- Both lake reads plan from the manifest and the footers alone; a
  snapshot task yields one table per row group, so a partition larger
  than Ray Data's target block size arrives as several blocks.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..sources.parquet import (SPLIT_MIB, Footers, _expand_paths, _file_tasks,
                               _footers, _LakeFiles, _rg_bytes, _row_groups,
                               unify_parquet_schemas)
from ..stages.exchange import (cluster_cpus, collect_arrow, group_buffers, key_hash,
                               merge_groups, read_shard)
from ..stages.transforms import align_to_schema  # canonical impl (widening lattice)
from .manifest import LakeManifest

# internal column names (never user-facing)
PID_COL = "_pid"
RANK_COL = "_rank"
LAKE_LSN_COL = "_lsn"
LAKE_DELETED_COL = "_deleted"  # change rows: the key's winner is a delete
LSN_FROM_COL = "_lsn_from"  # change rows: the previous winner's LSN
_LAKE_COLS = (LAKE_LSN_COL, LAKE_DELETED_COL, LSN_FROM_COL)

OPS = ["insert", "update", "delete"]  # rank 0, 1, 2

# a pid's deltas are folded into a new base by the first merge after their
# bytes pass this fraction of its base file's bytes (see ROADMAP direction
# 1 for the measurement)
FOLD_FRACTION = 0.05

# a delta file's row group closes once it holds this many MiB of rows
# (see _write_deltas)
DELTA_ROW_GROUP_MIB = 1

# how every lake file is written (see _write_durably)
_LAKE_WRITE = {"compression": "zstd", "compression_level": 1, "use_dictionary": False}


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------

def _lww_sort(tbl: pa.Table, key: list[str], order: list[str],
              lead: tuple[str, ...] = ()) -> tuple[np.ndarray, np.ndarray, pa.Table]:
    """The one last-writer-wins kernel: sort narrow by ``(lead..., key...,
    order...)`` and scan the sorted keys once. Returns the permutation
    ``idx`` (numpy), the mask ``ends`` of the last row of each run of equal
    keys in sorted order (the LWW winner when ``order`` is ``(lsn, rank)``;
    ``np.roll(ends, 1)`` marks each run's first row) and the sorted narrow
    columns. Callers gather the wide payload once, for the rows they keep:
    cheaper than sorting the whole table (sort_by is sort_indices + take).
    ``lead`` columns must be functions of the key (the map's pid), so they
    order runs without splitting one."""
    cols = [*lead, *key, *order]
    idx = pc.sort_indices(tbl, sort_keys=[(c, "ascending") for c in cols])
    srt = tbl.select(cols).take(idx)
    n = srt.num_rows
    ends = np.ones(n, dtype=bool)
    if n > 1:
        # a row ends its run iff the next row has a different key
        neq = None
        for k in key:
            col = srt.column(k).combine_chunks()
            d = pc.fill_null(pc.not_equal(col.slice(0, n - 1), col.slice(1)), True)
            neq = d if neq is None else pc.or_(neq, d)
        ends[: n - 1] = neq.to_numpy(zero_copy_only=False)
    return idx.to_numpy().astype(np.int64), ends, srt


def _file_id(path: str) -> tuple[str, int, int, int]:
    """A file's identity for skipping it: absolute path, size, mtime and
    inode, so a file rewritten in place (or replaced) is a new one."""
    st = os.stat(path)
    return os.path.abspath(path), st.st_size, st.st_mtime_ns, st.st_ino


# ---------------------------------------------------------------------------
# the exchange (fused map + P-way hash exchange + merge via Ray core)
# ---------------------------------------------------------------------------
#
# The exchange is the library's one Ray-core hash exchange
# (stages/exchange.py, which has the why and the wire format: group
# buffers, merge groups, per-shard reads); here a shard is a pid, and the
# map and merge tasks wrap it in the replay's own work:
#
#   map task  (one per input split): read parquet split with pushdown ->
#       schema-align -> op->rank -> pid -> per-split LWW combine ->
#       group_buffers (G = min(P, cpus) objects, a record batch per pid)
#   merge task (one per group of pids): for each pid, read_shard ->
#       LWW merge with the pid's stored keys -> its change rows (one row
#       group of the group's delta file), plus a staged base file on a
#       first write or a fold
#
# One replay at P=16 on 1 CPU ships 16 objects to 1 merge task instead of
# 256 to 16.
#
# Partitioning assumption: every event of a key lands in exactly one pid
# (guaranteed by the hash); a merge starts when all map outputs for its
# group exist (an inherent barrier of any exchange). Object count is B x G,
# which replay_in_rounds bounds: LSN-chunked rounds bound B, and G is at
# most the cluster's CPUs.


def _plan_splits(files: list[str] | Footers, split_mib: int, lsn_col: str = "lsn",
                 lsn_floor: int | None = None, lsn_max: int | None = None,
                 min_splits: int = 64
                 ) -> tuple[list[list[tuple[str, list[int]]]], int]:
    """Bytes-balanced read splits at ROW-GROUP granularity from parquet
    footers (metadata-only reads; ``files`` may be footers already read).
    A split is ``[(file, [rg_idx, ...]), ...]`` — independent of how rows
    happen to be sharded into files, so one huge file still fans out and a
    thousand tiny files still batch up.
    The plan derives from input bytes only (never cluster size): identical
    physical plan at every parallelism level.

    Row groups whose footer LSN statistics put them wholly at or below
    ``lsn_floor`` or wholly above ``lsn_max`` are pruned before any task is
    scheduled (row groups without statistics are kept). Returns the splits
    and the number of pruned row groups.

    Driver-side footer reads are fine for the file counts one transaction
    sees; at extreme file counts plan from the manifest instead."""
    rgs: list[tuple[str, int, int]] = []           # (file, rg, compressed_bytes)
    total = pruned = 0
    for f, rg, b, lo, hi in _row_groups(files, lsn_col):
        if hi is not None and ((lsn_floor is not None and hi <= lsn_floor)
                               or (lsn_max is not None and lo > lsn_max)):
            pruned += 1
            continue
        rgs.append((f, rg, b))
        total += b
    # target bytes/split: bounded above by split_mib, and small enough that
    # ~min_splits splits exist when the data allows (fine-grained waves)
    target = max(1, min(split_mib << 20, total // min_splits))
    splits, cur, cur_bytes = [], [], 0
    for f, rg, b in rgs:
        if cur and cur[-1][0] == f:
            cur[-1][1].append(rg)
        else:
            cur.append((f, [rg]))
        cur_bytes += b
        if cur_bytes >= target:
            splits.append(cur)
            cur, cur_bytes = [], 0
    if cur:
        splits.append(cur)
    return splits, pruned


@ray.remote
def _exchange_map_task(split: list[tuple[str, list[int]]], schema: pa.Schema,
                       flt, key: list[str], lsn_col: str, op_col: str,
                       num_partitions: int, groups: list[range]
                       ) -> list[pa.Buffer] | pa.Buffer:
    """Read one input split (its row groups, then the LSN filter), normalize,
    combine, and split into ``num_partitions`` shards, returned as one
    Arrow IPC file buffer per merge group: record batch ``i`` of a group's
    file is the shard of its ``i``-th pid, empty if that pid got no rows
    (one object per group; with one group the lone buffer itself, since
    Ray stores a single return as is). Raises ``ValueError`` if an ``op``
    is null or not one of :data:`OPS`."""
    # heterogeneous (evolved) files: each is read with ITS OWN schema and
    # aligned afterwards (align_to_schema handles the full lattice including
    # evolved struct columns); the planner already skipped the row groups
    # the filter would empty
    tbl = pa.concat_tables(_LakeFiles().read(
        [{"file": f, "row_group": rg} for f, rgs in split for rg in rgs],
        schema=schema))
    if flt is not None:
        tbl = tbl.filter(flt)
    ops = tbl.column(op_col)
    rank = pc.index_in(ops, value_set=pa.array(OPS, type=pa.string()))
    if rank.null_count:
        # a null rank would sort first and silently drop its key from the lake
        bad = pc.unique(ops.filter(pc.is_null(rank))).to_pylist()
        raise ValueError(
            f"unknown {op_col} values {bad} in {[f for f, _ in split]}; "
            f"expected one of {OPS}")
    tbl = tbl.drop_columns([op_col]).append_column(RANK_COL, rank.cast(pa.int8()))

    pid = (key_hash(tbl, [key[0]]) % np.uint64(num_partitions)).astype(np.int32)
    tbl = tbl.append_column(PID_COL, pa.array(pid))

    # ONE sort orders by (pid, key..., lsn, rank): the LWW-combine boundary
    # scan AND the partition split both read off it (pid never splits a key —
    # it is a function of key[0]); the wide payload is gathered once, for
    # the winners alone (~11% less CPU than sort_by + filter: 107 -> 95 ms
    # over the 16 seed-41 backfill splits, 1-CPU Ray session)
    idx, ends, _ = _lww_sort(tbl, key, [lsn_col, RANK_COL], lead=(PID_COL,))
    tbl = tbl.take(idx[ends])

    # a shard's pid is its position
    return group_buffers(tbl.drop_columns([PID_COL]),
                         tbl.column(PID_COL).to_numpy(), groups)


@ray.remote
def _exchange_merge_task(pids: list[int], states: list[dict | None],
                         ckpts: list[int], key: list[str], lsn_col: str,
                         payload_names: list[str], txn_dir: str, *group_bufs) -> dict:
    """The merge of one group of partitions, from record batch ``i`` of
    every map task's group buffer for the group's ``i``-th pid, against
    ``states[i]`` (its manifest entry and whether it folds, or ``None``
    before its first write). A first write or a fold rewrites the pid's
    base (:func:`_rewrite_partition`); every other pid is merged, all
    together, against the narrow keys of its base and deltas
    (:func:`_merge_narrow`). The change rows of every pid that had a base
    go to ONE delta file (:func:`_write_deltas`). Returns
    ``{"exchange_bytes": IPC bytes received, "partitions": per-pid metrics
    dicts}``: ``rows`` is the pid's live rows after this transaction,
    ``file``, ``bytes``, ``deltas`` its new manifest entry and ``change``
    its change record."""
    # buffers arrive as top-level args so Ray resolves the ObjectRefs
    # in-line; each is one IPC file, read zero-copy from the object store
    readers = [pa.ipc.open_file(b) for b in group_bufs]
    files = _LakeFiles()
    parts: list[dict] = []
    changes: dict[int, pa.Table] = {}
    narrow: dict[int, pa.Table] = {}
    for i, pid in enumerate(pids):
        m, ev = _pid_events(pid, read_shard(readers, i), ckpts[i], lsn_col,
                            payload_names)
        parts.append(m)
        if ev is None:
            continue
        if states[i] is not None and not states[i]["fold"]:
            narrow[i] = ev
            continue
        os.makedirs(txn_dir, exist_ok=True)
        change_rows = _rewrite_partition(m, ev, states[i], key, lsn_col, txn_dir, files)
        if change_rows is not None:
            changes[i] = change_rows
    if narrow:
        changes.update(zip(narrow, _merge_narrow(
            [parts[i] for i in narrow], [states[i] for i in narrow],
            list(narrow.values()), key, lsn_col, files)))
    if changes:
        os.makedirs(txn_dir, exist_ok=True)
        _write_deltas(os.path.join(
            txn_dir, f"pid={pids[0]:05d}-{pids[-1]:05d}.delta.parquet"),
            [(parts[i], changes[i]) for i in sorted(changes)])
    return {"exchange_bytes": sum(b.size for b in group_bufs), "partitions": parts}


def _write_deltas(path: str, deltas: list[tuple[dict, pa.Table]]) -> None:
    """Write one merge task's change rows, pid after pid, as one delta file
    and fsync it; record in each pid's metrics dict its change record
    ``{file, row_group, offset, rows, bytes}`` (``offset``: its first row
    in the row group; ``bytes``: its rows' share of the row group's
    compressed bytes) and, unless the pid folded, the same record as its
    newest delta.

    Consecutive pids share a row group until it holds
    ``DELTA_ROW_GROUP_MIB`` of rows; a pid never spans two. Reading a row
    group costs ~20 us per column before its rows: a tail poll's delta
    file of 688 rows read in 3.4 ms as 16 one-pid row groups, in 0.9 ms as
    one (9 columns, 1-CPU Ray session), and a snapshot reads every delta
    of its pids."""
    # every pid's change rows are its events' rows: one schema per task
    groups: list[list[tuple[dict, pa.Table]]] = [[]]
    size = 0
    for m, t in deltas:
        if size >= DELTA_ROW_GROUP_MIB << 20:
            groups.append([])
            size = 0
        groups[-1].append((m, t))
        size += t.nbytes
    with pq.ParquetWriter(path, deltas[0][1].schema, **_LAKE_WRITE) as w:
        for g in groups:
            t = pa.concat_tables([t for _, t in g]).combine_chunks()
            w.write_table(t, row_group_size=max(1, t.num_rows))
    _fsync(path)
    md = pq.read_metadata(path)
    for rg, g in enumerate(groups):
        nbytes, nrows = _rg_bytes(md, rg), max(1, md.row_group(rg).num_rows)
        offset = 0
        for m, t in g:
            ref = {"file": path, "row_group": rg, "offset": offset,
                   "rows": t.num_rows, "bytes": nbytes * t.num_rows // nrows}
            offset += t.num_rows
            m["change"] = ref
            if not m["base_written"]:
                m["deltas"] = m["deltas"] + [ref]
                m["delta_bytes"] = ref["bytes"]


def _pid_events(pid: int, ev: pa.Table, ckpt: int, lsn_col: str,
                payload_names: list[str]) -> tuple[dict, pa.Table | None]:
    """One pid's events above its checkpoint (``None`` if there are none),
    from its exchanged rows ``ev``, and its metrics dict so far."""
    lo, hi = pc.min_max(ev.column(lsn_col)).values()
    # the filter copies every event, so it runs only when some event is
    # applied already: never on a first write, and after the read pushdown
    # only where the checkpoint is above the pushdown floor
    if lo.is_valid and lo.as_py() <= ckpt:
        ev = ev.filter(pc.greater(ev.column(lsn_col), pa.scalar(ckpt)))
        hi = pc.max(ev.column(lsn_col))
    if ev.num_rows == 0:
        return {"pid": pid, "action": "skip", "file": "", "last_lsn": ckpt,
                "rows": 0, "events_applied": 0}, None
    return ({"pid": pid, "action": "write", "last_lsn": max(ckpt, hi.as_py()),
             "events_applied": int(ev.num_rows), "delta_bytes": 0},
            ev.select(payload_names + [lsn_col, RANK_COL]))


def _rewrite_partition(m: dict, ev: pa.Table, state: dict | None, key: list[str],
                       lsn_col: str, txn_dir: str, files: "_LakeFiles") -> pa.Table | None:
    """A pid's first write, or the fold of its base and deltas: write its
    live rows as a new base file, fill in ``m`` and return its change rows
    (``None`` on a first write, whose base file is its change record: every
    live winner is a change, and a dropped delete is none)."""
    path = os.path.join(txn_dir, f"pid={m['pid']:05d}.parquet")
    if state is None:
        idx, ends, srt = _lww_sort(ev, key, [lsn_col, RANK_COL])
        live = ends & (srt.column(RANK_COL).to_numpy() != 2)
        base = _lake_rows(ev, lsn_col).take(idx[live])
        change_rows = None
    else:
        stored, _ = _stored_rows([state], lsn_col, files)
        idx, live, change_rows = _lww_merge(stored, ev, key, lsn_col)
        full = pa.concat_tables([stored, ev], promote_options="permissive")
        base = _lake_rows(full, lsn_col).take(idx[live])
    _write_durably(base, path)
    nbytes = os.path.getsize(path)
    m.update(file=path, bytes=nbytes, deltas=[], rows=base.num_rows, base_written=True)
    if change_rows is None:
        m["change"] = {"file": path, "row_group": None, "bytes": nbytes}
    return change_rows


def _merge_narrow(ms: list[dict], states: list[dict], evs: list[pa.Table],
                  key: list[str], lsn_col: str, files: "_LakeFiles") -> list[pa.Table]:
    """Merge several pids' events, all at once, against the narrow ``key...,
    _lsn`` of each pid's base and deltas, restricted to the conversations
    the events touch: fill in each pid's ``m`` (its entry keeps its base;
    its change rows become one more delta) and return its change rows."""
    ev = pa.concat_tables(evs)
    ev = ev.append_column(PID_COL, pa.array(np.repeat(
        np.arange(len(evs), dtype=np.int32), [t.num_rows for t in evs])))
    stored, owner = _stored_rows(states, lsn_col, files, columns=key + [LAKE_LSN_COL])
    stored = stored.append_column(PID_COL, pa.array(owner))
    # only the touched conversations' keys can change
    touched = pc.unique(ev.column(key[0])).cast(stored.schema.field(key[0]).type)
    stored = stored.filter(pc.is_in(stored.column(key[0]), value_set=touched))
    _, _, change_rows = _lww_merge(stored, ev, key, lsn_col, lead=(PID_COL,))
    # runs sort by pid first: each pid's change rows are one slice
    pid = change_rows.column(PID_COL).to_numpy()
    change_rows = change_rows.drop_columns([PID_COL])
    n = np.bincount(pid, minlength=len(ms))
    # a changed key that was live and is not, or the reverse, moves the
    # pid's count; untouched keys keep theirs
    was_live = change_rows.column(LSN_FROM_COL).is_valid().to_numpy(zero_copy_only=False)
    is_live = ~change_rows.column(LAKE_DELETED_COL).to_numpy(zero_copy_only=False)
    moved = (np.bincount(pid, weights=is_live, minlength=len(ms))
             - np.bincount(pid, weights=was_live, minlength=len(ms)))
    out, start = [], 0
    for i, (m, state) in enumerate(zip(ms, states)):
        m.update(file=state["file"], bytes=state["bytes"], deltas=state["deltas"],
                 rows=int(state["rows"]) + int(moved[i]), base_written=False)
        out.append(change_rows.slice(start, n[i]))
        start += n[i]
    return out


def _lww_merge(stored: pa.Table, ev: pa.Table, key: list[str], lsn_col: str,
               lead: tuple[str, ...] = ()) -> tuple[np.ndarray, np.ndarray, pa.Table]:
    """Merge events into stored rows with the LWW kernel, sorting the
    narrow ``(lead..., key..., lsn, rank)`` of both. Returns the sort
    permutation over ``stored`` then ``ev``, the mask of live winners in
    sort order and the change rows (each key an event won, in sort order:
    the event as the lake stores it, ``_deleted``, and ``_lsn_from``, the
    previous winner's LSN, null if the key had no live row; ``lead``
    columns kept)."""
    cols = [*lead, *key, lsn_col, RANK_COL]
    idx, ends, srt = _lww_sort(pa.concat_tables([stored.select(cols), ev.select(cols)],
                                                promote_options="permissive"),
                               key, [lsn_col, RANK_COL], lead=lead)
    n = stored.num_rows
    lsn = srt.column(lsn_col).to_numpy()
    deleted = srt.column(RANK_COL).to_numpy() == 2
    # a key changed iff its winner is an event (every stored LSN is at or
    # below the checkpoint, every event's above it); its previous winner
    # is the last stored row of its run, if the run has one and it is not
    # a delete
    is_ev = idx >= n
    changed = ends & is_ev
    pos = np.arange(len(idx))
    last_stored = np.maximum.accumulate(np.where(is_ev, -1, pos))
    run_start = np.maximum.accumulate(np.where(np.roll(ends, 1), pos, 0))
    prev = last_stored[changed]
    was_live = (prev >= run_start[changed]) & ~deleted[prev]
    change_rows = (_lake_rows(ev, lsn_col).take(idx[changed] - n)
                   .append_column(LAKE_DELETED_COL, pa.array(deleted[changed]))
                   .append_column(LSN_FROM_COL, pa.array(lsn[prev], mask=~was_live)))
    return idx, ends & ~deleted, change_rows


def _lake_rows(tbl: pa.Table, lsn_col: str) -> pa.Table:
    """A merge table's columns as the lake stores them: every column but
    the rank, the LSN last and named ``_lsn``."""
    names = [c for c in tbl.column_names if c not in (lsn_col, RANK_COL)]
    return tbl.select(names + [lsn_col]).rename_columns(names + [LAKE_LSN_COL])


def _stored_rows(states: list[dict], lsn_col: str, files: "_LakeFiles",
                 columns: list[str] | None = None) -> tuple[pa.Table, np.ndarray]:
    """The stored rows of the pids of ``states``, projected to ``columns``
    (``None``: all): their bases, then their deltas in commit order (read
    together: one read per delta file, not one per pid and delta), with
    ``_lsn`` renamed ``lsn_col`` and a rank: 2 for a delta's delete, 0
    otherwise (a stored key's rows have distinct LSNs, all at or below the
    checkpoint and so below every event: the rank only marks deletes).
    Also returns each row's index into ``states``."""
    tables = [files.read([{"file": s["file"], "row_group": None}], columns)[0]
              for s in states]
    tables += files.read([d for s in states for d in s["deltas"]],
                         columns and columns + [LAKE_DELETED_COL])
    owner = [*range(len(states)), *(i for i, s in enumerate(states) for _ in s["deltas"])]
    stored = pa.concat_tables(tables, promote_options="permissive")
    deleted = (stored.column(LAKE_DELETED_COL).fill_null(False).to_numpy(zero_copy_only=False)
               if LAKE_DELETED_COL in stored.column_names
               else np.zeros(stored.num_rows, dtype=bool))
    stored = stored.drop_columns([c for c in (LAKE_DELETED_COL, LSN_FROM_COL)
                                  if c in stored.column_names])
    stored = stored.rename_columns(
        [lsn_col if c == LAKE_LSN_COL else c for c in stored.column_names])
    return (stored.append_column(RANK_COL, pa.array(deleted.astype(np.int8) * 2)),
            np.repeat(np.array(owner, dtype=np.int32), [t.num_rows for t in tables]))


def _write_durably(tbl: pa.Table, path: str) -> None:
    """Write one lake file and fsync it. zstd-1 halves lake bytes vs snappy
    at equal CPU (partition-write disk bandwidth is the merge wall's floor
    at high parallelism). No column is dictionary-encoded: under zstd none
    of the transcript columns gains from it. Writing the 16 partitions of
    the seed-41 ``backfill`` lake (116,085 rows) in memory, plain pages
    made the files 15.6% smaller (3,761,710 -> 3,176,687 bytes) and cut
    encoding ~30% (~105 -> ~75 ms) and decoding ~15% (~40 -> ~35 ms) in a
    1-CPU Ray session; keeping dictionaries on the low-cardinality ``role``
    and ``tool`` alone saved another 1.9% of bytes at the same CPU.

    Each data file is fsynced by the task that wrote it, in parallel
    across tasks, so the commit-time manifest fsync is tiny: otherwise it
    could stall seconds behind GBs of dirty writeback and still fail to
    cover the data files."""
    pq.write_table(tbl, path, **_LAKE_WRITE)
    _fsync(path)


def _fsync(path: str) -> None:
    with open(path, "rb") as f:
        os.fsync(f.fileno())


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class CDCEngine:
    """A CDC / incremental-ingest lake over conversation-transcript tables.

    Parameters
    ----------
    lake_dir : str
        Lake root (shared storage on a real cluster).
    num_partitions : int
        Fixed hash-partition count of the lake (``pid = hash(conv_id) % P``).
        Persisted in the manifest and validated on reopen.
    key : list[str]
        Upsert key; first element is the partitioning column. Persisted in
        the manifest and validated on reopen.
    lsn_col, op_col : str
        Changelog columns holding the log sequence number and the operation
        (one of ``insert``, ``update``, ``delete``).
    """

    def __init__(self, lake_dir: str, num_partitions: int = 32,
                 key: list[str] | None = None, lsn_col: str = "lsn",
                 op_col: str = "op"):
        self.manifest = LakeManifest(lake_dir)
        self.lake_dir = self.manifest.lake_dir
        self.key = key or ["conv_id", "turn_idx"]
        self.lsn_col = lsn_col
        self.op_col = op_col
        meta = self.manifest.load().get("meta", {})
        if "num_partitions" in meta and int(meta["num_partitions"]) != num_partitions:
            raise ValueError(
                f"lake was created with num_partitions={meta['num_partitions']}, "
                f"got {num_partitions}")
        # replay's LWW fold and table_changes' per-task fold both rely on
        # every key living in one pid: key[0] is the partitioning column
        if "key" in meta and list(meta["key"]) != list(self.key):
            raise ValueError(
                f"lake was created with key={meta['key']}, got {self.key}")
        self.num_partitions = num_partitions
        # the changelog files the last unbounded replay listed, by
        # _file_id, with their schemas; skippable while the lake stays at
        # the version that replay left (see replay)
        self._applied: dict[tuple, pa.Schema] = {}
        self._applied_version = -1

    # -- replay -------------------------------------------------------------

    def replay(self, changelog: str | list[str],
               lsn_min: int | None = None,
               lsn_max: int | None = None) -> dict[str, Any]:
        """Replay (a slice of) the changelog into the lake as ONE exactly-once
        transaction. Returns commit metrics. Idempotent: events at or below a
        partition's checkpoint are skipped, and an interrupted transaction is
        invisible until its atomic manifest commit. An ``op`` value outside
        ``insert``/``update``/``delete`` (or a null one) raises ``ValueError``
        and commits nothing.

        Runs one fused read+normalize+combine+split map task per planned
        split, then one merge task per group of partitions, ``min(P,
        cluster CPUs)`` of them (see the module notes).

        The engine remembers, in memory, the changelog files an unbounded
        replay (no ``lsn_min``, no ``lsn_max``) listed: once it returns,
        every event of those files is at or below its pid's checkpoint, so
        while the lake stays at the version it left, any replay skips them
        before reading a footer. A file rewritten in place (new size, mtime
        or inode), a commit by another writer or a new engine instance
        plans every file again.

        Besides ``version``, ``committed``, ``events_applied`` and
        ``partitions_written`` (plus ``rows_live``, the committed table's
        live rows, on commit), the metrics carry the transaction's map work,
        also recorded in the manifest version's ``metrics``: ``map_tasks``
        (splits scheduled after LSN pruning), ``row_groups_pruned`` (of the
        files planned) and ``files_skipped`` (listed files not planned). A
        replay that ran the exchange also reports and records
        ``merge_tasks`` (merge groups), ``input_bytes`` (compressed bytes of
        the planned files' row groups, pruned ones included),
        ``exchange_bytes`` (summed size of the group buffers the merge tasks
        received), ``change_bytes`` (bytes of the change records it
        recorded), ``bases_written`` (base files written: first writes and
        folds), ``delta_bytes`` (bytes of the deltas it added), ``maps_s``
        and ``merge_s`` (phase walls), and returns ``commit_s`` (the
        manifest commit's wall).
        """
        files = _expand_paths(changelog)
        ids = {f: _file_id(f) for f in files}
        base_version = self.manifest.current_version()
        applied = self._applied if self._applied_version == base_version else {}
        footers = _footers([f for f in files if ids[f] not in applied])
        schemas = {f: applied[ids[f]] if f not in footers
                   else footers[f].schema.to_arrow_schema() for f in files}

        def done(result: dict[str, Any]) -> dict[str, Any]:
            # every event of every listed file is now at or below its pid's
            # checkpoint, and checkpoints never fall: until another commit,
            # a re-read of any of these files would filter out all its rows
            if lsn_min is None and lsn_max is None:
                self._applied = {ids[f]: s for f, s in schemas.items()}
                self._applied_version = result["version"]
            return result

        parts = self.manifest.partitions()
        ckpts = {pid: int(e["last_lsn"]) for pid, e in parts.items()}
        # global pushdown floor: the min checkpoint is only sound if every
        # partition has one
        floor = None
        if len(ckpts) == self.num_partitions and ckpts:
            floor = min(ckpts.values())
        if lsn_min is not None:
            floor = lsn_min if floor is None else max(floor, lsn_min)
        flt = None
        if floor is not None:
            flt = pc.field(self.lsn_col) > floor
        if lsn_max is not None:
            f2 = pc.field(self.lsn_col) <= lsn_max
            flt = f2 if flt is None else (flt & f2)

        # split planning at row-group granularity (bytes only — identical
        # plan at every parallelism level), skipping row groups the pushdown
        # would empty anyway; bounded MiB per split keeps per-task heap small
        # and the map waves fine-grained (a straggler costs one small split,
        # not 1/n_files of the job)
        splits, pruned = _plan_splits(footers, SPLIT_MIB, self.lsn_col,
                                      floor, lsn_max)
        plan = {"map_tasks": len(splits), "row_groups_pruned": pruned,
                "files_skipped": len(schemas) - len(footers)}
        if not splits:
            return done({"version": base_version, "committed": False,
                         "events_applied": 0, "partitions_written": 0, **plan})

        # the schema every listed file unifies to, skipped ones included, so
        # map alignment and delta schemas do not depend on what was skipped
        in_schema = pa.unify_schemas(list(schemas.values()), promote_options="permissive")
        payload_names = [f.name for f in in_schema
                         if f.name not in (self.lsn_col, self.op_col)]
        P = self.num_partitions
        groups = merge_groups(P, cluster_cpus())
        version = base_version + 1
        txn_dir = self.manifest.txn_data_dir(version)
        # a pid with a base merges against it; the driver decides here, from
        # the committed entry, whether its deltas fold
        states = {pid: {**e, "fold": sum(d["bytes"] for d in e["deltas"])
                        > FOLD_FRACTION * e["bytes"]}
                  for pid, e in parts.items()}

        t0 = time.perf_counter()
        group_refs = []
        for split in splits:
            refs = _exchange_map_task.options(num_returns=len(groups)).remote(
                split, in_schema, flt, self.key, self.lsn_col, self.op_col, P,
                groups)
            # num_returns=1 yields one bare ref, not a sequence of refs
            group_refs.append([refs] if len(groups) == 1 else refs)
        per_group = [list(col) for col in zip(*group_refs)]
        flat = [r for col in per_group for r in col]
        ray.wait(flat, num_returns=len(flat), fetch_local=False)
        t_maps = time.perf_counter()
        merge_refs = [
            _exchange_merge_task.remote(list(grp), [states.get(p) for p in grp],
                                        [ckpts.get(p, -1) for p in grp], self.key,
                                        self.lsn_col, payload_names, txn_dir,
                                        *per_group[g])
            for g, grp in enumerate(groups)
        ]
        merged = ray.get(merge_refs)
        t_merge = time.perf_counter()
        rows = [r for m in merged for r in m["partitions"]]
        written = [r for r in rows if r["action"] == "write"]
        plan.update(merge_tasks=len(groups),
                    input_bytes=sum(g[2] for g in _row_groups(footers, self.lsn_col)),
                    exchange_bytes=int(sum(m["exchange_bytes"] for m in merged)),
                    change_bytes=int(sum(r["change"]["bytes"] for r in written)),
                    bases_written=sum(r["base_written"] for r in written),
                    delta_bytes=int(sum(r["delta_bytes"] for r in written)),
                    maps_s=round(t_maps - t0, 4),
                    merge_s=round(t_merge - t_maps, 4))
        if not written:
            return done({"version": base_version, "committed": False,
                         "events_applied": 0, "partitions_written": 0, **plan})
        # base files hold no deleted rows; "tombstones" stays because the
        # benchmark's lake statistics still read it
        new_parts = {int(r["pid"]): {"file": r["file"], "last_lsn": int(r["last_lsn"]),
                                     "rows": int(r["rows"]), "tombstones": 0,
                                     "bytes": int(r["bytes"]), "deltas": r["deltas"]}
                     for r in written}
        totals = {
            "events_applied": int(sum(r["events_applied"] for r in written)),
            "partitions_written": len(new_parts),
            # the whole committed table: written and carried-forward partitions
            "rows_live": int(sum(e["rows"] for e in {**parts, **new_parts}.values())),
            **plan,
        }
        self.manifest.commit(version, new_parts,
                             meta={"num_partitions": self.num_partitions,
                                   "key": self.key},
                             metrics=totals,
                             changes={int(r["pid"]): r["change"] for r in written})
        return done({"version": version, "committed": True, **totals,
                     "commit_s": round(time.perf_counter() - t_merge, 4)})

    def replay_in_rounds(self, changelog: str | list[str],
                         num_rounds: int) -> list[dict[str, Any]]:
        """Process the changelog in LSN-ordered micro-batches (one exactly-once
        transaction per round) so per-round merge state is bounded — the scale
        path for 10^10-event logs (SURVEY.md §7.5.2). Round bounds come from
        parquet footer statistics (metadata-only). ``num_rounds < 1``
        raises ``ValueError``."""
        if num_rounds < 1:
            raise ValueError(f"replay_in_rounds needs num_rounds >= 1, got {num_rounds}")
        files = _expand_paths(changelog)
        lo, hi = _lsn_bounds(files, self.lsn_col)
        edges = np.linspace(lo - 1, hi, num_rounds + 1).astype(np.int64)
        out = []
        for i in range(num_rounds):
            out.append(self.replay(files, lsn_min=int(edges[i]),
                                   lsn_max=int(edges[i + 1])))
        return out

    def tail(self, changelog: str | list[str], max_polls: int = 10,
             idle_stop: int = 2, poll_interval_s: float = 0.0) -> list[dict]:
        """Binlog/WAL-style tailer: poll the changelog location and apply
        whatever is new, as long as new events keep arriving.

        Each poll is one exactly-once :meth:`replay` — per-partition LSN
        checkpoints make polling idempotent (already-applied events are
        pruned at the read and skipped in the merge), so "tail" is literally
        "replay in a loop". A poll plans only the files the engine has not
        applied yet (the last poll's files are skipped unread, see
        :meth:`replay`), so an idle poll reads no footer and runs no task.
        Stops after ``idle_stop`` consecutive polls with nothing new, or
        ``max_polls`` total. Returns per-poll metrics.

        Delivery contract (the standard WAL/binlog prefix property): segments
        that appear later must only contain events with LSN above the
        already-applied checkpoints — checkpoints are watermarks meaning
        "everything at or below is applied". Out-of-order backfill across
        polls violates that, and today an event at or below its pid's
        checkpoint is dropped without a report: pruned at planning or
        filtered in the merge, even when it would win its key. Replaying
        the full set in one call applies such an event only into a new
        lake; on an existing one the checkpoints already cover it (see
        ROADMAP direction 10)."""
        out = []
        idle = 0
        for _ in range(max_polls):
            m = self.replay(changelog)
            out.append(m)
            idle = 0 if m["committed"] else idle + 1
            if idle >= idle_stop:
                break
            if poll_interval_s:
                time.sleep(poll_interval_s)
        return out

    # -- read side ----------------------------------------------------------

    def final_dataset(self, columns: list[str] | None = None,
                      version: int | None = None) -> rd.Dataset:
        """The committed lake table as a Dataset (``_lsn`` hidden), planned
        like :meth:`table_changes`: each pid's base file and deltas stay
        together, in tasks of up to ``SPLIT_MIB`` recorded bytes; a task
        reads one row group at a time, aligned to the files' unified
        schema (evolved types widen; columns a file predates read as
        nulls), and resolves its pids' deltas (see :func:`_read_snapshot`).
        A lake that fits one task is read at the call and returned as an
        executed Dataset, so a bad file raises here; a larger one streams
        (see :func:`_file_tasks`).
        ``columns`` projects at the read (``None``: every user column; an
        unknown name raises ``ValueError``). ``version`` time-travels to any
        committed transaction (manifests are retained). An empty lake
        raises ``ValueError``; an all-deleted one reads as a typed empty
        table."""
        parts = sorted(self.manifest.partitions(version).values(),
                       key=lambda e: e["file"])
        if not parts:
            raise ValueError("lake is empty (no committed transactions)")
        footers = _footers([e["file"] for e in parts]
                           + sorted({d["file"] for e in parts for d in e["deltas"]}))
        full = unify_parquet_schemas(footers).remove_metadata()
        user_cols = [n for n in full.names if n not in _LAKE_COLS]
        unknown = [c for c in columns or [] if c not in user_cols]
        if unknown:
            raise ValueError(f"unknown columns {unknown}; the lake has {user_cols}")
        schema = pa.schema([full.field(c) for c in columns or user_cols])
        nbytes = {e["file"]: sum(d["bytes"] for d in e["deltas"]) for e in parts}
        for f, _, b, _, _ in _row_groups({e["file"]: footers[e["file"]] for e in parts},
                                         LAKE_LSN_COL):
            nbytes[f] += b
        key = list(self.key)
        # what a task with deltas reads: the keys, the projection, the LSN
        resolve = pa.schema([full.field(n) for n in dict.fromkeys(
            [*key, *schema.names, LAKE_LSN_COL])])
        units = ({"file": e["file"], "deltas": e["deltas"]} for e in parts)
        return _file_tasks(((u, nbytes[u["file"]]) for u in units),
                           lambda us: _read_snapshot(us, schema, key, resolve))

    def final_table(self, sort: bool = True, version: int | None = None) -> pa.Table:
        """Materialized final state, sorted by key — for tests/verification
        only (stable turn ordering per BASELINE.json); never call on 100 TB."""
        # collected as blocks, an all-deleted lake keeps its typed empty
        # one (iteration skips empty blocks)
        tbl = collect_arrow(self.final_dataset(version=version))
        if sort:
            tbl = tbl.sort_by([(k, "ascending") for k in self.key])
        return tbl

    def table_changes(self, v_from: int, v_to: int | None = None,
                      payload_columns: list[str] | None = None
                      ) -> rd.Dataset:
        """The lake as a CDC **source**: the exact row-level diff between
        two committed versions — ``(key..., change ∈ insert/update/delete,
        new payload columns — null for deletes)``. ``v_to`` defaults to the
        current version; ``v_from > v_to`` or ``v_from < 0`` raises
        ``ValueError``, as does a version in the range that recorded no
        change records.

        Reads only the change records of versions ``v_from+1..v_to`` (every
        key an event won, with its previous winner's LSN: a pid's rows of
        its merge task's delta file, or a first write's base file), so the
        cost is O(changed rows), and a task reads each delta file once.
        Each pid's records stay together, and pids are grouped into tasks
        of up to ``SPLIT_MIB`` of recorded bytes; a key lives in one pid,
        so any grouping is exact, and only a pid with several records in
        range needs a sort (see :func:`_fold_changes`). Rows come pid by
        pid, not in key order. A diff that fits one task (an empty range
        too: no records, the typed empty table) is read at the call and
        returned as an executed Dataset, so a bad file raises here; a
        larger one streams (see :func:`_file_tasks`). A
        key live at both ends is an update (a newer event won it, so
        payload-equal rewrites are still reported, like the changelog); one
        live at neither is dropped.

        ``payload_columns`` prunes the new-side payload carried through the
        diff (``[]`` = keys + change only; an unknown name raises
        ``ValueError``): a consumer that only needs the change kind (e.g.
        incremental count maintenance) should not read the wide text
        columns at all."""
        v_to = self.manifest.current_version() if v_to is None else v_to
        if not 0 <= v_from <= v_to:
            raise ValueError(f"table_changes needs 0 <= v_from <= v_to, "
                             f"got v_from={v_from}, v_to={v_to}")
        refs: dict[int, list[dict]] = {}      # pid -> change records, by version
        nbytes: dict[int, int] = {}
        for v in range(v_from + 1, v_to + 1):
            changes = self.manifest.load(v).get("changes")
            if changes is None:
                raise ValueError(f"version {v} records no change files, so no "
                                 f"row diff can be read across it")
            for pid, e in changes.items():
                refs.setdefault(int(pid), []).append(
                    {**e, "file": os.path.join(self.lake_dir, e["file"])})
                nbytes[int(pid)] = nbytes.get(int(pid), 0) + int(e["bytes"])
        # one schema for every version in the range: key types widen across
        # an evolving commit (e.g. int32 -> int64), so all records align to
        # it; an empty range still gets the table's typed schema. A delta
        # file serves every pid of its merge group: its footer is read once
        schema = unify_parquet_schemas(
            sorted({r["file"] for rs in refs.values() for r in rs})
            or sorted(self.manifest.partition_files(v_to).values()))
        payload = [n for n in schema.names if n not in (*self.key, *_LAKE_COLS)]
        if payload_columns is not None:
            unknown = [c for c in payload_columns if c not in payload]
            if unknown:
                raise ValueError(f"unknown payload columns {unknown}; "
                                 f"the diff has {payload}")
            payload = [c for c in payload if c in payload_columns]
        # declared, not unified: a range of first writes has no file with
        # _deleted (a first write's base file is its change record)
        read_schema = pa.schema(
            [schema.field(n) for n in (*self.key, LAKE_LSN_COL)]
            + [pa.field(LAKE_DELETED_COL, pa.bool_()),
               pa.field(LSN_FROM_COL, pa.int64())]
            + [schema.field(n) for n in payload])
        key = list(self.key)
        return _file_tasks(((refs[pid], nbytes[pid]) for pid in sorted(refs)),
                           lambda us: _fold_changes(us, read_schema, key))


def _read_snapshot(units: list[dict], schema: pa.Schema, key: list[str],
                   resolve: pa.Schema) -> Iterator[pa.Table]:
    """Read each unit's base file (``{"file", "deltas"}``, one per pid) one
    row group at a time, single-threaded (one task is one CPU's work),
    projected to the ``schema`` columns each file has and aligned to
    ``schema``. A pid without deltas reads exactly so.

    The deltas of the task's pids are resolved together, once: their
    records (``resolve`` columns plus ``_deleted`` and ``_lsn_from``) are
    read, reduced to each key's last record where a pid has several
    deltas, and the live ones are yielded after the bases. The base is
    neither sorted nor joined: a base row is superseded iff a record
    names it as its key's previous winner (see
    :class:`_Supersede`). A task whose files hold no rows yields the typed
    empty table, so the snapshot keeps its schema."""
    files = _LakeFiles()
    sup = live = None
    if any(u["deltas"] for u in units):
        rec = pa.schema([*resolve, pa.field(LAKE_DELETED_COL, pa.bool_()),
                         pa.field(LSN_FROM_COL, pa.int64())])
        parts = files.read([r for u in units for r in u["deltas"]], schema=rec)
        # one chunk: the sort and gathers below would otherwise walk one
        # chunk per pid and delta
        d = pa.concat_tables(parts).combine_chunks()
        if any(len(u["deltas"]) > 1 for u in units):
            idx, ends, _ = _lww_sort(d, key, [LAKE_LSN_COL])
            winners = idx[ends]
        else:
            winners = np.arange(d.num_rows)
        deleted = d.column(LAKE_DELETED_COL).to_numpy(zero_copy_only=False)
        live = d.select(schema.names).take(winners[~deleted[winners]])
        sup = _Supersede(d, key)
    empty = True
    for u in units:
        pf = files.open(u["file"])
        names = pf.schema_arrow.names
        cols = [n for n in (resolve if u["deltas"] else schema).names if n in names]
        for rg in range(pf.num_row_groups):
            if not pf.metadata.row_group(rg).num_rows:
                continue
            t = pf.read_row_group(rg, columns=cols, use_threads=False)
            if u["deltas"]:
                t = align_to_schema(t, resolve)
                keep = sup.keep(t)
                t = t.select(schema.names)
                if keep is not None:
                    t = t.filter(keep)
            else:
                t = align_to_schema(t, schema)
            if t.num_rows:
                empty = False
                yield t
    if live is not None and live.num_rows:
        empty = False
        yield live
    if empty:
        yield schema.empty_table()


class _Supersede:
    """Which base rows a task's delta records supersede: a record names
    its key's previous winner by ``_lsn_from``, so a base row is
    superseded iff its ``(key..., _lsn)`` is some record's ``(key...,
    _lsn_from)``. The base rows whose ``_lsn`` some record names are the
    candidates; two keys may share an LSN, so each candidate is confirmed
    on the key. A key lives in one pid, so the records of all the task's
    pids serve every base."""

    def __init__(self, records: pa.Table, key: list[str]):
        frm = records.column(LSN_FROM_COL)
        named = np.flatnonzero(frm.is_valid().to_numpy(zero_copy_only=False))
        frm = frm.fill_null(0).to_numpy()[named]
        order = np.argsort(frm, kind="stable")
        self.lsns = frm[order]
        self.values = pa.array(self.lsns)
        # the naming records' keys, in the same order
        self.keys = [records.column(k).take(named[order]).to_numpy(zero_copy_only=False)
                     for k in key]
        self.key = key

    def keep(self, base: pa.Table) -> pa.Array | None:
        """The rows of a base row group (``key..., _lsn``, aligned to the
        records' key types) that no record supersedes, as a filter mask;
        ``None`` keeps them all."""
        lsn = base.column(LAKE_LSN_COL)
        cand = np.flatnonzero(pc.is_in(lsn, value_set=self.values)
                              .to_numpy(zero_copy_only=False))
        if not len(cand):
            return None
        # one pair per candidate and record naming its LSN
        lsn = lsn.to_numpy()[cand]
        lo = np.searchsorted(self.lsns, lsn, "left")
        reps = np.searchsorted(self.lsns, lsn, "right") - lo
        rows = np.repeat(cand, reps)
        recs = np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(len(rows))
        match = np.ones(len(rows), dtype=bool)
        for k, rec in zip(self.key, self.keys):
            match &= base.column(k).take(rows).to_numpy(zero_copy_only=False) == rec[recs]
        if not match.any():
            return None
        hit = np.zeros(base.num_rows, dtype=bool)
        hit[rows[match]] = True
        return pa.array(~hit)


def _fold_changes(pids: list[list[dict]], schema: pa.Schema,
                  key: list[str]) -> pa.Table:
    """Row diff of one task's pids: each entry of ``pids`` is one pid's
    change records (``{file, row_group, ...}``) of consecutive versions, in
    version order, each read as ``schema`` (``key..., _lsn, _deleted,
    _lsn_from, payload...``; a first write's base file reads with
    ``_lsn_from`` and ``_deleted`` null: it holds live rows only).

    A key's records sort by ``_lsn``, which rises with every version that
    changed the key, so its first record holds its state before the range
    (``_lsn_from`` not null: live) and its last record its state after
    (``_deleted`` false or null: live). Only a pid with several records is
    sorted: one record holds one row per key, so each of its rows is a
    whole run, and no two pids share a key. Returns ``(key..., change,
    payload...)`` for every key live on at least one side, pid by pid;
    payload is null for deletes."""
    read = iter(_LakeFiles().read([r for refs in pids for r in refs], schema=schema))
    parts, order, ends = [], [], []
    sorted_any = False
    n = 0
    for refs in pids:
        t = pa.concat_tables([next(read) for _ in refs])
        if len(refs) > 1:
            idx, e, _ = _lww_sort(t, key, [LAKE_LSN_COL])
            sorted_any = True
        else:
            idx, e = np.arange(t.num_rows), np.ones(t.num_rows, dtype=bool)
        parts.append(t)
        order.append(idx + n)
        ends.append(e)
        n += t.num_rows
    tbl = pa.concat_tables(parts) if parts else schema.empty_table()
    order = np.concatenate(order) if order else np.zeros(0, dtype=np.int64)
    ends = np.concatenate(ends) if ends else np.ones(0, dtype=bool)
    # a pid's last row ends its run, so the roll never crosses into a run
    first, last = order[np.roll(ends, 1)], order[ends]
    was_live = tbl.column(LSN_FROM_COL).is_valid().to_numpy(
        zero_copy_only=False)[first]
    is_live = ~pc.fill_null(tbl.column(LAKE_DELETED_COL), False).to_numpy(
        zero_copy_only=False)[last]
    payload = schema.names[len(key) + 3:]
    if not sorted_any and is_live.all():
        # one live row per key, in file order (a first write, or no deletes
        # in range): the columns read are the diff's, with nothing to gather
        keys, new = tbl.select(key), tbl.select(payload)
    else:
        keep = was_live | is_live
        rows = last[keep]
        was_live, is_live = was_live[keep], is_live[keep]
        keys = tbl.select(key).take(rows)
        # a null index gathers a null row: deletes carry no payload
        new = tbl.select(payload).take(pa.array(rows, mask=~is_live))
    # 0 insert, 1 update, 2 delete
    change = pa.array(OPS).take(np.where(was_live, 2 - is_live, 0))
    return pa.table([*keys.columns, change, *new.columns],
                    names=[*key, "change", *payload])


def _lsn_bounds(files: list[str], lsn_col: str) -> tuple[int, int]:
    """(min, max) LSN across files from parquet row-group statistics."""
    stats = [(lo, hi) for _, _, _, lo, hi in _row_groups(files, lsn_col)
             if lo is not None]
    if not stats:
        raise ValueError(f"no {lsn_col} statistics in parquet footers")
    return int(min(lo for lo, _ in stats)), int(max(hi for _, hi in stats))

