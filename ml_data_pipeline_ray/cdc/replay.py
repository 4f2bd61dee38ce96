"""CDC changelog replay — the flagship Ray-Data-native pipeline.

Implements the north rule from BASELINE.json: a binlog/WAL-style change-event
tailer over Parquet transcript tables. Change events
``(lsn, op ∈ {insert,update,delete}, conv_id, turn_idx, payload…)`` are read
as zero-copy Arrow tables by stateless Ray tasks, hash-partitioned by
``conv_id`` and merged with per-key last-writer-wins LSN ordering into a
partitioned Parquet lake with an exactly-once manifest commit
(:mod:`.manifest`); the lake is read back as ``ray.data`` Datasets. Like
Delta Lake's copy-on-write tables, partition files hold live rows only: a
delete reaches readers through the change files. Keeping a deleted row
would serve no merge: every stored ``_lsn`` is at or below its
partition's checkpoint, below every event a later merge applies.

Dataflow (SURVEY.md §7.1)::

    driver: read each changelog footer once; plan row-group splits from
         them (LSN-pruned) and G = min(P, cluster CPUs) merge groups,
         contiguous ranges of pids
      -> map task per split: read with lsn > checkpoint pushdown, align
         schema, op->rank, pid = hash(conv_id) % P, per-split LWW combine,
         split into P shards, one Arrow IPC file buffer per group
         (a record batch per pid)                         [stateless tasks]
      -> merge task per group, each of its pids in turn:  [THE one
         concat the pid's shards, merge with the current      wide step]
         lake partition, write + fsync the staged partition
         file (live winners only) and its change file (every
         key an event won, deletes included, with the previous
         winner's LSN)
      -> driver: collect P tiny metrics dicts -> atomic manifest commit [2PC]
         recording the partition files and this version's change files

    final_dataset(version): the partition files the manifest lists, in
         tasks of up to SPLIT_MIB footer bytes
      -> per task: read each row group (projected), align -> snapshot

    table_changes(v_from, v_to): each pid's change files of versions
         v_from+1..v_to, kept together, in tasks of up to SPLIT_MIB
         recorded bytes
      -> per task, pid by pid: read + align; a pid with one change file
         is projected (one row per key), one with several is sorted and
         folded (first record: state before the range, last record:
         state after) -> row diff

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
  CPUs: a group task folds its partitions one at a time, so its heap holds
  one partition's state, and the exchange ships B x G objects, not B x P.
  The changelog is processed in LSN-ordered rounds
  (:meth:`CDCEngine.replay_in_rounds`) so merge state is bounded per round
  (SURVEY.md §7.5.2).
- The only all-to-all exchange is the P-way hash exchange; the per-split
  LWW combiner runs before it (map-side partial reduce), so a hot
  conversation ships at most one row per key per split to its merge task.
- Reads prune with column projection + ``lsn > checkpoint`` row-group
  pushdown (reference P3 analog, ``parquet/predicates.rs:336-375``); the
  split planner already drops row groups whose footer LSN range the
  pushdown would empty, so a tail poll schedules map tasks only for the
  new segments.
- Both lake reads plan from the manifest and the footers alone (no
  datasource re-planning or sampling per call) and group files into tasks
  of up to ``SPLIT_MIB``. A snapshot task yields one table per row group,
  so a partition larger than Ray Data's target block size streams as
  several blocks instead of being held whole.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.exchange import cluster_cpus, key_hash
from ..stages.transforms import align_to_schema  # canonical impl (widening lattice)
from .manifest import LakeManifest

# internal column names (never user-facing)
PID_COL = "_pid"
RANK_COL = "_rank"
LAKE_LSN_COL = "_lsn"
LAKE_DELETED_COL = "_deleted"  # change files: the key's winner is a delete
LSN_FROM_COL = "_lsn_from"  # change files: the previous winner's LSN

OPS = ["insert", "update", "delete"]  # rank 0, 1, 2

# upper bound on compressed input bytes per map task, and on the lake
# bytes a final_dataset or table_changes task takes on before it closes
SPLIT_MIB = 16


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------

def _key_run_ends(tbl: pa.Table, key: list[str]) -> np.ndarray:
    """Mask of the last row of each run of equal keys in a table already
    sorted by ``key`` (the LWW winner when ``(lsn, rank)`` sort next) — one
    vectorized boundary scan. ``np.roll(mask, 1)`` marks each run's first
    row."""
    n = tbl.num_rows
    mask = np.ones(n, dtype=bool)
    if n <= 1:
        return mask
    # a row ends its run iff the next row has a different key
    neq = None
    for k in key:
        col = tbl.column(k).combine_chunks()
        d = pc.fill_null(pc.not_equal(col.slice(0, n - 1), col.slice(1)), True)
        neq = d if neq is None else pc.or_(neq, d)
    mask[: n - 1] = neq.to_numpy(zero_copy_only=False)
    return mask


def lww_winners(tbl: pa.Table, key: list[str], lsn_col: str = "lsn",
                rank_col: str = RANK_COL) -> pa.Table:
    """Keep, per key, the single row with max ``(lsn, rank)`` — the
    last-writer-wins reduce. Pure Arrow, O(n log n) sort + one vectorized
    boundary scan; no Python per-row work."""
    sort_keys = [(k, "ascending") for k in key] + [(lsn_col, "ascending"),
                                                  (rank_col, "ascending")]
    tbl = tbl.sort_by(sort_keys)
    return tbl.filter(pa.array(_key_run_ends(tbl, key)))


Footers = dict[str, pq.FileMetaData]


def _footers(files: Iterable[str] | Footers) -> Footers:
    """path -> parquet footer (metadata-only reads); footers already read
    pass through, so one replay reads each file's footer once."""
    if isinstance(files, dict):
        return files
    return {f: pq.read_metadata(f) for f in files}


def unify_parquet_schemas(files: Iterable[str] | Footers) -> pa.Schema:
    """Unified (permissively promoted) schema across parquet footers —
    metadata-only reads, cheap even for many files."""
    schemas = [md.schema.to_arrow_schema() for md in _footers(files).values()]
    return pa.unify_schemas(schemas, promote_options="permissive")


def _expand_paths(paths: str | list[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".parquet")))
        else:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# the exchange (fused map + P-way hash exchange + merge via Ray core)
# ---------------------------------------------------------------------------
#
# Profiling at sandbox scale showed Ray Data's generic sort-based groupby
# spending its wall time on shuffle-object handling (B input blocks x P
# partitions small objects + sort sampling barriers), not on compute; the CDC
# exchange needs no sort at all — the partition function pid = hash(conv_id)%P
# is known up front. The exchange is therefore expressed directly with Ray
# core tasks (the "custom operator" escape hatch, SURVEY.md §2 "Custom
# operators"):
#
#   map task  (one per input split): read parquet split with pushdown ->
#       schema-align -> op->rank -> pid -> per-split LWW combine -> return G
#       Arrow IPC file buffers (one object per merge group, one record
#       batch per pid of the group)
#   merge task (one per group of pids): for each pid, read its batch from
#       each of the B buffers -> concat -> LWW merge with the current lake
#       partition -> staged partition file + change file
#
# Shards travel as IPC buffers rather than pa.Tables: Ray pickles a table
# column by column, while a buffer is one out-of-band blob that the merge
# task reads back zero-copy from the object store (a 16x16 exchange of
# ~170 KB shards measured ~40% less CPU than pickled tables). Grouping
# the pids cuts the fixed cost per object and per task: with G = min(P,
# cpus) there are never more merge tasks than CPUs to run them, and one
# replay at P=16 on 1 CPU ships 16 objects to 1 merge task instead of 256
# to 16 (Riffle's small-block merging, applied to Ray objects).
#
# Partitioning assumption: every event of a key lands in exactly one pid
# (guaranteed by the hash); a merge starts when all map outputs for its
# group exist (an inherent barrier of any exchange). Object count is B x G,
# which replay_in_rounds bounds: LSN-chunked rounds bound B, and G is at
# most the cluster's CPUs.


def _row_groups(files: list[str] | Footers, lsn_col: str):
    """Yield ``(file, rg_idx, compressed_bytes, lsn_min, lsn_max)`` for every
    row group, from parquet footers (metadata-only reads); the LSN bounds
    are ``None`` where the footer carries no statistics."""
    for f, md in _footers(files).items():
        leaves = [md.schema.column(j).path for j in range(md.num_columns)]
        idx = leaves.index(lsn_col) if lsn_col in leaves else None
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            b = sum(g.column(j).total_compressed_size for j in range(md.num_columns))
            st = g.column(idx).statistics if idx is not None else None
            if st is None or not st.has_min_max:
                yield f, rg, b, None, None
            else:
                yield f, rg, b, st.min, st.max


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


def _merge_groups(num_partitions: int, cpus: int) -> list[range]:
    """The merge plan: ``min(P, cpus)`` contiguous ranges of pids covering
    ``0..P-1``, sizes differing by at most one. One merge task per range:
    more tasks than CPUs buy no parallelism, only objects and task
    overhead, while with ``cpus >= P`` every pid is its own group."""
    g = max(1, min(num_partitions, cpus))
    return [range(i * num_partitions // g, (i + 1) * num_partitions // g)
            for i in range(g)]


@ray.remote
def _exchange_map_task(split: list[tuple[str, list[int]]], schema: pa.Schema,
                       flt, key: list[str], lsn_col: str, op_col: str,
                       num_partitions: int, groups: list[range]
                       ) -> list[pa.Buffer] | pa.Buffer:
    """Read one input split (row-group subsets, with pushdown), normalize,
    combine, and split into ``num_partitions`` shards, returned as one
    Arrow IPC file buffer per merge group: record batch ``i`` of a group's
    file is the shard of its ``i``-th pid, empty if that pid got no rows
    (one object per group; with one group the lone buffer itself, since
    Ray stores a single return as is). Raises ``ValueError`` if an ``op``
    is null or not one of :data:`OPS`."""
    import pyarrow.dataset as pads

    # heterogeneous (evolved) fragments: scan each file with ITS OWN schema
    # (the filter only touches the always-present lsn column, so pushdown
    # still applies) and align afterwards — Arrow's scanner can null-fill /
    # widen flat columns but cannot cast evolved struct columns, while
    # align_to_schema handles the full lattice including nested types
    parts = []
    for f, rg_ids in split:
        frag = next(iter(pads.dataset(f).get_fragments()))
        if len(rg_ids) < frag.num_row_groups:
            frag = frag.subset(row_group_ids=rg_ids)
        t = frag.to_table(filter=flt)
        parts.append(align_to_schema(t, schema))
    tbl = parts[0] if len(parts) == 1 else pa.concat_tables(parts)
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
    # it is a function of key[0]). The scan needs only the sorted keys, so
    # the wide payload is gathered once, for the winners alone: the same
    # table as sort_by + filter (sort_by is sort_indices + take) for ~11%
    # less CPU: 107 -> 95 ms over the 16 seed-41 backfill splits, 1 vCPU.
    sort_keys = ([(PID_COL, "ascending")] + [(k, "ascending") for k in key]
                 + [(lsn_col, "ascending"), (RANK_COL, "ascending")])
    idx = pc.sort_indices(tbl, sort_keys=sort_keys)
    ends = _key_run_ends(tbl.select(key).take(idx), key)
    tbl = tbl.take(idx.to_numpy()[ends])

    spid = tbl.column(PID_COL).to_numpy()
    bounds = np.searchsorted(spid, np.arange(num_partitions + 1))
    # a shard's pid is its position; one batch to slice (an empty table
    # has none)
    tbl = tbl.drop_columns([PID_COL]).combine_chunks()
    rows = (tbl.to_batches()
            or [pa.RecordBatch.from_pylist([], schema=tbl.schema)])[0]
    # the IPC writer copies only a slice's own rows (a pickled zero-copy
    # slice would drag its parent buffers into the object store), so each
    # shard is written straight from its slice
    out = []
    for grp in groups:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, tbl.schema) as w:
            for i in grp:
                w.write_batch(rows.slice(bounds[i], bounds[i + 1] - bounds[i]))
        out.append(sink.getvalue())
    return out if len(groups) > 1 else out[0]


@ray.remote
def _exchange_merge_task(pids: list[int], cur_paths: list, ckpts: list[int],
                         key: list[str], lsn_col: str, payload_names: list[str],
                         txn_dir: str, *group_bufs) -> dict:
    """The merge of one group of partitions: each of ``pids`` in turn is
    folded by :func:`_merge_partition` from record batch ``i`` of every map
    task's group buffer. Returns ``{"exchange_bytes": IPC bytes received,
    "partitions": per-pid metrics dicts}``."""
    # buffers arrive as top-level args so Ray resolves the ObjectRefs
    # in-line; each is one IPC file, read zero-copy from the object store
    readers = [pa.ipc.open_file(b) for b in group_bufs]
    return {"exchange_bytes": sum(b.size for b in group_bufs),
            "partitions": [
                _merge_partition(pid, [r.get_batch(i) for r in readers],
                                 cur_paths[i], ckpts[i], key, lsn_col,
                                 payload_names, txn_dir)
                for i, pid in enumerate(pids)]}


def _merge_partition(pid: int, shards: list[pa.RecordBatch], cur_path, ckpt: int,
                     key: list[str], lsn_col: str, payload_names: list[str],
                     txn_dir: str) -> dict:
    """The per-partition LWW merge: concat the partition's shards, drop
    already-applied events, fold into the current lake partition state,
    write the staged partition file and its change file and return one
    metrics dict (with the change file's manifest entry, ``change``).

    The partition file holds the live winners only: a key whose winner is
    a delete is dropped from it. The change file holds the winner of each
    key an event won (``_deleted`` true for a delete), plus ``_lsn_from``:
    the previous winner's LSN, null if the key had no lake row. On a
    partition's first write every live winner is a change (and a dropped
    delete none), so the partition file itself is the change file."""
    # all-empty shards still keep one batch for the schema
    ev = pa.Table.from_batches([s for s in shards if s.num_rows] or shards[:1])
    lo, hi = pc.min_max(ev.column(lsn_col)).values()
    # the filter copies every event, so it runs only when some event is
    # applied already: never on a first write, and after the read pushdown
    # only where the checkpoint is above the pushdown floor
    if lo.is_valid and lo.as_py() <= ckpt:
        ev = ev.filter(pc.greater(ev.column(lsn_col), pa.scalar(ckpt)))
        hi = pc.max(ev.column(lsn_col))
    if ev.num_rows == 0:
        return {"pid": pid, "action": "skip", "file": "", "last_lsn": ckpt,
                "rows": 0, "events_applied": 0}
    ev = ev.select(payload_names + [lsn_col, RANK_COL])

    first_write = not (cur_path and os.path.exists(cur_path))
    if first_write:
        combined = ev
    else:
        # one task is one CPU's work: a single-threaded read of the one file
        # skips the dataset layer and Arrow's thread pool
        cur = pq.ParquetFile(cur_path).read(use_threads=False)
        cur = cur.rename_columns(
            [lsn_col if c == LAKE_LSN_COL else c for c in cur.column_names])
        # a lake row's LSN is at or below the checkpoint, every event's
        # above: it sorts first in its key's run and loses to any event, so
        # any constant rank does
        cur = cur.append_column(RANK_COL, pa.array(np.zeros(cur.num_rows, np.int8)))
        combined = pa.concat_tables([cur, ev], promote_options="permissive")

    # sort narrow: the run scan reads only the sorted keys, LSNs and ranks,
    # and each file gathers its rows from the unsorted table in one take
    sort_cols = key + [lsn_col, RANK_COL]
    idx = pc.sort_indices(combined, sort_keys=[(c, "ascending") for c in sort_cols])
    srt = combined.select(sort_cols).take(idx)
    idx = idx.to_numpy()
    ends = _key_run_ends(srt, key)
    lsn = srt.column(lsn_col).to_numpy()
    deleted = srt.column(RANK_COL).to_numpy() == 2
    out_names = [c for c in combined.column_names if c not in (lsn_col, RANK_COL)]
    lake = combined.select(out_names + [lsn_col]).rename_columns(
        out_names + [LAKE_LSN_COL])

    def lake_rows(mask: np.ndarray) -> pa.Table:
        return lake.take(idx[mask])

    lake_tbl = lake_rows(ends & ~deleted)
    # the txn directory appears only once a partition is actually written,
    # so a replay with nothing to apply leaves no debris
    os.makedirs(txn_dir, exist_ok=True)
    path = os.path.join(txn_dir, f"pid={pid:05d}.parquet")
    _write_durably(lake_tbl, path)

    change_path = path
    if not first_write:
        # a key changed iff its winner is an event; it had a lake row iff
        # its run starts with one
        changed = ends & (lsn > ckpt)
        first_lsn = lsn[np.roll(ends, 1)][changed[ends]]
        change_path = os.path.join(txn_dir, f"pid={pid:05d}.changes.parquet")
        _write_durably(lake_rows(changed)
                       .append_column(LAKE_DELETED_COL, pa.array(deleted[changed]))
                       .append_column(LSN_FROM_COL,
                                      pa.array(first_lsn, mask=first_lsn > ckpt)),
                       change_path)

    return {"pid": pid, "action": "write", "file": path,
            "last_lsn": max(ckpt, hi.as_py()), "rows": lake_tbl.num_rows,
            "events_applied": int(ev.num_rows),
            "change": {"file": change_path, "bytes": os.path.getsize(change_path)}}


def _write_durably(tbl: pa.Table, path: str) -> None:
    """Write one lake file and fsync it. zstd-1 halves lake bytes vs snappy
    at equal CPU (partition-write disk bandwidth is the merge wall's floor
    at high parallelism). No column is dictionary-encoded: under zstd none
    of the transcript columns gains from it. Writing the 16 partitions of
    the seed-41 ``backfill`` lake (116,085 rows) in memory, plain pages
    made the files 15.6% smaller (3,761,710 -> 3,176,687 bytes) and cut
    encoding ~30% (~105 -> ~75 ms) and decoding ~15% (~40 -> ~35 ms) on
    1 vCPU; keeping dictionaries on the low-cardinality ``role`` and
    ``tool`` alone saved another 1.9% of bytes at the same CPU.

    Each data file is fsynced by the task that wrote it, in parallel
    across tasks, so the commit-time manifest fsync is tiny: otherwise it
    could stall seconds behind GBs of dirty writeback and still fail to
    cover the data files."""
    pq.write_table(tbl, path, compression="zstd", compression_level=1,
                   use_dictionary=False)
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
        self.lake_dir = lake_dir
        self.key = key or ["conv_id", "turn_idx"]
        self.lsn_col = lsn_col
        self.op_col = op_col
        self.manifest = LakeManifest(lake_dir)
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

        Besides ``version``, ``committed``, ``events_applied`` and
        ``partitions_written`` (plus ``rows_live``, the committed table's
        live rows, on commit), the metrics carry the transaction's map work,
        also recorded in the manifest version's ``metrics``: ``map_tasks``
        (splits scheduled after LSN pruning) and ``row_groups_pruned``. A
        replay that ran the exchange also reports and records
        ``merge_tasks`` (merge groups), ``input_bytes`` (compressed bytes of
        the changelog's row groups, pruned ones included),
        ``exchange_bytes`` (summed size of the group buffers the merge tasks
        received), ``change_bytes`` (bytes of the change files it
        recorded), ``maps_s`` and ``merge_s`` (phase walls), and returns
        ``commit_s`` (the manifest commit's wall).
        """
        files = _expand_paths(changelog)
        footers = _footers(files)
        in_schema = unify_parquet_schemas(footers)
        payload_names = [f.name for f in in_schema
                         if f.name not in (self.lsn_col, self.op_col)]

        ckpts = self.manifest.checkpoints()
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
        plan = {"map_tasks": len(splits), "row_groups_pruned": pruned}
        if not splits:
            return {"version": self.manifest.current_version(),
                    "committed": False, "events_applied": 0,
                    "partitions_written": 0, **plan}

        P = self.num_partitions
        groups = _merge_groups(P, cluster_cpus())
        version = self.manifest.current_version() + 1
        txn_dir = self.manifest.txn_data_dir(version)
        cur_files = self.manifest.partition_files()

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
            _exchange_merge_task.remote(list(grp), [cur_files.get(p) for p in grp],
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
                    maps_s=round(t_maps - t0, 4),
                    merge_s=round(t_merge - t_maps, 4))
        if not written:
            return {"version": version - 1, "committed": False,
                    "events_applied": 0, "partitions_written": 0, **plan}
        # partition files hold no deleted rows; "tombstones" stays because
        # the benchmark's lake statistics still read it
        new_parts = {int(r["pid"]): {"file": r["file"], "last_lsn": int(r["last_lsn"]),
                                     "rows": int(r["rows"]), "tombstones": 0}
                     for r in written}
        carried = {int(p): e for p, e in self.manifest.load()["partitions"].items()}
        totals = {
            "events_applied": int(sum(r["events_applied"] for r in written)),
            "partitions_written": len(new_parts),
            # the whole committed table: written and carried-forward partitions
            "rows_live": int(sum(e["rows"] for e in {**carried, **new_parts}.values())),
            **plan,
        }
        self.manifest.commit(version, new_parts,
                             meta={"num_partitions": self.num_partitions,
                                   "key": self.key},
                             metrics=totals,
                             changes={int(r["pid"]): r["change"] for r in written})
        return {"version": version, "committed": True, **totals,
                "commit_s": round(time.perf_counter() - t_merge, 4)}

    def replay_in_rounds(self, changelog: str | list[str],
                         num_rounds: int) -> list[dict[str, Any]]:
        """Process the changelog in LSN-ordered micro-batches (one exactly-once
        transaction per round) so per-round merge state is bounded — the scale
        path for 10^10-event logs (SURVEY.md §7.5.2). Round bounds come from
        parquet footer statistics (metadata-only)."""
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
        "replay in a loop". Stops after ``idle_stop`` consecutive polls with
        nothing new, or ``max_polls`` total. Returns per-poll metrics.

        Delivery contract (the standard WAL/binlog prefix property): segments
        that appear later must only contain events with LSN above the
        already-applied checkpoints — checkpoints are watermarks meaning
        "everything at or below is applied". Out-of-order backfill across
        polls violates that; for such logs, replay the full set in one call
        (idempotent, order-free) instead of tailing."""
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
        """The committed lake table as a streaming Dataset (``_lsn`` hidden),
        planned like :meth:`table_changes`: tasks of up to ``SPLIT_MIB``
        footer bytes read one row group at a time, aligned to the files'
        unified schema (evolved types widen; columns a file predates read as
        nulls). ``columns`` projects at the read (``None``: every user
        column; an unknown name raises ``ValueError``). ``version``
        time-travels to any committed transaction (manifests are retained).
        An empty lake raises ``ValueError``; an all-deleted one reads as a
        typed empty table."""
        pfiles = sorted(self.manifest.partition_files(version).values())
        if not pfiles:
            raise ValueError("lake is empty (no committed transactions)")
        footers = _footers(pfiles)
        schema = unify_parquet_schemas(footers).remove_metadata()
        user_cols = [n for n in schema.names if n != LAKE_LSN_COL]
        unknown = [c for c in columns or [] if c not in user_cols]
        if unknown:
            raise ValueError(f"unknown columns {unknown}; the lake has {user_cols}")
        schema = pa.schema([schema.field(c) for c in columns or user_cols])
        nbytes = dict.fromkeys(pfiles, 0)
        for f, _, b, _, _ in _row_groups(footers, LAKE_LSN_COL):
            nbytes[f] += b
        return _file_tasks((([f], nbytes[f]) for f in pfiles),
                           lambda units: _read_snapshot(
                               [f for fs in units for f in fs], schema))

    def final_table(self, sort: bool = True, version: int | None = None) -> pa.Table:
        """Materialized final state, sorted by key — for tests/verification
        only (stable turn ordering per BASELINE.json); never call on 100 TB."""
        # materialized, the blocks keep the typed empty one of an
        # all-deleted lake (iteration skips empty blocks)
        ds = self.final_dataset(version=version).materialize()
        tbl = pa.concat_tables(ray.get(ds.to_arrow_refs()))
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
        change files.

        Reads only the change files of versions ``v_from+1..v_to`` (every
        key an event won, with its previous winner's LSN), so the cost is
        O(changed rows): a deleted key is in no partition file, only in the
        change file of the version that deleted it. Each pid's files stay
        together, and pids are grouped into tasks of up to ``SPLIT_MIB`` of
        recorded bytes; a key lives in one pid, so any grouping is exact,
        and only a pid with several files in range needs a sort (see
        :func:`_fold_changes`). Rows come pid by pid, not in key order. A
        key live at both ends is an update (a newer event won it, so
        payload-equal rewrites are still reported, like the changelog); one
        live at neither is dropped.

        ``payload_columns`` prunes the new-side payload carried through the
        diff (``[]`` = keys + change only): a consumer that only needs the
        change kind (e.g. incremental count maintenance) should not read
        the wide text columns at all."""
        v_to = self.manifest.current_version() if v_to is None else v_to
        if not 0 <= v_from <= v_to:
            raise ValueError(f"table_changes needs 0 <= v_from <= v_to, "
                             f"got v_from={v_from}, v_to={v_to}")
        files: dict[int, list[str]] = {}      # pid -> change files, by version
        nbytes: dict[int, int] = {}
        for v in range(v_from + 1, v_to + 1):
            changes = self.manifest.load(v).get("changes")
            if changes is None:
                raise ValueError(f"version {v} records no change files, so no "
                                 f"row diff can be read across it")
            for pid, e in changes.items():
                files.setdefault(int(pid), []).append(
                    os.path.join(self.lake_dir, e["file"]))
                nbytes[int(pid)] = nbytes.get(int(pid), 0) + int(e["bytes"])
        # one schema for every version in the range: key types widen across
        # an evolving commit (e.g. int32 -> int64), so all records align to
        # it; an empty range still gets the table's typed schema
        schema = unify_parquet_schemas(
            [f for fs in files.values() for f in fs]
            or sorted(self.manifest.partition_files(v_to).values()))
        payload = [n for n in schema.names if n not in
                   (*self.key, LAKE_LSN_COL, LAKE_DELETED_COL, LSN_FROM_COL)]
        if payload_columns is not None:
            payload = [c for c in payload if c in payload_columns]
        # declared, not unified: a range of first writes has no file with
        # _deleted (partition files double as their change files)
        read_schema = pa.schema(
            [schema.field(n) for n in (*self.key, LAKE_LSN_COL)]
            + [pa.field(LAKE_DELETED_COL, pa.bool_()),
               pa.field(LSN_FROM_COL, pa.int64())]
            + [schema.field(n) for n in payload])
        key = list(self.key)

        if not files:
            return rd.from_arrow(_fold_changes([], read_schema, key))
        return _file_tasks(((files[pid], nbytes[pid]) for pid in sorted(files)),
                           lambda fs: _fold_changes(fs, read_schema, key))


def _file_tasks(units: Iterable[tuple[list[str], int]], read) -> rd.Dataset:
    """One Ray Data task per group of ``(files, recorded_bytes)`` units, taken
    in order until the group holds ``SPLIT_MIB`` bytes (no unit is split).
    ``read(units)`` gets the group's file lists, one per unit and in order,
    and returns a table or yields tables, which Ray Data emits as blocks of
    at most its target block size."""
    tasks: list[list[list[str]]] = []
    budget = 0
    for files, nbytes in units:
        if not tasks or budget >= SPLIT_MIB << 20:
            tasks.append([])
            budget = 0
        tasks[-1].append(files)
        budget += nbytes

    def run(batch: pa.Table):
        return read(batch["units"][0].as_py())

    return rd.from_items([{"units": t} for t in tasks],
                         override_num_blocks=len(tasks)).map_batches(
        run, batch_size=1, batch_format="pyarrow")


def _read_snapshot(files: list[str], schema: pa.Schema) -> Iterator[pa.Table]:
    """Read partition files one row group at a time, single-threaded (one
    task is one CPU's work), projected to the ``schema`` columns each file
    has and aligned to ``schema``. A task whose files hold no rows (every
    key deleted) yields the typed empty table, so the snapshot keeps its
    schema."""
    empty = True
    for f in files:
        pf = pq.ParquetFile(f)
        cols = [n for n in schema.names if n in pf.schema_arrow.names]
        for i in range(pf.num_row_groups):
            if pf.metadata.row_group(i).num_rows:
                empty = False
                yield align_to_schema(
                    pf.read_row_group(i, columns=cols, use_threads=False), schema)
    if empty:
        yield schema.empty_table()


def _fold_changes(pids: list[list[str]], schema: pa.Schema,
                  key: list[str]) -> pa.Table:
    """Row diff of one task's pids: each entry of ``pids`` is one pid's
    change files of consecutive versions, in version order, each read as
    ``schema`` (``key..., _lsn, _deleted, _lsn_from, payload...``; a
    partition file written whole reads with ``_lsn_from`` and ``_deleted``
    null: it holds live rows only).

    A key's records sort by ``_lsn``, which rises with every version that
    changed the key, so its first record holds its state before the range
    (``_lsn_from`` not null: live) and its last record its state after
    (``_deleted`` false or null: live). Only a pid with several files is
    sorted: one file holds one row per key, so each of its rows is a whole
    run, and no two pids share a key. Returns ``(key..., change,
    payload...)`` for every key live on at least one side, pid by pid;
    payload is null for deletes."""
    parts, ends = [], []
    for files in pids:
        t = pa.concat_tables([_read_aligned(f, schema) for f in files])
        if len(files) > 1:
            t = t.sort_by([(k, "ascending") for k in key]
                          + [(LAKE_LSN_COL, "ascending")])
            ends.append(_key_run_ends(t, key))
        else:
            ends.append(np.ones(t.num_rows, dtype=bool))
        parts.append(t)
    tbl = pa.concat_tables(parts) if parts else schema.empty_table()
    ends = np.concatenate(ends) if ends else np.ones(0, dtype=bool)
    # a pid's last row ends its run, so the roll never crosses into a run
    was_live = tbl.column(LSN_FROM_COL).is_valid().to_numpy(
        zero_copy_only=False)[np.roll(ends, 1)]
    is_live = ~pc.fill_null(tbl.column(LAKE_DELETED_COL), False).to_numpy(
        zero_copy_only=False)[ends]
    payload = schema.names[len(key) + 3:]
    if ends.all() and is_live.all():
        # one live row per key (a first write, or no deletes or drops in
        # range): the columns read are the diff's, with nothing to gather
        keys, new = tbl.select(key), tbl.select(payload)
    else:
        keep = was_live | is_live
        rows = np.flatnonzero(ends)[keep]
        was_live, is_live = was_live[keep], is_live[keep]
        keys = tbl.select(key).take(rows)
        # a null index gathers a null row: deletes carry no payload
        new = tbl.select(payload).take(pa.array(rows, mask=~is_live))
    # 0 insert, 1 update, 2 delete
    change = pa.array(OPS).take(np.where(was_live, 2 - is_live, 0))
    return pa.table([*keys.columns, change, *new.columns],
                    names=[*key, "change", *payload])


def _read_aligned(path: str, schema: pa.Schema) -> pa.Table:
    """One lake file, single-threaded, projected to the ``schema`` columns
    it has and aligned to ``schema``."""
    pf = pq.ParquetFile(path)
    names = pf.schema_arrow.names
    return align_to_schema(pf.read(columns=[n for n in schema.names if n in names],
                                   use_threads=False), schema)


def _lsn_bounds(files: list[str], lsn_col: str) -> tuple[int, int]:
    """(min, max) LSN across files from parquet row-group statistics."""
    stats = [(lo, hi) for _, _, _, lo, hi in _row_groups(files, lsn_col)
             if lo is not None]
    if not stats:
        raise ValueError(f"no {lsn_col} statistics in parquet footers")
    return int(min(lo for lo, _ in stats)), int(max(hi for _, hi in stats))

