"""The one hash exchange, shared by the operator library and the CDC engine.

Every keyed operator that needs all rows of a key in one place (grouped
aggregation, exact and near-dup dedup, hash / as-of / range joins, keyed
window kernels, per-key gap fill) and the CDC replay have the same wide
step: hash each row's key to one of ``shards`` shards, ship every shard to
one task and run a vectorized kernel over it that resolves the real per-key
grouping itself. Many keys share a shard on purpose: a task or group PER
KEY costs ~0.5 ms of machinery each, which dominated at tens of thousands
of keys.

Every keyed aggregate of the library (:func:`.groupagg.grouped_agg`) and
every gap fill (:func:`.timeseries.regularize_per_key`) runs on this
exchange; Ray Data's ``groupby().aggregate()`` is not used. Ray Data's
``groupby(key).map_groups`` is left only where one group is one unit of
work: ``packing.pack_by_token_budget`` (a domain's documents),
``ann.ivf_topk`` and ``ann.cosine_pairs_bucketed`` (a centroid bucket) and
``tpch.events_rolling_3h`` (one event type's hourly series).

The exchange runs on Ray-core tasks, not on Ray Data's sort-based groupby:
the shard of a row is known up front, so nothing needs sorting or
sampling, and the shuffle's cost is its objects (SURVEY.md §2, "custom
operators"). A split task per input block hashes and orders its rows by
shard and returns one Arrow IPC file buffer per merge group (record batch
``i`` = the group's ``i``-th shard, empty shards included); G = min(shards,
CPUs) merge tasks, one per contiguous range of shards
(:func:`merge_groups`), read each shard's batches back zero-copy
(:func:`read_shard`). B input blocks thus ship B x G objects, not
B x shards (Riffle's small-block merging, applied to Ray objects).

This module owns that step and everything it depends on:

- :func:`cluster_cpus` — the one place the cluster's CPU count is read;
- :func:`shard_count` — the one shard-count rule (bytes-aware, see there);
- :func:`key_hash` — the one key hasher (bloom filters, HLL sketches and
  the CDC lake's persisted partition function ``key_hash([key[0]]) % P``
  hash with it too, so its output must stay stable);
- :func:`merge_groups`, :func:`group_buffers`, :func:`read_shard` — the
  exchange's wire format, which ``cdc/replay.py``'s map and merge tasks
  use around their own last-writer-wins logic;
- :func:`pack_blocks` and :func:`blocks_dataset` — the one hand-over of
  Ray-core task output to Ray Data: a streaming task (the merge tasks
  here, the small reads of ``sources/parquet.py``) yields its packed
  blocks and then their metadata, and the driver wraps them in an executed
  Dataset without a metadata task per block (this module is the only one
  that touches ``ray.data._internal``, see there);
- :func:`hash_exchange` — the operator library's exchange: split, merge,
  run the kernel per shard;
- :func:`collect_arrow` — the library's one driver collect of a small
  result (an exchange's output, a set of per-block partials).

Partitioning assumption of every caller: one shard's rows fit one task's
heap, which :func:`shard_count` bounds by bytes.

Ray is imported only inside functions, so the fixture generator can share
:func:`mix64` and :func:`key_hash` without importing Ray.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa

#: per-shard in-memory target: a merge task holds one shard (and its
#: kernel's output) in a worker heap at a time, so shards must be
#: bytes-bounded, not just core-count-bounded — at 100 TB a cores-only count
#: would put ~1 TB in a single kernel call.
TARGET_SHARD_BYTES = 512 << 20

#: below this, another shard buys no parallelism worth its machinery (a
#: kernel call, a record batch per split task), so 96 shards over a 2 MB
#: filtered slice is pure fixed cost.
MIN_SHARD_BYTES = 4 << 20


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — vectorized uint64 avalanche."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster (8 when no session is up)."""
    import ray

    return (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)


def shard_count(est_bytes: int | None = None, cpus: int | None = None) -> int:
    """The shard-count rule. Unknown size: the parallelism floor
    ``max(16, 3 × cpus)`` — enough shards to keep every core busy, few
    enough that per-shard machinery is negligible. Known size: tiny inputs
    collapse to one shard per ``MIN_SHARD_BYTES`` (capped at the floor),
    and huge inputs grow PAST the floor so no shard exceeds
    ``TARGET_SHARD_BYTES`` in a worker heap."""
    floor = max(16, 3 * (cluster_cpus() if cpus is None else cpus))
    if not est_bytes:
        return floor
    return max(-(-est_bytes // TARGET_SHARD_BYTES),
               min(floor, -(-est_bytes // MIN_SHARD_BYTES)), 1)


#: hash of a null in an integer or boolean key column
_NULL_HASH = np.uint64(0x8B0C2D1E3F4A5B6C)

#: key column types hashed by distinct value (:func:`_hash_bytes_like`)
_BYTES_TYPES = (pa.string(), pa.large_string(), pa.binary(), pa.large_binary())


def _hash_bytes_like(col) -> np.ndarray:
    """``pd.util.hash_array(col.to_numpy(), categorize=True)`` of an Arrow
    string or binary column, bit for bit, without a Python object per row:
    dictionary-encode, hash the distinct values only, gather by index. A
    null gets pandas' hash of ``None``."""
    import pandas as pd

    if isinstance(col, pa.ChunkedArray):
        # one dictionary across chunks
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    enc = col.dictionary_encode()
    uniq = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False),
                              categorize=False)
    null = pd.util.hash_array(np.array([None], dtype=object))
    # null indices point one past the dictionary, at the null hash
    idx = enc.indices.fill_null(len(uniq)).to_numpy(zero_copy_only=False)
    return np.concatenate([uniq, null])[idx]


def key_hash(df_or_tbl, on: list[str]) -> np.ndarray:
    """64-bit row hash of the ``on`` columns (pandas siphash per column,
    FNV-style combine). An Arrow integer or boolean column with nulls is
    hashed in its own dtype with one fixed hash for null, so a key hashes
    the same whether or not its block happens to hold a null. An Arrow
    string or binary column hashes each distinct value once, with the
    same output as hashing every row."""
    import pandas as pd

    h = np.zeros(len(df_or_tbl), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in on:
            if isinstance(df_or_tbl, pd.DataFrame):
                vals, nulls = df_or_tbl[c].to_numpy(), None
            else:
                col = df_or_tbl.column(c)
                if col.type in _BYTES_TYPES:
                    h = h * np.uint64(0x100000001B3) + _hash_bytes_like(col)
                    continue
                nulls = None
                if col.null_count and (pa.types.is_integer(col.type)
                                       or pa.types.is_boolean(col.type)):
                    nulls = col.is_null().to_numpy(zero_copy_only=False)
                    col = col.fill_null(False if pa.types.is_boolean(col.type)
                                        else 0)
                vals = col.to_numpy(zero_copy_only=False)
            hc = pd.util.hash_array(vals, categorize=True)
            if nulls is not None:
                hc[nulls] = _NULL_HASH
            h = h * np.uint64(0x100000001B3) + hc
    return h


def merge_groups(shards: int, cpus: int) -> list[range]:
    """The merge plan: ``min(shards, cpus)`` contiguous ranges of shards
    covering ``0..shards-1``, sizes differing by at most one. One merge task
    per range: more tasks than CPUs buy no parallelism, only objects and
    task overhead, while with ``cpus >= shards`` every shard is its own
    group."""
    g = max(1, min(shards, cpus))
    return [range(i * shards // g, (i + 1) * shards // g) for i in range(g)]


def group_buffers(tbl: pa.Table, shard: np.ndarray, groups: list[range]
                  ) -> list[pa.Buffer] | pa.Buffer:
    """Split ``tbl``, whose rows are ordered by their ascending shard ids
    ``shard``, into one Arrow IPC file buffer per merge group: record batch
    ``i`` of a group's file holds the rows of the group's ``i``-th shard,
    empty if it got none. Returns them as a Ray task with
    ``num_returns=len(groups)`` must: a list, or with one group the lone
    buffer itself.

    Buffers rather than tables: Ray pickles a table column by column, while
    a buffer is one out-of-band blob that the merge task reads back
    zero-copy from the object store (a 16x16 exchange of ~170 KB shards
    measured ~40% less CPU than pickled tables)."""
    bounds = np.searchsorted(shard, np.arange(groups[-1].stop + 1))
    # one batch to slice (an empty table has none)
    tbl = tbl.combine_chunks()
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


def read_shard(readers: list, i: int) -> pa.Table:
    """The ``i``-th shard of a merge group: record batch ``i`` of every
    split's group buffer (``pa.ipc.open_file`` readers), empty ones
    skipped; an empty table of the first batch's schema if all are empty.
    Splits of different input blocks may disagree on a column's type (a
    null-typed column, int32 vs int64), so batches concatenate
    permissively."""
    batches = [r.get_batch(i) for r in readers]
    full = [b for b in batches if b.num_rows] or batches[:1]
    return pa.concat_tables([pa.Table.from_batches([b]) for b in full],
                            promote_options="permissive")


def pack_blocks(tables: Iterable[pa.Table], max_block_bytes: int | None
                ) -> Iterator[pa.Table | list]:
    """The body of a streaming task whose output :func:`blocks_dataset`
    takes over. Concatenate consecutive non-empty ``tables`` into blocks of
    at most ``max_block_bytes`` (``None``: no bound); a larger table is a
    block of its own, never sliced. If every table is empty, the first is
    the one block, so an empty result still carries a schema. After the
    blocks, yield one list of their ``BlockMetadataWithSchema``."""
    from ray.data.block import BlockMetadataWithSchema

    def blocks():
        block: list[pa.Table] = []
        size, first = 0, None
        for t in tables:
            first = t if first is None else first
            if not t.num_rows:
                continue
            if block and max_block_bytes is not None \
                    and size + t.nbytes > max_block_bytes:
                yield pa.concat_tables(block, promote_options="permissive")
                block, size = [], 0
            block.append(t)
            size += t.nbytes
        if block:
            yield pa.concat_tables(block, promote_options="permissive")
        elif first is not None:
            yield first

    meta = []
    for b in blocks():
        meta.append(BlockMetadataWithSchema.from_block(b))
        yield b
    yield meta


def blocks_dataset(gens: Iterable):
    """One executed Dataset over the blocks of streaming tasks whose body is
    :func:`pack_blocks` (``gens``: their ObjectRefGenerators), in task
    order. Each task's last item, the metadata of its blocks, describes
    them, so no metadata task runs per block; a failed task raises here.

    The Dataset is built as ``rd.from_blocks`` builds one, minus its
    ``ray.put`` (the blocks are already in the object store), and its plan
    holds the source's blocks as its computed output, as
    ``ExecutionPlan.execute()`` would set it for a source with output data,
    minus the two cluster RPCs that call makes first (free CPUs, object
    store spill totals), about 1 CPU-ms per read on 1 vCPU. So
    ``count()``, consuming the blocks and ``schema()`` (unless no block
    has one) start no ``StreamingExecutor``, and an operator chained on the
    result plans from a fresh source, not from the lineage that made the
    blocks. No blocks at all give an empty Dataset without a schema.

    Ray Data has no public constructor for this, so the plan is assembled
    from ``ray.data._internal`` in :func:`packed_dataset`, the one module of
    the package that imports it: a Ray upgrade that moves these internals
    fails there, not silently elsewhere."""
    import ray

    refs = [list(gen) for gen in gens]
    meta = [m for ms in ray.get([r[-1] for r in refs]) for m in ms]
    return packed_dataset([b for r in refs for b in r[:-1]], meta)


def packed_dataset(blocks: list, meta: list):
    """The executed Dataset of :func:`blocks_dataset`: ``blocks`` (object
    refs) described by ``meta``, their :func:`pack_blocks` metadata."""
    import ray.data as rd
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromBlocks
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import _take_first_non_empty_schema
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(DatasetStats(metadata={"FromBlocks": meta}, parent=None),
                         rd.DataContext.get_current().copy())
    source = FromBlocks(blocks, meta)
    ds = MaterializedDataset(plan, LogicalPlan(source, plan._context))
    bundles = source.output_data()
    plan._snapshot_bundle = RefBundle(
        [pair for b in bundles for pair in b.blocks],
        owns_blocks=all(b.owns_blocks for b in bundles),
        schema=_take_first_non_empty_schema(b.schema for b in bundles))
    plan._snapshot_operator = source
    plan._snapshot_stats = plan._in_stats
    plan._snapshot_stats.dataset_uuid = plan._dataset_uuid
    plan._has_started_execution = True
    if not plan.has_computed_output():
        raise RuntimeError("Ray Data's ExecutionPlan no longer takes a FromBlocks "
                           "source's blocks as its output; consuming it would "
                           "start an executor")
    return ds


def _shuffle_split(block, keys: list[str], shards: int, groups: list[range]):
    """Split task: one input block's rows by ``key_hash(keys) % shards``,
    as :func:`group_buffers`."""
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    shard = (key_hash(tbl, keys) % np.uint64(shards)).astype(np.int32)
    order = np.argsort(shard, kind="stable")
    return group_buffers(tbl.take(order), shard[order], groups)


def _shuffle_merge(kernel, batch_format: str, max_block_bytes: int | None,
                  *group_bufs) -> Iterator[pa.Table | list]:
    """Merge task: for each non-empty shard of the group, the kernel over
    its rows, converted to and from ``batch_format`` as ``map_groups``
    converts them; the outputs leave packed into blocks, a shard at a time,
    so the heap holds one shard's rows."""
    from ray.data.block import BlockAccessor

    # buffers arrive as top-level args so Ray resolves the ObjectRefs
    # in-line; each is one IPC file, read zero-copy from the object store
    readers = [pa.ipc.open_file(b) for b in group_bufs]

    def outputs():
        for i in range(readers[0].num_record_batches):
            tbl = read_shard(readers, i)
            if tbl.num_rows:
                out = kernel(BlockAccessor.for_block(tbl).to_batch_format(
                    batch_format))
                yield BlockAccessor.for_block(
                    BlockAccessor.batch_to_block(out)).to_arrow()

    yield from pack_blocks(outputs(), max_block_bytes)


@functools.cache
def _tasks():
    """The exchange's Ray-core tasks, defined once per process. Their names
    carry "shuffle", which is how the perfbench tracer tells an operation's
    exchange tasks from its reads and maps."""
    import ray

    return (ray.remote(_shuffle_split),
            ray.remote(num_returns="streaming")(_shuffle_merge))


def hash_exchange(inputs: list, keys: list[str], kernel, *,
                  batch_format: str, shards: int | None = None):
    """One hash exchange over ``inputs`` (Datasets of one schema): all rows
    of a key, from every input, reach the same ``kernel`` call, which gets
    one shard's rows as a ``batch_format`` ("pyarrow" or "pandas") batch
    and returns a batch.

    Runs at the call. The inputs execute first, and ``shards`` defaults to
    :func:`shard_count` of their measured in-memory bytes. A split task per
    non-empty input block and a merge task per :func:`merge_groups` group
    follow (see the module notes). Returns the kernels' outputs as the
    executed Dataset of :func:`blocks_dataset`: its plan starts here, and
    collecting it runs no Ray Data execution. No rows at all give an empty
    Dataset without a schema."""
    import ray.data as rd

    blocks = [(ref, md) for ds in inputs
              for bundle in ds.iter_internal_ref_bundles()
              for ref, md in bundle.blocks]
    if shards is None:
        shards = shard_count(sum(md.size_bytes or 0 for _, md in blocks))
    # an empty block may carry no columns at all
    refs = [ref for ref, md in blocks if md.num_rows]
    groups = merge_groups(shards, cluster_cpus())
    split, merge = _tasks()
    per_split = [split.options(num_returns=len(groups)).remote(
        ref, keys, shards, groups) for ref in refs]
    if len(groups) == 1:
        # num_returns=1 yields one bare ref, not a sequence of refs
        per_split = [[r] for r in per_split]
    target = rd.DataContext.get_current().target_max_block_size
    # no non-empty input block: no split, no merge, no block
    return blocks_dataset([merge.remote(kernel, batch_format, target, *col)
                           for col in zip(*per_split)])


def collect_arrow(ds) -> pa.Table:
    """A small Dataset as one Arrow table on the driver, exact types kept
    (``to_pandas`` would turn int64-with-null into float64/NaN). Empty
    blocks are dropped, since an empty shard's block may carry no columns
    or other types; if every block is empty, one is kept so the result
    still has a schema (no blocks at all: a table without columns). The
    rest concatenate with permissive type promotion.

    ``materialize()`` first: ``to_arrow_refs()`` on a lazy plan streams the
    blocks and then asks for the schema, which re-plans the whole pipeline
    under ``limit=1`` (~2x execution); a materialized Dataset answers from
    its block metadata. A Dataset already executed (an exchange's result,
    :func:`blocks_dataset`) is collected as it is: materializing it again
    would only build two more Datasets (~10 ms)."""
    import ray

    if not ds._plan.has_computed_output():
        ds = ds.materialize()
    tables = ray.get(ds.to_arrow_refs())
    if not tables:
        return pa.table({})
    return pa.concat_tables([t for t in tables if t.num_rows] or tables[:1],
                            promote_options="permissive")
