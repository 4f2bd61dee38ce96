"""The operator library's one hash exchange.

Every keyed operator that needs all rows of a key in one place (grouped
aggregation, exact and near-dup dedup, hash / as-of / range joins, keyed
window kernels, per-key gap fill) has the same wide step: tag each row with
``key_hash(keys) % shards``, union the tagged inputs, run one
``groupby(tag).map_groups`` and hand each shard to a vectorized kernel that
resolves the real per-key grouping itself. Many keys share a shard on
purpose: one Ray group PER KEY costs ~0.5 ms of group machinery each, which
dominated at tens of thousands of keys.

This module owns that step and everything it depends on:

- :func:`cluster_cpus` — the one place the cluster's CPU count is read;
- :func:`shard_count` — the one shard-count rule (bytes-aware, see there);
- :func:`key_hash` — the one key hasher (bloom filters, HLL sketches and
  the CDC lake's persisted partition function ``key_hash([key[0]]) % P``
  hash with it too, so its output must stay stable);
- :func:`hash_exchange` — tag, union, shuffle, run the kernel.

Partitioning assumption of every caller: one shard's rows fit one
``map_groups`` group, which :func:`shard_count` bounds by bytes.

Only :func:`cluster_cpus` imports Ray, so the fixture generator can share
:func:`mix64` without starting to import Ray.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

#: the shard tag column; the kernel never sees it
SHARD_COL = "_shard"

#: per-shard in-memory target: each shard materializes as ONE map_groups
#: group in a worker heap, so shards must be bytes-bounded, not just
#: core-count-bounded — at 100 TB a cores-only count would put ~1 TB in a
#: single group.
TARGET_SHARD_BYTES = 512 << 20

#: below this, another shard buys no parallelism worth its machinery: each
#: shard becomes one Ray group (~ms of sort/reduce bookkeeping), so 96 shards
#: over a 2 MB filtered slice is pure fixed cost.
MIN_SHARD_BYTES = 4 << 20

#: conservative parquet-compressed -> in-memory Arrow expansion factor
_PARQUET_EXPANSION = 3


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
    ``max(16, 3 × cpus)`` — enough groups to keep every core busy, few
    enough that per-group machinery is negligible. Known size: tiny inputs
    collapse to one shard per ``MIN_SHARD_BYTES`` (capped at the floor),
    and huge inputs grow PAST the floor so no shard exceeds
    ``TARGET_SHARD_BYTES`` in a worker heap."""
    floor = max(16, 3 * (cluster_cpus() if cpus is None else cpus))
    if not est_bytes:
        return floor
    return max(-(-est_bytes // TARGET_SHARD_BYTES),
               min(floor, -(-est_bytes // MIN_SHARD_BYTES)), 1)


def _estimate_input_bytes(ds) -> int | None:
    """Cheap (metadata-only) in-memory size estimate, without executing.
    ``Dataset.size_bytes()`` executes mapped plans, so it can't be used
    here, and ``Dataset.input_files()`` returns ``[]`` once any
    ``map_batches`` wraps the read — so walk the logical plan to the Read
    leaves and use each datasource's own metadata estimate (falling back to
    on-disk bytes x expansion). Overestimates filtered/pruned scans, which
    errs toward MORE buckets — the safe direction."""
    try:
        files = ds.input_files()
    except Exception:
        files = []
    if files:
        import os
        total = 0
        for f in files:
            try:
                total += os.path.getsize(f)
            except OSError:
                return None
        return total * _PARQUET_EXPANSION

    # mapped plan: find the Read leaves (private API — best-effort)
    try:
        total = 0
        stack = [ds._logical_plan.dag]
        while stack:
            op = stack.pop()
            deps = op.input_dependencies
            if deps:
                stack.extend(deps)
                continue
            dsrc = getattr(op, "_datasource", None)
            est = dsrc.estimate_inmemory_data_size() if dsrc else None
            if est is None:
                return None
            total += int(est)
        return total or None
    except Exception:
        return None


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


def hash_exchange(inputs: list, keys: list[str], kernel, *,
                  batch_format: str, shards: int | None = None):
    """One hash exchange over ``inputs`` (Datasets of one schema): every
    row is tagged with ``key_hash(keys) % shards``, the inputs are unioned,
    and ONE ``groupby(tag).map_groups`` calls ``kernel`` on each shard
    (``batch_format`` "pyarrow" or "pandas"), tag column already removed.
    All rows of a key, from every input, reach the same kernel call.

    The tag is a plain ``map_batches`` after the caller's own per-input
    map, so Ray fuses the two. ``shards`` defaults to :func:`shard_count`
    of the inputs' summed metadata size estimate."""
    if shards is None:
        est = sum(_estimate_input_bytes(ds) or 0 for ds in inputs)
        shards = shard_count(est or None)

    def tag(batch: pa.Table) -> pa.Table:
        shard = key_hash(batch, keys) % np.uint64(shards)
        return batch.append_column(SHARD_COL,
                                   pa.array(shard.astype(np.int32)))

    tagged = [ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
              for ds in inputs]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def run(group):
        if batch_format == "pandas":
            return kernel(group.drop(columns=[SHARD_COL]))
        return kernel(group.drop_columns([SHARD_COL]))

    return both.groupby(SHARD_COL).map_groups(run, batch_format=batch_format)
