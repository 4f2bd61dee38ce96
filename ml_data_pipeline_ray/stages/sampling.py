"""Deterministic weighted mixture sampling.

Corpus mixing for LLM training data: each domain (``source``) gets a
sampling rate, and a document is kept iff a *deterministic* hash of its id
falls under the domain's rate — so the sample is reproducible across runs,
resumable mid-corpus, and embarrassingly parallel (a pure per-batch filter:
no shuffle, no state, no RNG stream to coordinate across workers — the
property that makes hash sampling the standard mixing primitive at scale).

The hash is a Knuth multiplicative hash over int64 ids reduced to 10 bits::

    bucket(id) = ((id * 2654435761) mod 2^32) >> 22      # 0..1023
    keep iff bucket(id) < rate_1024(domain)

Chosen because it is exactly expressible in ANSI SQL on BIGINTs (no
overflow for id < 2^31; the DuckDB oracle uses the same arithmetic), while
decorrelating the low bits of sequential ids.

Reference parity: the reference has a uniform ``sample`` stage only; the
weighted/deterministic mixture is beyond-reference LLM-pipeline surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

KNUTH = 2654435761
_MOD = 1 << 32
_SHIFT = 22


def hash_bucket_1024(ids: np.ndarray) -> np.ndarray:
    """The sampling bucket (0..1023) for each int64 id — int64 arithmetic
    only so DuckDB BIGINT expressions reproduce it bit-for-bit."""
    return ((ids.astype(np.int64) * KNUTH) % _MOD) >> _SHIFT


def mixture_sample(ds: rd.Dataset, rates_1024: dict[str, int],
                   id_col: str = "doc_id",
                   domain_col: str = "source") -> rd.Dataset:
    """Keep each row iff ``hash_bucket_1024(id) < rates_1024[domain]``.

    Domains absent from ``rates_1024`` are dropped (rate 0). The rate table
    is tiny and ships inside the map closure, which Ray Data puts in the
    object store once per execution (not per batch).
    """
    domains = pa.array(list(rates_1024.keys()), pa.string())
    rates = np.array(list(rates_1024.values()), dtype=np.int64)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        bucket = hash_bucket_1024(ids)
        idx = pc.index_in(batch.column(domain_col), value_set=domains)
        idx_np = idx.to_numpy(zero_copy_only=False)
        valid = ~np.isnan(idx_np) if idx_np.dtype.kind == "f" else \
            np.ones(len(idx_np), dtype=bool)
        rate = np.zeros(batch.num_rows, dtype=np.int64)
        rate[valid] = rates[idx_np[valid].astype(np.int64)]
        return batch.filter(pa.array(bucket < rate))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def sample_k_deterministic(ds: rd.Dataset, k: int, id_col: str = "doc_id"
                           ) -> "pd.DataFrame":
    """Fixed-SIZE uniform sample without replacement: the k rows with the
    smallest Knuth-multiplicative hash of their id — deterministic (no RNG
    state, reproducible across cluster sizes and reruns) and exactly
    SQL-mirrorable (ORDER BY the same hash arithmetic LIMIT k). Distributed
    as a map-side-pruned top-k: at most k rows per block leave the scan.
    Ties broken by id (hash collisions are possible at 2^32)."""
    import pandas as pd  # noqa: F401  (return type)
    import pyarrow as pa

    from .topk import topk

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        # enforce the module's id < 2^31 precondition loudly: ids past
        # ~3.47e9 wrap the int64 product while the BIGINT oracle doesn't,
        # silently diverging from the SQL mirror
        if ids.size and (ids.min() < 0 or ids.max() >= (1 << 31)):
            raise ValueError(
                f"sample_k_deterministic requires 0 <= {id_col} < 2^31 "
                f"(got range [{ids.min()}, {ids.max()}]); the Knuth-hash "
                "int64 arithmetic must match the oracle's BIGINT exactly")
        h = (ids * KNUTH) % _MOD
        return batch.append_column("_h", pa.array(h.astype(np.int64)))

    tagged = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = topk(tagged, by=["_h", id_col], k=k, descending=False)
    return out.drop(columns=["_h"]).reset_index(drop=True)


def stratified_sample_k(ds: rd.Dataset, k: int, group_col: str = "source",
                        id_col: str = "doc_id") -> "pd.DataFrame":
    """Fixed-size-PER-GROUP deterministic uniform sample (stratified
    sampling — cap every domain at k docs, the standard corpus-balancing
    primitive): within each ``group_col`` value, the k rows with the
    smallest Knuth hash of their id. Deterministic, RNG-free,
    SQL-mirrorable (``row_number() OVER (PARTITION BY group ORDER BY
    hash, id) <= k``). Distributed as the map-side-pruned grouped top-k:
    at most ``k × groups-per-block`` rows leave each block, so input-sized
    data never concentrates anywhere. Same id < 2^31 precondition as
    :func:`sample_k_deterministic` (enforced loudly)."""
    import pandas as pd  # noqa: F401  (return type)

    from .topk import grouped_topk

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= (1 << 31)):
            raise ValueError(
                f"stratified_sample_k requires 0 <= {id_col} < 2^31 "
                f"(got range [{ids.min()}, {ids.max()}]); the Knuth-hash "
                "int64 arithmetic must match the oracle's BIGINT exactly")
        h = (ids * KNUTH) % _MOD
        return batch.append_column("_h", pa.array(h.astype(np.int64)))

    tagged = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = grouped_topk(tagged, group=group_col, by=["_h", id_col], k=k,
                       descending=False)
    return out.drop(columns=["_h"]).reset_index(drop=True)
