"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  normalized once on the driver and reaches every task through
  ``map_batches(fn_kwargs=...)``; each batch does one numpy matmul (batch ×
  queries). This is the baseline and the verification oracle for
  approximate variants.
- :func:`cosine_pairs_bucketed` — all pairs with cosine >= threshold,
  compared only within shared centroid buckets (embedding near-dup
  detection).
- :func:`ivf_topk` — the scale path: k-means-lite centroids on a sample
  (deterministic seed), vectors assigned to their nearest centroid bucket,
  queries probe ``nprobe`` buckets; at 100 TB the bucket assignment is the
  partitioning key and only probed buckets are scanned.

The reference has no similarity search (SURVEY.md P6 "Sketches/approximate:
absent"); its nearest analog is the tensor data model
(``ml-data/ml-data-core/src/tensor.rs``), which maps to the ``list<float>``
column here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .exchange import collect_arrow
from .joins import _pa_schema


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (one copy, no Python loop)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _topk_candidates(batch: pa.Table, q_ids: np.ndarray, qm: np.ndarray,
                     id_col: str, emb_col: str, k: int) -> pa.Table:
    """Per-batch exact cosine top-k against the normalized query matrix
    ``qm``. Emits (query_id, neighbor_id, sim) candidate rows; a final small
    per-query re-top-k merges the per-batch candidates."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    m = _normalize(_to_matrix(batch.column(emb_col)))
    sims = m @ qm.T                           # (n, Q)
    # per-query top-k within this batch (argpartition, then exact sort later)
    k = min(k + 1, sims.shape[0])             # +1 to survive self-match removal
    part = np.argpartition(-sims, k - 1, axis=0)[:k]   # (k, Q)
    qidx = np.repeat(np.arange(sims.shape[1]), k)
    nidx = part.T.reshape(-1)
    return pa.table({
        "query_id": pa.array(q_ids[qidx]),
        "neighbor_id": pa.array(ids[nidx]),
        "sim": pa.array(sims[nidx, qidx]),
    })


def brute_force_topk(ds: rd.Dataset, query_ids: np.ndarray, query_matrix: np.ndarray,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     k: int = 10, exclude_self: bool = True) -> pd.DataFrame:
    """Exact cosine top-k of each query over the whole dataset.

    Two stages: per-batch top-k candidates (map-side reduce — at most
    ``k × Q`` rows leave each batch regardless of batch size), then one tiny
    driver-side merge. Ties broken by (sim desc, neighbor_id asc) to match
    the SQL oracle deterministically.
    """
    cand = ds.map_batches(
        _topk_candidates, batch_format="pyarrow",
        fn_kwargs={"q_ids": query_ids, "qm": _normalize(query_matrix),
                   "id_col": id_col, "emb_col": emb_col, "k": k}).to_pandas()
    if exclude_self:
        cand = cand[cand["query_id"] != cand["neighbor_id"]]
    cand = cand.sort_values(["query_id", "sim", "neighbor_id"],
                            ascending=[True, False, True], kind="mergesort")
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]]


def _train_centroids(ds: rd.Dataset, id_col: str, emb_col: str,
                     n_centroids: int, seed: int, sample_size: int,
                     iters: int = 5) -> np.ndarray:
    """Deterministic k-means-lite centroids on a seeded random sample (not
    first-rows — a ``random_sample`` avoids ordering bias in the training
    set). Returns unit-norm (C, d) centroids, or None for an empty ``ds``."""
    total = ds.count()
    if not total:
        return None
    if total > sample_size:
        frac = min(1.0, (sample_size * 1.25) / total)
        sample_ds = ds.random_sample(frac, seed=seed).limit(sample_size)
    else:
        sample_ds = ds
    sample = collect_arrow(sample_ds.select_columns([id_col, emb_col]))
    sm = _normalize(_to_matrix(sample.column(emb_col)))
    rng = np.random.default_rng(seed)
    cent = sm[rng.choice(sm.shape[0], size=min(n_centroids, sm.shape[0]),
                         replace=False)]
    for _ in range(iters):
        assign = (sm @ cent.T).argmax(1)
        for c in range(cent.shape[0]):
            mask = assign == c
            if mask.any():
                v = sm[mask].mean(0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def _assign_probes(batch: pa.Table, cent: np.ndarray, emb_col: str,
                   nprobe: int) -> pa.Table:
    """Append each vector's top-``nprobe`` centroid buckets: one output row
    per (vector, probed bucket)."""
    m = _normalize(_to_matrix(batch.column(emb_col)))
    sims = m @ cent.T
    p = min(nprobe, sims.shape[1])
    probes = np.argpartition(-sims, p - 1, axis=1)[:, :p]     # (n, p)
    idx = pa.array(np.repeat(np.arange(batch.num_rows, dtype=np.int64), p))
    return batch.take(idx).append_column(
        "_bucket", pa.array(probes.reshape(-1).astype(np.int32)))


def cosine_pairs_bucketed(ds: rd.Dataset, threshold: float,
                          id_col: str = "vec_id", emb_col: str = "embedding",
                          n_centroids: int = 16, nprobe: int = 4,
                          seed: int = 42,
                          sample_size: int = 4096) -> pd.DataFrame:
    """All unordered id pairs with cosine >= threshold, **IVF-bucketed scale
    path**: each vector is multi-probe-assigned to its ``nprobe`` nearest
    centroid buckets inside ``map_batches``, ONE ``groupby(bucket)`` shuffle
    co-locates candidates, and the all-pairs compare runs only within each
    bucket (O(Σ bucket²) instead of O(n²); no whole-dataset broadcast).

    A pair is found iff the two vectors share at least one probed bucket —
    approximate by construction; with the default multi-probe width it is
    empirically exact on the benchmark corpora (asserted against the
    all-pairs oracle in tests). Partitioning assumption: bucket contents fit
    one group (bound n_centroids ≈ n / desired_bucket_size)."""
    cent = _train_centroids(ds, id_col, emb_col, n_centroids, seed, sample_size)
    if cent is None:
        id_t = _pa_schema(ds).field(id_col).type
        return pa.table({"id_a": pa.array([], id_t), "id_b": pa.array([], id_t),
                         "sim": pa.array([], pa.float64())}).to_pandas()
    probed = ds.map_batches(_assign_probes, batch_format="pyarrow",
                            fn_kwargs={"cent": cent, "emb_col": emb_col,
                                       "nprobe": nprobe})

    def pairs_in_bucket(g: pa.Table) -> pd.DataFrame:
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(g.column(emb_col)))
        sims = m @ m.T
        r, c = np.where(sims >= threshold)
        a, b = ids[r], ids[c]
        keep = a < b
        return pd.DataFrame({"id_a": a[keep], "id_b": b[keep],
                             "sim": sims[r, c][keep]})

    pairs = (probed.groupby("_bucket")
             .map_groups(pairs_in_bucket, batch_format="pyarrow")).to_pandas()
    # multi-probe finds a pair once per shared bucket — dedupe (result set is
    # small by construction: only above-threshold pairs)
    pairs = pairs.drop_duplicates(subset=["id_a", "id_b"])
    return (pairs.sort_values(["id_a", "id_b"], kind="mergesort")
            .reset_index(drop=True))


def ivf_topk(ds: rd.Dataset, query_ids: np.ndarray, query_matrix: np.ndarray,
             id_col: str = "vec_id", emb_col: str = "embedding", k: int = 10,
             n_centroids: int = 16, nprobe: int = 4, seed: int = 42,
             sample_size: int = 4096) -> pd.DataFrame:
    """IVF-bucketed approximate top-k (the scale path).

    Centroids are trained with a few deterministic k-means iterations on a
    seeded random sample; every vector is assigned to its nearest centroid
    inside ``map_batches``; each query scans only its ``nprobe`` nearest
    buckets. Approximate by construction — verified against brute force for
    recall, not equality (hence no SQL oracle; see tests).
    """
    cent = _train_centroids(ds, id_col, emb_col, n_centroids, seed, sample_size)
    if cent is None:
        id_t = _pa_schema(ds).field(id_col).type
        return pa.table({"query_id": pa.array([], id_t),
                         "neighbor_id": pa.array([], id_t),
                         "rank": pa.array([], pa.int64())}).to_pandas()

    qm = _normalize(query_matrix)
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]     # (Q, nprobe)

    assigned = ds.map_batches(_assign_probes, batch_format="pyarrow",
                              fn_kwargs={"cent": cent, "emb_col": emb_col,
                                         "nprobe": 1})

    # queries grouped by probed bucket: query q participates in buckets
    # probe[q]; the closure carries the query state into every group task
    def per_bucket(g: pa.Table) -> pd.DataFrame:
        b = g.column("_bucket")[0].as_py()
        qmask = (probe == b).any(1)
        if not qmask.any():
            return pd.DataFrame({"query_id": [], "neighbor_id": [], "sim": []})
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(g.column(emb_col)))
        sims = m @ qm[qmask].T
        qids = query_ids[qmask]
        kk = min(k + 1, sims.shape[0])
        part = np.argpartition(-sims, kk - 1, axis=0)[:kk]
        qidx = np.repeat(np.arange(sims.shape[1]), kk)
        nidx = part.T.reshape(-1)
        return pd.DataFrame({"query_id": qids[qidx], "neighbor_id": ids[nidx],
                             "sim": sims[nidx, qidx]})

    cand = assigned.groupby("_bucket").map_groups(
        per_bucket, batch_format="pyarrow").to_pandas()
    cand = cand[cand["query_id"] != cand["neighbor_id"]]
    cand = cand.sort_values(["query_id", "sim", "neighbor_id"],
                            ascending=[True, False, True], kind="mergesort")
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]]
