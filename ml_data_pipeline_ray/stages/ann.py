"""Similarity search over an embedding column (``list<float>``).

- :class:`BruteForceTopK` — exact cosine top-k: the query matrix is broadcast
  once via ``ray.put`` and read zero-copy in every task; each batch does one
  numpy matmul (batch × queries). This is the baseline and the verification
  oracle for approximate variants.
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
import ray
import ray.data as rd


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


class BruteForceTopK:
    """Per-batch stage: exact cosine top-k against the broadcast query
    matrix, which resolves from the object store once per task. Emits
    (query_id, neighbor_id, sim) candidate rows; a final small
    ``groupby(query_id)`` re-top-k merges per-batch candidates.
    """

    def __init__(self, queries_ref, id_col: str = "vec_id",
                 emb_col: str = "embedding", k: int = 10):
        self._ref = queries_ref
        self.qm = None
        self.id_col, self.emb_col, self.k = id_col, emb_col, k

    def _resolve(self):
        q = ray.get(self._ref) if isinstance(self._ref, ray.ObjectRef) else self._ref
        self.q_ids = q["ids"]                     # (Q,)
        self.qm = _normalize(q["matrix"])         # (Q, d)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.qm is None:
            self._resolve()
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(batch.column(self.emb_col)))
        sims = m @ self.qm.T                      # (n, Q)
        # per-query top-k within this batch (argpartition, then exact sort later)
        k = min(self.k + 1, sims.shape[0])        # +1 to survive self-match removal
        part = np.argpartition(-sims, k - 1, axis=0)[:k]   # (k, Q)
        qidx = np.repeat(np.arange(sims.shape[1]), k)
        nidx = part.T.reshape(-1)
        return pa.table({
            "query_id": pa.array(self.q_ids[qidx]),
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
    ref = ray.put({"ids": query_ids, "matrix": query_matrix})
    cand = ds.map_batches(BruteForceTopK(ref, id_col, emb_col, k),
                          batch_format="pyarrow").to_pandas()
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
    set). Returns unit-norm (C, d) centroids."""
    total = ds.count()
    if total > sample_size:
        frac = min(1.0, (sample_size * 1.25) / total)
        sample_ds = ds.random_sample(frac, seed=seed).limit(sample_size)
    else:
        sample_ds = ds
    sample = _dataset_to_table(sample_ds, [id_col, emb_col])
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


class _ProbeAssigner:
    """Append each vector's top-``nprobe`` centroid buckets: one output row
    per (vector, probed bucket). Lazy object-store resolve per worker."""

    def __init__(self, cent_ref, emb_col: str, nprobe: int):
        self._ref = cent_ref
        self.cent = None
        self.emb_col, self.nprobe = emb_col, nprobe

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.cent is None:
            self.cent = (ray.get(self._ref)
                         if isinstance(self._ref, ray.ObjectRef) else self._ref)
        m = _normalize(_to_matrix(batch.column(self.emb_col)))
        sims = m @ self.cent.T
        p = min(self.nprobe, sims.shape[1])
        probes = np.argpartition(-sims, p - 1, axis=1)[:, :p]     # (n, p)
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), p))
        out = batch.take(idx)
        return out.append_column(
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
    cent_ref = ray.put(cent)
    probed = ds.map_batches(_ProbeAssigner(cent_ref, emb_col, nprobe),
                            batch_format="pyarrow")

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
    cent_ref = ray.put(cent)

    qm = _normalize(query_matrix)
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]     # (Q, nprobe)

    assigned = ds.map_batches(_ProbeAssigner(cent_ref, emb_col, nprobe=1),
                              batch_format="pyarrow")

    # queries grouped by probed bucket: query q participates in buckets probe[q]
    out = []
    qref = ray.put({"ids": query_ids, "matrix": qm, "probe": probe})

    def per_bucket(g: pa.Table) -> pd.DataFrame:
        q = ray.get(qref)
        b = g.column("_bucket")[0].as_py()
        qmask = (q["probe"] == b).any(1)
        if not qmask.any():
            return pd.DataFrame({"query_id": [], "neighbor_id": [], "sim": []})
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(g.column(emb_col)))
        sims = m @ q["matrix"][qmask].T
        qids = q["ids"][qmask]
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


def _dataset_to_table(ds: rd.Dataset, columns: list[str]) -> pa.Table:
    batches = []
    for b in ds.select_columns(columns).iter_batches(batch_size=65536,
                                                     batch_format="pyarrow"):
        batches.append(pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b)
    return pa.concat_tables(batches, promote_options="permissive")
