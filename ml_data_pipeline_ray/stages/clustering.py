"""Distributed k-means (Lloyd's algorithm) over an embedding column.

The textbook Ray Data pattern: each iteration's centroids reach every
task through ``map_batches(fn_kwargs=...)``; each task emits per-cluster
PARTIAL SUMS (k rows per batch: count + per-dimension sum), so each Lloyd
iteration is one streaming pass with a tiny driver-side reduce (k ×
n_blocks rows) — no shuffle at all, and nothing larger than (k × d) ever
sits on the driver.
At 100 TB each iteration re-scans the input (standard for Lloyd); here the
quantized input is materialized once into the object store so iterations
don't re-read parquet.

**Bit-exact determinism contract** (what lets a float-heavy iterative
algorithm pass an exact value-hash gate against a SQL oracle):

1. inputs are quantized to an integer grid: ``xq = floor(x * 1024 + 0.5)``
   (float32 → float64 is exact; one multiply+add+floor is IEEE-identical in
   numpy and DuckDB);
2. centroid means are snapped to the 1/8 grid:
   ``m = floor((s / c) * 8 + 0.5) / 8`` where ``s`` (integer sum) and ``c``
   (count) are EXACT — so the snapped centroid is the same float64 in both
   engines regardless of partial-sum order;
3. every squared-distance term ``(xq_i - m_i)²`` is then an exact multiple
   of 1/64 bounded far below 2^53, so ANY summation order (numpy einsum,
   DuckDB list_sum) yields the same float64 — argmin ties are true ties,
   broken by smallest cluster index in both engines.

The reference has no clustering (SURVEY.md P6: sketches/approx absent); this
is part of the brief's training-data toolbox (semantic bucketing / corpus
curation). IVF centroid training (`stages/ann.py::_train_centroids`) is the
sampled approximate cousin; this is the exact full-data variant.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .ann import _to_matrix
from .exchange import collect_arrow

QUANT_SCALE = 1024.0      #: input grid: floor(x * 1024 + 0.5)
MEAN_GRID = 8.0           #: centroid grid: floor(mean * 8 + 0.5) / 8


def quantize_batch(batch: pa.Table, emb_col: str = "embedding") -> pa.Table:
    """Replace the embedding column with its integer-grid quantization
    (kept as list<double> of integer values — exact in both engines)."""
    m = _to_matrix(batch.column(emb_col))
    q = np.floor(m * QUANT_SCALE + 0.5)
    arr = pa.FixedSizeListArray.from_arrays(
        pa.array(q.reshape(-1), pa.float64()), q.shape[1])
    idx = batch.schema.get_field_index(emb_col)
    return batch.set_column(idx, emb_col, arr.cast(pa.list_(pa.float64())))


def _partial_stats(batch: pa.Table, cent: np.ndarray, id_col: str,
                   emb_col: str) -> pa.Table:
    """Per-batch map-side combine of one Lloyd iteration: assign each row to
    its nearest centroid (exact argmin, ties → smallest index), emit one row
    per non-empty cluster: count, per-dimension sum, and the per-cluster sum
    of an id column (an integer witness that the full assignment matches)."""
    x = _to_matrix(batch.column(emb_col))                # (n, d) exact ints
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    # (n, k, d) diff tensor: every term is an exact multiple of 1/64
    # bounded << 2^53, so the sum is order-independent (see module doc)
    d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)                           # first min = smallest idx
    k = cent.shape[0]
    counts = np.bincount(assign, minlength=k)
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, assign, x)                           # integer-exact
    # accumulate the id-sum witness in int64 (float64 bincount weights
    # silently lose precision past 2^53 — large ids x big batches)
    id_sums = np.zeros(k, dtype=np.int64)
    np.add.at(id_sums, assign, ids.astype(np.int64))
    nz = np.flatnonzero(counts)
    return pa.table({
        "cluster": pa.array(nz.astype(np.int64)),
        "n": pa.array(counts[nz].astype(np.int64)),
        "id_sum": pa.array(id_sums[nz].astype(np.int64)),
        "vec_sum": pa.FixedSizeListArray.from_arrays(
            pa.array(sums[nz].reshape(-1), pa.float64()),
            x.shape[1]).cast(pa.list_(pa.float64())),
    })


def _reduce_partials(parts, k: int, d: int):
    """Tiny driver-side reduce of the k × n_blocks partial rows."""
    counts = np.zeros(k, dtype=np.int64)
    id_sums = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, d))
    cl = parts["cluster"].to_numpy(zero_copy_only=False)
    counts_part = parts["n"].to_numpy(zero_copy_only=False)
    np.add.at(counts, cl, counts_part)
    np.add.at(id_sums, cl, parts["id_sum"].to_numpy(zero_copy_only=False))
    vs = _to_matrix(parts["vec_sum"])
    np.add.at(sums, cl, vs)
    return counts, id_sums, sums


def kmeans_fit(ds: rd.Dataset, k: int, n_iter: int,
               id_col: str = "vec_id", emb_col: str = "embedding"):
    """Exact distributed Lloyd's k-means under the determinism contract.

    Init: the quantized vectors of the ``k`` smallest ids (deterministic and
    SQL-expressible — no RNG). Empty clusters keep their previous centroid.

    Returns ``(centroids, counts, id_sums)`` after ``n_iter`` full
    assignment passes: snapped (k, d) centroids from the LAST update, plus
    the final-assignment per-cluster sizes and id sums (integer witnesses).
    """
    from .topk import topk

    qds = ds.map_batches(quantize_batch, batch_format="pyarrow",
                         zero_copy_batch=True,
                         fn_kwargs={"emb_col": emb_col}).materialize()
    # init = the k smallest ids via the map-side-pruned top-k (k rows per
    # block leave the scan) — a Dataset.sort here would range-shuffle the
    # whole input for k rows
    seed = topk(qds, by=[id_col], k=k, descending=False)
    cent = np.vstack(seed[emb_col].to_numpy()).astype(np.float64)[:k]
    d = cent.shape[1]
    counts = id_sums = None
    for _ in range(n_iter):
        parts = collect_arrow(qds.map_batches(
            _partial_stats, batch_format="pyarrow",
            fn_kwargs={"cent": cent, "id_col": id_col, "emb_col": emb_col}))
        counts, id_sums, sums = _reduce_partials(parts, k, d)
        nz = counts > 0
        # snap means to the 1/8 grid — s and c are exact, so this float64 is
        # bit-identical in any engine (empty clusters keep their centroid)
        cent = cent.copy()
        cent[nz] = np.floor(sums[nz] / counts[nz, None] * MEAN_GRID + 0.5) \
            / MEAN_GRID
    return cent, counts, id_sums


class _LabelPartials:
    """Map-side combine for supervised (per-label) centroids: one row per
    label per batch with count + integer vector sum — same exactness
    contract as the Lloyd partials, but the assignment IS a label column."""

    def __init__(self, label_col: str, emb_col: str):
        self.label_col, self.emb_col = label_col, emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = _to_matrix(batch.column(self.emb_col))
        labels = batch.column(self.label_col)
        import pyarrow.compute as pc
        uniq = pc.unique(labels.combine_chunks()
                         if isinstance(labels, pa.ChunkedArray) else labels)
        code = pc.index_in(labels, uniq).to_numpy(zero_copy_only=False)
        k = len(uniq)
        counts = np.bincount(code, minlength=k)
        sums = np.zeros((k, x.shape[1]))
        np.add.at(sums, code, x)
        return pa.table({
            "label": uniq,
            "n": pa.array(counts.astype(np.int64)),
            "vec_sum": pa.FixedSizeListArray.from_arrays(
                pa.array(sums.reshape(-1), pa.float64()),
                x.shape[1]).cast(pa.list_(pa.float64())),
        })


def label_centroids(ds: rd.Dataset, label_col: str = "label",
                    emb_col: str = "embedding"):
    """Per-label snapped mean embedding (class prototypes — the supervised
    sibling of k-means): quantized inputs → per-batch per-label integer
    partial sums (shuffle bytes ~ labels × blocks) → ONE tiny groupby →
    1/8-grid snapped means, bit-identical to the SQL mirror by the module's
    determinism contract. Returns a DataFrame (label, n, centroid (k,d))."""
    import pandas as pd

    qds = ds.map_batches(quantize_batch, batch_format="pyarrow",
                         zero_copy_batch=True,
                         fn_kwargs={"emb_col": emb_col})
    parts = qds.map_batches(_LabelPartials(label_col, emb_col),
                            batch_format="pyarrow", zero_copy_batch=True)
    tbl = collect_arrow(parts)
    df = pd.DataFrame({"label": tbl.column("label").to_pandas(),
                       "n": tbl.column("n").to_pandas()})
    vs = _to_matrix(tbl.column("vec_sum"))
    agg = df.groupby("label", sort=True)
    labels = list(agg.groups)
    counts = agg["n"].sum().to_numpy()
    d = vs.shape[1]
    sums = np.zeros((len(labels), d))
    lab_idx = {v: i for i, v in enumerate(labels)}
    np.add.at(sums, df["label"].map(lab_idx).to_numpy(), vs)
    cent = np.floor(sums / counts[:, None] * MEAN_GRID + 0.5) / MEAN_GRID
    return labels, counts.astype(np.int64), cent
