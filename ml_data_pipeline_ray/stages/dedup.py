"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference has no row-level dedup (only value-level string interning,
``ml-data/ml-data-readers/src/string_cache.rs:39-50`` — SURVEY.md U2/U3);
these are the training-data-pipeline operators built Ray-Data-first:

- exact:    one hash exchange on the deduped columns → keep first row per
            distinct key inside each shard.
- MinHash:  shingle→minhash signatures per batch (vectorized reduceat) →
            (id, band, band_hash) rows → one hash exchange on
            (band, band_hash) → candidate pairs → exact-Jaccard verification
            of the candidates (broadcast membership + one pair exchange).
- SimHash:  64-bit sign-aggregated token hashes; the same band rows (plus
            the signature) and exchange, pairs verified by Hamming distance.
            Both LSH paths share one band-row emitter (``_band_rows``) and
            one bucket-pair kernel (``_bucket_pairs``).
- n-gram:   exact word-shingle Jaccard between all pairs of a (small,
            broadcast) candidate set — the verification kernel MinHash feeds.

All per-batch math is numpy/pyarrow vectorized; token hashing uses pandas'
siphash (stable across processes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .exchange import collect_arrow, hash_exchange, mix64
from .joins import _pa_schema

TOKEN_SPLIT_RE = r"[^A-Za-z0-9]+"


# ---------------------------------------------------------------------------
# shared vectorized helpers
# ---------------------------------------------------------------------------

def tokenize_offsets(texts: pa.ChunkedArray | pa.Array,
                     lowercase: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Split a string column into flat token hashes + per-row token counts.

    Returns ``(token_hash: uint64[n_tokens], counts: int64[n_rows])``.
    Tokenization = lowercased runs split on non-alphanumerics (matches the
    DuckDB oracle's ``regexp_extract_all(lower(text), '[a-z0-9]+')``).
    """
    if lowercase:
        texts = pc.utf8_lower(texts)
    lists = pc.split_pattern_regex(texts, TOKEN_SPLIT_RE)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    counts = pc.list_value_length(lists).cast(pa.int64()).to_numpy(zero_copy_only=False)
    counts = np.nan_to_num(counts).astype(np.int64)
    flat_np = flat.to_numpy(zero_copy_only=False)
    # splitting leaves empty strings at boundaries; mask them out (vectorized)
    nonempty = (pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
                if flat_np.size else np.zeros(0, bool))
    hashes = pd.util.hash_array(flat_np, categorize=True) if flat_np.size else np.zeros(0, np.uint64)
    # drop empty tokens, adjusting per-row counts
    if flat_np.size and not nonempty.all():
        row_of = np.repeat(np.arange(counts.size), counts)
        keep = nonempty
        hashes = hashes[keep]
        counts = np.bincount(row_of[keep], minlength=counts.size).astype(np.int64)
    return hashes, counts


def shingle_hashes(token_hashes: np.ndarray, counts: np.ndarray,
                   k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """k-token shingle hashes per row (flat + per-row counts), vectorized.

    Rows with fewer than k tokens get one shingle covering their tokens
    (so short texts still fingerprint)."""
    n_rows = counts.size
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    win = np.maximum(counts - k + 1, np.minimum(counts, 1))  # >=1 if any token
    w_starts = np.concatenate(([0], np.cumsum(win)[:-1]))
    total_w = int(win.sum())
    if total_w == 0:
        return np.zeros(0, np.uint64), np.zeros(n_rows, np.int64)
    local = np.arange(total_w, dtype=np.int64) - np.repeat(w_starts, win)
    row = np.repeat(np.arange(n_rows), win)
    g = starts[row] + local
    with np.errstate(over="ignore"):
        acc = np.zeros(total_w, dtype=np.uint64)
        for j in range(k):
            idx = np.minimum(g + j, starts[row] + np.maximum(counts[row] - 1, 0))
            valid = (local + j) < np.maximum(counts[row], 1)
            term = np.where(valid, token_hashes[idx] if token_hashes.size else 0, 0)
            acc = acc * np.uint64(0x100000001B3) + term.astype(np.uint64)
    return mix64(acc), win


def minhash_signatures(sh: np.ndarray, win: np.ndarray,
                       num_hashes: int = 128) -> np.ndarray:
    """(n_rows, num_hashes) MinHash signature matrix from flat shingle hashes."""
    n_rows = win.size
    sig = np.full((n_rows, num_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    has = win > 0
    if not has.any():
        return sig
    w_starts = np.concatenate(([0], np.cumsum(win)[:-1]))
    seg = w_starts[has]
    with np.errstate(over="ignore"):
        for j in range(num_hashes):
            h = mix64(sh + np.uint64((j * 0x9E3779B97F4A7C15 + 1) & 0xFFFFFFFFFFFFFFFF))
            sig[has, j] = np.minimum.reduceat(h, seg)
    return sig


# ---------------------------------------------------------------------------
# benchmark decontamination (training-data op: flag docs overlapping an
# eval/benchmark set by any k-token shingle)
# ---------------------------------------------------------------------------

def benchmark_shingle_hashes(bench: rd.Dataset, text_col: str = "text",
                             k: int = 3) -> np.ndarray:
    """Sorted distinct k-token shingle hashes of the (small) benchmark
    corpus. Deduped MAP-SIDE: each batch ships only its distinct hashes, so
    what reaches the driver is bounded by the benchmark's distinct-shingle
    count, not its row count — the benchmark/eval set is the small side by
    definition (it must be broadcastable for the scan-side membership
    test)."""
    def distinct_hashes(batch: pa.Table) -> pa.Table:
        th, counts = tokenize_offsets(batch[text_col])
        sh, _ = shingle_hashes(th, counts, k=k)
        return pa.table({"h": pa.array(np.unique(sh), pa.uint64())})

    parts = bench.map_batches(distinct_hashes, batch_format="pyarrow",
                              zero_copy_batch=True)
    tbl = collect_arrow(parts)
    if not tbl.num_rows:
        return np.zeros(0, np.uint64)
    return np.unique(tbl["h"].to_numpy())


def _contamination_counts(batch: pa.Table, bench: np.ndarray, id_col: str,
                          text_col: str, k: int) -> pa.Table:
    """Per-batch contamination count against the broadcast (sorted)
    benchmark shingle-hash set. Emits only contaminated rows: (id,
    n_contaminated = count of the row's DISTINCT shingles present in the
    benchmark set)."""
    th, counts = tokenize_offsets(batch[text_col])
    sh, win = shingle_hashes(th, counts, k=k)
    n_rows = batch.num_rows
    row = np.repeat(np.arange(n_rows, dtype=np.int64), win)
    # per-row distinct shingles: lexsort (row, hash), drop repeats
    order = np.lexsort((sh, row))
    r2, s2 = row[order], sh[order]
    keep = np.ones(r2.size, dtype=bool)
    keep[1:] = (r2[1:] != r2[:-1]) | (s2[1:] != s2[:-1])
    r3, s3 = r2[keep], s2[keep]
    # membership via searchsorted on the sorted benchmark array
    if bench.size:
        idx = np.minimum(np.searchsorted(bench, s3), bench.size - 1)
        hit = bench[idx] == s3
    else:
        hit = np.zeros(s3.size, dtype=bool)
    n_hits = np.bincount(r3[hit], minlength=n_rows).astype(np.int64)
    flag = n_hits > 0
    return pa.table({
        id_col: batch[id_col].filter(pa.array(flag)),
        "n_contaminated": pa.array(n_hits[flag], pa.int64()),
    })


def decontaminate_flags(ds: rd.Dataset, bench: rd.Dataset,
                        id_col: str = "doc_id", text_col: str = "text",
                        k: int = 3) -> rd.Dataset:
    """Benchmark decontamination: rows of ``ds`` sharing ANY k-token shingle
    with the benchmark corpus, with the count of overlapping distinct
    shingles. Shape: benchmark shingle set built distributed and handed to
    every task through ``fn_kwargs``, then one embarrassingly-parallel
    membership scan — no shuffle touches the big side."""
    bench_hashes = benchmark_shingle_hashes(bench, text_col=text_col, k=k)
    return ds.map_batches(_contamination_counts, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"bench": bench_hashes, "id_col": id_col,
                                     "text_col": text_col, "k": k})


# ---------------------------------------------------------------------------
# exact dedup (distributed)
# ---------------------------------------------------------------------------

def exact_dedup(ds: rd.Dataset, cols: list[str], order_col: str) -> rd.Dataset:
    """Keep, per distinct value of ``cols``, the row with minimal
    ``order_col``. One :func:`~.exchange.hash_exchange` on ``cols`` — all
    copies of a value co-locate while many values share a shard (a group
    per DISTINCT value would mean corpus-sized group machinery on a
    mostly-unique corpus); the per-shard pandas kernel resolves the real
    grouping (and any hash collisions) exactly."""

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        idx = g.groupby(cols, dropna=False, sort=False)[order_col].idxmin()
        return g.loc[idx.to_numpy()]

    return hash_exchange([ds], cols, keep_first, batch_format="pandas")


def duplicate_shingle_stats(ds: rd.Dataset, id_col: str = "doc_id",
                            text_col: str = "text", k: int = 5) -> rd.Dataset:
    """Cross-document duplicated k-gram span stats — the exact-substring
    dedup signal ("Deduplicating Training Data Makes Language Models
    Better", Lee et al. 2022, arXiv:2107.06499), expressed over word
    k-grams: for every document, the number of DISTINCT k-token shingles
    it contains (``n_grams``) and how many of those also appear in at
    least one OTHER document (``n_dup_grams``). ``n_dup_grams / n_grams``
    is the duplicate-span fraction used to drop or trim boilerplate-heavy
    documents.

    Scale shape: one full-size :func:`~.exchange.hash_exchange` of distinct
    ``(doc, shingle-hash)`` pairs on the shingle hash (all holders of a
    shingle co-locate, many shingles per shard, exactly like
    :func:`exact_dedup`), per-shard numpy counting, then a second SMALL
    exchange of per-(doc, shard) partial rows via :func:`grouped_agg`.
    The corpus text itself never shuffles; shingles travel as uint64
    hashes, not strings (collision odds ~n^2/2^64 — deterministic, and
    asserted against a string oracle in tests/the driver gate)."""
    from .groupagg import grouped_agg

    def pairs(batch: pa.Table) -> pa.Table:
        th, counts = tokenize_offsets(batch[text_col])
        sh, win = shingle_hashes(th, counts, k=k)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(win.size), win)
        # distinct (doc, shingle): each doc lives in exactly one input row,
        # so batch-local dedup IS global dedup
        order = np.lexsort((sh, row))
        r, s = row[order], sh[order]
        keep = np.ones(r.size, dtype=bool)
        if r.size:
            keep[1:] = (r[1:] != r[:-1]) | (s[1:] != s[:-1])
        r, s = r[keep], s[keep]
        return pa.table({
            id_col: pa.array(ids[r]),
            "_sh": pa.array(s),
        })

    def shard_stats(t: pa.Table) -> pa.Table:
        sh = t.column("_sh").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        _, inv, cnt = np.unique(sh, return_inverse=True, return_counts=True)
        dup = cnt[inv] >= 2  # pairs are doc-distinct, so count == n_docs
        uids, dinv = np.unique(ids, return_inverse=True)
        return pa.table({
            id_col: pa.array(uids),
            "n_grams": pa.array(np.bincount(dinv).astype(np.int64)),
            "n_dup_grams": pa.array(
                np.bincount(dinv, weights=dup).astype(np.int64)),
        })

    partials = hash_exchange(
        [ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)],
        ["_sh"], shard_stats, batch_format="pyarrow")
    return grouped_agg(partials, keys=[id_col],
                       aggs=[("n_grams", "sum", "n_grams"),
                             ("n_dup_grams", "sum", "n_dup_grams")])


# ---------------------------------------------------------------------------
# LSH near-dup: band rows → one (band, band_hash) exchange → bucket pairs
# ---------------------------------------------------------------------------

def _band_rows(batch: pa.Table, id_col: str, bh: np.ndarray,
               **extra: np.ndarray) -> pa.Table:
    """``(id, band, band_hash, *extra)`` LSH rows, one per (row, band) of
    the ``(n_rows, num_bands)`` band-hash matrix ``bh``; each ``extra``
    per-row uint64 array rides along as a column. Only ids and integers
    reach the banding exchange."""
    n, num_bands = bh.shape
    row = np.repeat(np.arange(n), num_bands)
    cols = {id_col: batch.column(id_col).take(row),
            "band": pa.array(np.tile(np.arange(num_bands, dtype=np.int32), n)),
            "band_hash": pa.array(bh.reshape(-1), type=pa.uint64())}
    for name, v in extra.items():
        cols[name] = pa.array(v[row], type=pa.uint64())
    return pa.table(cols)


def _bucket_pairs(t: pa.Table, id_col: str
                  ) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """The bucket-pair kernel of both LSH exchanges. ``t`` holds whole
    ``(band, band_hash)`` buckets (many per shard: a bucket per Ray group
    would be tens of thousands of mostly singleton groups). Its rows are
    deduped on ``(band, band_hash, id)`` and sorted by bucket, then id.
    Returns those rows and the positions ``a < b`` of every pair sharing a
    bucket, so ``id[a] < id[b]``. Buckets come in few sizes, so all buckets
    of one size share one upper-triangle index."""
    t = t.sort_by([("band", "ascending"), ("band_hash", "ascending"),
                   (id_col, "ascending")])
    band = t.column("band").to_numpy()
    bh = t.column("band_hash").to_numpy()
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    new = np.ones(t.num_rows, dtype=bool)
    new[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    keep = new.copy()
    keep[1:] |= ids[1:] != ids[:-1]
    t, new = t.filter(keep), new[keep]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, t.num_rows))
    a, b = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for size in np.unique(sizes[sizes >= 2]).tolist():
        ia, ib = np.triu_indices(size, k=1)
        s = starts[sizes == size][:, None]
        a.append((s + ia).ravel())
        b.append((s + ib).ravel())
    return t, np.concatenate(a), np.concatenate(b)


def _pair_frame(tbl: pa.Table, ds: rd.Dataset, id_col: str,
                **extra: pa.DataType) -> pd.DataFrame:
    """Collected ``(id_a, id_b, *extra)`` rows as a DataFrame of distinct
    rows sorted by ``(id_a, id_b)``. A table without columns (no row
    reached the exchange) becomes an empty frame typed by ``ds``' id
    column."""
    if not tbl.num_columns:
        id_t = _pa_schema(ds).field(id_col).type
        tbl = pa.schema([("id_a", id_t), ("id_b", id_t),
                         *extra.items()]).empty_table()
    return (tbl.to_pandas().drop_duplicates()
            .sort_values(["id_a", "id_b"], kind="mergesort")
            .reset_index(drop=True))


class MinHashStage:
    """Per-batch stage: text → ``(id, band, band_hash)`` LSH rows.

    ``__init__`` fixes the signature/banding configuration once;
    ``__call__`` emits ``num_bands`` rows per input row.
    """

    def __init__(self, id_col: str, text_col: str = "text", k: int = 3,
                 num_hashes: int = 128, num_bands: int = 32):
        if num_bands < 1 or num_hashes % num_bands:
            raise ValueError(f"num_hashes={num_hashes} must be a multiple of "
                             f"num_bands={num_bands}")
        self.id_col, self.text_col = id_col, text_col
        self.k, self.num_hashes, self.num_bands = k, num_hashes, num_bands
        self.rows_per_band = num_hashes // num_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, counts = tokenize_offsets(batch.column(self.text_col))
        sh, win = shingle_hashes(th, counts, self.k)
        sig = minhash_signatures(sh, win, self.num_hashes)
        n = batch.num_rows
        bands = sig.reshape(n, self.num_bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            bh = np.zeros((n, self.num_bands), dtype=np.uint64)
            for r in range(self.rows_per_band):
                bh = bh * np.uint64(0x100000001B3) + bands[:, :, r]
        return _band_rows(batch, self.id_col, bh)


def minhash_candidate_pairs(ds: rd.Dataset, id_col: str, text_col: str = "text",
                            k: int = 3, num_hashes: int = 128,
                            num_bands: int = 32) -> pd.DataFrame:
    """LSH candidates: the distinct ``(id_a, id_b)`` pairs, ``id_a < id_b``,
    that share at least one ``(band, band_hash)`` bucket, sorted. One
    exchange of the band rows; a pair found in several bands surfaces from
    several shards, and those copies are dropped on the driver, whose list
    is the near-dup density times up to ``num_bands`` rows."""
    def pairs_in_shard(t: pa.Table) -> pa.Table:
        rows, a, b = _bucket_pairs(t, id_col)
        ids = rows.column(id_col)
        return pa.table({"id_a": ids.take(a), "id_b": ids.take(b)})

    buckets = ds.map_batches(
        MinHashStage(id_col, text_col, k, num_hashes, num_bands),
        batch_format="pyarrow")
    out = hash_exchange([buckets], ["band", "band_hash"], pairs_in_shard,
                        batch_format="pyarrow")
    return _pair_frame(collect_arrow(out), ds, id_col)


# ---------------------------------------------------------------------------
# distributed exact-Jaccard verification of candidate pairs
# ---------------------------------------------------------------------------

def _shingle_blob(texts, k: int) -> pa.Array:
    """Word-k-gram shingle hash sets as ``large_binary`` (each row = the raw
    little-endian bytes of its uint64 shingle hashes). Binary, not
    ``list<uint64>``, because Acero's hash join rejects list payload columns
    — and the blob decodes zero-copy with ``np.frombuffer``."""
    th, counts = tokenize_offsets(texts)
    sh, win = shingle_hashes(th, counts, k)
    offs = (np.concatenate(([0], np.cumsum(win))).astype(np.int64)) * 8
    return pa.Array.from_buffers(
        pa.large_binary(), int(win.size),
        [None, pa.py_buffer(offs.tobytes()),
         pa.py_buffer(np.ascontiguousarray(sh, dtype=np.uint64).tobytes())])


def _shingle_views(arr) -> tuple[np.ndarray, np.ndarray]:
    """(element offsets, flat uint64 hashes) views of a shingle-blob array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    buf_offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    offs = buf_offs[arr.offset:arr.offset + n + 1] // 8
    data = arr.buffers()[2]
    flat = (np.frombuffer(data, dtype=np.uint64) if data is not None
            else np.array([], np.uint64))
    return offs, flat


def _expand_membership(b: pa.Table, id_col: str) -> pa.Table:
    """(id_a, id_b) pair rows → two (id, id_a, id_b, side) membership rows
    each, fully vectorized."""
    n = b.num_rows

    def one_side(id_src: str, side: int) -> pa.Table:
        return pa.table({id_col: b.column(id_src),
                         "id_a": b.column("id_a"),
                         "id_b": b.column("id_b"),
                         "side": pa.array(np.full(n, side, np.int8))})

    return pa.concat_tables([one_side("id_a", 0),
                             one_side("id_b", 1)]).combine_chunks()


def _member_shingles(batch: pa.Table, members: pa.Table, id_col: str,
                     text_col: str, k: int) -> pa.Table:
    """Broadcast-membership shingle emitter: one vectorized Arrow hash join
    of the batch's (id, text) rows against the (id, id_a, id_b, side)
    membership table, then shingle-set computation for the matched rows
    only. Emits ``(id_a, id_b, side, sh: list<uint64>)`` — only candidate
    rows' shingle sets ever leave the batch; no per-pair Python
    anywhere."""
    col_t = batch.schema.field(id_col).type
    if members.schema.field(id_col).type != col_t:
        members = members.set_column(
            members.schema.get_field_index(id_col), id_col,
            members.column(id_col).cast(col_t))
    sub = batch.select([id_col, text_col]).join(
        members, keys=id_col, join_type="inner")
    return pa.table({"id_a": sub.column("id_a"),
                     "id_b": sub.column("id_b"),
                     "side": sub.column("side"),
                     "sh": _shingle_blob(sub.column(text_col), k)})


def verify_candidate_pairs(ds: rd.Dataset, candidates: pd.DataFrame,
                           id_col: str, text_col: str = "text",
                           threshold: float = 0.8, k: int = 3) -> pd.DataFrame:
    """Distributed exact-Jaccard verification, broadcast-membership path:
    the candidate pair list (bounded by true near-dup density) expands to a
    compact Arrow membership table handed to every task through
    ``fn_kwargs``; each map batch joins against it vectorized (Arrow hash
    join — no per-pair Python anywhere), computes shingle sets for matched
    rows only, and ONE
    pair-bucket shuffle co-locates each pair's two sides. Returns the pairs
    with word-``k``-gram Jaccard >= threshold, sorted.

    Scale shape: shuffle volume = Σ per-candidate shingle sets (only
    suspects move), never the corpus; the driver holds only the compact
    Arrow pair/membership tables and the verified result."""
    if len(candidates) == 0:
        return _pair_frame(pa.table({}), ds, id_col)
    pairs = pa.Table.from_pandas(candidates[["id_a", "id_b"]],
                                 preserve_index=False)
    emitted = ds.map_batches(
        _member_shingles, batch_format="pyarrow",
        fn_kwargs={"members": _expand_membership(pairs, id_col),
                   "id_col": id_col, "text_col": text_col, "k": k})

    # many pairs per shard (a Ray group per pair costs ~0.5 ms of group
    # machinery each); both sides of a pair land in one shard, since the
    # shard is a function of (id_a, id_b)
    def check_bucket(g: pa.Table) -> pa.Table:
        av = g.column("id_a").to_numpy(zero_copy_only=False)
        bv = g.column("id_b").to_numpy(zero_copy_only=False)
        side = g.column("side").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, bv, av))
        a_s, b_s, side_s = av[order], bv[order], side[order]
        offs, flat = _shingle_views(g.column("sh"))
        new = np.ones(a_s.size, dtype=bool)
        new[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [a_s.size]))
        keep = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2 or side_s[s] != 0 or side_s[e - 1] != 1:
                continue           # one side's row missing — not verifiable
            ra, rb = int(order[s]), int(order[e - 1])
            sa = np.unique(flat[offs[ra]:offs[ra + 1]])
            sb = np.unique(flat[offs[rb]:offs[rb + 1]])
            inter = np.intersect1d(sa, sb).size
            union = sa.size + sb.size - inter
            if union and inter / union >= threshold:
                keep.append(ra)
        return g.select(["id_a", "id_b"]).take(np.asarray(keep, np.int64))

    out = hash_exchange([emitted], ["id_a", "id_b"], check_bucket,
                        batch_format="pyarrow")
    return _pair_frame(collect_arrow(out), ds, id_col)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_bits(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """64-bit SimHash per row: sign of per-bit sums of token hashes."""
    th, counts = tokenize_offsets(texts)
    n_rows = counts.size
    sig = np.zeros(n_rows, dtype=np.uint64)
    has = counts > 0
    if not has.any():
        return sig
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    seg = starts[has]
    acc = np.zeros((n_rows, 64), dtype=np.int64)
    for b in range(64):
        bit = ((th >> np.uint64(b)) & np.uint64(1)).astype(np.int64) * 2 - 1
        acc[has, b] = np.add.reduceat(bit, seg)
    bits = (acc > 0).astype(np.uint64)
    for b in range(64):
        sig |= bits[:, b] << np.uint64(b)
    return sig


class SimHashBandStage:
    """Text → ``(id, band, band_hash, sig)`` LSH rows from bit-slices of the
    64-bit SimHash. With ``num_bands`` bands, any pair at Hamming distance
    < num_bands shares at least one intact band (pigeonhole), so banding +
    per-bucket verification is EXACT for ``max_hd <= num_bands - 1``.
    Bits-per-band trades that recall bound against bucket size — at corpus
    scale use a smaller ``max_hd`` with fewer, wider bands."""

    def __init__(self, id_col: str, text_col: str = "text", num_bands: int = 9):
        self.id_col, self.text_col = id_col, text_col
        self.bounds = np.linspace(0, 64, num_bands + 1).astype(np.uint64)
        self.num_bands = num_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = simhash_bits(batch.column(self.text_col))
        n = sig.size
        bh = np.empty((n, self.num_bands), dtype=np.uint64)
        for i in range(self.num_bands):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            width = np.uint64(hi - lo)
            mask = (np.uint64(1) << width) - np.uint64(1)
            bh[:, i] = (sig >> lo) & mask
        return _band_rows(batch, self.id_col, bh, sig=sig)


def simhash_candidate_pairs(ds: rd.Dataset, id_col: str,
                            text_col: str = "text", num_bands: int = 9,
                            max_hd: int = 8) -> pd.DataFrame:
    """Distributed SimHash near-dup: the ``(id_a, id_b, hamming)`` pairs,
    ``id_a < id_b``, at Hamming distance ``<= max_hd``, sorted. Banding
    exchange as MinHash's (only (id, band, band_hash, sig) rows move), then
    Hamming verification of each bucket's pairs. Exact for ``max_hd <=
    num_bands - 1`` — equivalent to the all-pairs scan without the O(n²)
    compare."""
    if max_hd > num_bands - 1:
        raise ValueError(f"max_hd={max_hd} needs num_bands > max_hd for exact "
                         f"recall, got num_bands={num_bands}")
    lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)

    def pairs_in_shard(t: pa.Table) -> pa.Table:
        rows, a, b = _bucket_pairs(t, id_col)
        sig = rows.column("sig").to_numpy()
        hd = lut[(sig[a] ^ sig[b]).view(np.uint8).reshape(-1, 8)].sum(1)
        keep = hd <= max_hd
        ids = rows.column(id_col)
        return pa.table({"id_a": ids.take(a[keep]), "id_b": ids.take(b[keep]),
                         "hamming": hd[keep].astype(np.int64)})

    buckets = ds.map_batches(SimHashBandStage(id_col, text_col, num_bands),
                             batch_format="pyarrow")
    out = hash_exchange([buckets], ["band", "band_hash"], pairs_in_shard,
                        batch_format="pyarrow")
    return _pair_frame(collect_arrow(out), ds, id_col, hamming=pa.int64())
