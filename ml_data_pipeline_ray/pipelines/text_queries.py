"""Text-analysis / dedup / similarity queries for the correctness gate."""

from __future__ import annotations

import glob

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..sources.readers import read_parquet
from ..stages import text as T
from ..stages.packing import pack_by_token_budget
from ..stages.sampling import mixture_sample
from ..stages.topk import grouped_topk, topk
from ..stages.ann import brute_force_topk, cosine_pairs_bucketed, ivf_topk
from ..stages.groupagg import grouped_agg
from ..stages.dedup import (exact_dedup, minhash_candidate_pairs,
                            simhash_candidate_pairs, verify_candidate_pairs)
from .fixture_paths import fixture_paths, scale_for_sf_dir, transcripts_glob
from .tpch import _t

#: sample bounds for the O(n^2)-verifiable near-dup queries
SAMPLE_MAX_MINHASH = "conv-00000019"
SAMPLE_MAX_NGRAM = "conv-00000009"
JACCARD_THRESHOLD = 0.8
COSINE_THRESHOLD = 0.4


# -- documents: token stats / quality / language id -------------------------

def docs_token_stats(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(T.add_token_stats, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_tokens", "n_chars_text"]).to_pandas()


def docs_term_scrub(sf_dir: str) -> pd.DataFrame:
    """Pattern-redaction operator (the PII-scrub shape — emails/phones/IDs —
    exercised here with a term pattern the synthetic corpus actually
    contains): every ``\\b(customer|spark)\\b`` match replaced with ``[X]``,
    per-doc match count appended. No shuffle; exact RE2-vs-RE2 oracle."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: T.scrub_pattern(b, pattern=r"\b(customer|spark)\b"),
        batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "text", "n_redacted"]).to_pandas()


def docs_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination (core LLM-training-data op): flag every
    training doc that shares ANY 3-token shingle with the held-out
    eval/benchmark slice (here ``doc_id % 97 == 0``), with the count of
    overlapping distinct shingles. Benchmark shingle set built distributed,
    deduped map-side, handed to every task through ``fn_kwargs``; the
    training-side scan is one shuffle-free membership pass. Oracle: DuckDB
    list_intersect over the same 3-gram shingles."""
    from ..stages.dedup import decontaminate_flags

    def slice_mod(want_bench: bool):
        # Arrow dataset expressions have no modulo — vectorized batch mask
        def fn(b: pa.Table) -> pa.Table:
            m = b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0
            return b.filter(pa.array(m if want_bench else ~m))
        return read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"]).map_batches(
            fn, batch_format="pyarrow", zero_copy_batch=True)

    out = decontaminate_flags(slice_mod(False), slice_mod(True),
                              id_col="doc_id", k=3)
    df = out.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def docs_quality_by_source(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "documents"), columns=["source", "text"])
    def metrics(b: pa.Table) -> pa.Table:
        b = T.add_quality_metrics(b)
        return b.append_column(
            "n_digits",
            pc.count_substring_regex(b["text"], T.DIGIT_RE).cast(pa.int64()))

    m = grouped_agg(
        ds.map_batches(metrics, batch_format="pyarrow", zero_copy_batch=True),
        keys=["source"], aggs=[(None, "count_star", "n_docs"),
                               ("n_tokens", "sum", "total_tokens"),
                               ("n_stopwords", "sum", "sum_stop"),
                               ("n_chars_text", "sum", "sum_chars"),
                               ("n_digits", "sum", "sum_digits")]).to_pandas()
    # integer sums + one final division == exact float agreement with SQL
    m["stop_ratio"] = (m["sum_stop"] / m["total_tokens"].clip(lower=1)).round(6)
    m["digit_ratio"] = (m["sum_digits"] / m["sum_chars"].clip(lower=1)).round(6)
    return m[["source", "n_docs", "total_tokens", "stop_ratio", "digit_ratio"]]


def docs_langid(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "documents"), columns=["text"])
    out = grouped_agg(
        ds.map_batches(T.add_lang_pred, batch_format="pyarrow",
                       zero_copy_batch=True),
        keys=["lang_pred"], aggs=[(None, "count_star", "n")]).to_pandas()
    return out


def docs_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Rolling-hash fingerprints (rows-only check: no SQL equivalent)."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(T.Fingerprinter(),
                         batch_format="pyarrow").to_pandas()
    out["fp_content"] = out["fp_content"].apply(lambda v: f"{v:016x}")
    out["fp_min"] = out["fp_min"].apply(lambda v: f"{v:016x}")
    return out[["doc_id", "fp_content", "fp_min"]]


# -- LLM corpus ops: packing / mixture / vocabulary -------------------------

#: packing budget (tokens per chunk) for the gate query
PACK_BUDGET = 512

#: deterministic mixture rates out of 1024 per source (src{i} -> 64 + 48*i,
#: clipped) — mirrored by the oracle's arithmetic on the source suffix
MIXTURE_RATES_1024 = {f"src{i}": min(1024, 64 + 48 * i) for i in range(64)}


def docs_pack_chunks(sf_dir: str) -> pd.DataFrame:
    """Sequence packing: documents -> 512-token-budget chunks per source
    (see :mod:`..stages.packing` for semantics and the scale argument)."""
    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "text"])
    out = pack_by_token_budget(ds, budget=PACK_BUDGET).to_pandas()
    return out.sort_values(["source", "chunk_id"]).reset_index(drop=True)


def docs_mixture_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted corpus mixing: per-source keep rates applied
    via a pure per-batch hash filter (no shuffle, no RNG state)."""
    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "lang", "n_chars"])
    out = mixture_sample(ds, MIXTURE_RATES_1024).to_pandas()
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "source", "lang", "n_chars"]])


def docs_vocab_topk(sf_dir: str) -> pd.DataFrame:
    """Distributed vocabulary count -> top-50 tokens: per-batch partial
    counts (map-side combine), ONE groupby(token) shuffle over distinct
    tokens only, then the k x blocks top-k reduction (no global sort)."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["text"])
    partial = ds.map_batches(T.token_count_partial, batch_format="pyarrow",
                             zero_copy_batch=True)
    agg = grouped_agg(partial, keys=["token"], aggs=[("n", "sum", "n")])
    return topk(agg, by=["n", "token"], k=50,
                descending=[True, False]).reset_index(drop=True)


def docs_source_cap(sf_dir: str) -> pd.DataFrame:
    """Per-source document cap — the web-curation "domain cap" primitive
    (bound any one domain's share of the corpus): keep the top-5 docs per
    source by (n_chars DESC, doc_id ASC). Runs as map-side-pruned grouped
    top-k (:func:`..stages.topk.grouped_topk`): each block keeps ≤5 rows
    per source it contains, so at most 5 × sources × blocks candidate rows
    leave the scan — the corpus itself never shuffles."""
    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "n_chars"])
    out = grouped_topk(ds, group="source", by=["n_chars", "doc_id"], k=5,
                       descending=[True, False])
    return (out.sort_values(["source", "doc_id"]).reset_index(drop=True)
            [["source", "doc_id", "n_chars"]])


SQL_DOCS_SOURCE_CAP = """
SELECT source, doc_id, n_chars FROM (
  SELECT source, doc_id, n_chars,
         row_number() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn <= 5
"""


def docs_train_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split — the corpus-prep staple: bucket
    every doc by a Knuth multiplicative hash of its id (stable across runs,
    machines and engines; NO random_shuffle), 90/5/5, and report per
    (split, lang) doc counts + char volume. Pure map + one tiny
    ``grouped_agg`` exchange of <= splits x langs x blocks partial rows;
    at corpus scale the split column would feed partitioned writes
    (``write_parquet(partition_cols=['split'])``) instead of an agg."""

    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "lang", "n_chars"])

    def assign(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            bucket = (ids * np.uint64(2654435761)) % np.uint64(1 << 32) \
                % np.uint64(100)
        split = np.where(bucket < 90, "train",
                         np.where(bucket < 95, "val", "test"))
        return b.append_column("split", pa.array(split))

    out = grouped_agg(
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True),
        keys=["split", "lang"],
        aggs=[(None, "count_star", "n_docs"),
              ("n_chars", "sum", "sum_chars")]).to_pandas()
    return (out.sort_values(["split", "lang"]).reset_index(drop=True)
            [["split", "lang", "n_docs", "sum_chars"]])


#: doc_id * 2654435761 stays < 2^63 for any plausible doc_id (~3.5e9 docs),
#: so the signed SQL product and the engine's uint64 product agree exactly
SQL_DOCS_TRAIN_SPLIT = """
SELECT CASE WHEN b < 90 THEN 'train' WHEN b < 95 THEN 'val' ELSE 'test' END
         AS split,
       lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM (SELECT lang, n_chars,
             (doc_id * 2654435761) % 4294967296 % 100 AS b FROM documents)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def docs_dup_ngram_spans(sf_dir: str) -> pd.DataFrame:
    """Exact-substring duplication scoring (Lee et al. 2022 signal over
    word 5-grams): per doc, distinct 5-token shingles + how many appear in
    another doc; only docs with >= 1 duplicated span are returned. See
    :func:`..stages.dedup.duplicate_shingle_stats` for the two-exchange
    scale shape. Oracle: string 5-grams in DuckDB (engine side uses mixed
    64-bit shingle hashes — equality asserted by the gate)."""
    from ..stages.dedup import duplicate_shingle_stats

    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    stats = duplicate_shingle_stats(ds, k=5)
    stats = stats.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_dup_grams"], 1)),
        batch_format="pyarrow", zero_copy_batch=True)
    df = stats.to_pandas()
    if df.empty:  # schema-less empty exchange (no doc yields a token)
        df = pd.DataFrame({c: pd.Series(dtype="int64")
                           for c in ("doc_id", "n_grams", "n_dup_grams")})
    return (df.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "n_grams", "n_dup_grams"]])


#: same tokenization contract as the engine (lower + [a-z0-9]+ runs); a
#: doc shorter than 5 tokens contributes its single truncated gram, like
#: the engine's clamped shingle window
SQL_DOCS_DUP_NGRAM_SPANS = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i : i + 4], ' ') AS gram
  FROM (SELECT doc_id, ws,
               unnest(range(1, greatest(len(ws) - 4, least(len(ws), 1)) + 1))
                 AS i
        FROM toks)
),
gd AS (SELECT gram, count(*) AS nd FROM grams GROUP BY gram)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(sum(CASE WHEN gd.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_grams
FROM grams g JOIN gd USING (gram)
GROUP BY g.doc_id
HAVING n_dup_grams >= 1
ORDER BY doc_id
"""


def docs_bpe_token_count(sf_dir: str) -> pd.DataFrame:
    """Tokenizer-free LLM token budgeting: per doc, GPT-2-style BPE
    pre-tokenizer match count + whitespace word count (the two standard
    cheap estimates used for packing budgets and per-domain token
    accounting). Pure shuffle-free RE2 scan; both engines run the SAME
    pattern under RE2 so the counts are exact, not approximate."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(T.add_bpe_token_stats, batch_format="pyarrow",
                         zero_copy_batch=True)
    return (out.select_columns(["doc_id", "n_bpe_tokens", "n_ws_tokens"])
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


SQL_DOCS_BPE_TOKEN_COUNT = """
SELECT doc_id,
       CAST(len(regexp_extract_all(text,
         '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+'))
         AS BIGINT) AS n_bpe_tokens,
       CAST(len(regexp_extract_all(text, '[^\\s]+')) AS BIGINT)
         AS n_ws_tokens
FROM documents ORDER BY doc_id
"""


def docs_bigram_logprob(sf_dir: str) -> pd.DataFrame:
    """CCNet/Gopher-style LM quality scoring: train an add-0.5-smoothed
    word-bigram LM on the corpus (one `grouped_agg` exchange of distinct
    bigram-count partials, vocab²-bounded model handed to every task through
    ``fn_kwargs``), then score every doc's bigram occurrences in one
    shuffle-free pass of stateless tasks. Output is integer-exact:
    ``lp_micro_sum`` = Σ floor(1e6·ln P(w2|w1)) per doc (same IEEE doubles
    + libm ln on both engines, so no float-sum-order divergence); the
    avg-log-likelihood filter threshold is ``lp_micro_sum / n_bigrams /
    1e6``."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    kp, lpm, _, unseen = T.build_bigram_lm(ds)
    out = ds.map_batches(T.bigram_lm_score, batch_format="pyarrow",
                         zero_copy_batch=True,
                         fn_kwargs={"kp": kp, "lpm": lpm,
                                    "unseen_lpm": unseen})
    return (out.to_pandas().sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "n_bigrams", "lp_micro_sum"]])


#: engine contract: identical tokenization ([a-z0-9]+ runs of lower(text)),
#: identical smoothing arithmetic in IEEE doubles, floor(1e6·ln) per bigram
#: as int64 micro-units so per-doc sums are order-independent and exact
SQL_DOCS_BIGRAM_LOGPROB = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents
),
big AS (
  SELECT doc_id, ws[i] AS w1, ws[i + 1] AS w2
  FROM (SELECT doc_id, ws,
               unnest(range(1, greatest(len(ws) - 1, 0) + 1)) AS i
        FROM toks)
),
cb AS (SELECT w1, w2, count(*) AS c2 FROM big GROUP BY w1, w2),
cu AS (SELECT w1, count(*) AS c1 FROM big GROUP BY w1),
v AS (SELECT count(DISTINCT w) AS vocab
      FROM (SELECT w1 AS w FROM big UNION SELECT w2 AS w FROM big)),
scored AS (
  SELECT b.doc_id,
         CAST(floor(ln((cb.c2 + 0.5) / (cu.c1 + 0.5 * v.vocab)) * 1000000)
              AS BIGINT) AS lpm
  FROM big b JOIN cb USING (w1, w2) JOIN cu USING (w1) CROSS JOIN v
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(lpm) AS BIGINT) AS lp_micro_sum
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


# -- exact dedup ------------------------------------------------------------

def dedup_exact_events(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "event_type", "props"])
    out = exact_dedup(ds, cols=["event_type", "props"], order_col="event_id")
    return out.to_pandas()[["event_id", "event_type", "props"]]


def dedup_exact_docs(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text", "n_chars"])
    out = exact_dedup(ds, cols=["text"], order_col="doc_id")
    return out.to_pandas()[["doc_id", "n_chars"]]


# -- near-dup over the transcript fixture (updates => true near-dups) -------

def _rid_batch(b: pa.Table) -> pa.Table:
    rid = pc.binary_join_element_wise(
        b["conv_id"], pc.cast(b["turn_idx"], pa.string()), ":")
    return b.append_column("rid", rid)


def _sample_ds(sf_dir: str, bound: str) -> rd.Dataset:
    scale = scale_for_sf_dir(sf_dir)
    fixture_paths(scale)
    files = sorted(glob.glob(transcripts_glob(scale)))
    ds = read_parquet(files, filter=pc.field("conv_id") <= bound,
                         columns=["conv_id", "turn_idx", "text"])
    return ds.map_batches(_rid_batch, batch_format="pyarrow", zero_copy_batch=True)


def neardup_minhash(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH candidates → DISTRIBUTED exact-Jaccard verification
    (tau=0.8): candidate pairs broadcast, shingle sets co-located by ONE
    pair exchange and verified in each shard — the corpus is never read
    onto the driver. With 128 hashes / 32 bands the candidate-miss
    probability at tau is ~5e-8, so the output equals the exact all-pairs
    oracle on this data."""
    ds = _sample_ds(sf_dir, SAMPLE_MAX_MINHASH)
    cand = minhash_candidate_pairs(ds, id_col="rid")
    return verify_candidate_pairs(ds, cand, id_col="rid",
                                  threshold=JACCARD_THRESHOLD, k=3)


def neardup_ngram(sf_dir: str) -> pd.DataFrame:
    """Exact all-pairs word-3-gram Jaccard on a small sample: the candidate
    list is every pair of ids (exhaustive — documented verification kernel),
    but the Jaccard compute itself runs distributed."""
    ds = _sample_ds(sf_dir, SAMPLE_MAX_NGRAM)
    rids = sorted(ds.unique("rid"))
    pairs = pd.DataFrame(
        [(rids[i], rids[j]) for i in range(len(rids))
         for j in range(i + 1, len(rids))], columns=["id_a", "id_b"])
    return verify_candidate_pairs(ds, pairs, id_col="rid",
                                  threshold=JACCARD_THRESHOLD, k=3)


def neardup_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash Hamming-distance near-dup via the distributed banding path
    (9 bit-slice bands make banding EXACT for hd <= 8 — pigeonhole; see
    ``SimHashBandStage``). Rows-only check — the 64-bit projection has no
    SQL equivalent."""
    ds = _sample_ds(sf_dir, SAMPLE_MAX_NGRAM)
    return simhash_candidate_pairs(ds, id_col="rid", num_bands=9, max_hd=8)


# -- embeddings -------------------------------------------------------------

def neardup_embedding(sf_dir: str) -> pd.DataFrame:
    """IVF-bucketed embedding near-dup (the scale path): multi-probe bucket
    assignment + one groupby(bucket) shuffle; no whole-dataset broadcast.
    Probe width is sized so the result is exact on this corpus (asserted
    against the all-pairs oracle in tests and by the SQL oracle here)."""
    ds = read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    pairs = cosine_pairs_bucketed(ds, threshold=COSINE_THRESHOLD,
                                  n_centroids=16, nprobe=6)
    return pairs[["id_a", "id_b"]].reset_index(drop=True)


def _queries(sf_dir: str, n: int = 10):
    """First ``n`` query vectors. Streamed via ``iter_batches`` so only the
    first row group is decoded — never the whole SF-scaled table on the
    driver (the query side is tiny by definition; the corpus side stays a
    Dataset)."""
    pf = pq.ParquetFile(_t(sf_dir, "embeddings"))
    # accumulate across batches: pyarrow batches never span row groups, so
    # a writer with tiny row groups could hand back fewer than n rows in
    # the first batch (and an empty file would StopIteration)
    got, rows = 0, []
    for b in pf.iter_batches(batch_size=n, columns=["vec_id", "embedding"]):
        rows.append(b)
        got += b.num_rows
        if got >= n:
            break
    head = pa.Table.from_batches(
        rows, schema=rows[0].schema if rows else None).slice(0, n)
    ids = head.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    m = np.vstack(head.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    return ids, m


def ann_topk(sf_dir: str) -> pd.DataFrame:
    ds = read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    ids, m = _queries(sf_dir)
    return brute_force_topk(ds, ids, m, k=10)


def ann_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """Metadata-filtered vector search (the filtered-ANN shape every
    retrieval stack needs): top-10 cosine neighbors restricted to
    ``label = 1`` vectors. The predicate is pushed to the parquet scan —
    non-matching vectors never leave storage — then the same broadcast
    query matrix + per-batch matmul + map-side-pruned top-k as
    :func:`ann_topk`."""
    ds = read_parquet(_t(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"],
                      filter=pc.field("label") == 1)
    ids, m = _queries(sf_dir)
    return brute_force_topk(ds, ids, m, k=10)


def ann_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF-bucketed ANN (approximate — rows-only check; recall vs brute
    force is asserted in tests)."""
    ds = read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    ids, m = _queries(sf_dir)
    return ivf_topk(ds, ids, m, k=10, n_centroids=16, nprobe=6)


def neardup_minhash_docs(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup over the DOCUMENTS table (tau=0.5): banding with
    2 hashes/band x 64 bands keeps candidate-miss probability ~1e-8 at the
    lower threshold; verification is the distributed exact-Jaccard pass, so
    the output equals the all-pairs oracle."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    cand = minhash_candidate_pairs(ds, id_col="doc_id",
                                   num_hashes=128, num_bands=64)
    return verify_candidate_pairs(ds, cand, id_col="doc_id",
                                  threshold=0.5, k=3)


def docs_words_explode(sf_dir: str) -> pd.DataFrame:
    """Flat_map/explode: one row per token with its 1-based position
    (doc_id < 20 keeps the exploded result driver-sized; the filter is
    pushed to parquet row groups). Oracle: unnest(regexp_extract_all) +
    generate_subscripts."""
    from ..stages.reshape import explode_tokens

    from ..stages.predicates import Compare

    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"],
                      filter=Compare("doc_id", "lt", 20).to_expression())
    out = ds.map_batches(explode_tokens, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.to_pandas()


def embeddings_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed exact k-means (k=4, 2 Lloyd iterations) under the
    bit-exact determinism contract (`stages/clustering.py` module doc):
    integer-grid inputs + 1/8-grid snapped means make every distance an
    exact multiple of 1/64, so the assignment — and therefore the hash —
    is identical to the SQL-unrolled oracle. Output: per-cluster size and
    id-sum of the FINAL assignment plus the first centroid component
    (×8, an exact integer) of the final update."""
    from ..stages.clustering import kmeans_fit

    ds = read_parquet(_t(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"])
    cent, counts, id_sums = kmeans_fit(ds, k=4, n_iter=2)
    return pd.DataFrame({
        "cluster": np.arange(4, dtype=np.int64),
        "n": counts.astype(np.int64),
        "id_sum": id_sums.astype(np.int64),
        "c0_x8": (cent[:, 0] * 8).astype(np.int64),
    })


def neardup_components(sf_dir: str) -> pd.DataFrame:
    """Near-dup CLUSTERS: the verified MinHash pair list (same pipeline as
    ``neardup_minhash``) labelled by distributed min-label propagation —
    every member of a duplicate group gets the group's minimum id
    (`stages/components.py`), which makes representative-keeping a filter.
    Oracle: recursive reachability (WITH RECURSIVE) + min over the same
    exact-Jaccard pair set."""
    from ..stages.components import components_of_pairs

    ds = _sample_ds(sf_dir, SAMPLE_MAX_MINHASH)
    cand = minhash_candidate_pairs(ds, id_col="rid")
    pairs = verify_candidate_pairs(ds, cand, id_col="rid",
                                   threshold=JACCARD_THRESHOLD, k=3)
    out = components_of_pairs(pairs)
    return out.rename(columns={"id": "rid"})


def docs_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """TF-IDF top term per document: document frequency built distributed
    (per-batch distinct partials, ONE vocab-scale groupby) and handed to
    every task through ``fn_kwargs``; tf + tf-idf + per-doc argmax fuse
    into a single shuffle-free batch pass (a doc's rows never leave their
    batch). Floats never leave the pipeline — output is (doc_id, top_term,
    tf, df)."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = T.tfidf_top_terms(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def docs_corpus_curation(sf_dir: str) -> pd.DataFrame:
    """End-to-end LLM corpus curation as ONE streaming pipeline — the
    composition a real user of this engine runs: quality filter (length +
    stopword ratio, integer arithmetic so no float compares) → language-ID
    keep-English → exact dedup on text (one narrow-hash shuffle) →
    deterministic per-source mixture sampling → per-source stats. Only the
    dedup shuffles; everything else is fused per-batch kernels under
    backpressure. Oracle: the same five stages as one SQL CTE chain."""
    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "lang", "n_chars", "text"])
    m = ds.map_batches(T.add_quality_metrics, batch_format="pyarrow",
                       zero_copy_batch=True)

    def quality_keep(b: pa.Table) -> pa.Table:
        nt = b.column("n_tokens")
        ns = b.column("n_stopwords")
        keep = pc.and_(pc.greater_equal(nt, 10),
                       pc.greater_equal(pc.multiply(ns, 100),
                                        pc.multiply(nt, 5)))
        return b.filter(keep)

    m = m.map_batches(quality_keep, batch_format="pyarrow",
                      zero_copy_batch=True)
    m = m.map_batches(T.add_lang_pred, batch_format="pyarrow",
                      zero_copy_batch=True)
    m = m.map_batches(lambda b: b.filter(pc.equal(b.column("lang_pred"), "en")),
                      batch_format="pyarrow", zero_copy_batch=True)
    d = exact_dedup(m, cols=["text"], order_col="doc_id")
    s = mixture_sample(d, MIXTURE_RATES_1024)
    out = grouped_agg(s, keys=["source"],
                      aggs=[(None, "count_star", "n_docs"),
                            ("n_tokens", "sum", "total_tokens")]).to_pandas()
    out["total_tokens"] = out["total_tokens"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


def docs_sliding_chunks(sf_dir: str) -> pd.DataFrame:
    """Overlapping token-window chunking (RAG ingestion shape): 64-token
    windows every 32 tokens with the chunk text carried through — a
    shuffle-free vectorized flat_map (`stages/reshape.py::sliding_chunks`).
    Oracle: generate_series starts + 1-based inclusive list slices."""
    from ..stages.reshape import sliding_chunks

    ds = read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(sliding_chunks, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.to_pandas()


def docs_sample_k(sf_dir: str) -> pd.DataFrame:
    """Fixed-size deterministic uniform sample (k=100 docs): smallest-k
    Knuth-hash pick via the map-side-pruned top-k — no RNG state, identical
    result at any parallelism. Oracle: ORDER BY the same hash arithmetic."""
    from ..stages.sampling import sample_k_deterministic

    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "n_chars"])
    return sample_k_deterministic(ds, k=100)


def docs_repetition_scores(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality filter: per source, doc count,
    summed top-bigram counts and how many docs a 20%%-top-bigram rule
    flags (integer cross-multiply — no float thresholds). Map-side
    per-batch partials (vectorized factorize/bincount over (doc, bigram)
    pairs), one tiny grouped combine."""
    from ..stages.text import repetition_partial

    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "text"])
    parts = ds.map_batches(repetition_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_agg(parts, keys=["source"],
                      aggs=[("n_docs", "sum", "n_docs"),
                            ("sum_max_bigram", "sum", "sum_max_bigram"),
                            ("n_flagged", "sum", "n_flagged")]).to_pandas()
    for c in ("n_docs", "sum_max_bigram", "n_flagged"):
        out[c] = out[c].astype(np.int64)
    return out[["source", "n_docs", "sum_max_bigram", "n_flagged"]]


def docs_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Stratified fixed-k sample: 20 docs per source domain, smallest-k
    Knuth-hash within each stratum via the map-side-pruned grouped top-k
    (at most k rows per group per block leave the scan). Oracle:
    row_number() OVER (PARTITION BY source ORDER BY the same hash) <= k."""
    from ..stages.sampling import stratified_sample_k

    ds = read_parquet(_t(sf_dir, "documents"),
                      columns=["doc_id", "source", "n_chars"])
    return stratified_sample_k(ds, k=20)


def embeddings_quantize_int8(sf_dir: str) -> pd.DataFrame:
    """Int8 embedding quantization with exact integer witnesses: per
    label, sums of codes / |codes| / scales / reconstruction-error
    numerators — all-integer arithmetic on a floor(x*1024) grid with
    non-negative divisions, so the SQL oracle (UNNEST + window max)
    reproduces every code bit-for-bit. Shuffle-free map-side partials."""
    from ..stages.quantize import quantization_stats

    ds = read_parquet(_t(sf_dir, "embeddings"),
                      columns=["label", "embedding"])
    return quantization_stats(ds)


def embeddings_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Supervised class prototypes (the labeled sibling of k-means): per
    label, count + snapped mean embedding under the bit-exact determinism
    contract; shuffle bytes ~ labels × blocks (map-side integer partial
    sums). Witnesses: first and last centroid components ×8 (exact ints)."""
    from ..stages.clustering import label_centroids

    ds = read_parquet(_t(sf_dir, "embeddings"),
                      columns=["label", "embedding"])
    labels, counts, cent = label_centroids(ds)
    return pd.DataFrame({
        "label": np.asarray(labels, dtype=np.int64),
        "n": counts,
        "c0_x8": (cent[:, 0] * 8).astype(np.int64),
        "c63_x8": (cent[:, -1] * 8).astype(np.int64),
    })
