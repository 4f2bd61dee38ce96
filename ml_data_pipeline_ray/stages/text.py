"""Text-analysis stages: token counting, quality metrics, language ID,
document fingerprinting. All vectorized (pyarrow.compute / numpy); designed
for ``map_batches(..., batch_format="pyarrow")`` over a string column.

Reference parity: the reference only *declares* a text-transform family
(unicode-segmentation/stemming feature flags, ``ml-data/ml-data-transforms/
Cargo.toml:12-17`` — SURVEY.md T11); these stages provide the operational
equivalents a large-scale training-data pipeline needs.

Every metric that feeds a DuckDB oracle uses RE2-compatible regexes so the
Arrow kernel (`pc.count_substring_regex`) and DuckDB (`regexp_extract_all`)
agree exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import collect_arrow

TOKEN_RE = r"[A-Za-z0-9]+"
DIGIT_RE = r"[0-9]"
#: GPT-2-style BPE pre-tokenizer, RE2-safe (no lookahead — the original's
#: ``\s+(?!\S)`` branch is dropped, so runs of whitespace count as one
#: token instead of splitting before the next word; ASCII classes stand in
#: for \p{L}/\p{N}). Arrow's count_substring_regex and DuckDB's
#: regexp_extract_all are both RE2 leftmost-first, so counts are exact
#: across engines (asserted incl. non-ASCII in tests).
BPE_TOKEN_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
WS_TOKEN_RE = r"[^\s]+"
STOPWORDS_EN = ["the", "and", "of", "to", "in", "is", "a"]
#: per-language stopword profiles for the n-gram/stopword language heuristic
LANG_PROFILES: dict[str, list[str]] = {
    "en": ["the", "and", "of", "to", "in", "is"],
    "es": ["el", "la", "de", "que", "los", "en"],
    "de": ["der", "die", "und", "das", "ist", "nicht"],
    "fr": ["le", "les", "des", "est", "une", "dans"],
}
CJK_RE = r"[一-鿿]"
#: deterministic tie-break order for language prediction (first max wins)
LANG_ORDER = ["en", "es", "de", "fr", "zh"]


def stopword_regex(words: list[str]) -> str:
    return r"\b(" + "|".join(words) + r")\b"


def scrub_pattern(batch: pa.Table, pattern: str, replacement: str = "[X]",
                  text_col: str = "text") -> pa.Table:
    """Pattern redaction (the PII-scrub operator of a training-data pipeline,
    e.g. emails/phones/IDs; any RE2 pattern): replaces every match of
    ``pattern`` with ``replacement`` and appends ``n_redacted`` (match count
    per row). Pure ``pyarrow.compute`` RE2 kernels — embarrassingly parallel,
    no shuffle, no per-row Python; DuckDB's regexp functions are RE2 too, so
    the oracle comparison is exact."""
    text = batch.column(text_col)
    scrubbed = pc.replace_substring_regex(text, pattern=pattern,
                                          replacement=replacement)
    n = pc.count_substring_regex(text, pattern=pattern).cast(pa.int64())
    batch = batch.set_column(batch.column_names.index(text_col),
                             text_col, scrubbed)
    return batch.append_column("n_redacted", n)


def add_token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_tokens`` (count of ``[A-Za-z0-9]+`` runs) and ``n_chars_text``
    (UTF-8 character length)."""
    text = batch.column(text_col)
    n_tokens = pc.count_substring_regex(text, TOKEN_RE).cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    batch = batch.append_column("n_tokens", n_tokens)
    batch = batch.append_column("n_chars_text", n_chars)
    return batch


def add_bpe_token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_bpe_tokens`` (GPT-2-style pre-tokenizer match count — the
    cheap LLM-token-budget estimate that needs no vocabulary) and
    ``n_ws_tokens`` (whitespace-separated word count)."""
    text = batch.column(text_col)
    batch = batch.append_column(
        "n_bpe_tokens",
        pc.count_substring_regex(text, BPE_TOKEN_RE).cast(pa.int64()))
    return batch.append_column(
        "n_ws_tokens",
        pc.count_substring_regex(text, WS_TOKEN_RE).cast(pa.int64()))


def add_quality_metrics(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append quality-scoring columns: token/char counts, stopword count and
    ratio, digit ratio, mean token length — the length/punct/stopword family
    of heuristics used for corpus filtering."""
    text = batch.column(text_col)
    n_tokens = pc.count_substring_regex(text, TOKEN_RE).cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_stop = pc.count_substring_regex(
        text, stopword_regex(STOPWORDS_EN)).cast(pa.int64())
    n_digit = pc.count_substring_regex(text, DIGIT_RE).cast(pa.int64())
    denom = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
    cden = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    stop_ratio = pc.round(pc.divide(n_stop.cast(pa.float64()),
                                    denom.cast(pa.float64())), ndigits=6)
    digit_ratio = pc.round(pc.divide(n_digit.cast(pa.float64()),
                                     cden.cast(pa.float64())), ndigits=6)
    for name, col in [("n_tokens", n_tokens), ("n_chars_text", n_chars),
                      ("n_stopwords", n_stop), ("stop_ratio", stop_ratio),
                      ("digit_ratio", digit_ratio)]:
        batch = batch.append_column(name, col)
    return batch


def add_lang_pred(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``lang_pred``: stopword-profile language heuristic.

    Deterministic rule (mirrored in the DuckDB oracle SQL): count profile
    hits per language (CJK codepoints for zh); predict the first language in
    :data:`LANG_ORDER` whose count equals the max; ``und`` if all zero.
    """
    text = batch.column(text_col)
    counts = {}
    for lang, words in LANG_PROFILES.items():
        counts[lang] = pc.count_substring_regex(
            text, stopword_regex(words)).cast(pa.int64())
    counts["zh"] = pc.count_substring_regex(text, CJK_RE).cast(pa.int64())

    best = counts[LANG_ORDER[0]]
    for lang in LANG_ORDER[1:]:
        best = pc.max_element_wise(best, counts[lang])
    pred = pa.nulls(batch.num_rows, pa.string())
    # build backwards so earlier languages win ties
    pred = pc.if_else(pc.greater(best, 0), pred, pa.scalar("und", pa.string()))
    for lang in reversed(LANG_ORDER):
        hit = pc.and_(pc.equal(counts[lang], best), pc.greater(best, 0))
        pred = pc.if_else(hit, pa.scalar(lang, pa.string()), pred)
    return batch.append_column("lang_pred", pred)


VOCAB_TOKEN_RE = r"[a-z]+"


def token_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch partial token frequency ``(token, n)`` — the map-side
    combine of a distributed vocabulary count. The ``groupby(token)`` that
    follows moves only DISTINCT tokens per batch (bounded by vocabulary,
    not corpus size), which is what makes a 100-TB vocab count feasible:
    shuffle bytes ~ blocks x vocab, not one row per token occurrence.

    Tokenization is ``[a-z]+`` runs of the lower-cased text — the exact
    DuckDB mirror is ``unnest(regexp_extract_all(lower(text), '[a-z]+'))``.
    """
    text = pc.utf8_lower(batch.column(text_col))
    flat = pc.list_flatten(pc.split_pattern_regex(text, "[^a-z]+"))
    flat = flat.filter(pc.not_equal(flat, ""))
    vc = pc.value_counts(flat)
    return pa.table({"token": vc.field("values"),
                     "n": vc.field("counts").cast(pa.int64())})


# ---------------------------------------------------------------------------
# document fingerprinting — rolling polynomial hash (winnowing-style minimum)
# ---------------------------------------------------------------------------

_B = np.uint64(1099511628211)            # FNV-ish odd multiplier (invertible mod 2^64)
_B_INV = np.uint64(pow(int(_B), -1, 1 << 64))
_SEED = np.uint64(0xCBF29CE484222325)


class Fingerprinter:
    """Fingerprint stage: precomputes power tables once (``__init__``, on
    the driver; they ride to every task with the stage), then appends two
    columns per batch:

    - ``fp_content``: polynomial hash of the full UTF-8 byte string (mod 2^64)
    - ``fp_min``: minimum rolling k-gram hash (winnowing-style fingerprint;
      equal for texts sharing their minimal k-gram — a cheap near-dup signal)

    Fully vectorized over the concatenated byte buffer of the whole batch
    (prefix hashes + reduceat); no per-row Python.
    """

    def __init__(self, text_col: str = "text", k: int = 16,
                 max_len: int = 1 << 16):
        self.text_col = text_col
        self.k = k
        with np.errstate(over="ignore"):
            pows = np.empty(max_len, dtype=np.uint64)
            pows[0] = np.uint64(1)
            np.multiply.accumulate(np.full(max_len - 1, _B, dtype=np.uint64),
                                   out=pows[1:])
            inv_pows = np.empty(max_len, dtype=np.uint64)
            inv_pows[0] = np.uint64(1)
            np.multiply.accumulate(np.full(max_len - 1, _B_INV, dtype=np.uint64),
                                   out=inv_pows[1:])
        self.pows, self.inv_pows = pows, inv_pows

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if len(arr) == 0:
            z = pa.array([], pa.uint64())
            return (batch.append_column("fp_content", z)
                         .append_column("fp_min", z))
        arr = pc.fill_null(arr, "")
        # the Arrow string column already IS a contiguous UTF-8 byte buffer +
        # offsets — view it zero-copy instead of round-tripping through
        # Python strings (rows tile [offsets[0], offsets[-1]) contiguously,
        # exactly the packed layout the kernel expects)
        odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        offsets = np.frombuffer(arr.buffers()[1], dtype=odt)[
            arr.offset: arr.offset + len(arr) + 1]
        data_all = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        data = data_all[offsets[0]:offsets[-1]]
        lens = np.diff(offsets).astype(np.int64)
        fp_content, fp_min = self._fingerprint(data, lens)
        batch = batch.append_column("fp_content", pa.array(fp_content, type=pa.uint64()))
        batch = batch.append_column("fp_min", pa.array(fp_min, type=pa.uint64()))
        return batch

    def _fingerprint(self, data: np.ndarray, lens: np.ndarray):
        n_rows = lens.size
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        total = int(lens.sum())
        if total == 0:
            z = np.zeros(n_rows, dtype=np.uint64)
            return z, z
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        with np.errstate(over="ignore"):
            contrib = (data.astype(np.uint64) + _SEED) * self.pows[pos]
            prefix = np.add.accumulate(contrib)                 # wraps mod 2^64
            # full-content hash: prefix at row end minus prefix before row start
            row_end = starts + lens - 1
            p_end = prefix[row_end]
            p_before = np.where(starts > 0, prefix[starts - 1], np.uint64(0))
            fp_content = p_end - p_before

            # rolling k-gram hashes: H(i, i+k) = (P[i+k-1] - P[i-1]) * B^-local_i
            k = self.k
            win_rows = np.maximum(lens - k + 1, 0)
            if win_rows.sum() == 0:
                return fp_content, fp_content  # all rows shorter than k
            w_starts = np.concatenate(([0], np.cumsum(win_rows)[:-1]))
            # global index of each window start byte
            w_pos_local = (np.arange(int(win_rows.sum()), dtype=np.int64)
                           - np.repeat(w_starts, win_rows))
            w_row = np.repeat(np.arange(n_rows), win_rows)
            g = starts[w_row] + w_pos_local
            p_hi = prefix[g + k - 1]
            p_lo = np.where(g > 0, prefix[g - 1], np.uint64(0))
            wh = (p_hi - p_lo) * self.inv_pows[w_pos_local]
            # per-row min over windows; rows with no windows fall back to content hash
            fp_min = fp_content.copy()
            has = win_rows > 0
            mins = np.minimum.reduceat(wh, w_starts[has])
            fp_min[has] = mins
        return fp_content, fp_min


# ---------------------------------------------------------------------------
# TF-IDF — document-frequency broadcast + fused per-batch top-term pick
# ---------------------------------------------------------------------------

def doc_freq_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Map-side combine of the document-frequency count: per batch, one
    ``(word, df)`` row per distinct (doc, word) — bounded by vocabulary ×
    docs-in-batch, so the groupby(word) shuffle that follows moves
    vocab-scale rows, not token occurrences."""
    text = pc.utf8_lower(batch.column(text_col))
    lists = pc.split_pattern_regex(text, "[^a-z]+")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists)
    mask = pc.not_equal(flat, "")
    t = pa.table({"d": parent.filter(mask), "word": flat.filter(mask)})
    distinct = t.group_by(["d", "word"]).aggregate([])
    vc = pc.value_counts(distinct.column("word").combine_chunks())
    # sentinel row: "" is never a token ([a-z]+ runs are non-empty), so it
    # carries the batch's doc count through the same exchange — the total
    # corpus size costs NO extra scan (build_doc_freq pops it back out)
    words = pa.concat_arrays([vc.field("values").cast(pa.string()),
                              pa.array([""], pa.string())])
    dfs = pa.concat_arrays([vc.field("counts").cast(pa.int64()),
                            pa.array([batch.num_rows], pa.int64())])
    return pa.table({"word": words, "df": dfs})


def build_doc_freq(ds, text_col: str = "text"):
    """Distributed document frequency: per-batch distinct partials → ONE
    groupby(word) Sum → the (vocab-sized) df table plus the total doc
    count, which rides the same exchange as the ``""`` sentinel word (no
    separate count scan). Returns ``(df_words, df_counts, n_docs)`` ready
    to broadcast."""
    from .groupagg import grouped_agg

    agg = grouped_agg(
        ds.map_batches(doc_freq_partial, batch_format="pyarrow",
                       zero_copy_batch=True,
                       fn_kwargs={"text_col": text_col}),
        keys=["word"], aggs=[("df", "sum", "df")])
    tbl = collect_arrow(agg)
    if not tbl.num_rows:  # empty corpus: no words, no docs
        return np.zeros(0, object), np.zeros(0, np.int64), 0
    words = tbl.column("word").to_numpy(zero_copy_only=False)
    dfs = tbl.column("df").to_numpy(zero_copy_only=False)
    sent = words == ""
    n_docs = int(dfs[sent].sum())
    return words[~sent], dfs[~sent], n_docs


def _tfidf_top_term(batch: pa.Table, words: pa.Array, dfs: np.ndarray,
                    idf: np.ndarray, text_col: str,
                    id_col: str) -> pa.Table:
    """Per-batch fused tf + tf-idf + per-doc top-term pick against the
    broadcast df table. A document's rows are whole within its batch, so
    the per-doc argmax needs NO shuffle — output is one row per doc."""
    text = pc.utf8_lower(batch.column(text_col))
    lists = pc.split_pattern_regex(text, "[^a-z]+")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists)
    mask = pc.not_equal(flat, "")
    t = pa.table({"d": parent.filter(mask), "word": flat.filter(mask)})
    tf = t.group_by(["d", "word"]).aggregate([("word", "count")])
    drow = tf.column("d").to_numpy(zero_copy_only=False)
    tfv = tf.column("word_count").to_numpy(zero_copy_only=False)
    wix = pc.index_in(tf.column("word"), words) \
        .to_numpy(zero_copy_only=False)
    tfidf = tfv * idf[wix]
    tw = tf.column("word").to_numpy(zero_copy_only=False)
    # per-doc argmax with (tfidf desc, word asc) tie-break: lexsort is
    # stable from the last key, so order by doc, then -tfidf, then word
    order = np.lexsort((tw, -tfidf, drow))
    first = np.flatnonzero(np.diff(drow[order], prepend=np.int64(-1)))
    pick = order[first]
    ids = batch.column(id_col).take(pa.array(drow[pick]))
    return pa.table({
        id_col: ids,
        "top_term": pa.array(tw[pick], pa.string()),
        "tf": pa.array(tfv[pick].astype(np.int64)),
        "df": pa.array(dfs[wix[pick]]),
    })


def tfidf_top_terms(ds, text_col: str = "text", id_col: str = "doc_id"):
    """TF-IDF top term per document, ``(id, top_term, tf, df)``: the df
    table built by :func:`build_doc_freq` reaches every task through
    ``fn_kwargs`` with its idf column, computed once here.

    Determinism: idf = ln(n_docs/df) is computed per distinct df with
    ``math.log`` (glibc libm — the same correctly-rounded path DuckDB's
    ``ln`` uses; numpy's SIMD ``np.log`` can differ by 1 ulp and is
    avoided); ties broken by (tfidf desc, word asc) in both engines."""
    import math

    words, dfs, n = build_doc_freq(ds, text_col=text_col)
    return ds.map_batches(
        _tfidf_top_term, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"words": pa.array(words, pa.string()),
                   "dfs": np.asarray(dfs, dtype=np.int64),
                   "idf": np.array([math.log(n / int(f)) for f in dfs]),
                   "text_col": text_col, "id_col": id_col})


def _bigram_keys(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row word-bigram hash triples: returns ``(h1, h2, packed_key,
    row_of)`` flat arrays over the batch (rows with <2 tokens contribute
    nothing). Tokenization contract = :func:`..dedup.tokenize_offsets`
    (lower + ``[a-z0-9]+`` runs, matching the DuckDB oracles)."""
    from .dedup import tokenize_offsets
    from .exchange import mix64

    th, counts = tokenize_offsets(texts)
    n_big = np.maximum(counts - 1, 0)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    b_starts = np.concatenate(([0], np.cumsum(n_big)[:-1]))
    total = int(n_big.sum())
    if total == 0:
        z = np.zeros(0, np.uint64)
        return z, z, z, np.zeros(0, np.int64)
    local = np.arange(total, dtype=np.int64) - np.repeat(b_starts, n_big)
    row = np.repeat(np.arange(counts.size, dtype=np.int64), n_big)
    g = starts[row] + local
    h1, h2 = th[g], th[g + 1]
    with np.errstate(over="ignore"):
        kp = mix64(h1 * np.uint64(0x100000001B3) + h2)
    return h1, h2, kp, row


def build_bigram_lm(ds, text_col: str = "text"):
    """Distributed add-0.5-smoothed bigram LM over the corpus (the CCNet /
    Gopher "perplexity filter" model): map-side distinct bigram-count
    partials → ONE :func:`grouped_agg` exchange keyed on the packed bigram
    hash → a vocab²-bounded model table on the driver (same broadcast shape
    as :func:`build_doc_freq`; at open-web scale you would prune to top-K
    bigrams before broadcasting — documented, not needed at test SF).

    Returns ``(kp_sorted, lpm_sorted, n_model_rows, unseen_lp_micro)``;
    ``unseen_lp_micro`` is ``None`` for an empty model (no doc has >=2
    tokens), so scoring new text against it fails loudly. ``lpm =
    floor(1e6 · ln((c2+0.5)/(c1+0.5·V)))`` as int64 micro-units —
    integer-exact to sum in any order, and bit-identical to DuckDB's
    ``floor(ln(...) * 1000000)`` because the ratio is the same IEEE double
    and ``math.log`` is the same correctly-rounded libm path as DuckDB's
    ``ln`` (see :func:`tfidf_top_terms`)."""
    import math

    from .groupagg import grouped_agg

    def partial(batch: pa.Table) -> pa.Table:
        h1, h2, kp, _ = _bigram_keys(batch.column(text_col))
        order = np.argsort(kp, kind="stable")
        kps, h1s, h2s = kp[order], h1[order], h2[order]
        first = (np.flatnonzero(np.concatenate(
            ([True], kps[1:] != kps[:-1]))) if kps.size
            else np.zeros(0, np.int64))
        seg = np.append(first, kps.size)
        return pa.table({"kp": pa.array(kps[first]),
                         "h1": pa.array(h1s[first]),
                         "h2": pa.array(h2s[first]),
                         "c": pa.array(np.diff(seg).astype(np.int64))})

    agg = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        keys=["kp"],
        aggs=[("c", "sum", "c"), ("h1", "max", "h1"), ("h2", "max", "h2")])
    tbl = collect_arrow(agg)
    if not tbl.num_rows:  # no doc has >=2 tokens: empty model, like the oracle
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), 0, None
    kp = tbl.column("kp").to_numpy(zero_copy_only=False)
    h1 = tbl.column("h1").to_numpy(zero_copy_only=False)
    h2 = tbl.column("h2").to_numpy(zero_copy_only=False)
    c2 = tbl.column("c").to_numpy(zero_copy_only=False)
    vocab = np.unique(np.concatenate([h1, h2])).size
    # c1 per h1 = sum of its bigram counts (occurrences as first token)
    o = np.argsort(h1, kind="stable")
    h1s, c2s = h1[o], c2[o]
    first = np.flatnonzero(np.concatenate(([True], h1s[1:] != h1s[:-1]))) \
        if h1s.size else np.zeros(0, np.int64)
    c1 = np.empty_like(c2)
    if h1s.size:
        c1_per = np.add.reduceat(c2s, first)
        c1[o] = np.repeat(c1_per, np.diff(np.append(first, h1s.size)))
    # lp per model row: math.log (the correctly-rounded libm path DuckDB's
    # ln uses — np.log is NOT guaranteed bit-identical) evaluated once per
    # DISTINCT (c2, c1) pair, scattered back by np.unique's inverse — the
    # Python loop runs over distinct count pairs (tiny; Zipf), never over
    # model rows
    half_v = 0.5 * vocab
    pairs = np.stack([c2, c1], axis=1)
    uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
    lp_u = np.fromiter(
        (math.floor(math.log((a + 0.5) / (b + half_v)) * 1000000.0)
         for a, b in uniq),
        dtype=np.int64, count=uniq.shape[0])
    lpm = lp_u[inv.reshape(-1)]
    # global unseen-bigram fallback for reuse as a filter on NEW text
    # (c1=0 smoothing floor; the same-corpus oracle queries never hit it)
    unseen = math.floor(math.log(0.5 / (0.5 * max(vocab, 1))) * 1000000.0)
    o = np.argsort(kp, kind="stable")
    return kp[o], lpm[o], kp.size, unseen


def bigram_lm_score(batch: pa.Table, kp: np.ndarray, lpm: np.ndarray,
                    unseen_lpm: int | None, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Per-batch scoring against the bigram LM of :func:`build_bigram_lm`
    (``kp``, ``lpm`` and ``unseen_lpm`` by ``fn_kwargs``): per doc, the
    number of bigram occurrences and the integer-exact sum of their
    ``lp_micro`` scores (``lp_micro_sum / n_bigrams / 1e6`` ≈ avg token
    log-likelihood — the CCNet quality/perplexity signal). Docs with <2
    tokens emit nothing, like the SQL oracle's empty bigram list."""
    _, _, bk, row = _bigram_keys(batch.column(text_col))
    ix = np.minimum(np.searchsorted(kp, bk), max(kp.size - 1, 0))
    if kp.size:
        hit = kp[ix] == bk
        lp = lpm[ix]
    else:
        hit = np.zeros(bk.size, bool)
        lp = np.zeros(bk.size, np.int64)
    if not hit.all():
        # bigram absent from the model — scoring NEW text: use the
        # unseen-bigram smoothing floor, never a neighboring model row's
        # score; fail loudly if the model has none (an empty model)
        if unseen_lpm is None:
            raise ValueError(
                f"{int((~hit).sum())} bigrams absent from the LM and "
                "no 'unseen_lpm' floor in the model")
        lp = np.where(hit, lp, np.int64(unseen_lpm))
    n_rows = batch.num_rows
    n_big = np.bincount(row, minlength=n_rows).astype(np.int64)
    # float64 bincount weights are exact for |int| < 2^53
    s = np.bincount(row, weights=lp.astype(np.float64),
                    minlength=n_rows).astype(np.int64)
    has = n_big > 0
    ids = batch.column(id_col).filter(pa.array(has))
    return pa.table({id_col: ids,
                     "n_bigrams": pa.array(n_big[has]),
                     "lp_micro_sum": pa.array(s[has])})


def repetition_partial(batch: pa.Table, id_col: str = "doc_id",
                       group_col: str = "source",
                       text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality scoring (the duplicate-bigram rule
    used by LLM corpus filters): per document, the total bigram count and
    the most-repeated bigram's count; a doc is FLAGGED when the top bigram
    exceeds 20% of all bigrams (``5*max > total`` — integer
    cross-multiplication, no float thresholds, so an SQL oracle reproduces
    the flag exactly). Emits one per-``group_col`` partial row per batch
    ``(group, n_docs, sum_max_bigram, n_flagged)``; tokens are lower-case
    ``[a-z]+`` runs (the module's oracle-mirrored rule), docs with fewer
    than 2 tokens carry no bigrams and are excluded. Fully vectorized:
    split → flatten → factorize of (doc, bigram) pairs → bincount /
    maximum.at — no per-doc Python."""
    import pandas as pd

    text = pc.utf8_lower(batch.column(text_col))
    lists = pc.split_pattern_regex(text, "[^a-z]+")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists)
    mask = pc.not_equal(flat, "")
    flat, parent = flat.filter(mask), parent.filter(mask)
    w = flat.to_numpy(zero_copy_only=False)
    p = parent.to_numpy(zero_copy_only=False)
    groups = batch.column(group_col).to_numpy(zero_copy_only=False)
    gtype = batch.schema.field(group_col).type
    empty = pa.table({group_col: pa.array([], gtype),
                      "n_docs": pa.array([], pa.int64()),
                      "sum_max_bigram": pa.array([], pa.int64()),
                      "n_flagged": pa.array([], pa.int64())})
    if len(p) < 2:
        return empty
    adj = p[1:] == p[:-1]                    # bigram stays inside its doc
    if not adj.any():
        return empty
    docs = p[:-1][adj]
    bg = np.char.add(np.char.add(w[:-1][adj].astype(str), " "),
                     w[1:][adj].astype(str))
    # exact per-(doc, bigram) counts: factorize the pair key (string-exact,
    # no hash collisions), then bincount
    codes, _ = pd.factorize(
        pd.MultiIndex.from_arrays([docs, bg]), sort=False)
    pair_cnt = np.bincount(codes)
    # map each pair code back to its doc (first occurrence carries it;
    # init above any valid index so minimum.at always lands)
    first_idx = np.full(pair_cnt.size, codes.size, np.int64)
    np.minimum.at(first_idx, codes, np.arange(codes.size))
    pair_doc = docs[first_idx]
    n_docs_total = int(batch.num_rows)
    nb = np.zeros(n_docs_total, np.int64)
    np.add.at(nb, pair_doc, pair_cnt)
    mx = np.zeros(n_docs_total, np.int64)
    np.maximum.at(mx, pair_doc, pair_cnt)
    has = nb > 0
    flagged = (5 * mx > nb) & has
    uniq, first, inv = np.unique(groups[has], return_index=True,
                                 return_inverse=True)
    out_docs = np.bincount(inv).astype(np.int64)
    out_max = np.zeros(uniq.size, np.int64)
    np.add.at(out_max, inv, mx[has])
    out_flag = np.zeros(uniq.size, np.int64)
    np.add.at(out_flag, inv, flagged[has].astype(np.int64))
    # carry the group values via take() from the source column so the
    # input's exact Arrow type (string / large_string / non-string)
    # survives into the downstream grouped_agg exchange
    gvals = batch.column(group_col).take(
        pa.array(np.flatnonzero(has)[first], pa.int64()))
    return pa.table({group_col: gvals,
                     "n_docs": pa.array(out_docs),
                     "sum_max_bigram": pa.array(out_max),
                     "n_flagged": pa.array(out_flag)})
