"""Distributed EXACT grouped order statistics (quantiles by discrete rank).

The naive shape — ``groupby(key).map_groups(sort)`` — materializes every
group's full value column in one worker and sorts it; at 100 TB a single
group can be terabytes. This module computes the same exact answer with
nothing larger than a histogram per group ever leaving a task:

1. **Moments pass** (one streaming aggregate): per group ``n`` (non-null
   count), ``vmin``, ``vmax``.
2. **Histogram pass** (one ``map_batches`` + one tiny groupby): per group a
   fixed-width ``B``-bin count histogram over ``[vmin, vmax]``; cumulative
   counts locate, for each requested rank ``k = ceil(q*n)``, the single bin
   containing the k-th smallest value and the exact number of values below
   that bin.
3. **Pick pass** (one filtered ``map_batches``): collect ONLY the values
   inside target bins (expected ``~n/B`` per group per quantile; the
   group-by-group histograms are exact, so this is an exact bound, not a
   probabilistic one) and select the k-th smallest by offset.

Degenerate distributions are safe: a zero-width bin (all values equal, or a
value that repeats for more than a bin's width) yields bin values that are
all identical — the pick is that constant without needing them in memory
(handled by the same code path; the collected set is deduplicated per task
before leaving, so a hot bin ships at most ``distinct-values-in-bin`` per
task, and a constant bin ships ONE value per task).

Cardinality regime: this shape targets FEW-to-MODERATE groups with
arbitrarily HUGE per-group data (the regime where a per-group sort dies) —
the histogram shuffle moves at most ``groups x num_bins`` count rows and
the driver holds one (groups x quantiles) index array. For the opposite
regime (millions of tiny groups), a plain ``groupby(key).map_groups`` sort
is already scale-safe because each group fits a worker; pick by regime.

The reference has no quantile operator (SURVEY §2.6 P5/P6 family is
count/sum/min/max — ``ml-data`` has no aggregate kernels at all); this is
the brief's "novel sketch"-class custom operator, built exact rather than
approximate because the driver gate hashes values.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def _bin_of(v: np.ndarray, vmin: np.ndarray, width: np.ndarray,
            num_bins: int) -> np.ndarray:
    """Histogram bin per value — identical formula in both passes. Robust to
    ±inf values (an infinite group range makes ``width`` inf/NaN: the scaled
    position goes NaN/±inf and is clamped into the end bins, which only
    degrades the pick pass's selectivity for that group — the result stays
    exact because per-bin ordering never relies on the bin WIDTH, only on
    consistent assignment + exact counts)."""
    with np.errstate(invalid="ignore", over="ignore"):
        x = (v - vmin) / width
    x = np.nan_to_num(x, nan=0.0, posinf=float(num_bins - 1), neginf=0.0)
    return np.clip(x, 0, num_bins - 1).astype(np.int64)


def _ranks(n: np.ndarray, qs: list[float]) -> np.ndarray:
    """Discrete rank per (group, quantile): 1-based ``ceil(q*n)`` clamped to
    ``[1, n]`` — "smallest element with cumulative fraction >= q"."""
    n = n.astype(np.int64)
    return np.stack([np.clip(np.ceil(q * n).astype(np.int64), 1, n)
                     for q in qs], axis=1)


def grouped_quantiles(ds: rd.Dataset, key: str, value: str,
                      qs: list[float], num_bins: int = 2048) -> pd.DataFrame:
    """Exact per-``key`` quantiles of ``value`` under the discrete rank rule
    (0-based index ``ceil(q*n)-1``). Returns a DataFrame with one row per
    key and one float64 column per quantile (named ``p50``-style from the
    fraction). See module docstring for the three-pass distributed shape."""
    cols = [key, value]

    def drop_null(b: pa.Table) -> pa.Table:
        return b.select(cols).drop_null()

    # materialize once: three passes follow (moments, histogram, pick) —
    # over a lazy read each pass would re-scan parquet; over materialized
    # blocks they run in-object-store (narrow 2-column rows, Ray spills if
    # huge) and schema() answers from block metadata
    clean = ds.map_batches(drop_null, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    # -- pass 1: per-group moments (streaming aggregate; result is tiny) ----
    from .groupagg import grouped_agg
    mom = grouped_agg(clean, keys=[key],
                      aggs=[(value, "count", "n"),
                            (value, "min", "vmin"),
                            (value, "max", "vmax")]).to_pandas()
    mom = mom.sort_values(key).reset_index(drop=True)
    keys = mom[key].to_numpy()
    n = mom["n"].to_numpy().astype(np.int64)
    vmin = mom["vmin"].to_numpy(dtype=np.float64)
    vmax = mom["vmax"].to_numpy(dtype=np.float64)
    width = np.where(vmax > vmin, (vmax - vmin) / num_bins, 1.0)
    ranks = _ranks(n, qs)                     # (n_groups, n_qs)

    # group index lookup ships as the sorted key ARRAY; per-batch mapping is
    # pc.index_in against it (C-speed hash probe, not a Python dict per row)
    key_arr = pa.array(keys)

    # -- pass 2: per-group fixed-width histograms (map-side partials) -------
    # the per-group state reaches every task through fn_kwargs
    state = {"key_arr": key_arr, "vmin": vmin, "width": width}

    def cells(b: pa.Table, key_arr, vmin, width):
        """(histogram cell = group * num_bins + bin, value) per row."""
        g = pc.index_in(b[key], value_set=key_arr).cast(pa.int64()
                                                        ).to_numpy()
        v = b[value].to_numpy(zero_copy_only=False).astype(np.float64)
        return g * num_bins + _bin_of(v, vmin[g], width[g], num_bins), v

    def bin_counts(b: pa.Table, **state) -> pa.Table:
        flat, _ = cells(b, **state)
        uniq, cnt = np.unique(flat, return_counts=True)
        return pa.table({"_cell": pa.array(uniq),
                         "cnt": pa.array(cnt.astype(np.int64))})

    hist = grouped_agg(
        clean.map_batches(bin_counts, batch_format="pyarrow",
                          zero_copy_batch=True, fn_kwargs=state),
        keys=["_cell"], aggs=[("cnt", "sum", "sum(cnt)")]).to_pandas()
    cell = hist["_cell"].to_numpy().astype(np.int64)
    cnt = hist["sum(cnt)"].to_numpy().astype(np.int64)
    order = np.argsort(cell, kind="mergesort")
    cell, cnt = cell[order], cnt[order]
    gcell = cell // num_bins

    # cumulative counts within each group locate the target bin per rank,
    # plus the exact count strictly below that bin
    n_groups, n_qs = ranks.shape
    target_bin = np.zeros((n_groups, n_qs), dtype=np.int64)
    below = np.zeros((n_groups, n_qs), dtype=np.int64)
    starts = np.searchsorted(gcell, np.arange(n_groups))
    ends = np.searchsorted(gcell, np.arange(n_groups), side="right")
    for gi in range(n_groups):
        seg_bins = cell[starts[gi]:ends[gi]] % num_bins
        seg_cnt = cnt[starts[gi]:ends[gi]]
        cum = np.cumsum(seg_cnt)
        for qi in range(n_qs):
            j = int(np.searchsorted(cum, ranks[gi, qi]))
            target_bin[gi, qi] = seg_bins[j]
            below[gi, qi] = cum[j - 1] if j else 0

    # -- pass 3: collect ONLY the values in target bins, pick by offset -----
    # one (group, bin) may serve several quantiles; ship each value once,
    # with a per-task partial count so duplicates stay cheap
    want = {}
    for gi in range(n_groups):
        for qi in range(n_qs):
            want.setdefault((gi, target_bin[gi, qi]), None)
    want_flat = np.fromiter((g * num_bins + b for (g, b) in want),
                            dtype=np.int64)
    want_flat.sort()

    def bin_values(b: pa.Table, want_flat: np.ndarray, **state) -> pa.Table:
        flat, v = cells(b, **state)
        idx = np.searchsorted(want_flat, flat)
        hit = np.zeros(flat.size, dtype=bool)
        if want_flat.size:
            idx = np.minimum(idx, want_flat.size - 1)
            hit = want_flat[idx] == flat
        if not hit.any():
            return pa.table({"_cell": pa.array([], pa.int64()),
                             "val": pa.array([], pa.float64()),
                             "cnt": pa.array([], pa.int64())})
        # dedupe (cell, value) per task: a constant-valued hot bin ships
        # one row per task, not one per input row
        pairs = np.stack([flat[hit].astype(np.float64), v[hit]], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        return pa.table({
            "_cell": pa.array(uniq[:, 0].astype(np.int64)),
            "val": pa.array(uniq[:, 1]),
            "cnt": pa.array(counts.astype(np.int64)),
        })

    picked = grouped_agg(
        clean.map_batches(bin_values, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={**state, "want_flat": want_flat}),
        keys=["_cell", "val"], aggs=[("cnt", "sum", "sum(cnt)")]).to_pandas()
    pcell = picked["_cell"].to_numpy().astype(np.int64)
    pval = picked["val"].to_numpy(dtype=np.float64)
    pcnt = picked["sum(cnt)"].to_numpy().astype(np.int64)
    order = np.lexsort((pval, pcell))
    pcell, pval, pcnt = pcell[order], pval[order], pcnt[order]

    out = {key: keys}
    for qi, q in enumerate(qs):
        res = np.empty(n_groups, dtype=np.float64)
        for gi in range(n_groups):
            c = gi * num_bins + target_bin[gi, qi]
            lo = np.searchsorted(pcell, c)
            hi = np.searchsorted(pcell, c, side="right")
            need = ranks[gi, qi] - below[gi, qi]   # 1-based within the bin
            cum = np.cumsum(pcnt[lo:hi])
            res[gi] = pval[lo + int(np.searchsorted(cum, need))]
        out[f"p{int(round(q * 100))}"] = res
    return pd.DataFrame(out)


def fixed_width_histogram(ds, value_col: str, group_cols: list[str],
                          width_cents: int = 500,
                          offset_cents: int = 1_000_000):
    """Exact fixed-width value histogram per group (the data-profiling
    sibling of the quantile passes): 2-decimal values become integer
    cents via the module-wide half-away-from-zero contract
    (``sign*floor(|v|*100+0.5)`` == SQL ``round(v*100)``), then
    ``bucket = (cents + offset) // width`` — the offset keeps the
    numerator NON-NEGATIVE so numpy's floor division and SQL's
    truncating ``//`` agree bit-for-bit. One Arrow-native grouped count;
    shuffle bytes ~ groups × occupied buckets. Values with
    ``|cents| >= offset`` fail loudly rather than diverging from the
    oracle."""
    import pyarrow as pa

    from .groupagg import grouped_agg

    def bucketize(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        cents = (np.sign(v) * np.floor(np.abs(v) * 100.0 + 0.5)
                 ).astype(np.int64)
        if cents.size and np.abs(cents).max() >= offset_cents:
            raise ValueError(
                f"fixed_width_histogram: |{value_col}*100| exceeds the "
                f"offset {offset_cents}; raise offset_cents to keep the "
                "bucket numerator non-negative (SQL // truncates while "
                "numpy // floors — they only agree on non-negatives)")
        bucket = (cents + offset_cents) // width_cents
        cols = {c: b.column(c) for c in group_cols}
        cols["bucket"] = pa.array(bucket)
        return pa.table(cols)

    hist = grouped_agg(
        ds.map_batches(bucketize, batch_format="pyarrow",
                       zero_copy_batch=True),
        keys=[*group_cols, "bucket"],
        aggs=[(None, "count_star", "n")])
    return hist
