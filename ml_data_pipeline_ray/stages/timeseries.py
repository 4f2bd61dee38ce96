"""Time-series operators: frequency parsing and gap fill (SURVEY.md S9
parity — the reference's timeseries source is a stub but its options
surface defines the semantics: frequency strings like "5min"
(``ml-data/ml-data-readers/src/timeseries.rs:46-122``) and fill methods
Forward/Backward/Linear/Zero/Nan (``:172-184``)).

Ray-native shape: every per-key gap fill runs over the series that the
library's one hash exchange co-locates; each shard fills all its on-grid
series in one vectorized pass, and off-grid or ``linear`` series through the
per-key pandas kernel :func:`fill_gaps`. The partitioning assumption is one
key's series fits one shard (standard for per-entity series)."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .exchange import hash_exchange

_FREQ_RE = re.compile(r"^\s*(\d+)?\s*(ns|us|ms|s|sec|min|h|hr|d|day|w)\s*$", re.I)

_UNIT_NS = {
    "ns": 1, "us": 1_000, "ms": 1_000_000,
    "s": 1_000_000_000, "sec": 1_000_000_000,
    "min": 60 * 1_000_000_000, "h": 3_600 * 1_000_000_000,
    "hr": 3_600 * 1_000_000_000, "d": 86_400 * 1_000_000_000,
    "day": 86_400 * 1_000_000_000, "w": 7 * 86_400 * 1_000_000_000,
}

FILL_METHODS = ("forward", "backward", "linear", "zero", "nan")


def parse_frequency(freq: str) -> int:
    """'5min' / '1 h' / 's' → nanoseconds (reference ``timeseries.rs:46-122``)."""
    m = _FREQ_RE.match(freq)
    if not m:
        raise ValueError(f"unparseable frequency {freq!r}")
    count = int(m.group(1) or 1)
    return count * _UNIT_NS[m.group(2).lower()]


def fill_gaps(df: pd.DataFrame, ts_col: str, value_cols: list[str],
              freq: str, method: str = "forward") -> pd.DataFrame:
    """Regularize one series onto the freq grid and fill missing values.

    Methods mirror the reference's enum: forward/backward/linear/zero/nan."""
    if method not in FILL_METHODS:
        raise ValueError(f"unknown fill method {method!r}")
    freq_ns = parse_frequency(freq)
    df = df.sort_values(ts_col)
    idx = pd.DatetimeIndex(df[ts_col])
    full = pd.date_range(idx.min(), idx.max(), freq=pd.Timedelta(freq_ns, "ns"))
    out = df.set_index(ts_col).reindex(full)
    cols = out[value_cols]
    if method == "forward":
        cols = cols.ffill()
    elif method == "backward":
        cols = cols.bfill()
    elif method == "linear":
        cols = cols.interpolate(method="linear")
    elif method == "zero":
        cols = cols.fillna(0.0)
    out[value_cols] = cols
    out.index.name = ts_col
    return out.reset_index()


def regularize_per_key(ds: rd.Dataset, key: str, ts_col: str,
                       value_cols: list[str], freq: str,
                       method: str = "forward", pre=None,
                       combine: str | None = None,
                       post_combine=None) -> rd.Dataset:
    """Distributed per-key gap fill: one :func:`~.exchange.hash_exchange`
    on ``key`` (shard count from the shared bytes-aware rule), then every
    series of a shard fills in one call of :func:`_fill_many` — one numpy
    pass for on-grid inputs (timestamps already multiples of ``freq`` from
    each key's start, e.g. the output of an hourly bucketing aggregate)
    with a non-linear method, the per-key pandas kernel otherwise.

    ``pre`` (optional, Arrow table -> Arrow table) runs in the map that
    feeds the exchange, so a caller's per-batch pre-transform (e.g.
    deriving the bucket timestamp) doesn't cost its own map stage before
    the fill shuffle.

    ``combine="sum"`` handles inputs with MULTIPLE rows per (key, ts) — the
    usual "bucket raw events to the grid, then fill" pipeline — WITHOUT a
    separate distributed aggregate: the map partially sums duplicates
    per batch (map-side combine, so only pre-shrunk rows enter the ONE fill
    shuffle) and each shard finishes the sum before filling. ``post_combine``
    (pandas df -> df) runs per shard after the final combine and before the
    fill — the hook for decimal stabilization of completed sums."""
    if method not in FILL_METHODS:
        raise ValueError(f"unknown fill method {method!r}")
    if combine not in (None, "sum"):
        raise ValueError(f"unsupported combine {combine!r}")
    freq_ns = parse_frequency(freq)
    cols = [key, ts_col] + value_cols

    def prepare(batch: pa.Table) -> pa.Table:
        if pre is not None:
            batch = pre(batch)
        batch = batch.select(cols)
        if combine == "sum":
            # map-side partial combine: duplicates of (key, ts) within the
            # batch collapse before the shuffle; rebuild by NAME (pyarrow's
            # output column order — keys first vs aggregates first — varied
            # across versions, so a positional rename is unsafe)
            agg = batch.group_by([key, ts_col]).aggregate(
                [(c, "sum") for c in value_cols])
            batch = pa.table(
                {key: agg.column(key), ts_col: agg.column(ts_col),
                 **{c: agg.column(f"{c}_sum") for c in value_cols}})
        return batch

    def fill_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if combine == "sum":
            g = g.groupby([key, ts_col], as_index=False, sort=False)[
                value_cols].sum()
        if post_combine is not None:
            g = post_combine(g)
        return _fill_many(g, key, ts_col, value_cols, freq_ns, method)

    return hash_exchange(
        [ds.map_batches(prepare, batch_format="pyarrow", zero_copy_batch=True)],
        [key], fill_bucket, batch_format="pandas")


def _fill_many(g: pd.DataFrame, key: str, ts_col: str,
               value_cols: list[str], freq_ns: int,
               method: str) -> pd.DataFrame:
    """Vectorized multi-series gap fill: every key's series in ``g`` at once
    (sort + segment arithmetic + one scatter + one accumulate; zero per-row
    or per-key Python). Requires on-grid timestamps and a non-linear
    method; falls back to the per-key pandas kernel otherwise."""
    g = g.sort_values([key, ts_col], kind="mergesort")
    t = g[ts_col].to_numpy(dtype="datetime64[ns]").astype(np.int64)
    k = g[key].to_numpy()
    n = len(g)
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = k[1:] != k[:-1]
    seg_id = np.cumsum(new) - 1
    tmin = t[new]                                   # first (= min) per segment
    last = np.roll(new, -1)
    tmax = t[last]
    if method == "linear" or ((t - tmin[seg_id]) % freq_ns != 0).any():
        parts = []
        for _, sub in g.groupby(key, sort=False):
            f = fill_gaps(sub, ts_col, value_cols,
                          f"{freq_ns}ns", method)
            f[key] = sub[key].iloc[0]
            parts.append(f[[key, ts_col] + value_cols])
        return pd.concat(parts, ignore_index=True)

    counts = (tmax - tmin) // freq_ns + 1
    total = int(counts.sum())
    offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(offs, counts)
    grid_t = np.repeat(tmin, counts) + local * freq_ns
    grid_k = np.repeat(k[new], counts)
    pos = offs[seg_id] + (t - tmin[seg_id]) // freq_ns

    out = {key: grid_k,
           ts_col: grid_t.astype("datetime64[ns]")}
    valid = np.zeros(total, dtype=bool)
    valid[pos] = True
    for c in value_cols:
        val = np.full(total, np.nan)
        val[pos] = g[c].to_numpy(dtype=np.float64)
        if method == "forward":
            # each segment's first grid cell is real data by construction,
            # so a single global cummax of last-valid-index never leaks
            # across segment boundaries
            idx = np.where(valid, np.arange(total), -1)
            np.maximum.accumulate(idx, out=idx)
            val = val[idx]
        elif method == "backward":
            idx = np.where(valid, np.arange(total), total)
            idx = np.minimum.accumulate(idx[::-1])[::-1]
            val = val[idx]
        elif method == "zero":
            val = np.nan_to_num(val, nan=0.0)
        out[c] = val
    df = pd.DataFrame(out)
    df[ts_col] = df[ts_col].astype(g[ts_col].dtype)
    return df
