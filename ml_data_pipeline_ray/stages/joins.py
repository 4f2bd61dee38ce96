"""Join operators, Ray-Data-first.

The reference implements no joins (SURVEY.md §2.5); these are the engine's
join surface, designed around shuffle cost:

- :func:`broadcast_join` / :func:`broadcast_semi_join` — the small side
  reaches every task through ``map_batches(fn_kwargs=...)``, which Ray
  Data puts in the object store once per execution; the probe side
  streams. Use whenever one side fits in memory (dimension tables, key
  sets) — no shuffle at all.
- :func:`hash_join` — both sides large: one :func:`~.exchange.hash_exchange`
  on the join key co-locates both sides' rows of every key, then Arrow's
  hash join runs inside each shard. Skewed keys go through
  :func:`salted_hash_join`. This is the portable partitioned hash join.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .exchange import hash_exchange
from .transforms import align_to_schema


def _pa_schema(ds: rd.Dataset) -> pa.Schema:
    """Dataset schema as a pyarrow Schema (pandas-block datasets report a
    PandasBlockSchema with numpy dtypes — convert)."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, t in zip(sch.names, sch.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(name, t))
        else:
            dt = np.dtype(t)
            fields.append(pa.field(
                name, pa.string() if dt == object else pa.from_numpy_dtype(dt)))
    return pa.schema(fields)


_ARROW_JOIN_TYPE = {"inner": "inner", "left": "left outer",
                    "outer": "full outer"}


def _broadcast_join(batch: pa.Table, small: pa.Table, on: list[str],
                    how: str) -> pa.Table:
    """One zero-copy Arrow hash join of a probe batch against the broadcast
    side."""
    # Arrow's join requires exactly matching key types; snap the small side
    # onto the probe batch's key types
    for k in on:
        bt = batch.schema.field(k).type
        if small.schema.field(k).type != bt:
            small = small.set_column(
                small.column_names.index(k), k, small[k].cast(bt))
    # rename colliding non-key columns with the same "_r" suffix hash_join
    # uses, so both auto_join arms produce one schema (Table.join has no
    # suffix support and would raise on select)
    small = small.rename_columns(
        [c + "_r" if c in batch.column_names and c not in on else c
         for c in small.column_names])
    out_cols = batch.column_names + [c for c in small.column_names
                                     if c not in batch.column_names]
    joined = batch.join(small, keys=on, join_type=_ARROW_JOIN_TYPE[how])
    return joined.select([c for c in out_cols if c in joined.column_names])


def broadcast_join(ds: rd.Dataset, small: pd.DataFrame | pa.Table,
                   on: list[str], how: Literal["inner", "left"] = "inner"
                   ) -> rd.Dataset:
    """Join a streaming Dataset against a small in-memory table, handed to
    every task through ``fn_kwargs`` (Ray Data stores it once per
    execution). No shuffle; the probe side stays zero-copy Arrow end to
    end."""
    if isinstance(small, pd.DataFrame):
        small = pa.Table.from_pandas(small, preserve_index=False)
    return ds.map_batches(_broadcast_join, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"small": small.combine_chunks(),
                                     "on": on, "how": how})


def _semi_filter(batch, keys, on: list[str], anti: bool):
    """Single-column keys filter with a zero-copy Arrow ``is_in`` kernel;
    composite keys fall back to a pandas MultiIndex membership test."""
    if isinstance(batch, pa.Table):
        col = batch[on[0]]
        vs = keys if keys.type == col.type else keys.cast(col.type)
        mask = pc.fill_null(pc.is_in(col, value_set=vs), False)
        return batch.filter(pc.invert(mask) if anti else mask)
    mask = pd.MultiIndex.from_frame(batch[on]).isin(keys)
    return batch[~mask] if anti else batch[mask]


def broadcast_semi_join(ds: rd.Dataset, keys, on: list[str],
                        anti: bool = False) -> rd.Dataset:
    """Semi (or anti) join: keep rows whose key is (not) in the broadcast key
    set. ``keys`` is a set / Index / array for single-column keys, or a
    MultiIndex-able frame for composite keys. A null key matches no row, so
    an anti join keeps the rows whose key is null."""
    if isinstance(keys, pd.DataFrame):
        keys = pd.MultiIndex.from_frame(keys[on]) if len(on) > 1 else set(keys[on[0]])
    if len(on) == 1:
        keys = pa.array(sorted(k for k in keys if k is not None))
    fmt = "pyarrow" if len(on) == 1 else "pandas"
    return ds.map_batches(_semi_filter, batch_format=fmt,
                          zero_copy_batch=(fmt == "pyarrow"),
                          fn_kwargs={"keys": keys, "on": on, "anti": anti})


def auto_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
              how: Literal["inner", "left"] = "inner",
              broadcast_limit_rows: int = 1_000_000,
              broadcast_limit_bytes: int = 256 << 20,
              **hash_join_kwargs) -> rd.Dataset:
    """Cost-based join (the auto-broadcast-threshold pattern): attempt to
    materialize the right side under HARD row/byte caps — if it fits,
    broadcast it (no shuffle at all); the moment either cap trips, stop and
    fall back to the bucketed shuffle join. The caps bound driver and
    object-store memory by construction, so this can never degenerate into
    an unbounded driver materialization; an oversized right side costs one
    partial extra scan (Datasets re-execute lazily)."""
    batches, rows, nbytes = [], 0, 0
    over = False
    for b in right.iter_batches(batch_size=65536, batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        batches.append(t)
        rows += t.num_rows
        nbytes += t.nbytes
        if rows > broadcast_limit_rows or nbytes > broadcast_limit_bytes:
            over = True
            break
    if over:
        return hash_join(left, right, on, how=how, **hash_join_kwargs)
    if not batches:
        small = _pa_schema(right).empty_table()
    else:
        small = pa.concat_tables(batches, promote_options="permissive")
    return broadcast_join(left, small, on=on, how=how)


def _with_side(batch: pa.Table, side: int) -> pa.Table:
    """``batch`` plus an int8 ``_side`` column (0 = left, 1 = right)."""
    return batch.append_column(
        "_side", pa.array(np.full(batch.num_rows, side, dtype=np.int8)))


def _asof_reduce(sides: list[rd.Dataset], lcols: list[str], rcols: list[str],
                 by: str, on: str, direction: str,
                 out_schema: pa.Schema) -> rd.Dataset:
    """Shared as-of reduce: ONE hash exchange on ``by`` co-locates every
    key's rows, then a vectorized ``pd.merge_asof`` per shard (sorted by
    ``on``, keyed by ``by``)."""

    def join_shard(g: pd.DataFrame) -> pa.Table:
        lg = g[g["_side"] == 0][lcols].sort_values(on, kind="mergesort")
        rg = g[g["_side"] == 1][[by, on] + rcols].sort_values(
            on, kind="mergesort")
        if len(lg) == 0 or len(rg) == 0:
            out = lg.assign(**{c: pd.Series([None] * len(lg), dtype=object)
                               for c in rcols})
        else:
            out = pd.merge_asof(lg, rg, on=on, by=by, direction=direction)
        return pa.Table.from_pandas(out[out_schema.names], schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    return hash_exchange(sides, [by], join_shard, batch_format="pandas")


def asof_join_sliced(ds: rd.Dataset, by: str, on: str,
                     left_mask, right_mask,
                     left_cols: list[str], right_cols: list[str],
                     direction: Literal["backward", "forward"] = "backward",
                     suffix: str = "_r") -> rd.Dataset:
    """As-of join (the brief's canonical custom operator — absent from both
    the reference and Ray Data): for each left row, the single right row
    with the same ``by`` key and the nearest ``on`` value at-or-before
    (``backward``) / at-or-after (``forward``) the left's. Left rows without
    a match keep nulls (left-outer semantics).

    Both sides are row-slices of ONE dataset (e.g. purchases vs clicks of
    the same events table): a single scan tags the two sides with
    vectorized boolean masks (two scans of one source would execute its
    read lineage twice — Ray Data does not dedupe common subplans), ONE
    :func:`~.exchange.hash_exchange` on ``by`` co-locates every key's rows
    (many keys per shard), and the in-shard match is a single vectorized
    ``pd.merge_asof(..., by=by)`` over the sorted shard.

    ``left_mask`` / ``right_mask``: callables ``pa.Table ->`` boolean array
    (e.g. ``lambda b: pc.equal(b["event_type"], "purchase")``). Mask-only
    columns may be absent from ``left_cols`` / ``right_cols``."""
    schema = _pa_schema(ds)
    lschema = pa.schema([schema.field(c) for c in left_cols])
    rschema = pa.schema([schema.field(c) for c in right_cols])
    rrename = {c: (c + suffix if c in left_cols and c not in (by, on) else c)
               for c in right_cols}
    rcols = [rrename[c] for c in right_cols if c not in (by, on)]

    fields = {f.name: f for f in lschema}
    for f in rschema:
        name = rrename[f.name]
        if name not in fields:
            fields[name] = pa.field(name, f.type)
    unified = pa.schema(list(fields.values()))

    def tag_both(batch: pa.Table) -> pa.Table:
        parts = []
        for side, mask, cols in ((0, left_mask(batch), left_cols),
                                 (1, right_mask(batch), right_cols)):
            part = batch.filter(mask).select(cols)
            if side == 1:
                part = part.rename_columns([rrename[c] for c in cols])
            parts.append(_with_side(align_to_schema(part, unified), side))
        return pa.concat_tables(parts)

    both = ds.map_batches(tag_both, batch_format="pyarrow",
                          zero_copy_batch=True)
    out_schema = pa.schema(
        [lschema.field(c) for c in left_cols]
        + [pa.field(rrename[f.name], f.type) for f in rschema
           if rrename[f.name] in rcols])
    return _asof_reduce([both], left_cols, rcols, by, on, direction,
                        out_schema)


def range_join_count_sliced(ds: rd.Dataset, by: str, on: str,
                            left_mask, right_mask, left_cols: list[str],
                            lo_offset, hi_offset,
                            count_col: str = "n_in_range") -> rd.Dataset:
    """Range (interval) join aggregate: for each left row, the COUNT of
    right rows with the same ``by`` key and ``on`` in the half-open window
    ``(left.on + lo_offset, left.on + hi_offset]``. Counting (not pair
    emission) keeps the output linear in the left side — a pair-emitting
    range join can explode quadratically.

    Both sides are row-slices of ONE dataset, tagged in a single scan by
    vectorized masks (see :func:`asof_join_sliced`); then ONE
    :func:`~.exchange.hash_exchange` on ``by`` (many keys per shard), and
    per key inside the shard two vectorized ``searchsorted`` scans over
    that key's sorted right-side times."""
    schema = _pa_schema(ds)
    lschema = pa.schema([schema.field(c) for c in left_cols])
    lcols = list(left_cols)

    def tag_both(batch: pa.Table) -> pa.Table:
        parts = []
        for side, mask, keep in ((0, left_mask(batch), lcols),
                                 (1, right_mask(batch), [by, on])):
            part = batch.filter(mask).select(keep)
            target = pa.schema([lschema.field(c) if c in lschema.names
                                else part.schema.field(c) for c in lcols])
            parts.append(_with_side(align_to_schema(part, target), side))
        return pa.concat_tables(parts)

    both = ds.map_batches(tag_both, batch_format="pyarrow",
                          zero_copy_batch=True)
    return _range_reduce([both], lcols, by, on, lo_offset, hi_offset,
                         count_col, lschema)


def _range_reduce(sides: list[rd.Dataset], lcols: list[str], by: str, on: str,
                  lo_offset, hi_offset, count_col: str,
                  lschema: pa.Schema) -> rd.Dataset:
    """Shared range-count reduce: ONE hash exchange on ``by``, then per key
    inside the shard two vectorized ``searchsorted`` scans over that key's
    sorted right-side times."""
    # Exact output schema (left columns + int64 count): the tagged union pads
    # right-side rows with nulls, which makes pandas promote left int columns
    # to float64 for the whole group — cast back when emitting so the output
    # dtypes match the left input exactly.
    out_schema = pa.schema([lschema.field(c) for c in lcols]
                           + [pa.field(count_col, pa.int64())])

    def count_shard(g: pd.DataFrame) -> pa.Table:
        lg = g[g["_side"] == 0][lcols]
        rg = g[g["_side"] == 1]
        counts = np.zeros(len(lg), dtype=np.int64)
        if len(lg) and len(rg):
            # per-key slices: sort the right side by (by, on) once, then for
            # each key in the left, two searchsorted scans within its slice
            rg = rg.sort_values([by, on], kind="mergesort")
            rkeys = rg[by].to_numpy()
            rts = rg[on].to_numpy()
            lkeys = lg[by].to_numpy()
            lts = lg[on].to_numpy()
            order = np.argsort(lkeys, kind="mergesort")
            uk, kstart = np.unique(lkeys[order], return_index=True)
            kend = np.concatenate((kstart[1:], [len(lkeys)]))
            r_lo = np.searchsorted(rkeys, uk, side="left")
            r_hi = np.searchsorted(rkeys, uk, side="right")
            for ki in range(uk.size):
                li = order[kstart[ki]:kend[ki]]
                seg = rts[r_lo[ki]:r_hi[ki]]
                lo = np.searchsorted(seg, lts[li] + lo_offset, side="right")
                hi = np.searchsorted(seg, lts[li] + hi_offset, side="right")
                counts[li] = hi - lo
        out = lg.copy()
        out[count_col] = counts
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    return hash_exchange(sides, [by], count_shard, batch_format="pandas")


def hash_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
              how: Literal["inner", "left", "outer"] = "inner",
              num_buckets: int | None = None,
              suffixes: tuple[str, str] = ("", "_r")) -> rd.Dataset:
    """Partitioned (bucketed) hash join of two large Datasets.

    Both sides are aligned to a padded common schema, go through ONE
    :func:`~.exchange.hash_exchange` on ``on`` and are joined with Arrow's
    hash-join kernel inside each bucket (zero pandas round-trips).
    Partitioning assumption: all rows of a join key land in one bucket
    (guaranteed by the hash); skew in a single key cannot be split — use
    :func:`salted_hash_join`.

    ``how="outer"`` (FULL OUTER) is only available on this bucketed path:
    a bucket holds ALL rows of its keys from BOTH sides, so per-bucket full
    outer is globally correct — a broadcast join cannot express it (the
    small side's unmatched rows span every probe batch).

    ``num_buckets`` defaults to the exchange's bytes-aware
    :func:`~.exchange.shard_count` of both inputs' measured bytes; pass it
    to keep one count across calls (an iterative loop)."""
    lschema = _pa_schema(left)
    rschema = _pa_schema(right)
    shared = [c for c in rschema.names if c in lschema.names and c not in on]
    rrename = {c: c + suffixes[1] for c in shared}

    # unified schema: left fields, then renamed right-only fields; join keys
    # promoted permissively so int32/int64 key pairs still match
    fields = {f.name: f for f in lschema}
    for f in rschema:
        name = rrename.get(f.name, f.name)
        if name in on and name in fields:
            fields[name] = pa.unify_schemas(
                [pa.schema([fields[name]]), pa.schema([pa.field(name, f.type)])],
                promote_options="permissive").field(0)
        elif name not in fields:
            fields[name] = pa.field(name, f.type)
    unified = pa.schema(list(fields.values()))

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if side == 1 and rrename:
                batch = batch.rename_columns(
                    [rrename.get(c, c) for c in batch.column_names])
            # align BEFORE the exchange hashes, so both sides hash
            # identical key dtypes
            return _with_side(align_to_schema(batch, unified), side)
        return fn

    sides = [left.map_batches(tag(0), batch_format="pyarrow",
                              zero_copy_batch=True),
             right.map_batches(tag(1), batch_format="pyarrow",
                               zero_copy_batch=True)]

    lout = list(lschema.names)
    rout = [rrename.get(c, c) for c in rschema.names if c not in on]

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g.column("_side")
        lg = g.filter(pc.equal(side, 0)).select(lout)
        rg = g.filter(pc.equal(side, 1)).select(on + rout)
        joined = lg.join(rg, keys=on, join_type=_ARROW_JOIN_TYPE[how])
        out = lout + rout
        return joined.select([c for c in out if c in joined.column_names])

    return hash_exchange(sides, on, join_bucket, batch_format="pyarrow",
                         shards=num_buckets)


def salted_hash_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
                     salts: int = 8) -> rd.Dataset:
    """Skew-safe inner hash join: a single hot key's rows land in ONE
    bucket of the plain ``hash_join`` (a hash cannot split equal keys), so
    one task gets the whole hot key at 100 TB. Salting splits it: every
    LEFT row gets an arbitrary salt in ``[0, salts)`` (per-batch
    round-robin — any assignment is correct, each left row joins
    independently) and the RIGHT side is replicated once per salt value, so
    the bucket key becomes ``(key..., salt)`` and a hot key fans out over
    ``salts`` tasks. Cost: the right side ships ``salts`` times — use for
    fact × dimension shapes with known key skew; equality semantics are
    unchanged (verified against the unsalted join in tests)."""

    def tag_left(batch: pa.Table) -> pa.Table:
        s = (np.arange(batch.num_rows, dtype=np.int64) % salts)
        return batch.append_column("_salt", pa.array(s))

    def replicate_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), salts))
        out = batch.take(idx)
        s = np.tile(np.arange(salts, dtype=np.int64), n)
        return out.append_column("_salt", pa.array(s))

    lt = left.map_batches(tag_left, batch_format="pyarrow",
                          zero_copy_batch=True)
    rt = right.map_batches(replicate_right, batch_format="pyarrow",
                           zero_copy_batch=True)
    joined = hash_join(lt, rt, on=[*on, "_salt"])

    def drop_salt(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_salt"])

    return joined.map_batches(drop_salt, batch_format="pyarrow",
                              zero_copy_batch=True)
