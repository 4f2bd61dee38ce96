"""Distinct set operations over Datasets: union/intersect/except (U1).

The reference implies multi-file union only (``factory.rs:52-136``); union is
``Dataset.union``. Intersect/except are built the shuffle-minimal way: tag
each row of one scan with its side, ONE grouped exchange over the
distinct-candidate rows (pre-deduped per batch so only unique rows move),
then a vectorized per-group presence test (:func:`select_setop`).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def presence_aggregate_tagged(ds: rd.Dataset, cols: list[str],
                              tag_col: str, a_value, b_value) -> rd.Dataset:
    """Per distinct key of ``cols``: min/max of the side tag (0=a, 1=b),
    where both set-op sides are row subsets of ONE dataset distinguished by
    ``tag_col`` (e.g. users-with-purchases vs users-with-errors over
    ``events``). The input is scanned once and the side derived per row
    instead of issuing two reads with complementary filters (which scan the
    source twice). Rows matching neither value are dropped; rows matching
    ``a_value`` get side 0, ``b_value`` side 1. ONE exchange serves every set
    op (intersect = saw both sides, except = only side a): feed the result to
    :func:`select_setop`."""
    def tag(batch: pa.Table) -> pa.Table:
        col = batch[tag_col]
        is_a = pc.equal(col, a_value)
        is_b = pc.equal(col, b_value)
        batch = batch.append_column(
            "_side", pc.cast(pc.if_else(is_a, 0, 1), pa.int8()))
        batch = batch.filter(pc.or_(is_a, is_b))
        # per-batch pre-dedup: only distinct (key, side) rows enter the shuffle
        return batch.select([*cols, "_side"]).group_by(
            [*cols, "_side"]).aggregate([])

    from .groupagg import grouped_agg

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(tagged, keys=cols, aggs=[("_side", "min", "_mn"),
                                                ("_side", "max", "_mx")])


def select_setop(agg: rd.Dataset, cols: list[str], anti: bool) -> rd.Dataset:
    def pick(batch: pa.Table) -> pa.Table:
        if anti:
            mask = pc.equal(batch["_mx"], 0)               # only side a
        else:
            mask = pc.and_(pc.equal(batch["_mn"], 0),      # both sides
                           pc.equal(batch["_mx"], 1))
        return batch.filter(mask).select(cols)

    return agg.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)

