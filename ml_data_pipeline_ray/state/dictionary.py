"""Dictionary encoding / string interning state (reference ST1/ST2 parity).

The reference grows a mutable value↔index string dictionary across batches
(``ml-data/ml-data-readers/src/string_cache.rs:155-260``; thread-safe variant
``:269-336``) and an interning ``StringCache`` (``:13-82``). Ray-native
equivalents:

- per-batch: Arrow dictionary encoding is free (``pc.dictionary_encode``) and
  Parquet writes dictionary pages natively — the common case needs NO state.
- global: :func:`build_global_dictionary` derives one consistent dictionary
  (the sorted distinct values; an id is a position) with a distributed
  ``unique``, and :func:`apply_global_dictionary` applies it per batch,
  the dictionary handed to every task through ``fn_kwargs`` — the scalable
  way to get a global dictionary (two passes, no shared mutable
  state; ``Q:dict_encode_docs``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def build_global_dictionary(ds: rd.Dataset, column: str) -> pa.Array:
    """Global, consistent value dictionary: distributed distinct +
    deterministic (sorted) id assignment. Returns the values ordered by id
    (an id IS its value's position), ready to hand to
    :func:`apply_global_dictionary` through ``map_batches(fn_kwargs=...)``
    — never a shared mutable dictionary."""
    return pa.array(sorted(v for v in ds.unique(column) if v is not None))


def apply_global_dictionary(batch: pa.Table, values: pa.Array,
                            column: str) -> pa.Table:
    """Append ``<column>_id``: one C-speed ``pc.index_in`` hash probe per
    batch against the dictionary's values (no per-row Python dict
    lookups)."""
    col = batch.column(column)
    if values.type != col.type and len(values) > 0:
        values = values.cast(col.type)
    idx = pc.index_in(col, value_set=values).cast(pa.int64())
    return batch.append_column(column + "_id", idx)
