"""Dictionary encoding / string interning state (reference ST1/ST2 parity).

The reference grows a mutable value↔index string dictionary across batches
(``ml-data/ml-data-readers/src/string_cache.rs:155-260``; thread-safe variant
``:269-336``) and an interning ``StringCache`` (``:13-82``). Ray-native
equivalents:

- per-batch: Arrow dictionary encoding is free (``pc.dictionary_encode``) and
  Parquet writes dictionary pages natively — the common case needs NO state.
- global: :func:`build_global_dictionary` derives one consistent value→id map
  with a distributed ``unique``, and :class:`GlobalDictApplier` applies its
  broadcast per batch — the scalable way to get a global dictionary (two
  passes, no shared mutable state; ``Q:dict_encode_docs``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def build_global_dictionary(ds: rd.Dataset, column: str) -> dict[str, int]:
    """Global, consistent value→id map: distributed distinct + deterministic
    (sorted) id assignment. Broadcast the result with ``ray.put`` and map
    inside ``map_batches`` — never a shared mutable dictionary."""
    values = sorted(v for v in ds.unique(column) if v is not None)
    return {v: i for i, v in enumerate(values)}


class GlobalDictApplier:
    """Apply a broadcast global dictionary to a column. The map is realized
    once, at construction, as an Arrow value array ordered by id, so each
    batch is a single C-speed ``pc.index_in`` hash probe (no per-row Python
    dict lookups); ids ARE the positions because
    :func:`build_global_dictionary` assigns ids 0..n-1 in sorted-value
    order."""

    def __init__(self, dict_ref, column: str):
        mapping = (ray.get(dict_ref)
                   if isinstance(dict_ref, ray.ObjectRef) else dict_ref)
        values = [None] * len(mapping)
        for v, i in mapping.items():
            values[i] = v
        self._value_set = pa.array(values)
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column)
        vs = self._value_set
        if vs.type != col.type and len(vs) > 0:
            vs = vs.cast(col.type)
        idx = pc.index_in(col, value_set=vs).cast(pa.int64())
        return batch.append_column(self.column + "_id", idx)
