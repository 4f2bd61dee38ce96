"""Dictionary encoding / string interning state (reference ST1/ST2 parity).

The reference grows a mutable value↔index ``StringDictionary`` across batches
(``ml-data/ml-data-readers/src/string_cache.rs:155-260``; thread-safe variant
``:269-336``) and an interning ``StringCache`` (``:13-82``). Ray-native
equivalents:

- per-batch: Arrow dictionary encoding is free (``pc.dictionary_encode``) and
  Parquet writes dictionary pages natively — the common case needs NO state.
- per-actor: :class:`DictionaryEncodeStage` keeps a dictionary growing across
  the batches one actor sees (the reference's exact semantics, scoped per
  actor — global mutable dictionaries don't scale and are deliberately
  avoided, SURVEY.md ST1).
- global: :func:`build_global_dictionary` derives one consistent value→id map
  with a distributed ``unique`` + broadcast — the scalable way to get a
  global dictionary (two passes, no shared mutable state).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


class StringDictionary:
    """Insert-ordered value↔index map (the reference's core structure)."""

    def __init__(self):
        self._map: dict[str, int] = {}
        self._values: list[str] = []

    def get_or_insert(self, value: str) -> int:
        idx = self._map.get(value)
        if idx is None:
            idx = len(self._values)
            self._map[value] = idx
            self._values.append(value)
        return idx

    def index_of(self, value: str) -> int | None:
        return self._map.get(value)

    def value_of(self, idx: int) -> str:
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._values)

    def encode_array(self, arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
        """Vectorized bulk encode: new uniques are appended in first-seen
        order, then the whole column maps through the dict at C speed."""
        vals = arr.to_numpy(zero_copy_only=False)
        uniq = pd.unique(vals[pd.notna(vals)])
        for v in uniq:
            if v not in self._map:
                self.get_or_insert(v)
        return pd.Series(vals).map(self._map).to_numpy()


class DictionaryEncodeStage:
    """Actor-pool stage: replace string columns with growing per-actor
    dictionary indices (+ final dictionary available for flush-style export).
    For most pipelines prefer plain ``pc.dictionary_encode`` per batch."""

    def __init__(self, columns: list[str]):
        self.columns = columns
        self.dicts = {c: StringDictionary() for c in columns}

    def __call__(self, batch: pa.Table) -> pa.Table:
        for c in self.columns:
            idx = self.dicts[c].encode_array(batch.column(c))
            pos = batch.column_names.index(c)
            batch = batch.set_column(
                pos, c + "_id", pa.array(idx, type=pa.int64()))
        return batch


def build_global_dictionary(ds: rd.Dataset, column: str) -> dict[str, int]:
    """Global, consistent value→id map: distributed distinct + deterministic
    (sorted) id assignment. Broadcast the result with ``ray.put`` and map
    inside ``map_batches`` — never a shared mutable dictionary actor."""
    values = sorted(v for v in ds.unique(column) if v is not None)
    return {v: i for i, v in enumerate(values)}


class GlobalDictApplier:
    """Apply a broadcast global dictionary to a column. The map is realized
    once per actor as an Arrow value array ordered by id, so each batch is a
    single C-speed ``pc.index_in`` hash probe (no per-row Python dict
    lookups); ids ARE the positions because :func:`build_global_dictionary`
    assigns ids 0..n-1 in sorted-value order."""

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
