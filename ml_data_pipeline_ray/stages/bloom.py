"""Bloom-filter join pruning: drop fact-side rows whose key CANNOT be in
the build side before any exchange.

The classic runtime-filter optimization for large joins: the build side's
key set is summarized into an m-bit Bloom filter with map-side partial
bitmaps, the OR of all partials reaches the probe side through
``map_batches(fn_kwargs=...)``, which tests membership per batch — shuffle
bytes for the subsequent exact join drop by the true selectivity. EXACT by
construction: a Bloom filter has no false negatives, so the surviving
superset feeds the normal exact join/semi-join; false positives only cost a
little extra shuffle.

Scale notes: bits are sized from the build-side key estimate for a ~1%
false-positive rate (k=7 double-hashed probes, ~10 bits/key), so at 100M
build keys m = 2^30 bits and every bitmap — final AND each partial — is
m/8 = 128 MiB. Partial traffic is therefore controlled by partial COUNT,
not batch size: exactly one partial leaves each input block
(``batch_size=None``), a task-side fan-in stage OR-combines partials 64:1
before anything reaches the driver, and the driver streams the survivors
one row at a time (peak driver memory = 2 bitmaps, not 64). The final
bitmap is the only driver-resident state; Ray Data puts it in the object
store once per execution, never once per task. The reference has no joins
at all (SURVEY.md §2.5 — designed from scratch here); this is the standard
companion to the bucketed ``hash_join``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .exchange import key_hash

_K = 7                      #: probes per key (optimal near m/n = 10 bits/key)
_BITS_PER_KEY = 10


def _positions(h: np.ndarray, m_bits: int) -> np.ndarray:
    """(n, _K) bit positions via double hashing h1 + i*h2 (Kirsch &
    Mitzenmacher: two hashes simulate k independent ones)."""
    h1 = h
    h2 = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD) | np.uint64(1)
    i = np.arange(_K, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return ((h1[:, None] + i[None, :] * h2[:, None])
                % np.uint64(m_bits)).astype(np.int64)


def _set_bits(bitmap: np.ndarray, pos: np.ndarray) -> None:
    w, b = pos >> 6, pos & 63
    np.bitwise_or.at(bitmap, w.reshape(-1),
                     np.uint64(1) << b.reshape(-1).astype(np.uint64))


def _test_bits(bitmap: np.ndarray, pos: np.ndarray) -> np.ndarray:
    w, b = pos >> 6, pos & 63
    hit = (bitmap[w] >> b.astype(np.uint64)) & np.uint64(1)
    return hit.all(axis=1).astype(bool)


def _wrap_bitmap(bm: np.ndarray) -> pa.Table:
    arr = pa.FixedSizeListArray.from_arrays(
        pa.array(bm, pa.uint64()), len(bm))
    return pa.table({"bm": arr.cast(pa.list_(pa.uint64()))})


def _or_rows(batch: pa.Table) -> np.ndarray:
    """OR every bm row of ``batch`` into one bitmap (vectorized)."""
    col = batch.column("bm")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    return np.bitwise_or.reduce(flat.reshape(len(batch), -1), axis=0)


class _PartialBloom:
    """Per-BLOCK map-side combine: emit ONE row holding this block's m-bit
    partial bitmap (as list<uint64> words). Called with ``batch_size=None``
    so partial count = block count, independent of row count."""

    def __init__(self, on: list[str], m_bits: int):
        self.on, self.m_bits = on, m_bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        bm = np.zeros(self.m_bits >> 6, dtype=np.uint64)
        if batch.num_rows:
            _set_bits(bm, _positions(key_hash(batch, self.on), self.m_bits))
        return _wrap_bitmap(bm)


def _fan_in(batch: pa.Table) -> pa.Table:
    """Task-side tree reduce: OR up to ``_FAN_IN`` partial rows into one."""
    if batch.num_rows == 0:
        return batch
    return _wrap_bitmap(_or_rows(batch))


_FAN_IN = 64


def build_bloom(build: rd.Dataset, on: list[str],
                n_keys_hint: int | None = None) -> dict:
    """OR-combine per-block partial bitmaps into one filter, returned as
    its state ``{"bm": uint64 words, "m_bits": int}`` for
    :func:`bloom_prefilter`. ``n_keys_hint`` sizes the filter (defaults to
    ``build.count()`` — one cheap metadata pass on parquet inputs).

    Reduction shape: one partial per input block -> 64:1 task-side fan-in
    -> driver streams the survivors ONE row at a time, so the driver never
    holds more than two bitmaps regardless of block count."""
    n = n_keys_hint if n_keys_hint is not None else max(build.count(), 1)
    m_bits = 1 << int(np.ceil(np.log2(max(n * _BITS_PER_KEY, 1 << 16))))
    parts = build.select_columns(on).map_batches(
        _PartialBloom(on, m_bits), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=None)
    parts = parts.map_batches(_fan_in, batch_format="pyarrow",
                              batch_size=_FAN_IN)
    bm = np.zeros(m_bits >> 6, dtype=np.uint64)
    for b in parts.iter_batches(batch_size=1, batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        if t.num_rows:
            np.bitwise_or(bm, _or_rows(t), out=bm)
    return {"bm": bm, "m_bits": m_bits}


def _bloom_probe(batch: pa.Table, bm: np.ndarray, m_bits: int,
                 on: list[str]) -> pa.Table:
    """Per-batch membership pre-filter against the broadcast bitmap."""
    if batch.num_rows == 0:
        return batch
    pos = _positions(key_hash(batch, on), m_bits)
    return batch.filter(pa.array(_test_bits(bm, pos)))


def bloom_prefilter(probe: rd.Dataset, bloom: dict, on: list[str]
                    ) -> rd.Dataset:
    """Rows of ``probe`` whose key possibly exists in the build side (a
    strict superset of the true matches — feed the exact join next).
    ``bloom`` is the state :func:`build_bloom` returned; it reaches every
    task through ``fn_kwargs``."""
    return probe.map_batches(_bloom_probe, batch_format="pyarrow",
                             zero_copy_batch=True,
                             fn_kwargs={**bloom, "on": on})
