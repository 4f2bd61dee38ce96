"""Driver-gated parity queries for the reader/stateful operator family.

Round-1 verdict: S5/S6/S7/S9/S10/S11, ST1, the fitted scalers and the
timeseries gap-fill were proven only by pytest. Each query here exercises one
of those operators end-to-end and is paired (in :mod:`.oracle_sql`, via
``registry``) with an ANSI-SQL oracle over the SAME source tables, so the
driver's rows+schema+value-hash gate covers them.

Pattern for the roundtrip queries: derive a deterministic artifact (CSV /
text / TFRecord / IPC / JSONL file set) from a testdata table, push it
through the reader under test as a Ray pipeline, and produce output the
oracle can recompute from the original table — any loss or corruption in
the write→read path fails the value hash. Artifact generation is test
scaffolding (driver-side, small); the operator under test is the
distributed read path.
"""

from __future__ import annotations

import glob as _glob
import os
import tempfile
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.aggregate import Count, Max, Sum

from ..sources import read_csv_typed, read_json_typed, read_text_lines
from ..sources.readers import read_parquet
from ..sources.arrow_ipc import read_arrow_ipc_dataset, write_arrow_ipc
from ..sources.tfrecord import read_tfrecords, write_tfrecords
from ..stages import multimodal as MM
from ..stages.encoders import MinMaxScaler, StandardScaler
from ..stages.groupagg import grouped_agg
from ..stages.timeseries import regularize_per_key
from ..state.dictionary import apply_global_dictionary, build_global_dictionary
from .tpch import _haround, _round, _stab, _t

#: rows per generated artifact file (small files => real file-parallelism)
CHUNK = 100

_BOOL_SYN = [("yes", "no"), ("y", "n"), ("t", "f"), ("1", "0"), ("true", "false")]


def _scratch(tag: str, sf_dir: str) -> str:
    """Deterministic per-(query, sf) scratch dir under /tmp."""
    key = os.path.basename(os.path.normpath(sf_dir))
    d = os.path.join(tempfile.gettempdir(), f"mdpr_parity_{tag}_{key}")
    os.makedirs(d, exist_ok=True)
    return d


def _fixture_ready(d: str, key: str) -> bool:
    """True when the deterministic fixture in ``d`` was fully generated for
    ``key`` by a prior run. Generation is a pure function of the input table
    (no RNG, no timestamps), so completed artifacts are bit-identical to what
    regeneration would produce — skipping keeps repeat correctness/bench runs
    from paying the generation wall again. Bump the version prefix in the
    key whenever generation code changes."""
    try:
        with open(os.path.join(d, ".complete")) as f:
            return f.read() == key
    except OSError:
        return False


def _mark_ready(d: str, key: str) -> None:
    with open(os.path.join(d, ".complete"), "w") as f:
        f.write(key)


# -- S1/T9: typed CSV inference on a messy file ------------------------------

def csv_inference_messy(sf_dir: str) -> pd.DataFrame:
    """Schema inference (int64→float64→bool→string chain), boolean-synonym
    parsing and comment-line skipping, on a deliberately messy CSV derived
    from ``events``. The oracle recomputes the aggregate from the clean
    table, so any mis-typed or mis-skipped line changes the hash."""
    ev = pq.read_table(_t(sf_dir, "events"),
                       columns=["event_id", "event_type", "value"]
                       ).sort_by("event_id")
    d = _scratch("csv", sf_dir)
    path = os.path.join(d, "messy.csv")
    key = f"v2:{ev.num_rows}"
    if not _fixture_ready(d, key):
        eid = ev["event_id"].to_numpy().tolist()
        # repr(float(...)) is numpy-2-safe (np.float64 repr became
        # 'np.float64(0.5)' in numpy 2) and roundtrips the double exactly
        val = [repr(float(v)) for v in ev["value"].to_numpy().tolist()]
        etype = ev["event_type"].to_pylist()
        is_p = ev["event_type"].to_numpy(zero_copy_only=False) == "purchase"
        syn = [(_BOOL_SYN[i % 5][0] if p else _BOOL_SYN[i % 5][1])
               for i, p in zip(eid, is_p.tolist())]
        with open(path, "w") as f:
            f.write("event_id,value,flag,label\n")
            f.write("# generated test artifact; comment lines must be skipped\n")
            f.writelines(
                (f"# interleaved comment {i}\n" if i % 97 == 0 else "")
                + f"{eid[i]},{val[i]},{syn[i]},{etype[i]}\n"
                for i in range(len(eid)))
        _mark_ready(d, key)

    ds = read_csv_typed(path, comment="#")
    out = ds.aggregate(Count(alias_name="n_rows"),
                       Sum("event_id", alias_name="sum_id"),
                       Sum("value", alias_name="sum_value"),
                       Sum("flag", alias_name="n_true"))
    labels = len(ds.unique("label"))
    df = pd.DataFrame([{"n_rows": int(out["n_rows"]),
                        "sum_id": int(out["sum_id"]),
                        "sum_value": float(out["sum_value"]),
                        "n_true": int(out["n_true"]),
                        "n_labels": int(labels)}])
    return _round(_stab(df, {"sum_value": 6}), {"sum_value": 2})


SQL_CSV_INFERENCE_MESSY = """
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(event_id) AS BIGINT) AS sum_id,
       round(round(sum(value) * 1e6) / 1e6, 2) AS sum_value,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_true,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_labels
FROM events
"""


# -- S7: text reader (trim / skip-empty / per-file line numbers) -------------

def text_lines_docs(sf_dir: str) -> pd.DataFrame:
    """Text reader semantics: each document's ``source`` is written as a
    whitespace-padded line followed by an empty line, CHUNK records per file.
    Reading with trim+skip_empty must yield per-file 1-based line numbers
    with gaps (1, 3, 5, ...) — the oracle reconstructs them arithmetically."""
    docs = pq.read_table(_t(sf_dir, "documents"),
                         columns=["doc_id", "source"]).sort_by("doc_id")
    src = docs["source"].to_pylist()
    d = _scratch("text", sf_dir)
    key = f"v1:{len(src)}"
    regen = not _fixture_ready(d, key)
    paths = []
    for fi in range(0, len(src), CHUNK):
        p = os.path.join(d, f"part-{fi // CHUNK:05d}.txt")
        if regen:
            with open(p, "w") as f:
                f.writelines(f"  {s}  \n\n" for s in src[fi:fi + CHUNK])
        paths.append(p)
    if regen:
        _mark_ready(d, key)

    ds = read_text_lines(paths, trim=True, skip_empty=True)
    out = grouped_agg(ds, keys=["text"],
                      aggs=[(None, "count_star", "n"),
                            ("line_number", "sum", "sum_line")]).to_pandas()
    out = out.rename(columns={"text": "source"})
    out["sum_line"] = out["sum_line"].astype(np.int64)
    return out[["source", "n", "sum_line"]]


SQL_TEXT_LINES_DOCS = f"""
WITH d AS (
  SELECT source, row_number() OVER (ORDER BY doc_id) - 1 AS rn
  FROM documents)
SELECT source, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(2 * (rn % {CHUNK}) + 1) AS BIGINT) AS sum_line
FROM d GROUP BY source
"""


# -- S6: TFRecord framing roundtrip ------------------------------------------

def tfrecord_roundtrip_docs(sf_dir: str) -> pd.DataFrame:
    """Documents' text → TFRecord files (CHUNK records each) → file-parallel
    framed read. Output exposes the framing itself (per-file byte offsets and
    lengths) plus the decoded payload; the oracle recomputes offsets from
    octet lengths with a window sum, so a single mis-framed byte fails."""
    docs = pq.read_table(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"]).sort_by("doc_id")
    texts = docs["text"].to_pylist()
    d = _scratch("tfrec", sf_dir)
    key = f"v1:{len(texts)}"
    regen = not _fixture_ready(d, key)
    paths = []
    for fi in range(0, len(texts), CHUNK):
        p = os.path.join(d, f"part-{fi // CHUNK:05d}.tfrecord")
        if regen:
            write_tfrecords([t.encode() for t in texts[fi:fi + CHUNK]], p)
        paths.append(p)
    if regen:
        _mark_ready(d, key)

    ds = read_tfrecords(paths, include_path=True)

    def decode(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b["path"], r"part-(?P<i>\d+)\.tfrecord")
        fid = pc.struct_field(m, "i").cast(pa.int64())
        return pa.table({"file_id": fid,
                         "offset": b["offset"],
                         "length": b["length"],
                         "text": b["data"].cast(pa.string())})

    return ds.map_batches(decode, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()


SQL_TFRECORD_ROUNDTRIP_DOCS = f"""
WITH d AS (
  SELECT text, octet_length(encode(text)) AS len,
         row_number() OVER (ORDER BY doc_id) - 1 AS rn
  FROM documents),
f AS (
  SELECT text, len, CAST(rn // {CHUNK} AS BIGINT) AS file_id,
         rn % {CHUNK} AS pos
  FROM d)
SELECT file_id,
       CAST(COALESCE(SUM(len + 16) OVER (
             PARTITION BY file_id ORDER BY pos
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
         AS "offset",
       CAST(len AS INTEGER) AS length, text
FROM f
"""


# -- S5: Arrow IPC roundtrip -------------------------------------------------

def arrow_ipc_roundtrip_nation(sf_dir: str) -> pd.DataFrame:
    """nation → two compressed IPC files → file-parallel mmap read; returns
    the full table (the oracle is the original — byte-exact roundtrip)."""
    t = pq.read_table(_t(sf_dir, "nation")).sort_by("n_nationkey")
    d = _scratch("ipc", sf_dir)
    half = t.num_rows // 2
    p1, p2 = os.path.join(d, "a.arrow"), os.path.join(d, "b.arrow")
    write_arrow_ipc(t.slice(0, half), p1, compression="zstd")
    write_arrow_ipc(t.slice(half), p2, compression="lz4")
    return read_arrow_ipc_dataset([p1, p2]).to_pandas()


SQL_ARROW_IPC_ROUNDTRIP_NATION = "SELECT * FROM nation"


# -- S11: JSONL write → read roundtrip ---------------------------------------

def jsonl_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    """events (integer/string columns) → ``Dataset.write_json`` (JSONL part
    files) → :func:`read_json_typed` → aggregate. Integer-exact, so the JSON
    text roundtrip must be lossless."""
    d = _scratch("jsonl", sf_dir)
    for old in _glob.glob(os.path.join(d, "*.json")):
        os.unlink(old)
    ds = read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type"])
    # bound the part-file count: at 32 cpus an unbounded write fans into
    # hundreds of tiny JSON files whose per-file re-parse overhead dominated
    # the r03 driver wall (10.3 s vs 1.8 s in r02) — 8 bounded parts keep
    # file-parallelism without the per-file tax
    ds.repartition(8).write_json(d)
    back = read_json_typed(sorted(_glob.glob(os.path.join(d, "*.json"))))
    out = grouped_agg(back, keys=["event_type"],
                      aggs=[(None, "count_star", "n"),
                            ("event_id", "sum", "sum_id"),
                            ("user_id", "sum", "sum_user")]).to_pandas()
    for c in ("n", "sum_id", "sum_user"):
        out[c] = out[c].astype(np.int64)
    return out[["event_type", "n", "sum_id", "sum_user"]]


SQL_JSONL_ROUNDTRIP_EVENTS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(event_id) AS BIGINT) AS sum_id,
       CAST(sum(user_id) AS BIGINT) AS sum_user
FROM events GROUP BY event_type
"""


# -- S9: per-key timeseries gap fill -----------------------------------------

def timeseries_fill_hourly(sf_dir: str) -> pd.DataFrame:
    """Per-user hourly series with forward-filled gaps: events are bucketed
    to hours (sum of value, decimal-stabilized), then
    :func:`regularize_per_key` regularizes each user's series onto the 1h
    grid with forward fill — the oracle rebuilds the grid with
    ``generate_series`` + ``last_value IGNORE NULLS``."""
    ds = read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "value"])

    # ONE exchange end-to-end (r03 shape was aggregate-shuffle + fill-shuffle
    # = two): the hour bucketing fuses into the fill's tag pass as `pre`, the
    # hourly sum runs map-side partial (`combine="sum"`) + per-bucket final,
    # and the decimal stabilization runs on COMPLETED sums via post_combine
    # so forward-filled copies carry the exact decimal the oracle computes
    def hour(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"],
                         "hour": pc.floor_temporal(b["ts"], unit="hour"),
                         "sv": b["value"]})

    def stab_sv(g: pd.DataFrame) -> pd.DataFrame:
        g["sv"] = np.round(g["sv"].to_numpy() * 1e2) / 1e2
        return g

    filled = regularize_per_key(ds, key="user_id", ts_col="hour",
                                value_cols=["sv"], freq="1h",
                                method="forward", pre=hour,
                                combine="sum", post_combine=stab_sv)
    out = filled.to_pandas()
    out = _round(out, {"sv": 2})
    out = out.rename(columns={"sv": "value_filled"})
    out["user_id"] = out["user_id"].astype(np.int64)
    return out[["user_id", "hour", "value_filled"]]


SQL_TIMESERIES_FILL_HOURLY = """
WITH agg AS (
  SELECT user_id, date_trunc('hour', ts) AS hour,
         round(sum(value) * 1e2) / 1e2 AS sv
  FROM events GROUP BY user_id, date_trunc('hour', ts)),
bounds AS (
  SELECT user_id, min(hour) AS mn, max(hour) AS mx FROM agg GROUP BY user_id),
grid AS (
  SELECT user_id, unnest(generate_series(mn, mx, INTERVAL 1 HOUR)) AS hour
  FROM bounds),
j AS (
  SELECT g.user_id, g.hour, a.sv
  FROM grid g LEFT JOIN agg a ON g.user_id = a.user_id AND g.hour = a.hour)
SELECT user_id, hour,
       round(last_value(sv IGNORE NULLS) OVER (
         PARTITION BY user_id ORDER BY hour
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2) AS value_filled
FROM j
"""


# -- T11 numeric family: fitted scaler moments -------------------------------

def scaler_moments_lineitem(sf_dir: str) -> pd.DataFrame:
    """StandardScaler + MinMaxScaler distributed fits over three lineitem
    columns; the published moments are the fitted state. Columns are on a
    2-decimal grid, so stabilized sums make mean/std bit-identical to the
    SQL recomputation (same formula both sides)."""
    cols = ["l_quantity", "l_discount", "l_tax"]
    ds = read_parquet(_t(sf_dir, "lineitem"), columns=cols)
    std = StandardScaler(cols, stabilize_decimals=2).fit(ds)
    mm = MinMaxScaler(cols).fit(ds)
    rows = []
    for c in cols:
        mean, sd = std.stats[c]
        lo, hi = mm.ranges[c]
        rows.append({"col": c,
                     "mean": float(_haround(mean, 6)),
                     "std": float(_haround(sd, 6)),
                     "min": float(_haround(lo, 2)),
                     "max": float(_haround(hi, 2))})
    return pd.DataFrame(rows)


SQL_SCALER_MOMENTS_LINEITEM = """
WITH m AS (
  SELECT unnest(['l_quantity', 'l_discount', 'l_tax']) AS col,
         unnest([round(sum(l_quantity) * 1e2) / 1e2,
                 round(sum(l_discount) * 1e2) / 1e2,
                 round(sum(l_tax) * 1e2) / 1e2]) AS s,
         unnest([round(sum(l_quantity * l_quantity) * 1e4) / 1e4,
                 round(sum(l_discount * l_discount) * 1e4) / 1e4,
                 round(sum(l_tax * l_tax) * 1e4) / 1e4]) AS q,
         unnest([min(l_quantity), min(l_discount), min(l_tax)]) AS lo,
         unnest([max(l_quantity), max(l_discount), max(l_tax)]) AS hi,
         count(*) AS n
  FROM lineitem)
SELECT col, round(s / n, 6) AS mean,
       round(sqrt(q / n - (s / n) * (s / n)), 6) AS std,
       round(lo, 2) AS min, round(hi, 2) AS max
FROM m
"""


# -- ST1: global dictionary encode -------------------------------------------

def dict_encode_docs(sf_dir: str) -> pd.DataFrame:
    """Global string dictionary: distributed distinct → deterministic sorted
    id assignment → one ``index_in`` per batch against the dictionary,
    handed to every task through ``fn_kwargs``. Oracle: ``dense_rank() - 1``
    over the sorted distinct values."""
    ds = read_parquet(_t(sf_dir, "documents"), columns=["source"])
    enc = ds.map_batches(
        apply_global_dictionary, batch_format="pyarrow",
        fn_kwargs={"values": build_global_dictionary(ds, "source"),
                   "column": "source"})
    out = grouped_agg(enc, keys=["source", "source_id"],
                      aggs=[(None, "count_star", "n")]).to_pandas()
    out["source_id"] = out["source_id"].astype(np.int64)
    return out[["source", "source_id", "n"]]


SQL_DICT_ENCODE_DOCS = """
WITH ids AS (
  SELECT source, dense_rank() OVER (ORDER BY source) - 1 AS source_id
  FROM (SELECT DISTINCT source FROM documents))
SELECT d.source, CAST(i.source_id AS BIGINT) AS source_id,
       CAST(count(*) AS BIGINT) AS n
FROM documents d JOIN ids i ON d.source = i.source
GROUP BY d.source, i.source_id
"""


# -- U1: intersect / except --------------------------------------------------

def setops_event_users(sf_dir: str) -> pd.DataFrame:
    """Distinct set ops: users with purchases INTERSECT / EXCEPT users with
    errors — one groupby shuffle each over per-batch-deduped keys."""
    from ..stages.setops import presence_aggregate_tagged, select_setop

    # ONE scan of events feeds both sides (r03: two filtered reads scanned
    # the table twice — 10.1 s driver wall); ONE shuffle feeds both set ops;
    # the aggregate is tiny, materialize it
    ds = read_parquet(_t(sf_dir, "events"), columns=["user_id", "event_type"])
    agg = presence_aggregate_tagged(ds, ["user_id"], "event_type",
                                    "purchase", "error").materialize()
    both = select_setop(agg, ["user_id"], anti=False).to_pandas()
    only = select_setop(agg, ["user_id"], anti=True).to_pandas()
    both["setop"] = "intersect"
    only["setop"] = "except"
    out = pd.concat([both, only], ignore_index=True)
    out["user_id"] = out["user_id"].astype(np.int64)
    return out[["setop", "user_id"]]


SQL_SETOPS_EVENT_USERS = """
SELECT 'intersect' AS setop, user_id FROM (
  SELECT user_id FROM events WHERE event_type = 'purchase'
  INTERSECT
  SELECT user_id FROM events WHERE event_type = 'error')
UNION ALL
SELECT 'except' AS setop, user_id FROM (
  SELECT user_id FROM events WHERE event_type = 'purchase'
  EXCEPT
  SELECT user_id FROM events WHERE event_type = 'error')
"""


# -- S8/T11 multimodal: codec witnesses over cached binary-column fixtures ---

def _codec_fixture(tag: str, maker: Callable[..., pa.Table], n: int,
                   seed: int = 42) -> str:
    """Parquet cache of ``maker(n=n, seed=seed)``. Generation is
    deterministic, so an existing file is reused; it is written to a temp
    file in the same directory and renamed into place, so a run killed
    mid-write leaves no torn file for later runs to reuse."""
    path = os.path.join(_scratch(tag, "global"), f"{tag}.parquet")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        pq.write_table(maker(n=n, seed=seed), tmp)
        os.replace(tmp, path)
    return path


class _Codec(NamedTuple):
    """One codec witness query: decode the blobs of ``maker(n=n, seed=42)``
    with ``decoder(batch, **kwargs)``, group by ``key`` = (decoded column, its
    truth column) and sum ``sums`` = ((output, decoded column, truth SQL
    expression), ...). Grouping by ``format`` groups by the blobs' sniffed
    magic bytes."""
    maker: Callable[..., pa.Table]
    n: int
    decoder: Callable[..., pa.Table]
    kwargs: dict
    batch_size: int
    key: tuple[str, str | None]
    sums: tuple[tuple[str, str, str | None], ...]


def _length_dims(batch: pa.Table) -> pa.Table:
    """The sniff query's stand-in decoder: ``width`` and ``height`` hashed
    from each blob's byte length (the fixture's payloads after the magic
    bytes are noise, so there is nothing to decode)."""
    n = pc.binary_length(batch["data"]).to_numpy(zero_copy_only=False)
    h = n.astype(np.int64) * 2654435761 % (1 << 31)
    return batch.append_column("width", pa.array(16 + h % 241)) \
                .append_column("height", pa.array(16 + (h >> 8) % 241))


_IMAGE_SUMS = (("sum_width", "width", "true_width"),
               ("sum_height", "height", "true_height"),
               ("sum_px", "px_sum", "true_px_sum"),
               ("sum_px_gray", "px_sum_gray", "true_px_sum_gray"))
_GRAY = {"gray_witness": True}

#: REAL decode end-to-end per codec (the reference sniffs these formats,
#: ``image.rs:51-77``, but its decode is a stub): seeded blobs are decoded
#: by the builtin spec-based codec in stateless tasks, exact witnesses are
#: recomputed from the decoded pixels / PCM samples / luma planes, and the
#: grouped sums are checked against encode-time truth columns stored beside
#: the blobs — any decode bug changes the hash. JPEG truths are build-time
#: decodes (lossy codec; proven against the spec in unit tests), video
#: decodes with ``frame_step=2`` against the even-frame luma witness, and
#: ``multimodal_sniff_decode`` runs :func:`_length_dims` behind the
#: vectorized sniff (its oracle recomputes magic bytes and the length hash
#: arithmetic).
CODECS = {
    "image_decode_stats": _Codec(
        MM.make_png_fixture, 96, MM.decode_images, _GRAY, 32,
        ("channels", "true_channels"), _IMAGE_SUMS),
    "jpeg_decode_stats": _Codec(
        MM.make_jpeg_fixture, 96, MM.decode_images, _GRAY, 32,
        ("channels", "true_channels"), _IMAGE_SUMS),
    "tiff_decode_stats": _Codec(
        MM.make_tiff_fixture, 96, MM.decode_images, _GRAY, 32,
        ("channels", "true_channels"), _IMAGE_SUMS),
    "bmp_gif_decode_stats": _Codec(
        MM.make_bmp_gif_fixture, 96, MM.decode_images, _GRAY, 32,
        ("format", "true_format"), _IMAGE_SUMS),
    "audio_decode_stats": _Codec(
        MM.make_wav_fixture, 96, MM.decode_audio, {}, 32,
        ("channels", "true_channels"),
        (("sum_rate", "sample_rate", "true_rate"),
         ("sum_samples", "n_samples", "true_n_samples"),
         ("sum_dur_ms", "duration_ms", "true_n_samples * 1000 // true_rate"),
         ("sum_abs", "abs_sum", "true_abs_sum"))),
    "video_frame_sample_stats": _Codec(
        MM.make_y4m_fixture, 72, MM.decode_video, {"frame_step": 2},
        16, ("width", "true_w"),
        (("sum_height", "height", "true_h"),
         ("sum_frames", "n_frames", "true_frames"),
         ("sum_sampled", "n_sampled", "(true_frames + 1) // 2"),
         ("sum_luma", "y_sum", "true_y_sum_even"))),
    "multimodal_sniff_decode": _Codec(
        MM.make_binary_fixture, 256, _length_dims, {},
        32, ("format", None),
        (("sum_width", "width", None), ("sum_height", "height", None))),
}


def _codec_path(name: str) -> str:
    c = CODECS[name]
    return _codec_fixture(name, c.maker, c.n)


def codec_witness(name: str, sf_dir: str) -> pd.DataFrame:
    """Run the :data:`CODECS` query ``name``: fixture → optional sniff →
    decoder tasks → per-key count + witness sums (int64)."""
    c = CODECS[name]
    key = c.key[0]
    ds = read_parquet(_codec_path(name), columns=["item_id", "data"])
    if key == "format":
        ds = ds.map_batches(MM.sniff_format, batch_format="pyarrow",
                            zero_copy_batch=True)
    ds = ds.map_batches(c.decoder, fn_kwargs=c.kwargs,
                        batch_format="pyarrow", batch_size=c.batch_size)
    out = grouped_agg(ds, keys=[key], aggs=[
        (None, "count_star", "n"),
        *((col, "sum", alias) for alias, col, _ in c.sums)]).to_pandas()
    cols = [key, "n", *(alias for alias, _, _ in c.sums)]
    return out[cols].astype({col: np.int64 for col in cols if col != "format"})


def sql_codec_witness(name: str) -> str:
    """Oracle of :func:`codec_witness`: the same grouped sums over the
    fixture's encode-time truth columns."""
    c = CODECS[name]
    key, truth = c.key
    group = truth if key == "format" else f"CAST({truth} AS BIGINT)"
    sums = "".join(f",\n       CAST(sum({expr}) AS BIGINT) AS {out}"
                   for out, _, expr in c.sums)
    return f"""
SELECT {group} AS {key},
       CAST(count(*) AS BIGINT) AS n{sums}
FROM read_parquet('{_codec_path(name)}') GROUP BY {truth}
"""


def sql_multimodal_sniff_decode() -> str:
    path = _codec_path("multimodal_sniff_decode")
    # DuckDB has no blob substring — compare on the hex encoding instead
    cases = "\n    ".join(
        f"WHEN substring(upper(hex(data)), 1, {2 * len(magic)}) = "
        f"'{magic.hex().upper()}' THEN '{name}'"
        for magic, name in MM.IMAGE_MAGIC)
    return f"""
WITH b AS (
  SELECT CASE
    {cases}
    ELSE 'unknown' END AS format,
    (octet_length(data) * 2654435761) % 2147483648 AS h
  FROM read_parquet('{path}'))
SELECT format, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(16 + h % 241) AS BIGINT) AS sum_width,
       CAST(sum(16 + (h // 256) % 241) AS BIGINT) AS sum_height
FROM b GROUP BY format
"""


def csv_quote_roundtrip(sf_dir: str) -> pd.DataFrame:
    """CSV WRITER options parity (reference ``csv/writer.rs:59-222``):
    values with embedded delimiters AND embedded quotes are written with
    ``quote_style="all"``, booleans as ``yes``/``no`` literals, floats at
    fixed 2-decimal precision — then read back typed and aggregated. Any
    quoting/escaping/formatting defect shifts columns or corrupts values
    and fails the hash vs the oracle on the ORIGINAL table."""
    from ..sources.readers import write_csv

    d = _scratch("csvq", sf_dir)
    for old in _glob.glob(os.path.join(d, "*.csv")):
        os.unlink(old)
    ds = read_parquet(_t(sf_dir, "supplier"),
                      columns=["s_suppkey", "s_name", "s_nationkey",
                               "s_acctbal"])

    def derive(b: pa.Table) -> pa.Table:
        addr = pc.binary_join_element_wise(
            b["s_name"], pa.scalar(', "'),
            pc.cast(b["s_nationkey"], pa.string()), pa.scalar('"'),
            pa.scalar(""))
        flag = pc.equal(pc.bit_wise_and(b["s_suppkey"], 1), 0)
        return pa.table({"s_suppkey": b["s_suppkey"], "addr": addr,
                         "flag": flag, "s_acctbal": b["s_acctbal"]})

    write_csv(ds.map_batches(derive, batch_format="pyarrow",
                             zero_copy_batch=True).repartition(4),
              d, quote_style="all", bool_format=("yes", "no"),
              float_precision=2)
    back = read_csv_typed(
        sorted(_glob.glob(os.path.join(d, "*.csv"))),
        schema=pa.schema([("s_suppkey", pa.int64()), ("addr", pa.string()),
                          ("flag", pa.bool_()), ("s_acctbal", pa.float64())]))

    def agg_partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([b.num_rows], pa.int64()),
            "sum_addr_len": pa.array(
                [pc.sum(pc.utf8_length(b["addr"])).as_py() or 0], pa.int64()),
            "n_flag": pa.array(
                [pc.sum(pc.cast(b["flag"], pa.int64())).as_py() or 0],
                pa.int64()),
            "sum_bal": pa.array(
                [pc.sum(b["s_acctbal"]).as_py() or 0.0], pa.float64()),
        })

    parts = back.map_batches(agg_partial, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()
    out = pd.DataFrame({
        "n": [np.int64(parts["n"].sum())],
        "sum_addr_len": [np.int64(parts["sum_addr_len"].sum())],
        "n_flag": [np.int64(parts["n_flag"].sum())],
        "sum_bal": [np.round(parts["sum_bal"].sum() * 1e2) / 1e2],
    })
    return out


SQL_CSV_QUOTE_ROUNDTRIP = """
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(length(s_name || ', "' || CAST(s_nationkey AS VARCHAR)
                       || '"')) AS BIGINT)
           AS sum_addr_len,
       CAST(sum(CASE WHEN s_suppkey % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_flag,
       round(sum(round(s_acctbal, 2)) * 1e2) / 1e2 AS sum_bal
FROM supplier
"""


def _mixed_media_table(n: int, seed: int) -> pa.Table:
    """The FULL decodable sniff table in one binary column: ``n`` each of
    PNG, baseline JPEG, BMP, GIF, TIFF, WAV and Y4M blobs with encode-time
    ``modality`` (= the blob's real format name) and per-item exact integer
    ``true_witness`` (images: pixel sum; audio: |sample| sum; video: luma
    sum) for the SQL oracle."""
    bg = MM.make_bmp_gif_fixture(n=2 * n, seed=seed)   # alternating bmp/gif
    arms = [("png", MM.make_png_fixture(n=n, seed=seed), "true_px_sum"),
            ("jpeg", MM.make_jpeg_fixture(n=n, seed=seed), "true_px_sum"),
            *((f, bg.filter(pc.equal(bg["true_format"], f)), "true_px_sum")
              for f in ("bmp", "gif")),
            ("tiff", MM.make_tiff_fixture(n=n, seed=seed), "true_px_sum"),
            ("wav", MM.make_wav_fixture(n=n, seed=seed), "true_abs_sum"),
            ("y4m", MM.make_y4m_fixture(n=n, seed=seed), "true_y_sum_all")]
    n_total = sum(t.num_rows for _, t, _ in arms)
    return pa.table({
        "item_id": pa.array(np.arange(n_total, dtype=np.int64)),
        "modality": pa.array([m for m, t, _ in arms
                              for _ in range(t.num_rows)]),
        "data": pa.concat_arrays([t["data"].combine_chunks()
                                  for _, t, _ in arms]),
        "true_witness": pa.concat_arrays([t[w].combine_chunks()
                                          for _, t, w in arms])})


def _multimodal_mix_path() -> str:
    return _codec_fixture("multimodal_curation", _mixed_media_table, 36,
                          seed=7)


def multimodal_curation(sf_dir: str) -> pd.DataFrame:
    """Flagship multimodal pipeline over the FULL decodable sniff table:
    ONE mixed binary table (PNG + baseline JPEG + BMP + GIF + TIFF images,
    WAV audio, Y4M video interleaved) → vectorized magic-byte sniff → the
    sniffed format ROUTES each blob to its real spec-based decoder (ONE
    image branch handles all five image formats — the per-blob magic
    dispatch lives inside ``decode_images``) → each decoder
    recomputes an exact integer witness from the decoded payload (pixels /
    PCM samples / luma planes) → union → grouped aggregate per sniffed
    format. The modality column is NOT read by the Ray side — routing is
    pure sniff — so a mis-sniffed magic, a wrong route, or any decode bug
    changes the hash vs encode-time truth."""
    ds = read_parquet(_multimodal_mix_path(), columns=["item_id", "data"])
    sniffed = ds.map_batches(MM.sniff_format, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    def branch(fmts: tuple[str, ...], decoder, witness_col: str):
        pred = " or ".join(f"format == '{f}'" for f in fmts)
        dec = sniffed.filter(expr=pred).map_batches(
            decoder, batch_format="pyarrow", batch_size=32)

        def pick(b: pa.Table) -> pa.Table:
            # modality = the SNIFFED format (carried through the decoder),
            # never the fixture's stored label
            return pa.table({
                "modality": b.column("format"),
                "witness": b.column(witness_col).cast(pa.int64()),
            })

        return dec.map_batches(pick, batch_format="pyarrow",
                               zero_copy_batch=True)

    merged = (branch(("png", "jpeg", "bmp", "gif", "tiff"),
                     MM.decode_images, "px_sum")
              .union(branch(("wav",), MM.decode_audio, "abs_sum"))
              .union(branch(("y4m",), MM.decode_video, "y_sum")))
    out = grouped_agg(merged, keys=["modality"],
                      aggs=[(None, "count_star", "n"),
                            ("witness", "sum", "sum_witness")]).to_pandas()
    for c in ("n", "sum_witness"):
        out[c] = out[c].astype(np.int64)
    return out[["modality", "n", "sum_witness"]]


def sql_multimodal_curation() -> str:
    path = _multimodal_mix_path()
    return f"""
SELECT modality, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(true_witness) AS BIGINT) AS sum_witness
FROM read_parquet('{path}') GROUP BY modality
"""


# -- S2: seekable CSV (row index + seek) -------------------------------------

def csv_seek_supplier(sf_dir: str) -> pd.DataFrame:
    """Seekable CSV reader: supplier goes to ONE csv sorted by key; the
    reader builds the quote-aware byte-offset row index and seeks straight
    to data row 3, reading 41 rows — the oracle selects the same window by
    rank, so an off-by-one in the index or framing fails the hash. (Start
    row 3 keeps the window non-empty at every sf, so the inferred window
    schema is deterministic.)"""
    from ..sources.readers import build_csv_row_index, read_csv_from_row

    t = pq.read_table(_t(sf_dir, "supplier")).sort_by("s_suppkey")
    d = _scratch("csvseek", sf_dir)
    path = os.path.join(d, "supplier.csv")
    import pyarrow.csv as pacsv
    pacsv.write_csv(t, path)
    idx = build_csv_row_index(path)
    assert idx.size == t.num_rows + 1          # header + data rows
    out = read_csv_from_row(path, start_row=3, num_rows=41,
                            index=idx).to_pandas()
    return _round(out, {"s_acctbal": 2})


SQL_CSV_SEEK_SUPPLIER = """
WITH r AS (
  SELECT *, row_number() OVER (ORDER BY s_suppkey) - 1 AS rn
  FROM supplier)
SELECT s_suppkey, s_name, s_nationkey, round(s_acctbal, 2) AS s_acctbal
FROM r WHERE rn >= 3 AND rn < 44
"""


# -- S11: SQL database source ------------------------------------------------

def sql_source_events(sf_dir: str) -> pd.DataFrame:
    """SQL source → distributed pipeline: DuckDB executes a selective
    extraction query (the system-of-record side), Ray distributes the
    downstream aggregate. The oracle computes the full result in SQL, so the
    handoff must be lossless."""
    from ..sources import read_sql_typed

    q = (f"SELECT user_id, event_type, value "
         f"FROM read_parquet('{_t(sf_dir, 'events')}') "
         f"WHERE event_type IN ('purchase', 'signup')")
    ds = read_sql_typed(q, override_num_blocks=8)
    out = grouped_agg(ds, keys=["user_id", "event_type"],
                      aggs=[(None, "count_star", "n"),
                            ("value", "sum", "sum_value")]).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    return _round(_stab(out, {"sum_value": 2}),
                  {"sum_value": 2})[["user_id", "event_type", "n", "sum_value"]]


SQL_SQL_SOURCE_EVENTS = """
SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n,
       round(round(sum(value) * 1e2) / 1e2, 2) AS sum_value
FROM events WHERE event_type IN ('purchase', 'signup')
GROUP BY user_id, event_type
"""


# -- tensor-typed columns (reference DenseTensor / DataType::Tensor) ---------

TENSOR_DIM = 64  # embeddings table dimension


def _tensor_fixture(sf_dir: str) -> list[str]:
    """Embeddings quantized onto an INTEGER grid (so every downstream sum is
    order-independent and bit-exact in float64) and stored as
    ``pa.fixed_shape_tensor(float32, [64])`` across two parquet files — the
    Arrow canonical tensor extension roundtrips through parquet metadata.
    Pure function of the sf dir; whichever side (Ray query / DuckDB oracle)
    runs first materializes it, like the CDC transcript fixtures."""
    emb = pq.read_table(_t(sf_dir, "embeddings"),
                        columns=["vec_id", "embedding"]).sort_by("vec_id")
    d = _scratch("tensor", sf_dir)
    paths = [os.path.join(d, "part-0.parquet"), os.path.join(d, "part-1.parquet")]
    key = f"v1:{emb.num_rows}"
    if not _fixture_ready(d, key):
        flat = emb["embedding"].combine_chunks().flatten().to_numpy()
        q = np.round(flat.astype(np.float64) * 100.0).astype(np.float32)
        ttype = pa.fixed_shape_tensor(pa.float32(), [TENSOR_DIM])
        storage = pa.FixedSizeListArray.from_arrays(
            pa.array(q, pa.float32()), TENSOR_DIM)
        tbl = pa.table({"vec_id": emb["vec_id"],
                        "t": pa.ExtensionArray.from_storage(ttype, storage)})
        half = tbl.num_rows // 2
        pq.write_table(tbl.slice(0, half), paths[0])
        pq.write_table(tbl.slice(half), paths[1])
        _mark_ready(d, key)
    return paths


def tensor_roundtrip_embeddings(sf_dir: str) -> pd.DataFrame:
    """Tensor column round-trip (reference ``DenseTensor``/``DataType::
    Tensor``, ``ml-data/ml-data-core/src/tensor.rs:20-38``,
    ``schema.rs:63``): fixed-shape tensor parquet -> Ray read ->
    ``align_to_schema`` (extension-aware) -> zero-copy ndarray view per
    batch -> distributed moment aggregate. The oracle recomputes the moments
    with DuckDB list arithmetic over the same files."""
    from ..stages.transforms import align_to_schema

    paths = _tensor_fixture(sf_dir)
    # Read with the STORAGE schema: Ray's block serializer cannot ship
    # pyarrow canonical extension arrays between tasks (only its own tensor
    # extension), so the extension type lives inside each task — the align
    # step wraps storage -> fixed_shape_tensor per batch and the moment
    # kernel uses the tensor API's zero-copy ndarray view.
    storage_schema = pa.schema([
        ("vec_id", pa.int64()), ("t", pa.list_(pa.float32(), TENSOR_DIM))])
    target = pa.schema([
        ("vec_id", pa.int64()),
        ("t", pa.fixed_shape_tensor(pa.float32(), [TENSOR_DIM]))])

    def stats(b: pa.Table) -> pa.Table:
        b = align_to_schema(b, target)
        m = b["t"].combine_chunks().to_numpy_ndarray().astype(np.float64)
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "dim": pa.array([m.shape[1]], pa.int64()),
            "s_all": pa.array([float(m.sum())]),
            "s_sq": pa.array([float((m * m).sum())])})

    out = read_parquet(paths, schema=storage_schema) \
        .map_batches(stats, batch_format="pyarrow") \
        .aggregate(Sum("n", alias_name="n"), Max("dim", alias_name="dim"),
                   Sum("s_all", alias_name="sum_all"),
                   Sum("s_sq", alias_name="sum_sq"))
    return pd.DataFrame([{"n": int(out["n"]), "dim": int(out["dim"]),
                          "sum_all": float(out["sum_all"]),
                          "sum_sq": float(out["sum_sq"])}])


def sql_tensor_roundtrip_embeddings() -> str:
    # the driver gate runs at sf0.01; materialize that fixture so the oracle
    # can run first (the replica harnesses rewrite this path per scale)
    paths = _tensor_fixture("/root/testdata/sf0.01")
    glob_path = os.path.join(os.path.dirname(paths[0]), "part-*.parquet")
    return f"""
WITH v AS (
  SELECT CAST(t AS DOUBLE[]) AS e
  FROM read_parquet('{glob_path}'))
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(max(len(e)) AS BIGINT) AS dim,
       round(sum(list_sum(e)), 2) AS sum_all,
       round(sum(list_sum(list_transform(e, x -> x * x))), 2) AS sum_sq
FROM v
"""


# -- S11: Avro object-container roundtrip -------------------------------------

def avro_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    """Avro OCF write → file-parallel read → aggregate (S11: the reference
    declares the ``avro`` feature with no implementation,
    ``ml-data-readers/Cargo.toml:12-16``). A deterministic ~3% slice of
    events (event_id % 37 = 0) goes to deflate-coded Avro files; the oracle
    recomputes the aggregate from the same slice of the source table, so any
    varint/union/codec decode error fails the value hash."""
    from ..sources.avro import read_avro, write_avro

    ev = pq.read_table(_t(sf_dir, "events"),
                       columns=["event_id", "user_id", "event_type", "value"])
    mask = pa.array(ev["event_id"].to_numpy() % 37 == 0)
    ev = ev.filter(mask).sort_by("event_id")
    d = _scratch("avro", sf_dir)
    key = f"v1:{ev.num_rows}"
    paths = []
    n_files = max(1, -(-ev.num_rows // (CHUNK * 10)))
    regen = not _fixture_ready(d, key)
    bounds = np.linspace(0, ev.num_rows, n_files + 1).astype(np.int64)
    for i in range(n_files):
        p = os.path.join(d, f"part-{i:05d}.avro")
        if regen:
            write_avro(ev.slice(bounds[i], bounds[i + 1] - bounds[i]), p,
                       codec="deflate")
        paths.append(p)
    if regen:
        _mark_ready(d, key)

    ds = read_avro(paths)
    out = grouped_agg(ds, keys=["event_type"],
                      aggs=[(None, "count_star", "n"),
                            ("event_id", "sum", "sum_id"),
                            ("value", "sum", "sum_value")]).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    out["sum_id"] = out["sum_id"].astype(np.int64)
    return _round(_stab(out, {"sum_value": 2}),
                  {"sum_value": 2})[["event_type", "n", "sum_id", "sum_value"]]


SQL_AVRO_ROUNDTRIP_EVENTS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(event_id) AS BIGINT) AS sum_id,
       round(round(sum(value) * 1e2) / 1e2, 2) AS sum_value
FROM events WHERE event_id % 37 = 0
GROUP BY event_type
"""


# -- S11: HTTP source ----------------------------------------------------------

def http_source_events(sf_dir: str) -> pd.DataFrame:
    """HTTP(S) source end-to-end (S11: the reference's ``http`` feature is a
    declared reqwest dependency only): a deterministic ~2.4% slice of events
    is served as parquet shards from a loopback HTTP server; each shard URL
    downloads and parses inside its own Ray task (URL = parallelism unit),
    feeding a distributed aggregate. The oracle recomputes from the same
    slice of the source table."""
    import functools
    import http.server
    import threading

    from ..sources.readers import read_http

    ev = pq.read_table(_t(sf_dir, "events"),
                       columns=["event_id", "user_id", "event_type", "value"])
    mask = pa.array(ev["event_id"].to_numpy() % 41 == 0)
    ev = ev.filter(mask).sort_by("event_id")
    d = _scratch("http", sf_dir)
    key = f"v1:{ev.num_rows}"
    n_files = 4
    bounds = np.linspace(0, ev.num_rows, n_files + 1).astype(np.int64)
    names = [f"part-{i:05d}.parquet" for i in range(n_files)]
    if not _fixture_ready(d, key):
        for i in range(n_files):
            pq.write_table(ev.slice(bounds[i], bounds[i + 1] - bounds[i]),
                           os.path.join(d, names[i]))
        _mark_ready(d, key)

    class _QuietHandler(http.server.SimpleHTTPRequestHandler):
        def log_message(self, *args):          # keep request logs out of
            pass                               # the driver's stderr

    handler = functools.partial(_QuietHandler, directory=d)
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    port = srv.server_address[1]
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        urls = [f"http://127.0.0.1:{port}/{n}" for n in names]
        ds = read_http(urls, format="parquet")
        out = grouped_agg(ds, keys=["event_type"],
                          aggs=[(None, "count_star", "n"),
                                ("event_id", "sum", "sum_id"),
                                ("value", "sum", "sum_value")]).to_pandas()
    finally:
        srv.shutdown()
        thread.join(timeout=5)
    out["n"] = out["n"].astype(np.int64)
    out["sum_id"] = out["sum_id"].astype(np.int64)
    return _round(_stab(out, {"sum_value": 2}),
                  {"sum_value": 2})[["event_type", "n", "sum_id", "sum_value"]]


SQL_HTTP_SOURCE_EVENTS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(event_id) AS BIGINT) AS sum_id,
       round(round(sum(value) * 1e2) / 1e2, 2) AS sum_value
FROM events WHERE event_id % 41 = 0
GROUP BY event_type
"""


def sparse_tensor_embeddings(sf_dir: str) -> pd.DataFrame:
    """SparseTensor data model (reference ``tensor.rs:429-453``,
    ``schema.rs:66``): the dense tensor fixture sparsifies per batch into
    the per-row COO struct (|value| > 20 on the integer grid — exact on
    both engines), round-trips back to dense inside the same task as a
    self-check, and aggregates nnz / value moments distributed. Oracle:
    DuckDB list_filter over the same files."""
    from ..stages.tensors import dense_to_sparse, sparse_to_dense

    paths = _tensor_fixture(sf_dir)
    storage_schema = pa.schema([
        ("vec_id", pa.int64()), ("t", pa.list_(pa.float32(), TENSOR_DIM))])

    def stats(b: pa.Table) -> pa.Table:
        sp = dense_to_sparse(b["t"], threshold=20.0)
        vals = sp.field("values")
        nnz = pc.list_value_length(vals).cast(pa.int64())
        # dense -> sparse -> dense must be identity on the kept entries
        back = sparse_to_dense(sp, TENSOR_DIM)
        dense = b["t"].combine_chunks()
        m = np.asarray(dense.values.to_numpy(zero_copy_only=False)
                       ).reshape(-1, TENSOR_DIM)
        mb = np.asarray(back.values.to_numpy(zero_copy_only=False)
                        ).reshape(-1, TENSOR_DIM)
        kept = np.abs(m) > 20.0
        assert np.array_equal(np.where(kept, m, 0.0), mb)
        sv = np.asarray(vals.values.to_numpy(zero_copy_only=False),
                        dtype=np.float64)
        return pa.table({
            "n": pa.array([b.num_rows], pa.int64()),
            "nnz": pa.array([int(pc.sum(nnz).as_py() or 0)], pa.int64()),
            "s_val": pa.array([float(sv.sum())]),
        })

    out = read_parquet(paths, schema=storage_schema) \
        .map_batches(stats, batch_format="pyarrow") \
        .aggregate(Sum("n", alias_name="n"), Sum("nnz", alias_name="nnz"),
                   Sum("s_val", alias_name="sum_val"))
    return pd.DataFrame([{"n": int(out["n"]), "nnz": int(out["nnz"]),
                          "sum_val": float(out["sum_val"])}])


def sql_sparse_tensor_embeddings() -> str:
    paths = _tensor_fixture("/root/testdata/sf0.01")
    glob_path = os.path.join(os.path.dirname(paths[0]), "part-*.parquet")
    return f"""
WITH v AS (
  SELECT list_filter(CAST(t AS DOUBLE[]), x -> abs(x) > 20.0) AS kept
  FROM read_parquet('{glob_path}'))
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(len(kept)) AS BIGINT) AS nnz,
       round(COALESCE(sum(list_sum(kept)), 0), 2) AS sum_val
FROM v
"""
