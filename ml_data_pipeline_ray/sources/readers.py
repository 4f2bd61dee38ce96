"""Sources and sinks mirroring the reference's reader surface (SURVEY.md
§2.1/§2.2). Every file reader reads one file per call and plans through
:func:`.parquet.read_files`: a small read runs at the call, a larger one
in Ray tasks.

- S1/S3 CSV reader + typed parsing + inference → :func:`read_csv_typed`
  (Arrow CSV does parsing/inference; reference options mapped 1:1:
  delimiter/quote/header/comment/trim from
  ``ml-data/ml-data-readers/src/csv/reader.rs:21-61``).
- S7 text reader → :func:`read_text_lines` ((line_number, text) schema with
  BOM strip / trim / skip-empty, ``ml-data/ml-data-readers/src/text.rs:347-513``).
- S10 format autodetect (extension + magic bytes PAR1/ARROW1/gzip,
  ``common.rs:70-148``) → :func:`detect_format`.
- S11 JSON/JSONL (declared-only in the reference,
  ``ml-data-readers/src/lib.rs:17-21``) → :func:`read_json_typed`.
- K1 CSV writer → :func:`write_csv` (``csv/writer.rs:59-222`` semantics via
  ``Dataset.write_csv`` / Arrow CSV).

Parquet is read by :func:`.parquet.read_parquet` (footer-planned row-group
tasks with predicate pushdown, S4/P3), re-exported here.
"""

from __future__ import annotations

import csv as _csv
import os
import shutil
import tempfile
import urllib.request
from functools import partial
from urllib.parse import urlparse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv
import pyarrow.json as pajson
import pyarrow.parquet as pq
import ray.data as rd

from ..stages.transforms import align_to_schema, infer_schema
from .arrow_ipc import read_arrow_ipc
from .avro import read_avro_table
from .parquet import read_files
from .parquet import read_parquet  # noqa: F401  (the library's import path)
from .tfrecord import read_tfrecord_file

MAGIC = [
    (b"PAR1", "parquet"),
    (b"ARROW1", "arrow"),
    (b"\x1f\x8b", "gzip"),
    (b"{", "json"),
    (b"[", "json"),
]


def detect_format(path: str) -> str:
    """Extension first, then magic bytes (reference ``common.rs:70-148``)."""
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext in {"parquet", "pq"}:
        return "parquet"
    if ext in {"csv", "tsv"}:
        return "csv"
    if ext in {"json", "jsonl", "ndjson"}:
        return "json"
    if ext in {"txt", "text", "log"}:
        return "text"
    if ext in {"arrow", "feather", "ipc"}:
        return "arrow"
    with open(path, "rb") as f:
        head = f.read(8)
    for magic, fmt in MAGIC:
        if head.startswith(magic):
            return fmt
    return "text"


def _strip_comment_lines(data: bytes, comment: str) -> bytes:
    """Remove comment lines at RECORD starts only. The reference delegates to
    the Rust csv crate's ``comment`` option, where a line is a comment iff
    its first RAW byte is the comment char at a record boundary — a quoted
    data field beginning with the char (``"#tag",5``) is data, and a ``#``
    at the start of a continuation line inside a multi-line quoted field is
    field content. Per-line quote counts are vectorized; the sequential
    record-boundary state loop only runs when quotes are actually present."""
    cb = comment.encode()[0]
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        return data
    nl = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], nl + 1))
    if starts[-1] >= buf.size:
        starts = starts[:-1]
    ends = np.concatenate((nl + 1, [buf.size]))[:starts.size]
    iscmt = buf[starts] == cb
    if not iscmt.any():
        return data
    qodd = (np.add.reduceat((buf == ord('"')).astype(np.int64), starts) % 2
            ).astype(bool)
    if not qodd.any():
        keep = ~iscmt
    else:
        keep = np.ones(starts.size, dtype=bool)
        inq = False
        for i in range(starts.size):
            if not inq and iscmt[i]:
                keep[i] = False          # comment consumes the raw line
            elif qodd[i]:
                inq = not inq            # quoted field spans into next line
    return b"".join(data[starts[i]:ends[i]] for i in np.flatnonzero(keep))


def read_csv_typed(paths: str | list[str], *, delimiter: str = ",",
                   has_header: bool = True,
                   column_names: list[str] | None = None,
                   schema: pa.Schema | None = None,
                   schema_inference_rows: int = 1000,
                   comment: str | None = None) -> rd.Dataset:
    """CSV → typed Dataset. With ``schema=None``, types are inferred with the
    reference's fallback chain (int64 → float64 → bool → string) on the first
    ``schema_inference_rows`` rows of the first file, then applied to
    every file's Arrow CSV read (so all files decode consistently). With
    ``comment``, lines starting with it at record boundaries are skipped."""
    if isinstance(paths, str):
        paths = [paths]
    first = paths[0]

    if schema is None:
        # bounded prefix read (8 MiB covers schema_inference_rows for any
        # sane CSV); comment stripping is record-boundary-aware, not a
        # parsed-value prefix test
        with open(first, "rb") as f:
            raw = f.read(8 << 20)
            truncated = f.read(1) != b""
        if comment:
            raw = _strip_comment_lines(raw, comment)
        text = raw.decode("utf-8", errors="replace")
        lines = text.splitlines(keepends=True)
        if truncated and lines:
            lines = lines[:-1]           # drop the possibly partial tail line
        rows = []
        for row in _csv.reader(lines, delimiter=delimiter):
            rows.append(row)
            if len(rows) > schema_inference_rows:
                break
        if has_header:
            names = rows[0]
            body = rows[1:]
        else:
            names = column_names or [f"column_{i}" for i in range(len(rows[0]))]
            body = rows
        schema = infer_schema(body, names, schema_inference_rows)

    read_options = pacsv.ReadOptions(
        column_names=None if has_header else schema.names)
    parse_options = pacsv.ParseOptions(delimiter=delimiter)
    convert_options = pacsv.ConvertOptions(
        column_types={f.name: f.type for f in schema},
        true_values=["true", "1", "yes", "y", "t", "True", "TRUE"],
        false_values=["false", "0", "no", "n", "f", "FALSE", "False"])

    def read_one(path: str) -> pa.Table:
        src = path
        if comment is not None:
            # Arrow CSV has no comment option: strip the raw bytes first
            with open(path, "rb") as f:
                src = pa.BufferReader(_strip_comment_lines(f.read(), comment))
        return pacsv.read_csv(src, read_options=read_options,
                              parse_options=parse_options,
                              convert_options=convert_options)

    return read_files(paths, read_one)


def _read_text_file_table(path: str, strip_bom: bool = True, trim: bool = False,
                          skip_empty: bool = False) -> pa.Table:
    """One text file → (line_number, text) Arrow table, vectorized: one
    decode + splitlines (C level), then Arrow kernels for trim/skip. Line
    numbers are 1-based original positions per file (reference
    ``text.rs:360-363``), so skipped empties leave gaps."""
    with open(path, "rb") as f:
        data = f.read()
    if strip_bom and data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    lines = data.decode("utf-8").splitlines()
    arr = pa.array(lines, pa.string())
    nums = pa.array(np.arange(1, len(lines) + 1, dtype=np.int64))
    if trim:
        arr = pc.utf8_trim_whitespace(arr)
    tbl = pa.table({"line_number": nums, "text": arr})
    if skip_empty:
        tbl = tbl.filter(pc.greater(pc.utf8_length(arr), 0))
    return tbl


def read_text_lines(paths: str | list[str], *, strip_bom: bool = True,
                    trim: bool = False, skip_empty: bool = False) -> rd.Dataset:
    """Line-oriented text file(s) → (line_number: int64, text: string).

    The file is the unit of work because line numbers are per-file
    sequential (reference ``text.rs:347-513``); for one giant file without
    line numbers, prefer ``ray.data.read_text``, which shards by byte
    range."""
    return read_files(paths, partial(_read_text_file_table, strip_bom=strip_bom,
                                     trim=trim, skip_empty=skip_empty))


def _read_json_file(path: str) -> pa.Table:
    """One JSON-lines file as one Arrow JSON block, so no object straddles
    a block boundary (the default block is 1 MiB)."""
    block = min(max(os.path.getsize(path), 1 << 20), (1 << 31) - 1)
    return pajson.read_json(path, read_options=pajson.ReadOptions(block_size=block))


def read_json_typed(paths: str | list[str], *,
                    schema: pa.Schema | None = None) -> rd.Dataset:
    """JSON-lines file(s) → typed Dataset (S11 — declared-only in the
    reference: feature flags + error variants,
    ``ml-data/ml-data-readers/src/lib.rs:17-21``, ``error.rs:26-44``).

    Each file is read by ``pyarrow.json.read_json``, which infers its
    types; pass ``schema`` to declare them (columns are cast/aligned per
    file, adding typed nulls for missing keys)."""
    if schema is None:
        return read_files(paths, _read_json_file)
    return read_files(paths, lambda p: align_to_schema(_read_json_file(p), schema))


def build_csv_row_index(path: str) -> np.ndarray:
    """Byte offset of every row start (S2 ``build_row_index``,
    ``ml-data-readers/src/csv/reader.rs:582-613`` — built vectorized here:
    one pass computing quote parity with a cumulative sum, so newlines
    inside quoted fields are NOT row breaks). Index[0] is the header row."""
    data = np.frombuffer(open(path, "rb").read(), dtype=np.uint8)
    if data.size == 0:
        return np.zeros(1, dtype=np.int64)
    in_quote = (np.cumsum(data == ord('"')) % 2).astype(bool)
    nl = np.where((data == ord("\n")) & ~in_quote)[0]
    offsets = np.concatenate(([0], nl + 1))
    # drop a trailing empty "row" after a final newline
    if offsets[-1] >= data.size:
        offsets = offsets[:-1]
    return offsets.astype(np.int64)


def read_csv_from_row(path: str, start_row: int,
                      num_rows: int | None = None, *,
                      index: np.ndarray | None = None,
                      delimiter: str = ",",
                      schema: pa.Schema | None = None,
                      schema_inference_rows: int = 1000) -> pa.Table:
    """Seekable CSV read (S2 ``seek_to_row``): position directly at data row
    ``start_row`` (0-based, header excluded) via the byte-offset row index
    and parse only the requested rows — random access / restart without
    rescanning the prefix. Types come from the declared ``schema`` or the
    same inference chain as :func:`read_csv_typed`."""
    if index is None:
        index = build_csv_row_index(path)
    with open(path, "rb") as f:
        header = f.readline().decode("utf-8").rstrip("\r\n")
        names = next(_csv.reader([header], delimiter=delimiter))
        row_i = 1 + start_row                 # header occupies index[0]
        if row_i >= index.size:
            body = b""
        else:
            f.seek(index[row_i])
            if num_rows is not None and row_i + num_rows < index.size:
                body = f.read(int(index[row_i + num_rows] - index[row_i]))
            else:
                body = f.read()
    if schema is None:
        # infer through the quote-aware parser (a naive splitlines would
        # shatter quoted fields with embedded newlines into bogus records):
        # parse the window all-string with Arrow CSV, then run the reference
        # inference chain over the first rows
        if body:
            str_tbl = pacsv.read_csv(
                pa.BufferReader(pa.py_buffer(body)),
                read_options=pacsv.ReadOptions(column_names=names),
                parse_options=pacsv.ParseOptions(delimiter=delimiter),
                convert_options=pacsv.ConvertOptions(
                    column_types={n: pa.string() for n in names}))
            head = str_tbl.slice(0, schema_inference_rows)
            rows = list(map(list, zip(*(head[n].to_pylist() for n in names))))
        else:
            rows = []
        schema = infer_schema(rows, names, schema_inference_rows)
    if not body:
        return schema.empty_table()
    buf = pa.py_buffer(body)
    return pacsv.read_csv(
        pa.BufferReader(buf),
        read_options=pacsv.ReadOptions(column_names=schema.names),
        parse_options=pacsv.ParseOptions(delimiter=delimiter),
        convert_options=pacsv.ConvertOptions(
            column_types={f.name: f.type for f in schema},
            true_values=["true", "1", "yes", "y", "t", "True", "TRUE"],
            false_values=["false", "0", "no", "n", "f", "False", "FALSE"]))


def write_csv(ds: rd.Dataset, out_dir: str, *,
              quote_style: str = "needed",
              delimiter: str = ",",
              include_header: bool = True,
              bool_format: tuple[str, str] | None = None,
              float_precision: int | None = None,
              timestamp_format: str | None = None,
              **kw) -> None:
    """Dataset → directory of CSV part files (K1), with the reference
    writer's options surface (``csv/writer.rs:59-222``):

    - ``quote_style``: ``"needed"`` (only when required), ``"all"``
      (every non-null value quoted), ``"none"`` (error if quoting would be
      required) — mapped onto Arrow's quoting styles;
    - ``bool_format``: (true, false) literals (e.g. ``("1", "0")``);
    - ``float_precision``: fixed decimal places for float columns;
    - ``timestamp_format``: strftime pattern for timestamp columns;
    - dictionary-encoded columns are always decoded to their value type
      before writing (CSV has no dictionary representation).

    Per-type formatting runs vectorized in the write tasks (one
    ``map_batches`` fused into the write), never on the driver."""
    import pyarrow.compute as pc
    import pyarrow.csv as pacsv

    style = {"needed": "needed", "all": "all_valid",
             "none": "none"}.get(quote_style)
    if style is None:
        raise ValueError(f"unknown quote_style {quote_style!r}")

    def prep(b: pa.Table) -> pa.Table:
        for i, f in enumerate(b.schema):
            col, typ = b.column(i), f.type
            changed = False
            if pa.types.is_dictionary(typ):
                col, typ, changed = col.cast(typ.value_type), typ.value_type, True
            if bool_format is not None and pa.types.is_boolean(typ):
                col, changed = pc.if_else(col, bool_format[0],
                                          bool_format[1]), True
            elif float_precision is not None and pa.types.is_floating(typ):
                v = col.to_numpy(zero_copy_only=False)
                s = np.char.mod(f"%.{float_precision}f", v)
                col, changed = pa.array(np.where(np.isnan(v), None, s)), True
            elif timestamp_format is not None and pa.types.is_timestamp(typ):
                col, changed = pc.strftime(col, format=timestamp_format), True
            if changed:
                b = b.set_column(i, f.name, col)
        return b

    # zero-copy pass-through when nothing matches, so applying it
    # unconditionally (dictionary columns must ALWAYS decode) stays cheap
    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    def csv_args() -> dict:
        # WriteOptions is not picklable — build it inside each write task
        import pyarrow.csv as _pacsv
        return {"write_options": _pacsv.WriteOptions(
            quoting_style=style, delimiter=delimiter,
            include_header=include_header)}

    ds.write_csv(out_dir, arrow_csv_args_fn=csv_args, **kw)


def read_sql_typed(query: str, db_path: str | None = None,
                   override_num_blocks: int | None = None) -> rd.Dataset:
    """SQL database source (S11 — the reference declares a ``database``
    feature, sqlx, with error variants only: ``ml-data-readers/src/
    lib.rs:17-21``, ``error.rs:36-39``). Executes ``query`` in DuckDB
    (in-process; ``db_path`` opens a persistent database) and hands the
    Arrow result to Ray as a Dataset — the standard head-node ingest for a
    SQL system of record, with all downstream transforms distributed.

    Scale note: the query result materializes on the caller before
    sharding (inherent to a single SQL endpoint); for large extractions,
    issue range-partitioned queries (one per key range) and ``union`` the
    per-range datasets so each range ships independently."""
    import duckdb

    con = duckdb.connect(db_path) if db_path else duckdb.connect()
    try:
        tbl = con.sql(query).arrow()
    finally:
        con.close()
    kw = {}
    if override_num_blocks:
        kw["override_num_blocks"] = override_num_blocks
    return rd.from_arrow(tbl, **kw)


def read_http(urls: str | list[str], format: str | None = None,
              timeout: float = 60.0) -> rd.Dataset:
    """HTTP(S) source (S11 — the reference's ``http`` feature is a declared
    reqwest dependency with no implementation,
    ``ml-data-readers/Cargo.toml:14-20``). Each URL downloads inside its own
    Ray task to a worker-local spool file and parses there — the driver
    never touches payload bytes, and a list of shard URLs fans out across
    the cluster, a task per URL.

    ``format`` is one of parquet/csv/json/text/arrow/avro/tfrecord;
    autodetected from the first URL's path extension when omitted.
    """
    if isinstance(urls, str):
        urls = [urls]
    if format is None:
        format = detect_format(urlparse(urls[0]).path)
    parse = {"parquet": lambda p: pq.read_table(p).replace_schema_metadata(None),
             "csv": pacsv.read_csv, "json": _read_json_file,
             "text": _read_text_file_table, "arrow": read_arrow_ipc,
             "avro": read_avro_table, "tfrecord": read_tfrecord_file}.get(format)
    if parse is None:
        raise ValueError(f"unsupported http format {format!r}")

    def fetch_parse(url: str) -> pa.Table:
        with urllib.request.urlopen(url, timeout=timeout) as r, \
                tempfile.NamedTemporaryFile(delete=False) as f:
            shutil.copyfileobj(r, f)
            spool = f.name
        try:
            return parse(spool)
        finally:
            os.unlink(spool)

    # a URL's cost is its download, not its size: one task per URL
    return read_files(urls, fetch_parse, task_per_file=True)
