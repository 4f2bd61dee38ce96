"""TFRecord framing, Arrow IPC round trip, timeseries gap fill (S5/S6/S9)."""

import contextlib
import functools
import http.server
import json
import os
import threading
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ml_data_pipeline_ray.sources.arrow_ipc import (read_arrow_ipc,
                                                    read_arrow_ipc_dataset,
                                                    write_arrow_ipc)
from ml_data_pipeline_ray.sources.tfrecord import (masked_crc,
                                                   read_tfrecord_file,
                                                   read_tfrecords,
                                                   write_tfrecords)
from ml_data_pipeline_ray.stages.timeseries import (fill_gaps, parse_frequency,
                                                    regularize_per_key)


def test_tfrecord_roundtrip(tmp_path):
    recs = [b"hello", b"", b"x" * 1000, bytes(range(256))]
    p = str(tmp_path / "a.tfrecord")
    write_tfrecords(recs, p)
    t = read_tfrecord_file(p)
    assert t.column("data").to_pylist() == recs
    assert t.column("length").to_pylist() == [len(r) for r in recs]
    # offsets point at each record's frame start
    offs = t.column("offset").to_pylist()
    assert offs[0] == 0 and offs[1] == 8 + 4 + 5 + 4


def test_tfrecord_crc_detects_corruption(tmp_path):
    p = str(tmp_path / "b.tfrecord")
    write_tfrecords([b"payload-one", b"payload-two"], p)
    raw = bytearray(open(p, "rb").read())
    raw[14] ^= 0xFF  # flip a payload byte
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="CRC mismatch"):
        read_tfrecord_file(p)
    # verify_crc=False tolerates it (reference behavior with its stub CRC)
    t = read_tfrecord_file(p, verify_crc=False)
    assert t.num_rows == 2
    assert masked_crc(b"abc") != masked_crc(b"abd")


@pytest.mark.usefixtures("ray_session")
def test_tfrecords_dataset(tmp_path):
    for i in range(3):
        write_tfrecords([f"r{i}-{j}".encode() for j in range(4)],
                        str(tmp_path / f"f{i}.tfrecord"))
    ds = read_tfrecords([str(tmp_path / f"f{i}.tfrecord") for i in range(3)])
    assert ds.count() == 12


@pytest.mark.usefixtures("ray_session")
def test_arrow_ipc_roundtrip(tmp_path):
    t = pa.table({"a": [1, 2, 3], "b": ["x", None, "z"]})
    p = str(tmp_path / "t.arrow")
    write_arrow_ipc(t, p)
    assert read_arrow_ipc(p).equals(t)
    assert read_arrow_ipc(p, memory_map=False).equals(t)
    assert read_arrow_ipc_dataset(p).count() == 3


@pytest.mark.usefixtures("ray_session")
def test_csv_comment_lines_are_skipped(tmp_path):
    from ml_data_pipeline_ray.sources import read_csv_typed

    p = str(tmp_path / "c.csv")
    with open(p, "w") as f:
        f.write("a,b,flag\n1,x,yes\n# full comment line\n2,y,no\n"
                "#short\n3,z,t\n")
    ds = read_csv_typed(p, comment="#")
    df = ds.to_pandas().sort_values("a").reset_index(drop=True)
    assert df["a"].tolist() == [1, 2, 3]
    assert df["b"].tolist() == ["x", "y", "z"]
    assert df["flag"].tolist() == [True, False, True]


@pytest.mark.usefixtures("ray_session")
def test_read_json_typed(tmp_path):
    from ml_data_pipeline_ray.sources import read_json_typed

    p = str(tmp_path / "d.jsonl")
    with open(p, "w") as f:
        f.write('{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n{"a": 3}\n')
    df = read_json_typed(p).to_pandas().sort_values("a").reset_index(drop=True)
    assert df["a"].tolist() == [1, 2, 3]
    assert df["b"].tolist()[:2] == ["x", "y"]
    # declared schema: widen + null-fill a missing column
    schema = pa.schema([("a", pa.float64()), ("b", pa.string()),
                        ("c", pa.int64())])
    df2 = read_json_typed(p, schema=schema).to_pandas()
    assert df2["a"].dtype == np.float64 and df2["c"].isna().all()
    # an object larger than Arrow JSON's default 1 MiB block
    with open(p, "a") as f:
        f.write('{"a": 4, "b": "%s"}\n' % ("z" * (3 << 20)))
    df3 = read_json_typed(p).to_pandas().sort_values("a")
    assert df3["a"].tolist() == [1, 2, 3, 4] and len(df3["b"].iloc[3]) == 3 << 20


@pytest.mark.usefixtures("ray_session")
def test_read_text_lines_multifile(tmp_path):
    from ml_data_pipeline_ray.sources import read_text_lines

    p1, p2 = str(tmp_path / "t1.txt"), str(tmp_path / "t2.txt")
    open(p1, "wb").write(b"\xef\xbb\xbf" + "alpha\n  beta  \n\ngamma\n".encode())
    open(p2, "w").write("delta\n")
    ds = read_text_lines([p1, p2], trim=True, skip_empty=True)
    df = ds.to_pandas()
    # per-file 1-based numbering with gaps for skipped empties
    assert sorted(df["text"]) == ["alpha", "beta", "delta", "gamma"]
    assert df.loc[df.text == "gamma", "line_number"].iloc[0] == 4
    assert df.loc[df.text == "delta", "line_number"].iloc[0] == 1


def test_parse_frequency():
    assert parse_frequency("5min") == 5 * 60 * 1_000_000_000
    assert parse_frequency("1h") == 3_600 * 1_000_000_000
    assert parse_frequency("s") == 1_000_000_000
    assert parse_frequency("2 d") == 2 * 86_400 * 1_000_000_000
    with pytest.raises(ValueError):
        parse_frequency("fortnight")


def test_fill_gaps():
    ts = pd.to_datetime(["2026-01-01 00:00", "2026-01-01 00:05",
                         "2026-01-01 00:15", "2026-01-01 00:20"])
    df = pd.DataFrame({"ts": ts, "v": [1.0, 2.0, 4.0, 5.0]})
    filled = fill_gaps(df, "ts", ["v"], "5min", method="linear")
    assert len(filled) == 5
    assert filled["v"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    fwd = fill_gaps(df, "ts", ["v"], "5min", method="forward")
    assert fwd["v"].tolist() == [1.0, 2.0, 2.0, 4.0, 5.0]
    zero = fill_gaps(df, "ts", ["v"], "5min", method="zero")
    assert zero["v"].tolist() == [1.0, 2.0, 0.0, 4.0, 5.0]


@pytest.mark.usefixtures("ray_session")
def test_regularize_per_key():
    import ray.data as rd
    ts = pd.to_datetime(["2026-01-01 00:00", "2026-01-01 00:10",
                         "2026-01-01 00:00", "2026-01-01 00:05"])
    df = pd.DataFrame({"k": ["a", "a", "b", "b"], "ts": ts,
                       "v": [1.0, 3.0, 10.0, 11.0]})
    out = regularize_per_key(rd.from_pandas(df), "k", "ts", ["v"],
                             "5min", method="linear").to_pandas()
    a = out[out.k == "a"].sort_values("ts")["v"].tolist()
    assert a == [1.0, 2.0, 3.0]
    assert len(out[out.k == "b"]) == 2
    with pytest.raises(ValueError, match="unknown fill method"):
        regularize_per_key(rd.from_pandas(df), "k", "ts", ["v"], "5min",
                           method="cubic")


def test_csv_row_index_and_seek(tmp_path):
    """Quote-aware row index: embedded newlines inside quoted fields must
    not become row breaks; seek lands exactly on the requested data row."""
    from ml_data_pipeline_ray.sources.readers import (build_csv_row_index,
                                                      read_csv_from_row)

    p = str(tmp_path / "q.csv")
    with open(p, "w", newline="") as f:
        f.write('id,note\n1,"line one\nline two"\n2,simple\n3,"x,y"\n')
    idx = build_csv_row_index(p)
    assert idx.size == 4                    # header + 3 data rows
    t = read_csv_from_row(p, start_row=1)
    assert t.column("id").to_pylist() == [2, 3]
    assert t.column("note").to_pylist() == ["simple", "x,y"]
    one = read_csv_from_row(p, start_row=0, num_rows=1)
    assert one.column("note").to_pylist() == ["line one\nline two"]
    assert read_csv_from_row(p, start_row=99).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_bucketed_fill_matches_pandas_kernel():
    """The vectorized multi-series bucketed fill must equal the per-key
    pandas kernel for every method on an on-grid multi-key set."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    rows = []
    base = pd.Timestamp("2026-01-01")
    for k in range(12):
        hours = np.sort(rng.choice(200, size=rng.integers(2, 30),
                                   replace=False))
        for h in hours:
            rows.append({"k": f"key-{k:02d}", "ts": base + pd.Timedelta(hours=int(h)),
                         "v": float(rng.integers(0, 100))})
    df = pd.DataFrame(rows)
    for method in ("forward", "backward", "linear", "zero", "nan"):
        got = regularize_per_key(rd.from_pandas(df), "k", "ts", ["v"],
                                 "1h", method).to_pandas()
        got = got.sort_values(["k", "ts"]).reset_index(drop=True)
        want = []
        for k, sub in df.groupby("k"):
            f = fill_gaps(sub, "ts", ["v"], "1h", method)
            f["k"] = k
            want.append(f[["k", "ts", "v"]])
        want = (pd.concat(want).sort_values(["k", "ts"])
                .reset_index(drop=True))
        pd.testing.assert_frame_equal(got[["k", "ts", "v"]], want,
                                      check_dtype=False, obj=method)


def test_avro_roundtrip_all_types(tmp_path):
    """Avro OCF writer/reader: primitives, nullable unions, unicode, both
    codecs, multi-block files (S11 — declared-only in the reference)."""
    import pyarrow as pa

    from ml_data_pipeline_ray.sources.avro import read_avro_table, write_avro

    t = pa.table({
        "i32": pa.array([1, None, -5], pa.int32()),
        "i64": pa.array([2**62, -2**62, None], pa.int64()),
        "f": pa.array([0.5, None, -1.5], pa.float32()),
        "d": pa.array([1e300, -0.0, None], pa.float64()),
        "b": pa.array([True, None, False]),
        "s": pa.array(["α", "", None]),
        "y": pa.array([b"\x00\xff", None, b""], pa.binary()),
    })
    for codec in ("null", "deflate"):
        p = str(tmp_path / f"t_{codec}.avro")
        write_avro(t, p, codec=codec, rows_per_block=2)  # forces 2 blocks
        back = read_avro_table(p)
        assert back.equals(t.cast(back.schema)), codec


def test_avro_rejects_non_avro_and_bad_sync(tmp_path):
    import pyarrow as pa
    import pytest

    from ml_data_pipeline_ray.sources.avro import read_avro_table, write_avro

    p = str(tmp_path / "x.avro")
    with open(p, "wb") as f:
        f.write(b"PAR1not-avro")
    with pytest.raises(ValueError, match="not an Avro"):
        read_avro_table(p)

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    p2 = str(tmp_path / "y.avro")
    write_avro(t, p2, codec="null")
    data = bytearray(open(p2, "rb").read())
    data[-1] ^= 0xFF                      # corrupt the trailing sync marker
    open(p2, "wb").write(bytes(data))
    with pytest.raises(ValueError, match="sync marker"):
        read_avro_table(p2)


@pytest.mark.usefixtures("ray_session")
def test_read_avro_dataset_file_parallel(tmp_path):
    import pyarrow as pa

    from ml_data_pipeline_ray.sources.avro import read_avro, write_avro

    paths = []
    for i in range(3):
        t = pa.table({"k": pa.array([i * 10 + j for j in range(10)], pa.int64()),
                      "s": pa.array([f"r{i}-{j}" for j in range(10)])})
        p = str(tmp_path / f"p{i}.avro")
        write_avro(t, p)
        paths.append(p)
    ds = read_avro(paths)
    df = ds.to_pandas().sort_values("k").reset_index(drop=True)
    assert len(df) == 30
    assert df["k"].tolist() == sorted(i * 10 + j for i in range(3) for j in range(10))


@pytest.mark.usefixtures("ray_session")
def test_write_csv_options_roundtrip(tmp_path):
    """Writer options parity: quote_style='all' survives embedded delimiters
    and quotes; bool/float/timestamp formatting and dictionary decode apply
    per type; the typed read recovers the original values."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ml_data_pipeline_ray.sources.readers import read_csv_typed, write_csv

    t = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "s": pa.array(['a,b', 'say "hi"', 'plain']),
        "d": pa.array(["x", "y", "x"]).dictionary_encode(),
        "flag": pa.array([True, False, True]),
        "v": pa.array([1.005, 2.5, -3.125], pa.float64()),
        "ts": pa.array(pd.to_datetime(["2024-01-02 03:04:05"] * 3)),
    })
    out = str(tmp_path / "csvw")
    write_csv(rd.from_arrow(t), out, quote_style="all",
              bool_format=("yes", "no"), float_precision=2,
              timestamp_format="%Y-%m-%dT%H:%M:%S")
    import glob
    files = sorted(glob.glob(out + "/*.csv"))
    raw = open(files[0]).read()
    assert '"a,b"' in raw and '"say ""hi"""' in raw     # quoting + escaping
    assert "yes" in raw and "no" in raw
    assert "2024-01-02T03:04:05" in raw
    back = read_csv_typed(files, schema=pa.schema(
        [("k", pa.int64()), ("s", pa.string()), ("d", pa.string()),
         ("flag", pa.bool_()), ("v", pa.float64()), ("ts", pa.string())]))
    df = back.to_pandas().sort_values("k").reset_index(drop=True)
    assert df["s"].tolist() == ['a,b', 'say "hi"', 'plain']
    assert df["d"].tolist() == ["x", "y", "x"]          # dictionary decoded
    assert df["flag"].tolist() == [True, False, True]
    assert np.allclose(df["v"].to_numpy(), [1.0, 2.5, -3.12], atol=0.011)
    # quote_style='none' raises when a value would need quoting
    with pytest.raises(Exception):
        write_csv(rd.from_arrow(t.select(["k", "s"])),
                  str(tmp_path / "csvn"), quote_style="none")


_PARQUET_READS = ["projection_and_filter_outside_it", "tensor_storage_schema",
                  "evolved_files", "struct_field_added", "unknown_column",
                  "filter_drops_every_row", "one_task_above_inline",
                  "streamed_above_split"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", _PARQUET_READS)
def test_read_parquet_matches_pyarrow(case, tmp_path, monkeypatch, ray_data_runs):
    """The package's Parquet reader returns what ``pyarrow.parquet`` /
    ``pyarrow.dataset`` read from the same files: a projection with a
    filter on a column outside it, a ``schema=`` that reads a
    ``fixed_shape_tensor`` column as its storage, two evolved files (a
    widened type, a column one file lacks reading as nulls), a struct
    column that gains a field, a filter that drops every row (the typed
    empty table). An unknown column raises. A
    read of at most ``INLINE_KIB`` runs in this process, a larger one of one
    task as a Ray-core task; neither starts a Ray Data executor. One above
    ``SPLIT_MIB`` streams through Ray Data. All give the same rows."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    from ml_data_pipeline_ray.sources import parquet
    from ml_data_pipeline_ray.sources.readers import read_parquet
    from ml_data_pipeline_ray.stages.exchange import collect_arrow

    n = 1000
    path = str(tmp_path / "a.parquet")
    pq.write_table(pa.table({"id": np.arange(n), "name": [f"n{i % 7}" for i in range(n)],
                             "x": np.linspace(0.0, 1.0, n)}), path, row_group_size=250)
    paths, kw = path, {}
    if case == "projection_and_filter_outside_it":
        kw = {"columns": ["id", "name"], "filter": pc.field("x") > 0.5}
        want = pds.dataset(path).to_table(**kw)
    elif case == "tensor_storage_schema":
        paths = str(tmp_path / "t.parquet")
        t = pa.FixedShapeTensorArray.from_numpy_ndarray(
            np.arange(24, dtype=np.float32).reshape(6, 4))
        pq.write_table(pa.table({"id": np.arange(6), "t": t}), paths)
        assert isinstance(pq.read_schema(paths).field("t").type, pa.FixedShapeTensorType)
        kw = {"schema": pa.schema([("id", pa.int64()), ("t", pa.list_(pa.float32(), 4))])}
        want = pa.table({"id": np.arange(6), "t": t.storage})
    elif case == "evolved_files":
        old, new = str(tmp_path / "e0.parquet"), str(tmp_path / "e1.parquet")
        pq.write_table(pa.table({"id": pa.array([0, 1], pa.int32()), "name": ["a", "b"]}), old)
        pq.write_table(pa.table({"id": pa.array([2], pa.int64()), "name": ["c"],
                                 "x": [0.5]}), new)
        paths = [old, new]
        want = pa.concat_tables([pq.read_table(p) for p in paths],
                                promote_options="permissive")
        assert want.schema.field("id").type == pa.int64()
        assert want.column("x").null_count == 2
    elif case == "struct_field_added":
        old, new = str(tmp_path / "s0.parquet"), str(tmp_path / "s1.parquet")
        pq.write_table(pa.table({"id": [0, 1], "meta": [{"model": "a"}, {"model": "b"}]}), old)
        pq.write_table(pa.table({"id": [2], "meta": [{"model": "c", "temp": 0.5}]}), new)
        paths, kw = [old, new], {"columns": ["meta", "id"], "filter": pc.field("id") >= 1}
        meta = pa.struct([("model", pa.string()), ("temp", pa.float64())])
        want = pa.table({"meta": pa.array([{"model": "b"}, {"model": "c", "temp": 0.5}], meta),
                         "id": [1, 2]})
    elif case == "unknown_column":
        with pytest.raises(pa.ArrowInvalid):
            collect_arrow(read_parquet(path, columns=["id", "nope"]))
        return
    elif case == "filter_drops_every_row":
        kw = {"columns": ["id"], "filter": pc.field("x") > 2.0}
        want = pds.dataset(path).to_table(**kw)
        assert want.num_rows == 0
    elif case == "one_task_above_inline":
        monkeypatch.setattr(parquet, "INLINE_KIB", 0)
        want = pq.read_table(path)
    else:
        monkeypatch.setattr(parquet, "SPLIT_MIB", 0)
        want = pq.read_table(path)
    got = collect_arrow(read_parquet(paths, **kw))
    assert got.schema.equals(want.schema)
    assert got.sort_by("id").equals(want.sort_by("id"))
    assert bool(ray_data_runs) == (case == "streamed_above_split")


_FORMATS = ["text", "arrow_ipc", "tfrecord", "json", "json_schema", "csv",
            "csv_comment", "avro", "http"]
#: formats whose cost is not their size: every file is its own task
_TASK_PER_FILE = ("avro", "http")


@contextlib.contextmanager
def _served(directory: str):
    """A loopback HTTP server for ``directory``; yields its base URL."""
    handler = functools.partial(http.server.SimpleHTTPRequestHandler, directory=directory)
    handler.log_message = lambda *args: None
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        thread.join(timeout=5)


def _write_format(fmt: str, d) -> tuple[list[str], object, object]:
    """Two small files of ``fmt`` in ``d``: their paths, the format's
    reader and its per-file read."""
    import pyarrow.csv as pacsv
    import pyarrow.json as pajson
    import pyarrow.parquet as pq

    from ml_data_pipeline_ray.sources import readers
    from ml_data_pipeline_ray.sources.avro import read_avro, read_avro_table, write_avro
    from ml_data_pipeline_ray.stages.transforms import align_to_schema

    parts = [pa.table({"k": pa.array(range(5 * i, 5 * i + 5), pa.int64()),
                       "s": [f"r{i}-{j}" for j in range(5)]}) for i in range(2)]
    paths = [str(d / f"p{i}.{fmt}") for i in range(2)]
    for p, t in zip(paths, parts):
        if fmt == "text":
            with open(p, "w") as f:
                f.writelines(f"  {s}  \n\n" for s in t["s"].to_pylist())
        elif fmt == "arrow_ipc":
            write_arrow_ipc(t, p)
        elif fmt == "tfrecord":
            write_tfrecords([s.encode() for s in t["s"].to_pylist()], p)
        elif fmt.startswith("json"):
            t.to_pandas().to_json(p, orient="records", lines=True)
        elif fmt.startswith("csv"):
            pacsv.write_csv(t, p)
            if fmt == "csv_comment":
                lines = open(p).read().splitlines(keepends=True)
                with open(p, "w") as f:
                    f.writelines(["# a comment\n"] + [x + "#\n" for x in lines])
        elif fmt == "avro":
            write_avro(t, p)
        else:
            pq.write_table(t, p)
    if fmt == "text":
        opts = {"trim": True, "skip_empty": True}
        return (paths, functools.partial(readers.read_text_lines, **opts),
                functools.partial(readers._read_text_file_table, **opts))
    if fmt == "arrow_ipc":
        return paths, read_arrow_ipc_dataset, read_arrow_ipc
    if fmt == "tfrecord":
        return paths, read_tfrecords, read_tfrecord_file
    if fmt == "json":
        return paths, readers.read_json_typed, pajson.read_json
    if fmt == "json_schema":
        schema = pa.schema([("k", pa.float64()), ("s", pa.string()), ("x", pa.int32())])
        return (paths, functools.partial(readers.read_json_typed, schema=schema),
                lambda p: align_to_schema(pajson.read_json(p), schema))
    if fmt.startswith("csv"):
        comment = "#" if fmt == "csv_comment" else None
        return (paths, functools.partial(readers.read_csv_typed, comment=comment),
                lambda p: parts[paths.index(p)])
    if fmt == "avro":
        return paths, read_avro, read_avro_table
    return paths, functools.partial(readers.read_http, format="parquet"), pq.read_table


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["inline", "one_task", "streamed"])
@pytest.mark.parametrize("fmt", _FORMATS)
def test_format_readers_match_their_per_file_read(fmt, case, tmp_path, monkeypatch,
                                                  ray_data_runs):
    """Every format reader returns exactly the rows of its per-file read,
    whichever path ``_file_tasks`` takes: at the call in this process (at
    most ``INLINE_KIB``), one Ray-core task (``INLINE_KIB`` at 0) or a Ray
    Data stream of a task per file (``SPLIT_MIB`` at 0). Avro and HTTP
    never read in this process: one file is one Ray-core task, several
    files a task each. Only a read of several tasks starts a Ray Data
    executor."""
    from ml_data_pipeline_ray.sources import parquet
    from ml_data_pipeline_ray.stages.exchange import collect_arrow

    paths, reader, read_one = _write_format(fmt, tmp_path)
    task_per_file = fmt in _TASK_PER_FILE
    if task_per_file and case == "one_task":
        paths = paths[:1]
    if case == "one_task":
        monkeypatch.setattr(parquet, "INLINE_KIB", 0)
    elif case == "streamed":
        monkeypatch.setattr(parquet, "SPLIT_MIB", 0)

    calls = tmp_path / "calls"
    calls.mkdir()
    file_tasks = parquet._file_tasks

    def recorded(units, read):
        def read_and_record(group):
            (calls / uuid.uuid4().hex).write_text(json.dumps([os.getpid(), len(group)]))
            return read(group)
        return file_tasks(units, read_and_record)

    monkeypatch.setattr(parquet, "_file_tasks", recorded)
    want = pa.concat_tables([read_one(p) for p in paths])
    if fmt == "http":
        with _served(str(tmp_path)) as url:
            got = collect_arrow(reader([f"{url}/{os.path.basename(p)}" for p in paths]))
    else:
        got = collect_arrow(reader(paths))

    by_all = [(c, "ascending") for c in want.column_names]
    assert got.schema.equals(want.schema)
    assert got.sort_by(by_all).equals(want.sort_by(by_all))
    reads = [json.loads(f.read_text()) for f in calls.iterdir()]
    if task_per_file or case == "streamed":
        assert sorted(n for _, n in reads) == [1] * len(paths)
    else:
        assert [n for _, n in reads] == [2]
    in_driver = case == "inline" and not task_per_file
    assert all((pid == os.getpid()) == in_driver for pid, _ in reads)
    assert bool(ray_data_runs) == (len(reads) > 1)
