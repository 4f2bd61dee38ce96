"""Avro Object Container File source/sink (S11 — declared-only in the
reference: the ``avro`` feature flag pulls ``apache-avro`` but no reader is
implemented, ``ml-data/ml-data-readers/Cargo.toml:12-16``, ``error.rs:26-44``).

Implemented from the public Avro 1.11 spec, container format:

    magic "Obj\\x01" | file metadata map (avro.schema JSON, avro.codec) |
    16-byte sync marker | blocks: (row count, byte size, data, sync)

Supported value types: null, boolean, int, long, float, double, bytes,
string, and 2-branch unions with null (nullable columns) inside a top-level
record — the primitive surface an ETL ingest actually uses. Codecs: null and
deflate (raw zlib, per spec).

Scale shape: the format is row-sequential WITHIN a file (varint-coded rows
can't be split), so :func:`read_avro` decodes each file in its own Ray
task, whatever its size. Decode is a per-row Python loop by necessity
(variable-length zigzag varints defeat vectorization without a C decoder;
~1 MB/s), so it never runs in the driver; keep Avro at the ingest edge and
convert to parquet for anything hot.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from .parquet import read_files

MAGIC = b"Obj\x01"
SYNC = bytes(range(16))           # deterministic writer sync marker

_PA_TO_AVRO = [
    (pa.types.is_boolean, "boolean"),
    (pa.types.is_int32, "int"),
    (pa.types.is_int64, "long"),
    (pa.types.is_float32, "float"),
    (pa.types.is_float64, "double"),
    (pa.types.is_binary, "bytes"),
    (pa.types.is_string, "string"),
]

_AVRO_TO_PA = {
    "boolean": pa.bool_(),
    "int": pa.int32(),
    "long": pa.int64(),
    "float": pa.float32(),
    "double": pa.float64(),
    "bytes": pa.binary(),
    "string": pa.string(),
}


def avro_schema_for(schema: pa.Schema, name: str = "row") -> dict:
    """Arrow schema → Avro record schema (nullable columns become
    ``["null", T]`` unions, matching Avro convention)."""
    fields = []
    for f in schema:
        avro_t = None
        for pred, t in _PA_TO_AVRO:
            if pred(f.type):
                avro_t = t
                break
        if avro_t is None:
            raise NotImplementedError(
                f"no Avro mapping for column {f.name!r} of type {f.type} "
                f"(primitive ingest surface only)")
        fields.append({"name": f.name,
                       "type": ["null", avro_t] if f.nullable else avro_t})
    return {"type": "record", "name": name, "fields": fields}


# -- binary primitives --------------------------------------------------------

def _zigzag_encode(n: int) -> bytes:
    u = (n << 1) ^ (n >> 63)
    out = bytearray()
    while True:
        b = u & 0x7F
        u >>= 7
        if u:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_long(buf, pos: int) -> tuple[int, int]:
    b = buf[pos]
    pos += 1
    n = b & 0x7F
    shift = 7
    while b & 0x80:
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        shift += 7
    return (n >> 1) ^ -(n & 1), pos


def _encode_value(avro_t, v) -> bytes:
    if isinstance(avro_t, list):                   # ["null", T]
        if v is None:
            return _zigzag_encode(0)
        return _zigzag_encode(1) + _encode_value(avro_t[1], v)
    if avro_t == "boolean":
        return b"\x01" if v else b"\x00"
    if avro_t in ("int", "long"):
        return _zigzag_encode(int(v))
    if avro_t == "float":
        return struct.pack("<f", v)
    if avro_t == "double":
        return struct.pack("<d", v)
    if avro_t == "bytes":
        return _zigzag_encode(len(v)) + bytes(v)
    if avro_t == "string":
        b = v.encode("utf-8")
        return _zigzag_encode(len(b)) + b
    raise NotImplementedError(avro_t)


def _decode_value(avro_t, buf, pos: int):
    if isinstance(avro_t, list):
        branch, pos = _read_long(buf, pos)
        if avro_t[branch] == "null":
            return None, pos
        return _decode_value(avro_t[branch], buf, pos)
    if avro_t == "null":
        return None, pos
    if avro_t == "boolean":
        return buf[pos] == 1, pos + 1
    if avro_t in ("int", "long"):
        return _read_long(buf, pos)
    if avro_t == "float":
        return struct.unpack_from("<f", buf, pos)[0], pos + 4
    if avro_t == "double":
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if avro_t == "bytes":
        n, pos = _read_long(buf, pos)
        return bytes(buf[pos:pos + n]), pos + n
    if avro_t == "string":
        n, pos = _read_long(buf, pos)
        return str(buf[pos:pos + n], "utf-8"), pos + n
    raise NotImplementedError(avro_t)


# -- writer -------------------------------------------------------------------

def write_avro(table: pa.Table, path: str, codec: str = "deflate",
               rows_per_block: int = 4096) -> None:
    """Arrow table → one Avro OCF file (K-side of the roundtrip; the
    reference has no Avro writer either — this exists so the reader has
    spec-shaped files to prove itself against)."""
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported codec {codec!r}")
    avro_schema = avro_schema_for(table.schema)
    ftypes = [f["type"] for f in avro_schema["fields"]]
    cols = [table.column(i).to_pylist() for i in range(table.num_columns)]

    meta = {"avro.schema": json.dumps(avro_schema).encode(),
            "avro.codec": codec.encode()}
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_zigzag_encode(len(meta)))
        for k, v in meta.items():
            kb = k.encode()
            f.write(_zigzag_encode(len(kb)) + kb)
            f.write(_zigzag_encode(len(v)) + v)
        f.write(_zigzag_encode(0))             # end of metadata map
        f.write(SYNC)
        n = table.num_rows
        for start in range(0, n, rows_per_block):
            stop = min(start + rows_per_block, n)
            body = b"".join(
                _encode_value(t, col[i])
                for i in range(start, stop)
                for t, col in zip(ftypes, cols))
            if codec == "deflate":
                body = zlib.compress(body)[2:-4]   # raw deflate per spec
            f.write(_zigzag_encode(stop - start))
            f.write(_zigzag_encode(len(body)))
            f.write(body)
            f.write(SYNC)


# -- reader -------------------------------------------------------------------

def read_avro_table(path: str) -> pa.Table:
    """One Avro OCF file → Arrow table (sequential decode, run inside a Ray
    task by :func:`read_avro`)."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not an Avro object container file")
    pos = 4
    meta: dict[str, bytes] = {}
    while True:
        count, pos = _read_long(buf, pos)
        if count == 0:
            break
        if count < 0:                           # spec: negative count + size
            _, pos = _read_long(buf, pos)
            count = -count
        for _ in range(count):
            klen, pos = _read_long(buf, pos)
            k = str(buf[pos:pos + klen], "utf-8")
            pos += klen
            vlen, pos = _read_long(buf, pos)
            meta[k] = bytes(buf[pos:pos + vlen])
            pos += vlen
    codec = meta.get("avro.codec", b"null").decode()
    if codec not in ("null", "deflate"):
        raise NotImplementedError(f"codec {codec!r}")
    schema = json.loads(meta["avro.schema"])
    if schema.get("type") != "record":
        raise NotImplementedError("top-level schema must be a record")
    names = [f["name"] for f in schema["fields"]]
    ftypes = [f["type"] for f in schema["fields"]]
    sync = buf[pos:pos + 16]
    pos += 16

    out: list[list] = [[] for _ in names]
    total = len(buf)
    while pos < total:
        count, pos = _read_long(buf, pos)
        size, pos = _read_long(buf, pos)
        body = buf[pos:pos + size]
        pos += size
        if buf[pos:pos + 16] != sync:
            raise ValueError(f"{path}: sync marker mismatch at {pos}")
        pos += 16
        if codec == "deflate":
            body = zlib.decompress(body, wbits=-15)
        bpos = 0
        for _ in range(count):
            for ci, t in enumerate(ftypes):
                v, bpos = _decode_value(t, body, bpos)
                out[ci].append(v)

    def pa_type(t):
        if isinstance(t, list):
            return _AVRO_TO_PA[next(x for x in t if x != "null")]
        return _AVRO_TO_PA[t]

    return pa.table({n: pa.array(vals, type=pa_type(t))
                     for n, t, vals in zip(names, ftypes, out)})


def read_avro(paths: str | list[str]) -> rd.Dataset:
    """Avro OCF file(s) → Dataset, each file decoded in its own Ray task
    (see module docstring for why rows can't split finer)."""
    return read_files(paths, read_avro_table, task_per_file=True)
