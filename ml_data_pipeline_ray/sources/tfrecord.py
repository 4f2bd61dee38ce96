"""TFRecord framing reader/writer (SURVEY.md S6 parity).

Record framing per the TFRecord spec (and the reference's implementation,
``ml-data/ml-data-readers/src/binary.rs:207-305``):

    uint64 LE length | uint32 LE masked-crc32(length) |
    payload bytes    | uint32 LE masked-crc32(payload)

The reference's CRC32 is a stub returning 0 (``binary.rs:385-389``); we
implement the real masked CRC32C when the ``crc32c`` lib is available and
otherwise fall back to zlib's CRC32 with the TFRecord mask. The active
implementation is surfaced as the module attribute ``CRC_IMPL``, warned
about on write, and named in CRC verification errors (NOT attached as schema
metadata — pyarrow schemas with metadata are unhashable, which defeats Ray
Data's block-schema deduplication and floods logs) — fallback-written files are internally consistent but
NOT spec-valid TFRecords, and genuine TFRecord files fail fallback
verification (read them with ``verify_crc=False``).

Output schema mirrors the reference (``binary.rs:136-355``):
``(data: binary, offset: int64, length: int32)``.
"""

from __future__ import annotations

import struct
import warnings
import zlib

import pyarrow as pa
import ray.data as rd

from .parquet import read_files

_MASK = 0xA282EAD8

try:
    import crc32c as _crc32c_mod  # not in this container; guarded

    def _crc(data: bytes) -> int:
        return _crc32c_mod.crc32c(data)
    CRC_IMPL = "crc32c"
except ImportError:
    def _crc(data: bytes) -> int:
        return zlib.crc32(data) & 0xFFFFFFFF
    CRC_IMPL = "zlib-crc32"


def masked_crc(data: bytes) -> int:
    """TFRecord masked CRC: rotate-right-15 of crc, plus mask constant."""
    c = _crc(data)
    return (((c >> 15) | (c << 17)) + _MASK) & 0xFFFFFFFF


def write_tfrecords(records: list[bytes], path: str) -> None:
    if CRC_IMPL != "crc32c":
        warnings.warn(
            f"writing TFRecords with the {CRC_IMPL} fallback — the file is "
            "internally consistent for this reader but not a spec-valid "
            "TFRecord (install crc32c for spec CRCs)", stacklevel=2)
    with open(path, "wb") as f:
        for payload in records:
            length = struct.pack("<Q", len(payload))
            f.write(length)
            f.write(struct.pack("<I", masked_crc(length)))
            f.write(payload)
            f.write(struct.pack("<I", masked_crc(payload)))


def read_tfrecord_file(path: str, verify_crc: bool = True) -> pa.Table:
    """One file → (data, offset, length) table."""
    datas, offsets, lengths = [], [], []
    with open(path, "rb") as f:
        offset = 0
        while True:
            head = f.read(8)
            if not head:
                break
            if len(head) < 8:
                raise ValueError(f"truncated length header at offset {offset}")
            (length,) = struct.unpack("<Q", head)
            (len_crc,) = struct.unpack("<I", f.read(4))
            if verify_crc and len_crc != masked_crc(head):
                raise ValueError(
                    f"length CRC mismatch at offset {offset} "
                    f"(verifier impl: {CRC_IMPL}; a genuine TFRecord file "
                    "cannot be verified with the zlib fallback)")
            payload = f.read(length)
            if len(payload) < length:
                raise ValueError(f"truncated record at offset {offset}")
            (data_crc,) = struct.unpack("<I", f.read(4))
            if verify_crc and data_crc != masked_crc(payload):
                raise ValueError(
                    f"payload CRC mismatch at offset {offset} "
                    f"(verifier impl: {CRC_IMPL}; a genuine TFRecord file "
                    "cannot be verified with the zlib fallback)")
            datas.append(payload)
            offsets.append(offset)
            lengths.append(length)
            offset += 8 + 4 + length + 4
    return pa.table({
        "data": pa.array(datas, type=pa.binary()),
        "offset": pa.array(offsets, type=pa.int64()),
        "length": pa.array(lengths, type=pa.int32()),
    })


def read_tfrecords(paths: str | list[str], verify_crc: bool = True,
                   include_path: bool = False) -> rd.Dataset:
    """TFRecord file(s) → Dataset. Framing is sequential WITHIN a file
    (same constraint as the reference), so the file is the unit of work.
    Set ``include_path`` to append the source file path per record."""

    def read_one(p: str) -> pa.Table:
        t = read_tfrecord_file(p, verify_crc)
        if include_path:
            t = t.append_column("path", pa.array([p] * t.num_rows, pa.string()))
        return t

    return read_files(paths, read_one)
