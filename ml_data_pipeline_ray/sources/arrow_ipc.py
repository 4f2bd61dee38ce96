"""Arrow IPC (Feather/stream) reader + writer (SURVEY.md S5/K3 parity).

The reference's Arrow reader/writer are stubs (``ml-data/ml-data-readers/src/
arrow/reader.rs:118-143``, ``writer.rs:87-103``); here they are thin shims
over ``pyarrow.ipc`` — file format with optional zstd/lz4 compression, memory
mapping for zero-copy local reads, dictionary batches handled by Arrow.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.ipc as pipc
import ray.data as rd

from .parquet import read_files


def write_arrow_ipc(table: pa.Table, path: str,
                    compression: str | None = "zstd") -> None:
    options = pipc.IpcWriteOptions(compression=compression)
    with pipc.new_file(path, table.schema, options=options) as w:
        w.write_table(table)


def read_arrow_ipc(path: str, memory_map: bool = True) -> pa.Table:
    if memory_map:
        with pa.memory_map(path) as src:
            return pipc.open_file(src).read_all()
    with open(path, "rb") as f:
        return pipc.open_file(f).read_all()


def read_arrow_ipc_dataset(paths: str | list[str]) -> rd.Dataset:
    """IPC file(s) → Dataset, each file opened with a memory map."""
    return read_files(paths, read_arrow_ipc)
