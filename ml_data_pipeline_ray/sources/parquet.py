"""The package's file reader: plans reads from file metadata, reads in
Ray-core tasks.

:func:`read_parquet` (a unit per row group), the CDC lake's snapshot and
row diff (``cdc/replay.py``: a unit per partition) and every other source
format (:func:`read_files`: a unit per file) run on :func:`_file_tasks`;
the replay's map tasks read their changelog splits with
:class:`_LakeFiles`. Plans come from footers and file sizes alone, as
Delta Lake plans its reads from file metadata: no datasource re-plans or
samples per call.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Callable, Iterable, Iterator

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.exchange import blocks_dataset, pack_blocks, packed_dataset
from ..stages.transforms import align_to_schema  # canonical impl (widening lattice)

# upper bound on compressed input bytes per replay map task, and on the
# recorded bytes a read task takes on before it closes
SPLIT_MIB = 16
#: a read of at most this many recorded bytes runs in the calling process:
#: a task's round trip (submit, schedule, stream back) costs more CPU than
#: reading it (a ``tail`` poll's ~20 KiB row diff: ~25 -> ~19 CPU-ms over
#: the driver and its Ray processes, 1 vCPU)
INLINE_KIB = 512

Footers = dict[str, pq.FileMetaData]


def _expand_paths(paths: str | list[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".parquet")))
        else:
            out.append(p)
    return out


def _footers(files: Iterable[str] | Footers) -> Footers:
    """path -> parquet footer (metadata-only reads); footers already read
    pass through, so one replay reads each file's footer once."""
    if isinstance(files, dict):
        return files
    return {f: pq.read_metadata(f) for f in files}


def unify_parquet_schemas(files: Iterable[str] | Footers) -> pa.Schema:
    """Unified (permissively promoted) schema across parquet footers —
    metadata-only reads, cheap even for many files."""
    schemas = [md.schema.to_arrow_schema() for md in _footers(files).values()]
    return pa.unify_schemas(schemas, promote_options="permissive")


def _row_groups(files: list[str] | Footers, lsn_col: str | None):
    """Yield ``(file, rg_idx, compressed_bytes, lsn_min, lsn_max)`` for every
    row group, from parquet footers (metadata-only reads); the LSN bounds
    are ``None`` where the footer carries no statistics."""
    for f, md in _footers(files).items():
        leaves = [md.schema.column(j).path for j in range(md.num_columns)]
        idx = leaves.index(lsn_col) if lsn_col in leaves else None
        for rg in range(md.num_row_groups):
            b = _rg_bytes(md, rg)
            st = md.row_group(rg).column(idx).statistics if idx is not None else None
            if st is None or not st.has_min_max:
                yield f, rg, b, None, None
            else:
                yield f, rg, b, st.min, st.max


def _rg_bytes(md: pq.FileMetaData, rg: int) -> int:
    """Compressed bytes of row group ``rg``, from its file's footer."""
    g = md.row_group(rg)
    return sum(g.column(j).total_compressed_size for j in range(md.num_columns))


class _LakeFiles:
    """The parquet files (lake or changelog) one task reads, each opened
    once. A delta file holds the rows of every pid of its merge group, so
    the records a task wants from one file are read in one call, and each
    row-group read is decoded once per projection for the object's life:
    the folding pids of one merge task share their delta row groups, and
    each fold decodes a whole group for its own rows. Keeping the decode
    cut a merge task with 3 of 16 pids folding over 5 shared delta files
    from 79.1 to 71.4 ms CPU (median of 40, in-process, seed-41 ``tail``
    lake, 1-CPU host). Whole files (bases) are never kept, so a merge
    task's heap still holds at most one base plus its group's deltas."""

    def __init__(self):
        self._open: dict[str, pq.ParquetFile] = {}
        self._decoded: dict[tuple, pa.Table] = {}

    def open(self, path: str) -> pq.ParquetFile:
        pf = self._open.get(path)
        if pf is None:
            pf = self._open[path] = pq.ParquetFile(path)
        return pf

    def read(self, refs: list[dict], columns: list[str] | None = None,
             schema: pa.Schema | None = None) -> list[pa.Table]:
        """The rows of each record of ``refs``, in order: ``{file,
        row_group: None}`` is a whole file, ``{file, row_group}`` one whole
        row group, ``{file, row_group, offset, rows}`` a pid's rows of a
        delta file. Read single-threaded (one task is one CPU's work),
        projected to the ``columns`` (or ``schema`` columns) the file has
        and aligned to ``schema`` if given."""
        cols = schema.names if schema is not None else columns
        todo: dict[str, dict] = {}
        for r in refs:
            todo.setdefault(r["file"], {})[r["row_group"]] = None
        got = {}
        for path, rgs in todo.items():
            pf = self.open(path)
            rgs = list(rgs)
            names = pf.schema_arrow.names
            proj = None if cols is None else [c for c in cols if c in names]
            if rgs == [None]:
                t = pf.read(columns=proj, use_threads=False)
            else:
                k = (path, tuple(rgs), None if proj is None else tuple(proj))
                t = self._decoded.get(k)
                if t is None:
                    t = self._decoded[k] = pf.read_row_groups(
                        rgs, columns=proj, use_threads=False)
            if schema is not None:
                t = align_to_schema(t, schema)
            start = 0
            for rg in rgs:
                n = t.num_rows if rg is None else pf.metadata.row_group(rg).num_rows
                got[path, rg] = t.slice(start, n)
                start += n
        return [got[r["file"], r["row_group"]].slice(r.get("offset", 0),
                                                     r.get("rows"))
                for r in refs]


def _file_tasks(units: Iterable[tuple[Any, int]], read) -> rd.Dataset:
    """One task per group of ``(unit, recorded_bytes)`` pairs, taken in
    order until the group holds ``SPLIT_MIB`` bytes (no unit is split).
    ``read(units)`` gets the group's units (JSON values naming the files
    to read), in order, and returns a table or yields tables.

    The recorded bytes choose the path. A read of at most
    :data:`INLINE_KIB` (a plan of no units too) runs at the call in this
    process, which puts its blocks in the object store
    (:func:`~..stages.exchange.packed_dataset`). A larger read that plans
    into one task runs at the call as one Ray-core task
    (:func:`_read_task`) that yields its blocks and then their metadata,
    and is handed over as the executed Dataset of
    :func:`~..stages.exchange.blocks_dataset`. Either way a bad file
    raises here, the hand-over runs no metadata task per block and builds
    one Dataset, and consuming it starts no Ray Data streaming executor
    (one per read grew the driver's RSS; see ROADMAP direction 3). A read
    of several tasks streams, so it is never held in the object store at
    once: one Ray Data task per group, whose tables Ray Data emits as
    blocks of at most its target block size."""
    tasks: list[list] = []
    budget = 0
    for unit, nbytes in units:
        if not tasks or budget >= SPLIT_MIB << 20:
            tasks.append([])
            budget = 0
        tasks[-1].append(unit)
        budget += nbytes

    if len(tasks) <= 1:
        target = rd.DataContext.get_current().target_max_block_size
        units = tasks[0] if tasks else []
        if budget <= INLINE_KIB << 10:
            *blocks, meta = pack_blocks(_tables(read(units)), target)
            return packed_dataset([ray.put(b) for b in blocks], meta)
        return blocks_dataset([_read_task.remote(units, read, target)])

    def run(batch: pa.Table):
        return read(json.loads(batch["units"][0].as_py()))

    # as JSON text, every task's item has one Arrow type, however its
    # units nest
    return rd.from_items([{"units": json.dumps(t)} for t in tasks],
                         override_num_blocks=len(tasks)).map_batches(
        run, batch_size=1, batch_format="pyarrow")


@ray.remote(num_returns="streaming")
def _read_task(units: list, read, max_block_bytes: int | None
               ) -> Iterator[pa.Table | list]:
    """The one task of a small read: yield the tables of ``read(units)``
    packed into blocks of at most ``max_block_bytes``, then their metadata
    (:func:`~..stages.exchange.pack_blocks`), so no row group is split
    across blocks. Every read returns at least one (maybe empty) table, so
    an empty read is one typed empty block."""
    yield from pack_blocks(_tables(read(units)), max_block_bytes)


def _tables(out: pa.Table | Iterable[pa.Table]) -> Iterable[pa.Table]:
    return [out] if isinstance(out, pa.Table) else out


def read_files(paths: str | list[str], read_one: Callable[[str], pa.Table],
               task_per_file: bool = False) -> rd.Dataset:
    """The files ``paths`` as a Dataset of ``read_one(path)`` each, in
    order: a file is one unit of :func:`_file_tasks`, sized by its bytes on
    disk, so a small read runs at the call. ``task_per_file`` is for reads
    whose cost is not their size (a pure-Python decode, a download): each
    file is then its own Ray task, and none is read in this process."""
    if isinstance(paths, str):
        paths = [paths]
    return _file_tasks(((p, math.inf if task_per_file else os.path.getsize(p))
                        for p in paths),
                       lambda units: (read_one(p) for p in units))


def read_parquet(paths: str | list[str], columns: list[str] | None = None,
                 filter: pds.Expression | None = None,
                 schema: pa.Schema | None = None) -> rd.Dataset:
    """Parquet file(s), or a directory's ``.parquet`` files, as a Dataset.
    Each row group is one unit of :func:`_file_tasks`, sized by its footer
    bytes and scanned alone as a ``pyarrow.dataset`` fragment, the scan Ray
    Data's datasource runs: ``filter`` may name a column outside
    ``columns``, an unknown column raises, and a row group whose statistics
    rule the filter out is skipped undecoded (the reference's zonemap
    pushdown, ``parquet/predicates.rs:336-375``). Rows are read as
    ``schema``, by default the files' unified schema without metadata
    (types widen, a struct gains fields; a column a file lacks reads as
    nulls). A read where no row survives yields the typed empty table
    (every unit reads as one)."""
    footers = _footers(_expand_paths(paths))
    if schema is None:
        schema = unify_parquet_schemas(footers).remove_metadata()
    out = schema if columns is None else pa.schema(
        [schema.field(c) for c in columns if c in schema.names])
    # a fragment scans in its file's own types, since Arrow's scan cannot
    # cast a struct that gained a field, and ``align_to_schema`` widens
    own = {}
    for f, md in footers.items():
        have = md.schema.to_arrow_schema()
        own[f] = pa.schema([have.field(x.name) if x.name in have.names else x
                            for x in schema])

    def scan(units: list[dict]) -> Iterator[pa.Table]:
        fmt = pds.ParquetFileFormat()
        for u in units:
            frag = fmt.make_fragment(u["file"], filesystem=pafs.LocalFileSystem(),
                                     row_groups=[u["row_group"]])
            yield align_to_schema(frag.to_table(schema=own[u["file"]], columns=columns,
                                                filter=filter, use_threads=False), out)

    return _file_tasks((({"file": f, "row_group": rg}, b)
                        for f, rg, b, _, _ in _row_groups(footers, None)), scan)
