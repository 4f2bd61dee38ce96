"""Ray Data execution-context tuning shared by all entry points.

Ray's default ``read_op_min_num_blocks = 200`` shatters small/medium inputs
into ~1 MB blocks, and every operator downstream then pays a task per
block. We floor the block count at the CPU count instead; large inputs are
still split by ``target_max_block_size`` (128 MiB), so at 100 TB the knob
is inert. The package's file readers plan their own tasks
(``sources/parquet.py``), so in the library it governs only
``events_hive_roundtrip``'s read through Ray Data's Parquet datasource
(and ``rd.range`` in ``bench.py``).

Call :func:`tune_data_context` once after ``ray.init`` (or at import when the
driver owns the session).
"""

from __future__ import annotations

from ray.data.context import DataContext

from .stages.exchange import cluster_cpus


def tune_data_context(cpus: int | None = None,
                      progress_bars: bool = False) -> DataContext:
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = progress_bars
    if cpus is None:
        cpus = cluster_cpus()
    ctx.read_op_min_num_blocks = max(int(cpus), 8)
    return ctx
