"""ml_data_pipeline_ray — a Ray-Data-native data-processing / CDC-ingest engine.

A from-scratch rebuild of the capabilities of the reference repo
``aslitaser/ml-data-pipeline`` (see SURVEY.md), re-expressed Ray-Data-first:

- ``cdc/``       — the flagship CDC / incremental-ingest engine: changelog replay
                   (binlog/WAL tail) -> hash-partitioned last-writer-wins upsert ->
                   partitioned Parquet lake with an exactly-once manifest commit,
                   per-partition checkpoints, schema evolution.
- ``fixtures/``  — deterministic seeded generators for transcript base tables and
                   CDC change logs (FIXTURES.md F1-F3).
- ``stages/``    — operator library: per-batch transforms (text analysis, dedup,
                   similarity search, predicates, casts) for ``Dataset.map_batches``.
- ``sources/``   — reader wrappers (CSV / text / parquet) mirroring the reference's
                   reader surface (SURVEY.md §2.1) on top of ``ray.data.read_*``.
- ``pipelines/`` — end-user query pipelines used by ``__ray_entry__.py`` and bench.

Nothing in this package calls ``ray.init()`` — the caller owns the Ray session.
"""

__version__ = "0.1.0"
