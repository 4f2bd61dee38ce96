#!/usr/bin/env python
"""Local replica of the driver's correctness run at an arbitrary sf dir.

Usage: PYTHONPATH=. python scripts/check_correctness.py [sf_dir] [only1,only2,...]
Runs every queries() entry against its oracle_sql() in DuckDB and prints a
per-query PASS/FAIL summary (row count + sorted-value equality). An optional
second arg restricts the run to a comma-separated subset of query names.
"""

import os
import sys
import time

import duckdb
import pandas as pd

# the one canonical compare; perfbench/harness.py imports _canon and
# _to_arrow from this script
from ml_data_pipeline_ray.pipelines.registry import canon as _canon, to_arrow as _to_arrow
from ml_data_pipeline_ray.pipelines.registry import oracle_sql_at, register_views

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
ONLY = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None


def main():
    import ray
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ml_data_pipeline_ray.context import tune_data_context
    tune_data_context(ncpu)

    import __ray_entry__ as e
    from ml_data_pipeline_ray.pipelines.fixture_paths import fixture_paths, scale_for_sf_dir
    q = e.queries()
    o = e.oracle_sql()
    # the oracle reads the fixture scale of this sf dir
    scale = scale_for_sf_dir(SF_DIR)
    fixture_paths(scale); fixture_paths(scale, evolve=True)

    con = duckdb.connect()
    register_views(con, SF_DIR)

    n_pass = n_fail = 0
    for name, fn in q.items():
        if ONLY is not None and name not in ONLY:
            continue
        t0 = time.time()
        try:
            got = _canon(_to_arrow(fn(SF_DIR)))
            if name in o:
                want = _canon(con.sql(oracle_sql_at(o[name], SF_DIR)).arrow())
                assert list(got.columns) == list(want.columns), \
                    f"cols {list(got.columns)} vs {list(want.columns)}"
                assert len(got) == len(want), f"rows {len(got)} vs {len(want)}"
                pd.testing.assert_frame_equal(got, want, check_exact=True)
                status = "PASS"
            else:
                status = f"ROWS-ONLY({len(got)})"
            n_pass += 1
        except Exception as ex:
            status = f"FAIL: {str(ex)[:140]}"
            n_fail += 1
        print(f"{name:32s} {time.time()-t0:7.2f}s  {status}")
    print(f"\n{n_pass} ok, {n_fail} failed @ {SF_DIR}")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
