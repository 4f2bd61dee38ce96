"""Local replica of the driver's correctness gate: run every ``queries()``
entry at sf0.001 and compare row count + sorted values against its
``oracle_sql()`` in DuckDB (views registered like the driver does)."""

import inspect
import os
import subprocess
import sys

import duckdb
import pandas as pd
import pytest

from ml_data_pipeline_ray.pipelines.registry import (canon, oracle_sql_at,
                                                     register_views, to_arrow)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as e
    return e


@pytest.fixture(scope="module", autouse=True)
def no_keyed_ray_aggregate():
    """Every keyed aggregate runs through ``stages.groupagg.grouped_agg``:
    Ray Data's sort-based ``GroupedData.aggregate`` may only run the global
    aggregates (key ``None``) behind ``Dataset.aggregate`` / ``unique``."""
    from ray.data.grouped_data import GroupedData

    keyed = GroupedData.aggregate

    def guarded(self, *aggs):
        if self._key is not None:
            raise AssertionError(
                f"Ray Data groupby({self._key!r}).aggregate: use grouped_agg")
        return keyed(self, *aggs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroupedData, "aggregate", guarded)
        yield


@pytest.fixture(scope="module", autouse=True)
def no_actor_pool_map_batches():
    """Every ``map_batches`` stage of a registry query is a stateless task:
    a function or a callable instance, never a class (an actor pool), and
    no ``concurrency``/``compute``/constructor arguments."""
    from ray.data import Dataset

    map_batches = Dataset.map_batches
    actor_only = ("concurrency", "compute", "fn_constructor_args",
                  "fn_constructor_kwargs")

    def guarded(self, fn, *args, **kwargs):
        given = [k for k in actor_only if kwargs.get(k) is not None]
        if inspect.isclass(fn) or given:
            raise AssertionError(
                f"map_batches({getattr(fn, '__name__', fn)!r}, {given}): "
                "run the stage as a task")
        return map_batches(self, fn, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "map_batches", guarded)
        yield


@pytest.fixture(scope="module", autouse=True)
def no_hand_rolled_broadcast():
    """Driver-built state reaches a registry query's tasks by value, through
    ``fn_kwargs`` or a closure, which Ray Data puts in the object store once
    per execution: no module under ``ml_data_pipeline_ray.stages``,
    ``.state`` or ``.pipelines`` calls ``ray.put``, and no ``map_batches``
    or ``map_groups`` is handed an ``ObjectRef`` in ``fn_args``, in
    ``fn_kwargs`` or as an attribute of the callable."""
    import ray
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    library = tuple(f"ml_data_pipeline_ray.{m}"
                    for m in ("stages", "state", "pipelines"))
    put = ray.put

    def guarded_put(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith(library):
            raise AssertionError(
                f"ray.put from {caller}: pass the value through fn_kwargs")
        return put(*args, **kwargs)

    def guard(method, name):
        def guarded(self, fn, *args, **kwargs):
            given = [*(kwargs.get("fn_args") or ()),
                     *(kwargs.get("fn_kwargs") or {}).values(),
                     *getattr(fn, "__dict__", {}).values()]
            if any(isinstance(v, ray.ObjectRef) for v in given):
                raise AssertionError(
                    f"{name}({getattr(fn, '__name__', fn)!r}) handed an "
                    "ObjectRef: pass the value")
            return method(self, fn, *args, **kwargs)
        return guarded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ray, "put", guarded_put)
        mp.setattr(Dataset, "map_batches",
                   guard(Dataset.map_batches, "map_batches"))
        mp.setattr(GroupedData, "map_groups",
                   guard(GroupedData.map_groups, "map_groups"))
        yield


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    register_views(c, SF_DIR)
    return c


def _to_df(res) -> pd.DataFrame:
    # an Arrow table and a Dataset both convert
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


# Derived from the registry at collection time (a static list silently
# drifted behind new queries): every oracle-backed query is compared, every
# rows-only one at least runs.
from ml_data_pipeline_ray.pipelines import build_oracle_sql, build_queries

QUERY_NAMES = list(build_oracle_sql().keys())
ROWS_ONLY = [n for n in build_queries() if n not in set(QUERY_NAMES)]


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_query_matches_oracle(entry_mod, con, name):
    got = canon(to_arrow(entry_mod.queries()[name](SF_DIR)))
    want = canon(con.sql(oracle_sql_at(entry_mod.oracle_sql()[name], SF_DIR)).arrow())
    assert list(got.columns) == list(want.columns), \
        f"columns differ: {list(got.columns)} vs {list(want.columns)}"
    assert len(got) == len(want), f"row count {len(got)} vs {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_exact=True)


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(entry_mod, name):
    df = _to_df(entry_mod.queries()[name](SF_DIR))
    assert len(df) >= 0 and len(df.columns) >= 2


def test_entry_smoke(entry_mod):
    res = entry_mod.entry()
    df = _to_df(res)
    assert len(df) > 1000
    assert set(["conv_id", "turn_idx", "role", "text", "tool", "ts"]) \
        <= set(df.columns)


def test_every_query_has_oracle_or_documented_exception(entry_mod):
    q = set(entry_mod.queries())
    o = set(entry_mod.oracle_sql())
    assert o <= q
    assert q - o == set(ROWS_ONLY)


def test_decode_and_lm_queries_finish_in_one_cpu_session():
    """The codec, multimodal-curation and bigram-LM queries finish in a
    1-CPU Ray session (the gate script in a subprocess with its own
    session): a stage that waits for a CPU another stage holds would hang
    here, where the 4-CPU session of the other tests hides it."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "RAY_GRAFT_CPUS": "1", "PYTHONPATH": os.pathsep.join(
        [repo, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "check_correctness.py"),
         SF_DIR, "jpeg_decode_stats,multimodal_curation,docs_bigram_logprob"],
        env=env, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
    assert "3 ok, 0 failed" in proc.stdout, proc.stdout[-3000:]
