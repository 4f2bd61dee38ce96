"""Exactly-once commit + crash/resume: an interrupted transaction is
invisible; resuming from per-partition checkpoints reproduces the identical
final table (no duplicate or missing rows)."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.cdc import CDCEngine, LakeManifest, oracle_replay
from ml_data_pipeline_ray.cdc.oracle import FINAL_COLUMNS
from ml_data_pipeline_ray.cdc.replay import _lsn_bounds, _expand_paths


def _read_all(d):
    return pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(d + "/*.parquet"))],
                            promote_options="permissive")


def test_manifest_commit_is_atomic_and_versioned(tmp_path):
    lake = str(tmp_path / "lake")
    m = LakeManifest(lake)
    assert m.current_version() == 0
    m.commit(1, {0: {"file": os.path.join(lake, "data/txn-000001/pid=00000.parquet"),
                     "last_lsn": 10, "rows": 5}}, changes={})
    assert m.current_version() == 1
    assert m.checkpoints() == {0: 10}
    # stale commit rejected
    with pytest.raises(ValueError, match="stale"):
        m.commit(1, {}, changes={})
    # carry-forward of untouched partitions
    m.commit(2, {1: {"file": "data/txn-000002/pid=00001.parquet",
                     "last_lsn": 20, "rows": 3}}, changes={})
    assert m.checkpoints() == {0: 10, 1: 20}


@pytest.mark.usefixtures("ray_session")
def test_crash_before_commit_then_resume(small_fixture, tmp_path):
    lake = str(tmp_path / "lake")
    files = _expand_paths(small_fixture["changelog"])
    lo, hi = _lsn_bounds(files, "lsn")
    mid = (lo + hi) // 2

    # round 1 commits normally
    eng = CDCEngine(lake, num_partitions=8)
    m1 = eng.replay(files, lsn_max=mid)
    assert m1["committed"]
    v1 = eng.manifest.current_version()
    table_after_r1 = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]

    # round 2 "crashes" after staging files are written but before commit
    crashed = CDCEngine(lake, num_partitions=8)
    real_commit = crashed.manifest.commit
    crashed.manifest.commit = lambda *a, **k: (_ for _ in ()).throw(RuntimeError("crash"))
    with pytest.raises(RuntimeError, match="crash"):
        crashed.replay(files, lsn_min=mid)
    # staged orphan files exist on disk...
    orphans = glob.glob(os.path.join(lake, "data", f"txn-{v1+1:06d}", "*.parquet"))
    assert orphans
    # ...but the committed view is unchanged (exactly-once: phase-2 never ran)
    eng_check = CDCEngine(lake, num_partitions=8)
    assert eng_check.manifest.current_version() == v1
    pd.testing.assert_frame_equal(
        eng_check.final_table(sort=True).to_pandas()[FINAL_COLUMNS], table_after_r1)

    # resume: a fresh engine re-replays the whole log; checkpoints skip round-1
    # events, the orphaned transaction is recomputed idempotently
    resumed = CDCEngine(lake, num_partitions=8)
    removed = resumed.manifest.vacuum_orphans()
    assert removed == [f"txn-{v1+1:06d}"]
    m2 = resumed.replay(files)
    assert m2["committed"]

    got = resumed.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    assert len(got) == len(want)
    for col in FINAL_COLUMNS:
        pd.testing.assert_series_equal(
            got[col].reset_index(drop=True), want[col].reset_index(drop=True),
            check_names=False, check_dtype=False, obj=f"column {col}")


@pytest.mark.usefixtures("ray_session")
def test_resume_skips_already_applied_events(small_fixture, tmp_path):
    lake = str(tmp_path / "lake")
    files = _expand_paths(small_fixture["changelog"])
    lo, hi = _lsn_bounds(files, "lsn")
    mid = (lo + hi) // 2

    eng = CDCEngine(lake, num_partitions=8)
    r1 = eng.replay(files, lsn_max=mid)
    # resume over the FULL log: only events past each partition checkpoint apply
    r2 = eng.replay(files)
    total_events = sum(pq.read_metadata(f).num_rows for f in files)
    assert r1["events_applied"] + r2["events_applied"] < total_events  # dups+dedup
    # per-partition checkpoints advanced to the global max lsn seen per pid
    assert all(v > mid for v in eng.manifest.checkpoints().values())


def test_commit_replaces_uncommitted_crash_debris(tmp_path):
    """A manifest file left by a crashed attempt (version file written,
    _CURRENT never swung) must be replaced by the retry, not block it."""
    from ml_data_pipeline_ray.cdc.manifest import LakeManifest

    m = LakeManifest(str(tmp_path / "lake"))
    import json, os
    debris = os.path.join(m.manifest_dir, "manifest-000001.json")
    with open(debris, "w") as f:
        json.dump({"version": 1, "partitions": {"0": {"file": "junk",
                  "last_lsn": 1}}, "meta": {}, "metrics": {}}, f)
    assert m.current_version() == 0          # debris is invisible
    m.commit(1, {0: {"file": "data/txn-000001/pid=00000.parquet",
                     "last_lsn": 5, "rows": 1}}, changes={})
    assert m.current_version() == 1
    assert m.load()["partitions"]["0"]["last_lsn"] == 5   # debris replaced


def test_commit_rejects_stale_version(tmp_path):
    """Two writers racing: the loser's version check fails loudly."""
    from ml_data_pipeline_ray.cdc.manifest import LakeManifest

    a = LakeManifest(str(tmp_path / "lk"))
    b = LakeManifest(str(tmp_path / "lk"))
    entry = {"file": "data/txn-000001/pid=00000.parquet",
             "last_lsn": 1, "rows": 1}
    a.commit(1, {0: entry}, changes={})
    with pytest.raises(ValueError, match="stale transaction"):
        b.commit(1, {0: entry}, changes={})
