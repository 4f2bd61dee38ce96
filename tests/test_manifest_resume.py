"""Exactly-once commit + crash/resume: an interrupted transaction is
invisible; resuming from per-partition checkpoints reproduces the identical
final table (no duplicate or missing rows)."""

import glob
import math
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


# A driver that replays the last third of the log and dies with os._exit
# once the merge tasks have written and fsynced the transaction's files,
# just before manifest-N.json would be created. The crash is patched in
# here, in the driver process, and nowhere in the engine.
_CRASH_DRIVER = """
import os, sys
import ray

lake, log, lsn_min, fold = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ml_data_pipeline_ray.cdc import CDCEngine, manifest, replay

replay.FOLD_FRACTION = 0.0 if fold == "fold" else float("inf")
write = manifest._write_json_exclusive

def crash(path, obj):
    if os.path.basename(path).startswith("manifest-"):
        ray.shutdown()
        os._exit(17)
    write(path, obj)

manifest._write_json_exclusive = crash
CDCEngine(lake, num_partitions=4).replay(log, lsn_min=lsn_min)
sys.exit(1)
"""


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("shape", ["delta", "fold"])
def test_crash_after_staged_merge_files_then_resume(small_fixture, tmp_path,
                                                     monkeypatch, shape):
    """A driver killed after its merge tasks fsynced the transaction's
    delta file (and, on a fold poll, the new base files) but before the
    manifest leaves the lake at exactly the last committed version; a
    resume recomputes the transaction and converges to the oracle."""
    import subprocess
    import sys

    from ml_data_pipeline_ray.cdc import replay as replay_mod

    lake = str(tmp_path / "lake")
    files = _expand_paths(small_fixture["changelog"])
    lo, hi = _lsn_bounds(files, "lsn")
    cuts = [lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3]
    monkeypatch.setattr(replay_mod, "FOLD_FRACTION", math.inf)
    eng = CDCEngine(lake, num_partitions=4)
    eng.replay(files, lsn_max=cuts[0])
    m2 = eng.replay(files, lsn_min=cuts[0], lsn_max=cuts[1])
    assert m2["bases_written"] == 0 and m2["delta_bytes"] > 0
    v = m2["version"]
    before = eng.final_table(sort=True)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [repo, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_DRIVER, lake, small_fixture["changelog"],
         str(cuts[1]), shape], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 17, proc.stderr[-3000:]

    staged = sorted(os.listdir(os.path.join(lake, "data", f"txn-{v + 1:06d}")))
    deltas = [f for f in staged if f.endswith(".delta.parquet")]
    bases = [f for f in staged if not f.endswith(".delta.parquet")]
    assert len(deltas) == 1 and pq.read_metadata(
        os.path.join(lake, "data", f"txn-{v + 1:06d}", deltas[0])).num_rows > 0
    assert (len(bases) == 4) if shape == "fold" else not bases
    assert not os.path.exists(os.path.join(
        lake, "_manifests", f"manifest-{v + 1:06d}.json"))

    reopened = CDCEngine(lake, num_partitions=4)
    assert reopened.manifest.current_version() == v
    assert reopened.final_table(sort=True).equals(before)

    assert reopened.manifest.vacuum_orphans() == [f"txn-{v + 1:06d}"]
    monkeypatch.setattr(replay_mod, "FOLD_FRACTION",
                        0.0 if shape == "fold" else math.inf)
    m3 = reopened.replay(files, lsn_min=cuts[1])
    assert m3["committed"] and m3["version"] == v + 1
    assert (m3["bases_written"] == 4) if shape == "fold" else (m3["bases_written"] == 0)
    got = reopened.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True), check_dtype=False)
