"""CDC lake lifecycle: tailing, live-only partition files, time travel,
the change data feed."""

import glob
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.cdc import CDCEngine, oracle_replay
from ml_data_pipeline_ray.cdc.oracle import FINAL_COLUMNS
from ml_data_pipeline_ray.cdc.replay import LAKE_DELETED_COL


KEY = ["conv_id", "turn_idx"]


def _read_all(d):
    return pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(d + "/*.parquet"))],
                            promote_options="permissive")


def _raw_snapshot(eng, version):
    """Every partition of ``version`` read straight from disk (with
    ``_lsn``): its base file, which holds live rows only, and its deltas,
    resolved with pandas: each key keeps its highest-``_lsn`` record, and
    a key whose last record is a delete is dropped."""
    parts = []
    for e in eng.manifest.partitions(version).values():
        base = pq.read_table(e["file"])
        assert LAKE_DELETED_COL not in base.column_names
        parts.append(base)
        parts.extend(_delta_rows(d) for d in e["deltas"])
    df = pa.concat_tables(parts, promote_options="permissive").to_pandas()
    if LAKE_DELETED_COL not in df.columns:
        return df
    df = df.sort_values("_lsn", kind="mergesort").drop_duplicates(KEY, keep="last")
    df = df[df[LAKE_DELETED_COL].isna() | ~df[LAKE_DELETED_COL].astype(bool)]
    return df.drop(columns=[LAKE_DELETED_COL, "_lsn_from"]).reset_index(drop=True)


def _delta_rows(ref):
    """One pid's rows of a delta file: ``rows`` rows from ``offset`` in
    row group ``row_group``; a whole file where ``row_group`` is null."""
    pf = pq.ParquetFile(ref["file"])
    if ref["row_group"] is None:
        return pf.read()
    return pf.read_row_group(ref["row_group"]).slice(ref["offset"], ref["rows"])


def _delta_keys(entries) -> set:
    """Keys some delta of these partition entries holds a record of."""
    return {k for e in entries for d in e["deltas"]
            for k in zip(*(_delta_rows(d).column(c).to_pylist() for c in KEY))}


def _last_deleted_keys(log: pa.Table) -> set:
    """Keys whose last event (by ``(lsn, op rank)``) is a delete."""
    df = log.to_pandas()
    df["_rank"] = df["op"].map({"insert": 0, "update": 1, "delete": 2})
    last = df.sort_values(["lsn", "_rank"], kind="mergesort").groupby(KEY).tail(1)
    return set(zip(*(last.loc[last["op"] == "delete", k] for k in KEY)))


def _segment(path, rows):
    """Write ``rows`` (``(lsn, op, conv_id, turn_idx)``) as one changelog
    file of the transcript changelog's schema; deletes carry no text."""
    pq.write_table(pa.table({
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": [r[1] for r in rows], "conv_id": [r[2] for r in rows],
        "turn_idx": pa.array([r[3] for r in rows], pa.int32()),
        "role": ["user" if r[1] != "delete" else None for r in rows],
        "text": [None if r[1] == "delete" else f"t{r[3]}@{r[0]}" for r in rows],
        "tool": pa.nulls(len(rows), pa.string()),
        "ts": pa.array([None] * len(rows), pa.timestamp("us"))}), path)
    return path


def _oracle_changes(eng, v_from, v_to):
    """Pandas full-outer diff of the two raw snapshots: insert / delete by
    key presence, update where the winning ``_lsn`` differs; payload from
    ``v_to`` (null for deletes). Sorted by key."""
    old = _raw_snapshot(eng, v_from)[KEY + ["_lsn"]]
    new = _raw_snapshot(eng, v_to)
    payload = [c for c in new.columns if c not in (*KEY, "_lsn")]
    m = old.merge(new, on=KEY, how="outer", suffixes=("_from", "_to"),
                  indicator=True)
    m["change"] = m["_merge"].map({"left_only": "delete", "right_only": "insert",
                                   "both": "update"}).astype(object)
    m = m[(m["_merge"] != "both") | (m["_lsn_from"] != m["_lsn_to"])]
    for c in payload:                 # deletes' payload: None, not NaN
        if m[c].dtype == object:
            m[c] = m[c].where(m[c].notna(), None)
    return (m[KEY + ["change"] + payload].sort_values(KEY)
            .reset_index(drop=True))


def _assert_changes_exact(eng, v_from, v_to=None):
    """``table_changes`` equals the pandas oracle row for row: the exact
    insert, update and delete sets and every payload value. Returns the
    diff."""
    v_to = eng.manifest.current_version() if v_to is None else v_to
    ds = eng.table_changes(v_from, v_to)
    want = _oracle_changes(eng, v_from, v_to)
    assert ds.schema().names == list(want.columns)
    got = ds.to_pandas().sort_values(KEY).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    return got


@pytest.mark.usefixtures("ray_session")
def test_tail_applies_incrementally_arriving_files(small_fixture, tmp_path):
    """Simulate a binlog tail: LSN-ordered log segments arrive in waves (the
    WAL prefix contract — later segments only carry higher LSNs); each poll
    applies only what's new; final state equals the full-oracle replay."""
    full = _read_all(small_fixture["changelog"]).sort_by([("lsn", "ascending")])
    n = full.num_rows
    spool = str(tmp_path / "spool")
    os.makedirs(spool)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)

    applied = []
    bounds = [0, n // 3, 2 * n // 3, n]
    for i in range(3):
        seg = full.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(seg, os.path.join(spool, f"segment-{i:03d}.parquet"))
        res = eng.tail(spool, max_polls=3, idle_stop=1)
        applied.extend(res)
    assert sum(r["committed"] for r in applied) == 3
    # nothing new -> tail stops without committing
    res = eng.tail(spool, max_polls=3, idle_stop=2)
    assert all(not r["committed"] for r in res)

    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    assert len(got) == len(want)
    for col in FINAL_COLUMNS:
        pd.testing.assert_series_equal(got[col].reset_index(drop=True),
                                       want[col].reset_index(drop=True),
                                       check_names=False, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_partition_files_hold_live_rows_only(small_fixture, tmp_path):
    """Partition files store live rows only: no ``_deleted`` column, as
    many rows as the manifest records, and no key whose last event is a
    delete."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(small_fixture["changelog"])
    deleted = _last_deleted_keys(_read_all(small_fixture["changelog"]))
    assert deleted
    entries = eng.manifest.load()["partitions"]
    for pid, f in eng.manifest.partition_files().items():
        t = pq.read_table(f)
        assert LAKE_DELETED_COL not in t.column_names
        assert t.num_rows == entries[str(pid)]["rows"]
        assert not deleted & set(zip(*(t.column(k).to_pylist() for k in KEY)))


@pytest.mark.usefixtures("ray_session")
def test_late_event_below_checkpoint_cannot_revive_a_delete(tmp_path):
    """A deleted key leaves no row behind, yet a late insert below the
    partition's checkpoint must not revive it: K is inserted at LSN 1 and
    deleted at LSN 10; a later segment brings an insert of K at LSN 5 and
    a newer event of another key in the same pid."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.replay(_segment(str(tmp_path / "s0.parquet"),
                        [(1, "insert", "c-a", 0), (2, "insert", "c-a", 1)]))
    eng.replay(_segment(str(tmp_path / "s1.parquet"), [(10, "delete", "c-a", 0)]))
    v2 = eng.manifest.current_version()
    m3 = eng.replay(_segment(str(tmp_path / "s2.parquet"),
                             [(5, "insert", "c-a", 0), (11, "update", "c-a", 1)]))
    assert m3["committed"] and m3["events_applied"] == 1
    assert eng.final_table().column("turn_idx").to_pylist() == [1]
    got = _assert_changes_exact(eng, v2)
    assert dict(zip(got["turn_idx"], got["change"])) == {1: "update"}


@pytest.mark.usefixtures("ray_session")
def test_time_travel_versions(small_fixture, tmp_path):
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rounds = eng.replay_in_rounds(small_fixture["changelog"], num_rounds=2)
    v1, v2 = rounds[0]["version"], rounds[1]["version"]
    t1 = eng.final_table(sort=True, version=v1)
    t2 = eng.final_table(sort=True, version=v2)
    tcur = eng.final_table(sort=True)
    assert t2.equals(tcur)
    assert not t1.equals(t2)          # state evolved between versions
    with pytest.raises(ValueError, match="not been committed"):
        eng.final_dataset(version=99)


@pytest.mark.usefixtures("ray_session")
def test_relative_lake_root(small_fixture, tmp_path, monkeypatch):
    """A lake opened by a relative path resolves it once: its manifest
    holds lake-relative files, reads find them, and Ray tasks (whose
    working directory is not the driver's) write inside the lake."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    monkeypatch.chdir(tmp_path)
    eng = CDCEngine("lake", num_partitions=4)
    assert eng.lake_dir == str(tmp_path / "lake")
    eng.replay(files, lsn_max=(lo + hi) // 2)
    v1 = eng.manifest.current_version()
    eng.replay(files, lsn_min=(lo + hi) // 2)
    with open(os.path.join("lake", "_manifests", "manifest-000002.json")) as f:
        assert '"data/txn-000002/' in f.read()

    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True), check_dtype=False)
    assert set(_assert_changes_exact(eng, v1)["change"]) == \
        {"insert", "update", "delete"}
    with pytest.raises(ValueError, match="outside the lake"):
        eng.manifest.commit(3, {0: {"file": str(tmp_path / "elsewhere.parquet")}},
                            changes={})


@pytest.mark.usefixtures("ray_session")
def test_snapshot_of_all_deleted_lake_is_typed_empty(tmp_path):
    """Every key deleted: the committed partition files hold no rows, and
    the snapshot is an empty table of the lake's user columns and types,
    not an error or a schema-less Dataset."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.replay(_segment(str(tmp_path / "s0.parquet"),
                        [(1, "insert", "a", 0), (2, "delete", "a", 0)]))
    want = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                      ("role", pa.string()), ("text", pa.string()),
                      ("tool", pa.string()), ("ts", pa.timestamp("us"))])
    tbl = eng.final_table()
    assert tbl.num_rows == 0
    assert tbl.schema == want
    assert eng.final_dataset().schema().names == want.names


def _evolved_segment(path, rows):
    """``_segment`` in the evolved schema: int64 ``turn_idx`` and a
    ``model`` column."""
    t = pq.read_table(_segment(path, rows))
    t = t.set_column(t.column_names.index("turn_idx"), "turn_idx",
                     t.column("turn_idx").cast(pa.int64()))
    pq.write_table(t.append_column("model", pa.array(["m"] * len(rows))), path)
    return path


@pytest.mark.usefixtures("ray_session")
def test_snapshot_projection_across_schema_evolution(tmp_path):
    """A projected snapshot of a lake whose carried-forward partitions
    predate the evolved schema (int32 ``turn_idx``, no ``model``): the
    evolved type wins, and ``model`` is null on every row no evolved event
    wrote, at the current version and time-travelled to an earlier mixed
    one. The pre-evolution version reads with its own schema; an unknown
    column fails at the call."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.replay(_segment(str(tmp_path / "s0.parquet"),
                        [(i + 1, "insert", f"c{i}", 0) for i in range(12)]))
    v1 = eng.manifest.current_version()
    eng.replay(_evolved_segment(str(tmp_path / "s1.parquet"),
                                [(20, "update", "c0", 0)]))
    v2 = eng.manifest.current_version()
    eng.replay(_evolved_segment(str(tmp_path / "s2.parquet"),
                                [(21, "insert", "c0", 1)]))
    cols = ["conv_id", "turn_idx", "model"]
    # at v2 the evolved schema is in a delta only: every base predates it
    assert all("model" not in pq.read_schema(f).names
               for f in eng.manifest.partition_files(v2).values())
    for v, evolved in ((v2, {("c0", 0)}), (None, {("c0", 0), ("c0", 1)})):
        entries = eng.manifest.partitions(v).values()
        old = [e["file"] for e in entries
               if "model" not in pq.read_schema(e["file"]).names]
        assert old
        # the old bases' rows no delta supersedes
        old_keys = {k for f in old
                    for k in zip(*(pq.read_table(f).column(c).to_pylist() for c in KEY))
                    } - _delta_keys(entries)
        assert old_keys
        ds = eng.final_dataset(columns=cols, version=v)
        assert ds.schema().names == cols
        assert dict(zip(ds.schema().names, ds.schema().types))["turn_idx"] == pa.int64()
        got = ds.to_pandas()
        assert len(got) == 12 + (v is None)
        has_model = dict(zip(zip(got["conv_id"], got["turn_idx"]),
                             got["model"].notna()))
        assert {k for k, m in has_model.items() if m} == evolved
        assert not evolved & old_keys
    ds = eng.final_dataset(columns=["conv_id", "turn_idx"], version=v1)
    assert dict(zip(ds.schema().names, ds.schema().types))["turn_idx"] == pa.int32()
    with pytest.raises(ValueError, match="model"):
        eng.final_dataset(columns=cols, version=v1)
    with pytest.raises(ValueError, match="nope"):
        eng.final_dataset(columns=["conv_id", "nope"])


@pytest.mark.usefixtures("ray_session")
def test_snapshot_streams_a_partition_by_row_group(small_fixture, tmp_path):
    """A partition file of several row groups is read one row group at a
    time: with the target block size just under a row group's size, the
    one file's snapshot arrives as one block per row group (reading the
    file whole would slice it into blocks that cross row-group bounds),
    and the snapshot still equals the oracle."""
    from ray.data import DataContext

    from ml_data_pipeline_ray.cdc.replay import _read_snapshot

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=1)
    eng.replay(small_fixture["changelog"])
    (f,) = eng.manifest.partition_files().values()
    t = pq.read_table(f)
    pq.write_table(t, f, row_group_size=-(-t.num_rows // 4))
    assert pq.read_metadata(f).num_row_groups == 4

    schema = eng.final_dataset().schema().base_schema
    groups = list(_read_snapshot([{"file": f, "deltas": []}], schema, KEY, schema))
    rg_rows = [g.num_rows for g in groups]
    assert rg_rows == [pq.read_metadata(f).row_group(i).num_rows for i in range(4)]
    sizes = [g.nbytes for g in groups]
    assert max(sizes) < 1.4 * min(sizes[:-1])
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = int(0.95 * min(sizes[:-1]))
    try:
        blocks = [b.num_rows for b in eng.final_dataset().iter_batches(
            batch_size=None, batch_format="pyarrow")]
    finally:
        ctx.target_max_block_size = saved
    assert blocks == rg_rows

    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_small_reads_start_no_streaming_executor(small_fixture, tmp_path, monkeypatch,
                                                 ray_data_runs):
    """A snapshot or row diff of at most ``INLINE_KIB`` recorded bytes is
    read in the calling process; with ``INLINE_KIB`` at 0 it runs as one
    Ray-core task, which hands its blocks' metadata over with them. On both
    paths no metadata task runs (``from_arrow_refs`` is off), ``count()``
    and ``schema()`` answer from that metadata, and consuming the read
    constructs no Ray Data ``StreamingExecutor`` (one per read is what grew
    the driver's RSS). An empty-range diff keeps its typed schema so. With
    ``SPLIT_MIB`` at 0, one task per pid, the same reads stream through
    Ray Data; all three paths return the oracle's rows."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds
    from ml_data_pipeline_ray.sources import parquet

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    eng.replay(files, lsn_min=(lo + hi) // 2)
    v = eng.manifest.current_version()

    def consume(ds):
        return pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow")
                                ).sort_by([(k, "ascending") for k in KEY])

    def read_both():
        ray_data_runs.clear()
        return consume(eng.final_dataset()), consume(eng.table_changes(v - 1, v))

    def check_eager():
        got = read_both()
        assert len(ray_data_runs) == 0
        for ds, tbl in zip([eng.final_dataset(), eng.table_changes(v - 1, v)], got):
            assert ds.count() == tbl.num_rows > 0
            assert ds.schema().base_schema == tbl.schema
        empty = eng.table_changes(v, v)
        assert empty.count() == 0
        assert empty.schema().base_schema == got[1].schema
        assert len(ray_data_runs) == 0
        return got

    eager = check_eager()
    monkeypatch.setattr(parquet, "INLINE_KIB", 0)
    for a, b in zip(eager, check_eager()):
        assert a.equals(b)

    monkeypatch.setattr(parquet, "SPLIT_MIB", 0)
    streamed = read_both()
    assert len(ray_data_runs) >= 1
    for a, b in zip(eager, streamed):
        assert a.equals(b)

    snap, diff = eager
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    pd.testing.assert_frame_equal(snap.to_pandas()[FINAL_COLUMNS], want.reset_index(drop=True),
                                  check_dtype=False)
    pd.testing.assert_frame_equal(diff.to_pandas(), _oracle_changes(eng, v - 1, v),
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_table_changes_diff_and_converged_empty(small_fixture, tmp_path):
    """table_changes(v1) between the mid-LSN and final versions equals the
    brute diff of the two materialized snapshots; re-replaying a converged
    lake yields an EMPTY diff (winning LSNs unchanged everywhere)."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    v1 = eng.manifest.current_version()
    eng.replay(files, lsn_min=(lo + hi) // 2)

    got = _assert_changes_exact(eng, v1)
    assert set(got["change"]) == {"insert", "update", "delete"}

    s1 = eng.final_table(version=v1).to_pandas().set_index(KEY)
    s2 = eng.final_table().to_pandas().set_index(KEY)
    key_of = dict(zip(zip(got["conv_id"], got["turn_idx"]), got["change"]))
    assert {k for k, c in key_of.items() if c == "insert"} == \
        set(s2.index) - set(s1.index)
    assert {k for k, c in key_of.items() if c == "delete"} == \
        set(s1.index) - set(s2.index)

    # converged re-replay → empty diff
    v2 = eng.manifest.current_version()
    eng.replay(files)
    assert eng.table_changes(v_from=v2).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_table_changes_empty_diff_keeps_typed_schema(small_fixture, tmp_path):
    """A diff with no changed partition (v -> v), and one whose change file
    holds no change (a transaction that inserts and then deletes one fresh
    key), is empty but keeps the typed ``key..., change, payload...``
    schema."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(small_fixture["changelog"])
    v1 = eng.manifest.current_version()
    lsn = max(e["last_lsn"] for e in eng.manifest.load()["partitions"].values())
    assert eng.replay(_segment(str(tmp_path / "fresh.parquet"),
                               [(lsn + 1, "insert", "c-fresh", 0),
                                (lsn + 2, "delete", "c-fresh", 0)]))["committed"]
    want = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                      ("change", pa.string())])
    for v_from, v_to in [(v1, v1), (v1, v1 + 1)]:
        ds = eng.table_changes(v_from, v_to)
        assert ds.count() == 0
        schema = ds.schema()
        assert schema.names == [*KEY, "change", *FINAL_COLUMNS[2:]]
        types = dict(zip(schema.names, schema.types))
        for f in want:
            assert types[f.name] == f.type, (v_from, v_to, f)
        assert _oracle_changes(eng, v_from, v_to).empty


@pytest.mark.usefixtures("ray_session")
def test_table_changes_reports_deletes_absent_from_files(small_fixture, tmp_path):
    """A key live at v1 and deleted at v2 is absent from the v2 state on
    disk (bases and deltas resolved; a delta holds only its delete
    record); the v1 -> v2 diff must still report it as a delete."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    v1 = eng.manifest.current_version()
    eng.replay(files, lsn_min=(lo + hi) // 2)
    v2 = eng.manifest.current_version()

    got = _assert_changes_exact(eng, v1, v2)
    deleted = set(zip(*(got.loc[got["change"] == "delete", k] for k in KEY)))
    on_disk = _raw_snapshot(eng, v2)
    assert deleted
    assert not deleted & set(zip(on_disk["conv_id"], on_disk["turn_idx"]))


@pytest.mark.usefixtures("ray_session")
def test_table_changes_single_partition_lake(small_fixture, tmp_path):
    """P=1: the whole lake is one partition, so the diff is one task."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=1)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    v1 = eng.manifest.current_version()
    eng.replay(files, lsn_min=(lo + hi) // 2)
    got = _assert_changes_exact(eng, v1)
    assert set(got["change"]) == {"insert", "update", "delete"}


@pytest.mark.usefixtures("ray_session")
def test_table_changes_across_schema_evolution(tmp_path_factory, tmp_path):
    """Diff across an evolving commit: the first transaction replays only
    the pre-cutover files, so its partitions are pure v1 schema (int32
    ``turn_idx``, no ``model``); the second brings the evolved files. The
    diff must join int32 keys against int64 ones and surface the unified
    schema (``model`` present, null where the winning row predates the
    evolution), exactly equal to the pandas oracle."""
    from ml_data_pipeline_ray.fixtures import write_fixture_set

    paths = write_fixture_set(str(tmp_path_factory.mktemp("ev_diff")),
                              scale="tiny", seed=42, n_files=8, evolve=True)
    files = sorted(glob.glob(paths["changelog"] + "/*.parquet"))
    pre = [f for f in files if "model" not in pq.read_schema(f).names]
    assert 0 < len(pre) < len(files)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(pre)                             # pre-cutover: v1 schema
    v1 = eng.manifest.current_version()
    for f in eng.manifest.partition_files(v1).values():
        schema = pq.read_schema(f)
        assert schema.field("turn_idx").type == pa.int32()
        assert "model" not in schema.names
    eng.replay(files)                           # brings the evolved schema
    diff = _assert_changes_exact(eng, v1)
    schema = eng.table_changes(v1).schema()
    assert dict(zip(schema.names, schema.types))["turn_idx"] == pa.int64()
    assert set(diff["change"]) == {"insert", "update", "delete"}
    ins = diff[diff["change"] == "insert"]
    assert ins["model"].notna().any()           # evolved rows carry model


@pytest.mark.usefixtures("ray_session")
def test_incremental_view_across_tail_polls(small_fixture, tmp_path):
    """The CDC-source composition a real consumer runs: a per-conversation
    turn-count view maintained ONLY from `table_changes` diffs across three
    tail polls, checked against a full recompute of the snapshot at every
    committed version."""
    import numpy as np

    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    cuts = [lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3, hi]
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)

    view: dict = {}
    prev_v = None
    lsn_min = None
    for cut in cuts:
        eng.replay(files, lsn_min=lsn_min, lsn_max=cut)
        v = eng.manifest.current_version()
        if prev_v is None:
            snap = eng.final_table(version=v).to_pandas()
            view = snap.groupby("conv_id").size().to_dict()
        else:
            diff = eng.table_changes(v_from=prev_v, v_to=v,
                                     payload_columns=[]).to_pandas()
            for conv, ch in zip(diff["conv_id"], diff["change"]):
                view[conv] = view.get(conv, 0) + (1 if ch == "insert" else
                                                  -1 if ch == "delete" else 0)
            view = {c: n for c, n in view.items() if n > 0}
        want = (eng.final_table(version=v).to_pandas()
                .groupby("conv_id").size().to_dict())
        assert view == want, f"view diverged at version {v}"
        prev_v, lsn_min = v, cut


@pytest.mark.usefixtures("ray_session")
def test_table_changes_range_across_evolution_and_compaction(
        tmp_path_factory, tmp_path):
    """Ranges of several versions fold each key's change records: v1 -> v4
    starts at the pre-cutover lake (int32 ``turn_idx``, no ``model``) and
    spans three replays of the evolved files; it equals the two-snapshot
    pandas diff, as does v1 -> v3, and 0 -> v4 is the v4 snapshot as
    inserts."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds
    from ml_data_pipeline_ray.fixtures import write_fixture_set

    paths = write_fixture_set(str(tmp_path_factory.mktemp("ev_range")),
                              scale="tiny", seed=42, n_files=8, evolve=True)
    files = sorted(glob.glob(paths["changelog"] + "/*.parquet"))
    pre = [f for f in files if "model" not in pq.read_schema(f).names]
    lo, hi = _lsn_bounds([f for f in files if f not in pre], "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.replay(pre)
    v1 = eng.manifest.current_version()
    assert all(pq.read_schema(f).field("turn_idx").type == pa.int32()
               for f in eng.manifest.partition_files(v1).values())
    # the evolved files' deletes sit in their last tenth of LSNs: the
    # second and third replays bring some of them each, the fourth the rest
    eng.replay(files, lsn_max=hi - (hi - lo) // 20)
    eng.replay(files, lsn_max=hi - (hi - lo) // 40)
    v3 = eng.manifest.current_version()
    eng.replay(files)
    v4 = eng.manifest.current_version()
    assert v4 == v1 + 3

    got = _assert_changes_exact(eng, v1, v4)
    assert set(got["change"]) == {"insert", "update", "delete"}
    assert got.loc[got["change"] == "insert", "model"].notna().any()
    schema = eng.table_changes(v1, v4).schema()
    assert dict(zip(schema.names, schema.types))["turn_idx"] == pa.int64()
    # from the empty lake: every live row of v4, as an insert
    d0 = eng.table_changes(0, v4).to_pandas().sort_values(KEY)
    snap = eng.final_table(version=v4).to_pandas()
    assert set(d0["change"]) == {"insert"}
    pd.testing.assert_frame_equal(d0.drop(columns="change").reset_index(drop=True),
                                  snap[list(d0.columns.drop("change"))],
                                  check_dtype=False)
    _assert_changes_exact(eng, v1, v3)


@pytest.mark.usefixtures("ray_session")
def test_change_feed_files_and_manifest_records(small_fixture, tmp_path):
    """A partition's first write records its base file as its change
    record (no second copy: exactly P files in the txn dir); a later write
    records a row group of its merge group's delta file, one file per
    merge task; a version whose manifest has no ``changes`` cannot be
    diffed across."""
    import json

    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    P = 8
    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=P)
    m1 = eng.replay(files, lsn_max=(lo + hi) // 2)
    v1 = m1["version"]
    txn1 = eng.manifest.txn_data_dir(v1)
    assert len(os.listdir(txn1)) == P
    man1 = eng.manifest.load(v1)
    assert {p: e["file"] for p, e in man1["changes"].items()} == \
        {p: e["file"] for p, e in man1["partitions"].items()}
    assert all(e["row_group"] is None for e in man1["changes"].values())
    assert m1["change_bytes"] == sum(e["bytes"] for e in man1["changes"].values())
    assert man1["metrics"]["change_bytes"] == m1["change_bytes"]

    m2 = eng.replay(files)
    man2 = eng.manifest.load(m2["version"])
    assert man2["changes"] and all(e["file"].endswith(".delta.parquet")
                                   for e in man2["changes"].values())
    delta_files = {e["file"] for e in man2["changes"].values()}
    assert len(delta_files) == m2["merge_tasks"]
    assert sorted(os.listdir(eng.manifest.txn_data_dir(m2["version"]))) == \
        sorted(os.path.basename(f) for f in delta_files)
    # each file's records tile its rows: pid after pid, no gap, no overlap
    for f in delta_files:
        md = pq.read_metadata(os.path.join(eng.lake_dir, f))
        recs = sorted((e["row_group"], e["offset"], e["rows"])
                      for e in man2["changes"].values() if e["file"] == f)
        ends = {}
        for rg, off, n in recs:
            assert off == ends.get(rg, 0)
            ends[rg] = off + n
        assert ends == {rg: md.row_group(rg).num_rows for rg in range(md.num_row_groups)}
    assert 0 < m2["change_bytes"] < sum(
        os.path.getsize(f) for f in eng.manifest.partition_files().values())

    mpath = os.path.join(eng.manifest.manifest_dir,
                         f"manifest-{m2['version']:06d}.json")
    del man2["changes"]
    with open(mpath, "w") as f:
        json.dump(man2, f)
    with pytest.raises(ValueError, match="records no change files"):
        eng.table_changes(v1, m2["version"])
    assert eng.table_changes(0, v1).count() > 0


@pytest.mark.usefixtures("ray_session")
def test_table_changes_rejects_reversed_or_negative_range(small_fixture, tmp_path):
    """A reversed or negative version range is an error, not a diff; so is
    an unknown payload column."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    eng.replay(files)
    for v_from, v_to in [(2, 1), (-1, 2), (-1, None)]:
        with pytest.raises(ValueError, match="v_from <= v_to"):
            eng.table_changes(v_from, v_to)
    # a misspelt payload column is an error, not a diff without it
    with pytest.raises(ValueError, match=r"unknown payload columns \['txt'\]"):
        eng.table_changes(0, payload_columns=["role", "txt"])


@pytest.mark.usefixtures("ray_session")
def test_table_changes_across_tombstones(tmp_path):
    """A key deleted at ``v_from`` was not live: reviving it is an insert,
    and deleting it again (or deleting a key never inserted) is no change
    at all."""
    def txn(lsn0, ops):
        n = len(ops)
        return pa.table({
            "lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
            "op": [op for op, _ in ops], "conv_id": ["c-a"] * n,
            "turn_idx": pa.array([t for _, t in ops], pa.int32()),
            "text": [None if op == "delete" else f"t{t}@{lsn0}" for op, t in ops]})

    log = [txn(1, [("insert", t) for t in range(4)]),
           txn(10, [("delete", 0), ("delete", 1)]),
           txn(20, [("insert", 0), ("delete", 1), ("update", 2), ("insert", 4),
                    ("delete", 5)])]
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    for i, t in enumerate(log):
        path = str(tmp_path / f"seg-{i}.parquet")
        pq.write_table(t, path)
        assert eng.replay(path)["committed"]

    def changes(v_from, v_to):
        got = _assert_changes_exact(eng, v_from, v_to)
        return dict(zip(got["turn_idx"], got["change"]))

    assert changes(2, 3) == {0: "insert", 2: "update", 4: "insert"}
    assert changes(1, 3) == {0: "update", 1: "delete", 2: "update", 4: "insert"}
    assert changes(1, 2) == {0: "delete", 1: "delete"}


def _reference_fold(refs, schema, key):
    """The sort-based fold the per-pid ``_fold_changes`` replaced: read
    every change record of the task, sort all records by ``(key...,
    _lsn)`` and gather the winners, whatever their pid (run ends found
    with pandas, not the engine's kernel)."""
    import numpy as np
    import pyarrow.compute as pc

    from ml_data_pipeline_ray.cdc.replay import LAKE_LSN_COL, LSN_FROM_COL
    from ml_data_pipeline_ray.stages.transforms import align_to_schema

    parts = []
    for r in refs:
        t = _delta_rows(r)
        parts.append(align_to_schema(
            t.select([n for n in schema.names if n in t.column_names]), schema))
    tbl = pa.concat_tables(parts) if parts else schema.empty_table()
    tbl = tbl.sort_by([(k, "ascending") for k in key]
                      + [(LAKE_LSN_COL, "ascending")])
    ends = ~tbl.select(key).to_pandas().duplicated(keep="last").to_numpy()
    was_live = tbl.column(LSN_FROM_COL).is_valid().to_numpy(
        zero_copy_only=False)[np.roll(ends, 1)]
    is_live = ~pc.fill_null(tbl.column(LAKE_DELETED_COL), False).to_numpy(
        zero_copy_only=False)[ends]
    keep = was_live | is_live
    rows = np.flatnonzero(ends)[keep]
    was_live, is_live = was_live[keep], is_live[keep]
    change = np.where(was_live, np.where(is_live, "update", "delete"), "insert")
    payload = schema.names[len(key) + 3:]
    new = tbl.select(payload).take(pa.array(rows, mask=~is_live))
    return pa.table([*tbl.select(key).take(rows).columns,
                     pa.array(change, pa.string()), *new.columns],
                    names=[*key, "change", *payload])


def _convs_by_pid(num_partitions, n=64):
    """pid -> conversation ids the lake's partition function sends there."""
    from ml_data_pipeline_ray.stages.exchange import key_hash

    convs = [f"c{i:03d}" for i in range(n)]
    pids = key_hash(pa.table({"conv_id": convs}), ["conv_id"]) % num_partitions
    out: dict = {}
    for c, p in zip(convs, pids.tolist()):
        out.setdefault(p, []).append(c)
    return out


def _change_units(eng, v_from, v_to):
    """Each pid's change records in ``v_from+1..v_to``, in version order,
    as ``table_changes`` reads them."""
    units: dict = {}
    for v in range(v_from + 1, v_to + 1):
        for pid, e in eng.manifest.load(v)["changes"].items():
            units.setdefault(int(pid), []).append(
                {**e, "file": os.path.join(eng.lake_dir, e["file"])})
    return [units[p] for p in sorted(units)]


@pytest.mark.usefixtures("ray_session")
def test_fold_changes_matches_sort_based_fold(tmp_path):
    """The per-pid fold equals the sort-every-record fold on one task that
    mixes one-file pids (a first-write partition file, a lone change file)
    with multi-file ones, across a delete, a delete then re-insert, an
    insert then delete inside the range (dropped), an insert then delete
    inside one transaction, a null payload value and the int32 -> int64
    ``turn_idx`` / added ``model`` evolution, with full and empty payload.
    Only the row order may differ."""
    from ml_data_pipeline_ray.cdc.replay import (LAKE_LSN_COL, LSN_FROM_COL,
                                                 _fold_changes)

    by_pid = _convs_by_pid(4)
    a, b, c = by_pid[0][0], by_pid[1][0], by_pid[2][0]
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)

    def seg(name, rows, evolved=False):
        path = str(tmp_path / name)
        t = pq.read_table((_evolved_segment if evolved else _segment)(path, rows))
        text = t.column("text").to_pylist()
        text[1] = None               # the second event carries a null text
        pq.write_table(t.set_column(t.column_names.index("text"), "text",
                                    pa.array(text, pa.string())), path)
        assert eng.replay(path)["committed"]
        return eng.manifest.current_version()

    v1 = seg("s1.parquet", [(1, "insert", a, 0), (2, "insert", a, 1),
                            (3, "insert", b, 0), (4, "insert", b, 1),
                            (5, "insert", b, 2)])
    v2 = seg("s2.parquet", [(10, "update", a, 0), (13, "insert", c, 0),
                            (11, "delete", b, 0), (12, "insert", b, 3),
                            (14, "insert", b, 4), (15, "delete", b, 4)],
             evolved=True)
    v3 = seg("s3.parquet", [(20, "insert", b, 0), (21, "delete", b, 1),
                            (22, "delete", b, 3), (23, "update", b, 2)],
             evolved=True)

    for v_from, v_to in [(v1, v3), (0, v3), (v1, v2), (v2, v3), (0, v1)]:
        units = _change_units(eng, v_from, v_to)
        out = eng.table_changes(v_from, v_to).schema().base_schema
        for payload in (out.names[3:], []):
            schema = pa.schema(
                [out.field(k) for k in KEY]
                + [pa.field(LAKE_LSN_COL, pa.int64()),
                   pa.field(LAKE_DELETED_COL, pa.bool_()),
                   pa.field(LSN_FROM_COL, pa.int64())]
                + [out.field(n) for n in payload])
            got = _fold_changes(units, schema, KEY)
            want = _reference_fold([r for rs in units for r in rs], schema, KEY)
            assert got.schema == want.schema
            assert got.sort_by([(k, "ascending") for k in KEY]).equals(want), \
                (v_from, v_to, payload)

    units = _change_units(eng, v1, v3)
    assert sorted(map(len, units)) == [1, 1, 2]
    got = _fold_changes(units, schema, KEY)
    assert dict(zip(zip(*(got.column(k).to_pylist() for k in KEY)),
                    got.column("change").to_pylist())) == {
        (a, 0): "update", (b, 0): "update", (b, 1): "delete",
        (b, 2): "update", (c, 0): "insert"}
    full = _assert_changes_exact(eng, v1, v3)
    assert full["model"].notna().any()
    assert full.loc[full["conv_id"] == c, "text"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_lake_files_have_no_dictionary_pages(small_fixture, tmp_path):
    """Partition files and change files are written with plain pages: no
    column chunk carries a dictionary page."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.replay(files, lsn_max=(lo + hi) // 2)
    eng.replay(files)
    lake = glob.glob(str(tmp_path / "lake" / "data" / "*" / "*.parquet"))
    assert any(f.endswith(".delta.parquet") for f in lake)
    for f in lake:
        md = pq.read_metadata(f)
        for r in range(md.num_row_groups):
            for j in range(md.num_columns):
                assert not md.row_group(r).column(j).has_dictionary_page, (f, j)


@pytest.mark.usefixtures("ray_session")
def test_multi_version_range_with_several_pids_per_task(small_fixture, tmp_path):
    """Three replays of one log: every pid has a change file in each of the
    two later versions, and all pids' files fit in one diff task, so one
    task folds several multi-file pids; the diff still equals the pandas
    oracle."""
    from ml_data_pipeline_ray.cdc.replay import SPLIT_MIB, _lsn_bounds

    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.replay(files, lsn_max=lo + (hi - lo) // 3)
    v1 = eng.manifest.current_version()
    eng.replay(files, lsn_max=lo + 2 * (hi - lo) // 3)
    eng.replay(files)
    v3 = eng.manifest.current_version()
    assert v3 == v1 + 2
    units = _change_units(eng, v1, v3)
    assert len(units) == 4 and all(len(fs) == 2 for fs in units)
    assert sum(e["bytes"] for v in (v1 + 1, v3)
               for e in eng.manifest.load(v)["changes"].values()) < SPLIT_MIB << 20
    got = _assert_changes_exact(eng, v1, v3)
    assert set(got["change"]) == {"insert", "update", "delete"}


@pytest.mark.usefixtures("ray_session")
def test_manifest_entries_keep_the_benchmark_contract(small_fixture, tmp_path,
                                                      monkeypatch):
    """After a delta poll and after a fold, every partition entry still has
    ``file``, ``last_lsn``, ``rows`` and ``tombstones``, and ``rows`` is the
    pid's live rows (base and deltas resolved), so the benchmark's lake
    statistics, which read these fields outside an operation's guard, run
    on both commit shapes. ``replay`` reports and records how many bases it
    wrote and the bytes of the deltas it wrote."""
    import math
    import sys

    from ml_data_pipeline_ray.cdc import replay as replay_mod
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import workloads

    from ml_data_pipeline_ray.stages.exchange import key_hash

    P = 4
    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    lo, hi = _lsn_bounds(files, "lsn")
    cuts = [lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3, hi]
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=P)
    assert eng.replay(files, lsn_max=cuts[0])["bases_written"] == P
    for fold, lsn_min, lsn_max in ((math.inf, cuts[0], cuts[1]),
                                   (0.0, cuts[1], cuts[2])):
        monkeypatch.setattr(replay_mod, "FOLD_FRACTION", fold)
        m = eng.replay(files, lsn_min=lsn_min, lsn_max=lsn_max)
        man = eng.manifest.load(m["version"])
        assert man["metrics"]["bases_written"] == m["bases_written"]
        assert man["metrics"]["delta_bytes"] == m["delta_bytes"]
        entries = man["partitions"]
        if fold:
            assert m["bases_written"] == 0 and m["delta_bytes"] > 0
            assert all(len(e["deltas"]) == 1 for e in entries.values())
            assert m["delta_bytes"] == sum(e["deltas"][0]["bytes"]
                                           for e in entries.values())
        else:
            assert m["bases_written"] == P and m["delta_bytes"] == 0
            assert not any(e["deltas"] for e in entries.values())
        live = _raw_snapshot(eng, m["version"])
        pids = key_hash(pa.table({"conv_id": live["conv_id"].tolist()}), ["conv_id"]) % P
        per_pid = pd.Series(pids.astype(int)).value_counts().to_dict()
        assert sorted(entries) == [str(p) for p in range(P)]
        for pid, e in entries.items():
            assert {"file", "last_lsn", "rows", "tombstones"} <= set(e)
            assert e["rows"] == per_pid.get(int(pid), 0)
        assert m["rows_live"] == len(live) == eng.final_dataset().count()
        stats = workloads._lake_stats(eng, m["version"])
        assert stats["bytes_written"] > 0
        assert stats["rows_rewritten"] == (0 if fold else len(live))
