"""End-to-end CDC replay correctness: engine final table == pandas oracle,
per-turn text equality under stable (conv_id, turn_idx) ordering
(BASELINE.json north rule)."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.cdc import CDCEngine, oracle_replay
from ml_data_pipeline_ray.cdc.oracle import FINAL_COLUMNS


def _read_all(changelog_dir: str) -> pa.Table:
    files = sorted(glob.glob(changelog_dir + "/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="permissive")


def lww_winners(tbl: pa.Table, key: list[str], lsn_col: str = "lsn",
                rank_col: str = "_rank") -> pa.Table:
    """The reference last-writer-wins reduce, independent of the engine's
    kernel: per key, the single row with max ``(lsn, rank)``."""
    tbl = tbl.sort_by([(k, "ascending") for k in key]
                      + [(lsn_col, "ascending"), (rank_col, "ascending")])
    last = ~tbl.select(key).to_pandas().duplicated(keep="last").to_numpy()
    return tbl.filter(pa.array(last))


def _assert_tables_equal(engine_df: pd.DataFrame, oracle_df: pd.DataFrame):
    assert list(engine_df.columns) == list(oracle_df.columns)
    assert len(engine_df) == len(oracle_df)
    for col in oracle_df.columns:
        a = engine_df[col].reset_index(drop=True)
        b = oracle_df[col].reset_index(drop=True)
        pd.testing.assert_series_equal(a, b, check_names=False,
                                       check_dtype=False, obj=f"column {col}")


@pytest.mark.usefixtures("ray_session")
def test_full_replay_matches_oracle(small_fixture, tmp_path):
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    metrics = eng.replay(small_fixture["changelog"])
    assert metrics["committed"]
    assert metrics["partitions_written"] == 8

    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    _assert_tables_equal(got, want)
    # text equality is byte-exact
    assert (got["text"].to_numpy() == want["text"].to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
def test_single_partition_direct_exchange_keeps_all_splits(small_fixture, tmp_path):
    """P=1 regression: with num_partitions=1 the lone merge task must receive
    every map split's output, not just the first (ADVICE r1, replay.py:468)."""
    eng = CDCEngine(str(tmp_path / "lp1"), num_partitions=1)
    m = eng.replay(small_fixture["changelog"])
    assert m["committed"]
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    _assert_tables_equal(got, want)


def _events(lsn, op, conv_id, turn_idx) -> pa.Table:
    n = len(lsn)
    text = [None if o == "delete" else f"{c}-{t}-v{l}"
            for l, o, c, t in zip(lsn, op, conv_id, turn_idx)]
    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(op, pa.string()),
        "conv_id": pa.array(conv_id, pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array([None] * n, pa.string()),
        "ts": pa.array([0] * n, pa.timestamp("us")),
    })


@pytest.mark.usefixtures("ray_session")
def test_unknown_op_fails_replay_and_commits_nothing(tmp_path):
    """An op outside insert/update/delete, or a null op, must fail the
    replay loudly rather than drop its key from the lake."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    base = str(tmp_path / "base.parquet")
    pq.write_table(_events([1], ["insert"], ["z"], [0]), base)
    assert eng.replay(base)["committed"]
    v = eng.manifest.current_version()

    bad = str(tmp_path / "bad.parquet")
    pq.write_table(_events([2, 3, 4, 5], ["insert", "UPDATE", "insert", None],
                           ["a", "a", "b", "c"], [0, 0, 0, 0]), bad)
    with pytest.raises(ValueError, match="unknown op values") as err:
        eng.replay([base, bad])
    assert "'UPDATE'" in str(err.value) and "None" in str(err.value)
    assert eng.manifest.current_version() == v
    # the failed replay recorded no file as applied: a retry reads bad again
    with pytest.raises(ValueError, match="unknown op values"):
        eng.replay([base, bad])
    assert eng.final_table().column("conv_id").to_pylist() == ["z"]


@pytest.mark.usefixtures("ray_session")
def test_hot_conversation_converges_exactly(tmp_path):
    """One conversation carries every event: its inserts, updates and
    deletes over many turns are spread across several map splits (small
    row groups, shuffled arrival), all land in one partition of P=8, and
    the final table still equals the oracle."""
    rng = np.random.default_rng(7)
    n = 6000
    turns = rng.integers(0, 300, n).tolist()
    ops = rng.choice(["insert", "update", "delete"], n, p=[0.4, 0.4, 0.2])
    lsn = rng.permutation(np.arange(1, n + 1)).tolist()
    log = _events(lsn, ops.tolist(), ["conv-hot"] * n, turns)
    path = str(tmp_path / "hot.parquet")
    pq.write_table(log, path, row_group_size=500)

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    m = eng.replay(path)
    assert m["committed"] and m["partitions_written"] == 1
    assert m["map_tasks"] >= 4
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(log)
    assert 0 < len(want) < 300
    _assert_tables_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_replay_in_rounds_converges_identically(small_fixture, tmp_path):
    lake = str(tmp_path / "lake3")
    eng = CDCEngine(lake, num_partitions=8)
    # no rounds would replay nothing
    for n in (0, -1):
        with pytest.raises(ValueError, match="num_rounds >= 1"):
            eng.replay_in_rounds(small_fixture["changelog"], num_rounds=n)
    rounds = eng.replay_in_rounds(small_fixture["changelog"], num_rounds=3)
    assert sum(r["committed"] for r in rounds) >= 1
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(_read_all(small_fixture["changelog"]))
    _assert_tables_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_idempotent_re_replay(small_fixture, tmp_path):
    """Re-running the full log over a converged lake applies zero events
    (at-least-once delivery absorbed by checkpoints + LWW). The re-run goes
    through a fresh engine, which skips no file, so the checkpoints alone
    absorb it."""
    lake = str(tmp_path / "lake4")
    eng = CDCEngine(lake, num_partitions=8)
    eng.replay(small_fixture["changelog"])
    v1 = eng.manifest.current_version()
    m2 = CDCEngine(lake, num_partitions=8).replay(small_fixture["changelog"])
    assert m2["files_skipped"] == 0
    assert m2["committed"] is False
    assert m2["events_applied"] == 0
    assert eng.manifest.current_version() == v1


@pytest.mark.usefixtures("ray_session")
def test_delete_tombstone_and_revive(small_fixture, tmp_path):
    lake = str(tmp_path / "lake5")
    eng = CDCEngine(lake, num_partitions=8)
    eng.replay(small_fixture["changelog"])
    log = _read_all(small_fixture["changelog"]).to_pandas()
    want = oracle_replay(log)
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]

    # keys whose last event is a delete are absent
    log["_rank"] = log["op"].map({"insert": 0, "update": 1, "delete": 2})
    last = (log.sort_values(["lsn", "_rank"], kind="mergesort")
            .groupby(["conv_id", "turn_idx"]).tail(1))
    deleted_keys = set(map(tuple, last.loc[last.op == "delete",
                                           ["conv_id", "turn_idx"]].to_numpy()))
    got_keys = set(map(tuple, got[["conv_id", "turn_idx"]].to_numpy()))
    assert deleted_keys and not (deleted_keys & got_keys)

    # revived keys (insert after delete) are present with the revived text
    revived = (last[(last.op == "insert")]
               .merge(log[log.op == "delete"][["conv_id", "turn_idx"]].drop_duplicates(),
                      on=["conv_id", "turn_idx"]))
    assert len(revived) > 0
    assert set(map(tuple, revived[["conv_id", "turn_idx"]].to_numpy())) <= got_keys
    assert len(got) == len(want)


def _write_lsn_slices(tbl: pa.Table, d: str, n: int, prefix: str) -> list[str]:
    """Write ``tbl`` sorted by LSN as ``n`` files of one row group each, so
    every file covers its own LSN range."""
    tbl = tbl.sort_by([("lsn", "ascending")])
    os.makedirs(d, exist_ok=True)
    edges = np.linspace(0, tbl.num_rows, n + 1).astype(int)
    out = []
    for i in range(n):
        path = os.path.join(d, f"{prefix}-{i:03d}.parquet")
        pq.write_table(tbl.slice(edges[i], edges[i + 1] - edges[i]), path)
        out.append(path)
    return out


def _planned(splits) -> list[tuple[str, int]]:
    return [(f, rg) for split in splits for f, rgs in split for rg in rgs]


def test_plan_splits_prunes_by_lsn_statistics(tmp_path):
    """Row groups wholly at or below the floor, or wholly above ``lsn_max``,
    are pruned; row groups without statistics are always kept."""
    from ml_data_pipeline_ray.cdc.replay import _plan_splits

    def write(name, lo, hi, **kw):
        path = str(tmp_path / name)
        pq.write_table(pa.table({"lsn": pa.array(range(lo, hi + 1), pa.int64())}),
                       path, row_group_size=50, **kw)
        return path

    base = [write(f"base-{i}.parquet", 100 * i + 1, 100 * (i + 1)) for i in range(3)]
    delta = write("delta.parquet", 301, 340)
    bare = write("bare.parquet", 1, 10, write_statistics=False)
    files = [*base, delta, bare]

    splits, pruned = _plan_splits(files, 16, "lsn")
    assert pruned == 0 and len(_planned(splits)) == 8

    # a tail poll over a lake checkpointed at 300: only the delta remains
    splits, pruned = _plan_splits(files, 16, "lsn", lsn_floor=300)
    assert _planned(splits) == [(delta, 0), (bare, 0)]
    assert pruned == 6

    # a round window (100, 200]: row groups 101-150 and 151-200 of base-1
    splits, pruned = _plan_splits(files, 16, "lsn", lsn_floor=100, lsn_max=200)
    assert _planned(splits) == [(base[1], 0), (base[1], 1), (bare, 0)]
    assert pruned == 5

    # nothing new at all
    splits, pruned = _plan_splits(files[:4], 16, "lsn", lsn_floor=340)
    assert splits == [] and pruned == 7


@pytest.mark.usefixtures("ray_session")
def test_replay_in_rounds_plans_only_its_window(small_fixture, tmp_path):
    """Each LSN round schedules map work only for the row groups whose
    footer LSN range meets its window, reports that count and the pruned
    rest, records both in its manifest version, and still converges."""
    from ml_data_pipeline_ray.cdc.replay import _lsn_bounds

    log = _read_all(small_fixture["changelog"])
    files = _write_lsn_slices(log, str(tmp_path / "log"), 6, "slice")
    ranges = [_lsn_bounds([f], "lsn") for f in files]
    lo, hi = _lsn_bounds(files, "lsn")
    edges = np.linspace(lo - 1, hi, 4).astype(np.int64)

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    rounds = eng.replay_in_rounds(files, num_rounds=3)
    for i, r in enumerate(rounds):
        meets = sum(f_hi > edges[i] and f_lo <= edges[i + 1]
                    for f_lo, f_hi in ranges)
        assert r["committed"]
        assert r["map_tasks"] == meets
        assert r["row_groups_pruned"] == len(files) - meets > 0
        metrics = eng.manifest.load(r["version"])["metrics"]
        assert metrics["map_tasks"] == r["map_tasks"]
        assert metrics["row_groups_pruned"] == r["row_groups_pruned"]
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    _assert_tables_equal(got, oracle_replay(log))


@pytest.mark.usefixtures("ray_session")
def test_tail_poll_schedules_only_new_row_groups(small_fixture, tmp_path):
    """After the base log is applied, a poll that finds one new segment
    plans that segment alone (the engine skips the files it applied, unread:
    no pruned row groups, input bytes of the segment only), and an idle poll
    plans nothing, commits nothing and leaves no staging directory."""
    log = _read_all(small_fixture["changelog"]).sort_by([("lsn", "ascending")])
    n_base = log.num_rows * 9 // 10
    spool = str(tmp_path / "spool")
    _write_lsn_slices(log.slice(0, n_base), spool, 4, "base")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=1)
    [first] = eng.tail(spool, max_polls=1)
    assert (first["map_tasks"], first["files_skipped"]) == (4, 0)

    [delta] = _write_lsn_slices(log.slice(n_base), spool, 1, "delta")
    [poll] = eng.tail(spool, max_polls=1)
    assert poll["committed"] and poll["events_applied"] > 0
    assert (poll["map_tasks"], poll["row_groups_pruned"], poll["files_skipped"]) == (1, 0, 4)
    md = pq.read_metadata(delta)
    assert poll["input_bytes"] == sum(md.row_group(0).column(j).total_compressed_size
                                      for j in range(md.num_columns))
    assert eng.manifest.load(poll["version"])["metrics"]["files_skipped"] == 4

    data_dir = os.path.join(eng.lake_dir, "data")
    txns = sorted(os.listdir(data_dir))
    [idle] = eng.tail(spool, max_polls=1)
    assert idle == {"version": poll["version"], "committed": False,
                    "events_applied": 0, "partitions_written": 0,
                    "map_tasks": 0, "row_groups_pruned": 0, "files_skipped": 5}
    assert sorted(os.listdir(data_dir)) == txns
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    _assert_tables_equal(got, oracle_replay(log))


@pytest.mark.usefixtures("ray_session")
def test_idle_poll_leaves_no_txn_dir(small_fixture, tmp_path):
    """With P=8 the lowest checkpoint sits below the log's last LSNs, so an
    idle poll through a fresh engine (which has applied no file) still runs
    map tasks; its merges write nothing, and no ``data/txn-*``
    directory appears for the version it did not commit. The engine that
    applied the log polls it with no task at all."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    v = eng.replay(small_fixture["changelog"])["version"]
    data_dir = os.path.join(eng.lake_dir, "data")
    assert os.listdir(data_dir) == [f"txn-{v:06d}"]
    [same] = eng.tail(small_fixture["changelog"], max_polls=1)
    assert (same["committed"], same["map_tasks"]) == (False, 0)
    polls = [CDCEngine(lake, num_partitions=8).tail(small_fixture["changelog"],
                                                    max_polls=1)[0] for _ in range(2)]
    assert [p["committed"] for p in polls] == [False, False]
    assert all(p["map_tasks"] > 0 for p in polls)
    assert os.listdir(data_dir) == [f"txn-{v:06d}"]


def _data_files(lake: str) -> dict[str, bytes]:
    """Relative path -> bytes of every data file of a lake."""
    root = os.path.join(lake, "data")
    return {os.path.relpath(f, root): open(f, "rb").read()
            for f in sorted(glob.glob(os.path.join(root, "*", "*.parquet")))}


@pytest.mark.usefixtures("ray_session")
def test_rewritten_changelog_file_is_planned_again(tmp_path):
    """A file rewritten in place is a new file to the skip (its size and
    mtime changed): the next poll plans it again and applies its new
    events, while the unchanged file beside it stays skipped."""
    spool = tmp_path / "spool"
    spool.mkdir()
    a, b = str(spool / "a.parquet"), str(spool / "b.parquet")
    pq.write_table(_events([1, 2], ["insert"] * 2, ["x", "y"], [0, 0]), a)
    pq.write_table(_events([3], ["insert"], ["z"], [0]), b)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    assert eng.replay(str(spool))["committed"]

    log = _events([3, 4, 5], ["insert", "update", "delete"], ["z", "x", "y"], [0, 0, 0])
    pq.write_table(log, b)
    m = eng.replay(str(spool))
    assert m["committed"] and m["events_applied"] == 2
    assert (m["files_skipped"], m["map_tasks"]) == (1, 1)
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    want = oracle_replay(pa.concat_tables([pq.read_table(a), log]))
    _assert_tables_equal(got, want)
    assert eng.replay(str(spool))["files_skipped"] == 2


@pytest.mark.usefixtures("ray_session")
def test_bounded_replays_record_no_applied_files(small_fixture, tmp_path):
    """Only an unbounded replay marks its files applied: after a replay
    with ``lsn_max`` or ``lsn_min``, or ``replay_in_rounds``, the next full
    replay plans every file again and the lake converges to the oracle."""
    files = sorted(glob.glob(small_fixture["changelog"] + "/*.parquet"))
    log = _read_all(small_fixture["changelog"])
    mid = int(np.median(log["lsn"].to_numpy()))
    want = oracle_replay(log)
    # the lsn_min replay follows one up to mid: checkpoints are watermarks
    bounded = [[lambda e: e.replay(files, lsn_max=mid)],
               [lambda e: e.replay(files, lsn_max=mid),
                lambda e: e.replay(files, lsn_min=mid)],
               [lambda e: e.replay_in_rounds(files, num_rounds=2)]]
    for i, before in enumerate(bounded):
        eng = CDCEngine(str(tmp_path / f"lake-{i}"), num_partitions=8)
        for replay in before:
            replay(eng)
        m = eng.replay(files)
        assert m["files_skipped"] == 0, i
        got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
        _assert_tables_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_commit_by_another_engine_replans_every_file(small_fixture, tmp_path):
    """The applied files are valid only at the lake version their replay
    left: after a second engine commits, the first one plans every file
    again, and the lake still equals the oracle."""
    log = _read_all(small_fixture["changelog"]).sort_by([("lsn", "ascending")])
    spool = str(tmp_path / "spool")
    n = log.num_rows
    _write_lsn_slices(log.slice(0, n // 2), spool, 2, "a")
    lake = str(tmp_path / "lake")
    first = CDCEngine(lake, num_partitions=8)
    assert first.replay(spool)["committed"]

    _write_lsn_slices(log.slice(n // 2, n // 4), spool, 1, "b")
    m = CDCEngine(lake, num_partitions=8).replay(spool)
    assert m["committed"] and m["files_skipped"] == 0

    _write_lsn_slices(log.slice(n // 2 + n // 4), spool, 1, "c")
    m = first.replay(spool)
    assert m["committed"] and m["files_skipped"] == 0 and m["map_tasks"] >= 2
    got = first.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    _assert_tables_equal(got, oracle_replay(log))
    assert first.replay(spool)["files_skipped"] == 4


@pytest.mark.usefixtures("ray_session")
def test_segment_without_a_column_keeps_it_in_the_delta(tmp_path):
    """A poll whose only new file lacks a payload column unifies with the
    skipped files' schemas: its delta still carries that column as nulls,
    and the lake's files are byte for byte those a fresh engine (which
    skips nothing) writes."""
    rng = np.random.default_rng(11)
    convs = [f"c{i}" for i in range(30)]
    base = _events(list(range(1, 301)), ["insert"] * 300,
                   rng.choice(convs, 300).tolist(), list(range(300)))
    seg = _events([301, 302, 303], ["update", "update", "delete"],
                  [base["conv_id"][i].as_py() for i in (0, 1, 2)], [0, 1, 2])
    seg = seg.drop_columns(["tool"])
    for lake in ("kept", "fresh"):
        spool = tmp_path / f"spool-{lake}"
        spool.mkdir()
        pq.write_table(base, str(spool / "base.parquet"))
        eng = CDCEngine(str(tmp_path / lake), num_partitions=4)
        eng.replay(str(spool))
        pq.write_table(seg, str(spool / "seg.parquet"))
        if lake == "fresh":
            eng = CDCEngine(str(tmp_path / lake), num_partitions=4)
        m = eng.replay(str(spool))
        assert m["committed"] and m["files_skipped"] == (1 if lake == "kept" else 0)
        deltas = {d["file"] for e in eng.manifest.partitions().values()
                  for d in e["deltas"]}
        assert deltas and all("tool" in pq.read_schema(d).names for d in deltas)
    assert _data_files(str(tmp_path / "kept")) == _data_files(str(tmp_path / "fresh"))


@pytest.mark.usefixtures("ray_session")
def test_merge_task_decodes_each_delta_row_group_once(tmp_path, monkeypatch):
    """Folding pids of one merge group share its delta files: the merge
    task decodes each delta file once per projection (the folds' whole
    rows, the narrow merge's keys), not once per pid, and its folds write
    the bases the engine's own fold writes."""
    import math

    from ml_data_pipeline_ray.cdc import replay as replay_mod
    from ml_data_pipeline_ray.stages.exchange import cluster_cpus, merge_groups

    P, key = 12, ["conv_id", "turn_idx"]
    groups = merge_groups(P, cluster_cpus())
    grp = list(groups[0])
    assert len(grp) >= 3, "a merge group of several pids"
    rng = np.random.default_rng(5)
    convs = [f"c{i}" for i in range(60)]

    def segment(i: int, n: int) -> str:
        path = str(tmp_path / f"seg-{i}.parquet")
        pq.write_table(_events(list(range(i * 1000 + 1, i * 1000 + n + 1)),
                               ["insert"] * n if i == 0 else
                               rng.choice(["update", "delete"], n).tolist(),
                               rng.choice(convs, n).tolist(),
                               rng.integers(0, 20, n).tolist()), path)
        return path

    monkeypatch.setattr(replay_mod, "FOLD_FRACTION", math.inf)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=P)
    for i, n in enumerate((1200, 300, 300)):
        assert eng.replay(segment(i, n))["committed"]
    parts = eng.manifest.partitions()
    deltas = {d["file"] for p in grp for d in parts[p]["deltas"]}
    assert all(len(parts[p]["deltas"]) == 2 for p in grp) and len(deltas) == 2

    # every pid of the group but the last folds; the last merges narrow
    states = [{**parts[p], "fold": p != grp[-1]} for p in grp]
    path = segment(3, 300)
    schema = pq.read_schema(path)
    bufs = replay_mod._exchange_map_task._function(
        [(path, [0])], schema, None, key, "lsn", "op", P, groups)
    payload = [n for n in schema.names if n not in ("lsn", "op")]

    calls = []
    read_row_groups = pq.ParquetFile.read_row_groups

    def counted(self, row_groups, columns=None, **kw):
        calls.append((id(self), tuple(row_groups), columns and tuple(columns)))
        return read_row_groups(self, row_groups, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counted)
    out = replay_mod._exchange_merge_task._function(
        grp, states, [int(parts[p]["last_lsn"]) for p in grp], key, "lsn", payload,
        str(tmp_path / "txn"), bufs[0])
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", read_row_groups)
    assert len(calls) == len(set(calls)) == 2 * len(deltas)

    monkeypatch.setattr(replay_mod, "FOLD_FRACTION", 0.0)
    m = eng.replay(path)
    assert m["committed"]
    after = eng.manifest.partitions()
    assert [r["rows"] for r in out["partitions"]] == [after[p]["rows"] for p in grp]
    for p in grp[:-1]:
        with open(os.path.join(tmp_path, "txn", f"pid={p:05d}.parquet"), "rb") as f:
            assert f.read() == open(after[p]["file"], "rb").read()


@pytest.mark.usefixtures("ray_session")
def test_reopen_with_different_key_raises(small_fixture, tmp_path):
    """The manifest records the upsert key; reopening the lake with another
    key would fold rows by the wrong key, so it is refused."""
    lake = str(tmp_path / "lake")
    CDCEngine(lake, num_partitions=8).replay(small_fixture["changelog"])
    CDCEngine(lake, num_partitions=8, key=["conv_id", "turn_idx"])
    with pytest.raises(ValueError, match="key"):
        CDCEngine(lake, num_partitions=8, key=["conv_id"])


@pytest.mark.usefixtures("ray_session")
def test_rows_live_counts_carried_forward_partitions(small_fixture, tmp_path):
    """A one-event segment rewrites one of P=8 partitions; ``rows_live``,
    returned and recorded in the manifest version, still counts the whole
    committed table, the seven carried-forward partitions included. The
    exchange metrics are returned and recorded beside it."""
    log = _read_all(small_fixture["changelog"]).sort_by([("lsn", "ascending")])
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    assert eng.replay(small_fixture["changelog"])["committed"]

    one = log.slice(log.num_rows - 1)
    one = one.set_column(0, "lsn", pa.array([log["lsn"][-1].as_py() + 1],
                                            log.schema.field("lsn").type))
    one = one.set_column(1, "op", pa.array(["update"], log.schema.field("op").type))
    seg = str(tmp_path / "seg.parquet")
    pq.write_table(one, seg)
    m = eng.replay([small_fixture["changelog"], seg])
    assert m["committed"] and m["partitions_written"] == 1
    assert m["events_applied"] == 1
    assert m["rows_live"] == eng.final_table().num_rows
    metrics = eng.manifest.load(m["version"])["metrics"]
    assert metrics["rows_live"] == m["rows_live"]
    assert m["exchange_bytes"] > 0 and m["maps_s"] >= 0 and m["merge_s"] >= 0
    for k in ("merge_tasks", "exchange_bytes", "maps_s", "merge_s"):
        assert metrics[k] == m[k]


def test_map_task_group_buffers_hold_their_pids_rows(tmp_path):
    """The map task's wire format: one Arrow IPC file buffer per merge
    group, whose record batch ``i`` holds exactly the combined rows of the
    group's ``i``-th pid (nested columns included), with an empty pid
    still carrying the aligned schema, and no buffer larger than the file
    of a compacted copy of its rows (up to alignment padding)."""
    import pyarrow.compute as pc

    from ml_data_pipeline_ray.cdc.replay import RANK_COL, _exchange_map_task
    from ml_data_pipeline_ray.stages.exchange import key_hash, merge_groups

    P, key = 8, ["conv_id", "turn_idx"]
    groups = merge_groups(P, 3)
    rng = np.random.default_rng(3)
    files = []
    for i in range(2):
        n = 400
        conv = rng.choice(["c-a", "c-b", "c-c"], n).tolist()
        turn = rng.integers(0, 40, n).tolist()
        log = _events((np.arange(n) + i * n + 1).tolist(),
                      rng.choice(["insert", "update", "delete"], n).tolist(),
                      conv, turn)
        log = log.append_column("meta", pa.array(
            [None if t % 7 == 0 else {"src": c, "w": float(t)}
             for c, t in zip(conv, turn)]))
        log = log.append_column("tags", pa.array(
            [None if t % 5 == 0 else [c] * (t % 3) for c, t in zip(conv, turn)],
            pa.list_(pa.string())))
        path = str(tmp_path / f"log-{i}.parquet")
        pq.write_table(log, path, row_group_size=150)
        files.append(path)
    schema = pq.read_schema(files[0])
    split = [(f, list(range(pq.ParquetFile(f).num_row_groups))) for f in files]

    bufs = _exchange_map_task._function(split, schema, None, key, "lsn", "op", P,
                                        groups)
    assert len(bufs) == len(groups) and all(isinstance(b, pa.Buffer) for b in bufs)
    readers = [pa.ipc.open_file(b) for b in bufs]
    assert [r.num_record_batches for r in readers] == [len(g) for g in groups]

    events = pa.concat_tables([pq.read_table(f) for f in files])
    rank = pc.index_in(events["op"], value_set=pa.array(["insert", "update", "delete"]))
    events = events.drop_columns(["op"]).append_column(RANK_COL, rank.cast(pa.int8()))
    want = lww_winners(events, key)

    shards = {}
    for grp, buf, r in zip(groups, bufs, readers):
        batches = [r.get_batch(i) for i in range(len(grp))]
        for pid, s in zip(grp, batches):
            assert s.schema == want.schema
            if s.num_rows:
                assert (key_hash(s, ["conv_id"]) % np.uint64(P) == pid).all()
            shards[pid] = s
        compact = pa.BufferOutputStream()
        with pa.ipc.new_file(compact, want.schema) as w:
            for s in batches:
                w.write_batch(s.take(np.arange(s.num_rows)))
        # the writer may round a sliced buffer up to Arrow's 64-byte
        # alignment (reading into the next pid's bytes); a buffer dragging
        # its parent table along would be several times larger
        n_bufs = sum(len(c.buffers()) for s in batches for c in s.columns)
        assert buf.size <= compact.getvalue().size + 64 * n_bufs
    assert sorted(shards) == list(range(P))
    assert any(s.num_rows == 0 for s in shards.values()), \
        "three conv_ids over eight pids leave some pid empty"
    got = pa.Table.from_batches(list(shards.values())).sort_by(
        [(k, "ascending") for k in key])
    assert got.equals(want)


@pytest.mark.parametrize("P,cpus", [(1, 1), (1, 4), (2, 4), (8, 3), (16, 1),
                                    (16, 4), (16, 16), (16, 32), (64, 32)])
def test_merge_groups_are_balanced_contiguous_ranges(P, cpus):
    """min(P, cpus) groups, in order, covering pids 0..P-1 once each,
    sizes differing by at most one."""
    from ml_data_pipeline_ray.stages.exchange import merge_groups

    groups = merge_groups(P, cpus)
    assert len(groups) == min(P, cpus)
    assert [p for g in groups for p in g] == list(range(P))
    assert all(g.step == 1 and len(g) for g in groups)
    sizes = [len(g) for g in groups]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("P", [1, 2, 16])
def test_grouped_merge_replay_matches_oracle(small_fixture, tmp_path, P):
    """Under the 4-CPU session a replay runs min(P, 4) merge tasks, reports
    and records that count, and its snapshot equals the oracle."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=P)
    m = eng.replay(small_fixture["changelog"])
    assert m["committed"] and m["partitions_written"] == P
    assert m["merge_tasks"] == min(P, 4)
    assert eng.manifest.load(m["version"])["metrics"]["merge_tasks"] == m["merge_tasks"]
    got = eng.final_table(sort=True).to_pandas()[FINAL_COLUMNS]
    _assert_tables_equal(got, oracle_replay(_read_all(small_fixture["changelog"])))
