"""Property test: the merge-on-read lake (base files, deltas, folds)
against the oracle. For random multi-poll tails, every committed version's
snapshot equals ``oracle_replay`` of the events up to it, and
``table_changes(a, b)`` for every ``a < b`` equals the diff of the two
oracle states.

Every example also carries four directed cases: a key deleted and then
re-inserted, a key updated in consecutive polls, two keys of one
conversation (so of one partition) inserted at one shared LSN of which
only one is updated later (so the snapshot cannot tell superseded base
rows by LSN alone), and, from a drawn poll on, the evolved schema (int64
``turn_idx``, a ``model`` column) while the first poll's bases keep int32
and no ``model``. The fold fraction is drawn too: 0 folds a partition at
its first write after a delta, so polls alternate on both sides of a
fold; infinity never folds, so the evolved schema stays in deltas only.

The tail polls the whole log directory through one long-lived engine, which
skips the files it has applied; after every poll its snapshot and every
data file's bytes equal those of a second lake that a fresh engine (which
skips nothing) brings to the same version over the same log.
"""

import glob
import math
import os

import hypothesis.strategies as st
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings

from ml_data_pipeline_ray.cdc import CDCEngine, oracle_replay
from ml_data_pipeline_ray.cdc import replay as replay_mod

KEY = ["conv_id", "turn_idx"]
KEYS = [(f"c{c}", t) for c in range(4) for t in range(3)]
OPS = ["insert", "update", "delete"]
REVIVED, UPDATED, SHARED = ("d", 0), ("u", 0), [("s", 0), ("s", 1)]


def _event(lsn, op, key):
    return {"lsn": lsn, "op": op, "conv_id": key[0], "turn_idx": key[1],
            "role": None if op == "delete" else "user",
            "text": None if op == "delete" else f"{key[0]}/{key[1]}@{lsn}"}


@st.composite
def tails(draw):
    n_polls = draw(st.integers(min_value=3, max_value=5))
    polls, lsn = [], 0
    for p in range(n_polls):
        events = []
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            lsn += 1
            events.append(_event(lsn, draw(st.sampled_from(OPS)),
                                 draw(st.sampled_from(KEYS))))
        # delete then re-insert one key; update another in every poll
        lsn += 1
        events.append(_event(lsn, ["insert", "delete", "insert"][min(p, 2)], REVIVED))
        lsn += 1
        events.append(_event(lsn, "insert" if p == 0 else "update", UPDATED))
        if p == 0:
            lsn += 1
            events.extend(_event(lsn, "insert", k) for k in SHARED)
        elif p == 1:
            lsn += 1
            events.append(_event(lsn, "update", SHARED[0]))
        # verbatim duplicate deliveries, arbitrary arrival order
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            events.append(dict(draw(st.sampled_from(events))))
        polls.append(draw(st.permutations(events)))
    evolve_from = draw(st.integers(min_value=1, max_value=n_polls))
    fold = draw(st.sampled_from([0.0, replay_mod.FOLD_FRACTION, math.inf]))
    return polls, evolve_from, fold


def _segment(events, evolved: bool) -> pa.Table:
    df = pd.DataFrame(events)
    cols = {
        "lsn": pa.array(df["lsn"], pa.int64()),
        "op": pa.array(df["op"], pa.string()),
        "conv_id": pa.array(df["conv_id"], pa.string()),
        "turn_idx": pa.array(df["turn_idx"], pa.int64() if evolved else pa.int32()),
        "role": pa.array(df["role"], pa.string()),
        "text": pa.array(df["text"], pa.string()),
    }
    if evolved:
        cols["model"] = pa.array([None if op == "delete" else f"m{lsn % 3}"
                                  for op, lsn in zip(df["op"], df["lsn"])], pa.string())
    return pa.table(cols)


def _data_files(lake: str) -> dict[str, bytes]:
    """Relative path -> bytes of every data file of a lake."""
    root = os.path.join(lake, "data")
    return {os.path.relpath(f, root): open(f, "rb").read()
            for f in sorted(glob.glob(os.path.join(root, "*", "*.parquet")))}


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    """Rows as tuples in key order, every null as None and every key int."""
    df = df.reindex(columns=cols).astype(object)
    df = df.where(df.notna(), None)
    df["turn_idx"] = df["turn_idx"].map(int)
    return sorted(map(tuple, df.itertuples(index=False, name=None)),
                  key=lambda r: (r[0], r[1]))


def _oracle(segments: list[pa.Table], v: int) -> pd.DataFrame:
    if v == 0:
        return pd.DataFrame(columns=KEY + ["lsn"])
    log = pa.concat_tables(segments[:v], promote_options="permissive")
    return oracle_replay(log, extra_columns=["model", "lsn"])


def _oracle_diff(segments, a, b, payload) -> list[tuple]:
    old = _oracle(segments, a)[KEY + ["lsn"]].astype({"turn_idx": "int64"})
    new = _oracle(segments, b).astype({"turn_idx": "int64"})
    m = old.merge(new, on=KEY, how="outer", suffixes=("_a", "_b"), indicator=True)
    m["change"] = m["_merge"].map({"left_only": "delete", "right_only": "insert",
                                   "both": "update"}).astype(object)
    m = m[(m["_merge"] != "both") | (m["lsn_a"] != m["lsn_b"])]
    for c in payload:
        if c not in m.columns:
            m[c] = None
        m.loc[m["change"] == "delete", c] = None
    return _rows(m, KEY + ["change"] + payload)


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large])
@given(tail=tails())
def test_merge_on_read_matches_oracle(tail, tmp_path_factory, monkeypatch):
    polls, evolve_from, fold = tail
    monkeypatch.setattr(replay_mod, "FOLD_FRACTION", fold)
    root = tmp_path_factory.mktemp("mor")
    log_dir, fresh_lake = str(root / "log"), str(root / "fresh")
    os.makedirs(log_dir)
    eng = CDCEngine(str(root / "lake"), num_partitions=2)
    segments, kinds = [], []
    for p, events in enumerate(polls):
        seg = _segment(events, evolved=p >= evolve_from)
        pq.write_table(seg, os.path.join(log_dir, f"seg-{p}.parquet"))
        segments.append(seg)
        m = eng.replay(log_dir)
        assert m["committed"] and m["version"] == p + 1
        assert m["files_skipped"] == p
        fresh = CDCEngine(fresh_lake, num_partitions=2)
        assert fresh.replay(log_dir)["files_skipped"] == 0
        assert _data_files(eng.lake_dir) == _data_files(fresh_lake), p
        assert eng.final_table().equals(fresh.final_table()), p
        assert eng.manifest.load(p + 1)["metrics"]["bases_written"] == m["bases_written"]
        kinds.append((m["bases_written"], m["delta_bytes"] > 0))
    if fold == 0.0:
        # every poll after the first writes a delta or folds one
        assert all(b or d for b, d in kinds[1:]) and any(b for b, _ in kinds[2:])
    if fold == math.inf:
        # no fold: each pid's base is written once, at its first write
        assert sum(b for b, _ in kinds) == len(eng.manifest.partitions())

    n = len(polls)
    for v in range(1, n + 1):
        got = eng.final_table(version=v).to_pandas()
        cols = [c for c in ["conv_id", "turn_idx", "role", "text", "model"]
                if c in got.columns]
        assert _rows(got, cols) == _rows(_oracle(segments, v), cols), v
    for a in range(n):
        for b in range(a + 1, n + 1):
            got = eng.table_changes(a, b).to_pandas()
            payload = list(got.columns[3:])
            assert _rows(got, KEY + ["change"] + payload) == \
                _oracle_diff(segments, a, b, payload), (a, b)
