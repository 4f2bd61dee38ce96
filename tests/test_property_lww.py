"""Property-based test: for ARBITRARY event logs (random keys, ops, LSNs,
verbatim duplicate deliveries, arbitrary arrival order), engine replay ==
oracle replay.

Equal-LSN ties only ever occur as verbatim duplicates (at-least-once
delivery of the same event) — matching the delivery model; two *different*
events never share an LSN (log sequence numbers are unique by construction
in any real WAL).
"""

import hypothesis.strategies as st
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings

from ml_data_pipeline_ray.cdc import CDCEngine, oracle_replay

KEYS = [("c0", 0), ("c0", 1), ("c1", 0), ("c1", 1), ("c2", 0)]


@st.composite
def event_logs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    events = []
    for lsn in range(1, n + 1):
        key = draw(st.sampled_from(KEYS))
        op = draw(st.sampled_from(["insert", "update", "delete"]))
        events.append({
            "lsn": lsn, "op": op, "conv_id": key[0], "turn_idx": key[1],
            "role": None if op == "delete" else "user",
            "text": None if op == "delete" else f"text-{key[0]}-{key[1]}-v{lsn}",
            "tool": None,
            "ts": None if op == "delete" else pd.Timestamp("2026-01-01"),
        })
    # verbatim duplicate deliveries
    n_dup = draw(st.integers(min_value=0, max_value=5))
    for _ in range(n_dup):
        events.append(dict(draw(st.sampled_from(events))))
    # arbitrary arrival order
    perm = draw(st.permutations(range(len(events))))
    return [events[i] for i in perm]


def _to_table(events) -> pa.Table:
    df = pd.DataFrame(events)
    return pa.table({
        "lsn": pa.array(df["lsn"], pa.int64()),
        "op": pa.array(df["op"], pa.string()),
        "conv_id": pa.array(df["conv_id"], pa.string()),
        "turn_idx": pa.array(df["turn_idx"], pa.int32()),
        "role": pa.array(df["role"], pa.string()),
        "text": pa.array(df["text"], pa.string()),
        "tool": pa.array(df["tool"], pa.string()),
        "ts": pa.array(df["ts"], pa.timestamp("us")),
    })


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large])
@given(events=event_logs())
def test_random_logs_match_oracle(events, tmp_path_factory):
    tbl = _to_table(events)
    root = tmp_path_factory.mktemp("prop")
    log = str(root / "log.parquet")
    pq.write_table(tbl, log)

    eng = CDCEngine(str(root / "lake"), num_partitions=3)
    eng.replay(log)
    want = oracle_replay(tbl)
    if len(want) == 0:
        # all keys ended deleted: the committed partition files hold no
        # rows, and the snapshot is typed empty
        assert eng.final_dataset().count() == 0
        empty = eng.final_table()
        assert empty.num_rows == 0
        assert empty.schema == pa.schema(
            [f for f in tbl.schema if f.name not in ("lsn", "op")])
        return
    got = (eng.final_table(sort=True).to_pandas()
           [["conv_id", "turn_idx", "role", "text", "tool", "ts"]])
    assert len(got) == len(want)
    for col in got.columns:
        pd.testing.assert_series_equal(got[col].reset_index(drop=True),
                                       want[col].reset_index(drop=True),
                                       check_names=False, check_dtype=False,
                                       obj=f"column {col}")
