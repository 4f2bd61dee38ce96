"""The benchmark tools' contracts: bench.py's last line stays short and
parses, and every entry point perfbench's tracer wraps exists."""

import importlib
import json

import pytest

import bench
from perfbench.tracing import TRACED


def test_summary_line_is_compact_and_parses():
    """A full suite of 108 query walls still gives a last line under 1000
    characters that carries the headline, its phase walls and the suite's
    size and sum."""
    queries = {f"query_with_a_fairly_long_name_{i:03d}": 1.0 + i / 1000
               for i in range(108)}
    full = {"metric": "cdc_replay_wall_sec", "value": 0.912, "unit": "sec",
            "queries": queries, "queries_cold": dict(queries), "sf": 0.1,
            "num_cpus": 32, "events": 1_900_000, "events_per_sec": 2083333.3,
            "maps_s": 0.41, "merge_s": 0.38, "commit_s": 0.02}
    line = bench.summary_line(full)
    assert len(line) < 1000 < len(json.dumps(full))
    got = json.loads(line)
    assert got == {"metric": "cdc_replay_wall_sec", "value": 0.912, "unit": "sec",
                   "events": 1_900_000, "events_per_sec": 2083333.3,
                   "maps_s": 0.41, "merge_s": 0.38, "commit_s": 0.02,
                   "n_queries": 108, "suite_sum_sec": round(sum(queries.values()), 3)}


@pytest.mark.parametrize("module,attr", TRACED,
                         ids=[f"{m}:{a}" for m, a in TRACED])
def test_traced_entry_points_resolve(module, attr):
    """A renamed or deleted entry point would otherwise fail only a traced
    benchmark run, when the tracer wraps it."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
