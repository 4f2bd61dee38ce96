#!/usr/bin/env python
"""`ray job submit` entry point for the CDC replay engine (north rule: "run
via ray job submit on a fixed-size multi-node Ray cluster").

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/replay_job.py --changelog /lake/changelog \
        --lake /lake/transcripts --partitions 256 [--rounds 8]

Connects to the cluster Ray (RAY_ADDRESS from the job runtime; falls back to
a local session when run standalone), replays the changelog into the lake
with the exactly-once manifest, prints ONE JSON line of metrics (events,
wall, events/sec, partitions, committed version, map tasks scheduled and
row groups pruned by the LSN pushdown, merge tasks run, input, exchanged
group-buffer and change-file bytes, map, merge and commit phase walls), and
exits non-zero on failure. Rerunning after a crash resumes from the
per-partition LSN checkpoints recorded in the manifest — the idempotent
at-least-once delivery contract the engine is built around.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--changelog", required=True,
                    help="dir (or file) of changelog parquet to replay")
    ap.add_argument("--lake", required=True,
                    help="lake root the replay upserts into")
    ap.add_argument("--partitions", type=int, default=64,
                    help="lake hash partitions (fixed per lake)")
    ap.add_argument("--rounds", type=int, default=0,
                    help="replay in N LSN-bounded rounds (0 = single round);"
                         " bounds merge state at 10^10-event scale")
    ap.add_argument("--diff-from", type=int, default=None, metavar="V",
                    help="instead of replaying, emit the row diff of the "
                         "existing lake from version V to --diff-to (lake "
                         "as a CDC source: insert/update/delete counts + "
                         "output parquet via --diff-out)")
    ap.add_argument("--diff-to", type=int, default=None, metavar="V",
                    help="target version for --diff-from (default: current)")
    ap.add_argument("--diff-out", default=None,
                    help="directory to write the diff rows as parquet")
    args = ap.parse_args()

    import ray

    # the job runtime owns the session on a cluster; standalone falls back
    if not ray.is_initialized():
        ray.init(ignore_reinit_error=True)

    from ml_data_pipeline_ray.context import tune_data_context
    tune_data_context()

    from ml_data_pipeline_ray.cdc import CDCEngine

    eng = CDCEngine(args.lake, num_partitions=args.partitions)

    if args.diff_from is not None:
        t0 = time.perf_counter()
        ds = eng.table_changes(v_from=args.diff_from, v_to=args.diff_to)
        if args.diff_out:
            ds = ds.materialize()
            ds.write_parquet(args.diff_out)
        from ml_data_pipeline_ray.stages.groupagg import grouped_agg
        counts = {r["change"]: r["n"] for r in grouped_agg(
            ds, keys=["change"], aggs=[(None, "count_star", "n")]).take_all()}
        wall = time.perf_counter() - t0
        print(json.dumps({
            "metric": "table_changes_wall_sec", "value": round(wall, 3),
            "unit": "sec", "from_version": args.diff_from,
            "to_version": args.diff_to or eng.manifest.current_version(),
            "inserts": counts.get("insert", 0),
            "updates": counts.get("update", 0),
            "deletes": counts.get("delete", 0),
            "out": args.diff_out,
        }))
        ray.shutdown()
        return 0

    t0 = time.perf_counter()
    if args.rounds > 1:
        rounds = eng.replay_in_rounds(args.changelog, num_rounds=args.rounds)
        result = {
            "version": rounds[-1]["version"],
            "committed": all(r["committed"] or r["events_applied"] == 0
                             for r in rounds),
            "events_applied": sum(r["events_applied"] for r in rounds),
            "partitions_written": rounds[-1].get("partitions_written", 0),
            # the last committed round's count covers the whole table
            "rows_live": next((r["rows_live"] for r in reversed(rounds)
                               if "rows_live" in r), None),
            "map_tasks": sum(r["map_tasks"] for r in rounds),
            "merge_tasks": sum(r.get("merge_tasks", 0) for r in rounds),
            "row_groups_pruned": sum(r["row_groups_pruned"] for r in rounds),
            # every round plans over the whole log
            "input_bytes": max(r.get("input_bytes", 0) for r in rounds),
            **{k: sum(r.get(k, 0) for r in rounds)
               for k in ("exchange_bytes", "change_bytes", "maps_s", "merge_s",
                         "commit_s")},
        }
    else:
        result = eng.replay(args.changelog)
    wall = time.perf_counter() - t0

    events = result.get("events_applied")
    print(json.dumps({
        "metric": "cdc_replay_wall_sec",
        "value": round(wall, 3),
        "unit": "sec",
        "events_applied": events,
        "events_per_sec": round(events / wall, 1) if events else 0.0,
        "rows_live": result.get("rows_live"),
        "partitions": args.partitions,
        "committed": bool(result.get("committed")),
        "version": result.get("version"),
        "map_tasks": result["map_tasks"],
        "merge_tasks": result.get("merge_tasks", 0),
        "row_groups_pruned": result["row_groups_pruned"],
        "input_bytes": result.get("input_bytes", 0),
        "exchange_bytes": result.get("exchange_bytes", 0),
        "change_bytes": result.get("change_bytes", 0),
        "maps_s": round(result.get("maps_s", 0.0), 3),
        "merge_s": round(result.get("merge_s", 0.0), 3),
        "commit_s": round(result.get("commit_s", 0.0), 3),
    }))
    ray.shutdown()
    return 0 if result.get("committed") or events == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
