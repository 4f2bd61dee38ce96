"""Deterministic seeded fixtures: transcript base table (F1) + CDC changelog (F2/F3).

Implements FIXTURES.md F1-F3 for the CDC target mandated by BASELINE.json
``input_hint``: a Parquet table of multi-turn conversation/agent transcripts with
columns ``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])`` plus a change-event log ``(lsn:int64, op:string, <payload>)``.

All generation is a pure function of ``(scale, seed)`` — same inputs produce
byte-identical tables regardless of process or call order, so the DuckDB oracle
and the Ray engine can each (re)generate the fixture independently.

Generation is fully vectorized (numpy + pyarrow); no per-row Python in the hot
path except the final string assembly which is a single vectorized
``np.char.multiply`` / ``np.char.add`` pass.

Reference analog: the reference synthesizes bench schemas/batches in
``ml-data/ml-data-bench/src/lib.rs:134-145``; this module plays the same role for
the CDC engine, with the transcript shape from BASELINE.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.exchange import mix64

# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------

#: approximate base-table row counts per named scale (FIXTURES.md F1)
SCALES: dict[str, int] = {
    "tiny": 2_000,       # unit tests
    "small": 60_000,     # pytest e2e + duckdb-oracle correctness (sf0.01 analog)
    "bench": 600_000,    # throughput runs (sf0.1 analog)
    "xbench": 2_400_000,   # scaling-efficiency runs (~4.7M events, ~1 GB)
    "xxbench": 10_000_000,  # large scaling runs (~19.6M events, ~4 GB)
}

BASE_EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds

#: bump whenever generated bytes change — cached fixture sets regenerate
GENERATOR_VERSION = 3

#: reference ParquetWriter default row-group size (parquet/writer.rs:43-56);
#: also the unit of read-split planning in the replay exchange
ROW_GROUP_SIZE = 65_536

ROLES = np.array(["system", "user", "assistant", "tool"])

OP_INSERT, OP_UPDATE, OP_DELETE = "insert", "update", "delete"
#: tie-break precedence at equal LSN (engine rule, documented: delete > update > insert)
OP_RANK = {OP_INSERT: 0, OP_UPDATE: 1, OP_DELETE: 2}


# ---------------------------------------------------------------------------
# deterministic mixing (splitmix64) — order-independent per-key hashing
# ---------------------------------------------------------------------------

def _key_hash(conv_idx: np.ndarray, turn_idx: np.ndarray, seed: int, version: int = 0) -> np.ndarray:
    with np.errstate(over="ignore"):
        base = (
            conv_idx.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + turn_idx.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            + np.uint64(seed * 1_000_003 + version * 7_919)
        )
    return mix64(base)


# ---------------------------------------------------------------------------
# deterministic pseudo-text
# ---------------------------------------------------------------------------

_WORDS = [
    "model", "agent", "tool", "call", "result", "token", "stream", "batch",
    "vector", "index", "query", "plan", "merge", "state", "turn", "reply",
    "check", "parse", "write", "read", "shard", "block", "actor", "task",
    "lake", "delta", "event", "log", "offset", "commit", "manifest", "schema",
]


def _sentence_pool(seed: int, n: int = 64) -> np.ndarray:
    """n deterministic sentences of varying length (~40-120 chars)."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    out = []
    for _ in range(n):
        k = int(rng.integers(6, 18))
        words = rng.choice(_WORDS, size=k)
        out.append(" ".join(words.tolist()) + ". ")
    return np.array(out)


def _gen_text(h: np.ndarray, version: int, pool: np.ndarray) -> np.ndarray:
    """Deterministic text per (key-hash, version): a repeated sentence unit with a
    hash+version suffix; length is heavy-tailed (median ~200 chars, tail ~8 KiB).

    Uses Arrow var-length string kernels (``binary_repeat`` / element-wise
    join) — numpy's fixed-width unicode arrays would allocate max_len x 4
    bytes per row and blow up on the 8 KiB tail."""
    hv = mix64(h + np.uint64(version * 0x9E37_79B9 + 0xABCD))
    unit = pool[(hv % np.uint64(len(pool))).astype(np.int64)]
    # heavy-tailed target length, pareto tail capped at 8 KiB
    u = ((hv >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
    target = np.minimum(60.0 * u ** -0.45, 8192.0)
    unit_len = np.char.str_len(unit.astype(np.str_)).astype(np.float64)
    reps = np.maximum(1, np.ceil(target / unit_len)).astype(np.int64)
    body = pc.binary_repeat(pa.array(unit.astype(object), type=pa.string()),
                            pa.array(reps.astype(np.int32)))
    suffix = np.char.add(
        np.char.add("[", np.char.mod("%016x", hv.astype(np.uint64))),
        f"v{version}]",
    )
    out = pc.binary_join_element_wise(
        body, pa.array(suffix.astype(object), type=pa.string()), "")
    # large_string: total text bytes can exceed int32 offsets at xxbench scale
    return out.cast(pa.large_string())


# ---------------------------------------------------------------------------
# F1 — transcripts base table
# ---------------------------------------------------------------------------

@dataclass
class TranscriptShape:
    conv_idx: np.ndarray   # int64 per row
    turn_idx: np.ndarray   # int32 per row
    n_convs: int


def _shape(n_rows: int, seed: int) -> TranscriptShape:
    """Conversation/turn layout: Zipf-skewed turn counts + a few hot conversations."""
    rng = np.random.default_rng(seed)
    avg_turns = 8
    n_convs = max(4, n_rows // avg_turns)
    # bulk: 1 + geometric-ish turn counts, mean ~7
    turns = 1 + rng.geometric(1.0 / 6.5, size=n_convs)
    turns = np.minimum(turns, 120)
    # hot tail: ~0.2% of conversations get 300-1500 turns (exercises skew)
    n_hot = max(1, n_convs // 500)
    hot_ids = rng.choice(n_convs, size=n_hot, replace=False)
    turns[hot_ids] = rng.integers(300, 1500, size=n_hot)
    conv_idx = np.repeat(np.arange(n_convs, dtype=np.int64), turns)
    starts = np.concatenate(([0], np.cumsum(turns)[:-1]))
    turn_idx = (np.arange(conv_idx.size, dtype=np.int64) - np.repeat(starts, turns)).astype(np.int32)
    return TranscriptShape(conv_idx, turn_idx, n_convs)


def _payload_columns(conv_idx: np.ndarray, turn_idx: np.ndarray, seed: int,
                     version: np.ndarray | int, pool: np.ndarray) -> dict[str, pa.Array]:
    """role/text/tool/ts payload as a pure function of (conv, turn, version)."""
    h = _key_hash(conv_idx, turn_idx, seed)
    conv_h = mix64(conv_idx.astype(np.uint64) + np.uint64(seed))
    # role: turn 0 is system for ~20% of convs else user; then alternate
    # user/assistant; ~1 in 7 non-first turns become tool results.
    alt = np.where(turn_idx % 2 == 1, 2, 1)  # odd turns assistant, even user
    role_idx = np.where(
        turn_idx == 0,
        np.where(conv_h % np.uint64(5) == 0, 0, 1),
        np.where(h % np.uint64(7) == 0, 3, alt),
    )
    # small lookup tables + Arrow take: no per-row Python strings at any scale
    role = pa.array(ROLES.tolist(), type=pa.string()).take(
        pa.array(role_idx.astype(np.int64)))
    tool_lookup = pa.array([f"tool-{i}" for i in range(17)] + [None],
                           type=pa.string())
    tool_idx = np.where(role_idx == 3, (h % np.uint64(17)).astype(np.int64), 17)
    tool = tool_lookup.take(pa.array(tool_idx))

    if isinstance(version, int):
        text = _gen_text(h, version, pool)
    else:
        # per-row versions (updates): gather rows per distinct version (few),
        # generate each group, then scatter back — all Arrow, no Python rows
        order = np.argsort(version, kind="stable")
        sv = version[order]
        uniq, starts = np.unique(sv, return_index=True)
        bounds = np.append(starts, sv.size)
        groups = [_gen_text(h[order[bounds[i]:bounds[i + 1]]], int(v), pool)
                  for i, v in enumerate(uniq)]
        ordered = pa.concat_arrays([g.combine_chunks() if isinstance(g, pa.ChunkedArray)
                                    else g for g in groups])
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        text = ordered.take(pa.array(inverse))

    # ts: per-conversation start + monotone per-turn stride (stable turn ordering)
    conv_start_us = (conv_h % np.uint64(30 * 86_400)).astype(np.int64) * 1_000_000
    stride_us = (30 + (conv_h % np.uint64(300)).astype(np.int64)) * 1_000_000
    ts = BASE_EPOCH_US + conv_start_us + turn_idx.astype(np.int64) * stride_us

    return {
        "role": role,
        "text": text,
        "tool": tool,
        "ts": pa.array(ts, type=pa.timestamp("us")),
    }


def _transcripts_rows(conv_idx: np.ndarray, turn_idx: np.ndarray,
                      n_convs: int, seed: int, pool: np.ndarray,
                      lo: int, hi: int) -> pa.Table:
    """Materialize base-table rows ``[lo, hi)`` — pure per-row, shardable."""
    cols = _payload_columns(conv_idx[lo:hi], turn_idx[lo:hi], seed, 0, pool)
    return pa.table({
        "conv_id": _conv_id_array(conv_idx[lo:hi], n_convs),
        "turn_idx": pa.array(turn_idx[lo:hi], type=pa.int32()),
        **cols,
    })


def gen_transcripts(scale: str | int = "tiny", seed: int = 42) -> pa.Table:
    """F1 base table (the state the engine converges to before any updates)."""
    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    sh = _shape(n_rows, seed)
    pool = _sentence_pool(seed)
    return _transcripts_rows(sh.conv_idx, sh.turn_idx, sh.n_convs, seed, pool,
                             0, sh.conv_idx.size)


def _conv_id_array(conv_idx: np.ndarray, n_convs: int) -> pa.Array:
    """conv-%08d ids via a unique-value table + Arrow take (one Python string
    per conversation, not per row)."""
    uniq = np.char.add("conv-", np.char.mod("%08d", np.arange(n_convs)))
    return pa.array(uniq.astype(object), type=pa.string()).take(
        pa.array(conv_idx.astype(np.int64)))


# ---------------------------------------------------------------------------
# F2 — changelog
# ---------------------------------------------------------------------------

@dataclass
class ChangelogSkeleton:
    """Per-event arrays in FINAL ARRIVAL ORDER (duplicates applied, permuted).

    The skeleton is the cheap, driver-side part of changelog generation
    (pure numpy — no text). Payload columns are pure per-row functions of
    ``(conv_idx, turn_idx, version, seed)``, so any row slice of the final
    table can be generated independently (the Ray-parallel writer's unit of
    work) and is value-identical to the same slice of a sequential run."""
    conv_idx: np.ndarray   # int64
    turn_idx: np.ndarray   # int32
    op_code: np.ndarray    # int8: 0=insert 1=update 2=delete
    version: np.ndarray    # int32
    lsn: np.ndarray        # int64
    n_convs: int


def _changelog_skeleton(n_rows: int, seed: int) -> ChangelogSkeleton:
    """Event skeleton: inserts for every base row, skew-weighted updates
    (~20% of keys x 1-5 each), deletes (~5%, half revived), ~1% verbatim
    duplicate events, arrival order decorrelated from LSN order.

    The ``rng`` call sequence here is load-bearing: it reproduces the
    original sequential generator call-for-call, so fixtures regenerate
    value-identically under GENERATOR_VERSION 3."""
    rng = np.random.default_rng(seed + 1)
    sh = _shape(n_rows, seed)
    n = sh.conv_idx.size

    # --- event skeleton: (conv_idx, turn_idx, op_code, version, event_time) ---
    ev_conv = [sh.conv_idx]
    ev_turn = [sh.turn_idx]
    ev_op = [np.zeros(n, dtype=np.int8)]            # 0=insert 1=update 2=delete
    ev_ver = [np.zeros(n, dtype=np.int32)]
    t0 = rng.random(n)                              # insert times
    ev_time = [t0]

    # updates: ~20% of keys, weight ∝ conversation turn count (hot convs hotter)
    turns_per_conv = np.bincount(sh.conv_idx, minlength=sh.n_convs).astype(np.float64)
    w = turns_per_conv[sh.conv_idx]
    w /= w.sum()
    n_upd_keys = max(1, int(0.20 * n))
    # weighted sample WITHOUT replacement via the Gumbel top-k trick — O(n);
    # numpy's choice(replace=False, p=...) degrades badly at millions of draws
    gumbel = np.log(w) - np.log(-np.log(rng.random(n)))
    upd_keys = np.argpartition(-gumbel, n_upd_keys)[:n_upd_keys]
    upd_keys = np.sort(upd_keys)
    upd_counts = rng.integers(1, 6, size=n_upd_keys)
    upd_rows = np.repeat(upd_keys, upd_counts)
    # per-key 1..c sequences, vectorized (no Python loop over keys)
    starts = np.concatenate(([0], np.cumsum(upd_counts)[:-1]))
    upd_ver = (np.arange(upd_rows.size) - np.repeat(starts, upd_counts) + 1
               ).astype(np.int32)
    ev_conv.append(sh.conv_idx[upd_rows])
    ev_turn.append(sh.turn_idx[upd_rows])
    ev_op.append(np.ones(upd_rows.size, dtype=np.int8))
    ev_ver.append(upd_ver)
    ev_time.append(t0[upd_rows] + upd_ver * rng.random(upd_rows.size) * 0.5 + 1e-6)

    # deletes: ~5% of keys; half revived (re-insert with version 99 after delete)
    n_del = max(1, int(0.05 * n))
    del_keys = rng.choice(n, size=n_del, replace=False)
    del_time = t0[del_keys] + 3.0 + rng.random(n_del)
    ev_conv.append(sh.conv_idx[del_keys])
    ev_turn.append(sh.turn_idx[del_keys])
    ev_op.append(np.full(n_del, 2, dtype=np.int8))
    ev_ver.append(np.zeros(n_del, dtype=np.int32))
    ev_time.append(del_time)

    n_rev = n_del // 2
    rev_keys = del_keys[:n_rev]
    ev_conv.append(sh.conv_idx[rev_keys])
    ev_turn.append(sh.turn_idx[rev_keys])
    ev_op.append(np.zeros(n_rev, dtype=np.int8))
    ev_ver.append(np.full(n_rev, 99, dtype=np.int32))
    ev_time.append(del_time[:n_rev] + 0.5 + rng.random(n_rev))

    conv_idx = np.concatenate(ev_conv)
    turn_idx = np.concatenate(ev_turn)
    op_code = np.concatenate(ev_op)
    version = np.concatenate(ev_ver)
    etime = np.concatenate(ev_time)

    # LSN = rank of event time (globally unique, monotone in event time)
    order = np.argsort(etime, kind="stable")
    lsn = np.empty(etime.size, dtype=np.int64)
    lsn[order] = np.arange(1, etime.size + 1, dtype=np.int64)

    # ~1% verbatim duplicate events (at-least-once delivery), then arrival
    # order != LSN order — both as an index gather over the event list
    n_ev = etime.size
    n_dup = max(1, n_ev // 100)
    dup_idx = rng.choice(n_ev, size=n_dup, replace=False)
    idx = np.concatenate([np.arange(n_ev, dtype=np.int64), np.sort(dup_idx)])
    perm = rng.permutation(idx.size)
    final = idx[perm]
    return ChangelogSkeleton(conv_idx[final], turn_idx[final], op_code[final],
                             version[final], lsn[final], sh.n_convs)


def _changelog_rows(sk: ChangelogSkeleton, seed: int, pool: np.ndarray,
                    lo: int, hi: int) -> pa.Table:
    """Materialize final-order changelog rows ``[lo, hi)`` from the skeleton —
    the payload is a pure per-row function, so shards generate independently
    and concat(shards) == the sequential whole."""
    conv_idx = sk.conv_idx[lo:hi]
    turn_idx = sk.turn_idx[lo:hi]
    op_code = sk.op_code[lo:hi]
    version = sk.version[lo:hi]
    lsn = sk.lsn[lo:hi]

    # payload (null for deletes) — Arrow if_else, no Python-object round trip
    cols = _payload_columns(conv_idx, turn_idx, seed, version, pool)
    is_del_arr = pa.array(op_code == 2)
    payload = {}
    for name, arr in cols.items():
        typ = pa.timestamp("us") if name == "ts" else pa.string()
        if name == "text":
            typ = pa.large_string()
        payload[name] = pc.if_else(is_del_arr, pa.scalar(None, type=typ), arr)

    op_lookup = pa.array([OP_INSERT, OP_UPDATE, OP_DELETE], type=pa.string())
    op_arr = op_lookup.take(pa.array(op_code.astype(np.int64)))

    return pa.table({
        "lsn": pa.array(lsn, type=pa.int64()),
        "op": op_arr,
        "conv_id": _conv_id_array(conv_idx, sk.n_convs),
        "turn_idx": pa.array(turn_idx, type=pa.int32()),
        **payload,
    })


def gen_changelog(scale: str | int = "tiny", seed: int = 42,
                  evolve: bool = False) -> pa.Table:
    """F2 change-event log (see :func:`_changelog_skeleton` for the event
    model). With ``evolve=True`` (F3): events past the 60th-percentile LSN
    carry an added nullable ``model: string`` column; callers write those
    rows with ``turn_idx`` widened to int64 (see :func:`write_fixture_set`)."""
    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    sk = _changelog_skeleton(n_rows, seed)
    pool = _sentence_pool(seed)
    tbl = _changelog_rows(sk, seed, pool, 0, sk.lsn.size)

    if evolve:
        cut = int(np.quantile(tbl.column("lsn").to_numpy(), 0.6))
        lsn_np = tbl.column("lsn").to_numpy()
        h = _key_hash(np.zeros(tbl.num_rows, dtype=np.int64), lsn_np, seed, 5)
        model = np.char.add("m-", (h % np.uint64(3)).astype(np.int64).astype(np.str_)).astype(object)
        is_del_now = np.asarray(tbl.column("op").to_numpy(zero_copy_only=False)) == OP_DELETE
        model[(lsn_np <= cut) | is_del_now] = None
        tbl = tbl.append_column("model", pa.array(model, type=pa.string()))
        tbl = tbl.append_column("_evolved", pa.array(lsn_np > cut))
    return tbl


# ---------------------------------------------------------------------------
# writing fixture sets to disk (many files => read parallelism)
# ---------------------------------------------------------------------------

def _downcast_large_strings(tbl: pa.Table) -> pa.Table:
    """large_string (generation-time, >2GB safe) -> string for the on-disk
    schema; each shard is far below the int32 offset limit.

    The cast must see a rebased copy: a zero-copy slice still references the
    parent >2GB value buffer and Arrow refuses the cast on it."""
    if not any(f.type == pa.large_string() for f in tbl.schema):
        return tbl
    tbl = tbl.take(pa.array(np.arange(tbl.num_rows, dtype=np.int64)))
    fields = [pa.field(f.name, pa.string()) if f.type == pa.large_string() else f
              for f in tbl.schema]
    return tbl.cast(pa.schema(fields))


def _write_sharded(tbl: pa.Table, out_dir: str, n_files: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    n = tbl.num_rows
    bounds = np.linspace(0, n, n_files + 1).astype(np.int64)
    for i in range(n_files):
        part = _downcast_large_strings(tbl.slice(bounds[i], bounds[i + 1] - bounds[i]))
        p = os.path.join(out_dir, f"part-{i:04d}.parquet")
        pq.write_table(part, p, compression="snappy",
                       row_group_size=ROW_GROUP_SIZE)
        paths.append(p)
    return paths


def _tr_shard_task(conv_idx: np.ndarray, turn_idx: np.ndarray, n_convs: int,
                   seed: int, lo: int, hi: int, path: str) -> str:
    pool = _sentence_pool(seed)
    part = _downcast_large_strings(
        _transcripts_rows(conv_idx, turn_idx, n_convs, seed, pool, lo, hi))
    pq.write_table(part, path, compression="snappy",
                   row_group_size=ROW_GROUP_SIZE)
    return path


def _cl_shard_task(sk: ChangelogSkeleton, seed: int, lo: int, hi: int,
                   path: str) -> str:
    pool = _sentence_pool(seed)
    part = _downcast_large_strings(_changelog_rows(sk, seed, pool, lo, hi))
    pq.write_table(part, path, compression="snappy",
                   row_group_size=ROW_GROUP_SIZE)
    return path


def _write_fixture_set_parallel(root: str, n_rows: int, seed: int,
                                n_files: int) -> dict[str, str]:
    """Ray-parallel fixture writer: the skeleton (conversation layout, event
    ops/LSNs/permutation) is cheap driver-side numpy; the expensive part —
    heavy-tailed text materialization + parquet encode, ~95% of a sequential
    run's wall — is a pure per-row function, so each output file generates
    independently in a Ray task. Output is VALUE-IDENTICAL to the sequential
    writer (same rows, same order, same file boundaries — asserted by
    ``tests/test_fixtures.py``), so cached fixture sets and recorded bench
    numbers stay comparable; only the wall changes (~76 min -> minutes for
    the 19.6M-event scaling fixture). Skeleton arrays ship via ``ray.put``
    once and are sliced zero-copy in each task."""
    import ray

    sh = _shape(n_rows, seed)
    sk = _changelog_skeleton(n_rows, seed)

    tr_dir = os.path.join(root, "transcripts")
    cl_dir = os.path.join(root, "changelog")
    os.makedirs(tr_dir, exist_ok=True)
    os.makedirs(cl_dir, exist_ok=True)

    conv_ref = ray.put(sh.conv_idx)
    turn_ref = ray.put(sh.turn_idx)
    sk_ref = ray.put(sk)
    tr_task = ray.remote(_tr_shard_task)
    cl_task = ray.remote(_cl_shard_task)

    refs = []
    n_tr_files = max(8, n_files // 2)
    bounds = np.linspace(0, sh.conv_idx.size, n_tr_files + 1).astype(np.int64)
    for i in range(n_tr_files):
        refs.append(tr_task.remote(
            conv_ref, turn_ref, sh.n_convs, seed, int(bounds[i]),
            int(bounds[i + 1]), os.path.join(tr_dir, f"part-{i:04d}.parquet")))
    bounds = np.linspace(0, sk.lsn.size, n_files + 1).astype(np.int64)
    for i in range(n_files):
        refs.append(cl_task.remote(
            sk_ref, seed, int(bounds[i]), int(bounds[i + 1]),
            os.path.join(cl_dir, f"part-{i:04d}.parquet")))
    ray.get(refs)
    return {"transcripts": tr_dir, "changelog": cl_dir}


def write_fixture_set(root: str, scale: str | int = "small", seed: int = 42,
                      n_files: int = 16, evolve: bool = False,
                      parallel: bool | None = None) -> dict[str, str]:
    """Write transcripts/ + changelog/ under ``root``. Deterministic for a given
    (scale, seed, n_files, evolve). Returns dir paths.

    For ``evolve=True``, pre-cutover changelog files keep the v1 schema
    (no ``model``, int32 ``turn_idx``) and post-cutover files carry the evolved
    schema (``model`` present, ``turn_idx`` widened to int64) — exercising
    Arrow schema unification at read/merge time (FIXTURES.md F3).

    ``parallel=None`` auto-selects the Ray-parallel writer (value-identical
    output, see :func:`_write_fixture_set_parallel`) for large non-evolved
    sets when Ray is already initialized; it never calls ``ray.init``.
    """
    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    if parallel is None:
        try:
            import ray
            parallel = (not evolve and n_rows >= 1_000_000
                        and ray.is_initialized())
        except ImportError:      # pragma: no cover - ray is a hard dep
            parallel = False
    if parallel and not evolve:
        return _write_fixture_set_parallel(root, n_rows, seed, n_files)

    tr = gen_transcripts(scale, seed)
    _write_sharded(tr, os.path.join(root, "transcripts"), max(8, n_files // 2))
    cl = gen_changelog(scale, seed, evolve=evolve)
    cl_dir = os.path.join(root, "changelog")
    if not evolve:
        _write_sharded(cl, cl_dir, n_files)
    else:
        evolved = cl.column("_evolved").to_numpy(zero_copy_only=False)
        cl = cl.drop_columns(["_evolved"])
        old = cl.filter(pa.array(~evolved)).drop_columns(["model"])
        new = cl.filter(pa.array(evolved))
        new = new.set_column(
            new.schema.get_field_index("turn_idx"), "turn_idx",
            new.column("turn_idx").cast(pa.int64()))
        os.makedirs(cl_dir, exist_ok=True)
        half = max(4, n_files // 2)
        nb = np.linspace(0, old.num_rows, half + 1).astype(np.int64)
        for i in range(half):
            pq.write_table(_downcast_large_strings(old.slice(nb[i], nb[i + 1] - nb[i])),
                           os.path.join(cl_dir, f"part-{i:04d}.parquet"),
                           compression="snappy", row_group_size=ROW_GROUP_SIZE)
        nb = np.linspace(0, new.num_rows, half + 1).astype(np.int64)
        for i in range(half):
            pq.write_table(_downcast_large_strings(new.slice(nb[i], nb[i + 1] - nb[i])),
                           os.path.join(cl_dir, f"part-{half + i:04d}.parquet"),
                           compression="snappy", row_group_size=ROW_GROUP_SIZE)
    return {"transcripts": os.path.join(root, "transcripts"), "changelog": cl_dir}


def ensure_fixture_set(root: str, scale: str | int = "small", seed: int = 42,
                       n_files: int = 16, evolve: bool = False,
                       parallel: bool | None = None) -> dict[str, str]:
    """Idempotent :func:`write_fixture_set` — skips generation iff the on-disk
    marker matches the requested parameters (stale fixtures regenerate).
    The stamp is version/parameter-based, not writer-based: sequential and
    parallel writers produce value-identical sets, so either satisfies it."""
    done = os.path.join(root, "_FIXTURE_DONE")
    stamp = (f"gen=v{GENERATOR_VERSION} scale={scale} seed={seed} "
             f"n_files={n_files} evolve={evolve}\n")
    out = {"transcripts": os.path.join(root, "transcripts"),
           "changelog": os.path.join(root, "changelog")}
    if os.path.exists(done):
        with open(done) as f:
            if f.read() == stamp:
                return out
        import shutil
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
    write_fixture_set(root, scale, seed, n_files, evolve, parallel=parallel)
    with open(done, "w") as f:
        f.write(stamp)
    return out
