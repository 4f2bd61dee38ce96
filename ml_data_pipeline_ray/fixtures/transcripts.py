"""Deterministic seeded fixtures: transcript base table (F1) + CDC changelog (F2/F3).

Implements FIXTURES.md F1-F3 for the CDC target mandated by BASELINE.json
``input_hint``: a Parquet table of multi-turn conversation/agent transcripts with
columns ``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])`` plus a change-event log ``(lsn:int64, op:string, <payload>)``.

All generation is a pure function of ``(scale, seed)`` — same inputs produce
byte-identical tables regardless of process or call order, so the DuckDB oracle
and the Ray engine can each (re)generate the fixture independently.

Generation is fully vectorized (numpy + pyarrow) with no per-row Python: every
string column is a ``take`` from a small lookup, an Arrow string kernel or an
ASCII digit matrix handed to Arrow as one buffer (:func:`_digit_strings`).
On disk, every parquet file of a fixture set is one shard that
:func:`_write_shard` generates on its own, in a Ray task or in-process, to the
same bytes.

Reference analog: the reference synthesizes bench schemas/batches in
``ml-data/ml-data-bench/src/lib.rs:134-145``; this module plays the same role for
the CDC engine, with the transcript shape from BASELINE.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

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

#: base rows from which a set is written as Ray tasks when a session is up; below
#: it task start-up costs more than it saves at 1 CPU (in-process vs tasks, 16
#: files: ``small`` 0.25 s vs 0.31-0.73 s, ``bench`` 2.5 s vs 2.95 s; at 4 CPUs
#: ``bench`` takes 2.7 s vs 1.1 s)
RAY_MIN_ROWS = 1_000_000

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


@lru_cache(maxsize=8)
def _sentence_pool(seed: int, n: int = 64) -> pa.Array:
    """n deterministic sentences (~40-120 chars), built once per process."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    out = []
    for _ in range(n):
        k = int(rng.integers(6, 18))
        words = rng.choice(_WORDS, size=k)
        out.append(" ".join(words.tolist()) + ". ")
    return pa.array(out, type=pa.string())


_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _digit_strings(values: np.ndarray, width: int, base: int) -> pa.Array:
    """``values`` (non-negative) as printf's ``%0{width}d`` / ``%0{width}x``
    writes them, from one ASCII byte matrix: no row is a Python string."""
    v = values.astype(np.uint64)
    wide = max(width, len(np.base_repr(int(v.max(initial=0)), base)))
    chars = np.empty((v.size, wide), dtype=np.uint8)
    for col in range(wide - 1, -1, -1):
        chars[:, col] = _DIGITS[v % np.uint64(base)]
        v //= np.uint64(base)
    offsets = np.arange(v.size + 1, dtype=np.int32) * np.int32(wide)
    out = pa.StringArray.from_buffers(v.size, pa.py_buffer(offsets), pa.py_buffer(chars))
    # printf widens a row past ``width`` only as far as its value needs
    return pc.utf8_lpad(pc.utf8_ltrim(out, "0"), width, "0") if wide > width else out


def _gen_text(h: np.ndarray, version: np.ndarray | int, pool: pa.Array) -> pa.Array:
    """Deterministic text per (key-hash, version), ``version`` per row or a
    scalar: a repeated sentence unit, heavy-tailed in length (median ~200
    chars, tail ~8 KiB), then ``[%016x`` of a hash and ``v{version}]``. Each
    part is an Arrow string array, joined once: no row is a Python string."""
    version = np.broadcast_to(np.asarray(version, dtype=np.int64), h.shape)
    with np.errstate(over="ignore"):
        hv = mix64(h + version.astype(np.uint64) * np.uint64(0x9E37_79B9)
                   + np.uint64(0xABCD))
    unit_idx = (hv % np.uint64(len(pool))).astype(np.int64)
    # heavy-tailed target length, pareto tail capped at 8 KiB
    u = ((hv >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
    target = np.minimum(60.0 * u ** -0.45, 8192.0)
    unit_len = pc.utf8_length(pool).to_numpy()[unit_idx]
    reps = np.maximum(1, np.ceil(target / unit_len)).astype(np.int32)
    body = pc.binary_repeat(pool.take(pa.array(unit_idx)), pa.array(reps))
    versions, inverse = np.unique(version, return_inverse=True)
    tag = pa.array([f"v{v}]" for v in versions.tolist()], type=pa.string())
    out = pc.binary_join_element_wise(
        body, "[", _digit_strings(hv, 16, 16), tag.take(pa.array(inverse)), "")
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
                     version: np.ndarray | int) -> dict[str, pa.Array]:
    """role/text/tool/ts payload as a pure function of (conv, turn, version)."""
    pool = _sentence_pool(seed)
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

    # ts: per-conversation start + monotone per-turn stride (stable turn ordering)
    conv_start_us = (conv_h % np.uint64(30 * 86_400)).astype(np.int64) * 1_000_000
    stride_us = (30 + (conv_h % np.uint64(300)).astype(np.int64)) * 1_000_000
    ts = BASE_EPOCH_US + conv_start_us + turn_idx.astype(np.int64) * stride_us

    return {"role": role, "text": _gen_text(h, version, pool), "tool": tool,
            "ts": pa.array(ts, type=pa.timestamp("us"))}


def _transcripts_rows(sh: TranscriptShape, seed: int,
                      rows: slice | np.ndarray) -> pa.Table:
    """Materialize the base-table rows at ``rows`` — pure per-row, shardable."""
    conv_idx, turn_idx = sh.conv_idx[rows], sh.turn_idx[rows]
    return pa.table({
        "conv_id": _conv_ids(sh.n_convs).take(pa.array(conv_idx)),
        "turn_idx": pa.array(turn_idx, type=pa.int32()),
        **_payload_columns(conv_idx, turn_idx, seed, 0),
    })


def gen_transcripts(scale: str | int = "tiny", seed: int = 42) -> pa.Table:
    """F1 base table (the state the engine converges to before any updates)."""
    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    return _transcripts_rows(_shape(n_rows, seed), seed, slice(None))


@lru_cache(maxsize=4)
def _conv_ids(n_convs: int) -> pa.Array:
    """The conv-%08d id of every conversation, built once per process; rows
    take from it."""
    return pc.binary_join_element_wise(
        "conv-", _digit_strings(np.arange(n_convs), 8, 10), "")


# ---------------------------------------------------------------------------
# F2 — changelog
# ---------------------------------------------------------------------------

@dataclass
class ChangelogSkeleton:
    """Per-event arrays in FINAL ARRIVAL ORDER (duplicates applied, permuted).

    The skeleton is the cheap, driver-side part of changelog generation
    (pure numpy — no text). Payload columns are pure per-row functions of
    ``(conv_idx, turn_idx, version, seed)``, so any set of rows of the final
    table can be generated independently (a fixture shard, see
    :func:`_write_shard`) and is value-identical to the same rows of the
    whole table."""
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


def _changelog_rows(sk: ChangelogSkeleton, seed: int,
                    rows: slice | np.ndarray) -> pa.Table:
    """Materialize the final-order changelog rows at ``rows`` from the
    skeleton — the payload is a pure per-row function, so shards generate
    independently and concat(shards) == the whole."""
    conv_idx, turn_idx, op_code = sk.conv_idx[rows], sk.turn_idx[rows], sk.op_code[rows]

    # payload (null for deletes) — Arrow if_else, no Python-object round trip
    is_del = pa.array(op_code == 2)
    payload = {name: pc.if_else(is_del, pa.scalar(None, type=arr.type), arr)
               for name, arr in _payload_columns(conv_idx, turn_idx, seed,
                                                 sk.version[rows]).items()}

    op_lookup = pa.array([OP_INSERT, OP_UPDATE, OP_DELETE], type=pa.string())
    return pa.table({
        "lsn": pa.array(sk.lsn[rows], type=pa.int64()),
        "op": op_lookup.take(pa.array(op_code.astype(np.int64))),
        "conv_id": _conv_ids(sk.n_convs).take(pa.array(conv_idx)),
        "turn_idx": pa.array(turn_idx, type=pa.int32()),
        **payload,
    })


def gen_changelog(scale: str | int = "tiny", seed: int = 42) -> pa.Table:
    """F2 change-event log (see :func:`_changelog_skeleton` for the event
    model). The F3 evolved variant exists only on disk (see
    :func:`write_fixture_set`)."""
    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    return _changelog_rows(_changelog_skeleton(n_rows, seed), seed, slice(None))


# ---------------------------------------------------------------------------
# writing fixture sets to disk (many files => read parallelism)
# ---------------------------------------------------------------------------

#: F3 ``model`` values (index 3: null, for deletes)
_MODELS = pa.array(["m-0", "m-1", "m-2", None], type=pa.string())


def _cuts(n: int, k: int) -> list[slice]:
    """``k`` contiguous, near-equal slices of ``range(n)``."""
    b = np.linspace(0, n, k + 1).astype(np.int64)
    return [slice(int(b[i]), int(b[i + 1])) for i in range(k)]


def _write_shard(src: TranscriptShape | ChangelogSkeleton, seed: int,
                 rows: slice | np.ndarray, path: str, evolved: bool) -> str:
    """Generate the rows at ``rows`` of the base table (``src`` a shape) or
    of the changelog (``src`` a skeleton) and write them to ``path``.

    An evolved changelog shard holds only events past the F3 cutover: it
    carries the added nullable ``model`` column (null for deletes) and
    ``turn_idx`` widened to int64. Text is generated as large_string and
    written as string; a shard is far below the int32 offset limit."""
    if isinstance(src, TranscriptShape):
        part = _transcripts_rows(src, seed, rows)
    else:
        part = _changelog_rows(src, seed, rows)
    if evolved:
        lsn = src.lsn[rows]
        h = _key_hash(np.zeros(lsn.size, dtype=np.int64), lsn, seed, 5)
        model = np.where(src.op_code[rows] == 2, 3, (h % np.uint64(3)).astype(np.int64))
        part = part.set_column(part.schema.get_field_index("turn_idx"), "turn_idx",
                               part.column("turn_idx").cast(pa.int64()))
        part = part.append_column("model", _MODELS.take(pa.array(model)))
    part = part.cast(pa.schema([pa.field(f.name, pa.string())
                                if f.type == pa.large_string() else f
                                for f in part.schema]))
    pq.write_table(part, path, compression="snappy", row_group_size=ROW_GROUP_SIZE)
    return path


def write_fixture_set(root: str, scale: str | int = "small", seed: int = 42,
                      n_files: int = 16, evolve: bool = False) -> dict[str, str]:
    """Write transcripts/ + changelog/ under ``root``, one shard per file
    (:func:`_write_shard`); deterministic for a given (scale, seed, n_files,
    evolve). Returns dir paths.

    With ``evolve=True`` (FIXTURES.md F3) the changelog splits at its
    60th-percentile LSN: the first half of the files keep the v1 schema,
    the second half carry the evolved one, exercising Arrow schema
    unification at read/merge time. Sets of at least :data:`RAY_MIN_ROWS`
    base rows run their shards as Ray tasks when a Ray session is up (the
    layout ``ray.put`` once), others in a loop here, to the same bytes; this
    never calls ``ray.init``."""
    import ray

    n_rows = SCALES.get(scale, scale) if isinstance(scale, str) else int(scale)
    sh, sk = _shape(n_rows, seed), _changelog_skeleton(n_rows, seed)
    out = {kind: os.path.join(root, kind) for kind in ("transcripts", "changelog")}
    for d in out.values():
        os.makedirs(d, exist_ok=True)

    # one shard per file, in file order: (rows of the layout, evolved)
    layout = {"transcripts": sh, "changelog": sk}
    shards = {"transcripts": [(s, False) for s in
                              _cuts(sh.conv_idx.size, max(8, n_files // 2))]}
    if evolve:
        cut = int(np.quantile(sk.lsn, 0.6))
        shards["changelog"] = [
            (pos[s], evolved)
            for pos, evolved in ((np.flatnonzero(sk.lsn <= cut), False),
                                 (np.flatnonzero(sk.lsn > cut), True))
            for s in _cuts(pos.size, max(4, n_files // 2))]
    else:
        shards["changelog"] = [(s, False) for s in _cuts(sk.lsn.size, n_files)]

    on_ray = n_rows >= RAY_MIN_ROWS and ray.is_initialized()
    if on_ray:
        layout = {kind: ray.put(src) for kind, src in layout.items()}
    write = ray.remote(_write_shard).remote if on_ray else _write_shard
    done = [write(layout[kind], seed, rows,
                  os.path.join(out[kind], f"part-{i:04d}.parquet"), evolved)
            for kind, parts in shards.items()
            for i, (rows, evolved) in enumerate(parts)]
    if on_ray:
        ray.get(done)
    return out


def ensure_fixture_set(root: str, scale: str | int = "small", seed: int = 42,
                       n_files: int = 16, evolve: bool = False) -> dict[str, str]:
    """Idempotent :func:`write_fixture_set` — skips generation iff the on-disk
    marker matches the requested parameters (stale fixtures regenerate)."""
    done = os.path.join(root, "_FIXTURE_DONE")
    stamp = (f"gen=v{GENERATOR_VERSION} scale={scale} seed={seed} "
             f"n_files={n_files} evolve={evolve}\n")
    out = {kind: os.path.join(root, kind) for kind in ("transcripts", "changelog")}
    if os.path.exists(done):
        with open(done) as f:
            if f.read() == stamp:
                return out
        import shutil
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
    write_fixture_set(root, scale, seed, n_files, evolve)
    with open(done, "w") as f:
        f.write(stamp)
    return out
