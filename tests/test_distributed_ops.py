"""Distributed operator tests: exact dedup, MinHash-LSH, joins, ANN —
validated against pandas/numpy oracles on the same data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from ml_data_pipeline_ray.stages import ann, dedup
from ml_data_pipeline_ray.stages.exchange import collect_arrow
from ml_data_pipeline_ray.stages.joins import (broadcast_join,
                                               broadcast_semi_join, hash_join)


def cosine_pairs(ds: rd.Dataset, threshold: float) -> pd.DataFrame:
    """All-pairs reference of ``ann.cosine_pairs_bucketed``: every unordered
    ``vec_id`` pair with cosine similarity >= threshold, each batch compared
    against the whole dataset broadcast once (O(n²))."""
    tbl = collect_arrow(ds.select_columns(["vec_id", "embedding"]))
    index = ray.put((tbl.column("vec_id").to_numpy(zero_copy_only=False),
                     ann._normalize(ann._to_matrix(tbl.column("embedding")))))

    # a closure, so the workers get it by value: this test module is not
    # importable on them
    def pairs(batch: pa.Table) -> pa.Table:
        ix_ids, ixm = ray.get(index)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = ann._normalize(ann._to_matrix(batch.column("embedding")))
        sims = m @ ixm.T
        r, c = np.where(sims >= threshold)
        a, b = ids[r], ix_ids[c]
        keep = a < b                               # dedupe unordered pairs + self
        return pa.table({"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep]),
                         "sim": pa.array(sims[r, c][keep])})

    out = ds.map_batches(pairs, batch_format="pyarrow").to_pandas()
    return (out.sort_values(["id_a", "id_b"], kind="mergesort")
            .reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_keeps_min_order():
    t = pa.table({
        "id": [5, 1, 2, 3, 4, 6],
        "text": ["x", "x", "y", "y", "z", "x"],
        "grp": ["a", "a", "a", "b", "b", "a"],
    })
    out = dedup.exact_dedup(rd.from_arrow(t), cols=["text", "grp"],
                            order_col="id").to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    want = (t.to_pandas().sort_values("id")
            .drop_duplicates(["text", "grp"], keep="first").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, want)


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_finds_near_dups():
    base = "the quick brown fox jumps over the lazy dog again and again "
    texts = [base * 4, base * 4 + "tail words here", base * 5,
             "completely different content about manifests " * 4,
             "another unrelated string with its own words " * 4]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts)})
    cand = dedup.minhash_candidate_pairs(rd.from_arrow(t), id_col="doc_id")
    pairs = set(map(tuple, cand[["id_a", "id_b"]].to_numpy()))
    assert (0, 1) in pairs and (0, 2) in pairs and (1, 2) in pairs
    assert (cand["id_a"] < cand["id_b"]).all()
    assert not any(3 in p or 4 in p for p in pairs)


@pytest.mark.usefixtures("ray_session")
def test_dup_storm_minhash_verify_neardup():
    """Dup-storm corpus (50% duplicates): minhash_candidate_pairs ->
    verify_candidate_pairs must find every duplicate pair and agree with the
    brute-force pairwise Jaccard oracle."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(200)]
    n_base = 60
    texts, ids = [], []
    for i in range(n_base):
        words = rng.choice(vocab, size=30, replace=True).tolist()
        texts.append(" ".join(words))
        ids.append(i)
    # 50% duplicates: every base doc gets an exact copy
    for i in range(n_base):
        texts.append(texts[i])
        ids.append(n_base + i)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t)

    cand = dedup.minhash_candidate_pairs(ds, id_col="doc_id")
    got = dedup.verify_candidate_pairs(ds, cand, id_col="doc_id",
                                       threshold=0.8, k=3)
    got_pairs = set(map(tuple, got[["id_a", "id_b"]].to_numpy()))

    # brute-force oracle on the tiny fixture
    def shingles(s):
        w = s.split()
        return {tuple(w[j:j + 3]) for j in range(len(w) - 2)}

    sh = [shingles(s) for s in texts]
    want = set()
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            inter = len(sh[a] & sh[b])
            union = len(sh[a] | sh[b])
            if union and inter / union >= 0.8:
                want.add((ids[a], ids[b]))
    # every exact-duplicate pair must be present (Jaccard 1.0 >= any tau,
    # and identical signatures always share every band)
    assert all((i, n_base + i) in got_pairs for i in range(n_base))
    # verification is exact, so no false positives vs the oracle
    assert got_pairs <= want
    # LSH recall at tau=0.8 with 32 bands x 4 rows: miss probability per
    # qualifying pair < 1e-6 — require the full oracle set
    assert got_pairs == want


@pytest.mark.usefixtures("ray_session")
def test_broadcast_and_hash_join_agree():
    rng = np.random.default_rng(7)
    left = pd.DataFrame({"k": rng.integers(0, 50, 500),
                         "v": rng.random(500)})
    right = pd.DataFrame({"k": np.arange(50), "name": [f"n{i}" for i in range(50)],
                          "v": np.arange(50) * 1.0})
    want = left.merge(right.rename(columns={"v": "v_r"}), on=["k"])

    got_b = (broadcast_join(rd.from_pandas(left), right.rename(columns={"v": "v_r"}),
                            on=["k"]).to_pandas())
    got_h = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      on=["k"], num_buckets=8).to_pandas()

    key = ["k", "v", "name", "v_r"]
    for got in (got_b, got_h):
        a = got[key].sort_values(key).reset_index(drop=True)
        b = want[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_semi_and_anti_join():
    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")})
    keys = {2, 4}
    semi = broadcast_semi_join(rd.from_pandas(df), keys, on=["k"]).to_pandas()
    anti = broadcast_semi_join(rd.from_pandas(df), keys, on=["k"], anti=True).to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    assert sorted(anti["k"]) == [1, 3]


@pytest.mark.usefixtures("ray_session")
def test_semi_and_anti_join_null_key():
    """A null in the key set matches no row: semi keeps the rows whose key
    equals a non-null key, anti keeps the rest, null-key rows included."""
    ds = rd.from_arrow(pa.table({"k": ["a", "b", None], "v": [1, 2, 3]}))
    keys = {"a", None}
    semi = broadcast_semi_join(ds, keys, on=["k"]).to_pandas()
    anti = broadcast_semi_join(ds, keys, on=["k"], anti=True).to_pandas()
    assert semi["v"].tolist() == [1]
    assert sorted(anti["v"]) == [2, 3]


@pytest.mark.usefixtures("ray_session")
def test_brute_force_topk_matches_numpy():
    rng = np.random.default_rng(0)
    E = rng.normal(size=(200, 16))
    ids = np.arange(200, dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(E.astype(np.float32))})
    qm = E[:5]
    got = ann.brute_force_topk(rd.from_arrow(t), ids[:5], qm, k=7)

    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    Enf = E.astype(np.float32).astype(np.float64)
    Enf = Enf / np.linalg.norm(Enf, axis=1, keepdims=True)
    sims = Enf @ Enf[:5].T
    for q in range(5):
        s = sims[:, q].copy()
        s[q] = -np.inf
        order = np.lexsort((ids, -s))[:7]
        want = ids[order].tolist()
        have = got[got.query_id == q].sort_values("rank")["neighbor_id"].tolist()
        assert have == want, f"query {q}"


@pytest.mark.usefixtures("ray_session")
def test_cosine_pairs_threshold():
    v = np.eye(4)
    V = np.vstack([v[0], v[0] * 2 + 1e-9, v[1], v[2] + 0.9 * v[1]])
    t = pa.table({"vec_id": pa.array(np.arange(4, dtype=np.int64)),
                  "embedding": list(V.astype(np.float32))})
    pairs = cosine_pairs(rd.from_arrow(t), threshold=0.6)
    assert set(map(tuple, pairs[["id_a", "id_b"]].to_numpy())) == {(0, 1), (2, 3)}


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall_vs_brute_force():
    rng = np.random.default_rng(1)
    # clustered data so IVF buckets are meaningful
    centers = rng.normal(size=(8, 32)) * 5
    E = np.vstack([c + rng.normal(size=(50, 32)) for c in centers])
    ids = np.arange(len(E), dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(E.astype(np.float32))})
    ds = rd.from_arrow(t)
    q_ids, qm = ids[:10], E[:10]
    exact = ann.brute_force_topk(ds, q_ids, qm, k=10)
    approx = ann.ivf_topk(ds, q_ids, qm, k=10, n_centroids=8, nprobe=3)
    recalls = []
    for q in q_ids:
        a = set(exact[exact.query_id == q]["neighbor_id"])
        b = set(approx[approx.query_id == q]["neighbor_id"])
        recalls.append(len(a & b) / len(a))
    assert np.mean(recalls) >= 0.8


def _empty_embeddings() -> rd.Dataset:
    t = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                  "embedding": [[1.0, 0.0], [0.0, 1.0]]})
    return rd.from_arrow(t).filter(expr="vec_id < 0")


@pytest.mark.usefixtures("ray_session")
def test_cosine_pairs_bucketed_empty_dataset():
    got = ann.cosine_pairs_bucketed(_empty_embeddings(), threshold=0.5)
    assert len(got) == 0
    assert got.dtypes.to_dict() == {"id_a": np.int64, "id_b": np.int64,
                                    "sim": np.float64}


@pytest.mark.usefixtures("ray_session")
def test_ivf_topk_empty_dataset():
    got = ann.ivf_topk(_empty_embeddings(), np.array([1], np.int64),
                       np.array([[1.0, 0.0]]), k=3)
    assert len(got) == 0
    assert got.dtypes.to_dict() == {"query_id": np.int64,
                                    "neighbor_id": np.int64, "rank": np.int64}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001",
                                    "/root/testdata/sf0.01"])
def test_bucketed_cosine_pairs_match_all_pairs(sf_dir):
    """The IVF-bucketed pair search must equal the all-pairs oracle at the
    query's configured probe width (the driver gate relies on this)."""
    ds = rd.read_parquet(sf_dir + "/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    want = cosine_pairs(ds, threshold=0.4)[["id_a", "id_b"]]
    got = ann.cosine_pairs_bucketed(ds, threshold=0.4, n_centroids=16,
                                    nprobe=6)[["id_a", "id_b"]]
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_simhash_banding_equals_all_pairs():
    """9 bit-slice bands guarantee recall for hd <= 8 (pigeonhole); the
    distributed banding output must equal the brute-force all-pairs scan."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.dedup import (simhash_bits,
                                                   simhash_candidate_pairs)

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    base = [" ".join(rng.choice(words, size=12)) for _ in range(40)]
    texts = base + [t.replace("alpha", "alphaa", 1) for t in base[:10]]
    ids = [f"r{i:03d}" for i in range(len(texts))]
    tbl = pa.table({"rid": ids, "text": texts})

    sig = simhash_bits(tbl["text"])
    a, b = np.triu_indices(len(ids), k=1)
    lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)
    hd = lut[(sig[a] ^ sig[b]).view(np.uint8).reshape(-1, 8)].sum(1)
    keep = hd <= 8
    want = pd.DataFrame({"id_a": np.array(ids, object)[a[keep]],
                         "id_b": np.array(ids, object)[b[keep]],
                         "hamming": hd[keep].astype(np.int64)})
    want = want.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    got = simhash_candidate_pairs(rd.from_arrow(tbl), id_col="rid",
                                  num_bands=9, max_hd=8)
    pd.testing.assert_frame_equal(got, want)



@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("fn", ["minhash", "simhash", "verify"])
@pytest.mark.parametrize("id_type,dtype", [(pa.int64(), "int64"),
                                           (pa.string(), "object")],
                         ids=["int64_ids", "string_ids"])
@pytest.mark.parametrize("n_docs", [0, 6], ids=["empty", "all_distinct"])
def test_neardup_empty_results_carry_id_type(fn, id_type, dtype, n_docs):
    """An empty corpus and an all-distinct one give no pairs, in frames
    whose id columns have the corpus id column's type."""
    ids = pa.array(range(n_docs), pa.int64()).cast(id_type)
    texts = [" ".join(f"w{i}x{j}" for j in range(20)) for i in range(n_docs)]
    tbl = pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
    ds = rd.from_arrow(tbl)
    if fn == "minhash":
        out = dedup.minhash_candidate_pairs(ds, id_col="doc_id")
    elif fn == "simhash":
        out = dedup.simhash_candidate_pairs(ds, id_col="doc_id")
        assert out["hamming"].dtype == np.int64
    else:
        a, b = np.triu_indices(n_docs, k=1)
        ids_np = ids.to_numpy(zero_copy_only=False)
        every_pair = pd.DataFrame({"id_a": ids_np[a], "id_b": ids_np[b]})
        out = dedup.verify_candidate_pairs(ds, every_pair, id_col="doc_id")
    assert len(out) == 0
    assert out["id_a"].dtype == dtype and out["id_b"].dtype == dtype


def test_minhash_bands_must_divide_hashes():
    with pytest.raises(ValueError, match="num_hashes=128.*num_bands=5"):
        dedup.MinHashStage("doc_id", num_hashes=128, num_bands=5)


@pytest.mark.usefixtures("ray_session")
def test_simhash_max_hd_must_be_below_bands():
    ds = rd.from_arrow(pa.table({"rid": ["a"], "text": ["x y z"]}))
    with pytest.raises(ValueError, match="max_hd=9.*num_bands=9"):
        dedup.simhash_candidate_pairs(ds, id_col="rid", num_bands=9, max_hd=9)


def _sliced(frames: dict[str, pd.DataFrame]) -> pa.Table:
    """The frames as row slices of one table, told apart by ``side``."""
    both = pd.concat([f.assign(side=name) for name, f in frames.items()],
                     ignore_index=True)
    return pa.Table.from_pandas(both, preserve_index=False)


def _masks():
    import pyarrow.compute as pc

    return {"left_mask": lambda b: pc.equal(b["side"], "l"),
            "right_mask": lambda b: pc.equal(b["side"], "r")}


@pytest.mark.usefixtures("ray_session")
def test_asof_join_directions():
    """Backward and forward as-of matches equal ``pd.merge_asof`` on the
    same frames, unmatched left rows keeping nulls."""
    from ml_data_pipeline_ray.stages.joins import asof_join_sliced

    left = pd.DataFrame({"k": ["a", "a", "b", "c"], "t": [10, 20, 5, 7],
                         "lv": pd.array([1, 2, 3, 4], dtype="Int64")})
    right = pd.DataFrame({"k": ["a", "a", "b"], "t": [8, 15, 9],
                          "rv": ["x", "y", "z"]})
    tbl = _sliced({"l": left, "r": right})
    ds = rd.from_arrow([tbl.slice(0, 3), tbl.slice(3)])

    def nulls(vals):
        return [v if pd.notna(v) else None for v in vals]

    for direction, want in (("backward", ["x", "y", None, None]),
                            ("forward", ["y", None, "z", None])):
        got = asof_join_sliced(ds, by="k", on="t", left_cols=["k", "t", "lv"],
                               right_cols=["k", "t", "rv"], direction=direction,
                               **_masks()).to_pandas().sort_values("lv")
        ref = pd.merge_asof(left.sort_values("t"), right.sort_values("t"),
                            on="t", by="k", direction=direction
                            ).sort_values("lv")
        assert nulls(got["rv"]) == nulls(ref["rv"]) == want


@pytest.mark.usefixtures("ray_session")
def test_sliced_variants_match_single_process_references(tmp_path):
    """asof_join_sliced / range_join_count_sliced (single scan + mask
    tagging) equal ``pd.merge_asof`` and a numpy window count over the same
    two slices. Two right rows of one key may share a time; either is that
    time's match, so the as-of check compares each left row's matched
    right time."""
    import pyarrow.parquet as pq
    from ml_data_pipeline_ray.stages.joins import (asof_join_sliced,
                                                   range_join_count_sliced)

    rng = np.random.default_rng(7)
    n = 400
    t = pa.table({
        "k": pa.array(rng.integers(0, 12, n), pa.int64()),
        "t": pa.array(rng.integers(0, 1000, n), pa.int64()),
        "v": pa.array(np.arange(n), pa.int64()),
        "side": pa.array(rng.choice(["l", "r"], n)),
    })
    path = str(tmp_path / "both.parquet")
    pq.write_table(t, path, row_group_size=100)
    ds = rd.read_parquet(path)
    df = t.to_pandas()
    left = df[df.side == "l"][["k", "t", "v"]]
    right = df[df.side == "r"][["k", "t", "v"]]

    def canon(df):
        return (df.sort_values(list(df.columns), kind="mergesort")
                .reset_index(drop=True))

    got = asof_join_sliced(
        ds, by="k", on="t", left_cols=["k", "t", "v"],
        right_cols=["k", "t", "v"], **_masks()).to_pandas()
    want = pd.merge_asof(
        left.sort_values("t"),
        right.rename(columns={"v": "v_r"}).assign(t_r=right.t).sort_values("t"),
        on="t", by="k", direction="backward")
    t_of = dict(zip(right.v, right.t))        # v is a row id
    matched = {v: None if pd.isna(r) else t_of[int(r)]
               for v, r in zip(got.v, got.v_r)}
    assert len(got) == len(left)
    assert matched == {v: None if pd.isna(r) else int(r)
                       for v, r in zip(want.v, want.t_r)}

    got = canon(range_join_count_sliced(
        ds, by="k", on="t", left_cols=["k", "t", "v"], lo_offset=-50,
        hi_offset=0, **_masks()).to_pandas())
    lk, lt = left.k.to_numpy()[:, None], left.t.to_numpy()[:, None]
    rk, rt = right.k.to_numpy()[None, :], right.t.to_numpy()[None, :]
    in_window = (lk == rk) & (rt > lt - 50) & (rt <= lt)
    want = canon(left.assign(n_in_range=in_window.sum(axis=1)))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_keyed_shards_bytes_aware():
    """The exchange sizes its shards from the bytes it measured: a ~10 MB
    input (no datasource, no file) gets one shard per ``MIN_SHARD_BYTES``,
    fewer than ``shard_count()``'s floor, and the kernel runs once per
    shard."""
    from ml_data_pipeline_ray.stages.exchange import hash_exchange, shard_count

    n = 1_200_000
    ds = rd.from_arrow(pa.table({"a": pa.array(np.arange(n), pa.int64())}))
    want = shard_count(ds.materialize().size_bytes())
    assert 1 < want < shard_count()
    out = hash_exchange([ds], ["a"], lambda g: pa.table({"rows": [g.num_rows]}),
                        batch_format="pyarrow").to_pandas()
    assert len(out) == want and out["rows"].sum() == n


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_hash_exchange_skips_empty_blocks(batch_format):
    """An empty block without any column among non-empty ones (as an
    upstream map may emit) is skipped, not hashed; an input of empty blocks
    only gives an empty Dataset."""
    from ml_data_pipeline_ray.stages.exchange import hash_exchange

    def kernel(g):
        return g

    typed = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    parts = [pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}), pa.table({}),
             typed, pa.table({"k": [3, 4], "v": ["d", "e"]})]
    ds = rd.from_arrow(parts)
    assert ds.num_blocks() == 4
    got = hash_exchange([ds], ["k"], kernel, batch_format=batch_format)
    assert sorted(got.to_pandas().itertuples(index=False)) == [
        (1, "a"), (2, "b"), (3, "c"), (3, "d"), (4, "e")]

    empty = hash_exchange([rd.from_arrow([pa.table({}), typed])], ["k"], kernel,
                          batch_format=batch_format)
    assert empty.count() == 0


@pytest.mark.usefixtures("ray_session")
def test_hash_exchange_colocates_keys_across_inputs():
    """Two multi-block inputs with int, string and null keys (nulls only in
    some blocks): every key's rows from both inputs reach exactly one
    kernel call, per-key counts equal pandas, and the kernel sees only the
    input columns."""
    from ml_data_pipeline_ray.stages.exchange import hash_exchange

    rng = np.random.default_rng(11)

    def side(n: int, src: int) -> pd.DataFrame:
        k_int = rng.integers(0, 40, n).astype(object)
        k_str = rng.choice(["a", "b", "c"], n).astype(object)
        k_int[rng.random(n) < 0.1] = None
        k_str[rng.random(n) < 0.1] = None
        return pd.DataFrame({"k_int": pd.array(k_int, dtype="Int64"),
                             "k_str": k_str, "src": src})

    left, right = side(600, 0), side(400, 1)
    schema = pa.schema([("k_int", pa.int64()), ("k_str", pa.string()),
                        ("src", pa.int64())])

    def blocks(df: pd.DataFrame, n: int) -> rd.Dataset:
        # block 0 has no null int key, so a key's hash must not depend on
        # whether its block holds a null
        first = df[df.k_int.notna()].iloc[:50]
        rest = df.drop(first.index)
        step = -(-len(rest) // (n - 1))
        parts = [first] + [rest.iloc[i:i + step]
                           for i in range(0, len(rest), step)]
        return rd.from_arrow([pa.Table.from_pandas(p, schema=schema,
                                                   preserve_index=False)
                              for p in parts])

    def kernel(g: pa.Table) -> pa.Table:
        assert g.column_names == ["k_int", "k_str", "src"]
        out = g.group_by(["k_int", "k_str"]).aggregate([([], "count_all")])
        return pa.table({"k_int": out["k_int"], "k_str": out["k_str"],
                         "n": out["count_all"]})

    ds_l, ds_r = blocks(left, 4), blocks(right, 3)
    assert ds_l.num_blocks() == 4 and ds_r.num_blocks() == 3
    got = hash_exchange([ds_l, ds_r], ["k_int", "k_str"], kernel,
                        batch_format="pyarrow").to_pandas()
    # each key is emitted by exactly one kernel call: no duplicate key rows
    assert not got.duplicated(["k_int", "k_str"]).any()
    want = (pd.concat([left, right]).groupby(["k_int", "k_str"], dropna=False)
            .size())

    def norm(k):
        return tuple(None if pd.isna(v) else v for v in k)

    assert ({norm(k): n for k, n in want.items()}
            == {norm((i, s)): n for i, s, n in got.itertuples(index=False)})


@pytest.mark.usefixtures("ray_session")
def test_hash_exchange_result_is_collected_without_ray_data_execution(ray_data_runs):
    """An exchange's result is an executed Dataset over the merge tasks'
    blocks, described by the metadata the tasks yield: counting and
    collecting it (``collect_arrow``, ``registry.to_arrow``) runs no
    metadata task and constructs no ``StreamingExecutor``. A ``map_batches``
    chained on it plans from it as a fresh source and gives the same rows.
    A kernel's error raises at the call. An all-empty input gives an empty
    Dataset without a schema."""
    from ml_data_pipeline_ray.pipelines.registry import to_arrow
    from ml_data_pipeline_ray.stages.exchange import hash_exchange

    def kernel(g: pa.Table) -> pa.Table:
        return g.group_by("k").aggregate([("v", "sum")])

    src = rd.from_items([{"k": i % 7, "v": i} for i in range(60)],
                        override_num_blocks=3).materialize()
    want = {k: sum(range(k, 60, 7)) for k in range(7)}

    def rows(tbl: pa.Table) -> dict:
        return dict(zip(tbl["k"].to_pylist(), tbl["v_sum"].to_pylist()))

    ray_data_runs.clear()
    out = hash_exchange([src], ["k"], kernel, batch_format="pyarrow", shards=3)
    assert out.count() == 7
    assert rows(collect_arrow(out)) == want
    assert rows(to_arrow(out)) == want
    assert len(ray_data_runs) == 0

    chained = out.map_batches(lambda b: b, batch_format="pyarrow")
    assert rows(collect_arrow(chained)) == want

    def failing(g: pa.Table) -> pa.Table:
        raise ValueError("kernel failed")

    with pytest.raises(ValueError, match="kernel failed"):
        hash_exchange([src], ["k"], failing, batch_format="pyarrow")

    empty = hash_exchange([src.filter(lambda r: False)], ["k"], kernel,
                          batch_format="pyarrow")
    assert empty.count() == 0 and empty.schema() is None


@pytest.mark.usefixtures("ray_session")
def test_packed_dataset_is_built_without_cluster_state_calls(monkeypatch):
    """``packed_dataset`` hands blocks to the plan as its output without
    ``ExecutionPlan.execute()``, whose two cluster-state RPCs (free CPUs,
    object store spill totals) cost about 1 CPU-ms per read. The
    Dataset still counts, collects and reports its stats."""
    from ray.data._internal import plan as ray_plan

    from ml_data_pipeline_ray.stages.exchange import pack_blocks, packed_dataset

    def no_rpc(*args, **kwargs):
        raise AssertionError("cluster-state RPC while building the Dataset")

    parts = [pa.table({"k": [i, i + 1], "v": [1.0, 2.0]}) for i in range(0, 6, 2)]
    monkeypatch.setattr(ray, "available_resources", no_rpc)
    monkeypatch.setattr(ray_plan, "get_memory_info_reply", no_rpc)
    *blocks, meta = pack_blocks(parts, None)
    refs = [ray.put(b) for b in blocks]
    out = packed_dataset(refs, meta)
    monkeypatch.undo()

    assert out._plan.has_computed_output()
    assert out.count() == 6
    assert collect_arrow(out).equals(pa.concat_tables(parts))
    assert "FromBlocks" in out.stats()


def test_only_the_exchange_module_imports_ray_data_internals():
    """The package reaches Ray Data's private modules from one module,
    ``stages/exchange.py`` (its ``blocks_dataset``), so a Ray upgrade that
    moves them fails there and nowhere else."""
    import pathlib
    import re

    import ml_data_pipeline_ray

    root = pathlib.Path(ml_data_pipeline_ray.__file__).parent
    internal = re.compile(r"ray\.data\._internal|from\s+ray\.data\s+import\s+_internal")
    users = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")
                   if internal.search(p.read_text()))
    assert users == ["stages/exchange.py"]


def test_only_the_hive_round_trip_calls_ray_data_read_parquet():
    """The package reads Parquet through ``sources/parquet.py``. Ray Data's
    ``read_parquet`` is left only in ``pipelines/tpch.py``, whose
    ``events_hive_roundtrip`` tests Ray Data's partitioned write and read
    back."""
    import pathlib
    import re

    import ml_data_pipeline_ray

    root = pathlib.Path(ml_data_pipeline_ray.__file__).parent
    ray_reader = re.compile(r"\b(rd|ray\.data)\.read_parquet\b"
                            r"|from\s+ray\.data\s+import[^\n]*\bread_parquet\b")
    users = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")
                   if ray_reader.search(p.read_text()))
    assert users == ["pipelines/tpch.py"]


def test_source_readers_plan_through_file_tasks():
    """Every reader under ``sources/`` plans its tasks through
    ``parquet._file_tasks``: none calls Ray Data's ``read_csv`` or
    ``read_json``, ``from_items`` appears only inside ``_file_tasks`` (the
    stream of a read of several tasks), and ``from_paths``, the old
    per-file ``map_batches`` fan-out, is gone."""
    import ast
    import pathlib

    import ml_data_pipeline_ray

    def names(node):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("rd", "ray.data"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "ray.data":
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.alias)):
            yield node.name

    root = pathlib.Path(ml_data_pipeline_ray.__file__).parent / "sources"
    banned = {"read_csv", "read_json", "from_items", "from_paths"}
    uses = set()
    for p in root.rglob("*.py"):
        for top in ast.parse(p.read_text()).body:
            uses |= {(p.name, getattr(top, "name", None), n)
                     for node in ast.walk(top) for n in names(node) if n in banned}
    assert uses == {("parquet.py", "_file_tasks", "from_items")}


def _row_hash_reference(tbl: pa.Table, on: list[str]) -> np.ndarray:
    """key_hash's string path as it was: pandas' hash of every row's value
    (the CDC lake's persisted partition function must not move)."""
    h = np.zeros(tbl.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in on:
            h = h * np.uint64(0x100000001B3) + pd.util.hash_array(
                tbl.column(c).to_numpy(zero_copy_only=False), categorize=True)
    return h


@pytest.mark.parametrize("col", [
    pa.array(["c-1", None, "c-2", "", "c-1", None, "ü-3"]),
    pa.array([None, None, None], pa.string()),
    pa.array([], pa.string()),
    pa.chunked_array([], pa.string()),
    pa.chunked_array([pa.array(["a", None, "b"]), pa.array([None, "b", "c", "a"])]),
    pa.chunked_array([pa.array(["x", None, "y"], pa.large_string())]),
    pa.array([b"\x00k", None, b"k", b"\x00k"], pa.binary()),
    pa.array(["a", None, "b"], pa.large_binary()),
], ids=["nulls", "all_null", "empty", "no_chunks", "chunked", "large_string",
        "binary", "large_binary"])
def test_key_hash_of_strings_equals_row_hash(col):
    """Hashing a string or binary column's distinct values and gathering
    by index gives pandas' per-row hash bit for bit, alone and combined
    with an integer key."""
    from ml_data_pipeline_ray.stages.exchange import key_hash

    tbl = pa.table({"s": col, "i": pa.array(np.arange(len(col)), pa.int64())})
    for on in (["s"], ["i", "s"], ["s", "i"]):
        got = key_hash(tbl, on)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, _row_hash_reference(tbl, on))


@pytest.mark.usefixtures("ray_session")
def test_grouped_quantiles_exact_vs_sort():
    """The three-pass distributed exact selection (moments -> histogram ->
    narrow pick) must equal a full per-group sort under the discrete rank
    rule, including nulls and a constant-valued group (degenerate zero-width
    histogram bin)."""
    from ml_data_pipeline_ray.stages.quantiles import grouped_quantiles

    rng = np.random.default_rng(3)
    n = 50000
    keys = rng.choice(["a", "b", "c", "d"], n)
    vals = rng.normal(0, 10, n)
    vals[keys == "c"] = 7.0                  # constant group
    mask = rng.random(n) < 0.05              # proper Arrow nulls
    t = pa.table({"k": keys, "v": pa.array(vals, type=pa.float64(),
                                           mask=mask)})
    got = (grouped_quantiles(rd.from_arrow(t), "k", "v", [0.5, 0.95])
           .sort_values("k").reset_index(drop=True))

    rows = []
    for k, g in t.to_pandas().dropna(subset=["v"]).groupby("k"):
        v = np.sort(g["v"].to_numpy())
        nn = v.size
        rows.append({"k": k} | {
            f"p{int(q * 100)}": v[min(nn - 1, max(0, int(np.ceil(q * nn)) - 1))]
            for q in (0.5, 0.95)})
    want = pd.DataFrame(rows).sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_grouped_quantiles_with_infinities():
    """±inf values make a group's histogram range infinite (width NaN) —
    assignment clamps into end bins and the pick stays exact."""
    from ml_data_pipeline_ray.stages.quantiles import grouped_quantiles

    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.normal(0, 1, 997), [np.inf, np.inf, -np.inf]])
    rng.shuffle(vals)
    t = pa.table({"k": ["g"] * 1000, "v": pa.array(vals, pa.float64())})
    got = grouped_quantiles(rd.from_arrow(t), "k", "v", [0.5, 0.95])
    v = np.sort(vals)
    for q, col in ((0.5, "p50"), (0.95, "p95")):
        want = v[min(999, max(0, int(np.ceil(q * 1000)) - 1))]
        assert got[col].iloc[0] == want


def test_kmeans_matches_single_process_reference(ray_session):
    """Distributed Lloyd (map-side partials over many blocks) must equal a
    plain single-process implementation of the same determinism contract,
    including the final assignment witnesses."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.clustering import (MEAN_GRID,
                                                        QUANT_SCALE,
                                                        kmeans_fit)

    rng = np.random.default_rng(3)
    n, d, k, iters = 700, 16, 5, 4
    x = rng.normal(scale=0.4, size=(n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    rng.shuffle(ids)
    tbl = pa.table({
        "vec_id": ids,
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(x.reshape(-1).astype(np.float32)), d)
        .cast(pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl).repartition(9)
    cent, counts, id_sums = kmeans_fit(ds, k=k, n_iter=iters)

    # single-process reference under the identical contract
    xq = np.floor(x.astype(np.float64) * QUANT_SCALE + 0.5)
    order = np.argsort(ids)
    ref_cent = xq[order[:k]].copy()
    for _ in range(iters):
        d2 = ((xq[:, None, :] - ref_cent[None]) ** 2).sum(2)
        a = d2.argmin(1)
        ref_counts = np.bincount(a, minlength=k)
        ref_id_sums = np.bincount(a, weights=ids.astype(np.float64),
                                  minlength=k).astype(np.int64)
        for c in np.flatnonzero(ref_counts):
            ref_cent[c] = np.floor(xq[a == c].sum(0) / ref_counts[c]
                                   * MEAN_GRID + 0.5) / MEAN_GRID
    assert counts.tolist() == ref_counts.tolist()
    assert id_sums.tolist() == ref_id_sums.tolist()
    assert np.array_equal(cent, ref_cent)


def test_connected_components_vs_union_find(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.components import connected_components

    rng = np.random.default_rng(11)
    n = 400
    a = rng.integers(0, n, 300)
    b = rng.integers(0, n, 300)
    # add a 30-node chain (worst-case diameter shape for label propagation)
    chain = np.arange(1000, 1030)
    ea = np.concatenate([a, chain[:-1]])
    eb = np.concatenate([b, chain[1:]])
    keep = ea != eb
    ea, eb = ea[keep], eb[keep]

    parent = {}
    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    for x, y in zip(ea.tolist(), eb.tolist()):
        union(x, y)
    want = {x: find(x) for x in parent}
    # canonical min-id per component
    comp_min = {}
    for x, r in want.items():
        comp_min[r] = min(comp_min.get(r, x), x)
    want = {x: comp_min[find(x)] for x in parent}

    edges = rd.from_arrow(pa.table({"id_a": ea, "id_b": eb})).repartition(5)
    got = connected_components(edges).to_pandas()
    got_map = dict(zip(got["id"], got["comp"]))
    assert got_map == want


def test_bloom_filter_superset_and_fpr(ray_session):
    """Bloom pre-filter keeps EVERY true member (no false negatives) and
    its false-positive rate is near the designed ~1%."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.bloom import bloom_prefilter, build_bloom

    rng = np.random.default_rng(5)
    build_keys = rng.choice(200_000, size=5_000, replace=False)
    build = rd.from_arrow(pa.table({"k": build_keys})).repartition(6)
    probe_keys = np.arange(60_000)
    probe = rd.from_arrow(pa.table({"k": probe_keys})).repartition(6)

    bloom = build_bloom(build, on=["k"])
    kept = bloom_prefilter(probe, bloom, on=["k"]).to_pandas()["k"].to_numpy()

    members = np.intersect1d(probe_keys, build_keys)
    assert np.isin(members, kept).all()          # no false negatives
    extras = np.setdiff1d(kept, members)
    fpr = extras.size / (probe_keys.size - members.size)
    assert fpr < 0.03, f"false-positive rate {fpr:.4f} too high"


def test_hll_accuracy_and_partition_invariance(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.sketches import approx_distinct

    rng = np.random.default_rng(2)
    for true_n in (50, 3_000, 40_000):
        vals = rng.integers(0, true_n, size=max(true_n * 3, 1000))
        vals = np.concatenate([vals, np.arange(true_n)])  # ensure all present
        ds = rd.from_arrow(pa.table({"v": vals})).repartition(7)
        est = approx_distinct(ds, ["v"])
        assert abs(est - true_n) / true_n < 0.06, (true_n, est)
        # combine order / partitioning must not change the estimate
        est2 = approx_distinct(
            rd.from_arrow(pa.table({"v": vals[::-1]})).repartition(3), ["v"])
        assert est == est2


def test_broadcast_and_hash_join_suffix_collision_equivalent(ray_session):
    """Both join arms must produce the IDENTICAL schema when the two sides
    share a non-key column name (auto '_r' suffix) — auto_join's choice of
    arm must be invisible to the caller."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from ml_data_pipeline_ray.stages.joins import broadcast_join, hash_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"k": rng.integers(0, 30, 100),
                         "v": rng.integers(0, 5, 100)})
    right = pd.DataFrame({"k": np.arange(30), "v": np.arange(30) * 10})

    got_b = (broadcast_join(rd.from_pandas(left), right, on=["k"])
             .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    got_h = (hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"])
             .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    assert list(got_b.columns) == list(got_h.columns) == ["k", "v", "v_r"]
    pd.testing.assert_frame_equal(
        got_b[["k", "v", "v_r"]], got_h[["k", "v", "v_r"]])


def test_salted_join_equals_plain_join_under_skew(ray_session):
    """90% of the left side shares ONE key — the salted join must return
    exactly the plain join's rows (salting changes partitioning only)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from ml_data_pipeline_ray.stages.joins import hash_join, salted_hash_join

    rng = np.random.default_rng(4)
    k = np.where(rng.random(2000) < 0.9, 7, rng.integers(0, 50, 2000))
    left = pd.DataFrame({"k": k, "v": np.arange(2000)})
    right = pd.DataFrame({"k": np.arange(50), "w": np.arange(50) * 3})

    plain = (hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"])
             .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    salted = (salted_hash_join(rd.from_pandas(left).repartition(6),
                               rd.from_pandas(right), on=["k"], salts=4)
              .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(plain[["k", "v", "w"]],
                                  salted[["k", "v", "w"]])


def test_stratified_sample_k_matches_bruteforce_and_parallelism(ray_session):
    """Per-group fixed-k sample equals the pandas brute force (same hash
    order) and is invariant to block layout."""
    from ml_data_pipeline_ray.stages.sampling import (KNUTH, _MOD,
                                                      stratified_sample_k)

    rng = np.random.default_rng(2)
    df = pd.DataFrame({
        "doc_id": np.arange(500, dtype=np.int64),
        "source": rng.choice(["web", "code", "wiki", "rare"],
                             500, p=[0.6, 0.25, 0.13, 0.02]),
        "n_chars": rng.integers(10, 1000, 500),
    })
    want = (df.assign(_h=(df.doc_id * KNUTH) % _MOD)
            .sort_values(["_h", "doc_id"])
            .groupby("source", sort=False).head(7)
            .drop(columns="_h")
            .sort_values("doc_id").reset_index(drop=True))
    for parts in (1, 8):
        out = stratified_sample_k(rd.from_pandas(df).repartition(parts),
                                  k=7, group_col="source")
        out = out.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out[["doc_id", "source", "n_chars"]],
                                      want[["doc_id", "source", "n_chars"]])
    # every stratum capped at min(k, group size)
    sizes = out.groupby("source").size()
    full = df.groupby("source").size()
    for s in full.index:
        assert sizes[s] == min(7, full[s])


def test_quantize_int8_codes_and_error_bounds(ray_session):
    """Codes live in [-127,127], the max-|grid| component always maps to
    ±127, zero vectors map to zero codes, and the exact error witness
    round-trips the distributed grouped reduction."""
    from ml_data_pipeline_ray.stages.quantize import (GRID, QMAX,
                                                      quantization_stats,
                                                      quantize_int8)

    rng = np.random.default_rng(3)
    n, dim = 64, 16
    x = (rng.normal(0, 1, (n, dim)) * rng.uniform(0.1, 4, (n, 1))
         ).astype(np.float32)
    x[5] = 0.0                                    # zero vector
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "label": pa.array((np.arange(n) % 3).astype(np.int32)),
        "embedding": pa.array(list(x), pa.list_(pa.float32())),
    })
    qt = quantize_int8(t)
    q = np.array(qt["q"].to_pylist(), dtype=np.int64)
    s = qt["scale"].to_numpy()
    g = np.floor(x.astype(np.float64) * GRID).astype(np.int64)
    assert (np.abs(q) <= QMAX).all()
    nz = s > 0
    assert (np.abs(q[nz]).max(axis=1) == QMAX).all()
    assert (q[~nz] == 0).all()
    # exact witness: err = |127*g - q*s|
    err = np.abs(QMAX * g - q * s[:, None]).sum(axis=1)
    assert (qt["err_sum"].to_numpy() == err).all()
    # reconstruction: per component, error <= one quantization step
    # (s/(127*1024)) + one grid cell (1/1024)
    deq = q * s[:, None] / (QMAX * GRID)
    bound = s[nz, None] / (QMAX * GRID) + 1.0 / GRID + 1e-9
    assert (np.abs(x[nz] - deq[nz]) <= bound).all()
    # distributed grouped stats equal the local ones at any block layout
    local = pd.DataFrame({
        "label": (np.arange(n) % 3).astype(np.int64),
        "q": q.sum(axis=1), "aq": np.abs(q).sum(axis=1),
        "s": s, "e": err,
    }).groupby("label").agg(n=("q", "size"), sum_q=("q", "sum"),
                            sum_abs_q=("aq", "sum"), sum_scale=("s", "sum"),
                            sum_err=("e", "sum")).reset_index()
    for parts in (1, 6):
        got = quantization_stats(rd.from_arrow(t).repartition(parts))
        pd.testing.assert_frame_equal(
            got, local.astype(np.int64), check_dtype=False)


def test_grouped_agg_matches_pandas_all_fns(ray_session):
    """Arrow-native grouped_agg == pandas groupby for every supported fn,
    across key types (string, int, timestamp), null values, and block
    layouts."""
    from ml_data_pipeline_ray.stages.groupagg import grouped_agg

    rng = np.random.default_rng(6)
    n = 5000
    df = pd.DataFrame({
        "k1": rng.choice(["a", "b", "c", "dd"], n),
        "k2": rng.integers(0, 500, n),           # 500 int keys
        "ts": pd.to_datetime(rng.integers(0, 4, n), unit="h"),
        "v": rng.normal(0, 10, n),
        "m": rng.integers(-100, 100, n),
    })
    df.loc[rng.choice(n, 200, replace=False), "v"] = np.nan

    # min_count=1: SQL (and Arrow) SUM over an all-NULL group is NULL,
    # pandas' default is 0.0 — the engine follows SQL semantics
    want = (df.groupby(["k1", "k2"])
            .agg(sv=("v", lambda s: s.sum(min_count=1)),
                 nv=("v", "count"), mn=("m", "min"),
                 mx=("m", "max"), av=("v", "mean"), nr=("k1", "size"))
            .reset_index())
    for parts in (1, 7):
        got = grouped_agg(
            rd.from_pandas(df).repartition(parts),
            keys=["k1", "k2"],
            aggs=[("v", "sum", "sv"), ("v", "count", "nv"),
                  ("m", "min", "mn"), ("m", "max", "mx"),
                  ("v", "mean", "av"), ("k1", "count", "nr")],
        ).to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
        w = want.sort_values(["k1", "k2"]).reset_index(drop=True)
        assert (got["nv"].to_numpy() == w["nv"].to_numpy()).all()
        assert (got["nr"].to_numpy() == w["nr"].to_numpy()).all()
        assert (got["mn"].to_numpy() == w["mn"].to_numpy()).all()
        assert (got["mx"].to_numpy() == w["mx"].to_numpy()).all()
        assert np.allclose(got["sv"], w["sv"], equal_nan=True)
        assert np.allclose(got["av"], w["av"], equal_nan=True)
    # timestamp group key hashes + round-trips
    got_ts = grouped_agg(rd.from_pandas(df).repartition(5), keys=["ts"],
                         aggs=[("m", "sum", "sm")]).to_pandas()
    want_ts = df.groupby("ts").agg(sm=("m", "sum")).reset_index()
    got_ts = got_ts.sort_values("ts").reset_index(drop=True)
    want_ts = want_ts.sort_values("ts").reset_index(drop=True)
    assert (got_ts["sm"].to_numpy() == want_ts["sm"].to_numpy()).all()
