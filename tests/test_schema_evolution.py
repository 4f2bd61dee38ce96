"""F3 schema evolution: added nullable column + int32->int64 widening across
the changelog, unified via Arrow permissive promotion (reference analog:
``compatible_with`` lattice, ml-data/ml-data-core/src/schema.rs:206-253)."""

import glob

import numpy as np

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.cdc import CDCEngine, oracle_replay
from ml_data_pipeline_ray.fixtures import write_fixture_set


@pytest.fixture(scope="module")
def evolved_fixture(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cdc_evolved"))
    return write_fixture_set(root, scale="tiny", seed=42, n_files=8, evolve=True)


def _read_all(d):
    return pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(d + "/*.parquet"))],
                            promote_options="permissive")


@pytest.mark.usefixtures("ray_session")
def test_evolved_replay_unifies_schema_and_matches_oracle(evolved_fixture, tmp_path):
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    m = eng.replay(evolved_fixture["changelog"])
    assert m["committed"]

    tbl = eng.final_table(sort=True)
    # unified schema: widened turn_idx, added nullable model
    assert tbl.schema.field("turn_idx").type == pa.int64()
    assert "model" in tbl.schema.names

    got = tbl.to_pandas()
    want = oracle_replay(_read_all(evolved_fixture["changelog"]),
                         extra_columns=["model"])
    got = got[want.columns.tolist()]
    assert len(got) == len(want)
    for col in want.columns:
        pd.testing.assert_series_equal(
            got[col].reset_index(drop=True), want[col].reset_index(drop=True),
            check_names=False, check_dtype=False, obj=f"column {col}")

    # pre-cutover winners have null model (null-backfill), some post-cutover don't
    assert got["model"].isna().any()
    assert got["model"].notna().any()


def test_align_column_nested_and_decimal():
    from decimal import Decimal

    from ml_data_pipeline_ray.stages.transforms import align_to_schema

    batch = pa.table({
        "d": pa.array([Decimal("1.23"), Decimal("4.56")], pa.decimal128(5, 2)),
        "l": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
        "s": pa.array([{"model": "m1"}, None],
                      pa.struct([("model", pa.string())])),
    })
    target = pa.schema([
        ("d", pa.decimal128(18, 2)),                       # precision widening
        ("l", pa.list_(pa.int64())),                       # element widening
        ("s", pa.struct([("model", pa.string()),
                         ("temp", pa.float64())])),        # struct evolution
        ("extra", pa.int64()),                             # added column
    ])
    out = align_to_schema(batch, target)
    assert out.schema == target
    assert out["d"].to_pylist() == [Decimal("1.23"), Decimal("4.56")]
    assert out["l"].to_pylist() == [[1, 2], [3]]
    assert out["s"].to_pylist() == [{"model": "m1", "temp": None}, None]
    assert out["extra"].null_count == 2


@pytest.mark.usefixtures("ray_session")
def test_nested_struct_column_through_cdc_replay(tmp_path):
    """A struct payload column that evolves mid-log (absent -> struct<model>
    -> struct<model, temp>) must unify permissively and survive replay."""
    import os

    d = str(tmp_path / "log")
    os.makedirs(d)

    def w(name, rows, meta_type):
        cols = {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "conv_id": pa.array([r[2] for r in rows], pa.string()),
            "turn_idx": pa.array([r[3] for r in rows], pa.int64()),
            "role": pa.array(["user"] * len(rows), pa.string()),
            "text": pa.array([r[4] for r in rows], pa.string()),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([0] * len(rows), pa.int64()),
        }
        if meta_type is not None:
            cols["meta"] = pa.array([r[5] for r in rows], meta_type)
        pq.write_table(pa.table(cols), os.path.join(d, name))

    w("a.parquet", [(1, "insert", "c1", 0, "t1"),
                    (2, "insert", "c2", 0, "t2")], None)
    t_v1 = pa.struct([("model", pa.string())])
    w("b.parquet", [(3, "update", "c1", 0, "t1b", {"model": "m1"})], t_v1)
    t_v2 = pa.struct([("model", pa.string()), ("temp", pa.float64())])
    w("c.parquet", [(4, "insert", "c3", 0, "t3",
                     {"model": "m2", "temp": 0.5})], t_v2)

    eng = CDCEngine(str(tmp_path / "lake_nested"), num_partitions=4)
    m = eng.replay(d)
    assert m["committed"]
    tbl = eng.final_table(sort=True)
    assert tbl.schema.field("meta").type == t_v2
    rows = {r["conv_id"]: r for r in tbl.to_pylist()}
    assert rows["c1"]["meta"] == {"model": "m1", "temp": None}
    assert rows["c2"]["meta"] is None
    assert rows["c3"]["meta"] == {"model": "m2", "temp": 0.5}
    assert rows["c1"]["text"] == "t1b"




def test_align_to_schema_randomized_evolution_chains():
    """Randomized widening chains: for random (source, target) pairs drawn
    from the lattice (numeric widening, decimal precision growth, struct
    field addition, list element widening), align_to_schema must preserve
    values exactly and produce the target schema."""
    import random

    from decimal import Decimal

    from ml_data_pipeline_ray.stages.transforms import align_to_schema

    rng = random.Random(99)
    numeric_chain = [pa.int32(), pa.int64(), pa.float64()]
    for trial in range(25):
        i = rng.randrange(len(numeric_chain))
        j = rng.randrange(i, len(numeric_chain))
        src_n, dst_n = numeric_chain[i], numeric_chain[j]
        n_struct_src = rng.randrange(1, 3)
        n_struct_dst = rng.randrange(n_struct_src, 4)
        sfields = [(f"f{k}", pa.string()) for k in range(n_struct_dst)]
        src_struct = pa.struct(sfields[:n_struct_src])
        dst_struct = pa.struct(sfields)
        # map value widening; fixed_size_list widening or relaxation-to-list;
        # dictionary index/value widening or decode-to-plain (all from the
        # reference's DataType set, schema.rs:13-106)
        dst_fl = (pa.list_(dst_n, 2) if rng.random() < 0.5 else pa.list_(dst_n))
        dst_dc = (pa.dictionary(pa.int64(), pa.large_string())
                  if rng.random() < 0.5 else pa.string())
        # reference type-lattice corners (schema.rs:13-106): Float16 widening
        # (int16 -> f16 -> f32 -> f64), Time32/Time64 unit widening, Union
        # child widening (same code layout; Arrow has no union cast kernel)
        f16_chain = [pa.int16(), pa.float16(), pa.float32(), pa.float64()]
        fi = rng.randrange(len(f16_chain) - 1)
        src_f16, dst_f16 = f16_chain[fi], f16_chain[rng.randrange(
            fi, len(f16_chain))]
        time_chain = [pa.time32("s"), pa.time32("ms"), pa.time64("us"),
                      pa.time64("ns")]
        ti = rng.randrange(len(time_chain) - 1)
        src_tm, dst_tm = time_chain[ti], time_chain[rng.randrange(
            ti, len(time_chain))]
        src_un = pa.union([pa.field("num", src_n), pa.field("str", pa.string())],
                          "dense", [0, 1])
        dst_un = pa.union([pa.field("num", dst_n), pa.field("str", pa.string())],
                          "dense", [0, 1])
        dst = pa.schema([("a", dst_n), ("l", pa.list_(dst_n)),
                         ("s", dst_struct),
                         ("d", pa.decimal128(rng.randrange(7, 30), 2)),
                         ("m", pa.map_(pa.string(), dst_n)),
                         ("fl", dst_fl),
                         ("dc", dst_dc),
                         ("ls", pa.list_(dst_struct)),
                         ("h", dst_f16),
                         ("t", dst_tm),
                         ("u", dst_un),
                         ("new", pa.string())])
        vals = [rng.randrange(-1000, 1000) for _ in range(5)]
        batch = pa.table({
            "a": pa.array(vals, src_n),
            "l": pa.array([[v] for v in vals], pa.list_(src_n)),
            "s": pa.array([{f"f{k}": f"v{k}-{x}" for k in range(n_struct_src)}
                           for x in range(5)], src_struct),
            "d": pa.array([Decimal(f"{v}.25") for v in vals],
                          pa.decimal128(7, 2)),
            "m": pa.array([[("k", v)] for v in vals],
                          pa.map_(pa.string(), src_n)),
            "fl": pa.array([[v, v + 1] for v in vals], pa.list_(src_n, 2)),
            "dc": pa.array([f"s{v % 3}" for v in vals]).dictionary_encode(),
            "ls": pa.array(
                [[{f"f{k}": f"v{k}-{x}" for k in range(n_struct_src)}]
                 for x in range(5)], pa.list_(src_struct)),
            "h": (pa.array(np.array(np.abs(vals), np.float16))
                  if src_f16 == pa.float16()
                  else pa.array([abs(v) for v in vals], src_f16)),
            "t": pa.array([abs(v) for v in vals], src_tm),
            "u": pa.UnionArray.from_dense(
                pa.array([0, 1, 0, 1, 0], pa.int8()),
                pa.array([0, 0, 1, 1, 2], pa.int32()),
                [pa.array(vals[:3], src_n), pa.array(["ux", "uy"])],
                ["num", "str"], [0, 1]),
        })
        out = align_to_schema(batch, dst)
        assert out.schema == dst, trial
        assert [float(v) for v in out["h"].to_pylist()] == \
            [float(abs(v)) for v in vals]
        got_t = out["t"].to_pylist()
        want_t = pa.array([abs(v) for v in vals], src_tm).cast(dst_tm).to_pylist()
        assert got_t == want_t
        got_u = out["u"].to_pylist()
        assert got_u == [vals[0], "ux", vals[1], "uy", vals[2]]
        assert [int(v) for v in out["a"].to_pylist()] == vals
        assert [int(x[0]) for x in out["l"].to_pylist()] == vals
        for x, row in enumerate(out["s"].to_pylist()):
            for k in range(n_struct_dst):
                want = f"v{k}-{x}" if k < n_struct_src else None
                assert row[f"f{k}"] == want
        assert out["d"].to_pylist() == [Decimal(f"{v}.25") for v in vals]
        assert [dict(x)["k"] for x in out["m"].to_pylist()] == \
            [int(v) for v in vals]
        assert [[int(e) for e in x] for x in out["fl"].to_pylist()] == \
            [[v, v + 1] for v in vals]
        assert out["dc"].to_pylist() == [f"s{v % 3}" for v in vals]
        for x, row in enumerate(out["ls"].to_pylist()):
            assert len(row) == 1
            for k in range(n_struct_dst):
                want = f"v{k}-{x}" if k < n_struct_src else None
                assert row[0][f"f{k}"] == want
        assert out["new"].null_count == 5


def test_align_to_schema_tensor_extension():
    """Tensor-typed columns (reference DenseTensor, tensor.rs:20-38,
    schema.rs:63): fixed_shape_tensor roundtrips through parquet, and
    align_to_schema converts list / fixed_size_list storage <-> the
    extension type (with element widening) in both directions."""
    import numpy as np
    import pyarrow.parquet as pq_

    from ml_data_pipeline_ray.stages.transforms import align_to_schema

    D = 4
    ttype = pa.fixed_shape_tensor(pa.float32(), [D])
    data = np.arange(8, dtype=np.float32).reshape(2, D)
    storage = pa.FixedSizeListArray.from_arrays(
        pa.array(data.ravel(), pa.float32()), D)
    tbl = pa.table({"t": pa.ExtensionArray.from_storage(ttype, storage)})

    # parquet write -> read preserves the canonical extension type
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.parquet")
        pq_.write_table(tbl, p)
        back = pq_.read_table(p)
    assert back["t"].type == ttype
    np.testing.assert_array_equal(
        back["t"].combine_chunks().to_numpy_ndarray(), data)

    # plain list<float32> -> tensor
    src = pa.table({"t": pa.array([[0., 1., 2., 3.], [4., 5., 6., 7.]],
                                  pa.list_(pa.float32()))})
    out = align_to_schema(src, pa.schema([("t", ttype)]))
    assert out.schema.field("t").type == ttype
    np.testing.assert_array_equal(
        out["t"].combine_chunks().to_numpy_ndarray(), data)

    # fixed_size_list<float64> -> tensor(float32)  (element narrowing via
    # the storage cast) and tensor -> plain list (extension unwrap)
    src = pa.table({"t": pa.array([[0., 1., 2., 3.], [4., 5., 6., 7.]],
                                  pa.list_(pa.float64(), D))})
    out = align_to_schema(src, pa.schema([("t", ttype)]))
    assert out.schema.field("t").type == ttype
    out2 = align_to_schema(tbl, pa.schema([("t", pa.list_(pa.float64()))]))
    assert out2["t"].to_pylist() == [[0., 1., 2., 3.], [4., 5., 6., 7.]]


def test_hash_join_bucket_count_is_data_size_aware():
    """Bucket count must grow with input bytes (~512 MiB per bucket) and
    floor at 3x cores — each bucket materializes as ONE map_groups group,
    so a cores-only count would put ~1 TB per group at 100 TB."""
    from ml_data_pipeline_ray.stages.exchange import (MIN_SHARD_BYTES,
                                                      TARGET_SHARD_BYTES,
                                                      shard_count)

    cpus = 32
    floor = 3 * cpus
    assert shard_count(None, cpus) == floor
    # tiny-input cap: never a bucket smaller than ~4 MiB (per-group task
    # overhead otherwise dominates — measured 10 s of scheduling for a
    # 1.5 MB join at the bare floor)
    assert shard_count(1 << 20, cpus) == 1
    assert shard_count(8 * MIN_SHARD_BYTES, cpus) == 8
    # at >= floor x 4 MiB the parallelism floor takes over
    assert shard_count(floor * MIN_SHARD_BYTES, cpus) == floor
    assert shard_count(1 << 30, cpus) == floor
    # 1 TiB in-memory -> 2048 buckets of 512 MiB, far above the floor
    assert shard_count(1 << 40, cpus) == (1 << 40) // TARGET_SHARD_BYTES
    # monotone in input size
    sizes = [1 << 20, 1 << 25, 1 << 30, 1 << 35, 1 << 40, 1 << 45]
    counts = [shard_count(s, cpus) for s in sizes]
    assert counts == sorted(counts) and counts[-1] > counts[0]
