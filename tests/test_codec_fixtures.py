"""Codec fixtures and the witness queries built on them.

The decode-stats queries and their SQL oracles read the SAME cached fixture
file, so a fixture that silently changes still passes the query-vs-oracle
test; the pinned hashes below are what catch it."""

import hashlib
import sys
import types

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ml_data_pipeline_ray.stages import multimodal as M

#: sha256 of each fixture table's Arrow IPC stream bytes, keyed by
#: (maker, n, seed): the sizes and seeds the codec queries and the
#: multimodal_curation mix use
FIXTURE_SHA256 = {
    ("png", 96, 42): "6d5f3f2f28dcd763d6f92031cd31f6753f2e4200a74ef1c7cc79eff4670d6d9a",
    ("jpeg", 96, 42): "09465ec76c4ccb520727cfd1cba263636946ba37aa04211faab877549b63b10b",
    ("tiff", 96, 42): "18c276d2b3203ac3675de3e378d82124d1299b8577fa6598aa0f0b787dea160b",
    ("bmp_gif", 96, 42): "a5f310352fbd8d20a43ac1e30cc28ab37b3759743f4ae435b94851fb8d5c421b",
    ("wav", 96, 42): "eb88f92a7f625f160ff7e14aa08a568e0fbbc2d27964978ab950d92eadc4794d",
    ("y4m", 72, 42): "87ff7288cde36fdc6e4813539a1f1c3dc74a8410c4efad343624bb9f978586ac",
    ("binary", 256, 42): "092907999a09d316a282c857182b2e08cbca6e5d4a745096cf9d0c11dffd880f",
    ("png", 36, 7): "69fe3054f92203152841e09bebc9279616500cd62c01227acf7a2a28c86b5730",
    ("jpeg", 36, 7): "e51c3972415071cdc880147cedee5201e3bb3cc639987fb2b39b4d9772fbff0e",
    ("tiff", 36, 7): "e680c12275683437420488bd59db2f2022c4c9efc46475b01a5aba3ca6e269e3",
    ("bmp_gif", 72, 7): "6911552ead988925b3ff8ebb49e4a81516c2412e6122c3e5fff41ac5f76dfdf6",
    ("wav", 36, 7): "a18012e549be7a7d61f3c1bd0c4081c5e0748986ef51c0b9e2ed31cf51263a01",
    ("y4m", 36, 7): "f6c5fe483dafb499dde43900dd6fa2025583eaa5646c7140ef9fdc34e5b08f0b",
}


def _ipc_sha256(t: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


@pytest.mark.parametrize("maker,n,seed", sorted(FIXTURE_SHA256))
def test_codec_fixture_bytes_are_pinned(maker, n, seed):
    t = getattr(M, f"make_{maker}_fixture")(n=n, seed=seed)
    assert _ipc_sha256(t) == FIXTURE_SHA256[(maker, n, seed)]


def test_codec_fixture_write_is_atomic(tmp_path, monkeypatch):
    """A write killed part-way must not leave a file that later runs reuse:
    the next call regenerates the fixture."""
    import tempfile

    from ml_data_pipeline_ray.pipelines import parity_queries as P

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    real_write = pq.write_table

    def torn_write(table, where, **kw):
        with open(where, "wb") as f:
            f.write(b"PAR1 torn")
        raise OSError("killed mid-write")

    monkeypatch.setattr(pq, "write_table", torn_write)
    with pytest.raises(OSError, match="killed"):
        P._codec_fixture("pngtorn", M.make_png_fixture, 4)
    monkeypatch.setattr(pq, "write_table", real_write)
    path = P._codec_fixture("pngtorn", M.make_png_fixture, 4)
    assert pq.read_table(path).equals(M.make_png_fixture(n=4, seed=42))


def test_image_decoder_ignores_installed_pil(monkeypatch):
    """The builtin codecs decode even where PIL is importable: PIL's
    ``convert("RGBA")`` would report every image as 4-channel."""
    class _Img:
        def convert(self, mode):
            return np.zeros((2, 2, 4), np.uint8)

    image = types.SimpleNamespace(open=lambda fp: _Img())
    pil = types.ModuleType("PIL")
    pil.Image = image
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", image)
    t = M.make_png_fixture(n=9, seed=1)
    out = M.decode_images(t.select(["item_id", "data"]),
                          gray_witness=True)
    assert out["channels"].to_pylist() == t["true_channels"].to_pylist()
    assert out["px_sum"].to_pylist() == t["true_px_sum"].to_pylist()
    assert out["px_sum_gray"].to_pylist() == t["true_px_sum_gray"].to_pylist()
