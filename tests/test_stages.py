"""Unit tests for the operator library (text, dedup kernels, predicates,
transforms, readers, dictionary state, multimodal plumbing)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ml_data_pipeline_ray.stages import dedup, predicates as P, text as T
from ml_data_pipeline_ray.stages.multimodal import make_binary_fixture, sniff_format
from ml_data_pipeline_ray.stages.transforms import (align_to_schema, chain,
                                                    infer_column_type,
                                                    parse_bool_synonyms)


# -- text -------------------------------------------------------------------

def test_token_stats_and_quality():
    t = pa.table({"text": ["the cat and the hat", "abc 123 xyz", "", "no stop words here"]})
    out = T.add_quality_metrics(t)
    assert out["n_tokens"].to_pylist() == [5, 3, 0, 4]
    assert out["n_stopwords"].to_pylist() == [3, 0, 0, 0]
    assert out["n_chars_text"].to_pylist() == [19, 11, 0, 18]
    assert out["digit_ratio"].to_pylist()[1] == round(3 / 11, 6)


def test_lang_pred_heuristic():
    t = pa.table({"text": [
        "the quick fox is running to the house and back",
        "el perro y la casa de que los gatos en madrid",
        "der hund und das haus ist nicht hier",
        "le chat et les maisons est une belle dans paris",
        "你好 世界 这是 中文",
        "zzz qqq www",
    ]})
    out = T.add_lang_pred(t)
    assert out["lang_pred"].to_pylist() == ["en", "es", "de", "fr", "zh", "und"]


def test_fingerprinter_deterministic_and_discriminative():
    fp = T.Fingerprinter(k=4)
    t = pa.table({"text": ["hello world this is a doc", "hello world this is a doc",
                           "a completely different doc", ""]})
    out = fp(t)
    c = out["fp_content"].to_pylist()
    assert c[0] == c[1] != c[2]
    m = out["fp_min"].to_pylist()
    assert m[0] == m[1]
    assert out.num_rows == 4


# -- dedup kernels ----------------------------------------------------------

def test_tokenize_and_shingles():
    th, counts = dedup.tokenize_offsets(pa.array(["a b c d", "x", ""]))
    assert counts.tolist() == [4, 1, 0]
    sh, win = dedup.shingle_hashes(th, counts, k=3)
    assert win.tolist() == [2, 1, 0]


def test_minhash_similarity_monotone():
    texts = ["the quick brown fox jumps over the lazy dog " * 3,
             "the quick brown fox jumps over the lazy dog " * 3 + "extra tail",
             "completely unrelated content about databases and shuffles"]
    th, counts = dedup.tokenize_offsets(pa.array(texts))
    sh, win = dedup.shingle_hashes(th, counts, k=3)
    sig = dedup.minhash_signatures(sh, win, num_hashes=128)
    sim01 = (sig[0] == sig[1]).mean()
    sim02 = (sig[0] == sig[2]).mean()
    assert sim01 > 0.5 > sim02


def test_simhash_hamming():
    texts = ["the quick brown fox jumps over the lazy dog",
             "the quick brown fox jumps over the lazy cat",
             "unrelated text about parquet manifests and checkpoints"]
    sig = dedup.simhash_bits(pa.array(texts))
    d01 = bin(int(sig[0] ^ sig[1])).count("1")
    d02 = bin(int(sig[0] ^ sig[2])).count("1")
    assert d01 < d02


# -- predicates -------------------------------------------------------------

def test_predicate_expression_and_sql():
    p = (P.Compare("l_quantity", "lt", 24) & P.Compare("l_returnflag", "eq", "N")) \
        | P.Compare("l_comment", "is_null")
    sql = p.to_sql()
    assert "l_quantity < 24" in sql and "l_returnflag = 'N'" in sql
    expr = p.to_expression()
    assert expr is not None
    assert not p.can_push_down() or True  # contains no non-pushdown ops on left branch


def test_predicate_simplify_folding():
    p = P.And([P.AlwaysTrue(), P.Compare("x", "eq", 1)])
    assert isinstance(p.simplify(), P.Compare)
    p = P.And([P.AlwaysFalse(), P.Compare("x", "eq", 1)])
    assert isinstance(p.simplify(), P.AlwaysFalse)
    p = P.Or([P.AlwaysTrue(), P.Compare("x", "eq", 1)])
    assert isinstance(p.simplify(), P.AlwaysTrue)
    assert isinstance(P.Not(P.Not(P.Compare("x", "eq", 1))).simplify(), P.Compare)
    assert not P.Compare("s", "contains", "x").can_push_down()
    assert P.Compare("s", "ge", 1).can_push_down()


def test_predicate_filters_table():
    import pyarrow.dataset as pads
    t = pa.table({"x": [1, 2, 3, 4], "s": ["aa", "ab", "ba", None]})
    p = P.Compare("x", "gt", 1) & P.Compare("s", "starts_with", "a")
    got = pads.dataset(t).to_table(filter=p.to_expression())
    assert got["x"].to_pylist() == [2]


# -- transforms -------------------------------------------------------------

def test_align_to_schema_widen_and_backfill():
    t = pa.table({"a": pa.array([1, 2], pa.int32())})
    s = pa.schema([("a", pa.int64()), ("b", pa.string())])
    out = align_to_schema(t, s)
    assert out.schema == s
    assert out["b"].null_count == 2


def test_bool_synonyms_and_inference():
    t = pa.table({"b": ["Yes", "0", "t", "nope", " TRUE "]})
    out = parse_bool_synonyms(t, "b")
    assert out["b"].to_pylist() == [True, False, True, None, True]
    assert infer_column_type(["1", "2"]) == pa.int64()
    assert infer_column_type(["1", "2.5"]) == pa.float64()
    assert infer_column_type(["yes", "no"]) == pa.bool_()
    assert infer_column_type(["yes", "maybe"]) == pa.string()
    assert infer_column_type([None, ""]) == pa.string()


def test_chain_composes():
    f = chain(lambda t: t.append_column("y", pa.array([1])),
              lambda t: t.append_column("z", pa.array([2])))
    out = f(pa.table({"x": [0]}))
    assert out.column_names == ["x", "y", "z"]


# -- readers ----------------------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_read_csv_typed_inference(tmp_path):
    # mirrors the reference's own CSV test (csv/mod.rs:21-53): basic.csv
    p = tmp_path / "basic.csv"
    p.write_text("id,name,value\n1,Alice,10.5\n2,Bob,20.3\n3,Charlie,30.1\n")
    from ml_data_pipeline_ray.sources import read_csv_typed
    ds = read_csv_typed(str(p))
    tbl = ds.take_all()
    assert len(tbl) == 3
    sch = ds.schema()
    assert dict(zip(sch.names, [str(t) for t in sch.types])) == {
        "id": "int64", "name": "string", "value": "double"}


@pytest.mark.usefixtures("ray_session")
def test_read_csv_no_header_declared_schema(tmp_path):
    p = tmp_path / "noheader.csv"
    p.write_text("1,Alice,10.5\n2,Bob,20.3\n3,Charlie,30.1\n")
    from ml_data_pipeline_ray.sources import read_csv_typed
    schema = pa.schema([("id", pa.int64()), ("name", pa.string()),
                        ("value", pa.float64())])
    ds = read_csv_typed(str(p), has_header=False, schema=schema)
    rows = ds.take_all()
    assert rows[0] == {"id": 1, "name": "Alice", "value": 10.5}


@pytest.mark.usefixtures("ray_session")
def test_read_text_lines(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_bytes("\xef\xbb\xbffirst\n\n  third  \n".encode("latin1"))
    from ml_data_pipeline_ray.sources import read_text_lines
    rows = read_text_lines(str(p), trim=True, skip_empty=True).take_all()
    assert rows == [{"line_number": 1, "text": "first"},
                    {"line_number": 3, "text": "third"}]


def test_detect_format(tmp_path):
    from ml_data_pipeline_ray.sources import detect_format
    pq_file = tmp_path / "x.bin"
    pq_file.write_bytes(b"PAR1xxxx")
    assert detect_format(str(pq_file)) == "parquet"
    assert detect_format("a.csv") == "csv"
    assert detect_format("a.parquet") == "parquet"


# -- multimodal -------------------------------------------------------------

def test_multimodal_sniff_format():
    t = make_binary_fixture(n=16, seed=42)
    out = sniff_format(t)
    fmts = set(out["format"].to_pylist())
    assert fmts == {"jpeg", "png", "gif", "bmp"}
    # RIFF disambiguation (WAVE vs WEBP) + y4m magic
    extra = pa.table({"data": pa.array([
        b"RIFF\x10\x00\x00\x00WAVEfmt junk",
        b"RIFF\x10\x00\x00\x00WEBPVP8 junk",
        b"YUV4MPEG2 W4 H4 F25:1\nFRAME\n" + b"\x00" * 24,
        b"RIFF",                                 # truncated container
    ], pa.binary())})
    got = sniff_format(extra)["format"].to_pylist()
    assert got == ["wav", "webp", "y4m", "webp"]


def test_wav_codec_roundtrip_and_decode_stats():
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (
        decode_audio, decode_wav, encode_wav, make_wav_fixture)

    rng = np.random.default_rng(7)
    for ch in (1, 2):
        clip = rng.integers(-30000, 30000, (123, ch)).astype(np.int16)
        back, rate = decode_wav(encode_wav(clip, 22_050))
        assert rate == 22_050
        assert back.shape == (123, ch)
        assert (back == clip.astype(np.int32)).all()
    with pytest.raises(ValueError, match="not a RIFF"):
        decode_wav(b"\x89PNGjunkjunk")
    # odd-length data chunk: the walker must word-align past it
    odd = encode_wav(np.array([[1], [2], [3]], np.int16))  # 6-byte data
    s, _ = decode_wav(odd + b"")
    assert s[:, 0].tolist() == [1, 2, 3]
    # decoder stats vs encode-time truth, incl. frame-sampled variant
    t = make_wav_fixture(n=24, seed=11)
    out = decode_audio(t)
    assert out["channels"].to_pylist() == [
        int(x) for x in t["true_channels"].to_pylist()]
    assert out["abs_sum"].to_pylist() == t["true_abs_sum"].to_pylist()
    framed = decode_audio(t, frame_step=4)
    # clip metadata (n_samples/duration_ms) comes from the FULL decode —
    # frame_step subsamples only the witness/energy stats
    assert framed["n_samples"].to_pylist() == t["true_n_samples"].to_pylist()
    assert framed["abs_sum"].to_pylist() != t["true_abs_sum"].to_pylist()


def test_y4m_codec_roundtrip_and_frame_sampling():
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (
        decode_video, decode_y4m, encode_y4m, make_y4m_fixture)

    rng = np.random.default_rng(9)
    clip = rng.integers(0, 256, (7, 10, 12), dtype=np.uint8)
    buf = encode_y4m(clip, (30000, 1001))
    y, w, h, fps, total = decode_y4m(buf)
    assert (y == clip).all()
    assert (w, h, fps, total) == (12, 10, (30000, 1001), 7)
    # planar C444 source: Y plane round-trips
    p = rng.integers(0, 256, (4, 3, 6, 8), dtype=np.uint8)
    y2, _, _, _, t2 = decode_y4m(encode_y4m(p))
    assert (y2 == p[:, 0]).all() and t2 == 4
    # frame sampling never touches unsampled frames' bytes
    ys, *_, tot = decode_y4m(buf, frame_step=3)
    assert tot == 7 and (ys == clip[::3]).all()
    with pytest.raises(ValueError, match="not a YUV4MPEG2"):
        decode_y4m(b"RIFFjunkjunkjunk")
    # stage stats vs encode-time truth (all frames + even-frame witness)
    t = make_y4m_fixture(n=12, seed=5)
    out = decode_video(t, frame_step=2)
    assert out["width"].to_pylist() == [
        int(x) for x in t["true_w"].to_pylist()]
    assert out["n_frames"].to_pylist() == t["true_frames"].to_pylist()
    assert out["y_sum"].to_pylist() == t["true_y_sum_even"].to_pylist()
    assert decode_video(t)["y_sum"].to_pylist() == \
        t["true_y_sum_all"].to_pylist()


def test_png_codec_roundtrip_all_color_types():
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(3)
    for c in (1, 2, 3, 4):
        img = rng.integers(0, 256, (17, 11, c), dtype=np.uint8)
        back = decode_png(encode_png(img))
        assert back.shape == img.shape
        assert (back == img).all()
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"\xff\xd8\xffjunk")


def test_png_adam7_and_16bit():
    """Adam7 interlace reassembly + 16-bit sample reduction (high byte),
    across channel counts and odd/tiny dims."""
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(11)
    for c in (1, 2, 3, 4):
        for (h, w) in ((1, 1), (3, 2), (8, 9), (23, 17)):
            img = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
            assert (decode_png(encode_png(img, interlace=True)) == img).all()
    img16 = rng.integers(0, 65536, (13, 11, 3), dtype=np.uint16)
    expect = (img16 >> 8).astype(np.uint8)
    assert (decode_png(encode_png(img16)) == expect).all()
    assert (decode_png(encode_png(img16, interlace=True)) == expect).all()


def test_jpeg_codec_spec_paths():
    """Builtin baseline JPEG codec (public T.81 spec): analytic constant-
    tile exactness (grayscale DC path is pure integer — the expected value
    is derived from the spec's quantization arithmetic, never from the
    decoder), PSNR bounds on gradients for 4:4:4 and 4:2:0 incl. non-MCU-
    aligned dims, byte stuffing, restart markers, error paths."""
    import numpy as np

    from ml_data_pipeline_ray.stages.jpeg import (_ZZ, _Q_LUMA, _scaled_quant,
                                                  decode_jpeg, encode_jpeg)

    # zigzag: the spec's first 10 raster indices
    assert _ZZ[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
    assert sorted(_ZZ.tolist()) == list(range(64))
    # quality-50 luma quant table is the Annex-K base (Q00 = 16)
    assert _scaled_quant(_Q_LUMA, 50)[0] == 16
    # analytic constant-tile exactness ((v-128) even avoids the lossy
    # round-half boundary, making the expectation exact from the spec)
    for v in (0, 6, 60, 128, 200, 250):
        out = decode_jpeg(encode_jpeg(np.full((16, 24), v, np.uint8),
                                      quality=50))
        vp = v - 128
        qc = np.sign(vp) * np.floor(abs(vp) * 8 / 16 + 0.5)
        expect = int(np.clip(np.round(qc * 16 / 8 + 128), 0, 255))
        assert out.shape == (16, 24, 1)
        assert (out == expect).all(), (v, expect)
    # gradient PSNR across subsampling modes and non-aligned dims
    for sub, floor_db in (("444", 45), ("420", 40)):
        for (h, w) in ((24, 32), (17, 23), (8, 8), (33, 41)):
            yy, xx = np.mgrid[0:h, 0:w]
            img = np.stack([(yy * 3 + xx * 2) % 256, (yy * 2 + 40) % 256,
                            (xx * 4 + 90) % 256], axis=2).astype(np.uint8)
            out = decode_jpeg(encode_jpeg(img, quality=90, subsampling=sub))
            assert out.shape == img.shape
            mse = np.mean((out.astype(float) - img.astype(float)) ** 2)
            assert 10 * np.log10(255 ** 2 / max(mse, 1e-12)) > floor_db
    # noise stresses long Huffman codes; 0xFF stuffing must appear
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    buf = encode_jpeg(img, quality=95)
    assert b"\xff\x00" in buf
    assert decode_jpeg(buf).shape == img.shape
    # restart markers are lossless vs the plain stream
    for sub in ("444", "420"):
        a = decode_jpeg(encode_jpeg(img, 85, sub))
        b = decode_jpeg(encode_jpeg(img, 85, sub, restart_interval=3))
        assert (a == b).all()
    assert b"\xff\xdd" in encode_jpeg(img, 85, "444", restart_interval=3)
    with pytest.raises(ValueError, match="not a JPEG"):
        decode_jpeg(b"\x89PNGjunk")
    # progressive SOF must be refused, not mis-decoded
    prog = bytearray(encode_jpeg(img, 85))
    prog[prog.index(b"\xff\xc0") + 1] = 0xC2
    with pytest.raises(NotImplementedError, match="non-baseline"):
        decode_jpeg(bytes(prog))


def test_jpeg_fixture_and_imagedecoder_routing():
    """decode_images magic-routes JPEG blobs to the builtin T.81 decoder and
    reproduces the fixture's build-time decoded witnesses exactly."""
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (decode_images,
                                                        make_jpeg_fixture)

    t = make_jpeg_fixture(n=18, seed=3)
    out = decode_images(t, gray_witness=True)
    assert out["width"].to_pylist() == [
        int(x) for x in t["true_width"].to_pylist()]
    assert out["height"].to_pylist() == [
        int(x) for x in t["true_height"].to_pylist()]
    assert out["channels"].to_pylist() == [
        int(x) for x in t["true_channels"].to_pylist()]
    assert out["px_sum"].to_pylist() == t["true_px_sum"].to_pylist()
    assert out["px_sum_gray"].to_pylist() == t["true_px_sum_gray"].to_pylist()


def test_png_decode_unfilters_sub_up_avg_paeth():
    """Hand-filter scanlines with types 1-4 and check the decoder recovers
    the original pixels (the encoder only emits type 0, so this covers the
    spec paths foreign PNGs use)."""
    import struct
    import zlib

    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(5)
    h, w, c = 6, 5, 3
    img = rng.integers(0, 256, (h, w, c), dtype=np.uint8).astype(np.int32)
    raw = img.reshape(h, w * c)
    lines = bytearray()
    for y in range(h):
        ftype = [1, 2, 3, 4, 0, 2][y]
        prev = raw[y - 1] if y else np.zeros(w * c, np.int32)
        filt = np.zeros(w * c, np.int32)
        for i in range(w * c):
            a = raw[y][i - c] if i >= c else 0
            b = prev[i]
            cc = prev[i - c] if i >= c else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - cc
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (
                    b if pb <= pc_ else cc)
            filt[i] = (raw[y][i] - pred) & 0xFF
        lines.append(ftype)
        lines.extend(filt.astype(np.uint8).tobytes())

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    buf = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(bytes(lines)))
           + chunk(b"IEND", b""))
    back = decode_png(buf)
    assert (back == img.astype(np.uint8)).all()


def test_image_decoder_options_real_decode():
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (decode_images,
                                                        _resize_nearest,
                                                        _to_grayscale,
                                                        make_png_fixture)

    t = make_png_fixture(n=9, seed=1)
    out = decode_images(t, gray_witness=True)
    assert (out["width"].to_numpy() == t["true_width"].to_numpy()).all()
    assert (out["height"].to_numpy() == t["true_height"].to_numpy()).all()
    assert (out["channels"].to_numpy() == t["true_channels"].to_numpy()).all()
    assert (out["px_sum"].to_numpy() == t["true_px_sum"].to_numpy()).all()
    assert (out["px_sum_gray"].to_numpy()
            == t["true_px_sum_gray"].to_numpy()).all()
    # resize: every output dim forced to (10, 7); nearest-neighbour picks
    # existing pixels, so the resized sum equals the numpy gather
    r = decode_images(t, resize=(10, 7))
    assert (r["width"].to_numpy() == 10).all()
    assert (r["height"].to_numpy() == 7).all()
    from ml_data_pipeline_ray.stages.multimodal import decode_png
    img0 = decode_png(t["data"][0].as_py())
    assert r["px_sum"][0].as_py() == int(
        _resize_nearest(img0, (10, 7)).sum(dtype=np.int64))
    # grayscale + normalize: single channel, features in [0, 1]
    g = decode_images(t, grayscale=True, normalize=True)
    assert (g["channels"].to_numpy() == 1).all()
    f0 = np.asarray(g["features"][0].as_py())
    assert 0.0 <= f0[0] <= 1.0
    img0g = _to_grayscale(img0)
    assert abs(f0[0] - img0g.mean() / 255.0) < 1e-12


def test_bmp_codec():
    """Builtin BMP codec: 24-bit roundtrip incl. non-multiple-of-4 strides,
    hand-built 8-bit paletted + top-down decode, error path."""
    import struct

    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import decode_bmp, encode_bmp

    rng = np.random.default_rng(7)
    for (h, w) in ((1, 1), (3, 2), (16, 16), (23, 17)):
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        back = decode_bmp(encode_bmp(img))
        assert back.shape == img.shape and (back == img).all()
    # 8 bpp paletted, top-down (negative height), biClrUsed=16
    w, h = 5, 3
    pal_rgb = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    idx = rng.integers(0, 16, (h, w), dtype=np.uint8)
    stride = (w + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, :w] = idx
    pal = np.zeros((16, 4), np.uint8)
    pal[:, :3] = pal_rgb[:, ::-1]                  # BGRX palette entries
    off = 14 + 40 + 16 * 4
    buf = (b"BM" + struct.pack("<IHHI", off + rows.size, 0, 0, off)
           + struct.pack("<IiiHHIIiiII", 40, w, -h, 1, 8, 0, rows.size,
                         0, 0, 16, 0)
           + pal.tobytes() + rows.tobytes())
    assert (decode_bmp(buf) == pal_rgb[idx]).all()
    with pytest.raises(ValueError, match="not a BMP"):
        decode_bmp(b"\x89PNGjunk")
    with pytest.raises(NotImplementedError):
        decode_bmp(b"BM" + bytes(12) + struct.pack(
            "<IiiHHI", 40, 2, 2, 1, 24, 1) + bytes(24))   # RLE compression


def test_jpeg_fill_bytes_and_multiscan_refusal():
    """T.81 B.1.1.2 fill bytes (0xFF padding before a marker) must parse;
    non-interleaved multi-scan baseline (ns < frame components) must raise
    instead of silently decoding one component; unknown sniffed formats
    get a clear routing error."""
    import numpy as np
    import pyarrow as pa

    from ml_data_pipeline_ray.stages.jpeg import decode_jpeg, encode_jpeg
    from ml_data_pipeline_ray.stages.multimodal import decode_images

    img = np.stack([(np.arange(24)[:, None] * 3 + np.arange(16)[None, :]
                     + 40 * ch) % 256 for ch in range(3)],
                   axis=2).astype(np.uint8)
    buf = encode_jpeg(img, quality=90, subsampling="444")
    s = buf.find(b"\xff\xda")
    assert s > 0
    # legal fill bytes before SOS (and before EOI) decode identically
    padded = buf[:s] + b"\xff\xff\xff" + buf[s:]
    assert (decode_jpeg(padded) == decode_jpeg(buf)).all()
    # a 3-component frame whose first SOS carries only 1 component
    sos_end = s + 2 + int.from_bytes(buf[s + 2:s + 4], "big")
    one_comp = (b"\xff\xda" + (2 + 1 + 2 + 3).to_bytes(2, "big")
                + bytes([1]) + buf[s + 5:s + 7] + b"\x00\x3f\x00")
    multiscan = buf[:s] + one_comp + buf[sos_end:]
    with pytest.raises(NotImplementedError, match="multi-scan"):
        decode_jpeg(multiscan)
    # sniffed-but-undecodable format: clear routing error, not 'not a PNG'
    webp = b"RIFF" + bytes(4) + b"WEBPVP8 " + bytes(16)
    t = pa.table({"data": pa.array([webp], type=pa.large_binary())})
    with pytest.raises(Exception, match="webp"):
        decode_images(t)


def test_tiff_codec():
    """Builtin baseline TIFF codec (public TIFF 6.0 spec): II/MM byte
    orders, gray/RGB/RGBA chunky, multi-strip, PackBits roundtrip against
    an independent check, WhiteIsZero inversion, error paths."""
    import struct

    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (_packbits_decode,
                                                        _packbits_encode,
                                                        decode_tiff,
                                                        encode_tiff)

    rng = np.random.default_rng(17)
    for c in (1, 3, 4):
        for big in (False, True):
            img = rng.integers(0, 256, (13, 9, c), dtype=np.uint8)
            back = decode_tiff(encode_tiff(img, big_endian=big))
            assert back.shape == img.shape and (back == img).all()
    # multi-strip + PackBits (runs + literals mixed)
    img = np.repeat(rng.integers(0, 5, (21, 7, 3), dtype=np.uint8) * 50,
                    1, axis=0)
    for big in (False, True):
        buf = encode_tiff(img, big_endian=big, packbits=True,
                          rows_per_strip=4)
        assert (decode_tiff(buf) == img).all()
    # PackBits kernel roundtrip incl. 128+ runs and max literals
    raw = bytes([7] * 300) + bytes(range(256)) * 2 + bytes([9, 9])
    enc = _packbits_encode(raw)
    assert bytes(_packbits_decode(enc, len(raw))) == raw
    assert len(enc) < len(raw) + 16
    # WhiteIsZero (photometric 0): hand-patch the photometric tag value
    g = rng.integers(0, 256, (5, 4), dtype=np.uint8)
    buf = bytearray(encode_tiff(g))
    i = buf.find(struct.pack("<HHI", 262, 3, 1))
    assert i > 0
    buf[i + 8:i + 10] = struct.pack("<H", 0)
    assert (decode_tiff(bytes(buf)) == (255 - g)[:, :, None]).all()
    with pytest.raises(ValueError, match="not a TIFF"):
        decode_tiff(b"BMjunk")
    with pytest.raises(NotImplementedError):
        buf2 = bytearray(encode_tiff(g))
        j = buf2.find(struct.pack("<HHI", 259, 3, 1))
        buf2[j + 8:j + 10] = struct.pack("<H", 5)   # LZW: unsupported
        decode_tiff(bytes(buf2))


def _ref_lzw_gif_encode(indices: bytes, min_code: int = 8) -> bytes:
    """Independent textbook GIF-LZW compressor (growing code widths) used
    only to exercise the decoder's width-growth path; derived from the
    public spec, not from the module under test."""
    clear, end = 1 << min_code, (1 << min_code) + 1
    table = {bytes([i]): i for i in range(clear)}
    next_code = end + 1
    width = min_code + 1
    out_codes = [(clear, width)]
    s = indices[:1]
    for v in indices[1:]:
        sv = s + bytes([v])
        if sv in table:
            s = sv
            continue
        out_codes.append((table[s], width))
        table[sv] = next_code
        if next_code == (1 << width) and width < 12:
            width += 1
        next_code += 1
        s = bytes([v])
    out_codes.append((table[s], width))
    out_codes.append((end, width))
    acc = n = 0
    data = bytearray()
    for code, cw in out_codes:                     # LSB-first packing
        acc |= code << n
        n += cw
        while n >= 8:
            data.append(acc & 0xFF)
            acc >>= 8
            n -= 8
    if n:
        data.append(acc & 0xFF)
    return bytes(data)


def test_gif_codec():
    """Builtin GIF codec: RGB + index roundtrips through the uncompressed-
    LZW encoder, full LZW decode with growing code widths (independent
    compressor), the cScSc special case, interlace reassembly, errors."""
    import numpy as np

    from ml_data_pipeline_ray.stages.multimodal import (_lzw_decode,
                                                        decode_gif,
                                                        encode_gif)

    rng = np.random.default_rng(9)
    img = (rng.integers(0, 4, (13, 9, 3), dtype=np.uint8) * 63).astype(
        np.uint8)
    back = decode_gif(encode_gif(img))
    assert back.shape == img.shape and (back == img).all()
    # index image big enough to force the encoder's 9-bit CLEAR re-emission
    gray_pal = np.stack([np.arange(256)] * 3, axis=1).astype(np.uint8)
    big = rng.integers(0, 256, (40, 40), dtype=np.uint8)
    assert (decode_gif(encode_gif(big)) == gray_pal[big]).all()
    # growing-width LZW via an independent spec compressor (to 11+ bits)
    idx = rng.integers(0, 256, 3000, dtype=np.uint8)
    data = _ref_lzw_gif_encode(idx.tobytes())
    assert (_lzw_decode(data, 8, 3000) == idx).all()
    # cScSc pattern exercises the code==len(table) special case
    runs = np.zeros(64, np.uint8)
    assert (_lzw_decode(_ref_lzw_gif_encode(runs.tobytes()), 8, 64)
            == runs).all()
    # interlaced: store pass-ordered rows, flip the interlace flag in the
    # image descriptor (byte 790 = 13 LSD + 768 GCT + 9), expect reassembly
    h, w = 11, 6
    g = rng.integers(0, 256, (h, w), dtype=np.uint8)
    order = [r for s, st in ((0, 8), (4, 8), (2, 4), (1, 2))
             for r in range(s, h, st)]
    buf = bytearray(encode_gif(g[order]))
    buf[790] |= 0x40
    assert (decode_gif(bytes(buf)) == gray_pal[g]).all()
    with pytest.raises(ValueError, match="not a GIF"):
        decode_gif(b"BMjunk")


def test_imagedecoder_routes_bmp_gif():
    """decode_images magic-routes BMP and GIF blobs to the builtin codecs;
    px_sum witnesses match the source arrays exactly."""
    import numpy as np
    import pyarrow as pa

    from ml_data_pipeline_ray.stages.multimodal import (decode_images,
                                                        encode_bmp,
                                                        encode_gif)

    rng = np.random.default_rng(13)
    bmp_img = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
    gif_img = (rng.integers(0, 8, (6, 10, 3), dtype=np.uint8) * 31).astype(
        np.uint8)
    t = pa.table({"data": pa.array(
        [encode_bmp(bmp_img), encode_gif(gif_img)], type=pa.large_binary())})
    out = decode_images(t)
    assert out["width"].to_pylist() == [7, 10]
    assert out["height"].to_pylist() == [9, 6]
    assert out["channels"].to_pylist() == [3, 3]
    assert out["px_sum"].to_pylist() == [
        int(bmp_img.sum(dtype=np.int64)), int(gif_img.sum(dtype=np.int64))]


@pytest.mark.usefixtures("ray_session")
def test_predicate_ast_fuzz_vs_duckdb():
    """Random predicate trees over lineitem: the Arrow expression applied at
    the read and the SQL WHERE rendered from the SAME AST must select the
    same row count (P1/P2 semantics equivalence, fuzzed)."""
    import random

    import duckdb
    import pandas as pd
    from ml_data_pipeline_ray.sources.readers import read_parquet
    from ml_data_pipeline_ray.stages.predicates import (And, Compare, Not,
                                                        Or, Predicate)

    path = "/root/testdata/sf0.001/lineitem.parquet"
    rng = random.Random(1234)

    def leaf() -> Predicate:
        choice = rng.randrange(8)
        if choice == 0:
            return Compare("l_quantity", rng.choice(["lt", "le", "gt", "ge"]),
                           round(rng.uniform(1, 50), 1))
        if choice == 1:
            return Compare("l_discount", rng.choice(["le", "ge"]),
                           round(rng.uniform(0, 0.1), 2))
        if choice == 2:
            return Compare("l_returnflag", rng.choice(["eq", "ne"]),
                           rng.choice(["A", "N", "R"]))
        if choice == 3:
            return Compare("l_returnflag", rng.choice(["in", "not_in"]),
                           rng.sample(["A", "N", "R"], rng.randrange(1, 3)))
        if choice == 4:
            return Compare("l_shipdate", rng.choice(["lt", "ge"]),
                           pd.Timestamp(f"199{rng.randrange(5, 10)}-0"
                                        f"{rng.randrange(1, 10)}-15"))
        if choice == 5:
            return Compare("l_linestatus", "eq", rng.choice(["O", "F"]))
        if choice == 6:
            return Compare("l_extendedprice", rng.choice(["gt", "le"]),
                           round(rng.uniform(1000, 90000), 2))
        return Compare("l_comment", "contains", rng.choice(
            ["a", "the", "zz"])) if False else \
            Compare("l_returnflag", "starts_with", rng.choice(["A", "N"]))

    def tree(depth: int) -> Predicate:
        if depth <= 0 or rng.random() < 0.4:
            return leaf()
        kids = [tree(depth - 1) for _ in range(rng.randrange(2, 4))]
        k = rng.randrange(3)
        if k == 0:
            return And(kids)
        if k == 1:
            return Or(kids)
        return Not(kids[0])

    con = duckdb.connect()
    for _ in range(25):
        pred = tree(3).simplify()
        got = read_parquet(path, filter=pred.to_expression()).count()
        want = con.sql(
            f"SELECT count(*) FROM read_parquet('{path}') "
            f"WHERE {pred.to_sql()}").fetchone()[0]
        assert got == want, pred.to_sql()


def test_sparse_tensor_roundtrip_kernels():
    """dense->COO->dense identity and exact entry selection (reference
    SparseTensor, tensor.rs:429-453), including empty rows."""
    import numpy as np
    import pyarrow as pa

    from ml_data_pipeline_ray.stages.tensors import (dense_to_sparse,
                                                     sparse_to_dense)

    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 8)).astype(np.float32)
    m[5] = 0.0                                        # empty row
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(m.ravel(), pa.float32()), 8)
    sp = dense_to_sparse(col, threshold=0.5)
    # entries == |v| > 0.5, in row-major order
    idx = sp.field("indices").to_pylist()
    vals = sp.field("values").to_pylist()
    for r in range(20):
        want = [(j, float(m[r, j])) for j in range(8) if abs(m[r, j]) > 0.5]
        assert list(zip(idx[r], vals[r])) == want, r
    assert idx[5] == []
    back = sparse_to_dense(sp, 8)
    mb = np.asarray(back.values.to_numpy(zero_copy_only=False)).reshape(20, 8)
    np.testing.assert_array_equal(mb, np.where(np.abs(m) > 0.5, m, 0.0))


# -- LLM corpus ops: packing / mixture sampling / vocab ---------------------

def test_token_count_partial_matches_duckdb():
    import duckdb
    from ml_data_pipeline_ray.stages.text import token_count_partial

    t = pa.table({"text": ["The cat AND the dog", "héllo wörld 123", "",
                           "中文 文本 here", "a  b   c", "THE THE the"]})
    got = token_count_partial(t).to_pandas().sort_values("token") \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.register("d", t)
    want = con.sql(
        "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text),"
        "'[a-z]+')) AS token FROM d) SELECT token, CAST(COUNT(*) AS BIGINT)"
        " AS n FROM toks GROUP BY token ORDER BY token").df()
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_hash_bucket_matches_sql_arithmetic():
    import duckdb
    from ml_data_pipeline_ray.stages.sampling import hash_bucket_1024

    ids = np.arange(0, 5000, dtype=np.int64)
    got = hash_bucket_1024(ids)
    con = duckdb.connect()
    want = con.sql(
        "SELECT ((i * 2654435761) % 4294967296) // 4194304 AS b "
        "FROM range(5000) t(i)").fetchnumpy()["b"].astype(np.int64)
    np.testing.assert_array_equal(got, want)
    # buckets spread over the full 10-bit range even for sequential ids
    assert len(np.unique(got)) > 900


def test_pack_rule_matches_sql_window():
    """The greedy overflow-packing rule == the SQL cumsum-window rule, on a
    shuffled multi-source frame (kernel-level; the distributed path is
    covered by the oracle gate test)."""
    import duckdb
    from ml_data_pipeline_ray.pipelines.oracle_sql import SQL_DOCS_PACK_CHUNKS
    from ml_data_pipeline_ray.stages.packing import add_ws_token_count

    rng = np.random.default_rng(7)
    n = 300
    df = pd.DataFrame({
        "source": [f"src{i % 5}" for i in range(n)],
        "doc_id": rng.permutation(n),
        "text": [" ".join(["w"] * rng.integers(0, 300)) for _ in range(n)]})
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(SQL_DOCS_PACK_CHUNKS).df()

    t = add_ws_token_count(pa.Table.from_pandas(df)) \
        .select(["source", "doc_id", "tokens"]).to_pandas()
    outs = []
    for s, g in t.groupby("source"):
        order = np.argsort(g["doc_id"].to_numpy(), kind="stable")
        toks = g["tokens"].to_numpy()[order]
        chunk = (np.cumsum(toks) - toks) // 512
        o = (pd.DataFrame({"chunk_id": chunk, "tokens": toks})
             .groupby("chunk_id", as_index=False)
             .agg(n_docs=("tokens", "size"), sum_tokens=("tokens", "sum")))
        o.insert(0, "source", s)
        outs.append(o)
    got = (pd.concat(outs).sort_values(["source", "chunk_id"])
           .reset_index(drop=True)
           .astype({"chunk_id": "int64", "n_docs": "int64",
                    "sum_tokens": "int64"}))
    pd.testing.assert_frame_equal(got, want, check_exact=True)


# -- reshape: pivot / unpivot / explode --------------------------------------

def test_explode_tokens_positions_and_empties():
    import pyarrow as pa
    from ml_data_pipeline_ray.stages.reshape import explode_tokens

    b = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["The fast-Key", "", "a  b", "42!"]})
    out = explode_tokens(b)
    assert out["doc_id"].to_pylist() == [1, 1, 1, 3, 3]
    assert out["pos"].to_pylist() == [1, 2, 3, 1, 2]
    assert out["word"].to_pylist() == ["the", "fast", "key", "a", "b"]
    empty = explode_tokens(b.slice(1, 1))
    assert empty.num_rows == 0


def test_unpivot_and_pivot_vs_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ml_data_pipeline_ray.stages.reshape import pivot_counts, unpivot

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.integers(0, 5, 200),
        "t": rng.choice(["x", "y", "z"], 200),
        "v": rng.integers(0, 100, 200).astype(float),
        "w": rng.integers(0, 10, 200).astype(float),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)

    long = unpivot(ds, ["g"], ["v", "w"]).to_pandas()
    assert len(long) == 2 * len(df)
    assert long.groupby("metric")["value"].sum()["v"] == df["v"].sum()

    wide = (pivot_counts(ds, "g", "t", ["x", "y", "z"], value_col="v")
            .to_pandas().sort_values("g").reset_index(drop=True))
    want_n = pd.crosstab(df["g"], df["t"])
    want_s = pd.crosstab(df["g"], df["t"], values=df["v"], aggfunc="sum").fillna(0.0)
    for t in ["x", "y", "z"]:
        assert wide[f"n_{t}"].tolist() == want_n[t].tolist()
        assert wide[f"sum_{t}"].tolist() == want_s[t].tolist()


def test_repetition_partial_flags_and_counts():
    """Hand-computed bigram counts/flags, incl. exclusion of <2-token docs
    and per-doc isolation of bigrams at doc boundaries."""
    from ml_data_pipeline_ray.stages.text import repetition_partial

    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "source": ["a", "a", "b", "b"],
        "text": ["the cat the cat the cat",       # nb=5, mx=3 -> flagged
                 "one two three four",            # nb=3, mx=1 -> flagged (5>3)
                 "x",                             # <2 tokens -> excluded
                 "many distinct words here now so that five times the top "
                 "bigram does not beat the total count of all bigrams q w"],
    })
    out = repetition_partial(t).to_pandas().sort_values("source")
    a = out[out.source == "a"].iloc[0]
    assert (a.n_docs, a.sum_max_bigram, a.n_flagged) == (2, 4, 2)
    b = out[out.source == "b"].iloc[0]
    assert b.n_docs == 1 and b.n_flagged == 0
    # empty batch stays typed
    empty = repetition_partial(t.slice(2, 1))
    assert empty.num_rows == 0 and empty["n_docs"].type == pa.int64()


def test_duplicate_shingle_stats_vs_string_oracle(ray_session):
    """duplicate_shingle_stats (hashed 5-gram engine path, two exchanges)
    vs a brute-force STRING 5-gram oracle, incl. short-doc clamped grams,
    intra-doc repeats (deduped), and an empty doc (absent)."""
    import random

    import ray.data as rd
    from ml_data_pipeline_ray.stages.dedup import duplicate_shingle_stats

    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(40)]
    shared = "alpha beta gamma delta epsilon"  # one shared 5-gram span
    rows = []
    for i in range(60):
        words = [vocab[rng.randrange(len(vocab))] for _ in range(rng.randrange(0, 30))]
        text = " ".join(words)
        if i % 7 == 0:
            text = (text + " " + shared).strip()
        if i == 13:
            text = "tiny doc"        # <5 tokens -> single clamped gram
        if i == 14:
            text = "tiny doc"        # its duplicate
        if i == 15:
            text = ""                # no tokens -> absent from output
        rows.append({"doc_id": i, "text": text})

    # brute-force string oracle (same tokenization contract)
    import re
    grams_of = {}
    for r in rows:
        toks = re.findall(r"[a-z0-9]+", r["text"].lower())
        if not toks:
            continue
        n = len(toks)
        if n < 5:
            grams_of[r["doc_id"]] = {" ".join(toks)}
        else:
            grams_of[r["doc_id"]] = {" ".join(toks[i:i + 5])
                                     for i in range(n - 4)}
    holders = {}
    for d, gs in grams_of.items():
        for g in gs:
            holders.setdefault(g, set()).add(d)
    want = {d: (len(gs), sum(1 for g in gs if len(holders[g]) >= 2))
            for d, gs in grams_of.items()}

    ds = rd.from_items(rows).repartition(5)
    got = duplicate_shingle_stats(ds, k=5).to_pandas()
    got_map = {int(r.doc_id): (int(r.n_grams), int(r.n_dup_grams))
               for r in got.itertuples()}
    assert got_map == want
    assert want[13] == (1, 1) and want[14] == (1, 1)   # clamped-gram dup
    assert 15 not in got_map                           # empty doc absent
    assert any(v[1] >= 1 for v in want.values())       # shared span seen


def test_bigram_lm_vs_python_oracle(ray_session):
    """build_bigram_lm + bigram_lm_score vs a pure-Python string-bigram
    oracle with the same smoothing/floor contract: repeated bigrams,
    single-token and empty docs (absent), cross-doc sharing."""
    import math
    import re

    import ray.data as rd
    from ml_data_pipeline_ray.stages.text import (bigram_lm_score,
                                                  build_bigram_lm)

    rows = [
        {"doc_id": 0, "text": "the cat sat on the mat the cat ran"},
        {"doc_id": 1, "text": "the cat sat on a hat"},
        {"doc_id": 2, "text": "single"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "THE CAT    sat\n on the mat"},  # case/ws folding
    ]
    # oracle: string bigrams, add-0.5 smoothing, floor(1e6*ln)
    bigs, c2, c1 = {}, {}, {}
    for r in rows:
        toks = re.findall(r"[a-z0-9]+", r["text"].lower())
        bs = list(zip(toks, toks[1:]))
        bigs[r["doc_id"]] = bs
        for b in bs:
            c2[b] = c2.get(b, 0) + 1
            c1[b[0]] = c1.get(b[0], 0) + 1
    vocab = len({w for b in c2 for w in b})
    want = {}
    for d, bs in bigs.items():
        if not bs:
            continue
        s = sum(math.floor(math.log((c2[b] + 0.5) / (c1[b[0]] + 0.5 * vocab))
                           * 1000000.0) for b in bs)
        want[d] = (len(bs), s)

    ds = rd.from_items(rows).repartition(3)
    kp, lpm, n_model, unseen = build_bigram_lm(ds)
    assert n_model == len(c2)
    assert unseen <= 0
    model = {"kp": kp, "lpm": lpm, "unseen_lpm": unseen}
    got = ds.map_batches(bigram_lm_score, batch_format="pyarrow",
                         zero_copy_batch=True, fn_kwargs=model).to_pandas()
    got_map = {int(r.doc_id): (int(r.n_bigrams), int(r.lp_micro_sum))
               for r in got.itertuples()}
    assert got_map == want
    assert 2 not in got_map and 3 not in got_map


def test_bigram_lm_empty_and_unseen(ray_session):
    """Edge cases from review: a corpus where no doc has >=2 tokens yields
    an EMPTY model (no crash) that refuses to score new text with bigrams;
    scoring NEW text against a trained model
    assigns unseen bigrams the broadcast smoothing floor instead of a
    neighboring model row's score. An empty corpus has an empty model and
    an empty document-frequency table."""
    import math

    import ray.data as rd
    from ml_data_pipeline_ray.stages.text import (bigram_lm_score,
                                                  build_bigram_lm,
                                                  build_doc_freq)

    # 0) empty corpus -> no words, no docs, no model (no crash)
    empty = rd.from_items([{"doc_id": 0, "text": "two words"}]).filter(
        expr="doc_id < 0")
    words, dfs, n_docs = build_doc_freq(empty)
    assert words.size == 0 and dfs.size == 0 and n_docs == 0
    assert build_bigram_lm(empty)[2:] == (0, None)

    # 1) bigram-free corpus -> empty model, scorer emits nothing
    ds0 = rd.from_items([{"doc_id": 0, "text": "single"},
                         {"doc_id": 1, "text": ""},
                         {"doc_id": 2, "text": " ., "}]).repartition(2)
    kp, lpm, n_model, unseen = build_bigram_lm(ds0)
    assert n_model == 0 and kp.size == 0 and lpm.size == 0
    model0 = {"kp": kp, "lpm": lpm, "unseen_lpm": unseen}
    out0 = ds0.map_batches(bigram_lm_score, batch_format="pyarrow",
                           zero_copy_batch=True, fn_kwargs=model0).to_pandas()
    assert len(out0) == 0
    # ... and has no unseen floor: scoring text WITH bigrams against it
    # fails loudly instead of passing every bigram at lp=0
    assert unseen is None
    with pytest.raises(Exception, match="unseen_lpm"):
        rd.from_items([{"doc_id": 5, "text": "two words"}]).map_batches(
            bigram_lm_score, batch_format="pyarrow",
            zero_copy_batch=True, fn_kwargs=model0).to_pandas()

    # 2) unseen bigrams on new text score the c1=0 smoothing floor
    train = rd.from_items([{"doc_id": 0, "text": "the cat sat"}])
    kp, lpm, _, unseen = build_bigram_lm(train)
    vocab = 3  # the cat sat
    assert unseen == math.floor(math.log(0.5 / (0.5 * vocab)) * 1e6)
    model = {"kp": kp, "lpm": lpm, "unseen_lpm": unseen}
    new = rd.from_items([{"doc_id": 9, "text": "zebra quux totally unseen"}])
    got = new.map_batches(bigram_lm_score, batch_format="pyarrow",
                          zero_copy_batch=True, fn_kwargs=model).to_pandas()
    assert int(got.n_bigrams[0]) == 3
    assert int(got.lp_micro_sum[0]) == 3 * unseen
    # a model without the fallback fails loudly, never silently
    import pytest as _pytest
    with _pytest.raises(Exception, match="unseen_lpm"):
        new.map_batches(bigram_lm_score, batch_format="pyarrow",
                        zero_copy_batch=True,
                        fn_kwargs={"kp": kp, "lpm": lpm}).to_pandas()


def test_dup_ngram_spans_tokenless_corpus(ray_session, tmp_path):
    """Review edge case: a corpus where no document yields a token must
    return the typed empty result (the oracle's shape), not KeyError."""
    import pyarrow.parquet as pq
    from ml_data_pipeline_ray.pipelines.text_queries import \
        docs_dup_ngram_spans

    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["", " ., "]),
                  "lang": pa.array(["en", "en"]),
                  "source": pa.array(["a", "b"]),
                  "n_chars": pa.array([0, 4], pa.int64())}),
        tmp_path / "documents.parquet")
    out = docs_dup_ngram_spans(str(tmp_path))
    assert list(out.columns) == ["doc_id", "n_grams", "n_dup_grams"]
    assert len(out) == 0


def test_bpe_token_regex_arrow_duckdb_parity():
    """BPE_TOKEN_RE / WS_TOKEN_RE count identically under Arrow's
    count_substring_regex and DuckDB's regexp_extract_all (both RE2),
    incl. contractions, whitespace runs, and non-ASCII."""
    import duckdb
    from ml_data_pipeline_ray.stages.text import add_bpe_token_stats

    texts = ["Hello world, it's a test!", "  spaces   and\ttabs\n",
             "don't stop 123abc #42", "", "l'école café ñ", "a'b's",
             "x''y", "won't we'll they're I'd you've I'm he's 'tis"]
    got = add_bpe_token_stats(pa.table({"text": pa.array(texts)}))
    con = duckdb.connect()
    want = con.execute("""
      SELECT len(regexp_extract_all(t,
        '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+'))
          AS b,
        len(regexp_extract_all(t, '[^\\s]+')) AS w
      FROM (SELECT unnest(?) AS t)""", [texts]).df()
    assert got["n_bpe_tokens"].to_pylist() == want["b"].tolist()
    assert got["n_ws_tokens"].to_pylist() == want["w"].tolist()
