"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

Mirrors the reference's image source surface (format sniffing + load modes +
decode options, ``ml-data/ml-data-readers/src/image.rs:51-77,93-132,183-413``
— whose decode is itself a stub returning placeholder dims) the Ray-native
way: binary payloads ride in an Arrow ``binary`` column; decode/resize/
feature stages are stateless ``map_batches`` functions whose options ride
as ``fn_kwargs``.

Image decode is builtin only, magic-routed per blob, with zero external
dependencies — so the decoded channel count is the file's own, and the
witness columns mean the same on every host:

- **PNG** — a real decoder written from the public PNG spec (IHDR parse,
  zlib inflate, scanline unfilter 0-4) for 8/16-bit gray / RGB /
  gray+alpha / RGBA, non-interlaced and Adam7-interlaced;
- **JPEG** (:mod:`.jpeg`) — a real sequential-baseline decoder written
  from the public ITU-T T.81 spec (Huffman, dequant, IDCT,
  4:2:0/4:2:2/4:4:4, restart markers);
- **BMP** (BI_RGB), **GIF** (LZW) and baseline **TIFF** (PackBits, either
  byte order); a sniffed format without a codec (WebP) raises.

Options mirror the reference's enum (``image.rs:93-132``): ``resize``
(nearest-neighbour, deterministic), ``grayscale`` (integer ITU-R 601 luma),
``normalize`` (float32 / 255 on the feature output).

Audio and video ride the same design: a binary column + a stateless
decode function. Both decoders are real and written from public specs with
zero external dependencies — RIFF/PCM WAV (chunk walk, fmt parse, 8/16/32
bit integer PCM) and YUV4MPEG2 (header tag parse, FRAME walk, planar
colorspace math, zero-copy frame sampling) — with matching deterministic
encoders for fixtures, so the driver's oracle gate checks pixel/sample
level witnesses (exact luma / |sample| sums), not just plumbing.

Scale notes: large binary payloads need small ``batch_size`` and bounded
``target_max_block_size``; keep these stages in ``batch_format="pyarrow"``
(binary columns do not round-trip pandas cleanly).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

#: magic-byte signatures (reference ``image.rs:51-77``)
IMAGE_MAGIC = [
    (b"\xff\xd8\xff", "jpeg"),
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"GIF87a", "gif"),
    (b"GIF89a", "gif"),
    (b"BM", "bmp"),
    (b"II*\x00", "tiff"),
    (b"MM\x00*", "tiff"),
    (b"RIFF", "webp_or_wav"),        # disambiguated by bytes 8-12 below
    (b"YUV4MPEG2", "y4m"),
]


def sniff_format(batch: pa.Table, data_col: str = "data") -> pa.Table:
    """Append ``format`` from magic bytes — fully vectorized: one
    ``binary_slice`` + equality kernel per signature, first match wins
    (never materializes the blobs into Python)."""
    import pyarrow.compute as pc

    col = batch.column(data_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    fmt = pa.array(["unknown"] * n, pa.string())
    for magic, name in IMAGE_MAGIC:
        prefix = pc.binary_slice(col, 0, len(magic))
        hit = pc.fill_null(pc.equal(prefix, pa.scalar(magic, pa.binary())),
                           False)
        unset = pc.equal(fmt, "unknown")
        fmt = pc.if_else(pc.and_(hit, unset), pa.scalar(name, pa.string()), fmt)
    # RIFF containers: bytes 8-12 name the payload (WAVE vs WEBP)
    riff = pc.equal(fmt, "webp_or_wav")
    if pc.any(riff).as_py():
        tag = pc.binary_slice(col, 8, 12)
        is_wav = pc.fill_null(pc.equal(tag, pa.scalar(b"WAVE", pa.binary())),
                              False)
        fmt = pc.if_else(pc.and_(riff, is_wav), pa.scalar("wav", pa.string()),
                         pc.if_else(riff, pa.scalar("webp", pa.string()),
                                    fmt))
    return batch.append_column("format", fmt)


def sniff_one(b: bytes) -> str:
    """Single-blob magic sniff from the SAME table :func:`sniff_format`
    uses — keeps per-blob decode routing and the vectorized sniff stage
    consistent by construction."""
    for magic, name in IMAGE_MAGIC:
        if b[:len(magic)] == magic:
            if name == "webp_or_wav":
                return "wav" if b[8:12] == b"WAVE" else "webp"
            return name
    return "unknown"


# -- builtin PNG codec (public spec; 8-bit, non-interlaced) ------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
#: color type → channel count (spec §11.2.2)
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def encode_png(img: np.ndarray, interlace: bool = False) -> bytes:
    """Minimal PNG encoder (filter 0 scanlines + one zlib IDAT) for uint8
    (depth 8) or uint16 (depth 16) arrays of shape (H, W) or (H, W, C) with
    C in {1, 2, 3, 4}; ``interlace=True`` writes Adam7 passes. Test/fixture
    scaffolding — deterministic bytes for a given array."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    depth = 16 if img.dtype == np.uint16 else 8

    def scanlines(sub: np.ndarray) -> bytes:
        hh, ww = sub.shape[:2]
        rb = (sub.astype(">u2") if depth == 16 else
              np.ascontiguousarray(sub, dtype=np.uint8))
        rows = rb.tobytes()
        rowbytes = ww * c * (depth // 8)
        lines = np.zeros((hh, 1 + rowbytes), dtype=np.uint8)
        lines[:, 1:] = np.frombuffer(rows, np.uint8).reshape(hh, rowbytes)
        return lines.tobytes()

    if interlace:
        subs = (img[y0::dy, x0::dx] for (x0, dx, y0, dy) in _ADAM7)
        raw = b"".join(scanlines(s) for s in subs
                       if s.shape[0] and s.shape[1])
    else:
        raw = scanlines(img)
    idat = zlib.compress(raw, 6)

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0,
                       1 if interlace else 0)
    return (_PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))


def _png_unfilter(lines: np.ndarray, rowbytes: int, bpp: int) -> np.ndarray:
    """Per-scanline unfilter (spec types 0-4: None/Sub/Up/Average/Paeth)
    over a (h, 1 + rowbytes) array of filter byte + raw bytes."""
    h = lines.shape[0]
    filters = lines[:, 0]
    out = np.zeros((h, rowbytes), dtype=np.uint8)
    for y in range(h):
        cur = lines[y, 1:].astype(np.int32)
        ftype = filters[y]
        prev = out[y - 1].astype(np.int32) if y else np.zeros(rowbytes,
                                                              np.int32)
        if ftype == 0:
            rec = cur
        elif ftype == 2:                            # Up
            rec = cur + prev
        elif ftype in (1, 3, 4):                    # Sub / Average / Paeth
            rec = np.empty(rowbytes, dtype=np.int32)
            for i in range(rowbytes):
                # mask as we go: the left neighbour must be the RECONSTRUCTED
                # byte (mod 256), not the raw running sum
                a = rec[i - bpp] if i >= bpp else 0
                b = prev[i]
                if ftype == 1:
                    rec[i] = (cur[i] + a) & 0xFF
                elif ftype == 3:
                    rec[i] = (cur[i] + ((a + b) >> 1)) & 0xFF
                else:
                    cc = prev[i - bpp] if i >= bpp else 0
                    p = a + b - cc
                    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa_ <= pb and pa_ <= pc_) else (
                        b if pb <= pc_ else cc)
                    rec[i] = (cur[i] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter {ftype}")
        out[y] = (rec & 0xFF).astype(np.uint8)
    return out


#: Adam7 pass grid: (x_start, x_step, y_start, y_step) per pass
_ADAM7 = [(0, 8, 0, 8), (4, 8, 0, 8), (0, 4, 4, 8), (2, 4, 0, 4),
          (0, 2, 2, 4), (1, 2, 0, 2), (0, 1, 1, 2)]


def decode_png(buf: bytes) -> np.ndarray:
    """Real PNG decode from the public spec: IHDR parse, concatenated-IDAT
    zlib inflate, per-scanline unfilter (types 0-4), Adam7 interlace
    reassembly. Supports 8- and 16-bit gray / RGB / gray+alpha / RGBA
    (16-bit samples are reduced to their high byte — the spec's sample
    depth rescale by truncation). Returns uint8 (H, W, C)."""
    if buf[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = []
    while pos + 8 <= len(buf):
        (length,) = struct.unpack(">I", buf[pos:pos + 4])
        tag = buf[pos + 4:pos + 8]
        payload = buf[pos + 8:pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload)
            if depth not in (8, 16) or color_type not in _PNG_CHANNELS:
                raise NotImplementedError(
                    f"builtin PNG decoder handles 8/16-bit gray/RGB/LA/RGBA "
                    f"only (depth={depth}, color_type={color_type})")
            c = _PNG_CHANNELS[color_type]
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if w is None or not idat:
        raise ValueError("truncated PNG (missing IHDR/IDAT)")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    nbytes = depth // 8
    bpp = c * nbytes

    def to_samples(rows: np.ndarray, wp: int) -> np.ndarray:
        """(h, wp*bpp) bytes -> (h, wp, c) uint8 (high byte for 16-bit)."""
        if depth == 8:
            return rows.reshape(-1, wp, c)
        u16 = rows.reshape(-1).view(">u2").reshape(-1, wp, c)
        return (u16 >> 8).astype(np.uint8)

    if not interlace:
        stride = 1 + w * bpp
        if raw.size != h * stride:
            raise ValueError("PNG data size mismatch")
        rows = _png_unfilter(raw.reshape(h, stride), w * bpp, bpp)
        return to_samples(rows, w)
    # Adam7: 7 independently-filtered sub-images scattered onto the grid
    out = np.zeros((h, w, c), dtype=np.uint8)
    off = 0
    for (x0, dx, y0, dy) in _ADAM7:
        wp = (w - x0 + dx - 1) // dx
        hp = (h - y0 + dy - 1) // dy
        if wp <= 0 or hp <= 0:
            continue
        stride = 1 + wp * bpp
        chunk = raw[off:off + hp * stride]
        if chunk.size != hp * stride:
            raise ValueError("PNG interlace data size mismatch")
        off += hp * stride
        rows = _png_unfilter(chunk.reshape(hp, stride), wp * bpp, bpp)
        out[y0::dy, x0::dx] = to_samples(rows, wp)
    return out


# -- builtin BMP codec (public spec; BI_RGB uncompressed) ---------------------

def encode_bmp(img: np.ndarray) -> bytes:
    """Minimal 24-bit BI_RGB bottom-up BMP encoder for uint8 (H, W, 3)
    arrays. Test/fixture scaffolding — deterministic bytes."""
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_bmp takes (H, W, 3) uint8")
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, :w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)   # bottom-up BGR
    data = rows.tobytes()
    off = 14 + 40
    return (b"BM" + struct.pack("<IHHI", off + len(data), 0, 0, off)
            + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                          2835, 2835, 0, 0) + data)


def decode_bmp(buf: bytes) -> np.ndarray:
    """Real BMP decode from the public spec: BITMAPINFOHEADER (and the
    V4/V5 supersets), uncompressed BI_RGB at 8 (paletted) / 24 / 32 bpp,
    bottom-up or top-down rows, 4-byte row padding. Returns uint8
    (H, W, 3) RGB (32 bpp alpha included as a 4th channel)."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP")
    (offbits,) = struct.unpack("<I", buf[10:14])
    (hdr_size,) = struct.unpack("<I", buf[14:18])
    if hdr_size < 40:
        raise NotImplementedError(f"BMP header size {hdr_size}")
    w, h = struct.unpack("<ii", buf[18:26])
    planes, bpp = struct.unpack("<HH", buf[26:30])
    (compression,) = struct.unpack("<I", buf[30:34])
    if compression != 0 or bpp not in (8, 24, 32):
        raise NotImplementedError(
            f"BMP supports uncompressed BI_RGB 8/24/32 bpp only "
            f"(bpp={bpp}, compression={compression})")
    top_down = h < 0
    h = abs(h)
    stride = ((w * bpp // 8) + 3) & ~3
    rows = np.frombuffer(buf, np.uint8, h * stride, offbits).reshape(
        h, stride)
    if not top_down:
        rows = rows[::-1]
    if bpp == 8:
        (used,) = struct.unpack("<I", buf[46:50])
        n_pal = used or 256
        pal = np.frombuffer(buf, np.uint8, n_pal * 4,
                            14 + hdr_size).reshape(n_pal, 4)
        idx = rows[:, :w]
        return pal[idx][:, :, [2, 1, 0]]            # BGRX palette -> RGB
    c = bpp // 8
    px = rows[:, :w * c].reshape(h, w, c)
    if c == 3:
        return px[:, :, ::-1].copy()                 # BGR -> RGB
    return px[:, :, [2, 1, 0, 3]].copy()             # BGRA -> RGBA


# -- builtin TIFF codec (public TIFF 6.0 spec; baseline) ----------------------

def encode_tiff(img: np.ndarray, big_endian: bool = False,
                packbits: bool = False, rows_per_strip: int | None = None
                ) -> bytes:
    """Minimal baseline TIFF encoder for uint8 (H, W) gray or (H, W, 3/4)
    chunky arrays: single IFD, strip layout, optional PackBits compression
    and big-endian byte order. Test/fixture scaffolding."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    e = ">" if big_endian else "<"
    rps = rows_per_strip or h
    strips = [img[y:y + rps].tobytes() for y in range(0, h, rps)]
    if packbits:
        strips = [_packbits_encode(s) for s in strips]
    # layout: 8-byte header | strip data | IFD | out-of-line tag values
    offsets, pos = [], 8
    for s in strips:
        offsets.append(pos)
        pos += len(s)
    ifd_off = pos

    def entry(tag: int, typ: int, vals: list[int]) -> tuple[bytes, bytes]:
        # type 3 = SHORT, 4 = LONG; inline when it fits in 4 bytes
        size = {3: 2, 4: 4}[typ] * len(vals)
        fmt = {3: "H", 4: "I"}[typ]
        raw = struct.pack(f"{e}{len(vals)}{fmt}", *vals)
        head = struct.pack(f"{e}HHI", tag, typ, len(vals))
        if size <= 4:
            return head + raw.ljust(4, b"\0"), b""
        return head, raw                       # offset patched below

    tags = [
        (256, 4, [w]), (257, 4, [h]), (258, 3, [8] * c),
        (259, 3, [32773 if packbits else 1]),
        (262, 3, [2 if c >= 3 else 1]),
        (273, 4, offsets), (277, 3, [c]), (278, 4, [rps]),
        (279, 4, [len(s) for s in strips]), (284, 3, [1]),
    ]
    if c == 4:
        tags.append((338, 3, [2]))             # ExtraSamples: unassoc alpha
    tags.sort()
    entries, overflow = [], []
    tail_off = ifd_off + 2 + 12 * len(tags) + 4
    for tag, typ, vals in tags:
        head, raw = entry(tag, typ, vals)
        if raw:
            entries.append(head + struct.pack(f"{e}I", tail_off))
            overflow.append(raw)
            tail_off += len(raw)
        else:
            entries.append(head)
    out = struct.pack(f"{e}2sHI", b"MM" if big_endian else b"II", 42,
                      ifd_off)
    out += b"".join(strips)
    out += struct.pack(f"{e}H", len(tags)) + b"".join(entries)
    out += struct.pack(f"{e}I", 0)             # next-IFD pointer
    out += b"".join(overflow)
    return out


def _packbits_encode(data: bytes) -> bytes:
    """Apple PackBits (TIFF 6.0 §9): runs of 2-128 identical bytes as
    (257-n, byte); literals as (n-1, bytes)."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        j = i + 1
        while j < n and j - i < 128 and data[j] == data[i]:
            j += 1
        if j - i >= 2:
            out += bytes([257 - (j - i), data[i]])
            i = j
            continue
        j = i + 1                               # literal run
        while (j < n and j - i < 128
               and not (j + 1 < n and data[j] == data[j + 1])):
            j += 1
        out += bytes([j - i - 1]) + data[i:j]
        i = j
    return bytes(out)


def _packbits_decode(data: bytes, expect: int) -> np.ndarray:
    out = np.empty(expect, np.uint8)
    pos = n_out = 0
    while n_out < expect and pos < len(data):
        ctrl = data[pos]
        pos += 1
        if ctrl < 128:                          # ctrl+1 literal bytes
            k = ctrl + 1
            out[n_out:n_out + k] = np.frombuffer(data, np.uint8, k, pos)
            pos += k
        elif ctrl > 128:                        # 257-ctrl repeats
            k = 257 - ctrl
            out[n_out:n_out + k] = data[pos]
            pos += 1
        else:                                   # 128 = no-op
            continue
        n_out += k
    if n_out != expect:
        raise ValueError("truncated PackBits strip")
    return out


def decode_tiff(buf: bytes) -> np.ndarray:
    """Real baseline-TIFF decode from the public TIFF 6.0 spec: II/MM byte
    orders, IFD walk, strip assembly, 8-bit gray (incl. WhiteIsZero) /
    RGB / RGBA chunky, uncompressed or PackBits. Returns uint8 (H, W, C)."""
    if buf[:4] not in (b"II*\x00", b"MM\x00*"):
        raise ValueError("not a TIFF")
    e = "<" if buf[:2] == b"II" else ">"
    (ifd_off,) = struct.unpack_from(f"{e}I", buf, 4)
    (n_tags,) = struct.unpack_from(f"{e}H", buf, ifd_off)
    _TYPE = {1: "B", 3: "H", 4: "I"}
    tags: dict[int, list[int]] = {}
    for i in range(n_tags):
        tag, typ, cnt = struct.unpack_from(f"{e}HHI", buf,
                                           ifd_off + 2 + 12 * i)
        if typ not in _TYPE:
            continue                            # rational/ascii: irrelevant
        unit = {1: 1, 3: 2, 4: 4}[typ]
        off = ifd_off + 2 + 12 * i + 8
        if cnt * unit > 4:
            (off,) = struct.unpack_from(f"{e}I", buf, off)
        tags[tag] = list(struct.unpack_from(f"{e}{cnt}{_TYPE[typ]}",
                                            buf, off))
    w, h = tags[256][0], tags[257][0]
    c = tags.get(277, [1])[0]
    bits = tags.get(258, [8] * c)
    comp = tags.get(259, [1])[0]
    photo = tags.get(262, [1])[0]
    planar = tags.get(284, [1])[0]
    if any(b != 8 for b in bits) or planar != 1:
        raise NotImplementedError(
            f"TIFF supports 8-bit chunky only (bits={bits}, planar={planar})")
    if comp not in (1, 32773):
        raise NotImplementedError(f"TIFF compression {comp}")
    if photo not in (0, 1, 2):
        raise NotImplementedError(f"TIFF photometric {photo}")
    rps = tags.get(278, [h])[0]
    offsets, counts = tags[273], tags[279]
    parts = []
    for k, (off, cnt) in enumerate(zip(offsets, counts)):
        rows = min(rps, h - k * rps)
        expect = rows * w * c
        if comp == 1:
            parts.append(np.frombuffer(buf, np.uint8, expect, off))
        else:
            parts.append(_packbits_decode(buf[off:off + cnt], expect))
    img = np.concatenate(parts).reshape(h, w, c)
    if photo == 0:                              # WhiteIsZero: invert
        img = 255 - img
    return np.ascontiguousarray(img)


# -- builtin GIF codec (public spec; LZW) -------------------------------------

def encode_gif(img: np.ndarray, palette: np.ndarray | None = None) -> bytes:
    """Minimal GIF89a encoder for uint8 (H, W) palette-index arrays (or
    (H, W, 3) RGB quantized to a provided/derived ≤256-color palette).
    Emits the classic "uncompressed LZW" stream — every pixel as a literal
    9-bit code with CLEAR re-emitted before the code width would grow —
    which any conforming decoder accepts. Test/fixture scaffolding."""
    if img.ndim == 3:
        flat = img.reshape(-1, 3)
        palette, idx = np.unique(flat, axis=0, return_inverse=True)
        if len(palette) > 256:
            raise ValueError("encode_gif needs <=256 distinct colors")
        indices = idx.reshape(img.shape[:2]).astype(np.uint8)
    else:
        indices = img.astype(np.uint8)
        if palette is None:
            palette = np.stack([np.arange(256)] * 3, axis=1).astype(np.uint8)
    h, w = indices.shape
    pal = np.zeros((256, 3), np.uint8)
    pal[:len(palette)] = palette
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h) + bytes([0xF7, 0, 0])  # GCT, 256 colors
    out += pal.tobytes()
    out += b"\x2c" + struct.pack("<HHHH", 0, 0, w, h) + b"\x00"
    out += bytes([8])                                # LZW min code size
    # uncompressed stream: CLEAR, then literals at 9 bits; re-CLEAR before
    # the next assigned code (258 + emitted) would push past 9-bit space
    codes: list[int] = [256]
    emitted = 0
    for v in indices.reshape(-1).tolist():
        if emitted == 511 - 258:
            codes.append(256)
            emitted = 0
        codes.append(v)
        emitted += 1
    codes.append(257)                                # END
    acc = n = 0
    data = bytearray()
    for code in codes:                               # LSB-first packing
        acc |= code << n
        n += 9
        while n >= 8:
            data.append(acc & 0xFF)
            acc >>= 8
            n -= 8
    if n:
        data.append(acc & 0xFF)
    for i in range(0, len(data), 255):               # 255-byte sub-blocks
        blk = data[i:i + 255]
        out += bytes([len(blk)]) + blk
    out += b"\x00\x3b"                               # terminator + trailer
    return bytes(out)


#: GIF interlace pass order: (start_row, step)
_GIF_INTERLACE = [(0, 8), (4, 8), (2, 4), (1, 2)]


def decode_gif(buf: bytes) -> np.ndarray:
    """Real GIF decode from the public spec (87a/89a): logical screen
    descriptor, global/local color tables, extension-block skip, full LZW
    decompression with growing code widths, interlace reassembly. Decodes
    the FIRST image block (GIFs as dataset payloads are single-frame).
    Returns uint8 (H, W, 3) RGB."""
    if buf[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    sw, sh = struct.unpack("<HH", buf[6:10])
    flags = buf[10]
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 7)
        gct = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3
    while pos < len(buf):
        b0 = buf[pos]
        if b0 == 0x3B:                               # trailer
            break
        if b0 == 0x21:                               # extension: skip blocks
            pos += 2
            while buf[pos]:
                pos += 1 + buf[pos]
            pos += 1
            continue
        if b0 != 0x2C:
            raise ValueError(f"unknown GIF block 0x{b0:02x}")
        left, top, w, h = struct.unpack("<HHHH", buf[pos + 1:pos + 9])
        iflags = buf[pos + 9]
        pos += 10
        pal = gct
        if iflags & 0x80:                            # local color table
            n = 2 << (iflags & 7)
            pal = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        if pal is None:
            raise ValueError("GIF image without a color table")
        min_code = buf[pos]
        pos += 1
        data = bytearray()
        while buf[pos]:                              # concat sub-blocks
            ln = buf[pos]
            data += buf[pos + 1:pos + 1 + ln]
            pos += 1 + ln
        pos += 1
        indices = _lzw_decode(bytes(data), min_code, w * h)
        grid = np.zeros((h, w), np.uint8)
        if iflags & 0x40:                            # interlaced rows
            rows = [r for s, st in _GIF_INTERLACE for r in range(s, h, st)]
            grid[rows] = indices.reshape(h, w)
        else:
            grid = indices.reshape(h, w)
        return pal[grid]
    raise ValueError("truncated GIF (no image block)")


def _lzw_decode(data: bytes, min_code: int, n_pixels: int) -> np.ndarray:
    """GIF-variant LZW (LSB-first packing, growing code width 3..12 bits,
    CLEAR/END control codes)."""
    clear = 1 << min_code
    end = clear + 1
    out = np.empty(n_pixels, np.uint8)
    n_out = 0
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    width = min_code + 1
    acc = nbits = 0
    prev: bytes | None = None
    for byte in data:
        acc |= byte << nbits
        nbits += 8
        while nbits >= width:
            code = acc & ((1 << width) - 1)
            acc >>= width
            nbits -= width
            if code == clear:
                table = [bytes([i]) for i in range(clear)] + [b"", b""]
                width = min_code + 1
                prev = None
                continue
            if code == end:
                return out[:n_out]
            if code < len(table):
                entry = table[code]
                if prev is not None:
                    table.append(prev + entry[:1])
            elif code == len(table) and prev is not None:
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise ValueError("corrupt GIF LZW stream")
            out[n_out:n_out + len(entry)] = np.frombuffer(entry, np.uint8)
            n_out += len(entry)
            if len(table) == (1 << width) and width < 12:
                width += 1
            prev = entry
    return out[:n_out]


def _resize_nearest(img: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Deterministic nearest-neighbour resize to (width, height): the pixel
    index map is ``floor((i + 0.5) * src / dst)`` — pure integer arithmetic,
    identical on every platform."""
    tw, th = size
    h, w = img.shape[:2]
    ys = ((np.arange(th) * 2 + 1) * h // (2 * th)).clip(0, h - 1)
    xs = ((np.arange(tw) * 2 + 1) * w // (2 * tw)).clip(0, w - 1)
    return img[ys][:, xs]


def _to_grayscale(img: np.ndarray) -> np.ndarray:
    """Integer ITU-R 601 luma: (299 R + 587 G + 114 B) // 1000 — exact and
    platform-independent. Gray inputs pass through; alpha is dropped."""
    c = img.shape[2]
    if c == 1:
        return img
    if c == 2:                                      # gray + alpha
        return img[:, :, :1]
    rgb = img[:, :, :3].astype(np.int64)
    luma = (299 * rgb[:, :, 0] + 587 * rgb[:, :, 1]
            + 114 * rgb[:, :, 2]) // 1000
    return luma.astype(np.uint8)[:, :, None]


def _decode_jpeg_lazy(b: bytes) -> np.ndarray:
    from .jpeg import decode_jpeg
    return decode_jpeg(b)


#: sniffed format -> builtin decoder; a format present in IMAGE_MAGIC but
#: absent here (webp, unknown) raises a clear NotImplementedError in
#: decode_images instead of falling through to the wrong codec
_IMAGE_DECODERS = {
    "png": decode_png,
    "jpeg": _decode_jpeg_lazy,
    "bmp": decode_bmp,
    "gif": decode_gif,
    "tiff": decode_tiff,
}


def _decode_image(buf: bytes) -> np.ndarray:
    b = bytes(buf)
    fmt = sniff_one(b)                        # same table sniff_format uses
    dec = _IMAGE_DECODERS.get(fmt)
    if dec is None:
        raise NotImplementedError(
            f"no builtin decoder for sniffed format {fmt!r}")
    return dec(b)


def decode_images(batch: pa.Table, data_col: str = "data",
                  feature_dim: int = 8, resize: tuple[int, int] | None = None,
                  grayscale: bool = False, normalize: bool = False,
                  gray_witness: bool = False) -> pa.Table:
    """Decode/feature stage over a binary image column (options ride as
    ``map_batches(..., fn_kwargs=...)``): decodes each blob with the
    builtin codec its magic bytes name and appends ``(width, height,
    channels, px_sum, features: list<float>)`` where ``px_sum`` is the
    exact int64 sum of all pixel values AFTER resize/grayscale (the
    end-to-end decode witness an oracle can check) and ``features`` are
    per-channel means (÷255 when ``normalize``); ``gray_witness`` adds
    ``px_sum_gray``, the luma sum of the full-size decode.

    Options (reference ``image.rs:93-132``): ``resize=(w, h)`` nearest-
    neighbour, ``grayscale`` integer luma, ``normalize`` floats in [0, 1]."""
    col = batch.column(data_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    width = np.zeros(n, np.int32)
    height = np.zeros(n, np.int32)
    channels = np.zeros(n, np.int32)
    px_sum = np.zeros(n, np.int64)
    px_sum_gray = np.zeros(n, np.int64)
    feats = np.zeros((n, feature_dim), np.float64)
    for i in range(n):                        # per-image decode is inherent
        img = _decode_image(col[i].as_py())
        if gray_witness:
            px_sum_gray[i] = int(_to_grayscale(img).sum(dtype=np.int64))
        if grayscale:
            img = _to_grayscale(img)
        if resize is not None:
            img = _resize_nearest(img, resize)
        h, w, c = img.shape
        width[i], height[i], channels[i] = w, h, c
        px_sum[i] = int(img.sum(dtype=np.int64))
        means = img.reshape(-1, c).mean(axis=0, dtype=np.float64)
        if normalize:
            means = means / 255.0
        feats[i, :min(c, feature_dim)] = means[:feature_dim]
    batch = batch.append_column("width", pa.array(width))
    batch = batch.append_column("height", pa.array(height))
    batch = batch.append_column("channels", pa.array(channels))
    batch = batch.append_column("px_sum", pa.array(px_sum))
    if gray_witness:
        batch = batch.append_column("px_sum_gray", pa.array(px_sum_gray))
    return batch.append_column(
        "features", pa.array(list(feats), type=pa.list_(pa.float64())))


# -- builtin WAV (RIFF/PCM) codec (public spec) ------------------------------

def encode_wav(samples: np.ndarray, sample_rate: int = 16_000) -> bytes:
    """Minimal WAV encoder: int16 PCM, shape (n,) mono or (n, channels).
    Test/fixture scaffolding — deterministic bytes for a given array."""
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    pcm = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    block = ch * 2
    fmt = struct.pack("<HHIIHH", 1, ch, sample_rate, sample_rate * block,
                      block, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(pcm)) + pcm)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """Real WAV decode from the public RIFF spec: chunk walk, fmt parse,
    8/16/32-bit integer PCM. Returns (samples (n, channels) int32,
    sample_rate)."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(buf):
        tag = buf[pos:pos + 4]
        (length,) = struct.unpack("<I", buf[pos + 4:pos + 8])
        payload = buf[pos + 8:pos + 8 + length]
        if tag == b"fmt ":
            fmt = struct.unpack("<HHIIHH", payload[:16])
        elif tag == b"data":
            data = payload
        pos += 8 + length + (length & 1)          # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("truncated WAV (missing fmt/data chunk)")
    audio_format, ch, rate, _, _, bits = fmt
    if audio_format != 1 or bits not in (8, 16, 32):
        raise NotImplementedError(
            f"builtin WAV decoder handles integer PCM 8/16/32-bit only "
            f"(format={audio_format}, bits={bits})")
    dtype = {8: np.uint8, 16: "<i2", 32: "<i4"}[bits]
    raw = np.frombuffer(data, dtype=dtype)
    if bits == 8:                                 # 8-bit WAV is unsigned
        raw = raw.astype(np.int32) - 128
    samples = raw.astype(np.int32).reshape(-1, ch)
    return samples, rate


def decode_audio(batch: pa.Table, data_col: str = "data",
                 frame_step: int | None = None) -> pa.Table:
    """Decode/feature stage over a binary WAV column — the audio analogue
    of :func:`decode_images`. Appends ``(channels, sample_rate, n_samples,
    duration_ms, abs_sum)`` where ``abs_sum`` is the exact int64 sum of
    absolute sample values (the decode witness an oracle can check), plus
    ``energy`` (mean square per sample, float64). ``frame_step``
    optionally frame-samples: keep every ``frame_step``-th sample before
    the stats (the video/audio frame-sampling shape)."""
    col = batch.column(data_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    ch = np.zeros(n, np.int32)
    rate = np.zeros(n, np.int32)
    nsamp = np.zeros(n, np.int64)
    dur = np.zeros(n, np.int64)
    abs_sum = np.zeros(n, np.int64)
    energy = np.zeros(n, np.float64)
    for i in range(n):                        # per-clip decode is inherent
        s, r = decode_wav(bytes(col[i].as_py()))
        # clip-level metadata comes from the FULL decode; frame_step
        # subsamples only the witness/energy stats below
        ch[i], rate[i] = s.shape[1], r
        nsamp[i] = s.shape[0]
        dur[i] = s.shape[0] * 1000 // r
        if frame_step:
            s = s[::frame_step]
        a = s.astype(np.int64)
        abs_sum[i] = int(np.abs(a).sum())
        energy[i] = float((a * a).mean()) if a.size else 0.0
    for name, arr in (("channels", ch), ("sample_rate", rate),
                      ("n_samples", nsamp), ("duration_ms", dur),
                      ("abs_sum", abs_sum), ("energy", energy)):
        batch = batch.append_column(name, pa.array(arr))
    return batch


def make_wav_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic REAL-WAV fixture: seeded int16 PCM clips (mono/stereo
    mix, varied lengths/rates) + encode-time truth columns
    ``(true_channels, true_rate, true_n_samples, true_abs_sum)`` for the
    SQL oracle."""
    rng = np.random.default_rng(seed)
    rates = [8_000, 16_000, 44_100]
    ids, blobs, tc, tr, tn, ts = [], [], [], [], [], []
    for i in range(n):
        chn = 1 + (i % 2)
        rate = rates[i % len(rates)]
        length = int(rng.integers(100, 2000))
        t = np.arange(length * chn).reshape(length, chn)
        clip = ((np.sin(t * (0.01 + 0.001 * i)) * 12000)
                + rng.integers(-500, 500, (length, chn))).astype(np.int16)
        ids.append(i)
        blobs.append(encode_wav(clip, rate))
        tc.append(chn)
        tr.append(rate)
        tn.append(length)
        ts.append(int(np.abs(clip.astype(np.int64)).sum()))
    return pa.table({"item_id": pa.array(ids, pa.int64()),
                     "data": pa.array(blobs, pa.binary()),
                     "true_channels": pa.array(tc, pa.int32()),
                     "true_rate": pa.array(tr, pa.int32()),
                     "true_n_samples": pa.array(tn, pa.int64()),
                     "true_abs_sum": pa.array(ts, pa.int64())})


# -- builtin Y4M (YUV4MPEG2) video codec (public spec) -----------------------

def encode_y4m(frames: np.ndarray, fps: tuple[int, int] = (25, 1),
               colorspace: str = "C420") -> bytes:
    """Minimal YUV4MPEG2 encoder. ``frames`` is uint8 with shape
    (n_frames, h, w) for mono (Y-only written as C420 with flat chroma) or
    (n_frames, 3, h, w) planar YCbCr 4:4:4. Test/fixture scaffolding —
    deterministic bytes for a given array."""
    if frames.ndim == 3:
        n, h, w = frames.shape
        planar = False
    else:
        n, _, h, w = frames.shape
        planar = True
        colorspace = "C444"
    head = (f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 "
            f"{colorspace}\n").encode()
    out = [head]
    for i in range(n):
        out.append(b"FRAME\n")
        if planar:
            out.append(np.ascontiguousarray(frames[i], np.uint8).tobytes())
        else:
            out.append(np.ascontiguousarray(frames[i], np.uint8).tobytes())
            # 4:2:0 chroma planes at neutral 128 (mono source)
            out.append(b"\x80" * ((h // 2) * (w // 2) * 2))
    return b"".join(out)


_Y4M_CHROMA_BYTES = {
    # chroma bytes per frame as a function of (h, w); Y plane is always h*w
    "C420": lambda h, w: (h // 2) * (w // 2) * 2,
    "C420jpeg": lambda h, w: (h // 2) * (w // 2) * 2,
    "C420mpeg2": lambda h, w: (h // 2) * (w // 2) * 2,
    "C420paldv": lambda h, w: (h // 2) * (w // 2) * 2,
    "C422": lambda h, w: h * (w // 2) * 2,
    "C444": lambda h, w: h * w * 2,
    "Cmono": lambda h, w: 0,
}


def decode_y4m(buf: bytes, frame_step: int = 1
               ) -> tuple[np.ndarray, int, int, tuple[int, int], int]:
    """Real YUV4MPEG2 decode from the public spec (mjpegtools y4m format):
    stream-header tag parse (W/H/F/C), per-frame ``FRAME`` marker walk,
    planar plane math per colorspace. Returns
    ``(y_planes (kept_frames, h, w) uint8, w, h, (fps_num, fps_den),
    n_frames_total)`` — only every ``frame_step``-th frame's Y plane is
    materialized (the frame-sampling path skips over chroma + unsampled
    frames without copying them)."""
    nl = buf.find(b"\n")
    if nl < 0 or not buf.startswith(b"YUV4MPEG2"):
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    fps = (25, 1)
    cs = "C420"
    for tag in buf[:nl].split(b" ")[1:]:
        if not tag:
            continue
        c, val = chr(tag[0]), tag[1:].decode()
        if c == "W":
            w = int(val)
        elif c == "H":
            h = int(val)
        elif c == "F":
            a, b = val.split(":")
            fps = (int(a), int(b))
        elif c == "C":
            cs = "C" + val
    if w is None or h is None:
        raise ValueError("y4m header missing W/H")
    if cs not in _Y4M_CHROMA_BYTES:
        raise NotImplementedError(f"y4m colorspace {cs!r} not supported")
    chroma = _Y4M_CHROMA_BYTES[cs](h, w)
    ysize = h * w
    pos, idx, kept = nl + 1, 0, []
    while pos < len(buf):
        fnl = buf.find(b"\n", pos)
        if fnl < 0 or buf[pos:pos + 5] != b"FRAME":
            raise ValueError(f"bad FRAME marker at byte {pos}")
        start = fnl + 1
        if idx % frame_step == 0:
            kept.append(np.frombuffer(buf, np.uint8, ysize,
                                      start).reshape(h, w))
        pos = start + ysize + chroma
        idx += 1
    y = np.stack(kept) if kept else np.empty((0, h, w), np.uint8)
    return y, w, h, fps, idx


def decode_video(batch: pa.Table, data_col: str = "data",
                 frame_step: int = 1) -> pa.Table:
    """Decode/frame-sample stage over a binary Y4M column — the video
    analogue of :func:`decode_images` / :func:`decode_audio`. Decodes
    every ``frame_step``-th frame's luma plane and appends ``(width,
    height, n_frames, n_sampled, duration_ms, y_sum)`` where ``y_sum`` is
    the exact int64 luma sum over the SAMPLED frames (the decode witness
    an oracle can check) plus ``mean_luma`` (float64).

    Scale notes: video blobs are the largest multimodal payload — run with
    small ``batch_size`` (≤16) and let frame_step bound the decoded bytes;
    unsampled frames and chroma planes are never copied out of the blob."""
    col = batch.column(data_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    wid = np.zeros(n, np.int32)
    hei = np.zeros(n, np.int32)
    nf = np.zeros(n, np.int64)
    ns = np.zeros(n, np.int64)
    dur = np.zeros(n, np.int64)
    ysum = np.zeros(n, np.int64)
    mean = np.zeros(n, np.float64)
    for i in range(n):                        # per-clip decode is inherent
        y, w, h, (fn, fd), total = decode_y4m(bytes(col[i].as_py()),
                                              frame_step)
        wid[i], hei[i], nf[i], ns[i] = w, h, total, y.shape[0]
        dur[i] = total * 1000 * fd // fn
        ysum[i] = int(y.sum(dtype=np.int64))
        mean[i] = float(y.mean()) if y.size else 0.0
    for name, arr in (("width", wid), ("height", hei),
                      ("n_frames", nf), ("n_sampled", ns),
                      ("duration_ms", dur), ("y_sum", ysum),
                      ("mean_luma", mean)):
        batch = batch.append_column(name, pa.array(arr))
    return batch


def make_y4m_fixture(n: int = 48, seed: int = 42) -> pa.Table:
    """Deterministic REAL-Y4M fixture: seeded mono-luma clips (C420 with
    neutral chroma; varied dims / frame counts / fps) + encode-time truth
    columns ``(true_w, true_h, true_frames, true_y_sum_all,
    true_y_sum_even)`` — the ``_even`` witness covers frames 0,2,4,… so an
    oracle can check the ``frame_step=2`` sampling path exactly."""
    rng = np.random.default_rng(seed)
    fps_opts = [(25, 1), (30000, 1001), (24, 1)]
    ids, blobs = [], []
    tw, th, tf, tsa, tse = [], [], [], [], []
    for i in range(n):
        h = int(rng.integers(4, 16)) * 2          # 4:2:0 needs even dims
        w = int(rng.integers(4, 16)) * 2
        frames = int(rng.integers(3, 24))
        base = (np.arange(h)[:, None] + np.arange(w)[None, :])[None]
        clip = ((base * (i + 2)
                 + np.arange(frames)[:, None, None] * 7
                 + rng.integers(0, 64, (frames, h, w))) % 256
                ).astype(np.uint8)
        ids.append(i)
        blobs.append(encode_y4m(clip, fps_opts[i % len(fps_opts)]))
        tw.append(w)
        th.append(h)
        tf.append(frames)
        tsa.append(int(clip.sum(dtype=np.int64)))
        tse.append(int(clip[::2].sum(dtype=np.int64)))
    return pa.table({"item_id": pa.array(ids, pa.int64()),
                     "data": pa.array(blobs, pa.binary()),
                     "true_w": pa.array(tw, pa.int32()),
                     "true_h": pa.array(th, pa.int32()),
                     "true_frames": pa.array(tf, pa.int64()),
                     "true_y_sum_all": pa.array(tsa, pa.int64()),
                     "true_y_sum_even": pa.array(tse, pa.int64())})


def _image_fixture(blobs: list[bytes], imgs: list[np.ndarray],
                   **extra: pa.Array) -> pa.Table:
    """Image fixture table: ``item_id``, ``data``, any ``extra`` columns,
    then the truth columns ``(true_width, true_height, true_channels,
    true_px_sum, true_px_sum_gray)`` of each uint8 (H, W, C) image — the
    stats a query that DECODES the blobs must reproduce."""
    return pa.table({
        "item_id": pa.array(range(len(blobs)), pa.int64()),
        "data": pa.array(blobs, pa.binary()), **extra,
        "true_width": pa.array([im.shape[1] for im in imgs], pa.int32()),
        "true_height": pa.array([im.shape[0] for im in imgs], pa.int32()),
        "true_channels": pa.array([im.shape[2] for im in imgs], pa.int32()),
        "true_px_sum": pa.array([int(im.sum(dtype=np.int64)) for im in imgs],
                                pa.int64()),
        "true_px_sum_gray": pa.array(
            [int(_to_grayscale(im).sum(dtype=np.int64)) for im in imgs],
            pa.int64()),
    })


def make_png_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic REAL-PNG fixture: n seeded gradient+noise images (gray /
    RGB / RGBA mix, varied dims) encoded with :func:`encode_png`, plus the
    encode-time truth columns of :func:`_image_fixture`."""
    rng = np.random.default_rng(seed)
    chans = [1, 3, 4]
    imgs = []
    for i in range(n):
        c = chans[i % len(chans)]
        h = int(rng.integers(8, 40))
        w = int(rng.integers(8, 40))
        base = (np.arange(h)[:, None] + np.arange(w)[None, :])[:, :, None]
        imgs.append(((base * (i + 3) + rng.integers(0, 256, (h, w, c)))
                     % 256).astype(np.uint8))
    return _image_fixture([encode_png(img) for img in imgs], imgs)


def make_jpeg_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic REAL-JPEG fixture: n seeded gradient images (grayscale /
    RGB 4:4:4 / RGB 4:2:0 mix, varied dims, some with restart markers)
    encoded with the builtin baseline encoder (:mod:`.jpeg`), plus the truth
    columns of :func:`_image_fixture`. JPEG is lossy, so the truths are the
    build-time DECODED stats (one local decode per blob here); the codec
    itself is proven against the spec in unit tests (analytic constant-tile
    exactness, PSNR bounds, restart/stuffing paths) — the driver query then
    proves the distributed decode tasks reproduce the same sums
    bit-exactly through sniff-routing, batching and aggregation."""
    from .jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(seed)
    modes = [("gray", "444"), ("rgb", "444"), ("rgb", "420")]
    blobs = []
    for i in range(n):
        kind, sub = modes[i % len(modes)]
        h = int(rng.integers(8, 56))
        w = int(rng.integers(8, 56))
        base = (np.arange(h)[:, None] * 3 + np.arange(w)[None, :] * 2)
        if kind == "gray":
            img = ((base * (i + 2)) % 256).astype(np.uint8)
        else:
            img = np.stack([(base + 40 * ch + i * 7) % 256
                            for ch in range(3)], axis=2).astype(np.uint8)
        blobs.append(encode_jpeg(img, quality=[60, 75, 90][i % 3],
                                 subsampling=sub,
                                 restart_interval=4 if i % 5 == 0 else 0))
    return _image_fixture(blobs, [decode_jpeg(b) for b in blobs])


def make_bmp_gif_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic REAL BMP+GIF fixture: alternating 24-bit BMP and
    ≤256-color GIF blobs (both lossless, varied dims) encoded with the
    builtin codecs, plus ``true_format`` and the truth columns of
    :func:`_image_fixture`, so a driver query that sniff-routes and DECODES
    the blobs proves both codecs end-to-end against an SQL oracle."""
    rng = np.random.default_rng(seed)
    fmt, blobs, imgs = [], [], []
    for i in range(n):
        h = int(rng.integers(6, 40))
        w = int(rng.integers(6, 40))
        base = (np.arange(h)[:, None] * 2 + np.arange(w)[None, :])
        if i % 2 == 0:                              # BMP arm: full 24-bit
            img = np.stack([(base * (i + 3) + 17 * ch) % 256
                            for ch in range(3)], axis=2).astype(np.uint8)
            blobs.append(encode_bmp(img))
            fmt.append("bmp")
        else:                                       # GIF arm: ≤64 colors
            img = ((np.stack([(base + 5 * ch + i) % 64
                              for ch in range(3)], axis=2)) * 4
                   ).astype(np.uint8)
            blobs.append(encode_gif(img))
            fmt.append("gif")
        imgs.append(img)
    return _image_fixture(blobs, imgs,
                          true_format=pa.array(fmt, pa.string()))


def make_tiff_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic REAL-TIFF fixture: n seeded images cycling through
    gray/RGB/RGBA × II/MM byte order × uncompressed/PackBits × single/multi
    strip, plus the truth columns of :func:`_image_fixture` (TIFF is
    lossless, so the truths come straight from the source array)."""
    rng = np.random.default_rng(seed)
    chans = [1, 3, 4]
    blobs, imgs = [], []
    for i in range(n):
        c = chans[i % len(chans)]
        h = int(rng.integers(6, 40))
        w = int(rng.integers(6, 40))
        base = (np.arange(h)[:, None] + 2 * np.arange(w)[None, :])[:, :, None]
        img = ((base * (i + 5) + rng.integers(0, 256, (h, w, c)))
               % 256).astype(np.uint8)
        blobs.append(encode_tiff(img, big_endian=bool(i % 2),
                                 packbits=bool((i // 2) % 2),
                                 rows_per_strip=(None if (i // 4) % 2 else 5)))
        imgs.append(img)
    return _image_fixture(blobs, imgs)


def make_binary_fixture(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic binary-column fixture: n blobs with real image magic
    bytes + pseudo-random payloads (for plumbing tests)."""
    rng = np.random.default_rng(seed)
    magics = [b"\xff\xd8\xff", b"\x89PNG\r\n\x1a\n", b"GIF89a", b"BM"]
    blobs, ids = [], []
    for i in range(n):
        m = magics[i % len(magics)]
        payload = rng.integers(0, 256, size=int(rng.integers(64, 512)),
                               dtype=np.uint8).tobytes()
        blobs.append(m + payload)
        ids.append(i)
    return pa.table({"item_id": pa.array(ids, pa.int64()),
                     "data": pa.array(blobs, pa.binary())})
