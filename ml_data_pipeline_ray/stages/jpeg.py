"""Builtin baseline JPEG (JFIF) codec — written from the public ITU-T T.81
spec with zero external dependencies, like the sibling PNG / WAV / Y4M
codecs in :mod:`.multimodal`.

The reference sniffs JPEG first (``image.rs:51-56``) but its decode is a
stub; this is a REAL sequential-baseline implementation:

- **decoder**: marker walk (APPn/COM skip, DQT 8-bit, DHT, SOF0/SOF1, DRI,
  SOS), canonical Huffman decode, RST0-7 restart handling, dequantize,
  inverse zigzag, float64 2-D IDCT (orthonormal matrix form, vectorized
  over all blocks with one einsum per component), chroma upsample by pixel
  replication, JFIF YCbCr -> RGB. Handles grayscale, 4:4:4, 4:2:2 and
  4:2:0 streams. Progressive (SOF2), arithmetic coding, 12-bit precision
  and 16-bit quant tables raise ``NotImplementedError``.
- **encoder** (fixture/test scaffolding, deterministic): JFIF headers,
  Annex-K quantization tables scaled by the public IJG quality curve,
  Annex-K Huffman tables, forward DCT via the same matrix, grayscale /
  4:4:4 / 4:2:0, byte stuffing. Quantization rounds half away from zero so
  constant-tile fixtures decode to analytically predictable values (the
  unit tests assert that exactness without ever trusting the decoder).

Per-block entropy coding is bit-serial Python (inherent to Huffman); the
DCT/IDCT, color transforms and up/downsampling are vectorized numpy. At
corpus scale the decode runs inside stateless ``map_batches`` tasks, so
the per-image cost parallelizes across the cluster.
"""

from __future__ import annotations

import struct

import numpy as np

# -- tables (ITU-T T.81 Annex K) ---------------------------------------------

#: zigzag scan: _ZZ[k] = raster index of the k-th zigzag coefficient
_ZZ = []
for _s in range(15):
    _r0, _r1 = max(0, _s - 7), min(7, _s)
    _rows = range(_r1, _r0 - 1, -1) if _s % 2 == 0 else range(_r0, _r1 + 1)
    _ZZ.extend(r * 8 + (_s - r) for r in _rows)
_ZZ = np.array(_ZZ, dtype=np.int64)

_Q_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

_Q_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# (BITS[1..16], HUFFVAL) per Annex K.3
_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            list(range(12)))
_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_AC_LUMA = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_CHROMA = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

#: orthonormal-form DCT matrix: F = M @ f @ M.T, f = M.T @ F @ M
_M = np.zeros((8, 8))
for _u in range(8):
    _cu = (1.0 / np.sqrt(2.0)) if _u == 0 else 1.0
    for _x in range(8):
        _M[_u, _x] = 0.5 * _cu * np.cos((2 * _x + 1) * _u * np.pi / 16.0)


def _scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality curve (public libjpeg convention)."""
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _canonical_codes(bits: list[int], vals: list[int]):
    """Canonical Huffman code assignment (T.81 Annex C): returns
    {symbol: (code, length)} for the encoder and
    {(length, code): symbol} for the decoder."""
    enc, dec = {}, {}
    code, k = 0, 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            enc[vals[k]] = (code, length)
            dec[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return enc, dec


# -- bit I/O with 0xFF byte stuffing -----------------------------------------

class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self._acc = 0
        self._n = 0

    def write(self, code: int, length: int) -> None:
        for i in range(length - 1, -1, -1):
            self._acc = (self._acc << 1) | ((code >> i) & 1)
            self._n += 1
            if self._n == 8:
                b = self._acc & 0xFF
                self.buf.append(b)
                if b == 0xFF:               # byte stuffing (T.81 F.1.2.3)
                    self.buf.append(0x00)
                self._acc = 0
                self._n = 0

    def flush(self) -> None:
        while self._n:
            self.write(1, 1)                # pad with 1-bits


class _BitReader:
    def __init__(self, data: bytes, pos: int):
        self.d = data
        self.p = pos
        self._acc = 0
        self._n = 0

    def read_bit(self) -> int:
        if self._n == 0:
            b = self.d[self.p]
            if b == 0xFF:
                nxt = self.d[self.p + 1]
                if nxt != 0x00:             # a real marker: no more data
                    raise EOFError("hit marker inside entropy data")
                self.p += 2                 # stuffed byte
            else:
                self.p += 1
            self._acc = b
            self._n = 8
        self._n -= 1
        return (self._acc >> self._n) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def restart(self) -> None:
        """Byte-align and consume an RST0-7 marker (T.81 F.2.1.3.1)."""
        self._n = 0
        if not (self.d[self.p] == 0xFF and 0xD0 <= self.d[self.p + 1] <= 0xD7):
            raise ValueError("expected RST marker at restart interval")
        self.p += 2


def _huff_decode(br: _BitReader, table: dict) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("invalid Huffman code")


def _receive_extend(br: _BitReader, s: int) -> int:
    if s == 0:
        return 0
    v = br.read_bits(s)
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _category(v: int) -> int:
    return int(abs(v)).bit_length()


# -- color transforms (JFIF) --------------------------------------------------

def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    r = rgb[:, :, 0].astype(np.float64)
    g = rgb[:, :, 1].astype(np.float64)
    b = rgb[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    return np.stack([y, cb, cr], axis=2)


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136286 * cb - 0.714136286 * cr
    b = y + 1.772 * cb
    out = np.stack([r, g, b], axis=2)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def _pad_edge(plane: np.ndarray, mh: int, mw: int) -> np.ndarray:
    h, w = plane.shape
    ph = (mh - h % mh) % mh
    pw = (mw - w % mw) % mw
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(H, W) -> (H//8 * W//8, 8, 8) in block-raster order."""
    h, w = plane.shape
    return (plane.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def _unblocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return (blocks.reshape(h // 8, w // 8, 8, 8)
            .transpose(0, 2, 1, 3).reshape(h, w))


# -- encoder ------------------------------------------------------------------

def encode_jpeg(img: np.ndarray, quality: int = 75,
                subsampling: str = "444",
                restart_interval: int = 0) -> bytes:
    """Deterministic baseline-JFIF encoder for uint8 arrays of shape
    (H, W), (H, W, 1) (grayscale stream) or (H, W, 3) (YCbCr stream).
    ``subsampling`` is ``"444"`` or ``"420"`` (ignored for grayscale);
    ``restart_interval`` > 0 emits DRI + RST0-7 markers every that many
    MCUs (exercises the decoder's restart path)."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, nc = img.shape
    if nc not in (1, 3):
        raise ValueError("encode_jpeg takes 1- or 3-channel uint8 images")
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    gray = nc == 1
    sub = "444" if gray else subsampling

    qy = _scaled_quant(_Q_LUMA, quality)
    qc = _scaled_quant(_Q_CHROMA, quality)

    # component planes at their sampled resolution
    if gray:
        planes = [img[:, :, 0].astype(np.float64)]
        samp = [(1, 1)]
    else:
        ycc = _rgb_to_ycbcr(img)
        if sub == "444":
            planes = [ycc[:, :, 0], ycc[:, :, 1], ycc[:, :, 2]]
            samp = [(1, 1), (1, 1), (1, 1)]
        else:                               # 4:2:0 — 2x2 box mean chroma
            y = _pad_edge(ycc[:, :, 0], 16, 16)
            cb = _pad_edge(ycc[:, :, 1], 16, 16)
            cr = _pad_edge(ycc[:, :, 2], 16, 16)
            ph, pw = y.shape
            cb = cb.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
            planes = [y, cb, cr]
            samp = [(2, 2), (1, 1), (1, 1)]

    hmax = max(sh for sh, _ in samp)
    vmax = max(sv for _, sv in samp)
    # pad every plane to a whole number of MCUs at ITS resolution
    padded, qidx = [], []
    for i, p in enumerate(planes):
        sh, sv = samp[i]
        padded.append(_pad_edge(p, 8 * sv, 8 * sh))
        qidx.append(0 if i == 0 else 1)
    mcu_w = 8 * hmax
    mcu_h = 8 * vmax
    mcux = (w + mcu_w - 1) // mcu_w
    mcuy = (h + mcu_h - 1) // mcu_h
    for i, p in enumerate(padded):          # plane must cover all MCUs
        sh, sv = samp[i]
        padded[i] = _pad_edge(p, 8 * mcuy * sv, 8 * mcux * sh)[
            :8 * mcuy * sv, :8 * mcux * sh]

    # forward DCT + quantize per component (vectorized over blocks)
    quant_blocks = []
    for i, p in enumerate(padded):
        blocks = _blocks_of(p - 128.0)
        coef = np.einsum("ux,nxy,vy->nuv", _M, blocks, _M)
        q = (qy if qidx[i] == 0 else qc).reshape(8, 8).astype(np.float64)
        scaled = coef / q
        # round half away from zero — deterministic, analytically
        # predictable for the constant-tile fixtures
        qb = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(
            np.int64)
        quant_blocks.append(qb)

    dc_enc_l, _ = _canonical_codes(*_DC_LUMA)
    ac_enc_l, _ = _canonical_codes(*_AC_LUMA)
    dc_enc_c, _ = _canonical_codes(*_DC_CHROMA)
    ac_enc_c, _ = _canonical_codes(*_AC_CHROMA)

    bw = _BitWriter()
    pred = [0] * len(planes)

    def put_block(ci: int, block: np.ndarray) -> None:
        dc_t = dc_enc_l if qidx[ci] == 0 else dc_enc_c
        ac_t = ac_enc_l if qidx[ci] == 0 else ac_enc_c
        zz = block.reshape(64)[_ZZ]
        diff = int(zz[0]) - pred[ci]
        pred[ci] = int(zz[0])
        s = _category(diff)
        code, length = dc_t[s]
        bw.write(code, length)
        if s:
            bw.write(diff if diff > 0 else diff + (1 << s) - 1, s)
        run = 0
        for k in range(1, 64):
            v = int(zz[k])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, length = ac_t[0xF0]   # ZRL
                bw.write(code, length)
                run -= 16
            s = _category(v)
            code, length = ac_t[(run << 4) | s]
            bw.write(code, length)
            bw.write(v if v > 0 else v + (1 << s) - 1, s)
            run = 0
        if run:
            code, length = ac_t[0x00]       # EOB
            bw.write(code, length)

    n_mcu = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and n_mcu and n_mcu % restart_interval == 0:
                bw.flush()
                bw.buf += bytes([0xFF, 0xD0 + (n_mcu // restart_interval - 1)
                                 % 8])
                pred[:] = [0] * len(planes)
            n_mcu += 1
            for ci in range(len(planes)):
                sh, sv = samp[ci]
                bw_ci = padded[ci].shape[1] // 8    # blocks per row
                for by in range(sv):
                    for bx in range(sh):
                        bi = (my * sv + by) * bw_ci + (mx * sh + bx)
                        put_block(ci, quant_blocks[ci][bi])
    bw.flush()

    # -- headers --
    out = bytearray(b"\xff\xd8")                          # SOI
    out += (b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
            + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]))

    def dqt(tid: int, tbl: np.ndarray) -> bytes:
        return (b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid])
                + bytes(int(tbl[z]) for z in _ZZ))

    out += dqt(0, qy)
    if not gray:
        out += dqt(1, qc)

    ncomp = len(planes)
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([ncomp])
    for ci in range(ncomp):
        sh, sv = samp[ci]
        sof += bytes([ci + 1, (sh << 4) | sv, qidx[ci]])
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof

    def dht(cls: int, tid: int, bits: list[int], vals: list[int]) -> bytes:
        payload = bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
        return b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload

    out += dht(0, 0, *_DC_LUMA) + dht(1, 0, *_AC_LUMA)
    if not gray:
        out += dht(0, 1, *_DC_CHROMA) + dht(1, 1, *_AC_CHROMA)

    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)

    sos = bytes([ncomp])
    for ci in range(ncomp):
        tid = 0 if qidx[ci] == 0 else 1
        sos += bytes([ci + 1, (tid << 4) | tid])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    out += bw.buf
    out += b"\xff\xd9"                                    # EOI
    return bytes(out)


# -- decoder ------------------------------------------------------------------

def decode_jpeg(buf: bytes) -> np.ndarray:
    """Real baseline JPEG decode (T.81 sequential DCT, Huffman). Returns
    uint8 (H, W, 1) for grayscale streams or (H, W, 3) RGB."""
    if buf[:3] != b"\xff\xd8\xff":
        raise ValueError("not a JPEG")
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], dict] = {}
    comps: list[dict] = []
    h = w = None
    restart_interval = 0
    pos = 2
    while pos + 4 <= len(buf):
        if buf[pos] != 0xFF:
            raise ValueError(f"bad marker sync at {pos}")
        # T.81 B.1.1.2: any number of 0xFF fill bytes may pad a marker
        while buf[pos + 1] == 0xFF and pos + 4 <= len(buf):
            pos += 1
        marker = buf[pos + 1]
        if marker == 0xD9:                                # EOI
            break
        (seglen,) = struct.unpack(">H", buf[pos + 2:pos + 4])
        payload = buf[pos + 4:pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:                                # DQT
            p = 0
            while p < len(payload):
                pq, tq = payload[p] >> 4, payload[p] & 15
                if pq != 0:
                    raise NotImplementedError("16-bit quant tables")
                tbl = np.zeros(64, np.int64)
                tbl[_ZZ] = np.frombuffer(payload[p + 1:p + 65], np.uint8)
                qtables[tq] = tbl
                p += 65
        elif marker == 0xC4:                              # DHT
            p = 0
            while p < len(payload):
                cls, tid = payload[p] >> 4, payload[p] & 15
                bits = list(payload[p + 1:p + 17])
                nval = sum(bits)
                vals = list(payload[p + 17:p + 17 + nval])
                _, dec = _canonical_codes(bits, vals)
                htables[(cls, tid)] = dec
                p += 17 + nval
        elif marker in (0xC0, 0xC1):                      # SOF0/SOF1 baseline
            prec = payload[0]
            if prec != 8:
                raise NotImplementedError(f"{prec}-bit precision")
            h, w = struct.unpack(">HH", payload[1:5])
            ncomp = payload[5]
            comps = []
            for ci in range(ncomp):
                cid, hv, tq = payload[6 + 3 * ci:9 + 3 * ci]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"non-baseline JPEG (SOF marker 0x{marker:02x})")
        elif marker == 0xDD:                              # DRI
            (restart_interval,) = struct.unpack(">H", payload[:2])
        elif marker == 0xDA:                              # SOS
            ns = payload[0]
            if ns != len(comps):
                # a T.81-legal multi-scan (non-interleaved) baseline file:
                # decoding only the first scan would silently return a
                # single-component image with wrong block geometry
                raise NotImplementedError(
                    f"non-interleaved multi-scan baseline JPEG "
                    f"(scan has {ns} of {len(comps)} components)")
            scan = []
            for ci in range(ns):
                cid, tt = payload[1 + 2 * ci:3 + 2 * ci]
                comp = next(c for c in comps if c["id"] == cid)
                comp["dc"] = htables[(0, tt >> 4)]
                comp["ac"] = htables[(1, tt & 15)]
                scan.append(comp)
            br = _BitReader(buf, pos)
            return _decode_scan(br, scan, qtables, h, w,
                                restart_interval)
        # else: APPn / COM / others — skipped
    raise ValueError("truncated JPEG (no SOS)")


def _decode_scan(br: _BitReader, scan: list[dict],
                 qtables: dict, h: int, w: int,
                 restart_interval: int) -> np.ndarray:
    hmax = max(c["h"] for c in scan)
    vmax = max(c["v"] for c in scan)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    for c in scan:
        c["bw"] = mcux * c["h"]             # blocks per row at this sampling
        c["coef"] = np.zeros((mcuy * c["v"] * c["bw"], 64), np.float64)
        c["pred"] = 0

    zz = _ZZ
    n_mcu = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and n_mcu and n_mcu % restart_interval == 0:
                br.restart()
                for c in scan:
                    c["pred"] = 0
            n_mcu += 1
            for c in scan:
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        bi = (my * c["v"] + by) * c["bw"] + mx * c["h"] + bx
                        row = c["coef"][bi]
                        s = _huff_decode(br, c["dc"])
                        c["pred"] += _receive_extend(br, s)
                        row[0] = c["pred"]
                        k = 1
                        while k < 64:
                            rs = _huff_decode(br, c["ac"])
                            r, s = rs >> 4, rs & 15
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break        # EOB
                            k += r
                            if k > 63:
                                raise ValueError("AC run past block end")
                            row[zz[k]] = _receive_extend(br, s)
                            k += 1

    # dequantize + IDCT + assemble planes (vectorized per component)
    planes = []
    for c in scan:
        q = qtables[c["tq"]].astype(np.float64)
        coef = (c["coef"] * q).reshape(-1, 8, 8)
        blocks = np.einsum("xu,nuv,yv->nxy", _M.T, coef, _M.T) + 128.0
        ph, pw = mcuy * c["v"] * 8, c["bw"] * 8
        plane = _unblocks(blocks, ph, pw)
        # upsample to full MCU-grid resolution by replication
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[:h, :w])
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(
            np.uint8)[:, :, None]
    if len(planes) != 3:
        raise NotImplementedError(f"{len(planes)}-component JPEG")
    return _ycbcr_to_rgb(planes[0], planes[1], planes[2])
