"""XXH64 and an XXH3-64 implementation.

``xxh64`` is a bit-exact implementation of the classic 64-bit xxHash,
verified against published vectors in the test suite.

``xxh3_64`` follows the XXH3 short-input algorithm structure (length
dispatch at 0/1-3/4-8/9-16/17-128/129-240 bytes, mix16B accumulation,
dedicated avalanches) but derives its 192-byte secret deterministically
from ``xxh64`` instead of embedding the reference ``kSecret`` constant.
Outputs therefore differ from the reference library, while the cost
profile and statistical structure — which are what the paper's fast-path
experiments depend on — are preserved.  DESIGN.md records this
substitution.

:func:`xxh3_64` is the scalar reference.  :func:`xxh3_64_many` hashes
many equal-length messages at once; for 17-128-byte messages (every
24-byte key) it is a numpy kernel, one message per uint64 lane, and any
other length goes through the scalar.  numpy is optional:
:meth:`repro.hashes.registry.HashSpec.prime` calls the kernel only when
it imports.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

#: messages per numpy pass, so each of the kernel's uint64 arrays stays
#: at 32 KiB however many keys a caller hands over
_CHUNK = 4096

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_P64_1 = 0x9E3779B185EBCA87
_P64_2 = 0xC2B2AE3D27D4EB4F
_P64_3 = 0x165667B19E3779F9
_P64_4 = 0x85EBCA77C2B2AE63
_P64_5 = 0x27D4EB2F165667C5

_P32_1 = 0x9E3779B1
_P32_2 = 0x85EBCA77
_P32_3 = 0xC2B2AE3D


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _MASK


def _round(acc: int, lane: int) -> int:
    acc = (acc + lane * _P64_2) & _MASK
    return (_rotl(acc, 31) * _P64_1) & _MASK


def _merge_round(h: int, acc: int) -> int:
    h ^= _round(0, acc)
    return (h * _P64_1 + _P64_4) & _MASK


def xxh64(data: bytes, seed: int = 0) -> int:
    """XXH64 of ``data``; returns u64."""
    n = len(data)
    off = 0
    if n >= 32:
        acc1 = (seed + _P64_1 + _P64_2) & _MASK
        acc2 = (seed + _P64_2) & _MASK
        acc3 = seed & _MASK
        acc4 = (seed - _P64_1) & _MASK
        limit = n - 32
        while off <= limit:
            l1, l2, l3, l4 = struct.unpack_from("<QQQQ", data, off)
            acc1 = _round(acc1, l1)
            acc2 = _round(acc2, l2)
            acc3 = _round(acc3, l3)
            acc4 = _round(acc4, l4)
            off += 32
        h = (
            _rotl(acc1, 1) + _rotl(acc2, 7) + _rotl(acc3, 12) + _rotl(acc4, 18)
        ) & _MASK
        h = _merge_round(h, acc1)
        h = _merge_round(h, acc2)
        h = _merge_round(h, acc3)
        h = _merge_round(h, acc4)
    else:
        h = (seed + _P64_5) & _MASK

    h = (h + n) & _MASK

    while off + 8 <= n:
        (lane,) = struct.unpack_from("<Q", data, off)
        h ^= _round(0, lane)
        h = (_rotl(h, 27) * _P64_1 + _P64_4) & _MASK
        off += 8
    if off + 4 <= n:
        (lane32,) = struct.unpack_from("<I", data, off)
        h ^= (lane32 * _P64_1) & _MASK
        h = (_rotl(h, 23) * _P64_2 + _P64_3) & _MASK
        off += 4
    while off < n:
        h ^= (data[off] * _P64_5) & _MASK
        h = (_rotl(h, 11) * _P64_1) & _MASK
        off += 1

    h ^= h >> 33
    h = (h * _P64_2) & _MASK
    h ^= h >> 29
    h = (h * _P64_3) & _MASK
    h ^= h >> 32
    return h


# ---------------------------------------------------------------------------
# XXH3-64 (structure-faithful; secret derived rather than embedded)
# ---------------------------------------------------------------------------

def _derive_secret() -> bytes:
    """Deterministically generate a 192-byte secret from xxh64."""
    out = bytearray()
    counter = 0
    while len(out) < 192:
        out += struct.pack("<Q", xxh64(b"xxh3-secret", counter))
        counter += 1
    return bytes(out)


_SECRET = _derive_secret()


def _read64(buf: bytes, off: int) -> int:
    return struct.unpack_from("<Q", buf, off)[0]


def _read32(buf: bytes, off: int) -> int:
    return struct.unpack_from("<I", buf, off)[0]


def _avalanche64(h: int) -> int:
    h ^= h >> 37
    h = (h * 0x165667919E3779F9) & _MASK
    h ^= h >> 32
    return h


def _rrmxmx(h: int, length: int) -> int:
    h ^= _rotl(h, 49) ^ _rotl(h, 24)
    h = (h * 0x9FB21C651E98DF25) & _MASK
    h ^= (h >> 35) + length
    h = (h * 0x9FB21C651E98DF25) & _MASK
    h ^= h >> 28
    return h


def _mul128_fold64(a: int, b: int) -> int:
    product = a * b
    return (product & _MASK) ^ (product >> 64)


def _mix16(data: bytes, off: int, secret_off: int, seed: int) -> int:
    lo = _read64(data, off) ^ ((_read64(_SECRET, secret_off) + seed) & _MASK)
    hi = _read64(data, off + 8) ^ ((_read64(_SECRET, secret_off + 8) - seed) & _MASK)
    return _mul128_fold64(lo, hi)


def _len_1to3(data: bytes, seed: int) -> int:
    n = len(data)
    c1, c2, c3 = data[0], data[n >> 1], data[-1]
    combined = (c1 << 16) | (c2 << 24) | c3 | (n << 8)
    mixer = ((_read32(_SECRET, 0) ^ _read32(_SECRET, 4)) + seed) & _MASK
    return _avalanche64(combined ^ mixer)


def _len_4to8(data: bytes, seed: int) -> int:
    n = len(data)
    # fold a byte-swapped copy of the low seed word into the high half,
    # as the reference algorithm does
    low = seed & _MASK32
    swapped = int.from_bytes(low.to_bytes(4, "little"), "big")
    seed = (seed ^ (swapped << 32)) & _MASK
    in1 = _read32(data, 0)
    in2 = _read32(data, n - 4)
    in64 = in2 | (in1 << 32)
    mixer = ((_read64(_SECRET, 8) ^ _read64(_SECRET, 16)) - seed) & _MASK
    return _rrmxmx(in64 ^ mixer, n)


def _len_9to16(data: bytes, seed: int) -> int:
    n = len(data)
    lo = ((_read64(_SECRET, 24) ^ _read64(_SECRET, 32)) + seed) & _MASK
    hi = ((_read64(_SECRET, 40) ^ _read64(_SECRET, 48)) - seed) & _MASK
    input_lo = _read64(data, 0) ^ lo
    input_hi = _read64(data, n - 8) ^ hi
    acc = (
        n
        + ((input_lo >> 32) | (input_lo << 32)) & _MASK
        + input_hi
        + _mul128_fold64(input_lo, input_hi)
    ) & _MASK
    return _avalanche64(acc)


def _len_17to128(data: bytes, seed: int) -> int:
    n = len(data)
    acc = (n * _P64_1) & _MASK
    pairs = (n - 1) // 32 + 1  # 1..4 mix pairs
    for i in reversed(range(pairs)):
        acc = (acc + _mix16(data, 16 * i, 32 * i, seed)) & _MASK
        acc = (acc + _mix16(data, n - 16 * (i + 1), 32 * i + 16, seed)) & _MASK
    return _avalanche64(acc)


def _len_129to240(data: bytes, seed: int) -> int:
    n = len(data)
    acc = (n * _P64_1) & _MASK
    for i in range(8):
        acc = (acc + _mix16(data, 16 * i, 16 * i, seed)) & _MASK
    acc = _avalanche64(acc)
    rounds = n // 16
    for i in range(8, rounds):
        acc = (acc + _mix16(data, 16 * i, 16 * (i - 8) + 3, seed)) & _MASK
    acc = (acc + _mix16(data, n - 16, 136 - 17, seed)) & _MASK
    return _avalanche64(acc)


def xxh3_64(data: bytes, seed: int = 0) -> int:
    """XXH3-style 64-bit hash (see module docstring for fidelity notes)."""
    n = len(data)
    if n == 0:
        return _avalanche64(
            seed ^ _read64(_SECRET, 56) ^ _read64(_SECRET, 64)
        )
    if n <= 3:
        return _len_1to3(data, seed)
    if n <= 8:
        return _len_4to8(data, seed)
    if n <= 16:
        return _len_9to16(data, seed)
    if n <= 128:
        return _len_17to128(data, seed)
    if n <= 240:
        return _len_129to240(data, seed)
    # long inputs: fall back to xxh64 seeded with the secret head; key-value
    # keys in every experiment are 24 bytes, so this path is exercised only
    # by stress tests.
    return xxh64(data, seed ^ _read64(_SECRET, 0))


# ---------------------------------------------------------------------------
# the bulk kernel
# ---------------------------------------------------------------------------

def _mul128_fold64_lanes(a, b):
    """:func:`_mul128_fold64` over uint64 lane arrays.

    numpy has no 128-bit product, so the 64x64 multiply is done in
    32-bit limbs: four 32x32 partial products, each exact in a uint64,
    summed with explicit carries.  ``cross`` is at most
    ``2**64 - 2`` and the high word is below ``2**64``, so no sum wraps.
    """
    a_lo = a & _MASK32
    a_hi = a >> 32
    b_lo = b & _MASK32
    b_hi = b >> 32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> 32) + (hi_lo & _MASK32) + a_lo * b_hi
    high = a_hi * b_hi + (hi_lo >> 32) + (cross >> 32)
    low = (cross << 32) | (lo_lo & _MASK32)
    return low ^ high


def _lane_words(rows, off: int):
    """The little-endian u64 at byte ``off`` of every row of ``rows``."""
    return _np.ascontiguousarray(rows[:, off:off + 8]).view(
        "<u8")[:, 0].astype(_np.uint64)


def xxh3_64_many(messages: Sequence[bytes], seed: int = 0) -> List[int]:
    """XXH3 of equal-length ``messages``; equals
    ``[xxh3_64(m, seed) for m in messages]``.  Requires numpy when the
    length is 17-128 bytes (the ``_len_17to128`` branch)."""
    if not messages:
        return []
    n = len(messages[0])
    if any(len(m) != n for m in messages):
        raise ValueError("xxh3_64_many needs equal-length messages")
    if not 17 <= n <= 128:
        return [xxh3_64(m, seed) for m in messages]
    # _len_17to128's mix16 calls, in its order: (data offset, the two
    # seeded secret words) -- all fixed by n and the seed
    mixes = []
    for i in reversed(range((n - 1) // 32 + 1)):
        for off, secret_off in ((16 * i, 32 * i),
                                (n - 16 * (i + 1), 32 * i + 16)):
            mixes.append((
                off,
                _np.uint64((_read64(_SECRET, secret_off) + seed) & _MASK),
                _np.uint64((_read64(_SECRET, secret_off + 8) - seed)
                           & _MASK)))
    acc0 = _np.uint64((n * _P64_1) & _MASK)
    out: List[int] = []
    for start in range(0, len(messages), _CHUNK):
        chunk = messages[start:start + _CHUNK]
        rows = _np.frombuffer(b"".join(chunk), dtype=_np.uint8).reshape(
            len(chunk), n)
        acc = _np.full(len(chunk), acc0, dtype=_np.uint64)
        for off, key_lo, key_hi in mixes:
            acc += _mul128_fold64_lanes(_lane_words(rows, off) ^ key_lo,
                                        _lane_words(rows, off + 8) ^ key_hi)
        # _avalanche64
        acc ^= acc >> 37
        acc *= _np.uint64(0x165667919E3779F9)
        acc ^= acc >> 32
        out.extend(acc.tolist())
    return out
