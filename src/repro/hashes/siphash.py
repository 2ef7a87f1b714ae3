"""SipHash-2-4 (Aumasson & Bernstein), the attack-resistant PRF.

SipHash is the default hash of Redis, Python and Rust (Section II of the
paper).  This is a bit-exact implementation of SipHash-2-4 with a 128-bit
key, verified against the reference vectors from the SipHash paper in
``tests/hashes/test_siphash.py``.

:func:`siphash24` is the scalar reference.  :func:`siphash24_many` is a
numpy kernel that hashes many equal-length messages at once, one message
per uint64 lane; numpy's uint64 arithmetic wraps mod 2**64 exactly like
the scalar's ``& _MASK``.  It needs numpy, which is optional: callers
check :data:`HAVE_NUMPY` (see :meth:`repro.hashes.registry.HashSpec.prime`).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

HAVE_NUMPY = _np is not None

_MASK = (1 << 64) - 1

#: messages per numpy pass, so each of the kernel's uint64 arrays stays
#: at 32 KiB however many keys a caller hands over
_CHUNK = 4096

#: Default key used when the caller does not supply one.  Real deployments
#: randomise the key at startup; the simulator keeps it fixed for
#: reproducibility (the value is the reference-vector key 000102...0f).
DEFAULT_KEY = bytes(range(16))


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _MASK


def _sipround(v0: int, v1: int, v2: int, v3: int):
    v0 = (v0 + v1) & _MASK
    v1 = _rotl(v1, 13)
    v1 ^= v0
    v0 = _rotl(v0, 32)
    v2 = (v2 + v3) & _MASK
    v3 = _rotl(v3, 16)
    v3 ^= v2
    v0 = (v0 + v3) & _MASK
    v3 = _rotl(v3, 21)
    v3 ^= v0
    v2 = (v2 + v1) & _MASK
    v1 = _rotl(v1, 17)
    v1 ^= v2
    v2 = _rotl(v2, 32)
    return v0, v1, v2, v3


def siphash24(data: bytes, key: bytes = DEFAULT_KEY) -> int:
    """SipHash-2-4 of ``data`` under a 16-byte ``key``; returns u64."""
    if len(key) != 16:
        raise ValueError("SipHash requires a 16-byte key")
    k0, k1 = struct.unpack("<QQ", key)
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    n = len(data)
    end = n - (n % 8)
    for off in range(0, end, 8):
        (m,) = struct.unpack_from("<Q", data, off)
        v3 ^= m
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0 ^= m

    tail = data[end:]
    m = (n & 0xFF) << 56
    for i, byte in enumerate(tail):
        m |= byte << (8 * i)
    v3 ^= m
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0 ^= m

    v2 ^= 0xFF
    for _ in range(4):
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    return (v0 ^ v1 ^ v2 ^ v3) & _MASK


def _sipround_lanes(v0, v1, v2, v3) -> None:
    """One SipRound over uint64 lane arrays, in place."""
    v0 += v1
    v1[:] = (v1 << 13) | (v1 >> 51)
    v1 ^= v0
    v0[:] = (v0 << 32) | (v0 >> 32)
    v2 += v3
    v3[:] = (v3 << 16) | (v3 >> 48)
    v3 ^= v2
    v0 += v3
    v3[:] = (v3 << 21) | (v3 >> 43)
    v3 ^= v0
    v2 += v1
    v1[:] = (v1 << 17) | (v1 >> 47)
    v1 ^= v2
    v2[:] = (v2 << 32) | (v2 >> 32)


def siphash24_many(messages: Sequence[bytes],
                   key: bytes = DEFAULT_KEY) -> List[int]:
    """SipHash-2-4 of equal-length ``messages``; equals
    ``[siphash24(m, key) for m in messages]``.  Requires numpy."""
    if len(key) != 16:
        raise ValueError("SipHash requires a 16-byte key")
    if not messages:
        return []
    n = len(messages[0])
    if any(len(m) != n for m in messages):
        raise ValueError("siphash24_many needs equal-length messages")
    k0, k1 = struct.unpack("<QQ", key)
    words = n // 8 + 1  # the last word carries the tail and the length
    out: List[int] = []
    for start in range(0, len(messages), _CHUNK):
        chunk = messages[start:start + _CHUNK]
        lanes = len(chunk)
        # each message padded to whole words: tail bytes, zeros, and
        # the length byte on top -- the scalar's final block, per lane
        padded = _np.zeros((lanes, words * 8), dtype=_np.uint8)
        if n:
            padded[:, :n] = _np.frombuffer(
                b"".join(chunk), dtype=_np.uint8).reshape(lanes, n)
        padded[:, -1] = n & 0xFF
        m = padded.view("<u8").astype(_np.uint64)
        v0 = _np.full(lanes, k0 ^ 0x736F6D6570736575, dtype=_np.uint64)
        v1 = _np.full(lanes, k1 ^ 0x646F72616E646F6D, dtype=_np.uint64)
        v2 = _np.full(lanes, k0 ^ 0x6C7967656E657261, dtype=_np.uint64)
        v3 = _np.full(lanes, k1 ^ 0x7465646279746573, dtype=_np.uint64)
        for i in range(words):
            word = m[:, i]
            v3 ^= word
            _sipround_lanes(v0, v1, v2, v3)
            _sipround_lanes(v0, v1, v2, v3)
            v0 ^= word
        v2 ^= _np.uint64(0xFF)
        for _ in range(4):
            _sipround_lanes(v0, v1, v2, v3)
        out.extend((v0 ^ v1 ^ v2 ^ v3).tolist())
    return out
