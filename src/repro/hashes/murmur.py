"""MurmurHash64A (Appleby), the default hash of the kernel benchmarks.

Table IV lists murmurHash as the default hash function of the four
non-Redis benchmarks (and of C++/Java standard libraries).  This is the
classic 64-bit variant for x64.

:func:`murmur64a` is the scalar reference.  :func:`murmur64a_many` is a
numpy kernel that hashes many equal-length messages at once, one message
per uint64 lane, in the pattern of the SipHash and XXH3 kernels.  numpy
is optional: :meth:`repro.hashes.registry.HashSpec.prime` calls the
kernel only when it imports.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

_MASK = (1 << 64) - 1
_M = 0xC6A4A7935BD1E995
_R = 47

#: messages per numpy pass, so each of the kernel's uint64 arrays stays
#: at 32 KiB however many keys a caller hands over
_CHUNK = 4096


def murmur64a(data: bytes, seed: int = 0) -> int:
    """MurmurHash64A of ``data``; returns u64."""
    n = len(data)
    h = (seed ^ ((n * _M) & _MASK)) & _MASK

    end = n - (n % 8)
    for off in range(0, end, 8):
        (k,) = struct.unpack_from("<Q", data, off)
        k = (k * _M) & _MASK
        k ^= k >> _R
        k = (k * _M) & _MASK
        h ^= k
        h = (h * _M) & _MASK

    tail = data[end:]
    if tail:
        m = 0
        for i, byte in enumerate(tail):
            m |= byte << (8 * i)
        h ^= m
        h = (h * _M) & _MASK

    h ^= h >> _R
    h = (h * _M) & _MASK
    h ^= h >> _R
    return h


def murmur64a_many(messages: Sequence[bytes], seed: int = 0) -> List[int]:
    """MurmurHash64A of equal-length ``messages``; equals
    ``[murmur64a(m, seed) for m in messages]``.  Requires numpy."""
    if not messages:
        return []
    n = len(messages[0])
    if any(len(m) != n for m in messages):
        raise ValueError("murmur64a_many needs equal-length messages")
    words, tail = divmod(n, 8)
    m = _np.uint64(_M)
    h0 = _np.uint64((seed ^ ((n * _M) & _MASK)) & _MASK)
    out: List[int] = []
    for start in range(0, len(messages), _CHUNK):
        chunk = messages[start:start + _CHUNK]
        lanes = len(chunk)
        # each message zero-padded to whole words: the last word of a
        # message with a tail is the scalar's little-endian tail value
        padded = _np.zeros((lanes, (words + (tail > 0)) * 8),
                           dtype=_np.uint8)
        if n:
            padded[:, :n] = _np.frombuffer(
                b"".join(chunk), dtype=_np.uint8).reshape(lanes, n)
        w = padded.view("<u8").astype(_np.uint64)
        h = _np.full(lanes, h0, dtype=_np.uint64)
        for i in range(words):
            k = w[:, i] * m
            k ^= k >> _R
            k *= m
            h ^= k
            h *= m
        if tail:
            h ^= w[:, words]
            h *= m
        h ^= h >> _R
        h *= m
        h ^= h >> _R
        out.extend(h.tolist())
    return out
