"""YCSB-style key construction.

The paper's workloads use 24-byte keys; YCSB builds keys as ``user``
followed by a (hashed) sequence number.  ``key_bytes`` renders exactly 24
bytes: the 4-byte prefix and a 20-digit zero-padded decimal.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError

KEY_BYTES = 24
_PREFIX = b"user"
_DIGITS = KEY_BYTES - len(_PREFIX)
_MAX_ID = 10 ** _DIGITS - 1
_FORMAT = _PREFIX + b"%%0%dd" % _DIGITS


def key_bytes(key_id: int) -> bytes:
    """Render key number ``key_id`` as its 24-byte YCSB key."""
    if not 0 <= key_id <= _MAX_ID:
        raise ConfigError(f"key id {key_id} out of range")
    return _FORMAT % key_id


def key_range(n: int) -> List[bytes]:
    """The keys of ids ``0 .. n-1``: ``[key_bytes(i) for i in range(n)]``,
    rendered in one pass."""
    if n - 1 > _MAX_ID:
        raise ConfigError(f"key id {n - 1} out of range")
    return [_FORMAT % key_id for key_id in range(n)]
