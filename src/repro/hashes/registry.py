"""Registry of hash functions with their cycle-cost models (Table IV).

The simulator charges ``base_cycles + per_byte_cycles * len(key)`` for
each hash invocation.  The constants are calibrated so the relative costs
preserve published measurements: SipHash-2-4 runs at roughly 2.5-3
cycles/byte on short inputs with a sizable finalisation cost, Murmur and
XXH64 under 1 cycle/byte, XXH3 the fastest on short keys, and djb2 cheap
per byte but strictly serial.  For the paper's 24-byte keys this yields
the ordering the Fig. 18 experiment requires (sipHash slowest, xxh3
fastest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigError
from .djb2 import djb2
from .murmur import murmur64a, murmur64a_many
from .siphash import HAVE_NUMPY, siphash24, siphash24_many
from .xxhash import xxh3_64, xxh3_64_many, xxh64

#: below this many unseen keys of one length the numpy set-up costs
#: more than the scalar calls it replaces
_BULK_MIN_KEYS = 64


@dataclass
class HashSpec:
    """One registered hash function and its timing model.

    Calls are memoised: the functions are pure, and the simulator hashes
    the same 24-byte keys millions of times, so the cache changes nothing
    functionally while keeping the pure-Python hot loop fast.  The *cost*
    of each simulated invocation is still charged by the caller through
    :meth:`cost_cycles`.

    ``bulk``, when set, is a vectorised twin of ``func`` over
    equal-length keys; :meth:`prime` uses it to fill the memo for a
    whole key set at once.
    """

    name: str
    func: Callable[[bytes], int]
    base_cycles: int
    per_byte_cycles: float
    description: str
    bulk: Optional[Callable[[Sequence[bytes]], List[int]]] = None

    def __post_init__(self) -> None:
        self._cache: Dict[bytes, int] = {}

    def cost_cycles(self, length: int) -> int:
        return int(self.base_cycles + self.per_byte_cycles * length)

    def __call__(self, data: bytes) -> int:
        value = self._cache.get(data)
        if value is None:
            value = self.func(data)
            self._cache[data] = value
        return value

    def prime(self, keys: Iterable[bytes]) -> Dict[bytes, int]:
        """Fill the memo for every key in ``keys`` not in it yet; returns
        the memo, so a caller can read every key's hash without a call.

        Unseen keys are grouped by length.  A group goes through
        ``bulk`` when the hash has one, numpy is present and the group
        is large enough; otherwise through ``func``, key by key.  Either
        way the memo ends up as the scalar calls would leave it.
        """
        cache = self._cache
        groups: Dict[int, List[bytes]] = {}
        for key in keys:
            if key not in cache:
                groups.setdefault(len(key), []).append(key)
        for group in groups.values():
            if (self.bulk is not None and HAVE_NUMPY
                    and len(group) >= _BULK_MIN_KEYS):
                cache.update(zip(group, self.bulk(group)))
            else:
                func = self.func
                for key in group:
                    if key not in cache:
                        cache[key] = func(key)
        return cache


HASH_FUNCTIONS: Dict[str, HashSpec] = {
    spec.name: spec
    for spec in (
        HashSpec(
            "siphash",
            siphash24,
            base_cycles=36,
            per_byte_cycles=2.6,
            description="default hash function of Redis, Python, and Rust",
            bulk=siphash24_many,
        ),
        HashSpec(
            "murmur",
            murmur64a,
            base_cycles=12,
            per_byte_cycles=0.8,
            description="default of kernel benchmarks, C++ and Java",
            bulk=murmur64a_many,
        ),
        HashSpec(
            "xxh64",
            xxh64,
            base_cycles=11,
            per_byte_cycles=0.65,
            description="64-bit xxh fast non-cryptographic hash",
        ),
        HashSpec(
            "djb2",
            djb2,
            base_cycles=4,
            per_byte_cycles=1.1,
            description="hash function specific for strings",
        ),
        HashSpec(
            "xxh3",
            xxh3_64,
            base_cycles=9,
            per_byte_cycles=0.35,
            description="variation of xxh64; STLT fast-path default",
            bulk=xxh3_64_many,
        ),
        HashSpec(
            "hw_hash",
            xxh3_64,
            base_cycles=3,
            per_byte_cycles=0.0,
            description=(
                "Section III-B extension: a hardware hash unit computing "
                "the fast-path hash at fixed latency (gains performance "
                "at the expense of flexibility)"
            ),
            bulk=xxh3_64_many,
        ),
    )
}


def get_hash(name: str) -> HashSpec:
    """Look up a registered hash function by its Table IV name."""
    try:
        return HASH_FUNCTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown hash function {name!r}; known: {sorted(HASH_FUNCTIONS)}"
        ) from None


def hash_cost_cycles(name: str, length: int) -> int:
    """Cycle cost of hashing ``length`` bytes with function ``name``."""
    return get_hash(name).cost_cycles(length)
