"""Key-choice distributions, implemented per the YCSB generators.

* :class:`ZipfianChooser` — Gray et al.'s rejection-free zipfian sampler
  as used by YCSB (alpha = 0.99 in the paper), *scrambled* by hashing the
  rank so popular keys spread across the keyspace instead of clustering
  at low ids.
* :class:`LatestChooser` — YCSB's skewed-latest generator: the zipfian
  distribution applied to recency, so the most recently inserted keys
  are the hottest.  Supports a growing keyspace (incremental zeta).
* :class:`UniformChooser` — every key equally likely.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Optional

from ..errors import ConfigError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's hash)."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & _MASK
        value >>= 8
    return h


class KeyChooser(abc.ABC):
    """Draws key ids in [0, num_keys)."""

    def __init__(self, num_keys: int, seed: int = 1) -> None:
        if num_keys <= 0:
            raise ConfigError("need at least one key")
        self.num_keys = num_keys
        self.rng = random.Random(seed)

    @abc.abstractmethod
    def choose(self) -> int:
        """Draw the next key id."""

    def observe_insert(self, new_key_id: int) -> None:
        """Notify the chooser that a fresh key entered the store."""
        if new_key_id != self.num_keys:
            raise ConfigError("keys must be inserted densely in id order")
        self.num_keys += 1


class UniformChooser(KeyChooser):
    """Uniform key choice."""

    name = "uniform"

    def choose(self) -> int:
        return self.rng.randrange(self.num_keys)


class _ZipfCore:
    """YCSB's incremental zipfian sampler over ranks [0, n).

    ``alpha`` is computed once and ``eta`` once per keyspace size (by
    the first draw after :meth:`_grow_to` clears it), from the
    expressions YCSB evaluates per draw, so every float is the same.
    ``eta`` waits for a draw because at ``n = 2`` its denominator can
    be exactly 0: that must fail a draw there, not an insert.
    """

    def __init__(self, n: int, theta: float) -> None:
        self.theta = theta
        self.n = 0
        self.zetan = 0.0
        self.zeta2 = (1.0 + 0.5 ** theta)
        self.alpha = 1.0 / (1.0 - theta)
        self._grow_to(n)

    def _grow_to(self, n: int) -> None:
        while self.n < n:
            self.n += 1
            self.zetan += 1.0 / (self.n ** self.theta)
        self.eta: Optional[float] = None

    def sample(self, rng: random.Random) -> int:
        eta = self.eta
        if eta is None:
            eta = self.eta = (1.0 - (2.0 / self.n) ** (1.0 - self.theta)) / (
                1.0 - self.zeta2 / self.zetan
            )
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.n * ((eta * u - eta + 1.0) ** self.alpha))


class ZipfianChooser(KeyChooser):
    """Scrambled zipfian (YCSB default; alpha = 0.99 in the paper)."""

    name = "zipf"

    def __init__(self, num_keys: int, seed: int = 1, alpha: float = 0.99) -> None:
        super().__init__(num_keys, seed)
        if not 0.0 < alpha < 1.0:
            raise ConfigError("the YCSB sampler requires 0 < alpha < 1")
        self.alpha = alpha
        self._core = _ZipfCore(num_keys, alpha)
        #: rank -> fnv64(rank); ranks stay below the keyspace size, so
        #: the memo is bounded by it
        self._scrambled: Dict[int, int] = {}

    def choose(self) -> int:
        rank = self._core.sample(self.rng)
        scrambled = self._scrambled.get(rank)
        if scrambled is None:
            scrambled = self._scrambled[rank] = fnv64(rank)
        # modulo per draw: observe_insert can grow the keyspace
        return scrambled % self.num_keys

    def observe_insert(self, new_key_id: int) -> None:
        super().observe_insert(new_key_id)
        self._core._grow_to(self.num_keys)


class LatestChooser(KeyChooser):
    """Skewed-latest: zipfian over recency, hottest = newest."""

    name = "latest"

    def __init__(self, num_keys: int, seed: int = 1, alpha: float = 0.99) -> None:
        super().__init__(num_keys, seed)
        self.alpha = alpha
        self._core = _ZipfCore(num_keys, alpha)

    def choose(self) -> int:
        rank = self._core.sample(self.rng)
        return (self.num_keys - 1) - rank

    def observe_insert(self, new_key_id: int) -> None:
        super().observe_insert(new_key_id)
        self._core._grow_to(self.num_keys)


DISTRIBUTIONS = {
    "zipf": ZipfianChooser,
    "latest": LatestChooser,
    "uniform": UniformChooser,
}


def make_chooser(name: str, num_keys: int, seed: int = 1) -> KeyChooser:
    try:
        cls = DISTRIBUTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown distribution {name!r}; known: {sorted(DISTRIBUTIONS)}"
        ) from None
    return cls(num_keys, seed=seed)
