"""Key-choice distributions, implemented per the YCSB generators.

* :class:`ZipfianChooser` — Gray et al.'s rejection-free zipfian sampler
  as used by YCSB (alpha = 0.99 in the paper), *scrambled* by hashing the
  rank so popular keys spread across the keyspace instead of clustering
  at low ids.
* :class:`LatestChooser` — YCSB's skewed-latest generator: the zipfian
  distribution applied to recency, so the most recently inserted keys
  are the hottest.  Supports a growing keyspace (incremental zeta).
* :class:`UniformChooser` — every key equally likely.

Every chooser draws in bulk (:meth:`KeyChooser.choose_many`); a bulk
draw returns exactly the ids that as many single draws would.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1
#: ``_FNV_PRIME ** k mod 2**64``: a zero byte's xor changes nothing, so
#: the multiplies of k trailing zero bytes fold into one
_PRIME_POWERS = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))


def fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's hash)."""
    value &= _MASK
    h = _FNV_OFFSET
    zero_bytes = 8
    while value:
        h = ((h ^ (value & 0xFF)) * _FNV_PRIME) & _MASK
        value >>= 8
        zero_bytes -= 1
    return (h * _PRIME_POWERS[zero_bytes]) & _MASK


#: rank -> fnv64(rank) for every rank a zipf chooser in this process has
#: drawn.  fnv64 is a pure function, so an entry left by an earlier run
#: is the value this run would compute: no draw depends on what ran
#: before.  Ranks stay below the keyspace, which bounds it.
_SCRAMBLED: Dict[int, int] = {}

#: (theta, n) -> the zeta sum a chooser over n keys starts from
_ZETA: Dict[Tuple[float, int], float] = {}


def _zeta(n: int, theta: float) -> float:
    """``1/1**theta + ... + 1/n**theta``, accumulated left to right.

    That is the float a chooser grown one key at a time reaches, so the
    memo is exact.  Never ``sum()`` (which compensates float sums from
    Python 3.12) or ``math.fsum``: both round differently.
    """
    zeta = _ZETA.get((theta, n))
    if zeta is None:
        zeta = 0.0
        for i in range(1, n + 1):
            zeta += 1.0 / (i ** theta)
        _ZETA[(theta, n)] = zeta
    return zeta


class KeyChooser(abc.ABC):
    """Draws key ids in [0, num_keys)."""

    def __init__(self, num_keys: int, seed: int = 1) -> None:
        if num_keys <= 0:
            raise ConfigError("need at least one key")
        self.num_keys = num_keys
        self.rng = random.Random(seed)

    @abc.abstractmethod
    def choose_many(self, count: int) -> List[int]:
        """Draw the next ``count`` key ids, in order, in one pass."""

    def choose(self) -> int:
        """Draw the next key id."""
        return self.choose_many(1)[0]

    def observe_insert(self, new_key_id: int) -> None:
        """Notify the chooser that a fresh key entered the store."""
        if new_key_id != self.num_keys:
            raise ConfigError("keys must be inserted densely in id order")
        self.num_keys += 1


class UniformChooser(KeyChooser):
    """Uniform key choice."""

    name = "uniform"

    def choose_many(self, count: int) -> List[int]:
        randrange = self.rng.randrange
        num_keys = self.num_keys
        return [randrange(num_keys) for _ in range(count)]


class _ZipfRanks(KeyChooser):
    """YCSB's incremental zipfian sampler over ranks [0, num_keys).

    The paper's ``alpha`` is YCSB's ``theta``; YCSB's own ``alpha`` is
    ``1 / (1 - theta)``.  It and ``zeta2`` are computed once, and
    ``eta`` once per keyspace size, from the expressions YCSB evaluates
    per draw, so every float is the same.  ``eta`` waits for the first
    draw past rank 1: at n = 2 the first two branches take every ``u``
    and its denominator is 0 (YCSB's Java computes 0/0 = NaN there and
    never reads it).
    """

    def __init__(self, num_keys: int, seed: int = 1,
                 alpha: float = 0.99) -> None:
        super().__init__(num_keys, seed)
        if not 0.0 < alpha < 1.0:
            raise ConfigError("the YCSB sampler requires 0 < alpha < 1")
        self.theta = alpha
        self.zetan = _zeta(num_keys, alpha)
        self.zeta2 = 1.0 + 0.5 ** alpha
        self._alpha = 1.0 / (1.0 - alpha)
        self._eta: Optional[float] = None

    def observe_insert(self, new_key_id: int) -> None:
        super().observe_insert(new_key_id)
        self.zetan += 1.0 / (self.num_keys ** self.theta)
        self._eta = None

    def _ranks(self, count: int) -> List[int]:
        """The next ``count`` ranks: the one copy of the sampler math."""
        random_ = self.rng.random
        n = self.num_keys
        theta = self.theta
        zetan = self.zetan
        zeta2 = self.zeta2
        alpha = self._alpha
        eta = self._eta
        ranks: List[int] = []
        append = ranks.append
        for _ in range(count):
            u = random_()
            uz = u * zetan
            if uz < 1.0:
                append(0)
            elif uz < zeta2:
                append(1)
            else:
                if eta is None:
                    eta = self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                        1.0 - zeta2 / zetan)
                append(int(n * ((eta * u - eta + 1.0) ** alpha)))
        return ranks


class ZipfianChooser(_ZipfRanks):
    """Scrambled zipfian (YCSB default; alpha = 0.99 in the paper)."""

    name = "zipf"

    def choose_many(self, count: int) -> List[int]:
        ranks = self._ranks(count)
        scrambled = _SCRAMBLED
        for rank in set(ranks).difference(scrambled):
            scrambled[rank] = fnv64(rank)
        # modulo per call: observe_insert can grow the keyspace
        num_keys = self.num_keys
        return [scrambled[rank] % num_keys for rank in ranks]


class LatestChooser(_ZipfRanks):
    """Skewed-latest: zipfian over recency, hottest = newest."""

    name = "latest"

    def choose_many(self, count: int) -> List[int]:
        newest = self.num_keys - 1
        return [newest - rank for rank in self._ranks(count)]


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
