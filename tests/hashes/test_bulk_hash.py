"""The bulk memo fill (``HashSpec.prime``) and the numpy hash kernels.

``prime`` must leave the memo exactly as scalar calls key by key would,
whichever path it takes: the numpy kernel (forced on here regardless of
batch size) or the scalar function (forced off).  That holds for every
registered hash with a kernel: SipHash, MurmurHash64A, and XXH3 under
both of its names.  One CI leg runs without numpy, where the kernel
tests skip and the fallback still runs.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes import registry
from repro.hashes.murmur import murmur64a, murmur64a_many
from repro.hashes.registry import HashSpec
from repro.hashes.siphash import HAVE_NUMPY, siphash24, siphash24_many
from repro.hashes.xxhash import _CHUNK, xxh3_64, xxh3_64_many

from .test_siphash import REFERENCE_KEY, VECTORS

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

#: every registered hash that has a bulk kernel
BULK_HASHES = ("siphash", "murmur", "xxh3", "hw_hash")


def fresh(name: str = "siphash", **changes) -> HashSpec:
    """A copy of registered hash ``name`` with an empty memo (the
    registry's memo is shared by every caller in the process)."""
    return dataclasses.replace(registry.get_hash(name), **changes)


def scalar_memo(seeded, keys, name: str = "siphash") -> dict:
    """The memo that scalar calls leave: ``seeded`` first, then ``keys``."""
    spec = fresh(name)
    for key in list(seeded) + list(keys):
        spec(key)
    return spec._cache


key_lists = st.lists(
    st.one_of(st.binary(max_size=300),  # the empty key included
              # many keys of a few lengths, so groups fill up
              st.binary(min_size=24, max_size=24),
              st.binary(min_size=7, max_size=9)),
    max_size=40)


def check_prime(name, keys, seed_count) -> None:
    seeded = keys[:seed_count]
    spec = fresh(name)
    assert spec.bulk is not None
    for key in seeded:
        spec(key)
    spec.prime(keys + keys[::2])  # duplicates
    assert spec._cache == scalar_memo(seeded, keys, name)


class TestPrime:
    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(key_lists, st.integers(0, 10))
    def test_numpy_path_matches_scalar(self, keys, seed_count):
        with mock.patch.object(registry, "_BULK_MIN_KEYS", 1):
            for name in BULK_HASHES:
                check_prime(name, keys, seed_count)

    @settings(max_examples=60, deadline=None)
    @given(key_lists, st.integers(0, 10))
    def test_scalar_path_matches_scalar(self, keys, seed_count):
        with mock.patch.object(registry, "HAVE_NUMPY", False):
            for name in BULK_HASHES:
                check_prime(name, keys, seed_count)

    @needs_numpy
    def test_forced_on_goes_through_the_kernel(self):
        calls = []

        def counting(messages):
            calls.append(len(messages))
            return siphash24_many(messages)

        spec = fresh(bulk=counting)
        spec(b"abc")
        with mock.patch.object(registry, "_BULK_MIN_KEYS", 1):
            spec.prime([b"abc", b"xyz", b"xyz", b"hello world"])
        # one call per length group of unseen keys
        assert sorted(calls) == [1, 2]
        assert spec._cache == scalar_memo([b"abc"],
                                          [b"xyz", b"hello world"])

    def test_small_batches_stay_scalar(self):
        spec = fresh(bulk=mock.Mock(side_effect=AssertionError))
        keys = [bytes([i]) * 5 for i in range(registry._BULK_MIN_KEYS - 1)]
        spec.prime(keys)
        assert spec._cache == scalar_memo([], keys)

    def test_hash_without_kernel_fills_through_func(self):
        spec = HashSpec("murmur", murmur64a, base_cycles=12,
                        per_byte_cycles=0.8, description="test")
        keys = [b"user%020d" % i for i in range(200)]
        spec.prime(keys)
        assert spec._cache == {k: murmur64a(k) for k in keys}

    def test_empty_input(self):
        spec = fresh()
        spec.prime([])
        assert spec._cache == {}


@needs_numpy
class TestKernel:
    @pytest.mark.parametrize("length,expected", VECTORS)
    def test_reference_vectors(self, length, expected):
        message = bytes(range(length))
        assert siphash24_many([message] * 3, REFERENCE_KEY) == [expected] * 3

    def test_every_tail_length_across_chunks(self):
        for n in range(0, 33):
            msgs = [bytes((i * 7 + j) & 0xFF for j in range(n))
                    for i in range(5)]
            assert siphash24_many(msgs) == [siphash24(m) for m in msgs]
        msgs = [b"user%020d" % i for i in range(5000)]  # two chunks
        assert siphash24_many(msgs) == [siphash24(m) for m in msgs]

    def test_rejects_mixed_lengths_and_short_keys(self):
        with pytest.raises(ValueError):
            siphash24_many([b"ab", b"abc"])
        with pytest.raises(ValueError):
            siphash24_many([b"ab"], b"short")


@needs_numpy
class TestXXH3Kernel:
    """The kernel covers 17-128 bytes (``_len_17to128``); every other
    length must come back from the scalar, so all of 0-140 is checked."""

    @pytest.mark.parametrize("seed", [0, 1, 0x9E3779B97F4A7C15,
                                      (1 << 64) - 1])
    def test_every_length_matches_the_scalar(self, seed):
        for n in range(0, 141):
            msgs = [bytes((i * 31 + j * 7 + n) & 0xFF for j in range(n))
                    for i in range(5)]
            # all-ones words drive every limb carry of the 128-bit fold
            msgs.append(b"\xff" * n)
            assert xxh3_64_many(msgs, seed) == \
                [xxh3_64(m, seed) for m in msgs], n

    def test_batch_longer_than_one_chunk(self):
        msgs = [b"user%020d" % i for i in range(_CHUNK + 904)]
        assert xxh3_64_many(msgs, 7) == [xxh3_64(m, 7) for m in msgs]

    def test_empty_batch_and_mixed_lengths(self):
        assert xxh3_64_many([]) == []
        with pytest.raises(ValueError):
            xxh3_64_many([b"a" * 24, b"a" * 25])


@needs_numpy
class TestMurmurKernel:
    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
    def test_every_tail_length_matches_the_scalar(self, seed):
        # lengths 1-40 cover every tail length (0-7 bytes) over 0-5
        # whole words
        for n in range(1, 41):
            msgs = [bytes((i * 31 + j * 7 + n) & 0xFF for j in range(n))
                    for i in range(5)]
            msgs.append(b"\xff" * n)
            assert murmur64a_many(msgs, seed) == \
                [murmur64a(m, seed) for m in msgs], n

    def test_batch_longer_than_one_chunk(self):
        msgs = [b"user%020d" % i for i in range(5000)]
        assert murmur64a_many(msgs) == [murmur64a(m) for m in msgs]

    def test_empty_message_batch_and_mixed_lengths(self):
        assert murmur64a_many([b""] * 3) == [murmur64a(b"")] * 3
        assert murmur64a_many([]) == []
        with pytest.raises(ValueError):
            murmur64a_many([b"a" * 24, b"a" * 25])
