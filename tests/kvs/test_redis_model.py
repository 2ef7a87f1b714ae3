"""Redis server model tests."""

import pytest

from repro.errors import KVSError
from repro.kvs.base import SimContext
from repro.kvs.redis_model import RedisModel
from repro.workloads.keys import key_bytes


@pytest.fixture
def redis(redis_ctx):
    return RedisModel(redis_ctx, expected_keys=256)


class TestConstruction:
    def test_requires_siphash(self, ctx):
        # ctx uses murmur; Redis's dict is keyed by SipHash
        with pytest.raises(KVSError):
            RedisModel(ctx, expected_keys=16)

    def test_dict_does_not_cache_hashes(self, redis):
        assert redis.index.cache_node_hash is False


class TestCommands:
    def test_populate_and_lookup(self, redis):
        rec, = redis.populate([key_bytes(1)], 64)
        assert redis.index.lookup(key_bytes(1)) is rec

    def test_values_are_external_allocations(self, redis):
        rec, = redis.populate([key_bytes(2)], 64)
        assert rec.external_value_va is not None

    def test_begin_command_charges_overhead(self, redis, redis_ctx):
        before = redis_ctx.mem.now
        redis.begin_command()
        assert redis_ctx.mem.now > before
        assert redis_ctx.mem.attr.get("command", 0) > 0

    def test_end_command_writes_reply(self, redis, redis_ctx):
        before = redis_ctx.mem.stats.writes
        redis.end_command(64)
        assert redis_ctx.mem.stats.writes == before + 1

    def test_insert_new_is_timed(self, redis, redis_ctx):
        before = redis_ctx.mem.stats.accesses
        rec = redis.insert_new(key_bytes(3), 64)
        assert redis_ctx.mem.stats.accesses > before
        assert redis.index.lookup(key_bytes(3)) is rec

    def test_query_buffer_stays_hot(self, redis, redis_ctx):
        # the command cursor wraps around an 8 KiB window: once warm,
        # framing traffic hits the caches rather than generating
        # unbounded unique lines
        for _ in range(200):  # warm one full wrap of the window
            redis.begin_command()
            redis.end_command(64)
        snap = redis_ctx.mem.stats.snapshot()
        for _ in range(200):
            redis.begin_command()
            redis.end_command(64)
        delta = redis_ctx.mem.stats.delta(snap)
        assert delta.l1_misses == 0
