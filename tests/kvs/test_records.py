"""Record and record-store tests."""

import pytest

from repro.errors import KVSError
from repro.kvs.records import RECORD_HEADER_BYTES, RecordStore


@pytest.fixture
def store(ctx):
    return ctx.records


class TestCreate:
    def test_layout_is_contiguous(self, store):
        rec = store.create(b"k" * 24, 64)
        assert rec.total_size == RECORD_HEADER_BYTES + 24 + 64
        assert rec.value_va == rec.va + RECORD_HEADER_BYTES + 24

    def test_arbitrary_sizes_supported(self, store):
        # the capability HTA/SDC lack: records beyond one cache line
        big = store.create(b"k" * 100, 800)
        assert big.total_size > 64

    def test_empty_key_rejected(self, store):
        with pytest.raises(KVSError):
            store.create(b"", 64)

    def test_negative_value_rejected(self, store):
        with pytest.raises(KVSError):
            store.create(b"k", -1)

    def test_external_layout(self, store):
        rec = store.create_external(b"k" * 24, 64)
        assert rec.external_value_va is not None
        # the record allocation holds only header + key
        assert rec.total_size == RECORD_HEADER_BYTES + 24
        assert rec.value_va == rec.external_value_va

    def test_records_registered_by_va(self, store):
        rec = store.create(b"kk", 8)
        assert store.by_va[rec.va] is rec


class TestDestroyMove:
    def test_destroy_frees(self, store):
        rec = store.create(b"kk", 8)
        store.destroy(rec)
        assert rec.va not in store.by_va
        with pytest.raises(KVSError):
            store.destroy(rec)

    def test_destroy_external_frees_both(self, store):
        live_before = store.alloc.objects_live
        rec = store.create_external(b"kk", 64)
        store.destroy(rec)
        assert store.alloc.objects_live == live_before

    def test_move_changes_va(self, store):
        rec = store.create(b"kk", 8)
        old_va = rec.va
        returned = store.move(rec)
        assert returned == old_va
        assert rec.va != old_va
        assert rec.moves == 1
        assert store.by_va[rec.va] is rec

    def test_move_grows_value(self, store):
        rec = store.create(b"kk", 8)
        store.move(rec, new_value_size=256)
        assert rec.value_size == 256


class TestTimedAccess:
    def test_compare_reads_header_and_key(self, ctx):
        rec = ctx.records.create(b"k" * 24, 64)
        before = ctx.mem.stats.accesses
        ctx.records.access_for_compare(rec)
        assert ctx.mem.stats.accesses == before + 1

    def test_value_read_spans_lines(self, ctx):
        rec = ctx.records.create(b"k" * 24, 256)
        res_cycles = ctx.records.access_value(rec)
        assert res_cycles > 0

    def test_zero_value_read_free(self, ctx):
        rec = ctx.records.create(b"k", 0)
        rec.value_size = 0
        assert ctx.records.access_value(rec) == 0
