"""The array-backed kernel helpers behind the batched execution mode.

Every helper in :mod:`repro.mem.kernels` has a numpy path and a pure
fallback that must compute the identical answer (one CI leg runs
without numpy at all), the structure views must *alias* live state
rather than snapshot it, and the state digests the mode drift guards
compare must be stable and content-sensitive.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.cache import Cache
from repro.params import CacheParams, TLBParams
from repro.mem.kernels import (
    HAVE_NUMPY,
    SetArrayView,
    _NUMPY_MIN_ROWS,
    matching_indices,
    occupancy_count,
    rows_in_pages,
    state_digest,
)
from repro.mem.tlb import TLB


def pure_matching(values, target):
    return [i for i, v in enumerate(values) if v == target]


def pure_rows_in_pages(vas, vpns, shift):
    return [i for i, va in enumerate(vas) if va and (va >> shift) in vpns]


class TestKernelHelpers:
    """numpy path == pure path, above and below the size threshold."""

    @given(st.lists(st.integers(0, 7), max_size=50),
           st.integers(0, 7))
    def test_matching_indices_small(self, values, target):
        assert matching_indices(values, target) == \
            pure_matching(values, target)

    def test_matching_indices_large(self):
        # above _NUMPY_MIN_ROWS the numpy path (when present) engages
        values = [(i * 37) % 11 for i in range(_NUMPY_MIN_ROWS + 100)]
        assert matching_indices(values, 3) == pure_matching(values, 3)

    @given(st.lists(st.integers(0, 1 << 16), max_size=40),
           st.sets(st.integers(0, 15), max_size=6))
    def test_rows_in_pages_small(self, vas, vpns):
        assert rows_in_pages(vas, vpns, 12) == \
            pure_rows_in_pages(vas, vpns, 12)

    def test_rows_in_pages_large(self):
        vas = [(i % 7) * 4096 for i in range(_NUMPY_MIN_ROWS + 50)]
        vpns = {1, 3, 5}
        assert rows_in_pages(vas, vpns, 12) == \
            pure_rows_in_pages(vas, vpns, 12)

    @given(st.lists(st.integers(0, 3), max_size=50))
    def test_occupancy_small(self, values):
        assert occupancy_count(values) == sum(1 for v in values if v)

    def test_occupancy_large(self):
        values = [i % 3 for i in range(_NUMPY_MIN_ROWS + 10)]
        assert occupancy_count(values) == sum(1 for v in values if v)

    def test_numpy_flag_reflects_import(self):
        # documents the matrix assumption: the helper module never
        # crashes for lack of numpy, it just reports it
        assert isinstance(HAVE_NUMPY, bool)


class TestFlattenSets:
    def test_residency_order_and_padding(self):
        cache = Cache(CacheParams("t", 4 * 64 * 2, 2, 1))
        cache.insert(0)  # set 0, oldest
        cache.insert(4)  # set 0, youngest
        cache.insert(1)  # set 1
        flat = cache.flat_state()
        assert len(flat) == cache._num_sets * 2
        assert flat[0:2] == [0, 4]     # oldest first
        assert flat[2:4] == [1, -1]    # padded with -1

    def test_flat_state_tracks_lru_updates(self):
        cache = Cache(CacheParams("t", 4 * 64 * 2, 2, 1))
        cache.insert(0)
        cache.insert(4)
        cache.lookup(0)  # 0 becomes the youngest
        assert cache.flat_state()[0:2] == [4, 0]

    def test_tlb_flat_state_is_lru_first_too(self):
        # TLB sets are dicts, not deques: the export order must agree
        tlb = TLB(TLBParams("t", 6, 2, 1))  # 3 sets
        tlb.insert(0, 5)
        tlb.insert(3, 6)
        tlb.lookup(0)  # 0 becomes the youngest
        assert tlb.flat_state() == [3, 0, -1, -1, -1, -1]


class TestSetArrayView:
    """Views alias live structures — never copies."""

    def test_cache_view_aliases_live_sets(self):
        cache = Cache(CacheParams("t", 64 * 64 * 4, 4, 3))
        view = cache.kernel_view()
        assert view.sets is cache._sets
        assert view.set_mask == cache._set_mask
        assert view.latency == 3
        cache.insert(17)
        s = view.sets[17 & view.set_mask]
        assert 17 in s

    def test_tlb_view_uses_modulo_indexing(self):
        tlb = TLB(TLBParams("t", 48, 4, 1))
        view = tlb.kernel_view()
        assert view.sets is tlb._sets
        assert view.set_mask == -1  # not power-of-two: modulo indexing
        assert view.num_sets == tlb._num_sets
        tlb.insert(100, 7)
        assert view.sets[100 % view.num_sets].get(100) == 7

    def test_view_is_plain_slots(self):
        view = SetArrayView([], 0, 0, 0, 0)
        with pytest.raises(AttributeError):
            view.extra = 1  # no __dict__: the kernel's hot object


class TestStateDigest:
    def test_stable_for_equal_content(self):
        a = state_digest(4, 2, [1, 2, 3], [0, 0, 1])
        b = state_digest(4, 2, [1, 2, 3], [0, 0, 1])
        assert a == b

    def test_sensitive_to_any_element(self):
        base = state_digest(4, 2, [1, 2, 3])
        assert state_digest(4, 2, [1, 2, 4]) != base
        assert state_digest(4, 3, [1, 2, 3]) != base
        assert state_digest(4, 2, [1, 2]) != base

    def test_boundary_is_not_ambiguous(self):
        # ";" separation: [1, 23] must not collide with [12, 3]
        assert state_digest([1, 23]) != state_digest([12, 3])
        assert state_digest([1], [2]) != state_digest([1, 2])

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy leg only")
    def test_numpy_arrays_digest_like_lists(self):
        import numpy as np
        assert state_digest(np.array([1, 2, 3])) == \
            state_digest([1, 2, 3])
