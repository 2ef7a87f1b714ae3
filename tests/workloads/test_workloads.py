"""Workload generation tests: keys, distributions, operation streams."""

import collections
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads import ycsb
from repro.workloads.distributions import (
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
    fnv64,
    make_chooser,
)
from repro.workloads.keys import KEY_BYTES, key_bytes, key_range
from repro.workloads.ycsb import Operation, WorkloadSpec, generate_operations


class TestKeys:
    def test_keys_are_24_bytes(self):
        for key_id in (0, 1, 999_999, 10**19):
            assert len(key_bytes(key_id)) == KEY_BYTES

    def test_keys_are_unique(self):
        keys = {key_bytes(i) for i in range(10_000)}
        assert len(keys) == 10_000

    def test_prefix(self):
        assert key_bytes(7).startswith(b"user")

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            key_bytes(-1)
        with pytest.raises(ConfigError):
            key_bytes(10**20)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 101, 12_345])
    def test_key_range_renders_key_bytes(self, n):
        assert key_range(n) == [key_bytes(i) for i in range(n)]

    @given(st.integers(0, 10**20 - 1))
    def test_key_bytes_is_the_zero_padded_decimal_over_every_id(self, key_id):
        # the str/zfill rendering every stored key was built with
        assert key_bytes(key_id) == b"user" + str(key_id).zfill(20).encode()

    def test_key_range_rejects_what_key_bytes_rejects(self):
        with pytest.raises(ConfigError) as range_error:
            key_range(10**20 + 1)
        with pytest.raises(ConfigError) as bytes_error:
            key_bytes(10**20)
        assert str(range_error.value) == str(bytes_error.value)
        assert key_range(-3) == []


class TestZipfian:
    def test_range(self):
        chooser = ZipfianChooser(1000, seed=1)
        for _ in range(5000):
            assert 0 <= chooser.choose() < 1000

    def test_skew(self):
        chooser = ZipfianChooser(10_000, seed=2)
        counts = collections.Counter(chooser.choose() for _ in range(50_000))
        top_share = sum(c for _, c in counts.most_common(100)) / 50_000
        # with alpha=0.99, the hottest 1% of keys get a large share
        assert top_share > 0.3

    def test_scrambling_spreads_hot_keys(self):
        chooser = ZipfianChooser(10_000, seed=3)
        hot = [k for k, _ in collections.Counter(
            chooser.choose() for _ in range(20_000)).most_common(10)]
        # scrambled zipfian: hot keys are NOT the low ids
        assert max(hot) > 100

    def test_deterministic_under_seed(self):
        a = ZipfianChooser(1000, seed=9)
        b = ZipfianChooser(1000, seed=9)
        assert [a.choose() for _ in range(100)] == \
            [b.choose() for _ in range(100)]

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            ZipfianChooser(100, alpha=1.5)

    def test_fnv64_is_stable(self):
        assert fnv64(0) == fnv64(0)
        assert fnv64(1) != fnv64(2)


class TestLatest:
    def test_prefers_new_keys(self):
        chooser = LatestChooser(10_000, seed=4)
        draws = [chooser.choose() for _ in range(20_000)]
        newest_share = sum(d >= 9_000 for d in draws) / len(draws)
        assert newest_share > 0.5

    def test_insert_shifts_hotspot(self):
        chooser = LatestChooser(100, seed=5)
        for new_id in range(100, 200):
            chooser.observe_insert(new_id)
        draws = [chooser.choose() for _ in range(5000)]
        assert max(draws) >= 190
        assert all(0 <= d < 200 for d in draws)

    def test_dense_insert_order_enforced(self):
        chooser = LatestChooser(10)
        with pytest.raises(ConfigError):
            chooser.observe_insert(15)


class TestUniform:
    def test_roughly_even(self):
        chooser = UniformChooser(100, seed=6)
        counts = collections.Counter(chooser.choose() for _ in range(50_000))
        assert min(counts.values()) > 300
        assert max(counts.values()) < 800

    def test_make_chooser(self):
        assert isinstance(make_chooser("uniform", 10), UniformChooser)
        assert isinstance(make_chooser("zipf", 10), ZipfianChooser)
        assert isinstance(make_chooser("latest", 10), LatestChooser)
        with pytest.raises(ConfigError):
            make_chooser("pareto", 10)


class TestWorkloadSpec:
    def test_latest_defaults_to_5_percent_sets(self):
        assert WorkloadSpec(distribution="latest").set_fraction == 0.05

    def test_other_distributions_are_get_only(self):
        assert WorkloadSpec(distribution="zipf").set_fraction == 0.0
        assert WorkloadSpec(distribution="uniform").set_fraction == 0.0

    def test_invalid_value_size(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(value_size=0)

    def test_label(self):
        assert WorkloadSpec("zipf", 128).label == "zipf-128B"


class TestOperationStream:
    def test_get_only_stream(self):
        spec = WorkloadSpec("zipf", 64)
        ops = list(generate_operations(spec, 100, 500, seed=1))
        assert len(ops) == 500
        assert all(op is Operation.GET for op, _ in ops)
        assert all(0 <= key_id < 100 for _, key_id in ops)

    def test_latest_stream_inserts_fresh_dense_ids(self):
        spec = WorkloadSpec("latest", 64)
        ops = list(generate_operations(spec, 100, 2000, seed=2))
        sets = [key_id for op, key_id in ops if op is Operation.SET]
        assert sets == list(range(100, 100 + len(sets)))
        share = len(sets) / len(ops)
        assert 0.03 < share < 0.07

    def test_gets_can_reach_inserted_keys(self):
        spec = WorkloadSpec("latest", 64)
        ops = list(generate_operations(spec, 50, 4000, seed=3))
        max_set = max((k for op, k in ops if op is Operation.SET), default=0)
        max_get = max(k for op, k in ops if op is Operation.GET)
        assert max_get > 50  # GETs reach beyond the initial keyspace
        assert max_get <= max_set

    def test_deterministic(self):
        spec = WorkloadSpec("latest", 64)
        a = list(generate_operations(spec, 100, 300, seed=9))
        b = list(generate_operations(spec, 100, 300, seed=9))
        assert a == b


class TestStridedStreams:
    """Per-core fresh-key namespaces (multi-core engine, PR 2)."""

    def _fresh_ids(self, core_id, num_cores, seed=7):
        spec = WorkloadSpec(distribution="latest")
        ops = generate_operations(
            spec, 100, 400, seed=seed,
            first_new_id=100 + core_id, new_id_stride=num_cores)
        return [key_id for op, key_id in ops if op is Operation.SET]

    def test_default_namespace_is_identity(self):
        spec = WorkloadSpec(distribution="latest")
        explicit = list(generate_operations(
            spec, 100, 400, seed=3, first_new_id=100, new_id_stride=1))
        implicit = list(generate_operations(spec, 100, 400, seed=3))
        assert explicit == implicit

    def test_cores_never_collide_on_fresh_keys(self):
        num_cores = 4
        all_ids = []
        for core_id in range(num_cores):
            ids = self._fresh_ids(core_id, num_cores, seed=7 + core_id)
            assert all(i >= 100 for i in ids)
            assert all((i - 100) % num_cores == core_id for i in ids)
            all_ids.extend(ids)
        assert len(all_ids) == len(set(all_ids))

    def test_strided_gets_stay_inside_the_streams_namespace(self):
        spec = WorkloadSpec(distribution="latest")
        ops = list(generate_operations(
            spec, 50, 600, seed=11, first_new_id=51, new_id_stride=3))
        fresh = {k for op, k in ops if op is Operation.SET}
        for op, key_id in ops:
            if op is Operation.GET and key_id >= 50:
                # a GET of a fresh key must target a key this stream
                # actually inserted, never a sibling stream's
                assert key_id in fresh

    def test_stride_must_be_positive(self):
        spec = WorkloadSpec(distribution="latest")
        with pytest.raises(ConfigError):
            list(generate_operations(spec, 10, 5, new_id_stride=0))


class ReferenceChooser:
    """YCSB's per-draw formulas, the reference for the choosers' cached
    constants: ``alpha`` and ``eta`` recomputed on every draw, and the
    zipf scramble ``fnv64(rank) % n`` hashed on every draw."""

    def __init__(self, name: str, num_keys: int, seed: int = 1,
                 alpha: float = 0.99) -> None:
        self.name = name
        self.num_keys = num_keys
        self.rng = random.Random(seed)
        self.theta = alpha
        self.n = 0
        self.zetan = 0.0
        self.zeta2 = 1.0 + 0.5 ** alpha
        self._grow()

    def _grow(self) -> None:
        while self.n < self.num_keys:
            self.n += 1
            self.zetan += 1.0 / (self.n ** self.theta)

    def _rank(self) -> int:
        theta = self.theta
        alpha = 1.0 / (1.0 - theta)
        eta = (1.0 - (2.0 / self.n) ** (1.0 - theta)) / (
            1.0 - self.zeta2 / self.zetan)
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.n * ((eta * u - eta + 1.0) ** alpha))

    def choose(self) -> int:
        if self.name == "uniform":
            return self.rng.randrange(self.num_keys)
        if self.name == "zipf":
            return fnv64(self._rank()) % self.num_keys
        return (self.num_keys - 1) - self._rank()

    def observe_insert(self, new_key_id: int) -> None:
        assert new_key_id == self.num_keys
        self.num_keys += 1
        self._grow()


#: a chooser script: True inserts the next key, False draws one
scripts = st.lists(st.integers(0, 7).map(lambda x: x == 0), max_size=400)


def outcome(draw):
    """``draw()``'s value, or the type of what it raised: at ``n = 2``
    YCSB's ``eta`` can divide by zero, and the reference raises there
    too."""
    try:
        return draw()
    except ZeroDivisionError as exc:
        return type(exc)


def collect(ops):
    """Every operation of a stream, then what ended it early if
    anything did."""
    out = []
    try:
        out.extend(ops)
    except ZeroDivisionError as exc:
        out.append(type(exc))
    return out


class TestChoosersMatchTheReference:
    """The cached ``eta`` and the scramble memo change no draw, also
    while ``observe_insert`` grows the keyspace between draws."""

    @pytest.mark.parametrize("cls,name", [(ZipfianChooser, "zipf"),
                                          (LatestChooser, "latest")])
    @settings(max_examples=80, deadline=None)
    @given(num_keys=st.integers(1, 3000), seed=st.integers(0, 2**32),
           alpha=st.floats(0.01, 0.999), script=scripts)
    def test_draws_are_identical(self, cls, name, num_keys, seed, alpha,
                                 script):
        chooser = cls(num_keys, seed=seed, alpha=alpha)
        reference = ReferenceChooser(name, num_keys, seed=seed, alpha=alpha)
        for insert in script:
            if insert:
                chooser.observe_insert(chooser.num_keys)
                reference.observe_insert(reference.num_keys)
            else:
                assert outcome(chooser.choose) == outcome(reference.choose)

    @pytest.mark.parametrize("distribution", ["zipf", "latest", "uniform"])
    @settings(max_examples=40, deadline=None)
    @given(num_keys=st.integers(1, 2000), num_ops=st.integers(0, 600),
           seed=st.integers(0, 2**32),
           set_fraction=st.sampled_from([None, 0.1]),
           cores=st.integers(1, 4), data=st.data())
    def test_streams_are_identical(self, distribution, num_keys, num_ops,
                                   seed, set_fraction, cores, data):
        core = data.draw(st.integers(0, cores - 1))
        spec = WorkloadSpec(distribution, 64, set_fraction=set_fraction)
        # one core's stream of a multi-core run: a strided namespace of
        # fresh ids (cores=1 is the single-stream default)
        args = (spec, num_keys, num_ops, seed, num_keys + core, cores)
        stream = collect(generate_operations(*args))
        with mock.patch.object(ycsb, "make_chooser", ReferenceChooser):
            reference = collect(generate_operations(*args))
        assert stream == reference
