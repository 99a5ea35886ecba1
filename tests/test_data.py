"""Unit tests for the synthetic Avazu data substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.avazu_reference import ReferenceSyntheticAvazu

from repro.data import (
    AVAZU_FIELDS,
    DeviceDataset,
    HashingEncoder,
    SyntheticAvazu,
    label_skew_device_biases,
    make_federated_ctr_data,
)
from repro.data import avazu
from repro.data.partition import assign_delay_profiles


def assert_same_dataset(new, ref):
    """Ids and order, values and dtypes of every shard, test shard, biases."""
    assert list(new.devices) == list(ref.devices)
    for got, want in [*zip(new.devices.values(), ref.devices.values()), (new.test, ref.test)]:
        assert got.device_id == want.device_id
        assert got.features.dtype == want.features.dtype == np.int32
        assert got.labels.dtype == want.labels.dtype == np.int8
        assert got.features.shape == want.features.shape
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
    assert new.device_biases == ref.device_biases
    assert list(new.device_biases) == list(ref.device_biases)
    assert new.n_records == ref.n_records
    assert new.feature_dim == ref.feature_dim


def dataset_digest(data) -> str:
    digest = hashlib.sha256()
    for shard in [*data.devices.values(), data.test]:
        digest.update(shard.device_id.encode())
        digest.update(shard.features.tobytes())
        digest.update(shard.labels.tobytes())
    digest.update(np.array(list(data.device_biases.values())).tobytes())
    return digest.hexdigest()


#: ``dataset_digest`` of (n_devices=12, records_per_device=9, feature_dim=256,
#: seed=7, test_records=50), taken from the per-device generator.
PINNED_DIGEST = "d1681941df6a63b5724d0e96fbfeea9a98bc0a058e63597a25132956e105c791"


class TestHashingEncoder:
    def test_index_in_range(self):
        encoder = HashingEncoder(dim=64, fields=["a", "b"])
        for value in ["x", "y", "longer-value"]:
            assert 0 <= encoder.index_of("a", value) < 64

    def test_deterministic_across_instances(self):
        one = HashingEncoder(dim=1024, fields=["f"])
        two = HashingEncoder(dim=1024, fields=["f"])
        assert one.index_of("f", "hello") == two.index_of("f", "hello")

    def test_field_name_participates_in_hash(self):
        encoder = HashingEncoder(dim=2**20, fields=["a", "b"])
        assert encoder.index_of("a", "v") != encoder.index_of("b", "v")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HashingEncoder(dim=0, fields=["a"])
        with pytest.raises(ValueError):
            HashingEncoder(dim=8, fields=[])

    def test_vocabulary_indices(self):
        encoder = HashingEncoder(dim=256, fields=["a"])
        vocab = encoder.vocabulary_indices("a", 10)
        assert vocab.shape == (10,)
        assert vocab[3] == encoder.index_of("a", "3")


class TestDeviceDataset:
    def test_basic_properties(self):
        features = np.zeros((5, 3), dtype=np.int32)
        labels = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        shard = DeviceDataset("dev-0", features, labels)
        assert len(shard) == 5
        assert shard.n_samples == 5
        assert shard.positive_rate == pytest.approx(0.6)
        assert shard.nbytes() > 0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            DeviceDataset("d", np.zeros((3, 2), dtype=np.int32), np.zeros(4, dtype=np.int8))

    def test_one_dim_features_rejected(self):
        with pytest.raises(ValueError):
            DeviceDataset("d", np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int8))


class TestSyntheticAvazu:
    def test_shapes_and_determinism(self):
        data_a = SyntheticAvazu(n_devices=10, records_per_device=15, feature_dim=512, seed=3).generate()
        data_b = SyntheticAvazu(n_devices=10, records_per_device=15, feature_dim=512, seed=3).generate()
        assert data_a.n_devices == 10
        for device_id in data_a.device_ids():
            shard_a = data_a.shard(device_id)
            shard_b = data_b.shard(device_id)
            assert np.array_equal(shard_a.features, shard_b.features)
            assert np.array_equal(shard_a.labels, shard_b.labels)
        assert data_a.shard("dev-000000").features.shape[1] == len(AVAZU_FIELDS)

    def test_different_seeds_differ(self):
        data_a = SyntheticAvazu(n_devices=5, seed=1).generate()
        data_b = SyntheticAvazu(n_devices=5, seed=2).generate()
        same = all(
            np.array_equal(data_a.shard(d).labels, data_b.shard(d).labels)
            for d in data_a.device_ids()
        )
        assert not same

    def test_feature_indices_in_range(self):
        data = SyntheticAvazu(n_devices=8, feature_dim=256, seed=0).generate()
        for device_id in data.device_ids():
            features = data.shard(device_id).features
            assert features.min() >= 0
            assert features.max() < 256

    def test_base_ctr_roughly_respected(self):
        data = SyntheticAvazu(n_devices=200, records_per_device=50, base_ctr=0.2, seed=0).generate(
            device_biases=np.zeros(200)
        )
        labels = np.concatenate([data.shard(d).labels for d in data.device_ids()])
        # Planted weights add variance; the population CTR should stay in a
        # generous band around the intercept-implied rate.
        assert 0.08 < labels.mean() < 0.45

    def test_device_bias_shifts_ctr(self):
        n = 60
        biases = np.concatenate([np.full(n // 2, 3.0), np.full(n // 2, -3.0)])
        data = SyntheticAvazu(n_devices=n, records_per_device=60, seed=0).generate(
            device_biases=biases
        )
        rates = [data.shard(d).positive_rate for d in data.device_ids()]
        high = [r for d, r in zip(data.device_ids(), rates) if data.device_biases[d] > 0]
        low = [r for d, r in zip(data.device_ids(), rates) if data.device_biases[d] < 0]
        assert np.mean(high) > np.mean(low) + 0.3

    def test_bias_length_validated(self):
        generator = SyntheticAvazu(n_devices=4, seed=0)
        with pytest.raises(ValueError):
            generator.generate(device_biases=np.zeros(3))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticAvazu(n_devices=0)
        with pytest.raises(ValueError):
            SyntheticAvazu(records_per_device=1)
        with pytest.raises(ValueError):
            SyntheticAvazu(base_ctr=1.5)

    def test_subset_view(self):
        data = SyntheticAvazu(n_devices=6, seed=0).generate()
        ids = data.device_ids()[:2]
        view = data.subset(ids)
        assert view.n_devices == 2
        assert view.test is data.test


class TestColumnarMatchesReference:
    """The columnar generator against the per-device loop it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_devices=st.integers(1, 40),
        records_per_device=st.integers(2, 60),
        feature_dim=st.sampled_from([8, 64, 4096]),
        seed=st.integers(0, 2**31),
        skew=st.booleans(),
        explicit_biases=st.booleans(),
        test_records=st.sampled_from([0, 1, 2000]),
    )
    def test_generate_equals_reference(
        self, n_devices, records_per_device, feature_dim, seed, skew, explicit_biases, test_records
    ):
        params = {
            "n_devices": n_devices,
            "records_per_device": records_per_device,
            "feature_dim": feature_dim,
            "seed": seed,
        }
        biases = None
        if skew:
            biases = label_skew_device_biases(n_devices, seed=seed)
        elif explicit_biases:
            biases = np.linspace(-2.0, 2.0, n_devices)
        new = SyntheticAvazu(**params).generate(device_biases=biases, test_records=test_records)
        ref = ReferenceSyntheticAvazu(**params).generate(device_biases=biases, test_records=test_records)
        assert_same_dataset(new, ref)

    def test_helper_equals_reference_with_skew(self):
        skew = {"positive_fraction": 0.7, "spread": 2.5}
        new = make_federated_ctr_data(30, records_per_device=12, feature_dim=256, seed=4, skew=skew)
        ref = ReferenceSyntheticAvazu(
            n_devices=30, records_per_device=12, feature_dim=256, seed=4, base_ctr=0.17
        ).generate(device_biases=label_skew_device_biases(30, seed=4, **skew))
        assert_same_dataset(new, ref)

    @pytest.mark.parametrize("chunk_records", [1, 7, 25, 10**9])
    def test_chunk_boundaries_do_not_change_the_data(self, monkeypatch, chunk_records):
        n_devices = 25
        ref = ReferenceSyntheticAvazu(n_devices=n_devices, feature_dim=128, seed=11).generate()
        monkeypatch.setattr(avazu, "_CHUNK_RECORDS", chunk_records)
        new = SyntheticAvazu(n_devices=n_devices, feature_dim=128, seed=11).generate()
        assert_same_dataset(new, ref)

    def test_many_chunks_at_the_default_size(self):
        # ~8.6 chunks of device records (and a one-shard test run larger
        # than a chunk): the uniform buffer is never the whole task's.
        params = {"n_devices": 1400, "records_per_device": 200, "feature_dim": 512, "seed": 2}
        new = SyntheticAvazu(**params).generate(test_records=2 * avazu._CHUNK_RECORDS + 3)
        assert new.n_records > 8 * avazu._CHUNK_RECORDS
        ref = ReferenceSyntheticAvazu(**params).generate(test_records=2 * avazu._CHUNK_RECORDS + 3)
        assert_same_dataset(new, ref)

    def test_pinned_stream_digest(self):
        # A change to the random-stream layout must be deliberate: it moves
        # every report digest and paper figure.  Update only with the
        # docstring of repro/data/avazu.py and the ledger pins.
        params = {"n_devices": 12, "records_per_device": 9, "feature_dim": 256, "seed": 7}
        for generator in (SyntheticAvazu, ReferenceSyntheticAvazu):
            assert dataset_digest(generator(**params).generate(test_records=50)) == PINNED_DIGEST


class TestSharedBuffers:
    def test_shards_are_read_only_views_of_one_matrix(self):
        data = SyntheticAvazu(n_devices=6, seed=0).generate()
        shards = list(data.devices.values())
        base = shards[0].features.base
        assert base is not None and base.shape == (data.n_records, len(AVAZU_FIELDS))
        for shard in [*shards, data.test]:
            assert not shard.features.flags.writeable
            assert not shard.labels.flags.writeable
        assert all(shard.features.base is base for shard in shards)
        with pytest.raises(ValueError, match="read-only"):
            shards[0].features[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            shards[1].labels[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            data.test.features += 1

    def test_n_records_from_offsets_and_from_shards(self):
        data = SyntheticAvazu(n_devices=9, seed=3).generate()
        counted = sum(len(shard) for shard in data.devices.values())
        assert data.n_records == counted
        ids = data.device_ids()[:4]
        assert data.subset(ids).n_records == sum(len(data.shard(d)) for d in ids)

    def test_tables_are_built_lazily_and_shared(self):
        avazu._field_tables.cache_clear()
        one = SyntheticAvazu(n_devices=2, feature_dim=96, seed=0)
        two = SyntheticAvazu(n_devices=2, feature_dim=96, seed=1)
        assert avazu._field_tables.cache_info().currsize == 0
        one.generate()
        two.generate()
        info = avazu._field_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for cdf, buckets in avazu._field_tables(96):
            assert not cdf.flags.writeable and not buckets.flags.writeable


class TestPartitioners:
    def test_label_skew_split_fractions(self):
        biases = label_skew_device_biases(100, positive_fraction=0.7, spread=2.5, seed=1)
        assert (biases > 0).sum() == 70
        assert (biases < 0).sum() == 30

    def test_label_skew_shuffled(self):
        biases = label_skew_device_biases(50, positive_fraction=0.5, seed=1)
        # Not simply first half positive.
        assert not (biases[:25] > 0).all()

    def test_label_skew_validation(self):
        with pytest.raises(ValueError):
            label_skew_device_biases(10, positive_fraction=1.2)
        with pytest.raises(ValueError):
            label_skew_device_biases(10, spread=-1)

    def test_delay_profiles_monotone_in_ctr(self):
        biases = {f"d{i}": float(b) for i, b in enumerate(np.linspace(3, -3, 20))}
        delays = assign_delay_profiles(biases, sigma=1.0, max_delay=600.0, seed=0)
        ordered = [delays[f"d{i}"] for i in range(20)]
        assert ordered == sorted(ordered)
        assert max(ordered) <= 600.0
        assert min(ordered) >= 0.0

    def test_delay_profiles_sigma_orders_mass(self):
        biases = {f"d{i}": float(i) for i in range(400)}
        tight = assign_delay_profiles(biases, sigma=1.0, max_delay=1200.0, seed=0)
        wide = assign_delay_profiles(biases, sigma=3.0, max_delay=1200.0, seed=0)
        # Smaller sigma concentrates arrivals earlier: its median delay is
        # a smaller fraction of the max.
        assert np.median(list(tight.values())) < np.median(list(wide.values()))

    def test_delay_profiles_validation(self):
        with pytest.raises(ValueError):
            assign_delay_profiles({"a": 0.0}, sigma=0.0, max_delay=10.0, seed=0)
        with pytest.raises(ValueError):
            assign_delay_profiles({"a": 0.0}, sigma=1.0, max_delay=0.0, seed=0)


class TestMakeFederatedCtrData:
    def test_iid_helper(self):
        data = make_federated_ctr_data(12, records_per_device=10, feature_dim=256, seed=5)
        assert data.n_devices == 12
        assert data.feature_dim == 256

    def test_skew_helper_creates_bimodal_biases(self):
        data = make_federated_ctr_data(
            20, seed=5, skew={"positive_fraction": 0.7, "spread": 2.5}
        )
        biases = np.array([data.device_biases[d] for d in data.device_ids()])
        assert (biases > 0).sum() == 14
        assert (biases < 0).sum() == 6

    def test_partial_skew_keeps_the_other_default(self):
        data = make_federated_ctr_data(20, seed=5, skew={"positive_fraction": 0.5})
        biases = np.array(list(data.device_biases.values()))
        assert sorted(set(biases)) == [-2.5, 2.5]
        assert (biases > 0).sum() == 10

    def test_unknown_skew_key_rejected(self):
        with pytest.raises(ValueError, match="positive_fracton.*positive_fraction.*spread"):
            make_federated_ctr_data(20, seed=5, skew={"positive_fracton": 0.9})
