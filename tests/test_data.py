"""Datasets, CSV persistence, splitting, partitioning, transfer sets."""

import math

import numpy as np
import pytest

from kdsim.data import (
    LabeledDataset,
    PartitionPlan,
    TransferSet,
    _largest_remainder,
    alternating_betas,
    build_transfer_set,
    load_dataset,
    make_partition,
    partition_label_skew_chunks,
    partition_label_skew_dirichlet,
    partition_quantity_skew,
    partition_specialized,
    partition_uniform,
    save_dataset,
    split_train_val,
    validate_plan,
)
from kdsim.errors import ConfigError, DataError, ParseError, PartitionError
from kdsim.orchestrate import PartitionSpec, PoolSpec
from kdsim.toydata import gaussian_blobs


def _dataset(rng, n=200, dim=3, classes=5):
    feats = rng.normal(0, 1, size=(n, dim))
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return LabeledDataset(features=feats, labels=labels, class_count=classes)


# -- dataset basics ---------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64), class_count=2)
    with pytest.raises(DataError):
        LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), class_count=2)
    with pytest.raises(DataError):
        LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, -1]), class_count=2)
    with pytest.raises(DataError):
        LabeledDataset(features=np.zeros(4), labels=np.zeros(4, dtype=np.int64), class_count=2)


def test_subset_copies(rng):
    data = _dataset(rng)
    sub = data.subset(np.array([0, 1]))
    sub.features[0, 0] = 999.0
    assert data.features[0, 0] != 999.0


def test_class_counts(rng):
    data = _dataset(rng, n=50, classes=4)
    counts = data.class_counts()
    assert counts.sum() == 50
    for c in range(4):
        assert counts[c] == np.sum(data.labels == c)


def test_transfer_set_origin_label_consistency():
    feats = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        TransferSet(features=feats, labels=None, origin="student_data")
    with pytest.raises(ConfigError):
        TransferSet(features=feats, labels=np.zeros(3, dtype=np.int64), origin="public_unlabeled_small")
    with pytest.raises(ConfigError):
        TransferSet(features=feats, labels=None, origin="nonsense")
    ok = TransferSet(features=feats, labels=None, origin="public_unlabeled_large")
    assert not ok.labeled


# -- CSV persistence --------------------------------------------------------


def test_csv_round_trip_is_exact(rng, tmp_path):
    data = _dataset(rng, n=40, dim=4)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_dataset(data, first)
    loaded = load_dataset(first, class_count=data.class_count)
    assert np.array_equal(loaded.features, data.features)
    assert np.array_equal(loaded.labels, data.labels)
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_class_count_inference(rng, tmp_path):
    data = _dataset(rng, n=30, classes=4)
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.class_count == int(data.labels.max()) + 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("label,f0\n", "no data rows"),
        ("label,x0\n0,1.0\n", "line 1"),
        ("wrong,f0\n0,1.0\n", "line 1"),
        ("label,f0\n0,1.0,2.0\n", "line 2"),
        ("label,f0\n0,1.0\nbad,2.0\n", "line 3"),
        ("label,f0\n-1,1.0\n", "negative label"),
        ("label,f0\n0,abc\n", "line 2"),
    ],
)
def test_csv_parse_errors_name_the_line(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert fragment in str(err.value)


# -- train/val split --------------------------------------------------------


def test_split_sizes_follow_rounding(rng):
    data = _dataset(rng, n=100, classes=2)
    train, val = split_train_val(data, 0.25, 3)
    for c in range(2):
        n_c = int(np.sum(data.labels == c))
        expect_val = min(max(int(math.floor(0.25 * n_c + 0.5)), 1), n_c - 1)
        assert int(np.sum(val.labels == c)) == expect_val
        assert int(np.sum(train.labels == c)) == n_c - expect_val
    assert len(train) + len(val) == len(data)


def test_split_is_deterministic_and_disjoint(rng):
    data = _dataset(rng)
    t1, v1 = split_train_val(data, 0.2, 9)
    t2, v2 = split_train_val(data, 0.2, 9)
    assert np.array_equal(t1.features, t2.features)
    assert np.array_equal(v1.labels, v2.labels)
    # every original row lands on exactly one side
    combined = np.vstack([t1.features, v1.features])
    assert combined.shape[0] == len(data)
    all_rows = {tuple(r) for r in data.features}
    assert {tuple(r) for r in combined} == all_rows


def test_split_keeps_singleton_classes_on_the_train_side():
    data = LabeledDataset(
        features=np.arange(3, dtype=np.float64).reshape(3, 1),
        labels=np.array([0, 0, 1], dtype=np.int64),
        class_count=2,
    )
    train, val = split_train_val(data, 0.5, 0)
    assert int(np.sum(train.labels == 1)) == 1
    assert int(np.sum(val.labels == 1)) == 0
    assert int(np.sum(train.labels == 0)) == 1 and int(np.sum(val.labels == 0)) == 1


def test_split_rejects_all_singleton_data():
    data = LabeledDataset(
        features=np.zeros((2, 1)),
        labels=np.array([0, 1], dtype=np.int64),
        class_count=2,
    )
    with pytest.raises(DataError):
        split_train_val(data, 0.5, 0)


def test_split_rejects_bad_fraction(rng):
    data = _dataset(rng)
    for f in (0.0, 1.0, -0.1):
        with pytest.raises(ConfigError):
            split_train_val(data, f, 0)


# -- uniform partition ------------------------------------------------------


def test_uniform_shards_share_class_profile(rng):
    data = _dataset(rng, n=300, classes=5)
    plan = partition_uniform(data, 4, 7)
    validate_plan(plan, len(data))
    counts = data.class_counts()
    expected = {c: counts[c] // 4 for c in range(5)}
    for shard in plan.participants:
        labels = data.labels[shard]
        for c in range(5):
            assert int(np.sum(labels == c)) == expected[c]
    dropped = len(data) - sum(plan.sizes())
    assert dropped == sum(counts[c] - 4 * expected[c] for c in range(5))


def test_uniform_needs_k_samples_per_class():
    data = LabeledDataset(
        features=np.zeros((5, 1)),
        labels=np.array([0, 0, 0, 0, 1], dtype=np.int64),
        class_count=2,
    )
    with pytest.raises(PartitionError):
        partition_uniform(data, 2, 0)


# -- quantity skew ----------------------------------------------------------


def test_quantity_skew_assigns_everything(rng):
    data = _dataset(rng, n=240)
    for seed in range(10):
        plan = partition_quantity_skew(data, 5, 0.5, seed)
        validate_plan(plan, len(data))
        assert sum(plan.sizes()) == len(data)
        assert min(plan.sizes()) >= 1


def test_quantity_skew_beta_controls_imbalance(rng):
    # lower concentration -> wilder size spread; compare mean coefficient
    # of variation over many seeds
    data = _dataset(rng, n=400)

    def mean_cv(beta):
        cvs = []
        for seed in range(25):
            sizes = np.array(partition_quantity_skew(data, 5, beta, seed).sizes(), float)
            cvs.append(sizes.std() / sizes.mean())
        return float(np.mean(cvs))

    assert mean_cv(0.3) > mean_cv(5.0)


def test_quantity_skew_exhausts_redraws_at_degenerate_beta(rng):
    # at this concentration nearly every draw pins some shard at a
    # single sample, which can never support a stratified split
    data = _dataset(rng, n=400)
    with pytest.raises(PartitionError, match="usable"):
        partition_quantity_skew(data, 5, 0.01, 0)


def test_every_quantity_skew_shard_supports_a_split(rng):
    data = _dataset(rng, n=300)
    for seed in range(6):
        plan = partition_quantity_skew(data, 4, 0.4, seed)
        for shard in plan.participants:
            counts = np.bincount(data.labels[shard])
            assert counts.max() >= 2


def test_quantity_skew_argument_checks(rng):
    data = _dataset(rng, n=20)
    with pytest.raises(ConfigError):
        partition_quantity_skew(data, 1, 0.5, 0)
    with pytest.raises(ConfigError):
        partition_quantity_skew(data, 3, 0.0, 0)


# -- specialized ------------------------------------------------------------


def test_specialized_dominant_share(rng):
    data = _dataset(rng, n=500, classes=4)
    plan = partition_specialized(data, 4, 0.91, 5)
    validate_plan(plan, len(data))
    sizes = plan.sizes()
    assert len(set(sizes)) == 1  # all experts share one shard size
    size = sizes[0]
    dominant = int(math.floor(0.91 * size + 0.5))
    for i, shard in enumerate(plan.participants):
        labels = data.labels[shard]
        assert int(np.sum(labels == i)) == dominant
        for c in range(4):
            if c != i:
                assert int(np.sum(labels == c)) >= 1


def test_specialized_requires_matching_k(rng):
    data = _dataset(rng, classes=5)
    with pytest.raises(ConfigError):
        partition_specialized(data, 4, 0.91, 0)


def test_specialized_respects_class_supply(rng):
    data = _dataset(rng, n=300, classes=3)
    plan = partition_specialized(data, 3, 0.91, 1)
    counts = data.class_counts()
    used = np.zeros(3, dtype=np.int64)
    for shard in plan.participants:
        used += np.bincount(data.labels[shard], minlength=3)
    assert np.all(used <= counts)


# -- label-skew chunks ------------------------------------------------------


def test_chunks_counts_are_zero_or_at_least_min_chunk(rng):
    data = _dataset(rng, n=600, classes=5)
    for seed in range(8):
        plan = partition_label_skew_chunks(data, 4, 20, seed)
        validate_plan(plan, len(data))
        for shard in plan.participants:
            counts = np.bincount(data.labels[shard], minlength=5)
            for c in counts:
                assert c == 0 or 20 <= c <= 40


def test_chunks_exhaustion_raises():
    data = LabeledDataset(
        features=np.zeros((30, 1)),
        labels=np.zeros(30, dtype=np.int64),
        class_count=1,
    )
    # one class of 30 cannot feed many participants at min_chunk 20
    with pytest.raises(PartitionError):
        partition_label_skew_chunks(data, 10, 20, 0)


# -- label-skew Dirichlet ---------------------------------------------------


def test_largest_remainder_hand_case():
    got = _largest_remainder(np.array([0.335, 0.335, 0.33]), 10)
    assert got.tolist() == [4, 3, 3]
    assert got.sum() == 10


def test_largest_remainder_is_exact(rng):
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        total = int(rng.integers(1, 500))
        counts = _largest_remainder(p, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        # never off by more than one from the unrounded share
        assert np.all(np.abs(counts - p * total) < 1.0)


def test_dirichlet_partition_conserves_classes(rng):
    data = _dataset(rng, n=400, classes=6)
    betas = alternating_betas(5)
    assert betas == [0.1, 0.5, 0.1, 0.5, 0.1]
    plan = partition_label_skew_dirichlet(data, 5, betas, 3)
    validate_plan(plan, len(data))
    assert sum(plan.sizes()) == len(data)
    used = np.zeros(6, dtype=np.int64)
    for shard in plan.participants:
        used += np.bincount(data.labels[shard], minlength=6)
    assert np.array_equal(used, data.class_counts())


def test_dirichlet_skews_label_profiles(rng):
    # shards drawn with small concentrations should be far more
    # class-concentrated than uniform shards of the same data
    data = _dataset(rng, n=600, classes=6)

    def mean_max_share(plan):
        shares = []
        for shard in plan.participants:
            counts = np.bincount(data.labels[shard], minlength=6)
            shares.append(counts.max() / max(counts.sum(), 1))
        return float(np.mean(shares))

    skewed = np.mean(
        [
            mean_max_share(partition_label_skew_dirichlet(data, 4, [0.1] * 4, s))
            for s in range(10)
        ]
    )
    flat = mean_max_share(partition_uniform(data, 4, 0))
    assert skewed > flat + 0.1


def test_dirichlet_argument_checks(rng):
    data = _dataset(rng)
    with pytest.raises(ConfigError):
        partition_label_skew_dirichlet(data, 3, [0.1, 0.5], 0)
    with pytest.raises(ConfigError):
        partition_label_skew_dirichlet(data, 2, [0.1, 0.0], 0)


# -- dispatch and plan plumbing ---------------------------------------------


def test_make_partition_dispatch(rng):
    data = _dataset(rng, n=300, classes=5)
    for strategy in ("uniform", "quantity_skew", "label_skew_chunks", "label_skew_dirichlet"):
        plan = make_partition(data, PartitionSpec(strategy, 3, min_chunk=15), 2)
        assert plan.strategy == strategy
        validate_plan(plan, len(data))
    plan = make_partition(data, PartitionSpec("specialized", 5), 2)
    assert plan.strategy == "specialized"
    with pytest.raises(ConfigError):
        make_partition(data, PartitionSpec("zipf", 3), 2)


def test_plan_json_round_trip(rng):
    data = _dataset(rng, n=120)
    plan = partition_uniform(data, 3, 4)
    again = PartitionPlan.from_json_dict(plan.to_json_dict())
    assert again.strategy == plan.strategy
    assert again.seed == plan.seed
    assert again.params == plan.params
    assert all(np.array_equal(a, b) for a, b in zip(again.participants, plan.participants))


def test_validate_plan_catches_violations():
    plan = PartitionPlan(strategy="uniform", seed=0, participants=[[0, 1], [1, 2]])
    with pytest.raises(PartitionError):
        validate_plan(plan, 10)
    plan = PartitionPlan(strategy="uniform", seed=0, participants=[[0], []])
    with pytest.raises(PartitionError):
        validate_plan(plan, 10)
    plan = PartitionPlan(strategy="uniform", seed=0, participants=[[0], [99]])
    with pytest.raises(PartitionError):
        validate_plan(plan, 10)


# -- transfer sets ----------------------------------------------------------


SIZES = PoolSpec(labeled=30, unlabeled_small=20, unlabeled_large=60)


def test_student_data_passes_through(rng):
    data = _dataset(rng, n=50)
    ts = build_transfer_set("student_data", None, data, SIZES, 0)
    assert ts.origin == "student_data"
    assert ts.labeled
    assert np.array_equal(ts.features, data.features)
    assert np.array_equal(ts.labels, data.labels)
    # read-only views, not copies; the dataset's own arrays stay writeable
    assert np.shares_memory(ts.features, data.features)
    assert np.shares_memory(ts.labels, data.labels)
    assert not ts.features.flags.writeable and not ts.labels.flags.writeable
    assert data.features.flags.writeable and data.labels.flags.writeable


def test_public_options_sample_from_pool(rng):
    pool = _dataset(rng, n=100)
    pool_rows = {tuple(r) for r in pool.features}
    for option, expect in (
        ("public_labeled", 30),
        ("public_unlabeled_small", 20),
        ("public_unlabeled_large", 60),
    ):
        ts = build_transfer_set(option, pool, None, SIZES, 5)
        assert len(ts) == expect
        assert ts.labeled == (option == "public_labeled")
        assert {tuple(r) for r in ts.features} <= pool_rows
        assert not ts.features.flags.writeable
        assert not ts.labeled or not ts.labels.flags.writeable
        again = build_transfer_set(option, pool, None, SIZES, 5)
        assert np.array_equal(ts.features, again.features)


def test_public_option_needs_big_enough_pool(rng):
    pool = _dataset(rng, n=10)
    with pytest.raises(ConfigError):
        build_transfer_set("public_unlabeled_large", pool, None, SIZES, 0)
    with pytest.raises(ConfigError):
        build_transfer_set("student_data", pool, None, SIZES, 0)


# -- toy blobs --------------------------------------------------------------


def test_blobs_shapes_and_balance():
    train, test = gaussian_blobs(4, 3, 25, 10, 2.0, 1)
    assert train.features.shape == (100, 3)
    assert test.features.shape == (40, 3)
    assert np.all(train.class_counts() == 25)
    assert np.all(test.class_counts() == 10)


def test_blobs_deterministic_and_seed_sensitive():
    a, _ = gaussian_blobs(3, 2, 10, 5, 1.0, 7)
    b, _ = gaussian_blobs(3, 2, 10, 5, 1.0, 7)
    c, _ = gaussian_blobs(3, 2, 10, 5, 1.0, 8)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_blobs_share_centers_between_train_and_test():
    train, test = gaussian_blobs(5, 4, 200, 200, 3.0, 2)
    for c in range(5):
        mean_train = train.features[train.labels == c].mean(axis=0)
        mean_test = test.features[test.labels == c].mean(axis=0)
        # both estimate the same center; noise is unit scale
        assert np.linalg.norm(mean_train - mean_test) < 0.5


def test_blobs_argument_checks():
    with pytest.raises(ConfigError):
        gaussian_blobs(1, 2, 5, 5, 1.0, 0)
    with pytest.raises(ConfigError):
        gaussian_blobs(3, 0, 5, 5, 1.0, 0)
    with pytest.raises(ConfigError):
        gaussian_blobs(3, 2, 5, 5, 0.0, 0)
