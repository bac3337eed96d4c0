"""Distillation methods: losses, gradients, masks, weights, training loops."""

import warnings

import numpy as np
import pytest

from kdsim.data import LabeledDataset, TransferSet
from kdsim.distill import (
    DistillConfig,
    MaskPair,
    TeacherWeights,
    adaptive_teacher_weights,
    distill_dml,
    distill_dpkd,
    distill_multi_teacher,
    distill_vanilla,
    distill_vanilla_benches,
    dpkd_masks,
    effective_teachers,
    equal_teacher_weights,
    masked_distillation_loss,
    masked_targets,
    merged_teacher_target,
    weighted_ensemble_kl,
)
from kdsim.errors import ConfigError, DomainError, ShapeError
from kdsim.nn import (
    ArchSpec,
    EvalReport,
    Model,
    ce_loss,
    evaluate,
    forward_logits,
    init_model,
    kl_loss,
    models_equal,
    onehot,
    softmax,
)
from kdsim.seeding import rng_for

from gradcheck import fd_gradient, rel_err, scaled_last_layer, step_gradient


def _bias_model(logit_rows: np.ndarray) -> Model:
    """Single-layer model with zero weights: constant logits = biases."""
    classes = logit_rows.shape[0]
    arch = ArchSpec(input_dim=1, hidden_layers=(), num_classes=classes)
    model = init_model(arch, 0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = logit_rows
    return model


def _labeled_transfer(rng, n=48, dim=4, classes=3, origin="student_data"):
    return TransferSet(
        features=rng.normal(0, 1, size=(n, dim)),
        labels=rng.integers(0, classes, size=n).astype(np.int64),
        origin=origin,
    )


def _unlabeled_transfer(rng, n=48, dim=4, origin="public_unlabeled_small"):
    return TransferSet(features=rng.normal(0, 1, size=(n, dim)), labels=None, origin=origin)


ARCH = ArchSpec(input_dim=4, hidden_layers=(8,), num_classes=3)
FAST = dict(epochs=3, learning_rate=1e-2, batch_size=16)


# -- config validation ------------------------------------------------------


def test_distill_config_rejects_bad_values():
    for kwargs in (
        dict(temperature=0.0),
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(epochs=0),
        dict(learning_rate=0.0),
        dict(weight_decay=-1.0),
        dict(batch_size=0),
        dict(momentum=1.0),
        dict(optimizer="lion"),
        dict(batch_size="8"),
        dict(epochs=True),
    ):
        with pytest.raises(ConfigError):
            DistillConfig(**kwargs)


# -- teacher bench ----------------------------------------------------------


def test_effective_teachers_appends_frozen_self_on_public_data():
    student = init_model(ARCH, 3)
    teachers = [init_model(ARCH, 4)]
    bench = effective_teachers(student, teachers, "student_data")
    assert len(bench) == 1
    for origin in ("public_labeled", "public_unlabeled_small", "public_unlabeled_large"):
        bench = effective_teachers(student, teachers, origin)
        assert len(bench) == 2
        assert models_equal(bench[-1], student)
        bench[-1].weights[0][:] = 0.0  # frozen copy, not an alias
        assert not models_equal(bench[-1], student)


# -- the trainer's step against each method's loss -------------------------
# (see gradcheck; each model's last layer is scaled by the temperature)


def _gradient_case(rng, temperature, n=6, classes=3):
    arch = ArchSpec(input_dim=4, hidden_layers=(5,), num_classes=classes)
    model = scaled_last_layer(init_model(arch, 0), temperature)
    return model, rng.normal(0, 1, size=(n, 4))


@pytest.mark.parametrize("temperature", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_vanilla_labeled_gradient_matches_loss(rng, temperature, alpha):
    # the composite loss distill_vanilla trains on: (1 - alpha) CE + alpha T^2 KL
    model, x = _gradient_case(rng, temperature)
    target = rng.dirichlet(np.ones(3), size=6)
    labels = rng.integers(0, 3, size=6)

    def loss(m):
        logits = forward_logits(m, x)
        ce = ce_loss(softmax(logits, 1.0), labels)
        kd = temperature**2 * kl_loss(softmax(logits, temperature), target)
        return (1 - alpha) * ce + alpha * kd

    analytic = step_gradient(
        model, x, hard=onehot(labels, 3), soft=target, ce_weight=1 - alpha, kd_weight=alpha,
        temperature=temperature,
    )
    assert rel_err(analytic, fd_gradient(loss, model)) < 1e-5


def test_vanilla_unlabeled_gradient_matches_loss(rng):
    t = 2.5
    model, x = _gradient_case(rng, t, n=5, classes=4)
    target = rng.dirichlet(np.ones(4), size=5)

    def loss(m):
        return t**2 * kl_loss(softmax(forward_logits(m, x), t), target)

    analytic = step_gradient(model, x, soft=target, temperature=t)
    assert rel_err(analytic, fd_gradient(loss, model)) < 1e-5


# -- vanilla training behavior ----------------------------------------------


def test_vanilla_is_deterministic(rng):
    student = init_model(ARCH, 1)
    teacher = init_model(ARCH, 2)
    ts = _labeled_transfer(rng)
    cfg = DistillConfig(**FAST)
    a = distill_vanilla(student, [teacher], ts, cfg, 77)
    b = distill_vanilla(student, [teacher], ts, cfg, 77)
    c = distill_vanilla(student, [teacher], ts, cfg, 78)
    assert models_equal(a, b)
    assert not models_equal(a, c)
    assert models_equal(student, init_model(ARCH, 1))  # input untouched


def test_vanilla_alpha_zero_ignores_teachers(rng):
    # with labels and alpha 0 the soft term vanishes, so the teacher
    # bench cannot matter
    student = init_model(ARCH, 1)
    ts = _labeled_transfer(rng)
    cfg = DistillConfig(alpha=0.0, **FAST)
    a = distill_vanilla(student, [init_model(ARCH, 2)], ts, cfg, 5)
    b = distill_vanilla(student, [init_model(ARCH, 9), init_model(ARCH, 10)], ts, cfg, 5)
    assert models_equal(a, b)


def test_vanilla_alpha_one_equals_unlabeled_run(rng):
    student = init_model(ARCH, 1)
    teacher = init_model(ARCH, 2)
    feats = rng.normal(0, 1, size=(40, 4))
    labels = rng.integers(0, 3, size=40).astype(np.int64)
    labeled = TransferSet(features=feats, labels=labels, origin="public_labeled")
    unlabeled = TransferSet(features=feats, labels=None, origin="public_unlabeled_small")
    a = distill_vanilla(student, [teacher], labeled, DistillConfig(alpha=1.0, **FAST), 3)
    b = distill_vanilla(student, [teacher], unlabeled, DistillConfig(alpha=0.2, **FAST), 3)
    assert models_equal(a, b)


def test_vanilla_self_teaching_on_public_data_is_a_fixed_point(rng):
    # teacher identical to the student plus the appended self-copy:
    # the target equals the student's own distribution, so without
    # weight decay nothing can move
    student = init_model(ARCH, 6)
    ts = _unlabeled_transfer(rng)
    cfg = DistillConfig(weight_decay=0.0, **FAST)
    out = distill_vanilla(student, [student.copy()], ts, cfg, 1)
    assert models_equal(out, student)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_distillation_raises_instead_of_returning_nan(rng):
    # a NaN student would otherwise be evaluated, saved and reported
    student = init_model(ARCH, 1)
    cfg = DistillConfig(**{**FAST, "learning_rate": 1e300})
    with pytest.raises(DomainError, match="not finite"):
        distill_vanilla(student, [init_model(ARCH, 2)], _labeled_transfer(rng), cfg, 7)
    with pytest.raises(DomainError, match="not finite"):
        distill_dml(student, init_model(ARCH, 2), _labeled_transfer(rng),
                    _labeled_transfer(rng), cfg, 7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_stack_raises_instead_of_returning_nan(rng):
    cfg = DistillConfig(**{**FAST, "learning_rate": 1e300})
    with pytest.raises(DomainError, match="not finite"):
        distill_vanilla_benches(
            init_model(ARCH, 1), [[init_model(ARCH, 2)]] * 3, _labeled_transfer(rng), cfg,
            [0.1, 0.5, 0.9], [7, 8, 9],
        )


def test_vanilla_cells_need_one_seed_per_alpha(rng):
    with pytest.raises(ConfigError):
        distill_vanilla_benches(
            init_model(ARCH, 1), [[init_model(ARCH, 2)]] * 2, _labeled_transfer(rng),
            DistillConfig(**FAST), [0.1, 0.5], [7],
        )


def test_vanilla_needs_a_teacher(rng):
    with pytest.raises(ConfigError):
        distill_vanilla(init_model(ARCH, 0), [], _labeled_transfer(rng), DistillConfig(), 0)


def test_vanilla_learns_from_a_strong_teacher(blobs, pretrained, scenario):
    train, test = blobs
    teacher, report = pretrained[0]
    shard = scenario.participants[1].train
    ts = TransferSet(features=shard.features, labels=shard.labels, origin="student_data")
    student = init_model(teacher.arch, 123)
    before = evaluate(student, test).overall_accuracy
    cfg = DistillConfig(epochs=30, learning_rate=5e-3)
    after = evaluate(
        distill_vanilla(student, [teacher], ts, cfg, 9), test
    ).overall_accuracy
    assert after > before + 0.3
    assert after > 0.6


# -- mutual learning --------------------------------------------------------


def test_dml_returns_new_models_deterministically(rng):
    a0, b0 = init_model(ARCH, 1), init_model(ARCH, 2)
    ts_a, ts_b = _labeled_transfer(rng), _labeled_transfer(rng)
    cfg = DistillConfig(**FAST)
    a1, b1 = distill_dml(a0, b0, ts_a, ts_b, cfg, 4)
    a2, b2 = distill_dml(a0, b0, ts_a, ts_b, cfg, 4)
    assert models_equal(a1, a2) and models_equal(b1, b2)
    assert not models_equal(a1, a0)
    assert models_equal(a0, init_model(ARCH, 1))


def test_dml_ignores_temperature_and_alpha(rng):
    # both loss terms run at unit weight and temperature 1 by design
    a0, b0 = init_model(ARCH, 1), init_model(ARCH, 2)
    ts_a, ts_b = _labeled_transfer(rng), _labeled_transfer(rng)
    r1 = distill_dml(a0, b0, ts_a, ts_b, DistillConfig(temperature=3.0, alpha=0.9, **FAST), 4)
    r2 = distill_dml(a0, b0, ts_a, ts_b, DistillConfig(temperature=1.0, alpha=0.1, **FAST), 4)
    assert models_equal(r1[0], r2[0]) and models_equal(r1[1], r2[1])


def test_dml_warns_without_labels(rng):
    a0, b0 = init_model(ARCH, 1), init_model(ARCH, 2)
    cfg = DistillConfig(**FAST)
    with pytest.warns(UserWarning, match="without labels"):
        distill_dml(a0, b0, _unlabeled_transfer(rng), _unlabeled_transfer(rng), cfg, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distill_dml(a0, b0, _labeled_transfer(rng), _labeled_transfer(rng), cfg, 0)


def test_dml_peers_converge_toward_each_other(rng):
    # mutual KL pulls the two output distributions together
    a0, b0 = init_model(ARCH, 1), init_model(ARCH, 2)
    ts = _labeled_transfer(rng, n=64)
    probe = ts.features

    def gap(m1, m2):
        p1 = softmax(forward_logits(m1, probe), 1.0)
        p2 = softmax(forward_logits(m2, probe), 1.0)
        return float(np.abs(p1 - p2).mean())

    cfg = DistillConfig(epochs=20, learning_rate=1e-2, weight_decay=0.0)
    a1, b1 = distill_dml(a0, b0, ts, ts, cfg, 4)
    assert gap(a1, b1) < gap(a0, b0)


# -- mask-routed distillation -----------------------------------------------


def test_masks_partition_every_sample(rng):
    teacher = init_model(ARCH, 1)
    snapshot = init_model(ARCH, 2)
    ts = _labeled_transfer(rng, n=200)
    for supervised in (False, True):
        masks = dpkd_masks(teacher, snapshot, ts, supervised)
        assert np.all(masks.teacher_mask ^ masks.snapshot_mask)


def test_mask_hand_case_unsupervised():
    teacher = _bias_model(np.array([2.0, 0.0, 0.0]))
    weak = _bias_model(np.zeros(3))
    feats = np.zeros((4, 1))
    ts = TransferSet(features=feats, labels=None, origin="public_unlabeled_small")
    masks = dpkd_masks(teacher, weak, ts, supervised=False)
    # max prob e^2/(e^2+2) beats the flat 1/3 everywhere
    assert masks.teacher_mask.all()
    masks = dpkd_masks(weak, teacher, ts, supervised=False)
    assert masks.snapshot_mask.all()


def test_mask_hand_case_supervised():
    teacher = _bias_model(np.array([2.0, 0.0, 0.0]))
    flat = _bias_model(np.zeros(3))
    feats = np.zeros((3, 1))
    # teacher is confident about class 0 only; on true class 2 the flat
    # snapshot assigns more mass
    ts = TransferSet(
        features=feats, labels=np.array([0, 2, 2], dtype=np.int64), origin="public_labeled"
    )
    masks = dpkd_masks(teacher, flat, ts, supervised=True)
    assert masks.teacher_mask.tolist() == [True, False, False]


def test_mask_tie_goes_to_snapshot(rng):
    model = init_model(ARCH, 5)
    ts = _labeled_transfer(rng, n=50)
    for supervised in (False, True):
        masks = dpkd_masks(model, model.copy(), ts, supervised)
        assert not masks.teacher_mask.any()
        assert masks.snapshot_mask.all()


def test_supervised_masks_need_labels(rng):
    with pytest.raises(ConfigError):
        dpkd_masks(init_model(ARCH, 0), init_model(ARCH, 1), _unlabeled_transfer(rng), True)


def test_masked_targets_route_rows(rng):
    t = rng.dirichlet(np.ones(3), size=4)
    s = rng.dirichlet(np.ones(3), size=4)
    masks = MaskPair(
        teacher_mask=np.array([True, False, True, False]),
        snapshot_mask=np.array([False, True, False, True]),
    )
    routed = masked_targets(t, s, masks)
    assert np.array_equal(routed[0], t[0])
    assert np.array_equal(routed[1], s[1])
    with pytest.raises(ShapeError):
        masked_targets(t, s[:2], masks)


@pytest.mark.parametrize("temperature", [0.5, 1.0, 4.0])
def test_masked_loss_gradient_check(rng, temperature):
    model, x = _gradient_case(rng, temperature)
    target = rng.dirichlet(np.ones(3), size=6)
    numeric = fd_gradient(
        lambda m: masked_distillation_loss(forward_logits(m, x), target, temperature), model
    )
    analytic = step_gradient(model, x, soft=target, temperature=temperature)
    assert rel_err(analytic, numeric) < 1e-5


def test_dpkd_ignores_labels_when_unsupervised(rng):
    student = init_model(ARCH, 1)
    teacher = init_model(ARCH, 2)
    feats = rng.normal(0, 1, size=(40, 4))
    ts1 = TransferSet(
        features=feats, labels=np.zeros(40, dtype=np.int64), origin="public_labeled"
    )
    ts2 = TransferSet(
        features=feats, labels=np.full(40, 2, dtype=np.int64), origin="public_labeled"
    )
    cfg = DistillConfig(**FAST)
    assert models_equal(
        distill_dpkd(student, teacher, ts1, cfg, 8),
        distill_dpkd(student, teacher, ts2, cfg, 8),
    )


def test_dpkd_all_tie_run_is_a_fixed_point(rng):
    # teacher equals the snapshot, every sample routes to the snapshot,
    # and the snapshot is the student's own start
    student = init_model(ARCH, 3)
    cfg = DistillConfig(weight_decay=0.0, **FAST)
    out = distill_dpkd(student, student.copy(), _unlabeled_transfer(rng), cfg, 2)
    assert models_equal(out, student)


def test_dpkd_deterministic_and_pure(rng):
    student = init_model(ARCH, 1)
    teacher = init_model(ARCH, 2)
    ts = _unlabeled_transfer(rng)
    cfg = DistillConfig(temperature=2.0, **FAST)
    a = distill_dpkd(student, teacher, ts, cfg, 11)
    b = distill_dpkd(student, teacher, ts, cfg, 11)
    assert models_equal(a, b)
    assert models_equal(student, init_model(ARCH, 1))


# -- teacher weighting ------------------------------------------------------


def test_adaptive_weights_hand_case():
    student = EvalReport(
        overall_accuracy=0.5,
        per_class_accuracy=np.array([0.5, 0.0]),
        per_class_support=np.array([10, 10]),
    )
    t1 = EvalReport(
        overall_accuracy=0.3,
        per_class_accuracy=np.array([0.3, 0.0]),
        per_class_support=np.array([10, 10]),
    )
    t2 = EvalReport(
        overall_accuracy=0.2,
        per_class_accuracy=np.array([0.2, 0.0]),
        per_class_support=np.array([10, 10]),
    )
    w = adaptive_teacher_weights(student, [t1, t2])
    assert np.allclose(w.per_teacher[0], [0.3, 0.0])
    assert np.allclose(w.per_teacher[1], [0.2, 0.0])


def test_adaptive_weights_columns_sum_below_one(rng):
    for _ in range(20):
        classes = int(rng.integers(2, 6))
        teachers = int(rng.integers(1, 5))
        mk = lambda: EvalReport(
            overall_accuracy=0.0,
            per_class_accuracy=rng.uniform(0, 1, classes),
            per_class_support=np.ones(classes, dtype=np.int64),
        )
        w = adaptive_teacher_weights(mk(), [mk() for _ in range(teachers)])
        total = np.sum(w.per_teacher, axis=0)
        assert np.all(total <= 1.0 + 1e-9)


def test_adaptive_weights_class_count_mismatch():
    a = EvalReport(0.0, np.zeros(2), np.zeros(2, dtype=np.int64))
    b = EvalReport(0.0, np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(ShapeError):
        adaptive_teacher_weights(a, [b])
    with pytest.raises(ConfigError):
        adaptive_teacher_weights(a, [])


def test_equal_weights_share():
    w = equal_teacher_weights(3, 4)
    for vec in w.per_teacher:
        assert np.allclose(vec, 0.25)
    assert np.allclose(np.sum(w.per_teacher, axis=0), 0.75)
    with pytest.raises(ConfigError):
        equal_teacher_weights(0, 4)


def test_teacher_weights_validation():
    with pytest.raises(ConfigError):
        TeacherWeights(per_teacher=[])
    with pytest.raises(ConfigError):
        TeacherWeights(per_teacher=[np.array([-0.1, 0.2])])
    with pytest.raises(ConfigError):
        TeacherWeights(per_teacher=[np.array([0.6, 0.6]), np.array([0.6, 0.3])])
    with pytest.raises(ShapeError):
        TeacherWeights(per_teacher=[np.zeros(2), np.zeros(3)])
    TeacherWeights(per_teacher=[np.array([1.0, 0.5])])  # exactly 1 is fine


# -- weighted ensemble loss -------------------------------------------------


def test_weighted_kl_hand_case():
    # one teacher, weight w on every sample: loss = T^2 * w * mean KL
    probs_t = np.array([[0.7, 0.3], [0.2, 0.8]])
    logits = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
    w = np.array([0.4, 0.4])
    base = kl_loss(softmax(logits, 1.0), probs_t)
    got = weighted_ensemble_kl(logits, [probs_t], [w], 1.0)
    assert got == pytest.approx(0.4 * base, rel=1e-12)


@pytest.mark.parametrize("temperature", [0.5, 1.0, 4.0])
def test_weighted_kl_gradient_check(rng, temperature):
    # distill_multi_teacher trains on the merged target and weight
    model, x = _gradient_case(rng, temperature)
    targets = [rng.dirichlet(np.ones(3), size=6) for _ in range(2)]
    sw = [rng.uniform(0, 0.5, 6) for _ in range(2)]
    numeric = fd_gradient(
        lambda m: weighted_ensemble_kl(forward_logits(m, x), targets, sw, temperature), model
    )
    merged, total = merged_teacher_target(targets, sw)
    analytic = step_gradient(model, x, soft=merged, weight=total, temperature=temperature)
    assert rel_err(analytic, numeric) < 1e-5


# -- multi-teacher runs -----------------------------------------------------


def test_single_teacher_full_weight_matches_vanilla(rng):
    # with unit weight on the only teacher the weighted loop reduces to
    # the fixed-parameter method on student data, bit for bit
    student = init_model(ARCH, 1)
    teacher = init_model(ARCH, 2)
    ts = _labeled_transfer(rng)
    cfg = DistillConfig(temperature=2.0, alpha=0.5, **FAST)
    ones = TeacherWeights(per_teacher=[np.ones(3)])
    assert models_equal(
        distill_multi_teacher(student, [teacher], ones, ts, cfg, 21),
        distill_vanilla(student, [teacher], ts, cfg, 21),
    )


def test_multi_teacher_weight_count_must_match(rng):
    student = init_model(ARCH, 1)
    teachers = [init_model(ARCH, 2), init_model(ARCH, 3)]
    w = equal_teacher_weights(3, 3)
    with pytest.raises(ConfigError):
        distill_multi_teacher(student, teachers, w, _labeled_transfer(rng), DistillConfig(), 0)


def test_multi_teacher_zero_weights_freeze_unlabeled_run(rng):
    # all-zero weights silence every teacher; without labels or decay
    # there is no gradient at all
    student = init_model(ARCH, 4)
    teachers = [init_model(ARCH, 5), init_model(ARCH, 6)]
    w = TeacherWeights(per_teacher=[np.zeros(3), np.zeros(3)])
    cfg = DistillConfig(weight_decay=0.0, **FAST)
    out = distill_multi_teacher(student, teachers, w, _unlabeled_transfer(rng), cfg, 2)
    assert models_equal(out, student)


def test_multi_teacher_deterministic(rng):
    student = init_model(ARCH, 1)
    teachers = [init_model(ARCH, 2), init_model(ARCH, 3)]
    w = equal_teacher_weights(2, 3)
    ts = _unlabeled_transfer(rng)
    cfg = DistillConfig(**FAST)
    assert models_equal(
        distill_multi_teacher(student, teachers, w, ts, cfg, 13),
        distill_multi_teacher(student, teachers, w, ts, cfg, 13),
    )
