"""Network core: losses, gradients (vs finite differences), training.

The finite-difference checks read the gradient off one step of the
trainer (see gradcheck) and compare it with central differences of the
loss `train_steps` documents, for plain models, stacks, ragged cells and
a live soft model; every method trains through that step.
"""

import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import kdsim.nn as nn
from kdsim.data import LabeledDataset
from kdsim.errors import ConfigError, DataError, DomainError, ShapeError
from kdsim.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ArchSpec,
    EvalReport,
    Model,
    TrainConfig,
    backprop_params,
    ce_loss,
    evaluate,
    forward_logits,
    init_model,
    kl_loss,
    make_optimizer,
    models_equal,
    onehot,
    predict,
    reports_equal,
    softmax,
    train_epoch,
    train_supervised,
    train_supervised_cells,
    _forward_cached,
)
from kdsim.seeding import rng_for

from gradcheck import fd_gradient, rel_err, scaled_last_layer, step_gradient


GRID_TEMPERATURES = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0)
ARCH = ArchSpec(input_dim=4, hidden_layers=(5,), num_classes=3)


# -- softmax ----------------------------------------------------------------


def test_softmax_hand_values():
    logits = np.array([[0.0, math.log(2.0), math.log(3.0)]])
    probs = softmax(logits)
    assert np.allclose(probs, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(0, 5, size=(40, 7))
    for t in GRID_TEMPERATURES:
        probs = softmax(logits, t)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)


def test_softmax_shift_invariance(rng):
    logits = rng.normal(0, 3, size=(5, 4))
    shifted = logits + 123.0
    assert np.allclose(softmax(logits, 2.0), softmax(shifted, 2.0), atol=1e-12)


def test_softmax_overflow_safe():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    probs = softmax(logits)
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] > 0.999
    assert probs[1, 0] < 1e-300 or probs[1, 0] >= 0


def test_softmax_temperature_flattens():
    logits = np.array([[3.0, 0.0, -1.0]])
    sharp = softmax(logits, 0.5)
    flat = softmax(logits, 5.0)
    assert sharp.max() > flat.max()


def test_softmax_rejects_bad_temperature():
    with pytest.raises(DomainError):
        softmax(np.zeros((1, 2)), 0.0)
    with pytest.raises(DomainError):
        softmax(np.zeros((1, 2)), -1.0)


# -- cross-entropy ----------------------------------------------------------


def test_ce_loss_hand_value():
    probs = np.array([[0.25, 0.75], [0.5, 0.5]])
    labels = np.array([1, 0])
    expected = -(math.log(0.75) + math.log(0.5)) / 2
    assert math.isclose(ce_loss(probs, labels), expected, rel_tol=1e-12)


def test_ce_grad_matches_finite_differences(rng):
    # the trainer's CE term, at temperature 1, through no, one and two
    # hidden layers
    for seed, hidden in enumerate(((), (5,), (4, 4))):
        model = init_model(ArchSpec(input_dim=4, hidden_layers=hidden, num_classes=3), seed)
        x = rng.normal(0, 1, size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        analytic = step_gradient(model, x, hard=onehot(labels, 3))
        numeric = fd_gradient(lambda m: ce_loss(softmax(forward_logits(m, x)), labels), model)
        assert rel_err(analytic, numeric) < 1e-5


def test_onehot():
    got = onehot(np.array([2, 0]), 3)
    assert np.array_equal(got, [[0, 0, 1], [1, 0, 0]])


# -- KL ---------------------------------------------------------------------


def test_kl_zero_for_identical(rng):
    probs = softmax(rng.normal(0, 2, size=(10, 4)))
    assert kl_loss(probs, probs) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_value():
    student = np.array([[0.5, 0.5]])
    target = np.array([[0.9, 0.1]])
    expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    assert math.isclose(kl_loss(student, target), expected, rel_tol=1e-12)


def test_kl_nonnegative(rng):
    for _ in range(50):
        a = softmax(rng.normal(0, 3, size=(8, 5)))
        b = softmax(rng.normal(0, 3, size=(8, 5)))
        assert kl_loss(a, b) >= -1e-12


def test_kl_grad_matches_finite_differences_all_temperatures(rng):
    # the trainer's T^2-scaled KL term at every search grid temperature,
    # on 3-class instances
    target = softmax(rng.normal(0, 2, size=(5, 3)))
    x = rng.normal(0, 1, size=(5, 4))
    for seed, t in enumerate(GRID_TEMPERATURES):
        model = scaled_last_layer(init_model(ARCH, seed), t)
        analytic = step_gradient(model, x, soft=target, temperature=t)
        numeric = fd_gradient(
            lambda m: t**2 * kl_loss(softmax(forward_logits(m, x), t), target), model
        )
        assert rel_err(analytic, numeric) < 1e-5


def _three_cells() -> Model:
    return Model.from_params(ARCH, np.stack([init_model(ARCH, s).params for s in range(3)]), 0)


def _stack_case(rng):
    # three cells, each with its own loss weights and soft targets
    x = rng.normal(0, 1, size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    soft = softmax(rng.normal(0, 2, size=(3, 6, 3)))
    ce_w, kd_w, t = [0.75, 0.5, 0.1], [0.25, 0.5, 0.9], 2.0

    def loss(m):
        logits = forward_logits(m, x)
        return sum(
            ce_w[s] * ce_loss(softmax(logits[s]), labels)
            + kd_w[s] * t**2 * kl_loss(softmax(logits[s], t), soft[s])
            for s in range(3)
        )

    targets = dict(hard=onehot(labels, 3), soft=soft, ce_weight=ce_w, kd_weight=kd_w,
                   temperature=t)
    return _three_cells(), x, [rng_for(s, "order") for s in range(3)], targets, loss


def _ragged_case(rng):
    # three cells with their own rows, longest first, on hard targets
    xs = [rng.normal(0, 1, size=(n, 4)) for n in (7, 5, 3)]
    labels = [rng.integers(0, 3, size=len(x)) for x in xs]

    def loss(m):
        return sum(
            ce_loss(softmax(forward_logits(Model.from_params(ARCH, m.params[i], 0), x)), y)
            for i, (x, y) in enumerate(zip(xs, labels))
        )

    targets = dict(hard=[onehot(y, 3) for y in labels])
    return _three_cells(), xs, [rng_for(s, "order") for s in range(3)], targets, loss


def _live_case(rng):
    # a mutual-learning peer: its prediction is the soft target, and the
    # step holds it fixed
    peer = scaled_last_layer(init_model(ARCH, 1), 3.0)
    x = rng.normal(0, 1, size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    t = 3.0
    target = softmax(forward_logits(peer, x), t)

    def loss(m):
        logits = forward_logits(m, x)
        return (0.4 * ce_loss(softmax(logits), labels)
                + 0.6 * t**2 * kl_loss(softmax(logits, t), target))

    targets = dict(hard=onehot(labels, 3), soft=peer, ce_weight=0.4, kd_weight=0.6,
                   temperature=t)
    # a live soft model takes a generator, not a row order
    return init_model(ARCH, 0), x, rng_for(0, "order"), targets, loss


@pytest.mark.parametrize("case", [_stack_case, _ragged_case, _live_case],
                         ids=["stack", "ragged", "live"])
def test_stacked_ragged_and_live_steps_match_finite_differences(rng, case):
    model, features, rngs, targets, loss = case(rng)
    soft = targets.get("soft")
    before = soft.params.copy() if isinstance(soft, Model) else None
    analytic = step_gradient(model, features, rngs, **targets)
    assert rel_err(analytic, fd_gradient(loss, model)) < 1e-5
    if before is not None:
        assert soft.params.tobytes() == before.tobytes()


# -- backprop through the network -------------------------------------------


def test_backprop_params_matches_finite_differences(rng):
    arch = ArchSpec(input_dim=4, hidden_layers=(5,), num_classes=3)
    model = init_model(arch, 3)
    features = rng.normal(0, 1, size=(6, 4))
    labels = rng.integers(0, 3, size=6)

    def loss_of(m):
        return ce_loss(softmax(forward_logits(m, features)), labels)

    logits, acts = _forward_cached(model, features)
    gw, gb = backprop_params(model, acts, (softmax(logits) - onehot(labels, 3)) / 6)

    eps = 1e-6
    for params, grads in ((model.weights, gw), (model.biases, gb)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                orig = p[i]
                p[i] = orig + eps
                up = loss_of(model)
                p[i] = orig - eps
                down = loss_of(model)
                p[i] = orig
                assert abs(g[i] - (up - down) / (2 * eps)) < 1e-6
                it.iternext()


def test_backprop_two_hidden_layers(rng):
    # deeper stack exercises the ReLU mask chain
    arch = ArchSpec(input_dim=3, hidden_layers=(4, 4), num_classes=2)
    model = init_model(arch, 9)
    features = rng.normal(0, 1, size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    logits, acts = _forward_cached(model, features)
    gw, gb = backprop_params(model, acts, (softmax(logits) - onehot(labels, 2)) / 5)

    def loss_of():
        return ce_loss(softmax(forward_logits(model, features)), labels)

    eps = 1e-6
    w = model.weights[1]
    g = gw[1]
    orig = w[0, 0]
    w[0, 0] = orig + eps
    up = loss_of()
    w[0, 0] = orig - eps
    down = loss_of()
    w[0, 0] = orig
    assert abs(g[0, 0] - (up - down) / (2 * eps)) < 1e-6
    assert all(x.shape == y.shape for x, y in zip(gw, model.weights))
    assert all(x.shape == y.shape for x, y in zip(gb, model.biases))


# -- optimizers -------------------------------------------------------------


def _recipe(name, learning_rate, weight_decay, momentum):
    """A training recipe with these four optimizer settings."""
    return TrainConfig(
        optimizer=name, learning_rate=learning_rate, weight_decay=weight_decay, momentum=momentum
    )


def test_sgd_single_step_hand_computed():
    arch = ArchSpec(input_dim=2, hidden_layers=(), num_classes=2)
    model = init_model(arch, 0)
    w0 = model.weights[0].copy()
    opt = make_optimizer(_recipe("sgd", 0.1, 0.5, 0.0), model)
    opt.grad[: model.n_weight_entries] = 1.0
    opt.step()
    # decoupled decay uses the pre-update value: w1 = w0 - lr*g - lr*wd*w0
    expected = w0 - 0.1 * 1.0 - 0.1 * 0.5 * w0
    assert np.allclose(model.weights[0], expected, atol=1e-15)
    assert np.allclose(model.biases[0], 0.0)


def test_sgd_momentum_accumulates():
    arch = ArchSpec(input_dim=1, hidden_layers=(), num_classes=2)
    model = init_model(arch, 0)
    start = model.weights[0].copy()
    opt = make_optimizer(_recipe("sgd", 1.0, 0.0, 0.5), model)
    opt.grad[: model.n_weight_entries] = 1.0
    opt.step()
    opt.step()
    # velocities 1 then 1.5 -> total displacement 2.5
    assert np.allclose(model.weights[0], start - 2.5, atol=1e-15)


def test_adam_first_step_approximates_signed_lr(rng):
    arch = ArchSpec(input_dim=3, hidden_layers=(), num_classes=2)
    model = init_model(arch, 1)
    before = model.weights[0].copy()
    opt = make_optimizer(_recipe("adam", 1e-3, 0.0, 0.0), model)
    g = rng.normal(0, 1, size=before.shape)
    opt.grad[: g.size] = g.ravel()  # the biases' gradient stays 0
    opt.step()
    step = before - model.weights[0]
    # bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
    assert np.allclose(step, 1e-3 * np.sign(g), atol=1e-6)


def test_weight_decay_skips_biases():
    arch = ArchSpec(input_dim=2, hidden_layers=(3,), num_classes=2)
    model = init_model(arch, 5)
    for b in model.biases:
        b += 1.0
    before_w = [w.copy() for w in model.weights]
    before_b = [b.copy() for b in model.biases]
    opt = make_optimizer(_recipe("adam", 0.1, 1.0, 0.0), model)
    opt.step()  # a new optimizer's gradient buffer is 0
    for w, w0 in zip(model.weights, before_w):
        assert np.allclose(w, w0 - 0.1 * 1.0 * w0, atol=1e-15)
    for b, b0 in zip(model.biases, before_b):
        assert np.array_equal(b, b0)


def _per_array_steps(name, lr, wd, momentum, model, grad_seq):
    """Reference optimizer: one loop over the weight and bias arrays."""
    params = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    decay = [True] * len(model.weights) + [False] * len(model.biases)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_seq, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            if name == "adam":
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * (g * g)
                update = lr * (m[i] / (1.0 - ADAM_BETA1**t)) / (
                    np.sqrt(v[i] / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
                )
            else:
                m[i] = momentum * m[i] + g
                update = lr * m[i]
            if decay[i]:
                update = update + lr * wd * p
            p -= update
    return params


@pytest.mark.parametrize("name, momentum", [("adam", 0.0), ("sgd", 0.9)])
def test_flat_optimizer_is_bit_identical_to_a_per_array_loop(rng, name, momentum):
    arch = ArchSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3)
    model = init_model(arch, 8)
    for b in model.biases:
        b += rng.normal(0, 1, size=b.shape)
    shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]
    grad_seq = [[rng.normal(0, 1, size=s) for s in shapes] for _ in range(6)]
    want = _per_array_steps(name, 0.05, 0.3, momentum, model, grad_seq)
    opt = make_optimizer(_recipe(name, 0.05, 0.3, momentum), model)
    for grads in grad_seq:
        opt.grad[:] = np.concatenate([g.ravel() for g in grads])
        opt.step()
    got = model.weights + model.biases
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("name, momentum", [("adam", 0.0), ("sgd", 0.9)])
def test_step_from_the_gradient_buffer_equals_the_list_form(rng, name, momentum):
    arch = ArchSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3)
    listed = init_model(arch, 8)
    buffered = listed.copy()
    opt_l = make_optimizer(_recipe(name, 0.05, 0.3, momentum), listed)
    opt_b = make_optimizer(_recipe(name, 0.05, 0.3, momentum), buffered)
    for _ in range(4):
        x = rng.normal(0, 1, size=(6, 3))
        logits, acts = _forward_cached(listed, x)
        dlogits = rng.normal(0, 1, size=logits.shape)
        # backprop's per-array gradients, concatenated into the buffer
        gw, gb = backprop_params(listed, acts, dlogits)
        opt_l.grad[:] = np.concatenate([g.ravel() for g in gw + gb])
        opt_l.step()
        _, acts = _forward_cached(buffered, x)
        backprop_params(buffered, acts, dlogits, out=opt_b.grad_views)
        opt_b.step()
        assert buffered.params.tobytes() == listed.params.tobytes()


def test_unknown_optimizer_rejected():
    arch = ArchSpec(input_dim=2, hidden_layers=(), num_classes=2)
    model = init_model(arch, 0)
    with pytest.raises(ConfigError):
        recipe = SimpleNamespace(
            optimizer="rmsprop", learning_rate=0.1, weight_decay=0.0, momentum=0.0
        )
        make_optimizer(recipe, model)


# -- init and model plumbing ------------------------------------------------


def test_init_model_deterministic_and_bounded():
    arch = ArchSpec(input_dim=6, hidden_layers=(8,), num_classes=4)
    a = init_model(arch, 42)
    b = init_model(arch, 42)
    c = init_model(arch, 43)
    assert models_equal(a, b)
    assert not models_equal(a, c)
    dims = arch.layer_dims()
    for w, (fi, fo) in zip(a.weights, zip(dims[:-1], dims[1:])):
        limit = math.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) <= limit)
    for bias in a.biases:
        assert np.all(bias == 0.0)


def test_model_copy_isolated():
    arch = ArchSpec(input_dim=2, hidden_layers=(), num_classes=2)
    a = init_model(arch, 7)
    b = a.copy()
    b.weights[0][0, 0] += 1.0
    assert not models_equal(a, b)


def test_params_is_one_vector_the_layer_arrays_view():
    arch = ArchSpec(input_dim=2, hidden_layers=(3,), num_classes=2)
    model = init_model(arch, 4)
    flat = np.concatenate([a.ravel() for a in model.weights + model.biases])
    assert model.params.dtype == np.float64 and np.array_equal(model.params, flat)
    assert model.n_weight_entries == 2 * 3 + 3 * 2
    model.weights[1][2, 1] = 5.0
    model.biases[-1][-1] = 7.0
    assert model.params[2 * 3 + 2 * 2 + 1] == 5.0 and model.params[-1] == 7.0


def test_a_stack_views_one_parameter_row_per_cell():
    arch = ArchSpec(input_dim=2, hidden_layers=(3,), num_classes=2)
    cells = [init_model(arch, s) for s in (1, 2, 3)]
    stack = Model.from_params(arch, np.stack([m.params for m in cells]), 0)
    assert [w.shape for w in stack.weights] == [(3, 2, 3), (3, 3, 2)]
    assert [b.shape for b in stack.biases] == [(3, 3), (3, 2)]
    logits = forward_logits(stack, np.ones((5, 2)))
    for i, cell in enumerate(cells):
        assert all(np.array_equal(s[i], w) for s, w in zip(stack.weights, cell.weights))
        assert logits[i].tobytes() == forward_logits(cell, np.ones((5, 2))).tobytes()
    stack.biases[1][2, 1] = 4.0
    assert stack.params[2, -1] == 4.0


def test_model_rejects_parameters_that_do_not_fit_its_architecture():
    arch = ArchSpec(input_dim=2, hidden_layers=(3,), num_classes=2)
    good = init_model(arch, 0)
    with pytest.raises(ShapeError):
        Model(arch, [w.T for w in good.weights], good.biases, 0)


def test_pickled_model_keeps_its_views_on_params():
    arch = ArchSpec(input_dim=3, hidden_layers=(4,), num_classes=2)
    model = init_model(arch, 12)
    back = pickle.loads(pickle.dumps(model))
    assert models_equal(back, model) and back.seed == model.seed
    back.weights[0][0, 0] = 9.0
    back.biases[1][1] = -3.0
    assert back.params[0] == 9.0 and back.params[-1] == -3.0
    assert model.params[0] != 9.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_epoch_refuses_to_leave_parameters_non_finite(rng):
    arch = ArchSpec(input_dim=2, hidden_layers=(4,), num_classes=2)
    model = init_model(arch, 1)
    model.weights[0][0, 0] = np.inf
    features = rng.normal(0, 1, size=(8, 2))
    opt = make_optimizer(_recipe("sgd", 0.1, 0.0, 0.0), model)
    hard = onehot(rng.integers(0, 2, size=8), 2)
    with pytest.raises(DomainError, match="not finite after a training pass"):
        train_epoch(opt, features, 4, rng, hard=hard)


# -- training ---------------------------------------------------------------


def _toy_split(rng, n=60, dim=4, classes=3):
    feats = rng.normal(0, 1, size=(n, dim))
    labels = rng.integers(0, classes, size=n)
    feats[np.arange(n), labels % dim] += 4.0
    data = LabeledDataset(features=feats, labels=labels.astype(np.int64), class_count=classes)
    train = data.subset(np.arange(0, n - 15))
    val = data.subset(np.arange(n - 15, n))
    return train, val


def test_train_supervised_improves_and_is_deterministic(rng):
    train, val = _toy_split(rng)
    arch = ArchSpec(input_dim=4, hidden_layers=(8,), num_classes=3)
    cfg = TrainConfig(max_epochs=20, patience=20, batch_size=16)
    model = init_model(arch, 1)
    best1, hist1 = train_supervised(model, train, val, cfg)
    best2, hist2 = train_supervised(model, train, val, cfg)
    assert models_equal(best1, best2)
    assert hist1 == hist2
    before = evaluate(model, val).overall_accuracy
    after = evaluate(best1, val).overall_accuracy
    assert after >= before
    # returned model realizes the best validation accuracy observed
    assert after == max([before] + [h["val_accuracy"] for h in hist1])


def test_train_supervised_patience_stops(rng):
    train, val = _toy_split(rng)
    arch = ArchSpec(input_dim=4, hidden_layers=(8,), num_classes=3)
    # learning rate small enough that no epoch can move the accuracy
    cfg = TrainConfig(learning_rate=1e-30, max_epochs=50, patience=4)
    model = init_model(arch, 2)
    best, hist = train_supervised(model, train, val, cfg)
    assert len(hist) == 4
    assert models_equal(best, model)


def test_train_supervised_never_below_start(rng):
    train, val = _toy_split(rng)
    arch = ArchSpec(input_dim=4, hidden_layers=(), num_classes=3)
    for seed in range(5):
        model = init_model(arch, seed)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=6, patience=6, batch_size=8)
        best, _ = train_supervised(model, train, val, cfg)
        assert (
            evaluate(best, val).overall_accuracy
            >= evaluate(model, val).overall_accuracy
        )


def test_train_rejects_empty_sets(rng):
    train, val = _toy_split(rng)
    arch = ArchSpec(input_dim=4, hidden_layers=(), num_classes=3)
    model = init_model(arch, 0)
    empty = train.subset(np.array([], dtype=np.int64))
    with pytest.raises(DataError):
        train_supervised(model, empty, val, TrainConfig())
    with pytest.raises(DataError):
        train_supervised(model, train, empty, TrainConfig())


def test_train_cells_check_every_set_before_any_training(rng, monkeypatch):
    train, val = _toy_split(rng)
    arch = ArchSpec(input_dim=4, hidden_layers=(), num_classes=3)
    models = [init_model(arch, seed) for seed in range(3)]
    empty = train.subset(np.array([], dtype=np.int64))

    def no_training(*args, **kwargs):
        raise AssertionError("trained before every set was checked")

    monkeypatch.setattr(nn, "train_epoch", no_training)
    for trains, vals in (([train, train, empty], [val] * 3), ([train] * 3, [val, empty, val])):
        with pytest.raises(DataError):
            train_supervised_cells(models, trains, vals, TrainConfig())


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_selected_cells_resume_as_if_never_selected(rng, optimizer):
    # ragged sizes give the cells different Adam step counts before the cut
    arch = ArchSpec(input_dim=3, hidden_layers=(5,), num_classes=3)
    sizes = [23, 13, 8, 5]
    features = [rng.normal(0, 1, size=(n, 3)) for n in sizes]
    hard = [onehot(rng.integers(0, 3, size=n), 3) for n in sizes]
    seeds = [11, 12, 13, 14]

    def run(epochs, keep_after=None):
        start = np.stack([init_model(arch, s).params for s in seeds])
        work = Model.from_params(arch, start, 0)
        momentum = 0.9 if optimizer == "sgd" else 0.0
        opt = make_optimizer(_recipe(optimizer, 0.05, 0.3, momentum), work)
        cells = list(range(len(seeds)))
        for epoch in range(1, epochs + 1):
            if epoch == keep_after:
                work = opt.select([0, 2, 3])
                cells = [0, 2, 3]
            train_epoch(
                opt, [features[i] for i in cells], 4,
                [rng_for(seeds[i], "epoch", epoch) for i in cells],
                hard=[hard[i] for i in cells],
            )
        return work, opt

    whole, whole_opt = run(4)
    cut, cut_opt = run(4, keep_after=3)
    kept = [0, 2, 3]
    assert cut.params.tobytes() == whole.params[kept].tobytes()
    if optimizer == "adam":
        assert cut_opt.t == [whole_opt.t[i] for i in kept]
        assert len(set(whole_opt.t)) > 1
    for name in ("m", "v"):
        assert getattr(cut_opt, name).tobytes() == getattr(whole_opt, name)[kept].tobytes()


def test_ragged_cells_refuse_what_they_cannot_train(rng):
    arch = ArchSpec(input_dim=3, hidden_layers=(), num_classes=2)
    sizes = [6, 3]
    features = [rng.normal(0, 1, size=(n, 3)) for n in sizes]
    hard = [onehot(rng.integers(0, 2, size=n), 2) for n in sizes]
    work = Model.from_params(arch, np.stack([init_model(arch, s).params for s in (1, 2)]), 0)
    opt = make_optimizer(_recipe("adam", 0.1, 0.0, 0.0), work)
    start = work.params.tobytes()
    rngs = [rng_for(s, "epoch", 1) for s in (1, 2)]
    # fixed soft targets, and a live model with the stack's cells
    for soft in (np.full((9, 2), 0.5), Model.from_params(arch, work.params.copy(), 0)):
        with pytest.raises(ShapeError, match="hard targets alone"):
            train_epoch(opt, features, 4, rngs, hard=hard, soft=soft)
    with pytest.raises(ShapeError):
        train_epoch(opt, features[::-1], 4, rngs, hard=hard[::-1])
    with pytest.raises(ShapeError):
        train_epoch(opt, features, 4, rngs[:1], hard=hard)
    with pytest.raises(ShapeError):
        train_epoch(opt, features, 4, rngs, hard=[hard[0], hard[1][:2]])
    assert work.params.tobytes() == start


def test_a_row_order_is_for_a_plain_model_of_its_length(rng):
    arch = ArchSpec(input_dim=3, hidden_layers=(), num_classes=2)
    features = rng.normal(0, 1, size=(6, 3))
    hard = onehot(rng.integers(0, 2, size=6), 2)
    order = rng_for(1, "epoch", 1).permutation(6)
    plain = init_model(arch, 1)
    stack = Model.from_params(arch, np.stack([init_model(arch, s).params for s in (1, 2)]), 0)
    for work, x, y, given in (
        (stack, features, hard, order),
        (stack, [features, features[:3]], [hard, hard[:3]], order),
        (plain, features, hard, order[:5]),
        # a plain model's features are checked before any step
        (plain, features[:, :2], hard, order),
        (plain, features[:, 0], hard, order),
        (plain, features[:, :2], hard, rng_for(1, "epoch", 1)),
        (plain, features[:, 0], hard, rng_for(1, "epoch", 1)),
    ):
        opt = make_optimizer(_recipe("adam", 0.1, 0.0, 0.0), work)
        start = work.params.tobytes()
        with pytest.raises(ShapeError):
            train_epoch(opt, x, 4, given, hard=y)
        assert work.params.tobytes() == start
        assert opt.t == 0


def test_live_soft_model_needs_the_same_cells(rng):
    arch = ArchSpec(input_dim=3, hidden_layers=(4,), num_classes=2)
    features = rng.normal(0, 1, size=(10, 3))
    plain = init_model(arch, 1)
    stack = Model.from_params(arch, np.stack([init_model(arch, s).params for s in (2, 3)]), 0)
    three = Model.from_params(arch, np.stack([init_model(arch, s).params for s in (4, 5, 6)]), 0)
    for work, soft, rng_arg in (
        (plain, stack, rng_for(1, "epoch", 1)),
        (stack, plain, [rng_for(s, "epoch", 1) for s in (1, 2)]),
        (stack, three, [rng_for(s, "epoch", 1) for s in (1, 2)]),
    ):
        opt = make_optimizer(_recipe("adam", 0.1, 0.0, 0.0), work)
        start = work.params.tobytes()
        with pytest.raises(ShapeError, match="live soft model"):
            train_epoch(opt, features, 4, rng_arg, soft=soft)
        assert work.params.tobytes() == start
        assert opt.t == 0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=11, max_epochs=10)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    for kwargs in (
        dict(batch_size="8"),
        dict(batch_size=True),
        dict(max_epochs=True),
        dict(learning_rate="0.1"),
        dict(optimizer="lion"),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


# -- evaluation -------------------------------------------------------------


def _bias_model(logit_rows: np.ndarray) -> Model:
    """Single-layer model with zero weights: constant logits = biases."""
    classes = logit_rows.shape[0]
    arch = ArchSpec(input_dim=1, hidden_layers=(), num_classes=classes)
    model = init_model(arch, 0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = logit_rows
    return model


def test_predict_tie_goes_to_lowest_class():
    model = _bias_model(np.zeros(4))
    preds = predict(model, np.zeros((3, 1)))
    assert np.array_equal(preds, [0, 0, 0])


def test_evaluate_hand_case():
    # constant predictor always answers class 1
    model = _bias_model(np.array([0.0, 5.0, 0.0]))
    data = LabeledDataset(
        features=np.zeros((4, 1)),
        labels=np.array([1, 1, 0, 2], dtype=np.int64),
        class_count=3,
    )
    rep = evaluate(model, data)
    assert rep.overall_accuracy == pytest.approx(0.5)
    assert np.allclose(rep.per_class_accuracy, [0.0, 1.0, 0.0])
    assert np.array_equal(rep.per_class_support, [1, 2, 1])


def test_evaluate_overall_is_support_weighted_mean(rng, pretrained, scenario):
    for model, rep in pretrained:
        support = rep.per_class_support
        weighted = float(np.sum(rep.per_class_accuracy * support) / support.sum())
        assert rep.overall_accuracy == pytest.approx(weighted, abs=1e-12)


def test_evaluate_missing_class_has_zero_support():
    model = _bias_model(np.array([1.0, 0.0, 0.0]))
    data = LabeledDataset(
        features=np.zeros((2, 1)),
        labels=np.array([0, 0], dtype=np.int64),
        class_count=3,
    )
    rep = evaluate(model, data)
    assert rep.per_class_support[1] == 0
    assert rep.per_class_accuracy[1] == 0.0


def test_evaluate_rejects_empty_and_mismatched():
    model = _bias_model(np.zeros(2))
    empty = LabeledDataset(
        features=np.zeros((0, 1)), labels=np.zeros(0, dtype=np.int64), class_count=2
    )
    with pytest.raises(DataError):
        evaluate(model, empty)
    wrong_dim = LabeledDataset(
        features=np.zeros((2, 3)), labels=np.zeros(2, dtype=np.int64), class_count=2
    )
    with pytest.raises(ShapeError):
        forward_logits(model, wrong_dim.features)


def test_evaluate_refuses_non_finite_outputs():
    # argmax over NaN rows would report class 0 as a prediction
    data = LabeledDataset(
        features=np.zeros((2, 1)), labels=np.array([0, 1], dtype=np.int64), class_count=2
    )
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="not finite"):
            evaluate(_bias_model(np.array([bad, 0.0])), data)


def test_eval_report_round_trip(rng):
    rep = EvalReport(
        overall_accuracy=0.625,
        per_class_accuracy=np.array([0.5, 0.75]),
        per_class_support=np.array([4, 4]),
    )
    again = EvalReport.from_dict(rep.as_dict())
    assert reports_equal(rep, again)
