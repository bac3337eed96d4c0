"""Property tests: invariants that must hold for every input, not just a few."""

import math
from itertools import groupby
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kdsim.artifacts import STAGE_PARENTS, config_fingerprint, load_model, save_model
from kdsim.config import parse_config
from dataclasses import replace

from kdsim.data import (
    PARTITION_STRATEGIES,
    TRANSFER_OPTIONS,
    LabeledDataset,
    TransferSet,
    make_partition,
    validate_plan,
)
from kdsim.distill import (
    DistillConfig,
    distill_dml,
    distill_dml_cells,
    distill_dpkd,
    distill_dpkd_cells,
    distill_multi_teacher,
    distill_vanilla,
    distill_vanilla_benches,
    dpkd_masks,
    effective_teachers,
    equal_teacher_weights,
    masked_targets,
    merged_teacher_target,
)
from kdsim.errors import ConfigError, PartitionError
from kdsim.fed import (
    FedConfig,
    fedavg_aggregate,
    local_update,
    preconsolidated_fedavg,
    run_federated,
)
from kdsim.nn import (
    OPTIMIZERS,
    ArchSpec,
    Model,
    TrainConfig,
    _forward_cached,
    backprop_params,
    evaluate,
    forward_logits,
    init_model,
    make_optimizer,
    onehot,
    softmax,
    train_epoch,
    train_supervised,
    train_supervised_cells,
)
import kdsim.nn as nn
import kdsim.orchestrate as orchestrate
from kdsim.orchestrate import (
    MATRIX_METHODS,
    START_POLICIES,
    WEIGHTINGS,
    ConsolidateSpec,
    GridSpec,
    PartitionSpec,
    PoolSpec,
    grid_search_teachers,
    grid_search_tuned,
)
from kdsim.seeding import rng_for, stable_seed

PROPERTY = settings(max_examples=60, deadline=None, database=None)


@st.composite
def _teacher_ensembles(draw):
    n = draw(st.integers(1, 8))
    classes = draw(st.integers(2, 5))
    teachers = draw(st.integers(1, 4))
    temperature = draw(st.floats(0.1, 8.0))
    logits = draw(arrays(np.float64, (n, classes), elements=st.floats(-20, 20)))
    probs = [
        softmax(draw(arrays(np.float64, (n, classes), elements=st.floats(-10, 10))), 1.0)
        for _ in range(teachers)
    ]
    weights = [
        draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0))) for _ in range(teachers)
    ]
    # some rows where every teacher is silenced
    silent = draw(arrays(np.bool_, n))
    for w in weights:
        w[silent] = 0.0
    return logits, probs, weights, temperature


@PROPERTY
@given(_teacher_ensembles())
def test_merged_multi_teacher_target_matches_weighted_ensemble_gradient(case):
    logits, probs, weights, temperature = case
    target, total = merged_teacher_target(probs, weights)
    student = softmax(logits, temperature)
    # the kd term nn.train_epoch forms from the merged target, against the
    # gradient of weighted_ensemble_kl: sum_j w_j (s - t_j) T / n
    merged = temperature * (total[:, None] * (student - target)) / len(logits)
    literal = sum(w[:, None] * (student - t) for t, w in zip(probs, weights))
    literal = literal * temperature / len(logits)
    np.testing.assert_allclose(merged, literal, rtol=0, atol=1e-12)
    assert np.all(target[total == 0] == 0.0)


@st.composite
def _models(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    dims[-1] = max(dims[-1], 2)
    arch = ArchSpec(input_dim=dims[0], hidden_layers=tuple(dims[1:-1]), num_classes=dims[-1])
    any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    weights = [draw(arrays(np.float64, (a, b), elements=any_float)) for a, b in zip(dims, dims[1:])]
    biases = [draw(arrays(np.float64, b, elements=any_float)) for b in dims[1:]]
    return Model(arch=arch, weights=weights, biases=biases, seed=draw(st.integers(0, 2**64 - 1)))


@PROPERTY
@given(model=_models(), fingerprint=st.text("0123456789abcdef", max_size=32))
def test_model_file_round_trip_is_bit_exact(tmp_path_factory, model, fingerprint):
    path = tmp_path_factory.mktemp("model") / "m.kdsm"
    save_model(path, model, fingerprint)
    back = load_model(path, fingerprint)
    assert back.arch == model.arch and back.seed == model.seed
    for got, want in zip(back.weights + back.biases, model.weights + model.biases):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _partition_case(strategy):
    return st.integers(2, 5).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(st.integers(8, 60), min_size=c, max_size=c),
            st.just(c) if strategy == "specialized" else st.integers(2, 4),
            st.integers(0, 2**32 - 1),
        )
    )


# strategies documented to assign every sample; the rest drop some by design
ASSIGN_ALL = ("quantity_skew", "label_skew_dirichlet")
PARAMS = {"label_skew_chunks": {"min_chunk": 3}}


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
@PROPERTY
@given(data=st.data())
def test_partition_plans_are_disjoint_in_range_and_cover_their_share(strategy, data):
    classes, counts, k, seed = data.draw(_partition_case(strategy))
    labels = np.repeat(np.arange(classes), counts)
    dataset = LabeledDataset(
        features=np.zeros((len(labels), 1)), labels=labels, class_count=classes
    )
    try:
        partition = PartitionSpec(strategy, k, **PARAMS.get(strategy, {}))
        plan = make_partition(dataset, partition, seed)
    except PartitionError:
        return  # a documented refusal, not a broken plan
    assert plan.k == k
    validate_plan(plan, len(dataset))  # disjoint, in range, none empty
    taken = np.concatenate(plan.participants)
    if strategy in ASSIGN_ALL:
        assert np.array_equal(np.sort(taken), np.arange(len(dataset)))
    if strategy == "uniform":
        # every class loses only its remainder modulo k
        per_class = np.bincount(labels[taken], minlength=classes)
        assert np.array_equal(per_class, k * (np.asarray(counts) // k))


# -- seeds ------------------------------------------------------------------

_seed_part = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(st.characters(exclude_characters="\x00"), max_size=6),
)
_seed_parts = st.lists(_seed_part, max_size=4)


def _typed(parts):
    # the identity stable_seed promises to separate: type and repr
    return tuple((type(p), repr(p)) for p in parts)


@PROPERTY
@given(a=_seed_parts, b=_seed_parts, extend=st.booleans())
def test_distinct_seed_tuples_give_distinct_seeds(a, b, extend):
    if extend:
        b = a + b  # a prefix of b, or all of it when b is empty
    assert (stable_seed(*a) == stable_seed(*b)) == (_typed(a) == _typed(b))


@PROPERTY
@given(st.text(), st.text())
def test_strings_holding_nul_are_refused(head, tail):
    with pytest.raises(ValueError):
        stable_seed(head + "\x00" + tail)


# -- run configuration ------------------------------------------------------

_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=12)
_positive = st.one_of(
    st.integers(1, 50), st.floats(min_value=0, exclude_min=True, allow_infinity=False)
)
_rate = st.floats(0, 1, exclude_max=True)
_unit = st.floats(0, 1)


def _optimizer_keys(draw, allow_zero_lr=False):
    return {
        "optimizer": draw(st.sampled_from(OPTIMIZERS)),
        "learning_rate": draw(st.floats(0, 10) if allow_zero_lr else _positive),
        "weight_decay": draw(st.floats(0, 1)),
        "momentum": draw(_rate),
        "batch_size": draw(st.integers(1, 256)),
    }


@st.composite
def _run_configs(draw):
    """Raw trees that parse_config accepts, every section present."""
    classes = draw(st.integers(2, 12))
    strategy = draw(st.sampled_from(PARTITION_STRATEGIES))
    k = classes if strategy == "specialized" else draw(st.integers(1, 12))
    counts = {n: draw(st.integers(1, 500)) for n in ("labeled", "unlabeled_small", "unlabeled_large")}
    max_epochs = draw(st.integers(1, 200))
    start_policy = draw(st.sampled_from(START_POLICIES))
    options = TRANSFER_OPTIONS[1:] if start_policy == "untrained" else TRANSFER_OPTIONS
    return {
        "seed": draw(st.integers(0, 2**63)),
        "out_dir": draw(_text),
        "jobs": draw(st.integers(1, 64)),
        "dataset": draw(st.one_of(
            st.fixed_dictionaries({
                "kind": st.just("toy"), "classes": st.just(classes), "dim": st.integers(1, 50),
                "train_per_class": st.integers(1, 500), "test_per_class": st.integers(1, 500),
                "spread": _positive,
            }),
            st.fixed_dictionaries({"kind": st.just("csv"), "train_path": _text, "test_path": _text}),
        )),
        "partition": {
            "strategy": strategy, "k": k, "beta": draw(_positive),
            "dominant_fraction": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
            "min_chunk": draw(st.integers(1, 100)),
            "betas": draw(st.none() | st.lists(_positive, min_size=k, max_size=k)),
            "val_fraction": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        },
        "pool": {"size": max(counts.values()) + draw(st.integers(0, 100)), **counts},
        "model": {"hidden_layers": draw(st.lists(st.integers(1, 128), max_size=3))},
        "pretrain": {
            **_optimizer_keys(draw),
            "max_epochs": max_epochs,
            "patience": draw(st.integers(1, max_epochs)),
        },
        "distill": {
            **_optimizer_keys(draw),
            "methods": draw(st.lists(
                st.sampled_from(MATRIX_METHODS), min_size=1, max_size=4, unique=True
            )),
            "transfer_options": draw(st.lists(
                st.sampled_from(TRANSFER_OPTIONS), min_size=1, max_size=4, unique=True
            )),
            "temperature": draw(_positive),
            "alpha": draw(_unit),
            "epochs": draw(st.integers(1, 100)),
        },
        "grid": {
            "temperatures": draw(st.lists(_positive, min_size=1, max_size=4)),
            "alphas": draw(st.lists(_unit, min_size=1, max_size=4)),
            "sequential": draw(st.booleans()),
        },
        "consolidate": {
            "start_policy": start_policy,
            "weighting": draw(st.sampled_from(WEIGHTINGS)),
            "transfer_option": draw(st.sampled_from(options)),
            "epochs": draw(st.integers(1, 100)),
        },
        "fed": {
            **_optimizer_keys(draw, allow_zero_lr=True),
            "rounds": draw(st.integers(1, 500)),
            "local_epochs": draw(st.integers(1, 10)),
            "participation_rate": draw(st.floats(0, 1, exclude_min=True)),
        },
        "report": {"format": draw(st.sampled_from(("csv", "json")))},
    }


@PROPERTY
@given(raw=_run_configs())
def test_validated_config_survives_a_yaml_round_trip(tmp_path_factory, raw):
    cfg = parse_config(None, raw)
    path = tmp_path_factory.mktemp("config") / "run.yaml"
    path.write_text(yaml.safe_dump(cfg.as_dict()))
    back = parse_config(path)
    assert back.as_dict() == cfg.as_dict()
    for stage in STAGE_PARENTS:
        assert config_fingerprint(back, stage) == config_fingerprint(cfg, stage)


def _optimizer_values(allow_zero_lr=False):
    """Strategies of valid values for the five optimizer keys."""
    return {
        "optimizer": st.sampled_from(OPTIMIZERS),
        "learning_rate": st.floats(0, 10) if allow_zero_lr else _positive,
        "weight_decay": st.floats(0, 1),
        "momentum": _rate,
        "batch_size": st.integers(1, 256),
    }


# Each section that is a library class: the class and valid values per key.
_RECIPES = {
    "pretrain": (TrainConfig, {
        **_optimizer_values(),
        "max_epochs": st.integers(1, 200),
        "patience": st.integers(1, 20),
    }),
    "distill": (DistillConfig, {
        **_optimizer_values(),
        "temperature": _positive,
        "alpha": _unit,
        "epochs": st.integers(1, 100),
    }),
    "fed": (FedConfig, {
        **_optimizer_values(allow_zero_lr=True),
        "rounds": st.integers(1, 500),
        "local_epochs": st.integers(1, 10),
        "participation_rate": st.floats(0, 1, exclude_min=True),
    }),
    "grid": (GridSpec, {
        "temperatures": st.lists(_positive, min_size=1, max_size=4),
        "alphas": st.lists(_unit, min_size=1, max_size=4),
        "sequential": st.booleans(),
    }),
    # without specialized, which needs k == dataset.classes: a rule of
    # the run, not of the section
    "partition": (PartitionSpec, {
        "strategy": st.sampled_from([s for s in PARTITION_STRATEGIES if s != "specialized"]),
        "k": st.integers(1, 12),
        "beta": _positive,
        "dominant_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "min_chunk": st.integers(1, 100),
        "betas": st.none() | st.lists(_positive, min_size=10, max_size=10),
        "val_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
    }),
    # without size, which must cover the options a run uses: a rule of
    # the run, not of the section
    "pool": (PoolSpec, {
        name: st.integers(1, 600) for name in ("labeled", "unlabeled_small", "unlabeled_large")
    }),
    "consolidate": (ConsolidateSpec, {
        "start_policy": st.sampled_from(START_POLICIES),
        "weighting": st.sampled_from(WEIGHTINGS),
        "transfer_option": st.sampled_from(TRANSFER_OPTIONS),
        "epochs": st.integers(1, 100),
    }),
}
_odd_values = st.one_of(
    st.sampled_from([True, False, None, "8", "adam ", [1], float("inf"), float("-inf")]),
    st.integers(-3, 0),
    st.floats(allow_nan=True),
)


@st.composite
def _recipe_sections(draw):
    """A library-class section whose keys take valid or invalid values."""
    name = draw(st.sampled_from(sorted(_RECIPES)))
    cls, valid = _RECIPES[name]
    keys = draw(st.lists(st.sampled_from(sorted(valid)), unique=True))
    return name, cls, {key: draw(valid[key] | _odd_values) for key in keys}


@PROPERTY
@given(_recipe_sections())
def test_config_sections_report_exactly_the_library_findings(case):
    name, cls, values = case
    probe = cls()
    for key, value in values.items():
        setattr(probe, key, value)
    found = sorted(f"{name}.{msg}" for msg in probe.problems())
    try:
        parse_config(None, {name: values})
        reported = []
    except ConfigError as err:
        reported = [line.strip() for line in str(err).splitlines()[1:]]
    assert reported == found
    if found:
        with pytest.raises(ConfigError):
            cls(**values)
    else:
        cls(**values)


@st.composite
def _vanilla_cells(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 4))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(1, 8))
    # often a ragged last minibatch
    n = batch * draw(st.integers(0, 2)) + draw(st.integers(1, batch))
    origin = draw(st.sampled_from(["student_data", "public_labeled", "public_unlabeled_small"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labeled = origin != "public_unlabeled_small"
    transfer = TransferSet(
        features=data.normal(0, 1, size=(n, dim)),
        labels=data.integers(0, classes, size=n) if labeled else None,
        origin=origin,
    )
    optimizer, momentum = draw(st.sampled_from([("adam", 0.0), ("sgd", 0.9)]))
    cfg = DistillConfig(
        temperature=draw(st.sampled_from([0.5, 1.0, 3.0])),
        epochs=draw(st.integers(1, 2)),
        optimizer=optimizer,
        learning_rate=0.05,
        weight_decay=draw(st.sampled_from([0.0, 0.3])),
        batch_size=batch,
        momentum=momentum,
    )
    alphas = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1, max_size=5))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(alphas), max_size=len(alphas)))
    student = init_model(arch, draw(st.integers(0, 2**32)))
    teacher = init_model(arch, draw(st.integers(0, 2**32)))
    return student, teacher, transfer, cfg, alphas, seeds


def _alpha_weights(alpha, labeled):
    """The loss weights `nn.train_epoch` takes for alpha, one float or one
    per cell: (1 - alpha, alpha) for CE and KL with labels, none (the KL
    term alone) without."""
    if not labeled:
        return {}
    if isinstance(alpha, list):
        return dict(ce_weight=[1.0 - a for a in alpha], kd_weight=alpha)
    return dict(ce_weight=1.0 - alpha, kd_weight=alpha)


def _plain_vanilla(student, teacher, transfer, cfg, seed):
    """Reference: one unstacked model through nn.train_epoch."""
    bench = effective_teachers(student, [teacher], transfer.origin)
    soft = np.mean(
        [softmax(forward_logits(t, transfer.features), cfg.temperature) for t in bench], axis=0
    )
    hard = None
    if transfer.labeled:
        hard = onehot(transfer.labels, student.arch.num_classes)
    weights = _alpha_weights(cfg.alpha, transfer.labeled)
    work = student.copy()
    opt = make_optimizer(cfg, work)
    for epoch in range(1, cfg.epochs + 1):
        train_epoch(
            opt, transfer.features, cfg.batch_size, rng_for(seed, "epoch", epoch),
            hard=hard, soft=soft, temperature=cfg.temperature, **weights,
        )
    return work


@PROPERTY
@given(_vanilla_cells())
def test_stacked_cells_are_byte_identical_to_one_cell_runs(run):
    student, teacher, transfer, cfg, alphas, seeds = run
    before = student.params.tobytes()
    cells = distill_vanilla_benches(
        [student] * len(seeds), [[teacher]] * len(seeds), transfer, cfg, alphas, seeds
    )
    assert student.params.tobytes() == before
    assert len(cells) == len(alphas)
    for model, alpha, seed in zip(cells, alphas, seeds):
        cell_cfg = replace(cfg, alpha=alpha)
        want = distill_vanilla(student, [teacher], transfer, cell_cfg, seed).params.tobytes()
        assert model.params.shape == student.params.shape
        assert model.params.tobytes() == want
        assert _plain_vanilla(student, teacher, transfer, cell_cfg, seed).params.tobytes() == want


@st.composite
def _student_groups(draw):
    """One student, several teachers, a transfer set whose last minibatch
    is often ragged, and a run config (Adam or momentum SGD, T in {1, 3})."""
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 10))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(1, 8))
    n = batch * draw(st.integers(0, 2)) + draw(st.integers(1, batch))
    origin = draw(st.sampled_from(["student_data", "public_labeled", "public_unlabeled_small"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transfer = TransferSet(
        features=data.normal(0, 1, size=(n, dim)),
        labels=data.integers(0, classes, size=n) if origin != "public_unlabeled_small" else None,
        origin=origin,
    )
    optimizer, momentum = draw(st.sampled_from([("adam", 0.0), ("sgd", 0.9)]))
    cfg = DistillConfig(
        temperature=draw(st.sampled_from([1.0, 3.0])),
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
        epochs=draw(st.integers(1, 2)),
        optimizer=optimizer,
        learning_rate=0.05,
        weight_decay=draw(st.sampled_from([0.0, 0.3])),
        batch_size=batch,
        momentum=momentum,
    )
    cells = draw(st.integers(1, 4))
    seed_lists = st.lists(st.integers(0, 2**32), min_size=cells, max_size=cells)
    teachers = [init_model(arch, s) for s in draw(seed_lists)]
    seeds = draw(seed_lists)
    return init_model(arch, draw(st.integers(0, 2**32))), teachers, transfer, cfg, seeds


def _plain_dml(peer_a, peer_b, transfer_a, transfer_b, cfg, seed):
    """Reference: two unstacked peers stepping in turn, each on its own
    set, over the shorter batch schedule."""
    sets = (transfer_a, transfer_b)
    classes = peer_a.arch.num_classes
    hard = [onehot(t.labels, classes) if t.labeled else None for t in sets]
    work = [peer_a.copy(), peer_b.copy()]
    opts = [make_optimizer(cfg, w) for w in work]
    for epoch in range(1, cfg.epochs + 1):
        orders = [
            rng_for(seed, peer, epoch).permutation(len(t))
            for peer, t in zip(("peer-a", "peer-b"), sets)
        ]
        for start in range(0, min(len(t) for t in sets), cfg.batch_size):
            for me in (0, 1):
                idx = orders[me][start : start + cfg.batch_size]
                rows = sets[me].features[idx]
                logits, acts = _forward_cached(work[me], rows)
                probs = softmax(logits, 1.0)
                partner = softmax(forward_logits(work[1 - me], rows), 1.0)
                dlogits = (probs - partner) / len(idx)
                if hard[me] is not None:
                    dlogits = dlogits + (probs - hard[me][idx]) / len(idx)
                backprop_params(work[me], acts, dlogits, out=opts[me].grad_views)
                opts[me].step()
    return work


def _plain_dpkd(student, teacher, transfer, cfg, seed, supervised):
    """Reference: masks and targets computed apart, one unstacked model."""
    masks = dpkd_masks(teacher, student, transfer, supervised)
    soft = masked_targets(
        softmax(forward_logits(teacher, transfer.features), cfg.temperature),
        softmax(forward_logits(student, transfer.features), cfg.temperature),
        masks,
    )
    work = student.copy()
    opt = make_optimizer(cfg, work)
    for epoch in range(1, cfg.epochs + 1):
        train_epoch(
            opt, transfer.features, cfg.batch_size, rng_for(seed, "epoch", epoch),
            soft=soft, temperature=cfg.temperature,
        )
    return work


def _bytes(models):
    return [m.params.tobytes() for m in models]


@PROPERTY
@given(_student_groups())
def test_stacked_teacher_cells_equal_one_cell_vanilla_runs(run):
    student, teachers, transfer, cfg, seeds = run
    cells = distill_vanilla_benches(
        [student] * len(seeds), [[t] for t in teachers], transfer, cfg,
        [cfg.alpha] * len(seeds), seeds,
    )
    assert _bytes(cells) == _bytes(
        [distill_vanilla(student, [t], transfer, cfg, s) for t, s in zip(teachers, seeds)]
    )
    # the first teacher's cell against a plain, unstacked run
    assert cells[0].params.tobytes() == _plain_vanilla(
        student, teachers[0], transfer, cfg, seeds[0]
    ).params.tobytes()


@PROPERTY
@given(_student_groups(), st.booleans())
def test_stacked_dpkd_cells_equal_one_cell_runs(run, supervised):
    student, teachers, transfer, cfg, seeds = run
    supervised = transfer.labeled and supervised
    cells = distill_dpkd_cells([student] * len(seeds), teachers, transfer, cfg, seeds, supervised)
    assert _bytes(cells) == _bytes(
        [distill_dpkd(student, t, transfer, cfg, s, supervised) for t, s in zip(teachers, seeds)]
    )
    assert cells[0].params.tobytes() == _plain_dpkd(
        student, teachers[0], transfer, cfg, seeds[0], supervised
    ).params.tobytes()


@PROPERTY
@given(_student_groups(), st.data())
def test_cells_of_several_students_equal_their_one_cell_runs(run, data):
    # as in the matrix on a public set: two students' cells in one stack,
    # and a model that is one cell's student and another's teacher
    student, teachers, transfer, cfg, seeds = run
    other = data.draw(st.sampled_from([init_model(student.arch, 5), teachers[-1]]))
    students = [data.draw(st.sampled_from([student, other])) for _ in seeds]
    alphas = [data.draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in seeds]
    supervised = transfer.labeled and data.draw(st.booleans())
    vanilla = distill_vanilla_benches(
        students, [[t] for t in teachers], transfer, cfg, alphas, seeds
    )
    dpkd = distill_dpkd_cells(students, teachers, transfer, cfg, seeds, supervised)
    for s, t, alpha, seed, v, d in zip(students, teachers, alphas, seeds, vanilla, dpkd):
        one = distill_vanilla(s, [t], transfer, replace(cfg, alpha=alpha), seed)
        assert v.params.tobytes() == one.params.tobytes()
        one = distill_dpkd(s, t, transfer, cfg, seed, supervised)
        assert d.params.tobytes() == one.params.tobytes()


@PROPERTY
@pytest.mark.filterwarnings("ignore:mutual learning without labels")
@given(_student_groups())
def test_stacked_dml_cells_equal_one_cell_runs(run):
    student, teachers, transfer, cfg, seeds = run
    peers_a, peers_b = distill_dml_cells(
        [student] * len(seeds), teachers, transfer, transfer, cfg, seeds
    )
    one_cell = [
        distill_dml(student, t, transfer, transfer, cfg, s) for t, s in zip(teachers, seeds)
    ]
    assert _bytes(peers_a) == _bytes([a for a, _ in one_cell])
    assert _bytes(peers_b) == _bytes([b for _, b in one_cell])
    plain_a, plain_b = _plain_dml(student, teachers[0], transfer, transfer, cfg, seeds[0])
    assert (peers_a[0].params.tobytes(), peers_b[0].params.tobytes()) == (
        plain_a.params.tobytes(),
        plain_b.params.tobytes(),
    )


@st.composite
def _uneven_dml_groups(draw):
    """A mutual-learning group, its transfer set, and a second set with
    one or two more minibatches, labeled or not."""
    student, teachers, transfer, cfg, seeds = draw(_student_groups())
    batch = cfg.batch_size
    n = -(-len(transfer) // batch) * batch + draw(st.integers(1, 2 * batch))
    origin = draw(st.sampled_from(["student_data", "public_labeled", "public_unlabeled_small"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    longer = TransferSet(
        features=data.normal(0, 1, size=(n, student.arch.input_dim)),
        labels=(
            data.integers(0, student.arch.num_classes, size=n)
            if origin != "public_unlabeled_small" else None
        ),
        origin=origin,
    )
    return student, teachers, transfer, longer, cfg, seeds


@PROPERTY
@pytest.mark.filterwarnings("ignore:mutual learning without labels")
@pytest.mark.parametrize("a_longer", [True, False])
@given(_uneven_dml_groups())
def test_dml_peers_step_over_the_shorter_schedule(a_longer, run):
    student, teachers, shorter, longer, cfg, seeds = run
    set_a, set_b = (longer, shorter) if a_longer else (shorter, longer)
    peers_a, peers_b = distill_dml_cells(
        [student] * len(seeds), teachers, set_a, set_b, cfg, seeds
    )
    for a, b, teacher, seed in zip(peers_a, peers_b, teachers, seeds):
        one_a, one_b = distill_dml(student, teacher, set_a, set_b, cfg, seed)
        plain_a, plain_b = _plain_dml(student, teacher, set_a, set_b, cfg, seed)
        assert a.params.tobytes() == one_a.params.tobytes() == plain_a.params.tobytes()
        assert b.params.tobytes() == one_b.params.tobytes() == plain_b.params.tobytes()


@st.composite
def _cross_teacher_searches(draw):
    """One student's tuned searches against two to four teachers: a grid
    whose alphas may hold 0 and 1, T in {1, 3}, either search mode, and
    sometimes a learning rate so small that every gain ties."""
    student, teachers, transfer, cfg, _ = draw(_student_groups())
    if len(teachers) == 1:  # one teacher is grid_search_tuned's own case
        teachers.append(init_model(student.arch, draw(st.integers(0, 2**32))))
    cfg = replace(cfg, learning_rate=draw(st.sampled_from([0.5, 1e-12])))
    grid = GridSpec(
        temperatures=draw(st.permutations([1.0, 3.0])),
        alphas=draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=2, unique=True)),
        sequential=draw(st.booleans()),
    )
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    classes = student.arch.num_classes
    select = LabeledDataset(
        features=data.normal(0, 1, size=(n, student.arch.input_dim)),
        labels=data.integers(0, classes, size=n),
        class_count=classes,
    )
    keep = (draw(st.sampled_from(grid.temperatures)), draw(st.sampled_from(grid.alphas)))
    return student, teachers, transfer, cfg, grid, select, keep


@PROPERTY
@given(_cross_teacher_searches())
def test_cross_teacher_search_equals_one_pair_searches(run):
    student, teachers, transfer, cfg, grid, select, keep = run
    seed_fns = [lambda t, a, i=i: stable_seed(7, "pair", i, t, a) for i in range(len(teachers))]
    trained = {}  # (teacher index, temperature, alpha) -> parameter bytes
    benches = orchestrate.distill_vanilla_benches

    def recording(*args):
        models = benches(*args)
        _, stack_benches, _, _, alphas, _, temperatures = args
        for (teacher,), t, alpha, model in zip(stack_benches, temperatures, alphas, models):
            trained[teachers.index(teacher), t, alpha] = model.params.tobytes()
        return models

    with patch.object(orchestrate, "distill_vanilla_benches", recording):
        got = grid_search_teachers(
            student, teachers, transfer, grid, cfg, select, seed_fns, keep
        )
        together = dict(trained)
        trained.clear()
        want = [
            grid_search_tuned(student, t, transfer, grid, cfg, select, f)
            for t, f in zip(teachers, seed_fns)
        ]
    # every cell the searches trained side by side equals its one-pair cell
    assert together == trained
    for i, (search, one) in enumerate(zip(got, want)):
        assert search.surface == one.surface
        assert set(search.surface) == {(t, a) for j, t, a in trained if j == i}
        assert (search.best_temperature, search.best_alpha) == (
            one.best_temperature, one.best_alpha
        )
        assert search.best_model.params.tobytes() == one.best_model.params.tobytes()
        kept = None if search.kept_model is None else search.kept_model.params.tobytes()
        assert kept == trained.get((i, *keep))


@st.composite
def _unlabeled_searches(draw):
    """A one-teacher search on public_unlabeled_small over small
    temperature and alpha axes, with the configured alpha on the alpha
    axis or, at 0.75, off it."""
    student, (teacher, *_), _, cfg, _ = draw(_student_groups())
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = student.arch
    rows = draw(st.integers(1, 3 * cfg.batch_size))
    transfer = TransferSet(
        features=data.normal(0, 1, size=(rows, arch.input_dim)),
        labels=None,
        origin="public_unlabeled_small",
    )
    n = draw(st.integers(1, 30))
    select = LabeledDataset(
        features=data.normal(0, 1, size=(n, arch.input_dim)),
        labels=data.integers(0, arch.num_classes, size=n),
        class_count=arch.num_classes,
    )
    grid = GridSpec(
        temperatures=draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=1, unique=True)),
        alphas=draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, unique=True)),
    )
    cfg = replace(cfg, alpha=draw(st.sampled_from([*grid.alphas, 0.75])))
    return student, teacher, transfer, cfg, grid, select


@settings(max_examples=10, deadline=None, database=None)
@given(_unlabeled_searches())
def test_unlabeled_search_scans_temperatures_at_the_configured_alpha(run):
    # without labels alpha never enters the loss: each temperature trains
    # one cell, the configured alpha's, under that cell's seed
    student, teacher, transfer, cfg, grid, select = run
    seed_fn = lambda t, a: stable_seed(7, "pair", t, a)
    got, full = [
        grid_search_tuned(
            student, teacher, transfer, replace(grid, sequential=sequential), cfg, select,
            seed_fn,
        )
        for sequential in (True, False)
    ]
    assert set(got.surface) == {(float(t), cfg.alpha) for t in grid.temperatures}
    assert got.best_alpha == cfg.alpha
    t = got.best_temperature
    want = distill_vanilla(
        student, [teacher], transfer, replace(cfg, temperature=t), seed_fn(t, cfg.alpha)
    )
    assert got.best_model.params.tobytes() == want.params.tobytes()
    # with one alpha the two modes train the same cells
    assert full.surface == got.surface
    assert (full.best_temperature, full.best_alpha) == (t, cfg.alpha)
    assert full.best_model.params.tobytes() == want.params.tobytes()


@st.composite
def _tied_searches(draw):
    """1-3 side-by-side searches over a small grid in either mode, whose
    cells score gains drawn from 2-3 values, so that ties are common, and
    a cell to keep."""
    temperatures = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, unique=True))
    alphas = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=3,
                           unique=True))
    grid = GridSpec(temperatures=temperatures, alphas=alphas, sequential=draw(st.booleans()))
    count = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from([-25.0, 0.0, 12.5, 50.0]), min_size=2, max_size=3,
                           unique=True))
    gains = {
        (i, t, a): draw(st.sampled_from(values))
        for i in range(count) for t in temperatures for a in alphas
    }
    keep = (draw(st.sampled_from(temperatures)), draw(st.sampled_from(alphas)))
    return count, grid, gains, keep


@PROPERTY
@given(_tied_searches())
def test_each_search_picks_its_surface_argmax_and_keeps_that_cell_s_model(run):
    count, grid, gains, keep = run
    sentinels = {cell: object() for cell in gains}
    run_cells = lambda cells: [(gains[cell], sentinels[cell]) for cell in cells]
    results = orchestrate._search(count, grid, run_cells, keep)
    assert len(results) == count
    for i, result in enumerate(results):
        assert result.surface == {(t, a): gains[i, t, a] for t, a in result.surface}
        best = (result.best_temperature, result.best_alpha)
        assert best == orchestrate.argmax_surface(result.surface)
        # the highest gain, and among the cells tied at it the lowest (T, alpha)
        top = max(result.surface.values())
        assert best == min(cell for cell, gain in result.surface.items() if gain == top)
        assert result.best_model is sentinels[(i, *best)]
        want_kept = sentinels[(i, *keep)] if keep in result.surface else None
        assert result.kept_model is want_kept


@st.composite
def _mixed_temperature_cells(draw):
    """Two or more vanilla cells of one student on one set, labeled or
    not, each with one of two teachers, alpha in {0, 0.5, 1} (with labels
    0 and 1 drop a loss term) and a temperature; the temperatures mix 1.0
    and other values."""
    student, teacher, transfer, cfg, _, _ = draw(_vanilla_cells())
    other = init_model(student.arch, draw(st.integers(0, 2**32)))
    temperatures = draw(st.permutations([
        1.0,
        draw(st.sampled_from([0.5, 3.0])),
        *draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), max_size=4)),
    ]))
    n = len(temperatures)
    benches = [[draw(st.sampled_from([teacher, other]))] for _ in range(n)]
    alphas = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=n, max_size=n))
    return student, benches, transfer, cfg, alphas, seeds, temperatures


@PROPERTY
@given(_mixed_temperature_cells())
def test_cells_at_mixed_temperatures_equal_one_cell_runs_at_their_own(run):
    student, benches, transfer, cfg, alphas, seeds, temperatures = run
    cells = distill_vanilla_benches(
        [student] * len(seeds), benches, transfer, cfg, alphas, seeds, temperatures
    )
    for model, bench, alpha, seed, t in zip(cells, benches, alphas, seeds, temperatures):
        cell_cfg = replace(cfg, temperature=t, alpha=alpha)
        want = distill_vanilla(student, bench, transfer, cell_cfg, seed).params.tobytes()
        assert model.params.tobytes() == want
        assert _plain_vanilla(student, bench[0], transfer, cell_cfg, seed).params.tobytes() == want


def _row_at_a_time(student, teachers, transfer, grid, cfg, select, seed_fns, keep):
    """Reference for `grid_search_teachers`: the same searches, with each
    temperature's cells of a phase trained as one stack at that
    temperature, each scored on its own."""
    if not transfer.labeled:
        grid = replace(grid, alphas=[cfg.alpha])
    pre = evaluate(student, select).overall_accuracy

    def run_cells(cells):
        for t, row in groupby(cells, key=lambda cell: cell[1]):
            row = list(row)
            models = distill_vanilla_benches(
                [student] * len(row), [[teachers[i]] for i, _, _ in row], transfer,
                replace(cfg, temperature=t), [a for _, _, a in row],
                [seed_fns[i](t, a) for i, _, a in row],
            )
            for model in models:
                yield (evaluate(model, select).overall_accuracy - pre) * 100.0, model

    return orchestrate._search(len(teachers), grid, run_cells, keep)


@st.composite
def _mixed_stack_searches(draw):
    """`_cross_teacher_searches` on one to three temperatures out of
    {0.5, 1, 3}, with up to twelve teachers, so that a phase spans
    several stacks."""
    student, teachers, transfer, cfg, grid, select, keep = draw(_cross_teacher_searches())
    teachers += [
        init_model(student.arch, seed)
        for seed in draw(st.lists(st.integers(0, 2**32), max_size=12 - len(teachers)))
    ]
    temperatures = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=1, unique=True))
    return student, teachers, transfer, cfg, replace(grid, temperatures=temperatures), select, keep


@settings(max_examples=25, deadline=None, database=None)
@given(_mixed_stack_searches())
def test_searches_stacked_across_temperatures_equal_row_at_a_time_searches(run):
    student, teachers, transfer, cfg, grid, select, keep = run
    seed_fns = [lambda t, a, i=i: stable_seed(7, "pair", i, t, a) for i in range(len(teachers))]
    got = grid_search_teachers(student, teachers, transfer, grid, cfg, select, seed_fns, keep)
    want = _row_at_a_time(student, teachers, transfer, grid, cfg, select, seed_fns, keep)
    for search, ref in zip(got, want, strict=True):
        assert search.surface == ref.surface
        assert list(search.surface) == list(ref.surface)
        assert (search.best_temperature, search.best_alpha) == (
            ref.best_temperature, ref.best_alpha
        )
        assert search.best_model.params.tobytes() == ref.best_model.params.tobytes()
        if ref.kept_model is None:
            assert search.kept_model is None
        else:
            assert search.kept_model.params.tobytes() == ref.kept_model.params.tobytes()


@st.composite
def _supervised_cells(draw):
    """One to five participants with training sets below, equal to and
    multiples of the batch size, Adam or momentum SGD with or without
    weight decay, and patience short enough that cells stop apart."""
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 4))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(1, 8))
    optimizer, momentum = draw(st.sampled_from([("adam", 0.0), ("sgd", 0.9)]))
    max_epochs = draw(st.integers(1, 6))
    cfg = TrainConfig(
        optimizer=optimizer,
        learning_rate=draw(st.sampled_from([0.05, 0.3])),
        weight_decay=draw(st.sampled_from([0.0, 0.3])),
        batch_size=batch,
        max_epochs=max_epochs,
        patience=draw(st.integers(1, max_epochs)),
        momentum=momentum,
    )
    size = st.one_of(
        st.integers(1, batch),
        st.integers(1, 3).map(lambda k: k * batch),
        st.integers(1, 4 * batch),
    )
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def dataset(n):
        labels = data.integers(0, classes, size=n)
        features = data.normal(0, 1, size=(n, dim))
        features[:, 0] += labels  # something to learn
        return LabeledDataset(features=features, labels=labels, class_count=classes)

    cells = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=cells, max_size=cells))
    models = [init_model(arch, seed) for seed in seeds]
    trains = [dataset(draw(size)) for _ in range(cells)]
    vals = [dataset(draw(st.integers(1, 6))) for _ in range(cells)]
    return models, trains, vals, cfg


@PROPERTY
@given(_supervised_cells())
def test_ragged_supervised_cells_equal_one_cell_runs(run):
    models, trains, vals, cfg = run
    trained = train_supervised_cells(models, trains, vals, cfg)
    for i, model in enumerate(models):
        one, _ = train_supervised(model, trains[i], vals[i], cfg)
        assert trained[i].params.tobytes() == one.params.tobytes()
        assert trained[i].seed == model.seed


# -- the minibatch step against a literal reference -------------------------


def _recipe(name, learning_rate, weight_decay, momentum):
    """A training recipe with the optimizer settings of an `opt_cfg`."""
    return TrainConfig(
        optimizer=name, learning_rate=learning_rate, weight_decay=weight_decay, momentum=momentum
    )


def _reference_cell(params, arch, features, batch_size, rngs, opt_cfg, terms, *,
                    hard=None, soft=None, weight=None, alpha=0.0, temperature=1.0):
    """One cell trained by a literal minibatch loop, one epoch per generator.

    Every minibatch gathers its rows with its own `take`, reduces with
    `ndarray.max`/`sum` and keeps the operand order of the objective
    (1 - alpha) * CE + alpha * T^2 * weight * KL and of the optimizer
    step (Adam with pre-scaled moments or momentum SGD, decoupled weight
    decay as a scale of the weights).
    `terms` = (use CE, use KL) is decided by the whole stack, as in
    `nn.train_epoch`.
    """
    name, lr, wd, momentum = opt_cfg
    use_ce, use_kd = terms
    p = params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    t = 0
    n_decay = arch.n_weight_entries
    for rng in rngs:
        order = rng.permutation(len(features))
        for start in range(0, len(features), batch_size):
            idx = order[start : start + batch_size]
            nb = len(idx)
            weights, biases = arch.param_views(p)
            h = features.take(idx, axis=0)
            acts = [h]
            for i, (w, b) in enumerate(zip(weights, biases)):
                h = h @ w + b
                if i < len(weights) - 1:
                    h = np.maximum(h, 0.0)
                    acts.append(h)
            dlogits = None
            if use_ce:
                z = h - h.max(axis=-1, keepdims=True)
                e = np.exp(z)
                probs = e / e.sum(axis=-1, keepdims=True)
                dlogits = (probs - hard.take(idx, axis=0)) * (1.0 - alpha) / nb
            if use_kd:
                # x / 1.0 is x, so T = 1 needs no case of its own
                z = h / temperature
                z = z - z.max(axis=-1, keepdims=True)
                e = np.exp(z)
                gap = e / e.sum(axis=-1, keepdims=True) - soft.take(idx, axis=0)
                if weight is not None:
                    gap = gap * weight.take(idx)[:, None]
                gap = gap * temperature / nb
                if hard is not None:
                    gap = gap * alpha
                dlogits = gap if dlogits is None else dlogits + gap
            grads_w, grads_b = [None] * len(weights), [None] * len(weights)
            delta = dlogits
            for i in reversed(range(len(weights))):
                grads_w[i] = acts[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (acts[i] > 0.0)
            g = np.concatenate([x.ravel() for x in grads_w + grads_b])
            if name == "adam":
                # the moments pre-scaled by 1 / (1 - beta)
                t += 1
                root = math.sqrt(1.0 - 0.999**t)
                size = lr * root / (1.0 - 0.9**t) * ((1.0 - 0.9) / math.sqrt(1.0 - 0.999))
                eps_hat = (1e-8 / math.sqrt(1.0 - 0.999)) * root
                m = m * 0.9 + g
                v = v * 0.999 + g * g
                update = m / (np.sqrt(v) + eps_hat) * size
            else:
                m = m * momentum + g
                update = m * lr
            if wd:
                p[:n_decay] = p[:n_decay] * (1.0 - lr * wd)
            p = p - update
    return p


# train_epoch's gather budget: chunks of one minibatch, of a few, or the
# whole epoch
_gather_budgets = st.sampled_from([1, 600, nn._GATHER_BYTES])


@st.composite
def _step_cases(draw):
    """A transfer set with an often short last minibatch, Adam or momentum
    SGD with or without decay, T in {0.5, 1, 3}, per-cell alpha in
    {0, 0.5, 1}, labeled or unlabeled rows, shared or per-cell soft
    targets, and per-sample weights or none."""
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 10))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(1, 8))
    n = batch * draw(st.integers(0, 2)) + draw(st.integers(1, batch))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = data.normal(0, 1, size=(n, dim))
    labeled = draw(st.booleans())
    hard = onehot(data.integers(0, classes, size=n), classes) if labeled else None
    with_soft = not labeled or draw(st.booleans())
    per_cell_soft = with_soft and draw(st.booleans())

    def soft_block(shape):
        return softmax(data.normal(0, 2, size=shape), 1.0)

    weight = None
    if with_soft and draw(st.booleans()):
        weight = data.uniform(0, 1, size=n)
    optimizer, momentum = draw(st.sampled_from([("adam", 0.0), ("sgd", 0.9)]))
    opt_cfg = (optimizer, 0.05, draw(st.sampled_from([0.0, 0.3])), momentum)
    temperature = draw(st.sampled_from([0.5, 1.0, 3.0]))
    # without soft targets alpha = 1 would leave no loss term at all
    alpha = st.sampled_from([0.0, 0.5, 1.0] if with_soft else [0.0, 0.5])
    alphas = draw(st.lists(alpha, min_size=3, max_size=3))
    epochs = draw(st.integers(1, 2))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=3, max_size=3))
    starts = [init_model(arch, draw(st.integers(0, 2**32))).params for _ in range(3)]
    gather = draw(_gather_budgets)
    softs = None
    if with_soft:
        softs = [soft_block((n, classes))] * 3
        if per_cell_soft:
            softs = [soft_block((n, classes)) for _ in range(3)]
    return (arch, features, batch, hard, softs, per_cell_soft, weight, opt_cfg, temperature,
            alphas, epochs, seeds, starts, gather)


def _terms(hard, soft, alphas):
    """Which loss terms `nn.train_epoch` uses for cells at these alphas."""
    use_ce = hard is not None and any(a < 1.0 for a in alphas)
    use_kd = soft is not None and (hard is None or any(a > 0.0 for a in alphas))
    return use_ce, use_kd


@PROPERTY
@given(_step_cases())
def test_plain_and_stacked_steps_equal_a_literal_reference(case):
    (arch, features, batch, hard, softs, per_cell_soft, weight, opt_cfg, temperature,
     alphas, epochs, seeds, starts, gather) = case

    def epoch_rngs(seed):
        return [rng_for(seed, "epoch", e) for e in range(1, epochs + 1)]

    def train(cells, given_order=False):
        """The first `cells` cells through nn.train_epoch: a plain model
        for None, else a stack of that many cells. A plain model may take
        each pass's row order instead of its generator."""
        plain = cells is None
        rows = slice(0, 1 if plain else cells)
        params = starts[0].copy() if plain else np.stack(starts[rows])
        work = Model.from_params(arch, params, 0)
        opt = make_optimizer(_recipe(*opt_cfg), work)
        soft = None
        if softs is not None:
            soft = np.stack(softs[rows]) if per_cell_soft and not plain else softs[0]
        for epoch in range(1, epochs + 1):
            rng = [rng_for(s, "epoch", epoch) for s in seeds[rows]]
            if given_order:
                rng = [rng[0].permutation(len(features))]
            train_epoch(
                opt, features, batch, rng[0] if plain else rng,
                hard=hard, soft=soft, weight=weight, temperature=temperature,
                **_alpha_weights(alphas[0] if plain else alphas[rows], hard is not None),
            )
        return work.params.reshape(-1 if plain else cells, len(starts[0]))

    for cells, given_order in ((None, False), (None, True), (1, False), (3, False)):
        count = 1 if cells is None else cells
        terms = _terms(hard, softs, alphas[:count])
        with patch.object(nn, "_GATHER_BYTES", gather):
            got = train(cells, given_order)
        for i in range(count):
            want = _reference_cell(
                starts[i], arch, features, batch, epoch_rngs(seeds[i]), opt_cfg, terms,
                hard=hard, soft=None if softs is None else softs[i], weight=weight,
                alpha=alphas[i], temperature=temperature,
            )
            assert got[i].tobytes() == want.tobytes(), (cells, i)


@st.composite
def _ragged_cases(draw):
    """One to four cells, each with its own labeled rows (longest first,
    often a short last minibatch), Adam or momentum SGD with or without
    decay, and every gather budget."""
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 10))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(1, 8))
    sizes = sorted(draw(st.lists(st.integers(1, 3 * batch), min_size=1, max_size=4)), reverse=True)
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = [data.normal(0, 1, size=(n, dim)) for n in sizes]
    hard = [onehot(data.integers(0, classes, size=n), classes) for n in sizes]
    optimizer, momentum = draw(st.sampled_from([("adam", 0.0), ("sgd", 0.9)]))
    opt_cfg = (optimizer, 0.05, draw(st.sampled_from([0.0, 0.3])), momentum)
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(sizes), max_size=len(sizes)))
    starts = [init_model(arch, draw(st.integers(0, 2**32))).params for _ in sizes]
    return arch, features, hard, batch, opt_cfg, draw(st.integers(1, 2)), seeds, starts, draw(
        _gather_budgets
    )


@PROPERTY
@given(_ragged_cases())
def test_ragged_steps_equal_a_literal_reference(case):
    arch, features, hard, batch, opt_cfg, epochs, seeds, starts, gather = case
    work = Model.from_params(arch, np.stack(starts), 0)
    opt = make_optimizer(_recipe(*opt_cfg), work)
    with patch.object(nn, "_GATHER_BYTES", gather):
        for epoch in range(1, epochs + 1):
            train_epoch(
                opt, features, batch, [rng_for(s, "epoch", epoch) for s in seeds], hard=hard
            )
    for i, seed in enumerate(seeds):
        want = _reference_cell(
            starts[i], arch, features[i], batch,
            [rng_for(seed, "epoch", e) for e in range(1, epochs + 1)], opt_cfg, (True, False),
            hard=hard[i],
        )
        assert work.params[i].tobytes() == want.tobytes(), i


@pytest.mark.parametrize("hidden", [(64,), (64, 32)])
@pytest.mark.parametrize("optimizer, momentum", [("adam", 0.0), ("sgd", 0.9)])
@pytest.mark.parametrize("temperature", [1.0, 2.0])
def test_plain_steps_at_bench_widths_equal_a_literal_reference(
    hidden, optimizer, momentum, temperature
):
    # the properties above draw widths up to 6 and batches up to 8, where
    # BLAS takes other kernels than at these widths; the last minibatches
    # hold 1, 2 and 31 rows
    arch = ArchSpec(input_dim=8, hidden_layers=hidden, num_classes=10)
    opt_cfg = (optimizer, 0.05, 4e-4, momentum)
    data = np.random.default_rng(2024)
    for n in (65, 66, 95):
        features = data.normal(0, 1, size=(n, 8))
        hard = onehot(data.integers(0, 10, size=n), 10)
        soft = softmax(data.normal(0, 2, size=(n, 10)), 1.0)
        start = init_model(arch, n).params
        work = Model.from_params(arch, start.copy(), 0)
        opt = make_optimizer(_recipe(*opt_cfg), work)
        for epoch in (1, 2):
            train_epoch(
                opt, features, 32, rng_for(n, "epoch", epoch), hard=hard, soft=soft,
                temperature=temperature, **_alpha_weights(0.5, True),
            )
        want = _reference_cell(
            start, arch, features, 32, [rng_for(n, "epoch", e) for e in (1, 2)], opt_cfg,
            (True, True), hard=hard, soft=soft, alpha=0.5, temperature=temperature,
        )
        assert work.params.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("labeled", [True, False])
def test_one_cell_runs_return_plain_models(labeled):
    arch = ArchSpec(input_dim=3, hidden_layers=(4,), num_classes=3)
    data = np.random.default_rng(5)
    transfer = TransferSet(
        features=data.normal(0, 1, size=(11, 3)),
        labels=data.integers(0, 3, size=11) if labeled else None,
        origin="student_data" if labeled else "public_unlabeled_small",
    )
    cfg = DistillConfig(epochs=2, batch_size=4)
    student, teacher, other = (init_model(arch, s) for s in (1, 2, 3))
    weights = equal_teacher_weights(2, 3)
    for model in (
        distill_vanilla(student, [teacher], transfer, cfg, 9),
        distill_dpkd(student, teacher, transfer, cfg, 9),
        distill_multi_teacher(student, [teacher, other], weights, transfer, cfg, 9),
    ):
        assert model.params.shape == student.params.shape == (len(student.params),)
        assert model.seed == student.seed


# -- FedAvg arms against a literal federation -------------------------------


@st.composite
def _federations(draw):
    """Two or three arms from different initial models over unequal
    shards, the first shorter than a batch; full or half participation,
    one or two local epochs, and SGD with momentum 0 or 0.9, or Adam."""
    hidden = tuple(draw(st.lists(st.integers(1, 5), max_size=1)))
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 4))
    arch = ArchSpec(input_dim=dim, hidden_layers=hidden, num_classes=classes)
    batch = draw(st.integers(2, 6))
    sizes = [
        draw(st.integers(1, batch - 1)),
        draw(st.integers(batch, 3 * batch)),
        *draw(st.lists(st.integers(1, 3 * batch), max_size=2)),
    ]
    optimizer, momentum = draw(st.sampled_from([("sgd", 0.0), ("sgd", 0.9), ("adam", 0.0)]))
    cfg = FedConfig(
        rounds=draw(st.integers(1, 3)),
        local_epochs=draw(st.integers(1, 2)),
        participation_rate=draw(st.sampled_from([1.0, 0.5])),
        optimizer=optimizer,
        learning_rate=0.05,
        weight_decay=draw(st.sampled_from([0.0, 4e-4])),
        momentum=momentum,
        batch_size=batch,
    )
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def dataset(n):
        labels = data.integers(0, classes, size=n)
        features = data.normal(0, 1, size=(n, dim))
        features[:, 0] += labels  # something to learn
        return LabeledDataset(features=features, labels=labels, class_count=classes)

    arms = draw(st.integers(2, 3))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=arms, max_size=arms, unique=True))
    inits = [init_model(arch, seed) for seed in seeds]
    return inits, [dataset(n) for n in sizes], dataset(8), cfg, draw(st.integers(0, 2**32))


def _literal_federation(init, shards, test, cfg, fed_seed):
    """One arm alone: standalone local updates and aggregates, round by
    round, with the participation draw spelled out."""
    model = init.copy()
    accuracies, chosen = [], []
    k = len(shards)
    for r in range(1, cfg.rounds + 1):
        participants = list(range(k))
        if cfg.participation_rate < 1.0:
            count = max(1, math.ceil(cfg.participation_rate * k))
            drawn = rng_for(fed_seed, "participation", r).choice(k, size=count, replace=False)
            participants = sorted(int(c) for c in drawn)
        updates = [local_update(model, shards[c], cfg, r, c, fed_seed) for c in participants]
        model = fedavg_aggregate(updates, [len(shards[c]) for c in participants])
        accuracies.append(evaluate(model, test).overall_accuracy)
        chosen.append(participants)
    return model, accuracies, chosen


@PROPERTY
@given(_federations())
def test_federation_arms_equal_literal_one_arm_federations(run):
    inits, shards, test, cfg, fed_seed = run
    tags = [f"arm{i}" for i in range(len(inits))]
    trajs = run_federated(inits, tags, shards, test, cfg, fed_seed)
    if len(inits) == 2:
        assert [t.final_model.params.tobytes() for t in trajs] == [
            t.final_model.params.tobytes()
            for t in preconsolidated_fedavg(*inits, shards, test, cfg, fed_seed)
        ]
    for init, tag, traj in zip(inits, tags, trajs):
        model, accuracies, chosen = _literal_federation(init, shards, test, cfg, fed_seed)
        assert traj.init_tag == tag
        assert traj.init_accuracy == evaluate(init, test).overall_accuracy
        assert traj.final_model.params.tobytes() == model.params.tobytes()
        assert traj.accuracies == accuracies
        assert traj.participants_per_round == chosen
