"""Property tests: invariants that must hold for every input, not just a few."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kdsim.artifacts import load_model, save_model
from kdsim.data import PARTITION_STRATEGIES, LabeledDataset, make_partition, validate_plan
from kdsim.distill import merged_teacher_target, weighted_ensemble_kl_grad_logits
from kdsim.errors import PartitionError
from kdsim.nn import ArchSpec, Model, softmax

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
    # the kd term nn.train_epoch forms from the merged target
    merged = temperature * (total[:, None] * (student - target)) / len(logits)
    reference = weighted_ensemble_kl_grad_logits(logits, probs, weights, temperature)
    np.testing.assert_allclose(merged, reference, rtol=0, atol=1e-12)
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
        plan = make_partition(dataset, strategy, k, PARAMS.get(strategy, {}), seed)
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
