"""Scenario assembly, the pairwise matrix, grid search, consolidation."""

import numpy as np
import pytest

import kdsim.orchestrate as orchestrate
from kdsim.data import TransferSet, TransferSizes
from kdsim.distill import DistillConfig, distill_vanilla
from kdsim.errors import ConfigError, DataError
from kdsim.metrics import build_pair_result, reconciliation_residual
from kdsim.nn import EvalReport, evaluate, init_model, models_equal, reports_equal
from kdsim.orchestrate import (
    GridSpec,
    Recommendation,
    TransferContext,
    argmax_surface,
    best_teacher_frequency,
    build_scenario,
    carve_public_pool,
    consolidate_models,
    grid_search_tuned,
    pair_seed,
    recommend_kd_method,
    run_pairwise_matrix,
    scenario_from_plan,
)
from kdsim.seeding import stable_seed

SIZES = TransferSizes(labeled=40, unlabeled_small=30, unlabeled_large=80)
QUICK = DistillConfig(epochs=2, learning_rate=1e-2, batch_size=32)


# -- scenario assembly ------------------------------------------------------


def test_pool_carving_is_disjoint_and_sized(blobs):
    train, _ = blobs
    pool, rest = carve_public_pool(train, 100, 4)
    assert len(pool) == 100
    assert len(rest) == len(train) - 100
    assert not set(pool.tolist()) & set(rest.tolist())
    again, _ = carve_public_pool(train, 100, 4)
    assert np.array_equal(pool, again)
    with pytest.raises(ConfigError):
        carve_public_pool(train, len(train), 4)


def test_scenario_partitions_the_remainder(scenario, blobs):
    train, test = blobs
    assert scenario.k == 3
    assert scenario.test is test
    assert len(scenario.public_pool) == 120
    # participant indices live in the remainder, never in the pool
    pool = set(scenario.pool_indices.tolist())
    seen = set()
    for idx in scenario.participant_indices:
        rows = set(idx.tolist())
        assert not rows & pool
        assert not rows & seen
        seen |= rows
    for part, idx in zip(scenario.participants, scenario.participant_indices):
        assert len(part.train) + len(part.val) == len(idx)


def test_scenario_rebuilds_identically_from_its_plan(blobs, scenario):
    train, test = blobs
    again = scenario_from_plan(
        train,
        test,
        scenario.partition,
        scenario.pool_indices,
        scenario.remainder_indices,
        0.2,
        11,
    )
    assert again.label == scenario.label
    for a, b in zip(again.participants, scenario.participants):
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.val.labels, b.val.labels)


def test_participant_split_is_drawn_once_on_first_use(blobs, scenario, monkeypatch):
    import kdsim.orchestrate as orchestrate

    train, test = blobs
    calls = []
    split = orchestrate.split_train_val
    monkeypatch.setattr(
        orchestrate, "split_train_val", lambda *a: calls.append(a) or split(*a)
    )
    again = scenario_from_plan(
        train, test, scenario.partition, scenario.pool_indices, scenario.remainder_indices,
        0.2, 11,
    )
    assert calls == []
    part = again.participants[1]
    assert np.array_equal(part.shard.labels, train.labels[scenario.participant_indices[1]])
    assert part.val is part.val
    assert part.train is part.train
    assert len(calls) == 1
    assert calls[0][2] == stable_seed(11, "participant-split", 1)


def test_pretrained_reports_match_test_set(pretrained, scenario):
    for model, report in pretrained:
        assert reports_equal(report, evaluate(model, scenario.test))


# -- seed policy ------------------------------------------------------------


def test_pair_seed_tokens():
    assert pair_seed(7, 2, 1, "vanilla", 1.0, 0.5) == stable_seed(
        7, "pair", 2, 1, "vanilla", 1.0, 0.5
    )
    seen = {
        pair_seed(0, t, s, m, temp, a)
        for t in (0, 1)
        for s in (0, 1)
        for m in ("vanilla", "dpkd")
        for temp in (1.0, 2.0)
        for a in (0.5, 0.9)
    }
    assert len(seen) == 32


# -- pairwise matrix --------------------------------------------------------


def test_matrix_cardinality_and_order(pretrained, scenario):
    results = run_pairwise_matrix(
        pretrained,
        scenario,
        ["vanilla", "dpkd"],
        ["student_data", "public_unlabeled_small"],
        QUICK,
        None,
        SIZES,
        11,
    )
    k = scenario.k
    assert len(results) == 2 * 2 * k * (k - 1)
    blocks = {}
    for r in results:
        blocks.setdefault((r.method, r.transfer_option), []).append(r)
        assert r.teacher_id != r.student_id
        # stored pre-training evaluation is reused, never recomputed
        assert reports_equal(r.pre_eval, pretrained[r.student_id][1])
        assert reconciliation_residual(r) < 1e-9
    assert all(len(v) == k * (k - 1) for v in blocks.values())
    keys = [(r.scenario, r.method, r.transfer_option, r.teacher_id, r.student_id) for r in results]
    assert keys == sorted(keys)


def test_matrix_needs_a_pretrained_entry_for_every_participant_it_runs(pretrained, scenario):
    args = (scenario, ["vanilla"], ["student_data"], QUICK, None, SIZES, 3)
    one_pair = run_pairwise_matrix(pretrained, *args, pairs=[(2, 0)])
    by_id = {2: pretrained[2], 0: pretrained[0]}
    assert [r.to_json_dict() for r in run_pairwise_matrix(by_id, *args, pairs=[(2, 0)])] == [
        r.to_json_dict() for r in one_pair
    ]
    for partial, pairs in (
        (by_id, [(2, 1)]),  # participant 1 has no entry
        (by_id, None),  # the full matrix needs all K
        (pretrained[:2], None),
        (pretrained + pretrained[:1], [(2, 0)]),  # more entries than participants
        ({**by_id, 5: pretrained[1]}, [(2, 0)]),
    ):
        with pytest.raises(ConfigError, match="pretrained models for participants"):
            run_pairwise_matrix(partial, *args, pairs=pairs)


def test_matrix_is_deterministic(pretrained, scenario):
    args = (pretrained, scenario, ["dml"], ["student_data"], QUICK, None, SIZES, 3)
    a = run_pairwise_matrix(*args)
    b = run_pairwise_matrix(*args)
    assert len(a) == 6
    for r1, r2 in zip(a, b):
        assert r1.to_json_dict() == r2.to_json_dict()


def test_matrix_parallel_matches_serial(pretrained, scenario):
    serial = run_pairwise_matrix(
        pretrained, scenario, ["vanilla"], ["public_labeled"], QUICK, None, SIZES, 5, jobs=1
    )
    parallel = run_pairwise_matrix(
        pretrained, scenario, ["vanilla"], ["public_labeled"], QUICK, None, SIZES, 5, jobs=2
    )
    for r1, r2 in zip(serial, parallel):
        assert r1.to_json_dict() == r2.to_json_dict()


@pytest.mark.filterwarnings("ignore:mutual learning without labels")
@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_matches_one_pair_runs(pretrained, scenario, jobs):
    # each student's cells of a block train as one stack; a one-pair run
    # trains a stack of one, and every record must come out the same
    methods = ["vanilla", "dml", "dpkd"]
    options = ["student_data", "public_labeled", "public_unlabeled_small"]
    args = (pretrained, scenario, methods, options, QUICK, None, SIZES, 8)
    full = run_pairwise_matrix(*args, jobs=jobs)
    k = scenario.k
    assert len(full) == len(methods) * len(options) * k * (k - 1)
    singles = []
    for t in range(k):
        for s in range(k):
            if t != s:
                singles += run_pairwise_matrix(*args, pairs=[(t, s)])
    key = lambda r: (r.method, r.transfer_option, r.teacher_id, r.student_id)
    assert [r.to_json_dict() for r in full] == [
        r.to_json_dict() for r in sorted(singles, key=key)
    ]


@pytest.mark.parametrize("sequential, point, retrained", [
    (False, (1.0, 0.5), "none"),
    (True, (1.0, 0.5), "none"),
    (False, (2.0, 0.5), "all"),  # off the grid: the vanilla cells train as before
    # only searches whose anchor row picked alpha 0.1 train (3, 0.1)
    (True, (3.0, 0.1), "some"),
])
def test_vanilla_records_beside_tuned_equal_vanilla_only_records(
    pretrained, scenario, monkeypatch, sequential, point, retrained
):
    from dataclasses import replace

    import kdsim.orchestrate as orchestrate

    cfg = replace(QUICK, temperature=point[0], alpha=point[1])
    grid = GridSpec(temperatures=(3.0, 1.0), alphas=(0.9, 0.5, 0.1), sequential=sequential)
    options = ["student_data", "public_unlabeled_small"]
    run = lambda methods: run_pairwise_matrix(
        pretrained, scenario, methods, options, cfg, grid, SIZES, 9
    )
    alone = run(["vanilla"])
    trained = []
    train_stack = orchestrate._train_stack
    monkeypatch.setattr(
        orchestrate, "_train_stack", lambda cells: trained.extend(cells) or train_stack(cells)
    )
    both = run(["vanilla", "tuned"])
    assert [r.to_json_dict() for r in both if r.method == "vanilla"] == [
        r.to_json_dict() for r in alone
    ]
    assert len(both) == 2 * len(alone)
    assert {cell.method for cell in trained} <= {"vanilla"}
    # a search that trained the configured cell gives the vanilla record its model
    count = {"none": 0, "all": len(alone)}.get(retrained)
    if count is None:
        assert 0 < len(trained) < len(alone)
    else:
        assert len(trained) == count


def test_matrix_rejects_bad_arguments(pretrained, scenario):
    with pytest.raises(ConfigError):
        run_pairwise_matrix(pretrained, scenario, ["osmosis"], ["student_data"], QUICK, None, SIZES, 0)
    with pytest.raises(ConfigError):
        run_pairwise_matrix(pretrained, scenario, ["vanilla"], ["carrier_pigeon"], QUICK, None, SIZES, 0)
    with pytest.raises(ConfigError):
        run_pairwise_matrix(pretrained[:2], scenario, ["vanilla"], ["student_data"], QUICK, None, SIZES, 0)


# -- grid search ------------------------------------------------------------


def test_argmax_prefers_low_temperature_then_low_alpha():
    surface = {(2.0, 0.5): 1.0, (1.0, 0.5): 1.0, (1.0, 0.25): 1.0, (3.0, 0.1): 0.5}
    assert argmax_surface(surface) == (1.0, 0.25)
    with pytest.raises(ConfigError):
        argmax_surface({})


def _probe(grid, gain_of):
    """A one-search `_search` over `grid` scoring each cell gain_of(t, a),
    cell by cell, row by row, with no model."""
    run_row = lambda t, cells: [(gain_of(t, a), None) for _, a in cells]
    return orchestrate._search(1, grid, run_row)[0]


def test_grid_search_finds_the_synthetic_peak():
    grid = GridSpec()
    res = _probe(grid, lambda t, a: -(abs(t - 2.0) + abs(a - 0.75)))
    assert (res.best_temperature, res.best_alpha) == (2.0, 0.75)
    assert len(res.surface) == len(grid.temperatures) * len(grid.alphas)


def test_grid_search_tie_break_on_flat_surface():
    grid = GridSpec(temperatures=(3.0, 1.0, 2.0), alphas=(0.9, 0.5))
    res = _probe(grid, lambda t, a: 0.0)
    assert (res.best_temperature, res.best_alpha) == (1.0, 0.5)


def test_sequential_grid_sweeps_alpha_at_the_anchor_first():
    calls = []

    def probe(t, a):
        calls.append((t, a))
        return -(abs(t - 4.0) + abs(a - 0.9))

    grid = GridSpec(temperatures=(1.0, 2.0, 4.0), alphas=(0.1, 0.5, 0.9), sequential=True)
    res = _probe(grid, probe)
    # one alpha sweep at T=1, then a temperature sweep at the winner
    assert calls[:3] == [(1.0, 0.1), (1.0, 0.5), (1.0, 0.9)]
    assert all(a == 0.9 for _, a in calls[3:])
    assert len(res.surface) == 3 + 3 - 1
    assert (res.best_temperature, res.best_alpha) == (4.0, 0.9)


def test_sequential_anchor_falls_back_to_median_temperature():
    calls = []
    grid = GridSpec(temperatures=(2.0, 3.0, 4.0), alphas=(0.25, 0.75), sequential=True)
    _probe(grid, lambda t, a: calls.append((t, a)) or 0.0)
    assert {t for t, _ in calls[:2]} == {3.0}


def test_side_by_side_searches_follow_their_own_best_alpha():
    peaks = [(4.0, 0.9), (2.0, 0.1)]
    rows = []

    def run_row(t, cells):
        rows.append((t, cells))
        return [(-(abs(t - peaks[i][0]) + abs(a - peaks[i][1])), None) for i, a in cells]

    grid = GridSpec(temperatures=(4.0, 1.0, 2.0), alphas=(0.9, 0.1, 0.5), sequential=True)
    results = orchestrate._search(2, grid, run_row)
    assert [(r.best_temperature, r.best_alpha) for r in results] == peaks
    # one anchor row of every search's alphas, search-major, then one
    # cell per search at its own best alpha
    assert rows == [
        (1.0, [(0, 0.1), (0, 0.5), (0, 0.9), (1, 0.1), (1, 0.5), (1, 0.9)]),
        (2.0, [(0, 0.9), (1, 0.1)]),
        (4.0, [(0, 0.9), (1, 0.1)]),
    ]
    assert [len(r.surface) for r in results] == [3 + 3 - 1] * 2


def test_grid_search_rejects_empty_axes():
    with pytest.raises(ConfigError):
        GridSpec(temperatures=())
    with pytest.raises(ConfigError):
        GridSpec(temperatures=(0.0,))
    with pytest.raises(ConfigError):
        GridSpec(alphas=(1.5,))


def test_grid_cell_matches_standalone_vanilla_run(pretrained, scenario):
    # the (1, 0.5) cell of a tuned search must be the vanilla baseline
    # bit for bit when both hash the same seed tokens
    teacher, _ = pretrained[0]
    student, _ = pretrained[1]
    val = scenario.participants[1].val
    shard = scenario.participants[1].train
    ts = TransferSet(features=shard.features, labels=shard.labels, origin="student_data")
    master = 11
    seed_fn = lambda t, a: pair_seed(master, 0, 1, "vanilla", t, a)
    grid = GridSpec(temperatures=(1.0, 2.0), alphas=(0.5,))
    res = grid_search_tuned(student, teacher, ts, grid, QUICK, val, seed_fn=seed_fn)
    from dataclasses import replace

    cell_cfg = replace(QUICK, temperature=1.0, alpha=0.5)
    standalone = distill_vanilla(student, [teacher], ts, cell_cfg, seed_fn(1.0, 0.5))
    pre = evaluate(student, val).overall_accuracy
    gain = (evaluate(standalone, val).overall_accuracy - pre) * 100.0
    assert res.surface[(1.0, 0.5)] == gain


@pytest.mark.parametrize("sequential", [False, True])
# a learning rate this small leaves every gain 0: the tie-break picks the model
@pytest.mark.parametrize("learning_rate", [QUICK.learning_rate, 1e-12])
def test_stacked_search_equals_a_per_cell_reference(
    pretrained, scenario, sequential, learning_rate
):
    from dataclasses import replace

    cfg = replace(QUICK, learning_rate=learning_rate)

    teacher, _ = pretrained[2]
    student, _ = pretrained[0]
    val = scenario.participants[0].val
    shard = scenario.participants[0].train
    ts = TransferSet(features=shard.features, labels=shard.labels, origin="student_data")
    seed_fn = lambda t, a: pair_seed(5, 2, 0, "vanilla", t, a)
    # alpha 0 and 1 drop a loss term and train in stacks of their own
    grid = GridSpec(
        temperatures=(3.0, 0.5, 1.0), alphas=(1.0, 0.25, 0.0, 0.75), sequential=sequential
    )
    pre = evaluate(student, val).overall_accuracy
    models = {}

    def one_cell(t, a):
        cell_cfg = replace(cfg, temperature=t, alpha=a)
        models[(t, a)] = distill_vanilla(student, [teacher], ts, cell_cfg, seed_fn(t, a))
        return (evaluate(models[(t, a)], val).overall_accuracy - pre) * 100.0

    want = _probe(grid, one_cell)
    got = grid_search_tuned(student, teacher, ts, grid, cfg, val, seed_fn)
    assert got.surface == want.surface
    assert len(got.surface) == (4 + 3 - 1 if sequential else 12)
    best = (got.best_temperature, got.best_alpha)
    assert best == (want.best_temperature, want.best_alpha)
    assert want.best_model is None
    assert got.best_model.params.tobytes() == models[best].params.tobytes()


# -- best-teacher tallies ---------------------------------------------------


def _tiny_result(teacher_id, student_id, gain):
    flat = EvalReport(0.5, np.array([0.5, 0.5]), np.array([10, 10], dtype=np.int64))
    post = EvalReport(
        0.5 + gain / 100.0,
        np.full(2, 0.5 + gain / 100.0),
        np.array([10, 10], dtype=np.int64),
    )
    return build_pair_result(
        "s", "vanilla", "student_data", teacher_id, student_id, 1.0, 0.5, flat, post, flat
    )


def test_best_teacher_frequency_counts_and_ties():
    rows = [
        _tiny_result(0, 1, 2.0),
        _tiny_result(2, 1, 2.0),  # tie with teacher 0 -> lower id wins
        _tiny_result(0, 2, -5.0),
        _tiny_result(1, 2, -1.0),
    ]
    counts = best_teacher_frequency(rows)
    assert counts == {0: 1, 1: 1, 2: 0}
    assert sum(counts.values()) == 2
    with pytest.raises(DataError):
        best_teacher_frequency([])


# -- method recommendation --------------------------------------------------


def test_recommendation_rules():
    pick = lambda **kw: recommend_kd_method(TransferContext(**kw)).method
    assert pick(tuning_budget=True, teacher_strength="weak") == "tuned"
    assert pick(teacher_strength="weak", transfer_labeled=True) == "dml"
    assert pick(teacher_strength="weak", student_data_available=True) == "dml"
    assert pick(teacher_strength="strong", transfer_labeled=True) == "vanilla"
    assert pick(teacher_strength="comparable", transfer_labeled=True) == "vanilla"


def test_mutual_learning_never_recommended_without_labels_or_data():
    for strength in ("weak", "comparable", "strong"):
        for labeled in (False, True):
            for local in (False, True):
                for budget in (False, True):
                    rec = recommend_kd_method(
                        TransferContext(
                            teacher_strength=strength,
                            transfer_labeled=labeled,
                            student_data_available=local,
                            tuning_budget=budget,
                        )
                    )
                    if rec.method == "dml":
                        assert labeled or local
                    if budget:
                        assert rec.method == "tuned"


def test_recommendation_validation_and_custom_rules():
    with pytest.raises(ConfigError):
        recommend_kd_method(TransferContext(teacher_strength="mighty"))
    with pytest.raises(ConfigError):
        recommend_kd_method(TransferContext(), rules=[])
    got = recommend_kd_method(
        TransferContext(), rules=[{"when": {}, "method": "dpkd", "reason": "why not"}]
    )
    assert got == Recommendation(method="dpkd", reason="why not")


# -- consolidation ----------------------------------------------------------


def _inert_cfg():
    # learning rate small enough that predictions cannot move
    return DistillConfig(epochs=1, learning_rate=1e-30, weight_decay=0.0)


def test_consolidation_start_policies(pretrained, scenario):
    accs = [rep.overall_accuracy for _, rep in pretrained]
    merged, report = consolidate_models(
        pretrained, scenario, "best", "adaptive", "public_unlabeled_small", 1,
        _inert_cfg(), SIZES, 11,
    )
    assert report.overall_accuracy == pytest.approx(max(accs), abs=1e-9)
    merged, report = consolidate_models(
        pretrained, scenario, "worst", "adaptive", "public_unlabeled_small", 1,
        _inert_cfg(), SIZES, 11,
    )
    assert report.overall_accuracy == pytest.approx(min(accs), abs=1e-9)


def test_consolidation_untrained_start(pretrained, scenario):
    merged, report = consolidate_models(
        pretrained, scenario, "untrained", "equal", "public_unlabeled_large", 10,
        DistillConfig(epochs=10, learning_rate=5e-3), SIZES, 11,
    )
    # an untrained student taught by three competent experts must beat chance
    assert report.overall_accuracy > 1.5 / scenario.test.class_count
    with pytest.raises(ConfigError):
        consolidate_models(
            pretrained, scenario, "untrained", "equal", "student_data", 1,
            QUICK, SIZES, 11,
        )


def test_consolidation_is_deterministic(pretrained, scenario):
    args = (pretrained, scenario, "best", "adaptive", "public_unlabeled_small", 2, QUICK, SIZES, 9)
    m1, r1 = consolidate_models(*args)
    m2, r2 = consolidate_models(*args)
    assert models_equal(m1, m2)
    assert reports_equal(r1, r2)


def test_consolidation_weighting_changes_the_outcome(pretrained, scenario):
    a, _ = consolidate_models(
        pretrained, scenario, "best", "adaptive", "public_unlabeled_small", 2, QUICK, SIZES, 9
    )
    e, _ = consolidate_models(
        pretrained, scenario, "best", "equal", "public_unlabeled_small", 2, QUICK, SIZES, 9
    )
    assert not models_equal(a, e)


def test_consolidation_argument_checks(pretrained, scenario):
    with pytest.raises(ConfigError):
        consolidate_models(pretrained[:1], scenario, "best", "equal", "public_labeled", 1, QUICK, SIZES, 0)
    with pytest.raises(ConfigError):
        consolidate_models(pretrained, scenario, "median", "equal", "public_labeled", 1, QUICK, SIZES, 0)
    with pytest.raises(ConfigError):
        consolidate_models(pretrained, scenario, "best", "softmax", "public_labeled", 1, QUICK, SIZES, 0)


def test_scenario_strategy_dispatch(blobs):
    train, test = blobs
    sc = build_scenario(
        train, test, "label_skew_dirichlet", 4, {"betas": [0.2] * 4}, 80, 0.15, 21
    )
    assert sc.partition.strategy == "label_skew_dirichlet"
    assert sc.k == 4
    sc = build_scenario(train, test, "quantity_skew", 3, {"beta": 0.4}, 80, 0.15, 21, label="qskew")
    assert sc.label == "qskew"
