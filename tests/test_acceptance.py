"""Package-level acceptance checks.

One test per shipped guarantee, each printing a [criterion N] PASS/FAIL
stamp: the gradient the trainer's own step applies against finite
differences of the loss it documents, mask algebra, grid-search
dominance over the fixed vanilla setting, matrix record cardinality,
bit-exact aggregation oracles, three directional effects on desk-scale
scenarios, byte-level rerun determinism, and the learning/forgetting
reconciliation identity on every emitted record.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kdsim.cli import main
from kdsim.data import TransferSet, TransferSizes, alternating_betas, build_transfer_set
from kdsim.distill import (
    DistillConfig,
    MaskPair,
    distill_vanilla,
    dpkd_masks,
    masked_distillation_loss,
    masked_targets,
    merged_teacher_target,
    weighted_ensemble_kl,
)
from kdsim.fed import (
    FedConfig,
    fedavg_aggregate,
    local_update,
    preconsolidated_fedavg,
    rounds_to_target,
    run_federated,
)
from kdsim.metrics import reconciliation_residual
from kdsim.nn import (
    ArchSpec,
    TrainConfig,
    ce_loss,
    evaluate,
    forward_logits,
    init_model,
    kl_loss,
    models_equal,
    onehot,
    softmax,
)
from kdsim.orchestrate import (
    GridSpec,
    build_scenario,
    consolidate_models,
    grid_search_tuned,
    pair_seed,
    participant_arch,
    pretrain_participants,
    run_pairwise_matrix,
)
from kdsim.seeding import stable_seed
from kdsim.toydata import gaussian_blobs

from gradcheck import fd_gradient, rel_err, scaled_last_layer, step_gradient


def _stamp(number, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"[criterion {number}] {tag}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: the trainer's step matches central finite differences
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    # each gradient is the one an `nn.train_epoch` step applies (see
    # gradcheck), against central differences of the loss it documents
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    arch = ArchSpec(input_dim=4, hidden_layers=(5,), num_classes=3)
    tol = 1e-5
    errors = []
    for trial in range(3):
        n, c = 6, 3
        base = init_model(arch, trial)
        x = rng.normal(size=(n, arch.input_dim))
        labels = rng.integers(0, c, size=n)

        def logits(m):
            return forward_logits(m, x)

        # cross entropy at T = 1
        errors.append(rel_err(
            step_gradient(base, x, hard=onehot(labels, c)),
            fd_gradient(lambda m: ce_loss(softmax(logits(m), 1.0), labels), base),
        ))

        for t in GridSpec().temperatures:
            model = scaled_last_layer(base, t)
            target = softmax(rng.normal(size=(n, c)), 1.0)
            errors.append(rel_err(
                step_gradient(model, x, soft=target, temperature=t),
                fd_gradient(lambda m: t**2 * kl_loss(softmax(logits(m), t), target), model),
            ))

            # confidence-routed loss: targets picked per sample by a mask
            snap = softmax(rng.normal(size=(n, c)), 1.0)
            mask = rng.random(n) < 0.5
            routed = masked_targets(target, snap, MaskPair(mask, ~mask))
            errors.append(rel_err(
                step_gradient(model, x, soft=routed, temperature=t),
                fd_gradient(lambda m: masked_distillation_loss(logits(m), routed, t), model),
            ))

            # two-teacher weighted ensemble loss, trained on its merged target
            probs_by_teacher = [softmax(rng.normal(size=(n, c)), 1.0) for _ in range(2)]
            weights = [rng.random(n) * 0.5 for _ in range(2)]
            merged, total = merged_teacher_target(probs_by_teacher, weights)
            errors.append(rel_err(
                step_gradient(model, x, soft=merged, weight=total, temperature=t),
                fd_gradient(
                    lambda m: weighted_ensemble_kl(logits(m), probs_by_teacher, weights, t),
                    model,
                ),
            ))
    worst = max(errors)
    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 10.0
    _stamp(1, ok, f"{len(errors)} cases, max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst < tol
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: mask algebra
# ---------------------------------------------------------------------------


def test_criterion_02_mask_partition_and_ties():
    rng = np.random.default_rng(7)
    arch = ArchSpec(input_dim=5, hidden_layers=(8,), num_classes=4)
    triples = 0
    for pair in range(25):
        teacher = init_model(arch, 1000 + pair)
        snapshot = init_model(arch, 2000 + pair)
        features = rng.normal(size=(20, 5))
        labels = rng.integers(0, 4, size=20)
        labeled = TransferSet(features=features, labels=labels, origin="student_data")
        unlabeled = TransferSet(
            features=features, labels=None, origin="public_unlabeled_small"
        )
        for transfer, supervised in ((labeled, True), (unlabeled, False)):
            masks = dpkd_masks(teacher, snapshot, transfer, supervised)
            s = masks.teacher_mask.astype(int) + masks.snapshot_mask.astype(int)
            assert np.all(s == 1)
            triples += len(transfer)
    assert triples == 1000

    # equal confidence must route every sample to the snapshot
    for pair in range(5):
        snapshot = init_model(arch, 3000 + pair)
        teacher = snapshot.copy()
        features = rng.normal(size=(20, 5))
        labels = rng.integers(0, 4, size=20)
        labeled = TransferSet(features=features, labels=labels, origin="student_data")
        unlabeled = TransferSet(
            features=features, labels=None, origin="public_unlabeled_small"
        )
        for transfer, supervised in ((labeled, True), (unlabeled, False)):
            masks = dpkd_masks(teacher, snapshot, transfer, supervised)
            assert np.all(masks.snapshot_mask)
            assert not masks.teacher_mask.any()
    _stamp(2, True, f"{triples} triples partitioned, ties -> snapshot")


# ---------------------------------------------------------------------------
# criterion 3: grid search never loses to the fixed vanilla setting
# ---------------------------------------------------------------------------


def test_criterion_03_tuned_gain_dominates_vanilla():
    started = time.perf_counter()
    master = 101
    train, test = gaussian_blobs(5, 6, 120, 30, 2.5, master)
    sc = build_scenario(train, test, "uniform", 4, {}, 150, 0.2, master)
    tc = TrainConfig(
        optimizer="adam",
        learning_rate=5e-3,
        weight_decay=4e-4,
        batch_size=32,
        max_epochs=30,
        patience=10,
    )
    pre = pretrain_participants(sc, (16,), tc, master)
    cfg = DistillConfig(epochs=10, learning_rate=5e-3)
    grid = GridSpec()
    assert (1.0, 0.5) in {(t, a) for t in grid.temperatures for a in grid.alphas}

    sizes = TransferSizes()
    pairs = dominated = 0
    for t_id in range(sc.k):
        for s_id in range(sc.k):
            if t_id == s_id:
                continue
            pairs += 1
            student, _ = pre[s_id]
            teacher, _ = pre[t_id]
            transfer = build_transfer_set(
                "student_data", None, sc.participants[s_id].train, sizes, master
            )
            select = sc.participants[s_id].val

            def cell_seed(temperature, alpha, t_id=t_id, s_id=s_id):
                return pair_seed(master, t_id, s_id, "vanilla", temperature, alpha)

            result = grid_search_tuned(
                student, teacher, transfer, grid, cfg, select, seed_fn=cell_seed
            )
            tuned_gain = result.surface[(result.best_temperature, result.best_alpha)]

            # the fixed setting run standalone, outside the search
            vanilla_cfg = replace(cfg, temperature=1.0, alpha=0.5)
            vanilla_model = distill_vanilla(
                student, [teacher], transfer, vanilla_cfg, cell_seed(1.0, 0.5)
            )
            pre_acc = evaluate(student, select).overall_accuracy
            vanilla_gain = (
                evaluate(vanilla_model, select).overall_accuracy - pre_acc
            ) * 100.0

            assert result.surface[(1.0, 0.5)] == vanilla_gain
            if tuned_gain >= vanilla_gain:
                dominated += 1
    elapsed = time.perf_counter() - started
    ok = dominated == pairs and elapsed < 900.0
    _stamp(3, ok, f"{dominated}/{pairs} pairs dominated, {elapsed:.1f}s")
    assert dominated == pairs
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criteria 4 and 10 share one K=10 pairwise matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix_records():
    master = 901
    train, test = gaussian_blobs(6, 8, 60, 25, 2.2, master)
    sc = build_scenario(train, test, "uniform", 10, {}, 80, 0.2, master)
    tc = TrainConfig(
        optimizer="adam",
        learning_rate=5e-3,
        weight_decay=4e-4,
        batch_size=32,
        max_epochs=6,
        patience=3,
    )
    pre = pretrain_participants(sc, (8,), tc, master)
    sizes = TransferSizes(labeled=50, unlabeled_small=50, unlabeled_large=80)
    cfg = DistillConfig(epochs=1, learning_rate=5e-3)
    return run_pairwise_matrix(
        pre,
        sc,
        ["vanilla", "dpkd"],
        ["student_data", "public_unlabeled_small"],
        cfg,
        None,
        sizes,
        master,
    )


def test_criterion_04_matrix_cardinality(matrix_records):
    counts = {}
    for record in matrix_records:
        key = (record.method, record.transfer_option)
        counts[key] = counts.get(key, 0) + 1
    ok = len(counts) == 4 and all(n == 90 for n in counts.values())
    _stamp(4, ok, f"blocks {sorted(counts.values())}")
    assert len(matrix_records) == 360
    assert len(counts) == 4
    for key, n in sorted(counts.items()):
        assert n == 90, f"{key} emitted {n} records"


# ---------------------------------------------------------------------------
# criterion 5: aggregation oracles
# ---------------------------------------------------------------------------


def test_criterion_05_fedavg_oracle():
    arch = ArchSpec(input_dim=4, hidden_layers=(6, 5), num_classes=3)
    models = [init_model(arch, 100 + i) for i in range(4)]
    sizes = [3, 17, 40, 9]
    agg = fedavg_aggregate(models, sizes)

    # scalar-by-scalar recomputation in client order with plain floats
    total = float(sum(sizes))
    for layer in range(len(agg.weights)):
        for kind in ("weights", "biases"):
            got = getattr(agg, kind)[layer]
            parts = [getattr(m, kind)[layer] for m in models]
            expect = np.zeros_like(got)
            for idx in np.ndindex(got.shape):
                acc = 0.0
                for part, size in zip(parts, sizes):
                    acc += (size / total) * float(part[idx])
                expect[idx] = acc
            assert np.array_equal(got, expect), f"{kind}[{layer}] drifted"

    # a single client must aggregate to itself bit for bit
    solo = fedavg_aggregate([models[0]], [11])
    assert models_equal(solo, models[0])

    # a one-client federation is exactly sequential local training
    train, test = gaussian_blobs(3, 4, 30, 10, 2.0, 55)
    shard = train.subset(np.arange(len(train)))
    fc = FedConfig(rounds=3, local_epochs=2, learning_rate=0.05)
    init = init_model(ArchSpec(4, (6,), 3), 77)
    (traj,) = run_federated([init], ["random"], [shard], test, fc, 99)
    chained = init.copy()
    for round_index in range(1, fc.rounds + 1):
        chained = local_update(chained, shard, fc, round_index, 0, 99)
    ok = models_equal(traj.final_model, chained)
    _stamp(5, ok, "weighted mean and single-client chain bit-exact")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: a consolidated start reaches the random arm's final
# accuracy in strictly fewer rounds on label-skewed federations
# ---------------------------------------------------------------------------


def test_criterion_06_consolidated_start_converges_faster():
    started = time.perf_counter()
    sizes = TransferSizes(labeled=50, unlabeled_small=50, unlabeled_large=200)
    details = []
    wins = 0
    for seed in range(300, 305):
        train, test = gaussian_blobs(6, 8, 150, 40, 1.8, seed)
        sc = build_scenario(
            train, test, "label_skew_dirichlet", 10,
            {"betas": alternating_betas(10)}, 250, 0.15, seed,
        )
        tc = TrainConfig(
            optimizer="adam",
            learning_rate=5e-3,
            weight_decay=4e-4,
            batch_size=32,
            max_epochs=25,
            patience=8,
        )
        pre = pretrain_participants(sc, (16,), tc, seed)
        consolidated, _ = consolidate_models(
            pre, sc, "best", "adaptive", "public_unlabeled_large", 30,
            DistillConfig(epochs=30, learning_rate=5e-3), sizes, seed,
        )
        shards = [train.subset(idx) for idx in sc.participant_indices]
        rand_init = init_model(
            participant_arch(sc, (16,)), stable_seed(seed, "fed-init")
        )
        fc = FedConfig(rounds=15, local_epochs=2, learning_rate=0.02)
        rand_traj, cons_traj = preconsolidated_fedavg(
            rand_init, consolidated, shards, test, fc, stable_seed(seed, "fed")
        )
        target = rand_traj.accuracies[-1]
        rand_round = rounds_to_target(rand_traj, target)
        cons_round = rounds_to_target(cons_traj, target)
        win = cons_round is not None and cons_round < rand_round
        wins += win
        details.append(f"seed {seed}: cons {cons_round} vs rand {rand_round}")
    elapsed = time.perf_counter() - started
    ok = wins >= 4 and elapsed < 1800.0
    _stamp(6, ok, f"{wins}/5 seeds, {elapsed:.1f}s; " + "; ".join(details))
    assert wins >= 4, details
    assert elapsed < 1800.0


# ---------------------------------------------------------------------------
# criterion 7: starting consolidation from the best participant beats
# starting from the worst on quantity-skewed shards
# ---------------------------------------------------------------------------


def test_criterion_07_best_start_beats_worst_start():
    sizes = TransferSizes(labeled=50, unlabeled_small=50, unlabeled_large=200)
    details = []
    wins = 0
    for seed in range(500, 505):
        train, test = gaussian_blobs(6, 8, 150, 40, 1.8, seed)
        sc = build_scenario(
            train, test, "quantity_skew", 5, {"beta": 0.5}, 250, 0.15, seed
        )
        tc = TrainConfig(
            optimizer="adam",
            learning_rate=5e-3,
            weight_decay=4e-4,
            batch_size=32,
            max_epochs=25,
            patience=8,
        )
        pre = pretrain_participants(sc, (16,), tc, seed)
        cfg = DistillConfig(epochs=10, learning_rate=2e-3)
        _, best_rep = consolidate_models(
            pre, sc, "best", "adaptive", "public_unlabeled_large", 10, cfg, sizes, seed
        )
        _, worst_rep = consolidate_models(
            pre, sc, "worst", "adaptive", "public_unlabeled_large", 10, cfg, sizes, seed
        )
        win = best_rep.overall_accuracy >= worst_rep.overall_accuracy
        wins += win
        details.append(
            f"seed {seed}: best {best_rep.overall_accuracy:.3f} "
            f"vs worst {worst_rep.overall_accuracy:.3f}"
        )
    ok = wins >= 4
    _stamp(7, ok, f"{wins}/5 seeds; " + "; ".join(details))
    assert wins >= 4, details


# ---------------------------------------------------------------------------
# criterion 8: a larger public unlabeled transfer set helps strong
# teachers more than a small one
# ---------------------------------------------------------------------------


def test_criterion_08_large_transfer_set_beats_small():
    sizes = TransferSizes(labeled=50, unlabeled_small=50, unlabeled_large=500)
    details = []
    wins = 0
    for seed in range(700, 705):
        train, test = gaussian_blobs(6, 8, 150, 40, 1.8, seed)
        sc = build_scenario(
            train, test, "quantity_skew", 4, {"beta": 0.5}, 550, 0.15, seed
        )
        tc = TrainConfig(
            optimizer="adam",
            learning_rate=5e-3,
            weight_decay=4e-4,
            batch_size=32,
            max_epochs=25,
            patience=8,
        )
        pre = pretrain_participants(sc, (16,), tc, seed)
        cfg = DistillConfig(epochs=10, learning_rate=5e-3)
        records = run_pairwise_matrix(
            pre,
            sc,
            ["vanilla"],
            ["public_unlabeled_small", "public_unlabeled_large"],
            cfg,
            None,
            sizes,
            seed,
        )
        strong = [r for r in records if r.strength == "strong"]
        assert strong, f"seed {seed} produced no strong pairs"
        small = [r.gain_points for r in strong if r.transfer_option == "public_unlabeled_small"]
        large = [r.gain_points for r in strong if r.transfer_option == "public_unlabeled_large"]
        mean_small = float(np.mean(small))
        mean_large = float(np.mean(large))
        win = mean_large >= mean_small
        wins += win
        details.append(
            f"seed {seed}: large {mean_large:.1f} vs small {mean_small:.1f} "
            f"({len(small)} strong pairs)"
        )
    ok = wins >= 4
    _stamp(8, ok, f"{wins}/5 seeds; " + "; ".join(details))
    assert wins >= 4, details


# ---------------------------------------------------------------------------
# criterion 9: rerunning every subcommand leaves artifacts byte-identical
# ---------------------------------------------------------------------------

ACCEPT_YAML = """\
seed: 3
dataset:
  classes: 3
  dim: 3
  train_per_class: 40
  test_per_class: 15
partition:
  k: 3
  val_fraction: 0.2
pool:
  size: 45
  labeled: 12
  unlabeled_small: 10
  unlabeled_large: 30
model:
  hidden_layers: [8]
pretrain:
  learning_rate: 0.005
  max_epochs: 12
  patience: 6
distill:
  epochs: 2
  learning_rate: 0.005
grid:
  temperatures: [1.0, 2.0]
  alphas: [0.25, 0.5]
consolidate:
  epochs: 2
  transfer_option: public_unlabeled_small
fed:
  rounds: 2
  local_epochs: 1
report:
  format: json
"""


def test_criterion_09_rerun_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(ACCEPT_YAML)
    out = tmp_path / "run"
    base = ["--config", str(config), "--out-dir", str(out)]
    commands = [
        ["partition"],
        ["pretrain"],
        ["distill", "--teacher", "0", "--student", "1"],
        ["grid", "--teacher", "0", "--student", "1"],
        ["matrix"],
        ["consolidate"],
        ["fedavg"],
        ["report"],
    ]
    for cmd in commands:
        assert main(cmd + base) == 0, f"first {cmd[0]} run failed"
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert snapshot, "pipeline wrote nothing"
    for cmd in commands:
        assert main(cmd + base) == 0, f"second {cmd[0]} run failed"
    after = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    same_names = set(after) == set(snapshot)
    changed = [str(name) for name in snapshot if after.get(name) != snapshot[name]]
    ok = same_names and not changed
    _stamp(9, ok, f"{len(snapshot)} files byte-identical after rerun")
    assert same_names
    assert not changed, f"reruns rewrote {changed}"


# ---------------------------------------------------------------------------
# criterion 10: learning minus forgetting reconciles with overall gain
# ---------------------------------------------------------------------------


def test_criterion_10_learning_forgetting_reconciliation(matrix_records):
    assert len(matrix_records) == 360
    worst = max(reconciliation_residual(record) for record in matrix_records)
    ok = worst < 1e-9
    _stamp(10, ok, f"max residual {worst:.2e} over {len(matrix_records)} records")
    assert worst < 1e-9
