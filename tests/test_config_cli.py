"""Run configuration parsing, artifact files, and the command line."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from kdsim.artifacts import (
    STAGE_PARENTS,
    config_fingerprint,
    load_model,
    read_json,
    record_stage,
    require_stage,
    save_model,
    write_json,
)
from kdsim.cli import main
from kdsim.config import RunConfig, parse_config
from kdsim.distill import DistillConfig
from kdsim.errors import ConfigError, ParseError
from kdsim.fed import FedConfig
from kdsim.nn import ArchSpec, TrainConfig, init_model, models_equal
from kdsim.orchestrate import (
    DEFAULT_GRID_ALPHAS,
    DEFAULT_GRID_TEMPERATURES,
    GridSpec,
    build_scenario,
)
from kdsim.seeding import stable_seed
from kdsim.toydata import gaussian_blobs

TINY_YAML = """\
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


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(TINY_YAML)
    return path


def _run(*argv):
    return main(list(argv))


# -- config parsing ---------------------------------------------------------


def test_defaults_without_a_file():
    cfg = parse_config(None)
    assert cfg.seed == 0
    assert cfg.jobs == 1
    assert tuple(cfg.grid.temperatures) == DEFAULT_GRID_TEMPERATURES
    assert tuple(cfg.grid.alphas) == DEFAULT_GRID_ALPHAS
    assert cfg.distill.temperature == 1.0
    assert cfg.distill.alpha == 0.5
    assert cfg.distill.methods == ["vanilla"]
    assert cfg.fed.rounds == 100
    assert cfg.consolidate.start_policy == "best"
    assert cfg.report.format == "csv"


def test_file_values_and_override_precedence(tiny_config):
    cfg = parse_config(tiny_config)
    assert cfg.seed == 3
    assert cfg.dataset.classes == 3
    assert cfg.grid.temperatures == [1.0, 2.0]
    cfg = parse_config(tiny_config, {"seed": 9, "out_dir": None})
    assert cfg.seed == 9  # explicit override wins
    assert cfg.out_dir == "runs/out"  # None override is skipped


def test_unknown_keys_are_rejected_with_paths(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("bogus: 1\ndistill:\n  flavor: mint\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "bogus: unknown key" in msg
    assert "distill.flavor: unknown key" in msg


def test_every_violation_is_collected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "distill:\n  alpha: 1.5\nfed:\n  rounds: 0\npartition:\n  val_fraction: 2\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert msg.startswith("invalid configuration:")
    assert "distill.alpha" in msg
    assert "fed.rounds" in msg
    assert "partition.val_fraction" in msg


def test_non_mapping_yaml_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        parse_config(path)


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_is_a_config_error_naming_file_line_and_column(
    tmp_path, monkeypatch, capsys, loader
):
    import kdsim.config as config

    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML built without {loader}")
    monkeypatch.setattr(config, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "bad.yaml"
    path.write_text("pool:\n  size: 40\nseed: [1\n")
    with pytest.raises(ConfigError, match="line 4, column 1"):
        parse_config(path)
    assert _run("partition", "--config", str(path), "--out-dir", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kdsim: {path}: malformed YAML at line 4, column 1")
    assert "Traceback" not in err


def test_both_yaml_loaders_read_the_same_tree():
    assert yaml.load(TINY_YAML, Loader=yaml.SafeLoader) == yaml.load(
        TINY_YAML, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    )


def test_repeated_methods_and_options_are_rejected():
    raw = {
        "distill": {
            "methods": ["vanilla", "dml", "vanilla", "vanilla"],
            "transfer_options": ["student_data", "student_data"],
        }
    }
    with pytest.raises(ConfigError) as err:
        parse_config(None, raw)
    msg = str(err.value)
    assert msg.count("distill.methods: repeated entry 'vanilla'") == 1
    assert msg.count("distill.transfer_options: repeated entry 'student_data'") == 1
    assert "'dml'" not in msg


def test_csv_dataset_requires_paths(tmp_path):
    path = tmp_path / "csv.yaml"
    path.write_text("dataset:\n  kind: csv\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "dataset.train_path" in str(err.value)
    assert "dataset.test_path" in str(err.value)


def test_specialized_strategy_links_k_to_classes(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("partition:\n  strategy: specialized\n  k: 4\ndataset:\n  classes: 6\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "k == dataset.classes" in str(err.value)


def test_pool_must_cover_used_transfer_options(tmp_path):
    path = tmp_path / "pool.yaml"
    # consolidation defaults to the large unlabeled option (500 draws)
    path.write_text("pool:\n  size: 100\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "pool.size" in str(err.value)
    assert "public_unlabeled_large" in str(err.value)


def test_untrained_consolidation_cannot_use_student_data(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "consolidate:\n  start_policy: untrained\n  transfer_option: student_data\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "consolidate.transfer_option" in str(err.value)


@pytest.mark.parametrize("path", [
    "dataset.classes", "dataset.dim", "dataset.train_per_class", "dataset.test_per_class",
    "partition.k", "partition.min_chunk", "pool.size", "pool.labeled",
    "pool.unlabeled_small", "pool.unlabeled_large", "consolidate.epochs",
    "pretrain.batch_size", "pretrain.max_epochs", "distill.epochs", "fed.rounds",
    "model.hidden_layers",
])
def test_booleans_are_not_counts(path):
    section, key = path.split(".")
    value = [True] if key == "hidden_layers" else True
    with pytest.raises(ConfigError) as err:
        parse_config(None, {section: {key: value}})
    assert f"{path}: must be" in str(err.value)


_INF = float("inf")


@pytest.mark.parametrize("path, value", [
    ("pretrain.learning_rate", _INF), ("pretrain.weight_decay", _INF),
    ("distill.temperature", _INF), ("distill.learning_rate", _INF),
    ("distill.weight_decay", _INF), ("fed.learning_rate", _INF), ("fed.weight_decay", _INF),
    ("grid.temperatures", [1.0, _INF]), ("dataset.spread", _INF),
    ("partition.beta", _INF), ("partition.betas", [1.0, _INF, 1.0]),
])
def test_infinities_are_config_errors_before_any_work(tmp_path, capsys, path, value):
    section, key = path.split(".")
    config = _config_with(tmp_path, "inf.yaml", **{section: {key: value}})
    assert ".inf" in config.read_text()
    with pytest.raises(ConfigError, match=f"{path}: must be"):
        parse_config(config)
    out = tmp_path / "run"
    assert _run("partition", "--config", str(config), "--out-dir", str(out)) == 1
    assert path in capsys.readouterr().err
    assert not (out / "plan.json").exists()


def test_malformed_transfer_options_are_reported():
    for raw in ({"distill": {"transfer_options": 5}}, {"consolidate": {"transfer_option": [1]}}):
        with pytest.raises(ConfigError, match="transfer_option"):
            parse_config(None, raw)


def test_grid_section_is_a_grid_spec_with_its_rules():
    raw = {"grid": {"temperatures": [], "alphas": [True, 0.5], "sequential": 1}}
    with pytest.raises(ConfigError) as err:
        parse_config(None, raw)
    assert str(err.value).splitlines()[1:] == [
        "  grid.alphas: must be a non-empty list of values in [0, 1]",
        "  grid.sequential: must be a boolean",
        "  grid.temperatures: must be a non-empty list of positives",
    ]
    with pytest.raises(ConfigError, match="temperatures"):
        GridSpec(**raw["grid"])
    # the section keeps the values it is given; the search reads them as floats
    cfg = parse_config(None, {"grid": {"temperatures": [1, 2], "alphas": [0, 1]}})
    assert cfg.grid.temperatures == [1, 2] and type(cfg.grid.temperatures[0]) is int


def test_adapters_copy_section_values(tiny_config):
    cfg = parse_config(tiny_config)
    assert isinstance(cfg.pretrain, TrainConfig) and cfg.pretrain.max_epochs == 12
    assert isinstance(cfg.distill, DistillConfig) and cfg.distill.epochs == 2
    assert isinstance(cfg.grid, GridSpec) and cfg.grid.temperatures == [1.0, 2.0]
    assert cfg.transfer_sizes().labeled == 12
    assert isinstance(cfg.fed, FedConfig) and cfg.fed.rounds == 2
    tree = cfg.as_dict()
    assert tree["pool"]["unlabeled_large"] == 30


# -- fingerprints -----------------------------------------------------------


def test_fingerprint_scoping_and_chaining():
    base = RunConfig()
    assert config_fingerprint(base, "partition") == config_fingerprint(RunConfig(), "partition")

    moved = RunConfig()
    moved.distill.alpha = 0.9
    # distill settings do not reach the partition stage
    assert config_fingerprint(moved, "partition") == config_fingerprint(base, "partition")
    assert config_fingerprint(moved, "distill") != config_fingerprint(base, "distill")

    reshaped = RunConfig()
    reshaped.dataset.classes = 7
    # dataset changes cascade through the parent chain into pretrain
    assert config_fingerprint(reshaped, "partition") != config_fingerprint(base, "partition")
    assert config_fingerprint(reshaped, "pretrain") != config_fingerprint(base, "pretrain")

    reseeded = RunConfig(seed=1)
    for stage in ("partition", "pretrain", "distill", "fedavg"):
        assert config_fingerprint(reseeded, stage) != config_fingerprint(base, stage)


def test_fingerprints_are_frozen_values():
    # manifests and model files on disk carry these; a change to how they
    # are computed must not move them
    base = RunConfig()
    other = RunConfig(seed=5)
    other.partition.strategy = "label_skew_dirichlet"
    other.partition.betas = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    other.model.hidden_layers = [32, 16]
    other.fed = FedConfig(
        rounds=7, local_epochs=3, optimizer="adam", learning_rate=0.05, participation_rate=0.5
    )
    want = {
        "partition": ("3af6a467b35b5076", "42accaeb5995159b"),
        "pretrain": ("bb52c1cff9cf77d5", "a11418d51a8067f0"),
        "distill": ("620a6aaf8d524db1", "6d0d241f5d6a89cc"),
        "grid": ("1528b7eae637b401", "6f758f3f4dee3001"),
        "matrix": ("620844a07069120f", "fc17ef2610874f3e"),
        "consolidate": ("16be5c3fa334ba9d", "afdb2f8364a5ff58"),
        "fedavg": ("2787942bf8b8a39c", "7a90d531ae33791c"),
    }
    assert set(want) == set(STAGE_PARENTS)
    for stage, values in want.items():
        assert (config_fingerprint(base, stage), config_fingerprint(other, stage)) == values


def test_fingerprint_ignores_out_dir_and_jobs():
    a = RunConfig(out_dir="runs/a", jobs=1)
    b = RunConfig(out_dir="runs/b", jobs=8)
    for stage in ("partition", "matrix"):
        assert config_fingerprint(a, stage) == config_fingerprint(b, stage)


# -- artifact files ---------------------------------------------------------


def test_json_io_round_trip(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2], "a": 0.5})
    assert read_json(path) == {"a": 0.5, "b": [1, 2]}
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert text.endswith("\n")
    path.write_text("{nope")
    with pytest.raises(ParseError):
        read_json(path)


def test_model_file_round_trip(tmp_path):
    model = init_model(ArchSpec(input_dim=3, hidden_layers=(5,), num_classes=4), 1)
    path = tmp_path / "m.kdsm"
    save_model(path, model, "ab12cd34")
    again = load_model(path, expect_fingerprint="ab12cd34")
    assert models_equal(model, again)


def test_model_file_fingerprint_guard(tmp_path):
    model = init_model(ArchSpec(input_dim=2, hidden_layers=(), num_classes=2), 0)
    path = tmp_path / "m.kdsm"
    save_model(path, model, "cafe0001")
    with pytest.raises(ConfigError, match="--force"):
        load_model(path, expect_fingerprint="dead0002")
    forced = load_model(path, expect_fingerprint="dead0002", force=True)
    assert models_equal(forced, model)


def test_model_file_corruption_detected(tmp_path):
    model = init_model(ArchSpec(input_dim=2, hidden_layers=(3,), num_classes=2), 0)
    path = tmp_path / "m.kdsm"
    save_model(path, model, "feed0003")
    blob = path.read_bytes()
    path.write_bytes(b"WXYZ" + blob[4:])
    with pytest.raises(ParseError):
        load_model(path)
    path.write_bytes(blob[:-5])
    with pytest.raises(ParseError):
        load_model(path)
    path.write_bytes(blob + b"junk")
    with pytest.raises(ParseError):
        load_model(path)


def test_stage_bookkeeping(tmp_path):
    cfg = RunConfig()
    record_stage(tmp_path, cfg, "partition", {"plan": "plan.json"})
    assert require_stage(tmp_path, cfg, "partition") == {"plan": "plan.json"}
    with pytest.raises(ConfigError, match="run `kdsim pretrain` first"):
        require_stage(tmp_path, cfg, "pretrain")
    other = RunConfig(seed=5)
    with pytest.raises(ConfigError, match="fingerprint"):
        require_stage(tmp_path, other, "partition")
    assert require_stage(tmp_path, other, "partition", force=True) == {"plan": "plan.json"}


# -- command line -----------------------------------------------------------


def test_cli_requires_a_command(capsys):
    assert _run() == 1
    assert "no command" in capsys.readouterr().err


def test_cli_version_flag():
    with pytest.raises(SystemExit) as exc:
        _run("--version")
    assert exc.value.code == 0


def test_cli_unknown_flag_is_a_config_error(capsys):
    assert _run("partition", "--sideways") == 1
    assert "kdsim:" in capsys.readouterr().err


def test_cli_missing_config_file(capsys, tmp_path):
    rc = _run("partition", "--config", str(tmp_path / "nope.yaml"))
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_cli_stage_ordering_enforced(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = _run("pretrain", "--config", str(tiny_config), "--out-dir", str(out))
    assert rc == 1
    assert "partition" in capsys.readouterr().err


def test_cli_pipeline_end_to_end(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    assert _run("partition", *base) == 0
    assert (out / "plan.json").exists()
    assert (out / "pool.json").exists()
    assert _run("pretrain", *base) == 0
    assert (out / "pretrain_evals.json").exists()
    assert (out / "models/participant_00.kdsm").exists()
    assert _run("distill", *base, "--teacher", "0", "--student", "1") == 0
    assert (out / "distill_t0_s1_vanilla_student_data.json").exists()
    assert _run("grid", *base, "--teacher", "0", "--student", "1") == 0
    surface = read_json(out / "grid_t0_s1_student_data.json")
    assert len(surface["surface"]) == 4
    assert _run("matrix", *base) == 0
    results = read_json(out / "results.json")
    assert len(results["results"]) == 6  # 3 participants, ordered pairs
    assert _run("consolidate", *base) == 0
    assert (out / "consolidated.kdsm").exists()
    assert _run("fedavg", *base) == 0
    traj = read_json(out / "trajectories.json")
    assert {t["init_tag"] for t in traj["trajectories"]} == {"random", "preconsolidated"}
    assert all(len(t["accuracies"]) == 2 for t in traj["trajectories"])
    assert _run("report", *base) == 0
    captured = capsys.readouterr().out
    assert "cumulative gain" in captured
    manifest = read_json(out / "manifest.json")
    assert set(manifest["stages"]) >= {"partition", "pretrain", "matrix", "consolidate", "fedavg"}


def test_cli_distill_rejects_self_transfer(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    assert _run("partition", *base) == 0
    assert _run("pretrain", *base) == 0
    rc = _run("distill", *base, "--teacher", "1", "--student", "1")
    assert rc == 1
    assert "must differ" in capsys.readouterr().err


def test_cli_stale_fingerprint_and_force(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    assert _run("partition", *base) == 0
    rc = _run("pretrain", *base, "--seed", "4")
    assert rc == 1
    assert "fingerprint" in capsys.readouterr().err
    assert _run("pretrain", *base, "--seed", "4", "--force") == 0


def test_cli_out_dir_env_and_flag_precedence(tiny_config, tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("KDSIM_OUT_DIR", str(env_dir))
    assert _run("partition", "--config", str(tiny_config)) == 0
    assert (env_dir / "plan.json").exists()

    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("KDSIM_OUT_DIR", str(tmp_path / "ignored"))
    assert _run("partition", "--config", str(tiny_config), "--out-dir", str(flag_dir)) == 0
    assert (flag_dir / "plan.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_runs_are_byte_deterministic(tiny_config, tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        base = ("--config", str(tiny_config), "--out-dir", str(out))
        for cmd in ("partition", "pretrain", "matrix", "consolidate", "fedavg", "report"):
            assert _run(cmd, *base) == 0
    for name in (
        "plan.json",
        "pool.json",
        "pretrain_evals.json",
        "models/participant_00.kdsm",
        "models/participant_02.kdsm",
        "results.json",
        "consolidate.json",
        "consolidated.kdsm",
        "trajectories.json",
        "manifest.json",
    ):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_cli_rerun_in_place_rewrites_identical_bytes(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    for cmd in ("partition", "pretrain", "matrix"):
        assert _run(cmd, *base) == 0
    before = {p: p.read_bytes() for p in (out / "plan.json", out / "results.json")}
    assert _run("partition", *base) == 0
    assert _run("matrix", *base) == 0
    for path, blob in before.items():
        assert path.read_bytes() == blob


# -- regressions ------------------------------------------------------------


def _config_with(tmp_path, name, **sections):
    """TINY_YAML with some sections' keys replaced, written to tmp_path/name."""
    raw = yaml.safe_load(TINY_YAML)
    for section, values in sections.items():
        raw[section].update(values)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_cli_partition_writes_the_plan_build_scenario_returns(tmp_path, capsys):
    skew = {"strategy": "quantity_skew", "beta": 0.4}
    config = _config_with(tmp_path, "qskew.yaml", partition=skew)
    run = tmp_path / "run"
    assert _run("partition", "--config", str(config), "--out-dir", str(run)) == 0
    cfg = parse_config(config)
    d = cfg.dataset
    train, test = gaussian_blobs(
        d.classes, d.dim, d.train_per_class, d.test_per_class, d.spread,
        stable_seed(cfg.seed, "dataset"),
    )
    scenario = build_scenario(
        train, test, "quantity_skew", cfg.partition.k, {"beta": 0.4}, cfg.pool.size,
        cfg.partition.val_fraction, cfg.seed,
    )
    assert read_json(run / "plan.json") == scenario.partition.to_json_dict()
    assert read_json(run / "pool.json") == {
        "pool_indices": scenario.pool_indices.tolist(),
        "remainder_indices": scenario.remainder_indices.tolist(),
    }


def _direct_blobs(cfg):
    d = cfg.dataset
    return gaussian_blobs(
        d.classes, d.dim, d.train_per_class, d.test_per_class, d.spread,
        stable_seed(cfg.seed, "dataset"),
    )


def _same_sets(a, b):
    return all(
        np.array_equal(x.features, y.features) and np.array_equal(x.labels, y.labels)
        and x.class_count == y.class_count
        for x, y in zip(a, b)
    )


def test_toy_data_is_drawn_once_and_read_only(tiny_config):
    import kdsim.cli as cli

    cfg = parse_config(tiny_config)
    sets = cli._base_data(cfg)
    assert cli._base_data(parse_config(tiny_config)) is sets
    assert _same_sets(sets, _direct_blobs(cfg))
    for data in sets:
        for array in (data.features, data.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                array += 1


@pytest.mark.parametrize(
    "section, values",
    [
        ("seed", 4),
        ("dataset", {"classes": 4}),
        ("dataset", {"dim": 2}),
        ("dataset", {"train_per_class": 41}),
        ("dataset", {"test_per_class": 14}),
        ("dataset", {"spread": 2.0}),
        ("dataset", {"train_path": "unused.csv"}),
        ("dataset", {"test_path": "unused.csv"}),
    ],
)
def test_toy_data_is_drawn_again_for_a_new_seed_or_dataset_key(tmp_path, section, values):
    import kdsim.cli as cli

    base = parse_config(_config_with(tmp_path, "base.yaml"))
    if section == "seed":
        changed = parse_config(_config_with(tmp_path, "new.yaml"), {"seed": values})
    else:
        changed = parse_config(_config_with(tmp_path, "new.yaml", **{section: values}))
    first, again = cli._base_data(base), cli._base_data(changed)
    assert again is not first
    assert _same_sets(again, _direct_blobs(changed))


def test_cli_partition_splits_no_shard(tiny_config, tmp_path, monkeypatch, capsys):
    import kdsim.orchestrate as orchestrate

    def no_split(*args, **kwargs):
        raise AssertionError("partition built a train/validation split")

    monkeypatch.setattr(orchestrate, "split_train_val", no_split)
    assert _run("partition", "--config", str(tiny_config), "--out-dir", str(tmp_path / "run")) == 0
    assert (tmp_path / "run" / "plan.json").exists()


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that records each call's first argument."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cli_pretrain_computes_no_training_loss(tiny_config, tmp_path, monkeypatch, capsys):
    import kdsim.nn as nn

    base = ("--config", str(tiny_config), "--out-dir", str(tmp_path / "run"))
    assert _run("partition", *base) == 0
    losses = _counting(monkeypatch, nn, "ce_loss")
    assert _run("pretrain", *base) == 0
    assert losses == []


def test_cli_distill_builds_only_its_pair(tiny_config, tmp_path, monkeypatch, capsys):
    import kdsim.cli as cli
    import kdsim.orchestrate as orchestrate

    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    for cmd in ("partition", "pretrain"):
        assert _run(cmd, *base) == 0
    loads = _counting(monkeypatch, cli, "load_model")
    splits = _counting(monkeypatch, orchestrate, "split_train_val")
    pair = ("--teacher", "2", "--student", "0")
    assert _run("distill", *base, *pair) == 0
    assert sorted(path.name for path in loads) == ["participant_00.kdsm", "participant_02.kdsm"]
    assert len(splits) == 1

    result = read_json(out / "distill_t2_s0_vanilla_student_data.json")
    assert _run("matrix", *base) == 0
    (record,) = [
        r for r in read_json(out / "results.json")["results"]
        if (r["teacher_id"], r["student_id"]) == (2, 0)
    ]
    assert record == result

    models = out / "models"
    (models / "participant_01.kdsm").write_bytes(b"junk")
    assert _run("distill", *base, *pair) == 0
    assert read_json(out / "distill_t2_s0_vanilla_student_data.json") == result
    for broken in ("participant_00.kdsm", "participant_02.kdsm"):
        good = (models / broken).read_bytes()
        (models / broken).write_bytes(b"junk")
        capsys.readouterr()
        assert _run("distill", *base, *pair) == 2
        assert broken in capsys.readouterr().err
        (models / broken).write_bytes(good)


def test_cli_grid_reads_only_its_pair(tiny_config, tmp_path, monkeypatch, capsys):
    import kdsim.cli as cli

    base = ("--config", str(tiny_config), "--out-dir", str(tmp_path / "run"))
    for cmd in ("partition", "pretrain"):
        assert _run(cmd, *base) == 0
    loads = _counting(monkeypatch, cli, "load_model")
    assert _run("grid", *base, "--teacher", "1", "--student", "2") == 0
    assert sorted(path.name for path in loads) == ["participant_01.kdsm", "participant_02.kdsm"]


def test_cli_stages_that_use_every_participant_split_or_read_every_shard(
    tiny_config, tmp_path, monkeypatch, capsys
):
    import kdsim.cli as cli
    import kdsim.orchestrate as orchestrate

    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    assert _run("partition", *base) == 0
    splits = _counting(monkeypatch, orchestrate, "split_train_val")
    for cmd in ("pretrain", "matrix"):
        splits.clear()
        assert _run(cmd, *base) == 0
        assert len(splits) == 3, cmd
    assert _run("consolidate", *base) == 0

    # federations train on whole shards and split none
    shards = []
    fedavg = cli.preconsolidated_fedavg

    def recording(random_init, consolidated, arm_shards, *rest):
        shards.extend(arm_shards)
        return fedavg(random_init, consolidated, arm_shards, *rest)

    monkeypatch.setattr(cli, "preconsolidated_fedavg", recording)
    splits.clear()
    assert _run("fedavg", *base) == 0
    assert splits == []
    plan = read_json(out / "plan.json")["participants"]
    assert [len(shard) for shard in shards] == [len(idx) for idx in plan]


def test_cli_main_calls_share_no_parsed_state(tiny_config, tmp_path, monkeypatch, capsys):
    import kdsim.cli as cli

    seen = []
    for name in ("partition", "distill"):
        monkeypatch.setitem(
            cli._COMMANDS, name, lambda cfg, args: seen.append((cfg, args)) or 0
        )
    base = ("--config", str(tiny_config), "--out-dir", str(tmp_path / "run"))
    assert _run("partition", *base, "--force", "--seed", "9", "--jobs", "2") == 0
    assert _run("partition", "--sideways") == 1
    assert _run("distill", *base, "--teacher", "0") == 1
    assert _run("distill", *base, "--teacher", "0", "--student", "1", "--method", "dml") == 0
    assert _run("partition", *base) == 0
    assert _run("distill", *base, "--teacher", "1", "--student", "2") == 0
    assert cli._build_parser() is cli._build_parser()

    (forced, forced_args), (_, dml_args), (plain, plain_args), (_, default_args) = seen
    assert (forced.seed, forced.jobs, forced_args.force) == (9, 2, True)
    assert dml_args.method == "dml"
    assert (plain.seed, plain.jobs, plain_args.force) == (3, 1, False)
    assert not hasattr(plain_args, "teacher")
    assert (default_args.method, default_args.teacher, default_args.force) == ("vanilla", 1, False)


def test_write_failures_leave_the_previous_file(tmp_path, monkeypatch):
    json_path, model_path = tmp_path / "x.json", tmp_path / "m.kdsm"
    write_json(json_path, {"a": 1})
    save_model(model_path, init_model(ArchSpec(input_dim=2, num_classes=2), 0), "ab")
    before = {p: p.read_bytes() for p in (json_path, model_path)}
    with pytest.raises(TypeError):
        write_json(json_path, {"a": object()})

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("kdsim.artifacts.os.replace", fail)
    with pytest.raises(OSError):
        write_json(json_path, {"a": 2})
    with pytest.raises(OSError):
        save_model(model_path, init_model(ArchSpec(input_dim=2, num_classes=2), 1), "ab")
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.kdsm", "x.json"]


def test_cli_matrix_honours_sequential_grid(tmp_path, monkeypatch, capsys):
    import kdsim.orchestrate as orchestrate

    config = _config_with(
        tmp_path,
        "seq.yaml",
        distill={"methods": ["tuned"]},
        grid={"temperatures": [1.0, 2.0, 3.0], "alphas": [0.25, 0.5, 0.75], "sequential": True},
    )
    surfaces = []
    search = orchestrate.grid_search_teachers

    def counting_search(*args, **kwargs):
        results = search(*args, **kwargs)
        surfaces.extend(len(result.surface) for result in results)
        return results

    monkeypatch.setattr(orchestrate, "grid_search_teachers", counting_search)
    base = ("--config", str(config), "--out-dir", str(tmp_path / "run"))
    for cmd in ("partition", "pretrain", "matrix"):
        assert _run(cmd, *base) == 0
    # |alphas| + |temperatures| - 1 cells per pair, not the 9-cell product
    assert surfaces == [3 + 3 - 1] * 6


def test_cli_matrix_in_two_processes_writes_identical_results(tmp_path, capsys):
    config = _config_with(
        tmp_path,
        "all.yaml",
        distill={
            "methods": ["vanilla", "dml", "dpkd", "tuned"],
            "transfer_options": ["student_data", "public_labeled"],
        },
    )
    base = ("--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert _run("partition", *base) == 0
    assert _run("pretrain", *base) == 0
    blobs = []
    for jobs in ("1", "2"):
        assert _run("matrix", *base, "--jobs", jobs) == 0
        blobs.append((tmp_path / "run" / "results.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(read_json(tmp_path / "run" / "results.json")["results"]) == 4 * 2 * 6


def test_cli_sequential_tuned_matrix_in_two_processes_writes_identical_results(
    tmp_path, capsys
):
    config = _config_with(
        tmp_path,
        "seq.yaml",
        distill={"methods": ["vanilla", "tuned"], "transfer_options": ["student_data"]},
        grid={"temperatures": [0.5, 1.0, 3.0], "alphas": [0.0, 0.5, 1.0], "sequential": True},
    )
    base = ("--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert _run("partition", *base) == 0
    assert _run("pretrain", *base) == 0
    blobs = []
    for jobs in ("1", "2"):
        assert _run("matrix", *base, "--jobs", jobs) == 0
        blobs.append((tmp_path / "run" / "results.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(read_json(tmp_path / "run" / "results.json")["results"]) == 2 * 6


def _restamp(path, version):
    payload = read_json(path)
    payload["schema_version"] = version
    write_json(path, payload)


def test_cli_refuses_pretrain_evaluations_of_another_schema(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    for cmd in ("partition", "pretrain"):
        assert _run(cmd, *base) == 0
    _restamp(out / "pretrain_evals.json", 2)
    capsys.readouterr()
    assert _run("matrix", *base) == 2
    assert "schema" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_cli_report_refuses_trajectories_of_another_schema(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    for cmd in ("partition", "pretrain", "matrix", "consolidate", "fedavg"):
        assert _run(cmd, *base) == 0
    _restamp(out / "trajectories.json", 2)
    capsys.readouterr()
    assert _run("report", *base) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_report_refuses_stale_trajectories(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--out-dir", str(out))
    for cmd in ("partition", "pretrain", "matrix", "consolidate", "fedavg"):
        assert _run(cmd, "--config", str(tiny_config), *base) == 0
    capsys.readouterr()
    longer = _config_with(tmp_path, "longer.yaml", fed={"rounds": 3})
    assert _run("report", "--config", str(longer), *base) == 1
    assert "'fedavg'" in capsys.readouterr().err
    assert _run("report", "--config", str(longer), *base, "--force") == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_federation_fails_instead_of_reporting_accuracy(tmp_path, capsys):
    config = _config_with(tmp_path, "diverge.yaml", fed={"learning_rate": 1e150})
    base = ("--config", str(config), "--out-dir", str(tmp_path / "run"))
    for cmd in ("partition", "pretrain", "consolidate"):
        assert _run(cmd, *base) == 0
    assert _run("fedavg", *base) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trajectories.json").exists()


def test_cli_fedavg_without_a_target_accuracy_exits_zero(tmp_path, capsys):
    # a learning rate of 0 is a valid probe; at seed 6 this random arm
    # never classifies the two test rows right, so its best accuracy, 0,
    # is no target the consolidated arm could reach
    config = _config_with(
        tmp_path, "flat.yaml",
        dataset={"classes": 2, "dim": 2, "train_per_class": 40, "test_per_class": 1},
        partition={"strategy": "uniform", "k": 2},
        pool={"size": 20, "labeled": 5, "unlabeled_small": 5, "unlabeled_large": 10},
        model={"hidden_layers": [4]},
        pretrain={"max_epochs": 2, "patience": 2},
        consolidate={"epochs": 1},
        fed={"rounds": 2, "local_epochs": 1, "learning_rate": 0.0},
    )
    base = ("--config", str(config), "--out-dir", str(tmp_path / "run"), "--seed", "6")
    for cmd in ("partition", "pretrain", "consolidate"):
        assert _run(cmd, *base) == 0
    capsys.readouterr()
    assert _run("fedavg", *base) == 0
    out = capsys.readouterr().out
    assert "random: start 0.0000, final 0.0000" in out
    assert "best accuracy" not in out


def test_cli_missing_plan_is_an_error_not_a_traceback(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    assert _run("partition", *base) == 0
    (out / "plan.json").unlink()
    capsys.readouterr()
    assert _run("pretrain", *base) == 2
    assert capsys.readouterr().err.startswith(f"kdsim: {out / 'plan.json'}: cannot read")


def test_cli_missing_model_fails_the_stages_that_read_it(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    base = ("--config", str(tiny_config), "--out-dir", str(out))
    for cmd in ("partition", "pretrain"):
        assert _run(cmd, *base) == 0
    missing = out / "models" / "participant_01.kdsm"
    missing.unlink()
    capsys.readouterr()
    assert _run("matrix", *base) == 2
    assert capsys.readouterr().err.startswith(f"kdsim: {missing}: cannot read")
    # a request reads only its own pair's models
    assert _run("distill", *base, "--teacher", "2", "--student", "0") == 0
    assert _run("distill", *base, "--teacher", "1", "--student", "0") == 2


def test_integer_grid_values_write_the_bytes_of_their_float_spelling(tmp_path, capsys):
    methods = {"methods": ["vanilla", "tuned"], "transfer_options": ["student_data"]}
    written = []
    for name, temperatures, alphas in (
        ("ints", [1, 2], [0, 1, 0.5]), ("floats", [1.0, 2.0], [0.0, 1.0, 0.5])
    ):
        grid = {"temperatures": temperatures, "alphas": alphas, "sequential": True}
        config = _config_with(tmp_path, f"{name}.yaml", distill=methods, grid=grid)
        out = tmp_path / name
        base = ("--config", str(config), "--out-dir", str(out))
        for cmd in ("partition", "pretrain", "matrix"):
            assert _run(cmd, *base) == 0
        assert _run("grid", *base, "--teacher", "0", "--student", "1") == 0
        written.append([
            (out / rel).read_bytes() for rel in ("results.json", "grid_t0_s1_student_data.json")
        ])
    assert written[0] == written[1]
    assert b'"temperature": 1.0' in written[0][1]


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```(\w*)\n(.*?)```", _README.read_text(), re.S)
    (config,) = [body for lang, body in blocks if lang == "yaml" and body.startswith("# run.yaml")]
    commands = [
        line.split()[1:]
        for lang, body in blocks if lang == "sh"
        for line in body.splitlines() if line.startswith("kdsim ")
    ]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KDSIM_OUT_DIR", raising=False)
    Path("run.yaml").write_text(config)
    for argv in commands:
        assert main(argv) == 0, argv
    assert Path("runs/demo/results.csv").exists()
