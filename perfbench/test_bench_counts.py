"""Checks that the tracer sees every call and that BENCHMARK.json matches.

The counts on a tiny pipeline must equal the numbers derived from shard
sizes, epochs, batch size and rounds; a binding the tracer missed (say
``kdsim.fed``'s own ``_Optimizer``) would show up as a shortfall.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run
from tracer import CLI_SPAN, TRACED, Tracer

main = run._import_kdsim_main()

K = 3
BATCH = 8
ROUNDS = 2
LOCAL_EPOCHS = 2
CONSOLIDATE_EPOCHS = 2
POOL_LARGE = 50
TINY = {
    "seed": 3,
    "dataset": {"classes": 4, "dim": 4, "train_per_class": 40, "test_per_class": 10},
    "partition": {"strategy": "uniform", "k": K},
    "pool": {"size": 60, "labeled": 10, "unlabeled_small": 10, "unlabeled_large": POOL_LARGE},
    "pretrain": {"max_epochs": 3, "patience": 3, "batch_size": BATCH},
    "distill": {"batch_size": BATCH},
    "consolidate": {"epochs": CONSOLIDATE_EPOCHS},
    "fed": {"rounds": ROUNDS, "local_epochs": LOCAL_EPOCHS, "batch_size": BATCH},
}


def _stage(tmp_path, stage: str) -> Tracer:
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(TINY))
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        argv = [stage, "--config", str(config), "--out-dir", str(tmp_path)]
        rc = tracer.span(CLI_SPAN, main, argv)
    assert rc == 0
    return tracer


def test_counts_match_the_schedule(tmp_path):
    for stage in ("partition", "pretrain"):
        _stage(tmp_path, stage)
    shards = [len(p) for p in json.loads((tmp_path / "plan.json").read_text())["participants"]]
    assert len(shards) == K

    consolidate = _stage(tmp_path, "consolidate")
    steps = CONSOLIDATE_EPOCHS * math.ceil(POOL_LARGE / BATCH)
    assert consolidate.calls["nn.optimizer_step"] == steps
    assert consolidate.calls["distill.multi_teacher"] == 1

    fedavg = _stage(tmp_path, "fedavg")
    steps_per_round = sum(LOCAL_EPOCHS * math.ceil(n / BATCH) for n in shards)
    arms = 2
    assert fedavg.calls["fed.local_update"] == arms * ROUNDS * K
    assert fedavg.calls["fed.aggregate"] == arms * ROUNDS
    assert fedavg.calls["nn.optimizer_step"] == arms * ROUNDS * steps_per_round
    assert fedavg.calls[CLI_SPAN] == 1


def test_every_binding_is_wrapped_and_restored():
    modules = [m for n, m in sys.modules.items() if n == "kdsim" or n.startswith("kdsim.")]

    def bindings():
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}

    before = bindings()
    originals = {
        getattr(sys.modules[f"kdsim.{mod}"], attr)
        for _, mod, attr in TRACED
        if "." not in attr
    }
    optimizer = sys.modules["kdsim.nn"]._Optimizer
    step = optimizer.step
    with Tracer():
        left = [key for key, v in bindings().items() if any(v is o for o in originals)]
        assert left == []
        assert optimizer.step is not step
    assert bindings() == before
    assert optimizer.step is step


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_units = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    layer_units["tracing_overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
