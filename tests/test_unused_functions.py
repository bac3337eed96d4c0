"""No public function of the package lives for the tests alone.

A top-level public function of `src/kdsim` that no code in the package
calls, imports or otherwise names is either dead or kept for a reason;
the reasons are listed here, so test-only code cannot pile up unnoticed.
"""

import ast
from pathlib import Path

import kdsim

PACKAGE = Path(kdsim.__file__).parent

KEPT = {
    # spans of perfbench/tracer.py bind these names
    "ce_loss": "traced; the CE loss the gradient checks differentiate",
    "backprop_params": "traced; the reference backprop the tests compare the step against",
    "train_supervised": "traced; the one-model run train_supervised_cells equals",
    "distill_vanilla": "traced; the one-cell run distill_vanilla_benches equals",
    "distill_dml": "traced; the one-cell run distill_dml_cells equals",
    "distill_dpkd": "traced; the one-cell run distill_dpkd_cells equals",
    # the documented losses the trainer's step is checked against
    "masked_distillation_loss": "DPKD's loss",
    "weighted_ensemble_kl": "multi-teacher consolidation's loss",
    # library API the acceptance criteria and the benchmark check through
    "dpkd_masks": "criterion 2's mask algebra",
    "reconciliation_residual": "criterion 10's identity; perfbench checks its outputs with it",
    "save_dataset": "writes the CSV files a csv dataset reads",
    # helpers the tests use, kept in the library beside the code they check
    "predict": "argmax classifier",
    "reports_equal": "EvalReport equality",
    "models_equal": "bit-exact model equality",
    "build_scenario": "scenario assembly without a plan file",
    "recommend_kd_method": "the hand-written method rule table, not yet derived from results",
}


def _unreferenced() -> set[str]:
    defined: set[str] = set()
    named: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                # a function's call of itself is no use of it
                if name != own:
                    named.add(name)
    return defined - named


def test_every_unused_public_function_is_kept_on_purpose():
    assert sorted(_unreferenced()) == sorted(KEPT)
