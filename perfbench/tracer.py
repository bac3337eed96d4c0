"""Span tracer that wraps kdsim's public layer functions from outside.

Nothing inside the package is instrumented. While a Tracer is installed,
every module attribute in the ``kdsim`` package that is bound to one of
the traced functions is replaced by a wrapper that records a span, so a
function imported with ``from .nn import softmax`` is caught in
``kdsim.distill`` as well as in ``kdsim.nn``. ``_Optimizer.step`` is
wrapped on the class because ``kdsim.fed`` builds the optimizer directly.

Spans are aggregated on exit into per-name totals (calls and self
seconds) rather than kept one by one, so memory stays flat however
many minibatch steps a workload runs. A span's self time is its duration
minus the time of its child spans. A call that re-enters the span it is
directly inside (``forward_logits`` calling ``_forward_cached``, or the
recursive ``config_fingerprint``) is not a new span, so ``calls`` counts
top-level work only.

Two waste ratios are counted at the same boundaries:

* ``distill.teacher_targets``: soft-target computations performed by the
  distillation functions, keyed by (teacher parameters, transfer set
  content, temperature);
* ``orchestrate.distill_runs``: ``distill_vanilla`` calls, keyed by
  (teacher, student, transfer option, temperature, alpha).

The hashing these need, and the file sizes read for the ``.bytes``
counters, run outside every span's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict

# (span name, module under kdsim, attribute path). Several attributes may
# share one span name.
TRACED = (
    ("nn.optimizer_step", "nn", "_Optimizer.step"),
    ("nn.forward", "nn", "forward_logits"),
    ("nn.forward", "nn", "_forward_cached"),
    ("nn.backprop", "nn", "backprop_params"),
    ("nn.softmax", "nn", "softmax"),
    ("nn.ce_loss", "nn", "ce_loss"),
    ("nn.evaluate", "nn", "evaluate"),
    ("nn.train_supervised", "nn", "train_supervised"),
    ("seeding.rng_for", "seeding", "rng_for"),
    ("seeding.stable_seed", "seeding", "stable_seed"),
    ("distill.vanilla", "distill", "distill_vanilla"),
    ("distill.dml", "distill", "distill_dml"),
    ("distill.dpkd", "distill", "distill_dpkd"),
    ("distill.multi_teacher", "distill", "distill_multi_teacher"),
    ("orchestrate.grid_search", "orchestrate", "grid_search_tuned"),
    ("orchestrate.pretrain", "orchestrate", "pretrain_participants"),
    ("orchestrate.consolidate", "orchestrate", "consolidate_models"),
    ("fed.local_update", "fed", "local_update"),
    ("fed.aggregate", "fed", "fedavg_aggregate"),
    ("fed.run", "fed", "run_federated"),
    ("data.partition", "data", "make_partition"),
    ("data.transfer_set", "data", "build_transfer_set"),
    ("data.toy", "toydata", "gaussian_blobs"),
    ("artifacts.read_json", "artifacts", "read_json"),
    ("artifacts.write_json", "artifacts", "write_json"),
    ("artifacts.load_model", "artifacts", "load_model"),
    ("artifacts.save_model", "artifacts", "save_model"),
    ("artifacts.config_fingerprint", "artifacts", "config_fingerprint"),
    ("config.parse_config", "config", "parse_config"),
    ("metrics.emit_report", "metrics", "emit_report"),
    ("metrics.build_pair_result", "metrics", "build_pair_result"),
)

# The benchmark opens this span itself around every kdsim.cli.main call.
CLI_SPAN = "cli.main"

SPAN_NAMES = tuple(dict.fromkeys([CLI_SPAN] + [name for name, _, _ in TRACED]))
BYTE_SPANS = (
    "artifacts.read_json",
    "artifacts.write_json",
    "artifacts.load_model",
    "artifacts.save_model",
)
RATIOS = ("distill.teacher_targets", "orchestrate.distill_runs")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


def _model_key(model) -> bytes:
    return _digest(*model.weights, *model.biases)


class _Ratio:
    """Distinct keys seen against attempts made."""

    def __init__(self) -> None:
        self.keys: set = set()
        self.attempts = 0

    def add(self, key) -> None:
        self.keys.add(key)
        self.attempts += 1

    @property
    def value(self) -> float:
        # with nothing attempted nothing was wasted
        return len(self.keys) / self.attempts if self.attempts else 1.0


class Tracer:
    """Aggregated spans over kdsim's layer functions; see module docstring."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.ratios = {name: _Ratio() for name in RATIOS}
        # open spans: [name, seconds covered by children]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._before = {
            "distill.vanilla": self._see_vanilla,
            "distill.dpkd": self._see_dpkd,
            "distill.multi_teacher": self._see_multi_teacher,
        }

    # -- span bookkeeping ----------------------------------------------------

    def _run(self, name, fn, args, kwargs, before=None, after=None):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        if before is not None:
            before(args, kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        t1 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t2 = time.perf_counter()
            stack.pop()
            if after is not None:
                after(args, kwargs)
            self.calls[name] += 1
            self.self_s[name] += t2 - t1 - frame[1]
            if stack:
                # the whole wrapper, observers included, leaves the parent's self time
                stack[-1][1] += time.perf_counter() - t0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span opened by the caller, e.g. ``cli.main``."""
        return self._run(name, fn, args, kwargs)

    def _wrapper(self, name: str, fn):
        before = None
        if name in self._before:
            observe, signature = self._before[name], inspect.signature(fn)

            def before(args, kwargs):
                observe(signature.bind(*args, **kwargs).arguments)

        after = self._count_bytes(name) if name in BYTE_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, before, after)

        return traced

    def _count_bytes(self, name: str):
        def after(args, kwargs):
            # every traced artifact function takes the file path first
            path = kwargs.get("path", args[0] if args else None)
            try:
                self.bytes[name] += os.stat(path).st_size
            except (OSError, TypeError):
                pass

        return after

    # -- waste ratios --------------------------------------------------------

    def _targets(self, models, transfer, temperatures) -> None:
        ratio = self.ratios["distill.teacher_targets"]
        data_key = (transfer.origin, _digest(transfer.features))
        for model in models:
            key = _model_key(model)
            for temperature in temperatures:
                ratio.add((key, data_key, float(temperature)))

    def _see_vanilla(self, a: dict) -> None:
        from kdsim.data import PUBLIC_TRANSFER_OPTIONS

        student, transfer, cfg = a["student"], a["transfer"], a["cfg"]
        bench = list(a["teachers"])
        if transfer.origin in PUBLIC_TRANSFER_OPTIONS:
            # distill_vanilla adds a frozen copy of the student to the bench
            bench.append(student)
        self._targets(bench, transfer, [cfg.temperature])
        self.ratios["orchestrate.distill_runs"].add(
            (
                tuple(_model_key(t) for t in a["teachers"]),
                _model_key(student),
                transfer.origin,
                float(cfg.temperature),
                float(cfg.alpha),
            )
        )

    def _see_dpkd(self, a: dict) -> None:
        # masks compare teacher and snapshot at temperature 1, then the
        # targets are computed again at the run temperature
        self._targets(
            [a["teacher"], a["student"]], a["transfer"], [1.0, a["cfg"].temperature]
        )

    def _see_multi_teacher(self, a: dict) -> None:
        self._targets(a["teachers"], a["transfer"], [a["cfg"].temperature])

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        import kdsim.cli  # noqa: F401  (imports every layer module)
        import kdsim.toydata  # noqa: F401

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "kdsim" or n.startswith("kdsim."))
        ]
        for name, module_name, attr in TRACED:
            module = sys.modules[f"kdsim.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrapper(name, original), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper, original)
        return self

    def _patch(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer numbers as {metric name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for name in BYTE_SPANS:
            out[f"{name}.bytes"] = (self.bytes.get(name, 0), "bytes")
        for name, ratio in self.ratios.items():
            out[f"{name}.useful_ratio"] = (ratio.value, "ratio")
            out[f"{name}.attempts"] = (ratio.attempts, "count")
        return out

