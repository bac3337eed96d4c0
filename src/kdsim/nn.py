"""Dense feed-forward classifiers with hand-rolled, checkable gradients.

Models are deliberately small and boring: float64 numpy, ReLU hidden
layers, analytic gradients, explicit seeds everywhere. Keeping the
arithmetic in plain numpy makes three guarantees cheap that the rest of
the package leans on: repeated runs are bit-identical per (architecture,
seed), frozen models can never be touched by a training step, and every
gradient can be checked against central finite differences.

A model's parameters are one contiguous float64 vector, `Model.params`
(every weight matrix in layer order, then every bias); the per-layer
`weights` and `biases` are views into it, laid out by
`ArchSpec.param_views`. Copying, comparing, stepping and averaging
models are therefore whole-vector operations.

A stack is S models of one architecture trained side by side: a `Model`
whose `params` is an (S, P) array, one row per cell, with (S, fan_in,
fan_out) weight and (S, fan_out) bias views. Every layer function takes
the leading cell axis: the forward pass and backprop batch their matrix
products over it, softmax reduces over the last axis and the optimizer
works elementwise. Each cell goes through exactly the floating-point
operations of its own unstacked run (numpy's matmul multiplies a stack
slice by slice, each slice with the BLAS call a single matrix gets), so
its parameters come out bit-identical; stacking only saves the Python
and numpy dispatch of S separate minibatch steps.

All training runs through one minibatch loop, `train_epoch`: supervised
pre-training (early-stopped on validation accuracy) and FedAvg local
updates pass hard targets, distillation passes the targets it builds.
The optimizer owns a flat gradient buffer that `backprop_params` fills,
and it steps in place. A pass that leaves a parameter NaN or infinite
raises DomainError.

A training recipe (`TrainConfig` here, `distill.DistillConfig` and
`fed.FedConfig`) states its rules once, in `problems()`, which lists
every type and range finding as "key: message". Its constructor raises
one ConfigError naming them all, and `config` reports them per key;
`TrainConfig` and `FedConfig` are the run configuration's `pretrain`
and `fed` sections. The five optimizer keys every recipe shares are
checked by one helper, `optimizer_problems`, and no rule counts a
boolean or an infinity as a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, DomainError, ShapeError
from .seeding import rng_for

# probabilities are clamped to [PROB_FLOOR, 1] inside every log
PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("adam", "sgd")


@dataclass(eq=False)
class ArchSpec:
    """Layer widths of a fully connected ReLU classifier."""

    input_dim: int
    hidden_layers: tuple[int, ...] = (64,)
    num_classes: int = 2

    def __post_init__(self) -> None:
        self.hidden_layers = tuple(int(w) for w in self.hidden_layers)
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(w < 1 for w in self.hidden_layers):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        # (start, stop, shape) of every weight matrix, then every bias, in `Model.params`
        dims = self.layer_dims()
        self._layout: list[tuple[int, int, tuple[int, ...]]] = []
        stop = 0
        for shape in [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:])]:
            start, stop = stop, stop + math.prod(shape)
            self._layout.append((start, stop, shape))
        self.n_weight_entries = self._layout[len(self.hidden_layers)][1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchSpec):
            return NotImplemented
        return (
            self.input_dim == other.input_dim
            and self.hidden_layers == other.hidden_layers
            and self.num_classes == other.num_classes
        )

    def layer_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_layers, self.num_classes]

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shape of every weight matrix in layer order, then every bias."""
        return [shape for _, _, shape in self._layout]

    def param_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views into a parameter vector (P,) or a stack (S, P).

        The views of a stack keep its leading cell axis: weights are
        (S, fan_in, fan_out) and biases (S, fan_out).
        """
        lead = flat.shape[:-1]
        views = [flat[..., a:b].reshape(lead + shape) for a, b, shape in self._layout]
        n = len(self.hidden_layers) + 1
        return views[:n], views[n:]


@dataclass(eq=False)
class Model:
    """Parameters of one classifier plus the seed that initialized it.

    Construction copies `weights` and `biases` into one fresh vector,
    `params`, and rebinds them to views into it (see the module docstring).
    `from_params` wraps an existing vector instead, or an (S, P) stack.
    """

    arch: ArchSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int
    params: np.ndarray = field(init=False, repr=False)
    n_weight_entries: int = field(init=False, repr=False)  # weight prefix of params

    def __post_init__(self) -> None:
        arrays = [*self.weights, *self.biases]
        shapes = [np.shape(a) for a in arrays]
        if shapes != self.arch.param_shapes():
            raise ShapeError(
                f"parameter shapes {shapes} do not match the architecture's "
                f"{self.arch.param_shapes()}"
            )
        self._bind(np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.weights, self.biases = self.arch.param_views(params)
        self.n_weight_entries = self.arch.n_weight_entries

    @classmethod
    def from_params(cls, arch: ArchSpec, params: np.ndarray, seed: int) -> "Model":
        """A model on `params` itself, not a copy; (S, P) makes a stack."""
        model = cls.__new__(cls)
        model.arch = arch
        model.seed = seed
        model._bind(params)
        return model

    def copy(self) -> "Model":
        return Model.from_params(self.arch, self.params.copy(), self.seed)

    def __reduce__(self):
        # pickling views would copy them apart from `params`; rebuild instead
        return Model, (self.arch, self.weights, self.biases, self.seed)


def models_equal(a: Model, b: Model) -> bool:
    """Bit-exact parameter equality (architecture included)."""
    return a.arch == b.arch and np.array_equal(a.params, b.params)


def check_finite(model: Model, where: str) -> None:
    """Raise DomainError unless every parameter is a finite number."""
    if not np.isfinite(model.params).all():
        raise DomainError(f"model parameters are not finite {where}; lower the learning rate")


def init_model(arch: ArchSpec, seed: int) -> Model:
    """Scaled-uniform weight initialization, zero biases.

    Each weight matrix is drawn uniformly in +-sqrt(6 / (fan_in +
    fan_out)). The draw order is fixed, so (arch, seed) determines every
    parameter bit-exactly.
    """
    rng = rng_for(seed, "init")
    dims = arch.layer_dims()
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return Model(arch=arch, weights=weights, biases=biases, seed=seed)


# --------------------------------------------------------------------------
# Forward / backward
# --------------------------------------------------------------------------


def _check_input(model: Model, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    # a stack also takes one row block per cell: (S, n, input_dim)
    if x.ndim not in (2, model.params.ndim + 1):
        raise ShapeError(f"features must be 2-d, got shape {x.shape}")
    if x.shape[-1] != model.arch.input_dim:
        raise ShapeError(
            f"model expects {model.arch.input_dim} features, got {x.shape[-1]}"
        )
    return x


def _forward_cached(model: Model, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits plus the input activation of every layer (for backprop)."""
    x = _check_input(model, features)
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b[..., None, :]
        if i < last:
            np.maximum(h, 0.0, out=h)
            activations.append(h)
    return h, activations


def forward_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Pure forward pass: one logit row per input row."""
    logits, _ = _forward_cached(model, features)
    return logits


def backprop_params(
    model: Model,
    activations: list[np.ndarray],
    dlogits: np.ndarray,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients (weights, biases) from a loss gradient at the logits.

    They are written into `out`, views such as `_Optimizer.grad_views`,
    when it is given, and into fresh arrays otherwise.
    """
    if out is None:
        out = [np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases]
    grads_w, grads_b = out
    delta = dlogits
    for i in reversed(range(len(model.weights))):
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=grads_w[i])
        delta.sum(axis=-2, out=grads_b[i])
        if i > 0:
            # ReLU derivative from the cached post-activation values
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta *= activations[i] > 0.0
    return grads_w, grads_b


# --------------------------------------------------------------------------
# Probabilities and losses
# --------------------------------------------------------------------------


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax, computed with max subtraction.

    Higher temperature flattens the distribution toward uniform; rows
    always sum to 1 up to float error.
    """
    if temperature <= 0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    if temperature == 1.0:
        # x / 1.0 == x bit for bit, so the division is skipped
        z = z - z.max(axis=-1, keepdims=True)
    else:
        z = z / temperature
        z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _clamped_log(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, PROB_FLOOR, 1.0))


def onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def ce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or len(probs) != len(labels):
        raise ShapeError(
            f"probs {probs.shape} and labels {labels.shape} do not line up"
        )
    if len(labels) == 0:
        raise DataError("cross entropy of an empty batch is undefined")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise DataError(
            f"labels must lie in [0, {probs.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(_clamped_log(picked)))


def ce_grad_logits(probs: np.ndarray, labels: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """d(mean CE)/d(logits) when probs = softmax(logits / temperature)."""
    y = onehot(labels, probs.shape[1])
    return (probs - y) / (len(probs) * temperature)


def kl_loss(student_probs: np.ndarray, target_probs: np.ndarray) -> float:
    """Mean over samples of sum_i target_i * ln(target_i / student_i).

    The target distribution is treated as a constant; zero target entries
    contribute nothing.
    """
    s = np.asarray(student_probs, dtype=np.float64)
    t = np.asarray(target_probs, dtype=np.float64)
    if s.shape != t.shape:
        raise ShapeError(f"student {s.shape} and target {t.shape} shapes differ")
    if s.ndim != 2 or len(s) == 0:
        raise DataError("KL divergence needs a non-empty 2-d batch")
    per_sample = np.sum(t * (_clamped_log(t) - _clamped_log(s)), axis=1)
    return float(np.mean(per_sample))


def kl_grad_logits(
    student_probs: np.ndarray, target_probs: np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """d(mean KL)/d(student logits) when student = softmax(logits / T)."""
    return (student_probs - target_probs) / (len(student_probs) * temperature)


# --------------------------------------------------------------------------
# Optimizers
# --------------------------------------------------------------------------


class _Optimizer:
    """Adam or momentum-SGD with decoupled weight decay on `Model.params`.

    Decay applies to the weight entries only, never the biases after
    them, and uses the pre-update parameter value (decay is not folded
    into the gradient). Every array is shaped like the parameters, so a
    stack's cells step independently. `grad` is a gradient buffer in the
    same layout, with per-array views `grad_views` for `backprop_params`;
    the step updates in place through scratch buffers and allocates
    nothing.
    """

    def __init__(
        self, name: str, learning_rate: float, weight_decay: float, momentum: float, model: Model
    ) -> None:
        if name not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {name!r}; choose one of {OPTIMIZERS}")
        self.name = name
        self.lr = learning_rate
        self.wd = weight_decay
        self.momentum = momentum
        self.n_decay = model.n_weight_entries
        self.t = 0
        self.m = np.zeros_like(model.params)  # Adam's first moment, SGD's velocity
        self.v = np.zeros_like(model.params)
        self.grad = np.zeros_like(model.params)
        self.grad_views = model.arch.param_views(self.grad)
        self._update = np.empty_like(model.params)
        self._scratch = np.empty_like(model.params)

    def step(self, params: np.ndarray, grads: np.ndarray | list[np.ndarray]) -> None:
        """Update `params` in place from gradients in the same layout: an
        array shaped like `params` (such as `grad`) or a list of
        per-array gradients (weights, then biases)."""
        g = grads if isinstance(grads, np.ndarray) else np.concatenate([np.ravel(x) for x in grads])
        u, s = self._update, self._scratch
        self.t += 1
        # the in-place operations keep the IEEE order of
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        #   update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        # and of SGD's m = momentum * m + g;  update = lr * m
        if self.name == "adam":
            self.m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            self.m += s
            self.v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            self.v += s
            np.divide(self.m, 1.0 - ADAM_BETA1**self.t, out=u)
            u *= self.lr
            np.divide(self.v, 1.0 - ADAM_BETA2**self.t, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            u /= s
        else:
            self.m *= self.momentum
            self.m += g
            np.multiply(self.m, self.lr, out=u)
        if self.wd:
            n = self.n_decay
            np.multiply(params[..., :n], self.lr * self.wd, out=s[..., :n])
            u[..., :n] += s[..., :n]
        params -= u


# --------------------------------------------------------------------------
# Training recipes
# --------------------------------------------------------------------------


def is_int(value) -> bool:
    """An integer that is not a boolean (YAML's true must not count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float that is not a boolean.

    Only floats are tested for finiteness: every int is finite, and
    `math.isfinite` overflows on ints beyond the float range.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def check(found: list[str], ok: bool, key: str, message: str) -> None:
    """Append the finding "key: message" unless the rule holds."""
    if not ok:
        found.append(f"{key}: {message}")


def optimizer_problems(cfg, zero_learning_rate: bool = False) -> list[str]:
    """Findings on the five optimizer keys every training recipe shares:
    optimizer, learning_rate, weight_decay, batch_size, momentum."""
    found: list[str] = []
    lr = cfg.learning_rate
    check(found, cfg.optimizer in OPTIMIZERS, "optimizer", f"must be one of {OPTIMIZERS}")
    if zero_learning_rate:
        check(found, is_number(lr) and lr >= 0, "learning_rate", "must be >= 0")
    else:
        check(found, is_number(lr) and lr > 0, "learning_rate", "must be > 0")
    check(found, is_number(cfg.weight_decay) and cfg.weight_decay >= 0, "weight_decay",
          "must be >= 0")
    check(found, is_int(cfg.batch_size) and cfg.batch_size >= 1, "batch_size",
          "must be an integer >= 1")
    check(found, is_number(cfg.momentum) and 0 <= cfg.momentum < 1, "momentum",
          "must lie in [0, 1)")
    return found


def raise_problems(cfg) -> None:
    """Raise one ConfigError listing every finding of `cfg.problems()`."""
    found = cfg.problems()
    if found:
        raise ConfigError(f"invalid {type(cfg).__name__}: " + "; ".join(found))


@dataclass(eq=False)
class TrainConfig:
    """Supervised training recipe; the `pretrain` config section."""

    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 4e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    momentum: float = 0.0

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found = optimizer_problems(self)
        check(found, is_int(self.max_epochs) and self.max_epochs >= 1, "max_epochs",
              "must be an integer >= 1")
        top = self.max_epochs if is_int(self.max_epochs) else 1
        check(found, is_int(self.patience) and 1 <= self.patience <= top, "patience",
              "must be an integer in [1, max_epochs]")
        return found


def make_optimizer(
    name: str,
    learning_rate: float,
    weight_decay: float,
    momentum: float,
    model: Model,
) -> tuple[_Optimizer, np.ndarray]:
    """Optimizer over a model's parameters and the vector its step updates."""
    return _Optimizer(name, learning_rate, weight_decay, momentum, model), model.params


def batch_indices(
    n: int, batch_size: int, rng: np.random.Generator | list[np.random.Generator]
):
    """Shuffled minibatch index slices covering all n samples.

    Given a sequence of generators, one per cell of a stack, each cell
    shuffles with its own and every slice has one row per cell.
    """
    if isinstance(rng, np.random.Generator):
        order = rng.permutation(n)
    else:
        order = np.stack([r.permutation(n) for r in rng])
    for start in range(0, n, batch_size):
        yield order[..., start : start + batch_size]


def train_epoch(
    model: Model,
    opt: _Optimizer,
    features: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | list[np.random.Generator],
    *,
    hard: np.ndarray | None = None,
    soft: np.ndarray | None = None,
    alpha: float | list[float] = 0.0,
    temperature: float = 1.0,
    weight: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> float | None:
    """One shuffled minibatch pass, one optimizer step per minibatch.

    Trains in place on (1 - alpha) * CE(hard) + alpha * T^2 * weight *
    KL(soft || student at T) per sample (Hinton et al. 2015); without
    hard targets on the KL term alone, without soft targets on the CE
    term alone. A stack takes one generator per cell as `rng` and one
    alpha per cell (or one for all); its cells should agree on which
    terms they use (see `distill.distill_vanilla_benches`). Its soft
    targets are either shared, (n, C), or one block per cell, (S, n, C);
    each cell's minibatch rows are then gathered from its own block.
    Returns the mean CE against labels when they are given (plain models
    only); raises DomainError if the pass leaves a parameter non-finite.
    """
    alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
    use_ce = hard is not None and bool((alpha < 1.0).any())
    use_kd = soft is not None and (hard is None or bool((alpha > 0.0).any()))
    # rows are gathered with take, a copy that is several times faster
    # than fancy indexing; per-cell soft targets become one (S * n, C)
    # block, in which cell s reads row idx[s, j] at s * n + idx[s, j]
    offsets = None
    if use_kd and soft.ndim == 3:
        offsets = np.arange(len(soft))[:, None] * soft.shape[1]
        soft = soft.reshape(-1, soft.shape[-1])
    total = 0.0
    for idx in batch_indices(len(features), batch_size, rng):
        logits, acts = _forward_cached(model, features.take(idx, axis=0))
        nb = idx.shape[-1]
        dlogits = probs = None
        if use_ce:
            probs = softmax(logits, 1.0)
            if labels is not None:
                total += ce_loss(probs, labels[idx]) * nb
            dlogits = probs - hard.take(idx, axis=0)
            dlogits *= 1.0 - alpha
            dlogits /= nb
        if use_kd:
            # at T = 1 the CE term's softmax serves the KL term too
            gap = probs if probs is not None and temperature == 1.0 else softmax(logits, temperature)
            gap -= soft.take(idx if offsets is None else idx + offsets, axis=0)
            if weight is not None:
                gap *= weight.take(idx)[..., None]
            # d/dlogits of T^2 * mean KL = T * (student - target) / n
            gap *= temperature
            gap /= nb
            if hard is not None:
                gap *= alpha
            if dlogits is None:
                dlogits = gap
            else:
                dlogits += gap
        backprop_params(model, acts, dlogits, out=opt.grad_views)
        opt.step(model.params, opt.grad)
    check_finite(model, "after a training pass")
    return None if labels is None else total / len(features)


def train_supervised(
    model: Model,
    train: LabeledDataset,
    val: LabeledDataset,
    cfg: TrainConfig,
) -> tuple[Model, list[dict]]:
    """Early-stopped supervised training.

    Monitors validation accuracy after every epoch; stops once it fails
    to improve for `patience` consecutive epochs and returns the
    parameters of the best epoch seen (the untrained starting point
    counts as the epoch-0 candidate, so the result is never worse on the
    validation set than anything observed). The history holds one record
    per trained epoch.
    """
    if len(train) == 0 or len(val) == 0:
        raise DataError("train and validation sets must both be non-empty")
    work = model.copy()
    opt, _ = make_optimizer(
        cfg.optimizer, cfg.learning_rate, cfg.weight_decay, cfg.momentum, work
    )
    targets = onehot(train.labels, work.arch.num_classes)
    best = work.copy()
    best_acc = evaluate(work, val).overall_accuracy
    history: list[dict] = []
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        rng = rng_for(model.seed, "epoch", epoch)
        loss = train_epoch(
            work, opt, train.features, cfg.batch_size, rng,
            hard=targets, labels=train.labels,
        )
        acc = evaluate(work, val).overall_accuracy
        history.append({"epoch": epoch, "train_loss": loss, "val_accuracy": acc})
        if acc > best_acc:
            best_acc = acc
            best = work.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, history


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


@dataclass(eq=False)
class EvalReport:
    """Overall and per-class accuracy with class supports.

    Classes absent from the evaluation set report accuracy 0 with
    support 0; the overall accuracy always equals the support-weighted
    mean of the per-class accuracies.
    """

    overall_accuracy: float
    per_class_accuracy: np.ndarray
    per_class_support: np.ndarray

    def as_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "per_class_accuracy": [float(a) for a in self.per_class_accuracy],
            "per_class_support": [int(s) for s in self.per_class_support],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        return cls(
            overall_accuracy=float(payload["overall_accuracy"]),
            per_class_accuracy=np.asarray(payload["per_class_accuracy"], dtype=np.float64),
            per_class_support=np.asarray(payload["per_class_support"], dtype=np.int64),
        )


def reports_equal(a: EvalReport, b: EvalReport) -> bool:
    return (
        a.overall_accuracy == b.overall_accuracy
        and np.array_equal(a.per_class_accuracy, b.per_class_accuracy)
        and np.array_equal(a.per_class_support, b.per_class_support)
    )


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(forward_logits(model, features), axis=1)


def _hits(model: Model, data: LabeledDataset) -> np.ndarray:
    """Whether each row of `data` is classified right; (S, n) for a stack.
    Raises DomainError if any output is not finite."""
    if len(data) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    if data.class_count != model.arch.num_classes:
        raise ShapeError(
            f"model predicts {model.arch.num_classes} classes but data has "
            f"{data.class_count}"
        )
    logits = forward_logits(model, data.features)
    if not np.isfinite(logits).all():
        raise DomainError("model outputs are not finite; its parameters have diverged")
    return np.argmax(logits, axis=-1) == data.labels


def overall_accuracies(models: list[Model], data: LabeledDataset) -> list[float]:
    """`evaluate(m, data).overall_accuracy` of every model, bit for bit,
    from one forward pass of the models as a stack."""
    stack = Model.from_params(models[0].arch, np.stack([m.params for m in models]), 0)
    return [float(row.sum() / len(data)) for row in _hits(stack, data)]


def evaluate(model: Model, data: LabeledDataset) -> EvalReport:
    hits = _hits(model, data)
    classes = model.arch.num_classes
    support = np.bincount(data.labels, minlength=classes).astype(np.int64)
    correct = np.bincount(data.labels[hits], minlength=classes).astype(np.int64)
    per_class = np.zeros(classes, dtype=np.float64)
    nonzero = support > 0
    per_class[nonzero] = correct[nonzero] / support[nonzero]
    return EvalReport(
        overall_accuracy=float(hits.sum() / len(data)),
        per_class_accuracy=per_class,
        per_class_support=support,
    )
