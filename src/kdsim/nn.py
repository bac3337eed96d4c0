"""Dense feed-forward classifiers with hand-rolled, checkable gradients.

Models are deliberately small and boring: float64 numpy, ReLU hidden
layers, analytic gradients, explicit seeds everywhere. Keeping the
arithmetic in plain numpy makes three guarantees cheap that the rest of
the package leans on: repeated runs are bit-identical per (architecture,
seed), frozen models can never be touched by a training step, and the
gradient a training step applies can be checked against central finite
differences of the loss it documents (the tests read it off one SGD step).

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

A ragged stack gives every cell its own training rows. Its cells come
longest first, so at each minibatch the cells that still hold rows are
a prefix of the stack, and each run of them with the same batch size
steps as one sub-stack of row views (a run of one as a plain model).
Nothing is padded, so every cell still sees its own run's arithmetic.
The optimizer keeps one Adam step count per cell once the cells step
apart, and can step a row range; `_Optimizer.select` narrows its stack
to chosen cells together with their optimizer state, which is how
early-stopped cells leave a stack.

An optimizer is built from a training recipe (`make_optimizer`) and
owns the model or stack it steps, so the trainer takes the optimizer
alone. Every model trains through the one minibatch loop, `train_steps`:
a whole run of shuffled passes, one optimizer step per `next()`;
`train_run` runs it to the end and `train_epoch` runs one pass.
Distillation and FedAvg local updates make one run each; supervised
pre-training (early-stopped on validation accuracy; `train_supervised`
for one model, `train_supervised_cells` for every participant in one
ragged stack) scores between passes, so it makes one-pass runs. It and
FedAvg pass hard targets; distillation passes the targets it builds,
weighing the CE and KL terms as it chooses. Mutual learning passes each
peer the other, a live model whose current prediction is the target, and
steps the two peers' runs in turn.

A run of one cell passes a plain model, not a one-cell stack: the step
is the same arithmetic on fewer axes. On such small models a step's
numpy calls cost more in dispatch than in arithmetic, so each step,
`_Kernel.step`, writes the forward pass, softmax, logit gradient and
backprop in place, for any leading cell axis, into arrays the optimizer
keeps per row range and minibatch size, with ufunc outputs passed
positionally; a plain model multiplies with `np.dot`, which makes the
BLAS call `np.matmul` makes with less dispatch. `train_steps` gathers
its shuffled rows of every input with one `take` each, a chunk of
minibatches at a time (a wide stack one minibatch at a time), checks
them once per chunk, and every minibatch steps on a slice. What does
not change between minibatches (argument checks, loss weights, the steps
of a pass: which kernel and rows each minibatch steps, where the chunks
start) is worked out once per run, the optimizer's views and constants
once per optimizer, and scalar operands are 0-d arrays.
The optimizer owns a flat gradient buffer that the step fills, and it
steps in place, once per minibatch. A pass that leaves a parameter NaN
or infinite raises DomainError before the next pass steps.

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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, DomainError, ShapeError
from .seeding import rng_for

# probabilities are clamped to [PROB_FLOOR, 1] inside every log
PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _operand(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array. A ufunc computes the same
    bits with it as with the Python number (our arrays are all float64),
    and dispatches faster: a Python scalar costs it a conversion per call."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ZERO = _operand(0.0)
_BETA1, _BETA2 = _operand(ADAM_BETA1), _operand(ADAM_BETA2)
# what Adam's step size and eps gain from its pre-scaled moments
_FOLD = (1.0 - ADAM_BETA1) / math.sqrt(1.0 - ADAM_BETA2)
_EPS_FOLD = ADAM_EPS / math.sqrt(1.0 - ADAM_BETA2)

OPTIMIZERS = ("adam", "sgd")

# `train_steps` gathers a chunk of minibatches at a time, in arrays of
# about this many bytes at most. Such arrays reuse freed memory; gathering
# whole epochs of wide stacks instead faulted in fresh pages every epoch
# (5x the minor page faults of per-minibatch gathers on perfbench's grid)
_GATHER_BYTES = 1 << 14


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


def _forward_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits plus the input activation of every layer (for backprop), from
    float64 rows that `_check_input` has passed."""
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b[..., None, :]
        if i < last:
            np.maximum(h, _ZERO, out=h)
            activations.append(h)
    return h, activations


def forward_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Pure forward pass: one logit row per input row."""
    logits, _ = _forward_cached(model, _check_input(model, features))
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
        np.add.reduce(delta, axis=-2, out=grads_b[i])
        if i > 0:
            # ReLU derivative from the cached post-activation values
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta *= activations[i] > _ZERO
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
    t_factor = None if temperature == 1.0 else _operand(temperature)
    return _softmax_rows(z, t_factor, np.empty_like(z), np.empty(z.shape[:-1] + (1,)))


def _softmax_rows(
    logits: np.ndarray, t_factor: np.ndarray | None, out: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """Softmax of `logits` over the last axis, written into `out` (which
    may be `logits`) with `col`, shaped like `logits` but for one column,
    as scratch; `t_factor` is `_factor(T)` of one T or one per cell,
    None when every T is 1 (x / 1.0 == x bit for bit, so the division is
    skipped). Every ufunc gets its output positionally."""
    if t_factor is None:
        np.maximum.reduce(logits, -1, None, col, True)
        np.subtract(logits, col, out)
    else:
        np.divide(logits, t_factor, out)
        np.maximum.reduce(out, -1, None, col, True)
        np.subtract(out, col, out)
    np.exp(out, out)
    np.add.reduce(out, -1, None, col, True)
    np.divide(out, col, out)
    return out


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


# --------------------------------------------------------------------------
# Optimizers
# --------------------------------------------------------------------------


class _Optimizer:
    """Adam or momentum-SGD with decoupled weight decay on the parameters
    of `model`, the model or stack it steps.

    Adam keeps its moments pre-scaled: `m` is Kingma & Ba's first moment
    over 1 - b1 and `v` their second over 1 - b2. At step count t a step is
        m = b1 * m + g;  v = b2 * v + g * g;  update = m / (sqrt(v) + eps_hat) * size
    with two Python floats, size = lr * sqrt(1 - b2^t) / (1 - b1^t) *
    ((1 - b1) / sqrt(1 - b2)) and eps_hat = (eps / sqrt(1 - b2)) *
    sqrt(1 - b2^t): their bias-corrected update, rounded in another order.
    For SGD `m` is the velocity: m = momentum * m + g, update = lr * m.
    Decay scales the weight entries, never the biases after them, by
    1 - lr * wd before the update is subtracted, so it uses the pre-update
    value (it is not folded into the gradient). Every array is shaped
    like the parameters, so a stack's cells step independently. The Adam
    step count `t` is one int while every step has covered every cell,
    and one entry per cell once a step has covered only some rows. `grad`
    is a gradient buffer in the same layout, with per-array views
    `grad_views`, that backprop fills; the step updates in place through
    one scratch buffer. A step may cover a contiguous row range of the
    stack, and `select` narrows the stack, and all this state, to chosen
    rows. The views a step works on are built once per stack and row
    range; `reset` copies other parameters in and returns to a fresh
    optimizer's state for another run on the same stack. The optimizer
    also keeps the `_Kernel` that steps each row range at each minibatch
    size (`kernel`), all on one scratch block, and the steps of its last
    pass (`schedule`).
    """

    def __init__(self, recipe, model: Model) -> None:
        self.name = recipe.optimizer
        if self.name not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.name!r}; choose one of {OPTIMIZERS}")
        self.lr = recipe.learning_rate
        self.wd = recipe.weight_decay
        # every scalar of the step as a 0-d operand (see `_operand`); Adam's
        # step size and eps_hat are refilled each step
        self._lr = _operand(recipe.learning_rate)
        self._momentum = _operand(recipe.momentum)
        self._keep = _operand(1.0 - recipe.learning_rate * recipe.weight_decay)
        self._scalars = np.zeros(()), np.zeros(())
        self.t: int | list[int] = 0
        self.m = np.zeros_like(model.params)  # Adam's first moment, SGD's velocity
        self.v = np.zeros_like(model.params)
        self._bind(model)

    def _bind(self, model: Model) -> None:
        """Step `model` from now on: the gradient buffer, its views, the
        scratch buffers and empty step-view, `kernel` and `schedule`
        caches."""
        self.model = model
        self.grad = np.zeros_like(model.params)
        self.grad_views = model.arch.param_views(self.grad)
        self._scratch = np.empty_like(model.params)
        self._steps: dict[tuple[int, int] | None, tuple] = {}
        self._kernels: dict[tuple, _Kernel] = {}
        # the last pass's (row counts, batch size) and steps
        self._pass: tuple = (None, [])
        self._block = np.empty(0)

    def reset(self, params: np.ndarray) -> None:
        """Copy `params` into the stack and zero the moments and the step
        count, as in a new optimizer."""
        np.copyto(self.model.params, params)
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.t = 0

    def select(self, rows: list[int]) -> Model:
        """Narrow the stack to the given cells, in the given order, keeping
        the same rows of the moments and step counts, and return it.
        Training then resumes bit for bit as if the other cells had never
        been there."""
        keep = np.asarray(rows, dtype=np.int64)
        if isinstance(self.t, list):
            self.t = [self.t[i] for i in rows]
        self.m, self.v = self.m[keep], self.v[keep]
        stack = self.model
        self._bind(Model.from_params(stack.arch, stack.params[keep], stack.seed))
        return self.model

    def kernel(self, span: tuple[int, int] | None, nb: int) -> "_Kernel":
        """The `_Kernel` of rows lo:hi = `span` of the stack (all rows if
        None; one row is a plain model) for minibatches of `nb` rows. Each
        is built once."""
        key = span, nb
        kernel = self._kernels.get(key)
        if kernel is None:
            model, grad_views = self.model, self.grad_views
            if span is not None:
                lo, hi = span
                rows = lo if hi - lo == 1 else slice(lo, hi)
                model = Model.from_params(model.arch, model.params[rows], model.seed)
                grad_views = model.arch.param_views(self.grad[rows])
            kernel = self._kernels[key] = _Kernel(model, grad_views, nb, self._scratch_block)
        return kernel

    def _scratch_block(self, size: int) -> np.ndarray:
        """`size` entries of the block the kernels share; a larger block
        replaces a smaller one, and the kernels on the old one, with the
        last pass's steps, are dropped."""
        if len(self._block) < size:
            self._block = np.empty(size)
            self._kernels.clear()
            self._pass = (None, [])
        return self._block[:size]

    def schedule(self, sizes: int | tuple[int, ...], batch_size: int) -> list[tuple]:
        """The steps of a pass in minibatches of `batch_size` over `sizes`
        rows (one count for all cells, or the counts of ragged cells,
        longest first); see `_schedule`. The last pass's steps are kept,
        so one-pass runs on the same rows (pre-training's) build them once."""
        key = sizes, batch_size
        if self._pass[0] != key:
            self._pass = key, _schedule(self, sizes, batch_size)
        return self._pass[1]

    def step(self, rows: slice | None = None) -> None:
        """Update the stack in place from the gradient buffer `grad`. With
        `rows`, a contiguous range of the stack's cells, only those rows of
        the parameters, gradients and state take part."""
        key = None if rows is None else (rows.start, rows.stop)
        views = self._steps.get(key)
        if views is None:
            views = self._steps[key] = self._step_views(rows)
        params, g, m, v, u, weights = views
        # Adam's m and v are its pre-scaled moments (see the class docstring):
        #   Adam: m = b1 * m + g;  v = b2 * v + g * g;  u = m / (sqrt(v) + eps_hat) * size
        #   SGD:  m = momentum * m + g;  u = m * lr
        #   then weights *= 1 - lr * wd;  params -= u
        if self.name == "adam":
            size, eps_hat = self._adam_scalars(rows)
            m *= _BETA1
            m += g
            v *= _BETA2
            np.multiply(g, g, out=u)
            v += u
            np.sqrt(v, out=u)
            u += eps_hat
            np.divide(m, u, out=u)
            u *= size
        else:
            m *= self._momentum
            m += g
            np.multiply(m, self._lr, out=u)
        if weights is not None:
            weights *= self._keep
        params -= u

    def _step_views(self, rows: slice | None) -> tuple:
        """The parameters, gradient, moments and scratch buffer a step
        updates (rows `rows` of each, or all), and the decayed weights or None."""
        arrays = self.model.params, self.grad, self.m, self.v, self._scratch
        if rows is not None:
            arrays = tuple(a[rows] for a in arrays)
        return *arrays, arrays[0][..., : self.model.n_weight_entries] if self.wd else None

    def _adam_scalars(self, rows: slice | None) -> tuple:
        """Advance the step counts of `rows` (every cell if None) and return
        Adam's step size and eps_hat for them: 0-d operands when the cells
        agree, else one column of per-cell values each."""
        if rows is None and isinstance(self.t, int):
            self.t += 1
            counts = [self.t]
        else:
            if isinstance(self.t, int):
                self.t = [self.t] * len(self.m)
            span = rows or slice(None)
            counts = self.t[span] = [t + 1 for t in self.t[span]]
        if counts.count(counts[0]) == len(counts):
            size, eps_hat = self._scalars
            size[()], eps_hat[()] = _adam_size_eps(self.lr, counts[0])
            return size, eps_hat
        pairs = np.array([_adam_size_eps(self.lr, t) for t in counts])
        return pairs[:, :1], pairs[:, 1:]


def _adam_size_eps(lr: float, t: int) -> tuple[float, float]:
    """Adam's step size and eps_hat at step `t` for pre-scaled moments."""
    root = math.sqrt(1.0 - ADAM_BETA2**t)
    return lr * root / (1.0 - ADAM_BETA1**t) * _FOLD, _EPS_FOLD * root


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


def make_optimizer(recipe, model: Model) -> _Optimizer:
    """The optimizer that steps `model`, a model or stack, by the
    `optimizer`, `learning_rate`, `weight_decay` and `momentum` of any
    training recipe."""
    return _Optimizer(recipe, model)


def _shuffle(n: int, rng: np.random.Generator | list[np.random.Generator]) -> np.ndarray:
    """A permutation of range(n); (S, n), one row per generator, for a list."""
    if isinstance(rng, np.random.Generator):
        return rng.permutation(n)
    return np.stack([r.permutation(n) for r in rng])


class Ragged(NamedTuple):
    """The rows of ragged cells as one block: cell i's `sizes[i]` rows
    follow those of the cells before it. Build it with `Ragged.of`."""

    block: np.ndarray
    sizes: list[int]

    @classmethod
    def of(cls, arrays: list[np.ndarray]) -> "Ragged":
        return cls(np.concatenate(arrays), [len(a) for a in arrays])

    def select(self, cells: list[int]) -> "Ragged":
        """The rows of the given cells only, in the given order."""
        starts = np.cumsum([0, *self.sizes])
        return Ragged.of([self.block[starts[j] : starts[j] + self.sizes[j]] for j in cells])


def _ragged_order(
    model: Model, sizes: list[int], rngs: list[np.random.Generator]
) -> np.ndarray:
    """The (S, max size) row order of one shuffled pass over ragged cells:
    cell i shuffles its own `sizes[i]` rows with `rngs[i]`, and its row
    of the order points into the `Ragged` block (padded with index 0)."""
    if sizes != sorted(sizes, reverse=True) or not len(rngs) == len(sizes) == len(model.params):
        raise ShapeError(
            f"ragged cells need one generator each and come longest first; got sizes "
            f"{sizes} for {len(rngs)} generators and {len(model.params)} cells"
        )
    order = np.zeros((len(sizes), sizes[0]), dtype=np.int64)
    first = 0
    for row, n, rng in zip(order, sizes, rngs):
        row[:n] = rng.permutation(n)
        row[:n] += first
        first += n
    return order


def _schedule(opt: _Optimizer, sizes: int | tuple[int, ...], batch_size: int) -> list[tuple]:
    """The steps of one pass over `sizes` rows (one count for all cells,
    or the counts of ragged cells, longest first), each as (its kernel,
    its rows of the stack for `opt.step`, the slice of the row order
    whose rows the pass gathers before it or None, its index into what
    was gathered).

    A pass gathers a chunk of minibatches at a time, a multiple of
    `batch_size` rows of about `_GATHER_BYTES` per input at most. Ragged
    cells come longest first, so those still holding rows at a
    minibatch start form a prefix of the stack; each maximal run of
    consecutive cells with the same batch size is one step on row
    views, and a run of one cell steps as a plain model. Nothing is
    padded: padding would change the reduction shapes, and with them
    the bits.
    """
    ragged = isinstance(sizes, tuple)
    model = opt.model
    plain = model.params.ndim == 1
    cells = 1 if plain else len(model.params)
    # float64 bytes of the widest gathered input per minibatch row
    row_bytes = 8 * cells * max(model.arch.input_dim, model.arch.num_classes)
    chunk = max(1, _GATHER_BYTES // (row_bytes * batch_size)) * batch_size
    # (row range or None, minibatch size, part, key) per step
    plan = []
    for start in range(0, sizes[0] if ragged else sizes, batch_size):
        at = start % chunk
        part = slice(start, start + chunk) if at == 0 else None
        if not ragged:
            nb = min(batch_size, sizes - start)
            # a plain model slices its 2-d rows with a plain slice
            key = slice(at, at + nb) if plain else (..., slice(at, at + nb), slice(None))
            plan.append((None, nb, part, key))
            continue
        # non-increasing, so equal batch sizes are neighbours
        batches = [min(batch_size, n - start) for n in sizes if n > start]
        lo = 0
        while lo < len(batches):
            nb = batches[lo]
            hi = lo + batches.count(nb)
            # a run of one cell steps as a plain model, on 2-d rows
            key = (lo if hi - lo == 1 else slice(lo, hi)), slice(at, at + nb), slice(None)
            plan.append(((lo, hi), nb, part, key))
            part = None
            lo = hi
    if plan:
        # the largest kernel, on the most rows, first: a kernel built later
        # then fits the shared block and drops none built before it
        span, nb, *_ = max(plan, key=lambda p: p[1] * (1 if p[0] is None else p[0][1] - p[0][0]))
        opt.kernel(span, nb)
    return [
        (opt.kernel(span, nb), None if span is None else slice(*span), part, key)
        for span, nb, part, key in plan
    ]


def _factor(weight: float | list[float]) -> np.ndarray | None:
    """A loss weight or temperature as an operand: 0-d for one float, or
    for one per cell that are all equal, and otherwise broadcast over
    each cell's (rows, classes); None when every value is 1 (x * 1.0 and
    x / 1.0 are x, so the operation is skipped). Plain Python decides:
    numpy's reductions cost microseconds on a short pass."""
    if not isinstance(weight, (int, float)):
        if any(w != weight[0] for w in weight):
            return np.array(weight, dtype=np.float64)[:, None, None]
        weight = weight[0]
    return None if weight == 1.0 else _operand(weight)


def _in_use(weight: float | list[float]) -> bool:
    """Whether a loss term at this weight, one or one per cell, is used:
    some weight is not 0."""
    return weight != 0.0 if isinstance(weight, (int, float)) else any(w != 0.0 for w in weight)


def _forward_into(
    x: np.ndarray,
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    outs: list[np.ndarray],
    product: Callable,
) -> np.ndarray:
    """`_forward_cached`'s operations on the rows `x`, each layer's output
    written into `outs` by `product` (see `_Kernel`), with `biases`
    broadcast over the rows; returns the logits, `outs[-1]`."""
    h = x
    last = len(outs) - 1
    for i, out in enumerate(outs):
        product(h, weights[i], out)
        np.add(out, biases[i], out)
        if i < last:
            # numpy deprecates a positional output for maximum alone
            np.maximum(out, _ZERO, out=out)
        h = out
    return h


class _Kernel:
    """One minibatch step of a model or stack, `step`, and the arrays it
    writes in, made once per optimizer, row range and minibatch size
    (`_Optimizer.kernel`).

    The arrays keep the model's leading cell axes: every layer's output
    with the hidden ones transposed, the hidden layers' backprop deltas,
    probabilities at T = 1 and at T, the logit gradient and a (rows, 1)
    column for the softmax reductions. They are pieces of one scratch
    block that all kernels of an optimizer share, since one steps at a
    time and each step writes every array before it reads it. A live
    partner's forward pass borrows the deltas and a probability block.
    The model's weights, transposed weights and biases (broadcast over
    the rows) and its gradient views are bound once too.

    A plain model multiplies with `np.dot` and a stack with `np.matmul`.
    On 2-d float64 operands both make the same BLAS call, so the bits are
    the same (transposed and one-row operands included), and `np.dot`
    dispatches faster.
    """

    __slots__ = (
        "weights", "weights_t", "biases", "grads_w", "grads_b", "outs", "outs_t", "deltas",
        "probs", "kd_probs", "dlogits", "col", "size", "product",
    )

    def __init__(
        self, model: Model, grad_views: tuple, nb: int, block: Callable[[int], np.ndarray]
    ) -> None:
        lead = model.params.shape[:-1]
        dims = model.arch.layer_dims()
        self.weights = model.weights
        self.weights_t = [w.swapaxes(-1, -2) for w in model.weights]
        self.biases = [b[..., None, :] for b in model.biases]
        self.grads_w, self.grads_b = grad_views
        # every array is a piece of the scratch block `block(size)` returns
        widths = [*dims[1:], *dims[1:-1], dims[-1], dims[-1], dims[-1], 1]
        rows = math.prod(lead) * nb
        flat = block(rows * sum(widths))
        arrays = []
        for w in widths:
            arrays.append(flat[: rows * w].reshape(lead + (nb, w)))
            flat = flat[rows * w :]
        layers = len(dims) - 1
        self.outs = arrays[:layers]
        self.outs_t = [h.swapaxes(-1, -2) for h in self.outs[:-1]]
        self.deltas = arrays[layers : 2 * layers - 1]
        self.probs, self.kd_probs, self.dlogits, self.col = arrays[2 * layers - 1 :]
        self.size = _operand(nb)
        self.product = np.matmul if lead else np.dot

    def step(self, x, y, q, w, partner, ce_factor, kd_factor, t_factor) -> None:
        """Fill the gradient views from the minibatch rows `x` with the
        operations of `_forward_cached`, `softmax` and `backprop_params`,
        in their order, and nothing allocated.

        The CE term is used when there are hard targets `y`; the KL term
        when there are soft targets `q`, or a live `partner` (its weights
        and broadcast biases) whose prediction at T is the target; `w`
        is the per-row KL weight or None; each factor is `_factor` of
        its weight.
        """
        outs, product = self.outs, self.product
        h = _forward_into(x, self.weights, self.biases, outs, product)
        dlogits = self.dlogits
        if y is not None:
            np.subtract(_softmax_rows(h, None, self.probs, self.col), y, dlogits)
            if ce_factor is not None:
                np.multiply(dlogits, ce_factor, dlogits)
            np.divide(dlogits, self.size, dlogits)
        if q is not None or partner is not None:
            # at T = 1 (every cell's) the CE term's softmax serves the KL
            # term too; a cell at T = 1 in a stack of other temperatures
            # divides by 1.0, which keeps its bits
            if y is not None and t_factor is None:
                gap = self.probs
            else:
                gap = _softmax_rows(h, t_factor, self.kd_probs, self.col)
            if partner is not None:
                # the partner's layers go into the deltas, free until
                # backprop, and its logits into the probability block
                # that `gap` leaves free
                spare = self.kd_probs if gap is self.probs else self.probs
                p = _forward_into(x, *partner, [*self.deltas, spare], product)
                q = _softmax_rows(p, t_factor, p, self.col)
            np.subtract(gap, q, gap)
            if w is not None:
                np.multiply(gap, w, gap)
            # d/dlogits of T^2 * mean KL = T * (student - target) / n
            if t_factor is not None:
                np.multiply(gap, t_factor, gap)
            np.divide(gap, self.size, gap)
            if kd_factor is not None:
                np.multiply(gap, kd_factor, gap)
            if y is not None:
                np.add(dlogits, gap, dlogits)
            else:
                dlogits = gap
        delta = dlogits
        for i in range(len(outs) - 1, -1, -1):
            product(self.outs_t[i - 1] if i else x.swapaxes(-1, -2), delta, self.grads_w[i])
            np.add.reduce(delta, -2, None, self.grads_b[i])
            if i:
                # ReLU derivative from the layer's post-activation output,
                # whose last use this is: its mask, 1.0 or 0.0, overwrites it
                product(delta, self.weights_t[i], self.deltas[i - 1])
                delta = self.deltas[i - 1]
                mask = np.greater(outs[i - 1], _ZERO, outs[i - 1])
                np.multiply(delta, mask, delta)


def train_steps(
    opt: _Optimizer,
    features: np.ndarray | Ragged | list[np.ndarray],
    batch_size: int,
    sources: Iterable[np.random.Generator | list[np.random.Generator] | np.ndarray],
    *,
    hard: np.ndarray | Ragged | list[np.ndarray] | None = None,
    soft: np.ndarray | Model | None = None,
    ce_weight: float | list[float] = 1.0,
    kd_weight: float | list[float] = 1.0,
    temperature: float | list[float] = 1.0,
    weight: np.ndarray | None = None,
) -> Iterator[None]:
    """A training run: one shuffled minibatch pass per row source in
    `sources`, making one step of `opt` per `next()`. Each pass ends with
    a check that every parameter is finite, which raises DomainError
    before the next pass steps. `train_run` runs it to the end, and
    `train_epoch` runs one pass.

    Trains `opt.model`, the model or stack `opt` steps, in place on
    ce_weight * CE(hard) + kd_weight * T^2 * weight * KL(soft || student
    at T) per sample (Hinton et al. 2015): the CE term at temperature 1,
    each weight and T one float or one per cell of a stack; a list of
    another length raises ShapeError, and a used KL term at any T <= 0
    DomainError. A term without targets, or whose weights are all 0, is
    skipped; with no term left the run raises ConfigError. The cells of
    a stack should agree on which terms they use (see
    `distill.distill_vanilla_benches`), not on T: a cell at T = 1 among
    others divides by 1.0, which keeps its bits. Its soft targets are
    either shared, (n, C), or one block per cell, (S, n, C); each cell's
    minibatch rows are then gathered from its own block.

    A pass's row source is a generator for a plain model, one generator
    per cell for a stack, or, for a plain model on array features, the
    pass's row order itself: the (n,) array `rng.permutation(n)` would
    have drawn, which lets callers that train several models on one
    order draw it once (see `fed.run_federated`). An order is read,
    never written; one of another length, or any order for a stack or
    ragged cells, raises ShapeError. Sources are read one pass at a
    time, so a generator of them draws each pass's streams as it starts.

    `soft` may also be a live model with the architecture and cells of
    `opt.model` (plain for plain, S for S): each minibatch's target is
    then its current prediction at `temperature` on the minibatch's
    rows, which is how two mutual-learning peers, each stepping in turn,
    teach each other (see `distill.distill_dml_cells`).

    Ragged cells, each with its own rows, pass `features` and `hard` as
    `Ragged` blocks (or lists, one array per cell), longest first, and
    train on hard targets alone, with one CE weight for all cells unless
    every cell has as many rows; each minibatch is then one step per run
    of cells with the same batch size (see `_schedule`).

    Every step is `_Kernel.step` of the cells it covers, then one
    `opt.step`, as `opt.schedule` lists them. The arguments are checked,
    and the loss factors, the steps of a pass and the per-cell soft
    target block made, once per run, at the first `next()`. Each pass
    gathers its shuffled rows of every input a chunk of minibatches at a
    time, one `take` per input, and each minibatch steps on a slice of
    its chunk; the features are checked per chunk, before its first
    step. A chunk's arrays stay near `_GATHER_BYTES`, so a plain model
    or a narrow stack gathers many minibatches at once and a wide stack
    a single minibatch.
    """
    model = opt.model
    live = isinstance(soft, Model)
    if live and (soft.arch != model.arch or soft.params.shape != model.params.shape):
        raise ShapeError(
            f"a live soft model of params {soft.params.shape} for a model of {model.params.shape}"
        )
    cells = None if model.params.ndim == 1 else len(model.params)
    for name, value in (("ce_weight", ce_weight), ("kd_weight", kd_weight),
                        ("temperature", temperature)):
        if not isinstance(value, (int, float)) and len(value) != cells:
            raise ShapeError(
                f"{len(value)} values of {name} for params of {model.params.shape}; give one "
                f"float, or one value per cell of a stack"
            )
    use_ce = hard is not None and _in_use(ce_weight)
    use_kd = soft is not None and _in_use(kd_weight)
    if not (use_ce or use_kd):
        raise ConfigError("nothing to train on: no targets at a loss weight other than 0")
    temperatures = [temperature] if isinstance(temperature, (int, float)) else temperature
    if use_kd and any(t <= 0 for t in temperatures):
        raise DomainError(f"temperature must be > 0, got {temperature}")
    if isinstance(features, list):
        features = Ragged.of(features)
    if isinstance(hard, list):
        hard = Ragged.of(hard)
    # a live soft model's weights and broadcast biases
    partner = None
    if live and use_kd:
        partner = soft.weights, [b[..., None, :] for b in soft.biases]
    sizes = None
    if isinstance(features, Ragged):
        if soft is not None:
            raise ShapeError("ragged cells train on hard targets alone")
        # equal weights are one weight (see `_factor`), which every step can
        # take; a step of fewer cells than the stack could not take one per cell
        per_cell = not isinstance(ce_weight, (int, float)) and len(set(ce_weight)) > 1
        if per_cell and len(set(features.sizes)) > 1:
            raise ShapeError(
                "ragged cells of different row counts take one CE weight for all cells"
            )
        if hard is not None and hard.sizes != features.sizes:
            raise ShapeError(f"ragged hard targets of {hard.sizes} rows for {features.sizes}")
        sizes = features.sizes
        steps = opt.schedule(tuple(sizes), batch_size)
        features = features.block
        hard = None if hard is None else hard.block
    else:
        steps = opt.schedule(len(features), batch_size)
    # per-cell soft targets are read as one (S * n, C) block, in which
    # cell s finds row i at s * n + i
    offsets = None
    if use_kd and not live and soft.ndim == 3:
        offsets = np.arange(len(soft))[:, None] * soft.shape[1]
        soft = soft.reshape(-1, soft.shape[-1])
    factors = _factor(ce_weight), _factor(kd_weight), _factor(temperature)
    y = q = w = None
    for rng in sources:
        if isinstance(rng, np.ndarray):
            if cells is not None or sizes is not None or rng.shape != (len(features),):
                raise ShapeError(
                    f"a row order of shape {rng.shape} for params of {model.params.shape}; only "
                    f"a plain model on array features takes one, with one entry per row"
                )
            order = rng
        elif sizes is not None:
            order = _ragged_order(model, sizes, rng)
        else:
            order = _shuffle(len(features), rng)
        for kernel, rows, part, key in steps:
            if part is not None:
                # the next chunk's rows of every input, (rows, .) or (S, rows, .):
                # take is a copy several times faster than fancy indexing
                part = order[..., part]
                x = _check_input(model, features.take(part, axis=0))
                if use_ce:
                    y = hard.take(part, axis=0)
                if use_kd and not live:
                    q = soft.take(part if offsets is None else part + offsets, axis=0)
                if use_kd and weight is not None:
                    w = weight.take(part)[..., None]
            kernel.step(
                x[key],
                None if y is None else y[key],
                None if q is None else q[key],
                None if w is None else w[key],
                partner,
                *factors,
            )
            opt.step(rows)
            yield
        # the next pass gathers anew; chunks held across passes raised peak RSS
        x = y = q = w = None
        check_finite(opt.model, "after a training pass")


def train_run(opt: _Optimizer, features, batch_size: int, sources, **targets) -> None:
    """Every step of a `train_steps` run (same arguments)."""
    for _ in train_steps(opt, features, batch_size, sources, **targets):
        pass


def train_epoch(opt: _Optimizer, features, batch_size: int, rng, **targets) -> None:
    """A `train_run` of one pass, drawn from `rng`."""
    train_run(opt, features, batch_size, (rng,), **targets)


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
    per trained epoch: its number and validation accuracy.
    """
    if len(train) == 0 or len(val) == 0:
        raise DataError("train and validation sets must both be non-empty")
    opt = make_optimizer(cfg, model.copy())
    work = opt.model
    targets = onehot(train.labels, work.arch.num_classes)
    best = work.copy()
    best_acc = evaluate(work, val).overall_accuracy
    history: list[dict] = []
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        rng = rng_for(model.seed, "epoch", epoch)
        train_epoch(opt, train.features, cfg.batch_size, rng, hard=targets)
        acc = evaluate(work, val).overall_accuracy
        history.append({"epoch": epoch, "val_accuracy": acc})
        if acc > best_acc:
            best_acc = acc
            best = work.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, history


def train_supervised_cells(
    models: list[Model],
    trains: list[LabeledDataset],
    vals: list[LabeledDataset],
    cfg: TrainConfig,
) -> list[Model]:
    """`train_supervised` of every model on its own sets, side by side,
    without the history.

    The models, which share one architecture, train as one ragged stack
    (longest training set first, see `train_steps`). Each cell keeps its
    own epoch stream, stale count and best snapshot; a cell whose
    patience runs out leaves the stack (`_Optimizer.select`) and the others
    go on. Every returned model is bit-identical to its
    `train_supervised` run.
    """
    for train, val in zip(trains, vals):
        if len(train) == 0 or len(val) == 0:
            raise DataError("train and validation sets must both be non-empty")
    arch = models[0].arch
    # longest first; live[j] is the model that row j of the stack trains
    live = sorted(range(len(models)), key=lambda i: -len(trains[i]))
    opt = make_optimizer(
        cfg, Model.from_params(arch, np.stack([models[i].params for i in live]), 0)
    )
    # the live cells' rows, narrowed when a cell leaves
    features = Ragged.of([trains[i].features for i in live])
    hard = Ragged.of([onehot(trains[i].labels, arch.num_classes) for i in live])
    best = [m.params.copy() for m in models]
    best_acc = [_accuracy(_hits(m, val)) for m, val in zip(models, vals)]
    stale = [0] * len(models)
    for epoch in range(1, cfg.max_epochs + 1):
        train_epoch(
            opt, features, cfg.batch_size,
            [rng_for(models[i].seed, "epoch", epoch) for i in live], hard=hard,
        )
        keep = []
        for j, i in enumerate(live):
            row = Model.from_params(arch, opt.model.params[j], 0)
            acc = _accuracy(_hits(row, vals[i]))
            if acc > best_acc[i]:
                best_acc[i] = acc
                best[i] = opt.model.params[j].copy()
                stale[i] = 0
            else:
                stale[i] += 1
            if stale[i] < cfg.patience:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(live):
            opt.select(keep)
            live = [live[j] for j in keep]
            features, hard = features.select(keep), hard.select(keep)
    return [Model.from_params(arch, p, m.seed) for p, m in zip(best, models)]


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


def _accuracy(hits: np.ndarray) -> float:
    """Overall accuracy: the share of one model's rows it classified right.
    Every overall accuracy kdsim reports or selects by is this."""
    return float(hits.sum() / len(hits))


def overall_accuracies(models: list[Model], data: LabeledDataset) -> list[float]:
    """`evaluate(m, data).overall_accuracy` of every model, bit for bit,
    from one forward pass of the models as a stack."""
    stack = Model.from_params(models[0].arch, np.stack([m.params for m in models]), 0)
    return [_accuracy(row) for row in _hits(stack, data)]


def evaluate(model: Model, data: LabeledDataset) -> EvalReport:
    hits = _hits(model, data)
    classes = model.arch.num_classes
    support = np.bincount(data.labels, minlength=classes).astype(np.int64)
    correct = np.bincount(data.labels[hits], minlength=classes).astype(np.int64)
    per_class = np.zeros(classes, dtype=np.float64)
    nonzero = support > 0
    per_class[nonzero] = correct[nonzero] / support[nonzero]
    return EvalReport(
        overall_accuracy=_accuracy(hits),
        per_class_accuracy=per_class,
        per_class_support=support,
    )
