"""The trainer's gradient against the loss it documents.

One `nn.train_epoch` step of SGD at learning rate 1, momentum 0 and no
weight decay moves the parameters by exactly minus the gradient it
formed; with every row in one minibatch that is the gradient of the
whole-set loss. `step_gradient` reads it off such a step, and
`fd_gradient` takes central differences of a loss over the same
parameters, `Model.params`.
"""

import numpy as np

from kdsim.nn import Model, make_optimizer, train_epoch


def step_gradient(model: Model, features, rng=None, **targets) -> np.ndarray:
    """params_before - params_after of one `train_epoch` step on a copy of
    `model`, all rows in one minibatch (`targets` are `train_steps`'
    keywords). A plain model takes its rows in order, `np.arange(n)`; a
    stack or ragged cells (features as a list) pass one generator per
    cell as `rng`."""
    work = model.copy()
    opt = make_optimizer("sgd", 1.0, 0.0, 0.0, work)
    if rng is None:
        rng = np.arange(len(features))
    batch = max(map(len, features)) if isinstance(features, list) else len(features)
    train_epoch(work, opt, features, batch, rng, **targets)
    return model.params - work.params


def fd_gradient(loss_of, model: Model, h: float = 1e-6) -> np.ndarray:
    """Central differences of `loss_of(model)` over every entry of
    `model.params`, which is restored bit for bit."""
    params = model.params
    grad = np.zeros_like(params)
    for i in np.ndindex(params.shape):
        start = params[i]
        params[i] = start + h
        up = loss_of(model)
        params[i] = start - h
        down = loss_of(model)
        params[i] = start
        grad[i] = (up - down) / (2 * h)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entry-wise difference over the largest entry of either."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def scaled_last_layer(model: Model, temperature: float) -> Model:
    """A copy whose logits are `temperature` times `model`'s, so that
    softmax(logits / temperature) stays off the probability floor, where
    the clamped loss is flat and its central differences bend."""
    out = model.copy()
    out.weights[-1] *= temperature
    out.biases[-1] *= temperature
    return out
