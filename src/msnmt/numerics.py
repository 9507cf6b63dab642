"""Parameters, the two nonlinearities the model shares, and the
finite-difference gradient oracle.

Tensors are plain float64 numpy arrays (row vectors / row-major matrices).
There is no runtime autodiff graph: each layer module pairs a forward
function with a hand-written ``*_backward`` and callers compose them in
recorded forward order.
"""

import numpy as np

from .errors import ConfigError, NumericError


# the default gradient of a Parameter: a zero array of its own
_OWN_ZEROS = object()


class Parameter:
    """A named weight with a same-shaped gradient accumulator.

    A standalone Parameter gets a zero gradient of its own.  ModelParams
    passes in a view of its flat value vector and ``grad=None``; its
    ``add_grads`` later points ``grad`` at a view of its gradient vector.
    """

    def __init__(self, name, value, grad=_OWN_ZEROS):
        if grad is _OWN_ZEROS:
            grad = np.zeros_like(value)
        self.name = name
        self.value = value
        self.grad = grad


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def log_softmax(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def finite_difference_grad(loss_fn, params, epsilon=1e-5):
    """Central-difference gradients of a scalar loss over a list of Parameters.

    ``loss_fn`` takes no arguments and reads the parameters' current values;
    it must be deterministic.  Returns {name: gradient array}.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {epsilon}")
    grads = {}
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            lp = loss_fn()
            flat[idx] = orig - epsilon
            lm = loss_fn()
            flat[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite loss while perturbing {p.name}[{idx}]")
            gflat[idx] = (lp - lm) / (2.0 * epsilon)
        grads[p.name] = g
    return grads
