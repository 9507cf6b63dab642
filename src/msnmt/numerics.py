"""Dense tensor primitives with explicit backward companions.

Tensors are plain numpy arrays (row vectors / row-major matrices).  There is
no runtime autodiff graph: each forward op has a matching ``*_backward``
function and callers compose them in recorded forward order.  64-bit floats
are the default; 32-bit is allowed for training speed but gradient checks
require 64-bit.
"""

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


class Parameter:
    """A named weight with a same-shaped gradient accumulator.

    The gradient is allocated, as zeros, when it is first read: a model
    loaded only to translate never touches its gradients.  From then on
    ``grad`` is a plain attribute.
    """

    def __init__(self, name, value, grad=None):
        self.name = name
        self.value = value
        if grad is not None:
            if grad.shape != value.shape:
                raise DimensionError(
                    f"{name}: grad shape {grad.shape} != value shape {value.shape}"
                )
            self.grad = grad

    def __getattr__(self, attr):
        # only called when normal lookup fails: here, before the first read of grad
        if attr != "grad":
            raise AttributeError(attr)
        self.grad = np.zeros(self.value.shape, dtype=self.value.dtype)
        return self.grad

    def zero_grad(self):
        if "grad" in vars(self):
            self.grad[...] = 0.0


def check_finite(arr, context):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value in {context}")


def matmul(a, b):
    """Matrix product with an explicit shape check."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(dout, a, b):
    """Gradients of C = A @ B: dA = dC @ B^T, dB = A^T @ dC."""
    return dout @ b.T, a.T @ dout


_BINARY = {"add", "mul", "sub"}
_UNARY = {"tanh", "sigmoid"}


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ewise(kind, a, b=None):
    """Elementwise op; binary kinds require equal shapes."""
    a = np.asarray(a)
    if kind in _UNARY:
        if kind == "tanh":
            return np.tanh(a)
        return sigmoid(a)
    if kind in _BINARY:
        b = np.asarray(b)
        if a.shape != b.shape:
            raise DimensionError(f"ewise {kind}: shapes {a.shape} != {b.shape}")
        if kind == "add":
            return a + b
        if kind == "mul":
            return a * b
        return a - b
    raise ConfigError(f"unknown ewise kind {kind!r}")


def ewise_backward(kind, dout, a=None, b=None, out=None):
    """Backward for ewise; unary kinds use the cached forward output."""
    if kind == "tanh":
        return (dout * (1.0 - out * out),)
    if kind == "sigmoid":
        return (dout * out * (1.0 - out),)
    if kind == "add":
        return dout, dout
    if kind == "sub":
        return dout, -dout
    if kind == "mul":
        return dout * b, dout * a
    raise ConfigError(f"unknown ewise kind {kind!r}")


def concat(parts):
    """Append row-vector columns in argument order."""
    if not parts:
        raise ConfigError("concat of an empty list")
    parts = [np.atleast_2d(p) for p in parts]
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise DimensionError(f"concat: row counts differ ({rows} vs {p.shape[0]})")
    return np.concatenate(parts, axis=1)


def split(g, widths):
    """Slice an upstream gradient back into concat's parts."""
    if sum(widths) != g.shape[-1]:
        raise DimensionError(f"split: widths {widths} do not cover {g.shape[-1]} columns")
    out = []
    off = 0
    for w in widths:
        out.append(g[..., off:off + w])
        off += w
    return out


def softmax(v):
    """Row-wise stable softmax (max-subtraction)."""
    v = np.asarray(v)
    if v.size == 0:
        raise ConfigError("softmax of an empty vector")
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(dout, out):
    """d in = out * (dout - sum(out * dout)) per row."""
    inner = np.sum(out * dout, axis=-1, keepdims=True)
    return out * (dout - inner)


def log_softmax(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def finite_difference_grad(loss_fn, params, epsilon=1e-5):
    """Central-difference gradients of a scalar loss over a list of Parameters.

    ``loss_fn`` takes no arguments and reads the parameters' current values;
    it must be deterministic.  Returns {name: gradient array}.
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
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
