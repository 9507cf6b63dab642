"""Analytic-vs-finite-difference verification of the full BPTT path.

Builds a tiny random batch (two examples with different source and target
lengths so padding/masking is exercised), runs forward + backward for the
requested mode, and compares every parameter against central differences.
"""

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .errors import ConfigError
from .numerics import finite_difference_grad
from .rngs import rng_stream

DEFAULT_TOLERANCE = 1e-4
WINDOW = 10          # the toy model's attention radius D
INIT_RANGE = 0.3     # and its uniform init range
# floor for the relative-error denominator: central differences carry
# cancellation noise of about eps_machine * |loss| / (2 * epsilon) ~ 3e-10
# absolute, so gradients below this magnitude are compared absolutely
_REL_FLOOR = 1e-5


def make_toy_batch(config, time_steps, seed):
    """Two examples, ragged lengths, ids drawn from the non-reserved range."""
    V = config.tgt_vocab_size
    if V <= 4 or time_steps < 1:
        raise ConfigError(f"the toy batch needs vocab > 4 (ids 0-3 are reserved) and "
                          f"time steps >= 1, got vocab {V} and {time_steps} time steps")
    rng = rng_stream(seed, "gradcheck-batch")

    def seq(n):
        return list(rng.integers(4, V, size=n))

    lens = [time_steps, max(1, time_steps - 1)]
    tlens = [time_steps, max(1, time_steps - 2)]
    tuples = []
    for sl, tl in zip(lens, tlens):
        if config.n_sources == 2:
            tuples.append((seq(sl), seq(max(1, sl - 1)), seq(tl)))
        else:
            tuples.append((seq(sl), seq(tl)))
    return data_mod.make_batch(tuples)


def relative_errors(analytic, numeric):
    """Per-parameter worst |a - f| / max(|a|, |f|, floor)."""
    out = {}
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), _REL_FLOOR)
        out[name] = float(np.max(np.abs(a - f) / denom)) if a.size else 0.0
    return out


def run_gradcheck(mode, attention, layers=2, hidden=8, vocab=20, time_steps=5,
                  seed=0, epsilon=1e-5):
    """Returns (errors by parameter name, worst name, worst error, passed)."""
    n_src = 1 if mode == "single" else 2
    config = model_mod.ModelConfig(
        mode=mode, attention=attention, layers=layers, hidden=hidden,
        src_vocab_sizes=(vocab,) * n_src, tgt_vocab_size=vocab,
        window=WINDOW, dropout=0.0)
    params = model_mod.init_params(config, seed, INIT_RANGE)
    batch = make_toy_batch(config, time_steps, seed)

    _nll, _ntok, tape = model_mod.forward_loss(batch, params, config, train_mode=False)
    model_mod.backward(tape, params)
    analytic = {p.name: p.grad.copy() for p in params.all()}
    params.zero_grads()

    def loss():
        nll, _, _ = model_mod.forward_loss(batch, params, config, train_mode=False)
        return nll

    numeric = finite_difference_grad(loss, params.all(), epsilon=epsilon)
    errors = relative_errors(analytic, numeric)
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    return errors, worst_name, worst, worst < DEFAULT_TOLERANCE
