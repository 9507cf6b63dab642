import inspect
import sys

import pytest

# import every layer before the first snapshot is taken
from msnmt import cli, kernels  # noqa: F401
from perfbench import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span_tree(tracer, clock, node):
    """node = (layer, name, start, end, children[, train_mode])."""
    layer, name, start, end, children, *mode = node
    clock.now = start
    tracer.enter(trace.Site(layer, name), mode[0] if mode else None)
    for child in children:
        span_tree(tracer, clock, child)
    clock.now = end
    tracer.exit()


def test_self_time_on_a_hand_built_tree():
    clock = FakeClock()
    t = trace.Tracer(clock=clock)
    t.stage = "train"
    span_tree(t, clock, ("model", "forward_loss", 0, 10, [
        ("recurrent", "encode_batch", 1, 4, [("kernels", "gates_forward", 2, 3, [])]),
        ("recurrent", "stack_step", 4, 5, []),
        ("attention", "attend", 5, 8, [("attention", "window_weights", 6, 7, [])]),
    ], True))
    span_tree(t, clock, ("model", "backward", 10, 16, [
        ("attention", "attend_backward", 11, 14, []),
    ]))
    span_tree(t, clock, ("model", "forward_loss", 16, 18, [
        ("recurrent", "stack_step", 16.5, 17, []),
    ], False))
    span_tree(t, clock, ("decoding", "translate_file", 20, 30, [
        ("model", "DecodeSession.__init__", 21, 23, [("recurrent", "encode", 21.5, 22.5, [])]),
        ("model", "DecodeSession.step", 23, 27, [("recurrent", "stack_step", 24, 26, [])]),
    ]))

    assert t.self_time("model", "fwd") == pytest.approx(10 - 3 - 1 - 3)
    assert t.self_time("recurrent", "fwd", "enc") == pytest.approx(3 - 1)
    assert t.self_time("recurrent", "fwd", "dec") == pytest.approx(1)
    assert t.self_time("kernels", "fwd") == pytest.approx(1)
    # nested same-layer spans add up to the layer's whole interval
    assert t.self_time("attention", "fwd") == pytest.approx(3)
    assert t.self_time("model", "bwd") == pytest.approx(3)
    assert t.self_time("attention", "bwd") == pytest.approx(3)
    assert t.self_time("model", "eval") == pytest.approx(1.5)
    assert t.self_time("recurrent", "eval", "dec") == pytest.approx(0.5)
    assert t.self_time("decoding", "decode") == pytest.approx(10 - 2 - 4)
    assert t.self_time("model", "decode") == pytest.approx((2 - 1) + (4 - 2))
    assert t.self_time("recurrent", "decode", "enc") == pytest.approx(1)
    assert t.self_time("recurrent", "decode", "dec") == pytest.approx(2)
    # self times partition the wall time of the outermost spans
    assert sum(t.self_s.values()) == pytest.approx(10 + 6 + 2 + 10)
    assert t.span_time("model", "forward_loss") == pytest.approx(10 + 2)
    assert t.self_time("model", stage="train") == pytest.approx(3 + 3 + 1.5 + 3)
    # calls count entries into a layer, not calls inside it
    assert t.counts["attention.calls"] == 2
    assert t.counts["recurrent.calls"] == 5
    assert t.counts["model.calls"] == 5


def _snapshot():
    modules = [m for n, m in sys.modules.items() if n == "msnmt" or n.startswith("msnmt.")]
    snap = {}
    for m in modules:
        for k, v in vars(m).items():
            snap[(m.__name__, k)] = v
            if inspect.isclass(v) and v.__module__ == m.__name__:
                for ck, cv in vars(v).items():
                    snap[(m.__name__, k, ck)] = cv
    return snap


def _changed(before):
    after = _snapshot()
    return [k for k in before if after.get(k) is not before[k]]


def test_instrumentation_wraps_every_reference_and_restores_them():
    before = _snapshot()
    inst = trace.Instrumentation(trace.Tracer())
    try:
        changed = _changed(before)
        assert ("msnmt.attention", "attend") in changed
        assert ("msnmt.kernels", "gates_forward") in changed
        assert ("msnmt.model", "DecodeSession", "step") in changed
        assert ("msnmt.data", "Vocabulary", "load") in changed
        # names imported with "from .data import encode_line" are wrapped too
        assert ("msnmt.decoding", "encode_line") in changed
        # generated dataclass methods and private helpers are left alone
        assert ("msnmt.data", "Batch", "__init__") not in changed
        assert ("msnmt.recurrent", "zero_states") in changed
        assert ("msnmt.model", "_check_ids") not in changed
    finally:
        inst.restore()
    assert _changed(before) == []


def test_wrapped_calls_keep_their_results_and_record_spans():
    import numpy as np

    tracer = trace.Tracer()
    inst = trace.Instrumentation(tracer)
    try:
        z = np.zeros((3, 8))
        c = np.zeros((3, 2))
        gates, c_new, tc, h = kernels.gates_forward(z, c)
        assert h.shape == (3, 2)
    finally:
        inst.restore()
    assert tracer.counts["kernels.calls"] == 1
    assert tracer.counts["kernels.rows"] == 3
    assert tracer.counts["kernels.bytes"] == (z.nbytes + c.nbytes + gates.nbytes
                                              + c_new.nbytes + tc.nbytes + h.nbytes)
    assert not tracer.stack
