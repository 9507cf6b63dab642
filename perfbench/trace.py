"""Per-layer spans recorded from outside the program.

``Instrumentation`` finds the public functions of each layer module, and the
methods of the classes it defines, by introspection, and replaces every
reference to them in the loaded ``msnmt`` modules with a wrapper that opens a
span.  A later change that renames a function or adds one still lands its
time in the right layer.  ``Instrumentation.restore`` puts every original
back.  The untraced benchmark run never imports this module.

Spans open at layer boundaries: a call from one layer into another, plus
the few inner calls in INNER whose inclusive time a metric reads.  A call
within a layer runs unwrapped, which leaves that layer's self time unchanged
and keeps the tracing cost down.  A span's self time is its duration minus
the durations of its direct child spans, so a layer's self time is the time
during which its span is the innermost one open.  Spans are folded into
per-bucket totals as they close, which keeps memory flat however many calls
a run makes.
"""

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

# Modules on the timed path.  numerics is left out on purpose: callers import
# log_softmax, softmax and sigmoid by name, so its time lands in the callers'
# self time.  evaluation runs after the timed phases.
LAYERS = ("data", "recurrent", "kernels", "combiner", "attention", "model",
          "trainer", "decoding")

# Same-layer calls that still get a span: trainer.clip_step_s reads them.
INNER = ("clip_rescale", "sgd_step")


class Site:
    """A wrapped function: its layer, its name and what it means for phase."""

    __slots__ = ("layer", "name", "backward", "encode", "calls_key")

    def __init__(self, layer, name):
        short = name.rsplit(".", 1)[-1]
        self.layer = layer
        self.name = name
        self.backward = short.endswith("backward")
        self.encode = short.startswith("encode")
        self.calls_key = f"{layer}.calls"


class Span:
    """One open span.  ``phase`` is fwd (training forward_loss), bwd (under a
    *backward call), eval (forward_loss with train_mode false), decode (under
    the decoding layer) or other; the outermost call that sets one wins.
    ``encoder`` is true under any call named encode*."""

    __slots__ = ("site", "start", "child", "phase", "encoder", "entry")

    def __init__(self, site, start, phase, encoder, entry):
        self.site = site
        self.start = start
        self.child = 0.0
        self.phase = phase
        self.encoder = encoder
        self.entry = entry


class Tracer:
    """Span stack plus running totals.

    ``self_s[(stage, layer, phase, role)]``: self time; role is "enc" or
    "dec" for the recurrent layer and "" elsewhere.
    ``span_s[(layer, name, phase)]``: inclusive time of spans of that name.
    ``counts``: event counts, including ``<layer>.calls``, the number of
    calls into a layer from outside it.
    ``stage`` is set by the harness (setup, train, translate).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.stage = "other"
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.counts = Counter()

    def enter(self, site, train_mode=None):
        parent = self.stack[-1] if self.stack else None
        phase = parent.phase if parent is not None else "other"
        if phase == "other":
            if site.layer == "decoding":
                phase = "decode"
            elif site.backward:
                phase = "bwd"
            elif train_mode is not None:
                phase = "fwd" if train_mode else "eval"
        encoder = site.encode or (parent is not None and parent.encoder)
        entry = parent is None or parent.site.layer != site.layer
        if entry:
            self.counts[site.calls_key] += 1
        span = Span(site, self.clock(), phase, encoder, entry)
        self.stack.append(span)
        return span

    def exit(self):
        span = self.stack.pop()
        dur = self.clock() - span.start
        site = span.site
        role = ("enc" if span.encoder else "dec") if site.layer == "recurrent" else ""
        self.self_s[(self.stage, site.layer, span.phase, role)] += dur - span.child
        self.span_s[(site.layer, site.name, span.phase)] += dur
        if self.stack:
            self.stack[-1].child += dur

    def self_time(self, layer, phase=None, role=None, stage=None):
        return sum(v for (s, l, p, r), v in self.self_s.items()
                   if l == layer and phase in (None, p) and role in (None, r)
                   and stage in (None, s))

    def span_time(self, layer, name):
        return sum(v for (l, n, _), v in self.span_s.items() if l == layer and n == name)


def _count_kernel(c, span, args, result):
    if isinstance(args[0], np.ndarray):
        c["kernels.rows"] += args[0].shape[0]
    # bytes the kernel reads and writes, computed from the tensor sizes
    nbytes = 0
    for a in args + (result if isinstance(result, tuple) else (result,)):
        if isinstance(a, np.ndarray):
            nbytes += a.nbytes
    c["kernels.bytes"] += nbytes


def _count_recurrent(c, span, args, result):
    if span.phase == "bwd":
        return
    first = np.asarray(args[0])
    if span.encoder:
        c["recurrent.enc_steps"] += first.size           # rows x timesteps
        return
    rows = first.shape[0] if first.ndim > 1 else 1
    c["recurrent.dec_steps"] += rows
    if span.phase == "decode":
        c["decoding.steps"] += 1
        c["decoding.rows"] += rows


def _count_attention(c, span, args, result):
    if span.phase == "bwd" or not isinstance(result, tuple):
        return
    for obj in result:
        window = getattr(obj, "window", None)
        if window is not None:
            window = np.asarray(window)
            c["attention.windows"] += 1 if window.ndim <= 1 else window.shape[0]
            c["attention.positions"] += window.size


def _count_model(c, span, args, result):
    batch = args[0]
    if span.phase != "fwd" or not hasattr(batch, "tgt_mask"):
        return
    c["trainer.batches"] += 1
    for side, names in (("src", ("src1_mask", "src2_mask")), ("tgt", ("tgt_mask",))):
        for nm in names:
            mask = getattr(batch, nm, None)
            if mask is not None:
                c[f"data.{side}_real"] += float(mask.sum())
                c[f"data.{side}_slots"] += mask.size


# Work counts taken at the boundary of a call into a layer.
COUNTERS = {"kernels": _count_kernel, "recurrent": _count_recurrent,
            "attention": _count_attention, "model": _count_model}


def _wrap(tracer, layer, name, fn):
    site = Site(layer, name)
    sig = inspect.signature(fn)
    sig = sig if "train_mode" in sig.parameters else None
    inner = name in INNER
    count = COUNTERS.get(layer)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        if stack and stack[-1].site.layer == layer and not inner:
            return fn(*args, **kwargs)
        train_mode = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            train_mode = bool(bound.arguments["train_mode"])
        span = tracer.enter(site, train_mode)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None and span.entry and args:
            count(tracer.counts, span, args, result)
        return result

    return wrapper


def _defined_in(fn, module):
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def layer_targets(module):
    """(owner, attribute, function) for each public function of module and
    each public method (or __init__) of the classes it defines.  Generated
    methods, such as a dataclass __init__, are not in the module's file and
    are skipped."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and _defined_in(obj, module):
            out.append((module, attr, obj))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mattr, m in vars(obj).items():
                if mattr.startswith("_") and mattr != "__init__":
                    continue
                fn = m.__func__ if isinstance(m, (classmethod, staticmethod)) else m
                if inspect.isfunction(fn) and _defined_in(fn, module):
                    out.append((obj, mattr, m))
    return out


class Instrumentation:
    """Every layer function wrapped for one tracer; ``restore`` undoes it."""

    def __init__(self, tracer):
        self.patched = []   # (owner, attribute, original)
        wrappers = {}       # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"msnmt.{layer}")
            for owner, attr, obj in layer_targets(module):
                if inspect.isclass(owner):
                    label = f"{owner.__name__}.{attr}"
                    if isinstance(obj, (classmethod, staticmethod)):
                        new = type(obj)(_wrap(tracer, layer, label, obj.__func__))
                    else:
                        new = _wrap(tracer, layer, label, obj)
                    self._set(owner, attr, new)
                else:
                    wrappers[id(obj)] = (obj, _wrap(tracer, layer, attr, obj))
        # Replace every module-level reference, including names other modules
        # imported with "from .x import f", so no call path escapes a span.
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "msnmt" or modname.startswith("msnmt.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, new):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
