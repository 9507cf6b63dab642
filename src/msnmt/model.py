"""Model assembly: encoders, combiners, attention, decoder, softmax.

forward_loss runs teacher-forced decoding over a padded batch and records a
tape (per-step caches); backward walks the tape in reverse and accumulates
gradients as SUMS over the batch into every Parameter.  Normalization by
batch size happens in the trainer.
"""

import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import attention as attn_mod
from . import combiner as comb_mod
from . import recurrent as rec_mod
from .data import pad_ids
from .errors import CompatibilityError, ConfigError, CorpusIOError, NumericError
from .numerics import Parameter, log_softmax
from .rngs import rng_stream

MODES = ("single", "multi-basic", "multi-childsum")
ATTENTIONS = ("none", "local-p")


@dataclass
class ModelConfig:
    mode: str = "single"
    attention: str = "none"
    layers: int = 2
    hidden: int = 64
    src_vocab_sizes: tuple = (8,)
    tgt_vocab_size: int = 8
    window: int = 10      # attention radius D
    dropout: float = 0.0

    def __post_init__(self):
        self.src_vocab_sizes = tuple(self.src_vocab_sizes)
        self.validate()

    def validate(self):
        errs = []
        if self.mode not in MODES:
            errs.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.attention not in ATTENTIONS:
            errs.append(f"attention must be one of {ATTENTIONS}, got {self.attention!r}")
        if self.layers < 1:
            errs.append(f"layers must be >= 1, got {self.layers}")
        if self.hidden < 1:
            errs.append(f"hidden must be >= 1, got {self.hidden}")
        if self.attention == "local-p" and self.window < 1:
            errs.append(f"window radius D must be >= 1 with attention, got {self.window}")
        if not 0.0 <= self.dropout < 1.0:
            errs.append(f"dropout must be in [0,1), got {self.dropout}")
        want = 1 if self.mode == "single" else 2
        if len(self.src_vocab_sizes) != want:
            errs.append(f"mode {self.mode} needs {want} source vocabularies, "
                        f"got {len(self.src_vocab_sizes)}")
        if errs:
            raise ConfigError("; ".join(errs))

    @property
    def n_sources(self):
        return 1 if self.mode == "single" else 2

    @property
    def use_attention(self):
        return self.attention == "local-p"

    @property
    def combiner_method(self):
        return {"multi-basic": "basic", "multi-childsum": "childsum"}.get(self.mode)

    def to_dict(self):
        return {"mode": self.mode, "attention": self.attention, "layers": self.layers,
                "hidden": self.hidden, "src_vocab_sizes": list(self.src_vocab_sizes),
                "tgt_vocab_size": self.tgt_vocab_size, "window": self.window,
                "dropout": self.dropout, "dtype": "float64"}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        dtype = d.pop("dtype", "float64")
        if dtype != "float64":
            raise ConfigError(f"dtype must be float64, got {dtype!r}")
        d["src_vocab_sizes"] = tuple(d["src_vocab_sizes"])
        return cls(**d)


class ModelParams:
    """All learned weights, each registered exactly once by name.

    ``value`` is one flat float64 vector, zero at first (left uninitialised
    with ``zeroed=False``, for a caller that overwrites all of it).  Each
    Parameter's value is a view of it, laid end to end in registry order:
    the layout of a checkpoint body.  ``grad``, a second vector in the same layout, exists
    from ``add_grads`` on, which a build with ``grads`` calls; until then it
    and every Parameter's grad are None, so a model loaded to translate
    holds no gradient storage.  One numpy call scales, steps or zeroes
    every weight."""

    def __init__(self, config: ModelConfig, grads=True, zeroed=True):
        self.config = config
        self.registry = {}
        self.value = (np.zeros if zeroed else np.empty)(_weight_count(config))
        self.grad = None
        self._end = 0
        self._build(self._new)
        if grads:
            self.add_grads()

    def _build(self, new):
        """Make every Parameter with ``new(name, shape)``, in registry order."""
        config = self.config
        d = config.hidden

        def lstm(prefix, d_in):
            return rec_mod.LstmParams(w_x=new(f"{prefix}.w_x", (4 * d, d_in)),
                                      w_h=new(f"{prefix}.w_h", (4 * d, d)),
                                      b=new(f"{prefix}.b", (4 * d,)))

        self.src_embeds = [new(f"src{k}.embed", (v, d))
                           for k, v in enumerate(config.src_vocab_sizes)]
        self.tgt_embed = new("tgt.embed", (config.tgt_vocab_size, d))

        self.enc_layers = []
        for k in range(config.n_sources):
            layers = []
            for l in range(config.layers):
                layers.append(lstm(f"enc{k}.l{l}", d))
            self.enc_layers.append(layers)

        dec_in0 = 2 * d if config.use_attention else d
        self.dec_layers = []
        for l in range(config.layers):
            d_in = dec_in0 if l == 0 else d
            self.dec_layers.append(lstm(f"dec.l{l}", d_in))

        self.combiners = None
        if config.mode == "multi-basic":
            self.combiners = [comb_mod.BasicCombinerParams(
                w_c=new(f"comb.l{l}.w_c", (d, 2 * d)))
                for l in range(config.layers)]
        elif config.mode == "multi-childsum":
            self.combiners = []
            for l in range(config.layers):
                kw = {nm: new(f"comb.l{l}.{nm}", (d, d))
                      for nm in ("w1_i", "w2_i", "w1_f", "w2_f",
                                 "w1_o", "w2_o", "w1_u", "w2_u")}
                self.combiners.append(comb_mod.ChildSumCombinerParams(**kw))

        self.attn = None
        self.out_proj = None
        if config.use_attention:
            self.attn = [attn_mod.AttentionParams(
                w_p=new(f"attn{k}.w_p", (d, d)),
                v_p=new(f"attn{k}.v_p", (d,)),
                w_a=new(f"attn{k}.w_a", (d, d)))
                for k in range(config.n_sources)]
            width = (1 + config.n_sources) * d
            self.out_proj = new("out_proj.w", (d, width))

        self.softmax_w = new("softmax.w", (config.tgt_vocab_size, d))
        self.softmax_b = new("softmax.b", (config.tgt_vocab_size,))

    def _new(self, name, shape):
        start, self._end = self._end, self._end + math.prod(shape)
        p = Parameter(name, self.value[start:self._end].reshape(shape), grad=None)
        self.registry[name] = p
        return p

    def add_grads(self):
        """Give every Parameter a zero gradient, a view of one flat vector
        laid out like ``value``.  Does nothing if they have one."""
        if self.grad is not None:
            return
        self.grad = np.zeros_like(self.value)
        start = 0
        for p in self.registry.values():
            end = start + p.value.size
            p.grad = self.grad[start:end].reshape(p.value.shape)
            start = end

    def all(self):
        return list(self.registry.values())

    def zero_grads(self):
        self.grad[...] = 0.0


def _weight_count(config: ModelConfig):
    """How many weights ModelParams(config) holds, counted by a measuring
    _build pass that allocates nothing."""
    sizes = []
    ModelParams._build(SimpleNamespace(config=config),
                       lambda name, shape: sizes.append(math.prod(shape)))
    return sum(sizes)


def init_params(config: ModelConfig, seed, init_range):
    """Uniform [-range, +range] weights from the 'init' substream; biases zero."""
    if not (math.isfinite(init_range) and init_range > 0):
        raise ConfigError(f"init range must be finite and positive, got {init_range}")
    params = ModelParams(config)
    rng = rng_stream(seed, "init")
    for name, p in params.registry.items():
        if name.endswith(".b"):
            continue  # bias vectors stay zero
        p.value[...] = rng.uniform(-init_range, init_range, size=p.value.shape)
    return params


def perplexity(total_nll, predicted_tokens):
    if predicted_tokens < 1:
        raise ConfigError("perplexity over zero predicted tokens")
    return math.exp(total_nll / predicted_tokens)


def make_dropout_masks(config: ModelConfig, params: ModelParams, batch_size, rng):
    """Inverted dropout masks, one per non-recurrent connection, shared
    across timesteps within the batch."""
    rate = config.dropout
    if rate == 0.0:
        return None
    keep = 1.0 - rate

    def mk(width):
        return (rng.random((batch_size, width)) >= rate).astype(np.float64) / keep

    d = config.hidden
    masks = {
        "enc": [[mk(l.input_size) for l in layers] for layers in params.enc_layers],
        "dec": [mk(l.input_size) for l in params.dec_layers],
        "htilde": mk(d) if config.use_attention else None,
    }
    return masks


def _encode_sources(params: ModelParams, config: ModelConfig, sources, enc_masks=None,
                    tape=True):
    """Encode every source and combine the encoders' final states.

    sources: per source, its padded reversed ids [B, T] and mask [B, T].
    enc_masks: per source, its encoder dropout masks, or None.  Returns (the
    decoder's initial states, each source's top states [B, T, d], the
    encoder caches, the combiner cache or None in single mode).  Without
    ``tape`` the encoders keep nothing for backward and their caches are
    None."""
    finals, tops, caches = [], [], []
    for k, (ids, mask) in enumerate(sources):
        final, top, cache = rec_mod.encode_batch(
            ids, mask, params.src_embeds[k], params.enc_layers[k],
            enc_masks[k] if enc_masks else None, tape)
        finals.append(final)
        tops.append(top)
        caches.append(cache)
    if config.n_sources == 1:
        return finals[0], tops, caches, None
    init, comb_cache = comb_mod.combine_stacks(
        finals[0], finals[1], config.combiner_method, params.combiners)
    return init, tops, caches, comb_cache


def decoder_step(params: ModelParams, config: ModelConfig, tokens, states, htilde_prev,
                 sources, masks=None):
    """One decoder step for a batch of rows, shared by training and decoding.

    tokens [B]: the previous target ids.  states: the decoder's per-layer
    (h, c).  htilde_prev [B, d]: the previous attentional hidden (feed input;
    passed through unchanged without attention).  sources: per source, its
    top encoder states in encoder order [B, T, d] and lengths [B].  masks:
    dropout masks from make_dropout_masks, or None.

    Returns (states, htilde, log-probabilities [B, V], cache); the cache holds
    what backward needs ("stack", "att", "hcache", "sm_in") and "traces", the
    attention trace per source.
    """
    p = params
    emb = p.tgt_embed.value[tokens]
    x = np.concatenate([emb, htilde_prev], axis=1) if config.use_attention else emb
    states, stack_cache = rec_mod.stack_step(x, states, p.dec_layers,
                                             masks["dec"] if masks else None)
    h_top = states[-1][0]
    att_caches, hcache, traces = None, None, []
    htilde = htilde_prev
    if config.use_attention:
        ctxs, att_caches = [], []
        for k, (tops, lens) in enumerate(sources):
            ctx, trace, acache = attn_mod.local_p(h_top, tops, lens, p.attn[k], config.window)
            ctxs.append(ctx)
            traces.append(trace)
            att_caches.append(acache)
        htilde, hcache = attn_mod.attentional_hidden(h_top, ctxs, p.out_proj)
        sm_in = htilde * masks["htilde"] if masks else htilde
    else:
        sm_in = h_top
    logp = log_softmax(sm_in @ p.softmax_w.value.T + p.softmax_b.value)
    cache = {"stack": stack_cache, "att": att_caches, "hcache": hcache, "sm_in": sm_in,
             "traces": traces}
    return states, htilde, logp, cache


def forward_loss(batch, params: ModelParams, config: ModelConfig,
                 train_mode=False, rng=None, tape=True):
    """Teacher-forced negative log-likelihood over a batch.

    Returns (total_nll, predicted_tokens, tape).  Masked target positions
    contribute zero loss and are excluded from predicted_tokens.  Without
    ``tape`` (dev evaluation) nothing is kept for backward: the encoders
    keep no caches, no step's cache outlives the step, no probabilities are
    formed, and the tape returned is None.  The loss is the same bits.
    """
    B = batch.size
    d = config.hidden

    sources, lens = [(batch.src1, batch.src1_mask)], [batch.src1_len]
    if config.n_sources == 2:
        sources.append((batch.src2, batch.src2_mask))
        lens.append(batch.src2_len)

    masks = make_dropout_masks(config, params, B, rng) if (train_mode and rng is not None) else None

    dec_states, enc_tops, enc_caches, comb_cache = _encode_sources(
        params, config, sources, masks["enc"] if masks else None, tape)

    Tt = batch.tgt_in.shape[1]
    htilde_prev = np.zeros((B, d))
    total_nll = 0.0
    step_tapes = []
    att_sources = list(zip(enc_tops, lens))

    for t in range(Tt):
        dec_states, htilde_prev, logp, step = decoder_step(
            params, config, batch.tgt_in[:, t], dec_states, htilde_prev, att_sources, masks)
        gold = batch.tgt_out[:, t]
        m = batch.tgt_mask[:, t]
        nll_t = -float((logp[np.arange(B), gold] * m).sum())
        if not np.isfinite(nll_t):
            raise NumericError(f"non-finite loss at decoder step {t}")
        total_nll += nll_t
        if tape:
            step.update(probs=np.exp(logp), gold=gold, mask=m)
            step_tapes.append(step)

    if not tape:
        return total_nll, batch.n_predicted, None
    return total_nll, batch.n_predicted, {
        "batch": batch, "config": config, "masks": masks,
        "enc_caches": enc_caches, "comb_cache": comb_cache,
        "enc_tops_shape": [th.shape for th in enc_tops], "steps": step_tapes}


def backward(tape, params: ModelParams):
    """BPTT over a recorded forward tape.  Grads are sums over the batch."""
    config = tape["config"]
    batch = tape["batch"]
    masks = tape["masks"]
    B = batch.size
    d = config.hidden
    L = config.layers
    steps = tape["steps"]

    dH_top = None
    if config.use_attention:
        dH_top = [np.zeros(shape) for shape in tape["enc_tops_shape"]]

    d_states = [(np.zeros((B, d)), np.zeros((B, d))) for _ in range(L)]
    dhtilde_feed = np.zeros((B, d))
    dmask_dec = masks["dec"] if masks else None
    hmask = masks["htilde"] if masks else None

    for t in range(len(steps) - 1, -1, -1):
        st = steps[t]
        probs, gold, m = st["probs"], st["gold"], st["mask"]
        dlogits = probs * m[:, None]
        dlogits[np.arange(B), gold] -= m
        params.softmax_w.grad += dlogits.T @ st["sm_in"]
        params.softmax_b.grad += dlogits.sum(axis=0)
        dsm_in = dlogits @ params.softmax_w.value

        if config.use_attention:
            dhtilde = (dsm_in * hmask if hmask is not None else dsm_in) + dhtilde_feed
            dh_top, dctxs = attn_mod.attentional_hidden_backward(
                dhtilde, st["hcache"], params.out_proj)
            for k, acache in enumerate(st["att"]):
                dh_top = dh_top + attn_mod.local_p_backward(
                    dctxs[k], acache, params.attn[k], dH_top[k])
        else:
            dh_top = dsm_in

        dx, d_states = rec_mod.stack_step_backward(
            dh_top, d_states, st["stack"], params.dec_layers, dmask_dec)

        if config.use_attention:
            demb = dx[:, :d]
            dhtilde_feed = dx[:, d:] if t > 0 else np.zeros((B, d))
        else:
            demb = dx
        np.add.at(params.tgt_embed.grad, batch.tgt_in[:, t], demb)

    if config.n_sources == 2:
        dfin = comb_mod.combine_stacks_backward(
            d_states, tape["comb_cache"], config.combiner_method, params.combiners)
    else:
        dfin = (d_states,)

    for k, cache in enumerate(tape["enc_caches"]):
        rec_mod.encode_batch_backward(
            dfin[k], dH_top[k] if dH_top is not None else None,
            cache, params.src_embeds[k], params.enc_layers[k],
            masks["enc"][k] if masks else None)

    if not np.isfinite(params.grad).all():
        bad = next(p for p in params.all() if not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient in {bad.name}")


# Sentences encoded together by a DecodeSession.  Decoding steps more rows
# than this at once (decoding.ROWS); the encoder's per-layer [B, T, 4d] input
# projections are what must stay this small (see the comment there).
ENCODE_SLICE = 16


def _spread(out, part, width):
    """Write ``part`` [m, T', ...] into the first T' columns of ``out``
    [m * width, T, ...], each of its rows ``width`` times in a row."""
    m = len(part)
    out.reshape(m, width, *out.shape[1:])[:, :, :part.shape[1]] = part[:, None]


class DecodeSession:
    """Incremental decoding of a batch of sentences over frozen parameters.

    ``sentences`` is a list of tuples holding one non-empty reversed id list
    per source of the model (translate_file makes them so).  Each sentence
    owns ``width`` consecutive rows (its beam slots), so row r decodes
    sentence r // width until ``keep_rows`` drops some rows.  The sources
    are encoded without a tape, ENCODE_SLICE sentences at a time,
    each slice padded to its own longest source.  Every row's initial states,
    and with attention its top states and length, are written once, here;
    without attention no source states are kept.
    """

    def __init__(self, params: ModelParams, config: ModelConfig, sentences, width=1):
        self.params = params
        self.config = config
        n, d = len(sentences), config.hidden
        self.init_states = [(np.empty((n * width, d)), np.empty((n * width, d)))
                            for _ in range(config.layers)]
        self.sources = []
        if config.use_attention:
            for k in range(config.n_sources):
                lens = np.array([len(srcs[k]) for srcs in sentences])
                self.sources.append((np.zeros((n * width, lens.max(), d)),
                                     np.repeat(lens, width)))
        for start in range(0, n, ENCODE_SLICE):
            part = sentences[start:start + ENCODE_SLICE]
            padded = [pad_ids([srcs[k] for srcs in part]) for k in range(config.n_sources)]
            init, tops, _, _ = _encode_sources(
                params, config, [(ids, mask) for ids, mask, _lens in padded], tape=False)
            rows = slice(start * width, (start + len(part)) * width)
            for (h, c), (h0, c0) in zip(self.init_states, init):
                _spread(h[rows], h0, width)
                _spread(c[rows], c0, width)
            for (all_tops, _lens), top in zip(self.sources, tops):
                _spread(all_tops[rows], top, width)

    def initial(self):
        """Decoder states and a zero feed input for every row."""
        h0 = self.init_states[0][0]
        return list(self.init_states), np.zeros_like(h0)

    def keep_rows(self, rows):
        """Keep only ``rows`` of every source, in that order, for later steps."""
        self.sources = [(tops[rows], lens[rows]) for tops, lens in self.sources]

    def step(self, states, htilde_prev, tokens):
        """One teacher-free decoder step for every row.  tokens [rows]: the
        previous target ids.  Returns (new_states, htilde [rows, d],
        log_probs [rows, V], traces per source, each batched over the rows)."""
        states, htilde, logp, cache = decoder_step(
            self.params, self.config, tokens, states, htilde_prev, self.sources)
        return states, htilde, logp, cache["traces"]


CKPT_MAGIC = b"MSNMTCKPT1\n"


def _manifest(params: ModelParams):
    """Name, shape, dtype and byte range of every parameter in the body."""
    out, off = [], 0
    for name, p in params.registry.items():
        out.append({"name": name, "shape": list(p.value.shape), "dtype": "float64",
                    "offset": off, "nbytes": p.value.nbytes})
        off += p.value.nbytes
    return out


def replace_file(path, parts):
    """Write the bytes-like ``parts`` to a temporary file beside ``path``,
    then rename it over ``path``: the file is replaced whole or left as it
    was, and the temporary file is gone either way.  OSError raises
    CorpusIOError."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(parts)
        os.replace(tmp, path)
    except OSError as e:
        raise CorpusIOError(f"cannot write {path}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, config: ModelConfig, params: ModelParams, vocab_meta=None):
    """Versioned flat binary: magic, header length, JSON header, then the
    value vector as it lies in memory; replaced whole (replace_file)."""
    header = json.dumps({"config": config.to_dict(), "vocab": vocab_meta or {},
                         "params": _manifest(params)}, sort_keys=True).encode("utf-8")
    replace_file(path, (CKPT_MAGIC, len(header).to_bytes(8, "little"), header, params.value))


def load_checkpoint(path):
    """Returns (config, params, vocab_meta); round-trip is bit-exact.

    The header must describe exactly the layout its config builds, and the
    body must be exactly as long as that layout; only then is the value
    vector allocated and the body read straight into it.  A file that ends
    early or runs on, whose header does not match or whose weights are not
    all finite is refused.  The params hold no gradient storage
    (``add_grads`` makes it)."""
    try:
        with open(path, "rb") as f:
            magic = f.read(len(CKPT_MAGIC))
            if magic != CKPT_MAGIC:
                raise CompatibilityError(f"{path}: not an msnmt checkpoint")
            hlen = int.from_bytes(f.read(8), "little")
            size = os.fstat(f.fileno()).st_size
            if hlen > size - f.tell():
                raise CompatibilityError(f"{path}: header length {hlen} runs past the file")
            try:
                header = json.loads(f.read(hlen).decode("utf-8"))
                config = ModelConfig.from_dict(header["config"])
                body, want = size - f.tell(), 8 * _weight_count(config)
                if body < want:
                    raise CompatibilityError(f"{path}: truncated body: {body} bytes, where "
                                             f"its config implies {want}")
                if body > want:
                    raise CompatibilityError(f"{path}: {body - want} trailing bytes after "
                                             f"the {want}-byte body its config implies")
                params = ModelParams(config, grads=False, zeroed=False)
                saved = {m["name"]: m for m in header["params"]}
                if set(saved) != set(params.registry):
                    raise CompatibilityError(f"{path}: parameter names do not match its config")
                for want in _manifest(params):
                    got = saved[want["name"]]
                    if any(got[k] != want[k] for k in want):
                        raise CompatibilityError(
                            f"{path}: {want['name']} is {got}, expected {want}")
            except (ConfigError, ValueError, KeyError, TypeError) as e:
                raise CompatibilityError(f"{path}: malformed checkpoint header: {e}") from e
            if f.readinto(params.value) != params.value.nbytes:
                raise CompatibilityError(f"{path}: truncated body")
    except OSError as e:
        raise CorpusIOError(f"cannot read checkpoint {path}: {e}") from e
    if not np.isfinite(params.value).all():
        bad = next(p for p in params.all() if not np.isfinite(p.value).all())
        raise CompatibilityError(f"{path}: non-finite weights in {bad.name}")
    return config, params, header.get("vocab", {})
