"""Beam search (beam 1 == greedy) over chunks of sentences, with
attention-trace dumping.

A file's sentences are sorted by their longest source and decoded in chunks,
so a chunk's sources pad to similar lengths and its sentences end close
together.  Every open sentence of a chunk owns ``beam`` slots, and each step
runs all of their rows through one decoder step.  A slot whose score is -inf
is dead.  Each step keeps, per sentence, the ``beam`` best extensions of its
slots and records a backpointer (parent row, token, traces); the best
hypothesis is rebuilt from them at the end.  A sentence closes at its cap,
or as soon as no live slot can still beat its best finished hypothesis, and
its rows are then dropped from every later step.

Chunks are independent, so translate_file decodes them in forked worker
processes, one per usable CPU, when a file has several chunks and the
process may run on several CPUs; otherwise in-process.  A file that gives
fewer chunks than there are usable CPUs, but holds at least SPLIT_TOKENS
source tokens, is instead cut into one chunk per CPU, of about equal source
tokens, so that every CPU decodes a part of it.  translate_file holds
OpenBLAS to one thread from before the workers fork until they are joined,
so each chunk runs on one BLAS thread either way and decodes to the same
bits.  Which sentences share a chunk can move their attention weights in
the last bits (a product's rows round with its row count, and a window's
width follows the chunk's longest source), as any change of chunking can;
the hypotheses have matched one-CPU decoding in every test and benchmark
comparison.
"""

import os
from contextlib import contextmanager

import numpy as np

from . import blas
from .attention import AttentionTrace
from .data import BOS, EOS, PAD, decode_ids, encode_line, read_aligned
from .errors import CompatibilityError, ConfigError, CorpusIOError, WorkerError
from .model import DecodeSession

# Rows decoded together: a chunk holds max(1, ROWS // beam) sentences, so
# every step's products and gate kernels run over up to ROWS rows, and their
# fixed cost per call is spread over many.  What must stay small is the
# encoder's work, not the step's, so a DecodeSession encodes its chunk
# model.ENCODE_SLICE (16) sentences at a time, with no backward tape.
# Encoding 128 sentences at once raised the benchmark's peak RSS
# (single-none 55.2 to 59.2 MB, multi-localp-long 100.0 to 114.8 MB; with
# the tape kept, 65.2 and 169.8 MB).  At 50 tokens its [128, T, 4d] input
# projections alone are 13 MB a layer, and the traced heap peak of a
# multi-localp-long translation rose to 28.8 MB.  In 16-sentence slices that
# peak is 10.0 MB (14.8 MB with 16-sentence chunks), and peak RSS does not
# move.  These RSS figures were measured under glibc's dynamic malloc
# thresholds, before training fixed them (heap.keep_freed_heap).
ROWS = 128

# A file that gives fewer chunks than there are usable CPUs is cut into one
# chunk per CPU only once its sentences hold this many source tokens (all
# sources counted): below it, starting and joining the workers costs more
# than the other CPU saves.  Greedy decoding of multi-localp-long's first N
# test lines on a 2-vCPU KVM guest (medians of 20 calls, in-process against
# split in two): 1.1K tokens 33.5 / 45.0 ms, 1.7K 39.8 / 38.0 ms, 2.2K
# 49.8 / 49.9 ms, 3.4K 65.5 / 56.8 ms, all 120 lines (8.5K) 143.6 / 108.1 ms;
# 120 single-none lines (0.9K) 26.8 / 31.1 ms.
SPLIT_TOKENS = 2048


def default_max_len(src_lengths):
    return 2 * max(src_lengths) + 5


def normalised_score(logprob, length):
    """Average per-token log-probability of a hypothesis of ``length`` tokens."""
    return logprob / max(1, length)


def _trace_row(trace, row):
    """Row ``row`` of a batched attention trace, as a batch of one."""
    part = slice(row, row + 1)
    return AttentionTrace(p_t=trace.p_t[part], window=trace.window[part],
                          align=trace.align[part], weights=trace.weights[part],
                          valid=trace.valid[part])


def _backtrack(history, step, slot):
    """Tokens (and traces, where kept) of the hypothesis in ``slot`` after
    ``step``."""
    tokens, traces = [], []
    for came_from, parents, toks, step_traces in reversed(history[:step + 1]):
        tokens.append(int(toks[slot]))
        row = int(parents[slot])         # the row that was stepped
        if step_traces is not None:
            traces.append([_trace_row(tr, row) for tr in step_traces])
        slot = int(came_from[row])       # its slot after the step before
    return tokens[::-1], traces[::-1]


def beam_search(params, config, sentences, beam=8, max_len=None, length_norm=True,
                keep_traces=False):
    """Length-capped beam search for a batch of sentences at once.

    sentences: list of tuples, one non-empty reversed source id list per
    source.  beam >= 1 and max_len >= 1 or None, as translate_file checks.
    Each sentence has its own cap, ``max_len`` or else default_max_len(its
    source lengths).  A finished hypothesis uses up its slot.  The best finished
    hypothesis wins (by average per-token log-probability, or by
    log-probability without ``length_norm``); the best live one if none
    finished within the cap.

    A sentence closes at its cap, or once its best finished rank is >= a
    bound no live slot can exceed.  Log-probabilities are <= 0 and a
    hypothesis ends by the cap, so a live slot with score S finishes with a
    rank of at most S / cap (S without ``length_norm``), also in rounded
    arithmetic; a later hypothesis replaces the best only with a strictly
    greater rank.  So the result is the one a search run to the cap gives.
    A closed sentence's rows are dropped from every later step.

    Returns (results, steps, rows): per sentence (token ids without
    <s>/</s>, score, traces), the number of decoder steps run and the
    number of rows they stepped.  With ``keep_traces``, traces holds per
    emitted token, </s> included, one batch-of-one attention trace per
    source (none without attention); otherwise it is empty.
    """
    sess = DecodeSession(params, config, sentences, beam)
    n, V = len(sentences), config.tgt_vocab_size
    # per open sentence: its index, cap, slot scores and best finished rank
    open_ids = np.arange(n)
    caps = np.array([max_len if max_len is not None else default_max_len(list(map(len, srcs)))
                     for srcs in sentences])
    score = np.full((n, beam), -np.inf)
    score[:, 0] = 0.0
    best_rank = np.full(n, -np.inf)
    best = [None] * n            # (rank, step, slot) of the best hypothesis
    tokens = np.full(n * beam, BOS)
    came_from = np.arange(n * beam)
    states, htilde = sess.initial()
    history = []
    t = rows = 0
    while True:
        m = len(open_ids)
        states, htilde, logp, traces = sess.step(states, htilde, tokens)
        rows += m * beam
        logp[:, PAD] = -np.inf
        logp[:, BOS] = -np.inf
        cand = (score.reshape(-1, 1) + logp).reshape(m, beam * V)
        top = np.argpartition(-cand, beam - 1, axis=1)[:, :beam]
        top_score = np.take_along_axis(cand, top, axis=1)
        order = np.argsort(-top_score, axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        score = np.take_along_axis(top_score, order, axis=1)
        parents = (np.arange(m)[:, None] * beam + top // V).ravel()
        tokens = (top % V).ravel()
        history.append((came_from, parents, tokens, traces if keep_traces else None))

        length = t + 1
        ranks = normalised_score(score, length) if length_norm else score.copy()
        ended = (tokens.reshape(m, beam) == EOS) & (score > -np.inf)
        for o, j in zip(*np.nonzero(ended)):
            if ranks[o, j] > best_rank[o]:
                best_rank[o] = ranks[o, j]
                best[open_ids[o]] = (ranks[o, j], t, o * beam + j)
        score[ended] = -np.inf
        capped = caps == length
        for o in np.nonzero(capped & (best_rank == -np.inf))[0]:
            # nothing finished: the best live one
            j = int(np.argmax(np.where(score[o] > -np.inf, ranks[o], -np.inf)))
            best[open_ids[o]] = (ranks[o, j], t, o * beam + j)
        live = score.max(axis=1)
        keep = ~(capped | (best_rank >= (live / caps if length_norm else live)))
        t += 1
        if not keep.any():
            break
        came_from = np.flatnonzero(np.repeat(keep, beam))
        if not keep.all():
            sess.keep_rows(came_from)
            open_ids, caps, score, best_rank = (a[keep] for a in (open_ids, caps, score,
                                                                   best_rank))
        src = parents[came_from]
        states = [(h[src], c[src]) for h, c in states]
        htilde = htilde[src]
        tokens = tokens[came_from]

    results = []
    for rank, step, slot in best:
        toks, traces = _backtrack(history, step, slot)
        if toks[-1] == EOS:
            toks.pop()
        results.append((toks, float(rank), traces))
    return results, t, rows


def _decode_chunk(job, chunk):
    """Beam-search the input lines ``chunk``.  Returns
    ({line: (hypothesis, TSV lines)}, steps, rows): plain strings and ints,
    cheap to send back from a worker process."""
    params, config, encoded, tgt_vocab, beam, max_len, length_norm, keep_traces = job
    results, steps, rows = beam_search(params, config, [encoded[i] for i in chunk], beam,
                                       max_len, length_norm, keep_traces=keep_traces)
    return {i: (" ".join(decode_ids(toks, tgt_vocab)), "".join(
        f"{i}\t{tpos}\t{k}\t{int(s)}\t{w:.6f}\n"
        for tpos, per_source in enumerate(traces)
        for k, trace in enumerate(per_source)
        for s, w in zip(trace.window[trace.valid], trace.weights[trace.valid])))
        for i, (toks, _score, traces) in zip(chunk, results)}, steps, rows


def _chunks(todo, encoded, size, cpus):
    """The input lines ``todo``, in length order, cut into contiguous chunks
    to decode apart: ``size`` sentences each; or, where that gives fewer
    chunks than ``cpus`` and the lines hold SPLIT_TOKENS source tokens or
    more, min(cpus, len(todo)) chunks of at most ``size`` sentences, each cut
    at the line nearest an equal share of the source tokens."""
    chunks = [todo[start:start + size] for start in range(0, len(todo), size)]
    tokens = np.cumsum([0] + [sum(map(len, encoded[i])) for i in todo])
    if len(chunks) >= cpus or tokens[-1] < SPLIT_TOKENS:
        return chunks
    n = min(cpus, len(todo))
    cuts = [0]
    for k in range(1, n):
        nearest = int(np.argmin(np.abs(tokens - k * tokens[-1] / n)))
        # every chunk gets a sentence, and none more than `size`
        low = max(cuts[-1] + 1, len(todo) - (n - k) * size)
        cuts.append(min(max(nearest, low), cuts[-1] + size, len(todo) - (n - k)))
    cuts.append(len(todo))
    return [todo[a:b] for a, b in zip(cuts, cuts[1:])]


def _usable_cpus():
    """CPUs this process may run on; 1 where the OS does not say (no
    sched_getaffinity, as on macOS and Windows)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# Set in a decoding worker process only, by the pool's initializer: the job
# that its pool was started for.
_worker_job = None


def _start_worker(job):
    global _worker_job
    _worker_job = job


def _decode_in_worker(chunk):
    return _decode_chunk(_worker_job, chunk)


@contextmanager
def _decoded_chunks(job, chunks, cpus):
    """(an iterator over _decode_chunk(job, chunk) for every chunk, in chunk
    order; the number of worker processes decoding them).  With several
    chunks and ``cpus`` above 1 the chunks are decoded in forked worker
    processes, one per chunk up to one per CPU; otherwise in this process,
    one after another, and the number is 0.  A chunk decodes to the same bits
    in either.

    The workers are started by fork, so they inherit the job (model and
    encoded lines) through _start_worker instead of receiving a pickled
    copy, and only the chunk's line numbers and its strings cross a pipe.
    spawn would start each worker with a fresh interpreter that imports
    numpy and msnmt before its first chunk.  msnmt starts no threads of its
    own, and OpenBLAS shuts its thread pool down before a fork (its
    pthread_atfork handler).  A child starts that pool again at its first
    product if its thread count is above 1, and the extra thread spins on a
    CPU the other worker needs; so the caller holds blas.one_thread() around
    this block, and the workers inherit a count of 1.  Every worker is shut
    down and joined when the block exits, however it exits.  A worker that
    dies raises WorkerError; if a worker cannot be started, the chunks are
    decoded in this process."""
    serial = (_decode_chunk(job, chunk) for chunk in chunks)
    workers = min(len(chunks), cpus)
    if workers < 2:
        yield serial, 0
        return
    # imported here, so a serial translation does not pay their import
    # (20-30 ms and 1.2 MB of RSS after numpy)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    before = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(job,))
    try:
        try:
            decoded = pool.map(_decode_in_worker, chunks)   # forks every worker
        except OSError:
            # a fork was refused (process or memory limits).  The pool does
            # not stop the workers it had started, so stop them here, and
            # decode in this process.
            for p in set(multiprocessing.active_children()) - before:
                p.terminate()
                p.join()
            decoded, workers = serial, 0
        yield decoded, workers
    except BrokenProcessPool as e:
        raise WorkerError(f"a decoding worker process died: {e}") from e
    finally:
        pool.shutdown(cancel_futures=True)


def translate_file(params, config, src_paths, out_path, vocabs, beam=8,
                   max_len=None, dump_attention=None, length_norm=True):
    """One output line per input line; optional alignment TSV
    (sentence, target_pos, encoder_id, source_pos, weight).  Non-blank lines
    are sorted by their longest source (stably) and decoded in chunks of
    max(1, ROWS // beam) sentences, or, where those are fewer than the usable
    CPUs and the file is large enough, in one chunk per CPU (_chunks); in
    worker processes where there are several chunks and several usable CPUs
    (_decoded_chunks).  A line blank in any source stays blank.  Hypotheses
    and TSV lines are written in input order, each line's as soon as every
    earlier input line is done.  The whole decode, workers included, runs
    on one OpenBLAS thread; the caller's count is back when it returns or
    raises.  Returns {"sentences", "steps", "rows", "chunks", "workers"}:
    sentences decoded, decoder steps run and rows stepped over all of them,
    chunks decoded and the worker processes that decoded them (0 in this
    process).  One source file per source of the model, or
    CompatibilityError."""
    if len(src_paths) != config.n_sources:
        raise CompatibilityError(
            f"checkpoint is {config.mode} ({config.n_sources} source(s)) but "
            f"{len(src_paths)} source file(s) were given")
    if beam < 1:
        raise ConfigError(f"beam must be >= 1, got {beam}")
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    src_vocabs, tgt_vocab = vocabs
    rows = read_aligned(src_paths)
    todo = [i for i, row in enumerate(rows) if all(r.strip() for r in row)]
    encoded = {i: tuple(encode_line(r, v, reverse=True) for r, v in zip(rows[i], src_vocabs))
               for i in todo}
    todo.sort(key=lambda i: max(map(len, encoded[i])))
    cpus = _usable_cpus()
    chunks = _chunks(todo, encoded, max(1, ROWS // beam), cpus)
    stats = {"sentences": len(todo), "steps": 0, "rows": 0, "chunks": len(chunks)}
    done = {}   # input line -> (hypothesis, TSV lines), until it is written
    written = 0

    def write_ready():
        nonlocal written
        while written < len(rows) and (written in done or written not in encoded):
            hyp, tsv_lines = done.pop(written, ("", ""))
            out.write(hyp + "\n")
            if tsv is not None:
                tsv.write(tsv_lines)
            written += 1

    tsv = None
    try:
        out = open(out_path, "w", encoding="utf-8")
    except OSError as e:
        raise CorpusIOError(f"cannot write {out_path}: {e}") from e
    try:
        if dump_attention:
            try:
                tsv = open(dump_attention, "w", encoding="utf-8")
            except OSError as e:
                raise CorpusIOError(f"cannot write {dump_attention}: {e}") from e
            tsv.write("sentence\ttarget_pos\tencoder_id\tsource_pos\tweight\n")
        job = (params, config, encoded, tgt_vocab, beam, max_len, length_norm, tsv is not None)
        with blas.one_thread(), _decoded_chunks(job, chunks, cpus) as (decoded, workers):
            stats["workers"] = workers
            for sentences, steps, stepped in decoded:
                stats["steps"] += steps
                stats["rows"] += stepped
                done.update(sentences)
                write_ready()
        write_ready()   # when no line was decoded
    finally:
        out.close()
        if tsv is not None:
            tsv.close()
    return stats
