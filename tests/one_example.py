"""Beam search and dual-source attention for a single example.

The program decodes and attends in batches only (``decoding.beam_search``,
``attention.local_p``); these run them on one sentence or one decoder state,
for tests that state an invariant per example.
"""

from msnmt.attention import attend, attentional_hidden
from msnmt.decoding import beam_search


def beam_decode(params, config, src1_ids, src2_ids=None, beam=8, max_len=None,
                length_norm=True):
    """beam_search for one sentence; returns its (tokens, score, traces)."""
    srcs = (src1_ids,) if src2_ids is None else (src1_ids, src2_ids)
    results, _steps, _rows = beam_search(params, config, [srcs], beam, max_len,
                                         length_norm, keep_traces=True)
    return results[0]


def multi_attend(h_t, enc1_seq, enc2_seq, params1, params2, proj, D):
    """Dual-source step: independent position/window/context per encoder,
    then a joint output projection.  Single example; returns
    (h_tilde [d], trace1, trace2)."""
    c1, t1, _ = attend(h_t, enc1_seq, params1, D)
    c2, t2, _ = attend(h_t, enc2_seq, params2, D)
    out, _ = attentional_hidden(h_t, [c1, c2], proj)
    return out[0], t1, t2
