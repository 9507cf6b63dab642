import os
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from msnmt import decoding
from msnmt import model as M
from msnmt.data import BOS, EOS, RESERVED, Vocabulary, decode_ids, encode_line
from msnmt.decoding import default_max_len, normalised_score, translate_file
from msnmt.errors import AlignmentError, CompatibilityError, ConfigError, WorkerError
from msnmt.model import DecodeSession, ModelConfig, ModelParams, init_params
from one_example import beam_decode


def small_cfg(mode="single", attention="local-p", vocab=12, hidden=8):
    n = 1 if mode == "single" else 2
    return ModelConfig(mode=mode, attention=attention, layers=2, hidden=hidden,
                       src_vocab_sizes=(vocab,) * n, tgt_vocab_size=vocab)


def greedy(params, config, src1, src2=None, max_len=20):
    sess = DecodeSession(params, config, [(src1,) if src2 is None else (src1, src2)])
    states, htilde = sess.initial()
    tokens = []
    prev = BOS
    total = 0.0
    for _ in range(max_len):
        states, htilde, logp, _ = sess.step(states, htilde, np.array([prev]))
        logp = logp[0].copy()
        logp[0] = -np.inf
        logp[BOS] = -np.inf
        prev = int(np.argmax(logp))
        total += float(logp[prev])
        if prev == EOS:
            break
        tokens.append(prev)
    return tokens, total


def reference_beam_decode(params, config, srcs, beam, max_len=None, length_norm=True,
                          session=DecodeSession):
    """The search one hypothesis at a time, each stepped as its own batch of
    one, always to the cap: the reference the batched search must match.  A
    -inf candidate is never a hypothesis, and a finished one uses up a place
    in the beam."""
    sess = session(params, config, [srcs])
    if max_len is None:
        max_len = default_max_len([len(s) for s in srcs])
    states, htilde = sess.initial()
    live, done = [([], 0.0, states, htilde)], []
    for _ in range(max_len):
        candidates = []
        for toks, lp, st, ht in live:
            st, ht, logp, _ = sess.step(st, ht, np.array([toks[-1] if toks else BOS]))
            logp = logp[0]
            logp[[0, BOS]] = -np.inf
            for tok in np.argsort(logp)[::-1][:beam]:
                if logp[tok] > -np.inf:
                    candidates.append((toks + [int(tok)], lp + float(logp[tok]), st, ht))
        candidates.sort(key=lambda c: c[1], reverse=True)
        live = []
        for c in candidates[:beam]:
            (done if c[0][-1] == EOS else live).append(c)
        if not live:
            break
    rank = (lambda h: normalised_score(h[1], len(h[0]))) if length_norm else (lambda h: h[1])
    best = max(done or live, key=rank)
    return [t for t in best[0] if t != EOS], rank(best)


class TestHypothesis:
    def test_score_is_average(self):
        assert normalised_score(-3.0, 3) == -1.0

    def test_empty_tokens_no_division_by_zero(self):
        assert normalised_score(0.0, 0) == 0.0

    def test_default_max_len(self):
        assert default_max_len([4]) == 13
        assert default_max_len([3, 7]) == 19


class TestBeamDecode:
    @pytest.mark.parametrize("mode", ["single", "multi-basic"])
    def test_beam_one_equals_greedy(self, mode):
        cfg = small_cfg(mode)
        params = init_params(cfg, 13, 0.4)
        src1 = [6, 5, 4]
        src2 = [7, 8] if mode != "single" else None
        lens = [len(src1)] + ([len(src2)] if src2 else [])
        toks, _, _ = beam_decode(params, cfg, src1, src2, beam=1)
        want, _ = greedy(params, cfg, src1, src2, max_len=default_max_len(lens))
        assert toks == want

    @pytest.mark.parametrize("beam", [1, 4, 8])
    @pytest.mark.parametrize("mode,attention", [("single", "none"), ("single", "local-p"),
                                                ("multi-basic", "local-p"),
                                                ("multi-childsum", "none")])
    def test_matches_one_hypothesis_at_a_time(self, mode, attention, beam):
        # 12 target types, and 5 (fewer than beam + 2 at beams 4 and 8)
        for tgt_types, length_norm, max_len in ((12, True, None), (5, False, 7)):
            cfg = ModelConfig(mode=mode, attention=attention, layers=2, hidden=8,
                              src_vocab_sizes=(12,) * (1 if mode == "single" else 2),
                              tgt_vocab_size=tgt_types, window=2)
            params = init_params(cfg, 22, 0.6)
            for src in ([4], [5, 6, 7], [8, 9, 4, 5, 6, 10]):
                srcs = (src,) if mode == "single" else (src, src[::-1] + [11])
                toks, score, _ = beam_decode(params, cfg, *srcs, beam=beam, max_len=max_len,
                                             length_norm=length_norm)
                want, want_score = reference_beam_decode(params, cfg, srcs, beam, max_len,
                                                         length_norm)
                assert toks == want
                assert score == pytest.approx(want_score, abs=1e-9)

    def test_deterministic(self):
        cfg = small_cfg()
        params = init_params(cfg, 14, 0.4)
        a = beam_decode(params, cfg, [4, 5, 6], beam=4)
        b = beam_decode(params, cfg, [4, 5, 6], beam=4)
        assert a[0] == b[0] and a[1] == b[1]

    def test_score_matches_teacher_forced_rescoring(self):
        # re-score the returned tokens step by step; the search's raw
        # log-probability must equal the independent re-computation
        cfg = small_cfg(hidden=6)
        for seed in (15, 16, 17):
            params = init_params(cfg, seed, 0.5)
            src = [4, 5, 6, 7]
            toks, score, _ = beam_decode(params, cfg, src, beam=4,
                                         length_norm=False)
            sess = DecodeSession(params, cfg, [(src,)])
            states, htilde = sess.initial()
            total = 0.0
            prev = BOS
            for t in toks + [EOS]:
                states, htilde, logp, _ = sess.step(states, htilde, np.array([prev]))
                total += float(logp[0][t])
                prev = t
            assert score == pytest.approx(total, abs=1e-9)

    def test_length_cap_respected(self):
        cfg = small_cfg()
        params = init_params(cfg, 16, 0.4)
        toks, _, _ = beam_decode(params, cfg, [4, 5, 6], beam=2, max_len=3)
        assert len(toks) <= 3

    def test_never_emits_pad_or_bos(self):
        cfg = small_cfg()
        for seed in range(5):
            params = init_params(cfg, seed, 0.5)
            toks, _, _ = beam_decode(params, cfg, [4, 5, 6, 7], beam=3)
            assert BOS not in toks and 0 not in toks and EOS not in toks

    def test_traces_one_per_token_per_source(self):
        cfg = small_cfg("multi-childsum")
        params = init_params(cfg, 17, 0.4)
        toks, _, traces = beam_decode(params, cfg, [4, 5, 6], [7, 8], beam=2)
        assert len(traces) >= len(toks)
        for per_source in traces:
            assert len(per_source) == 2

    def test_no_attention_no_traces(self):
        cfg = small_cfg(attention="none")
        params = init_params(cfg, 18, 0.4)
        _, _, traces = beam_decode(params, cfg, [4, 5, 6], beam=2)
        for per_source in traces:
            assert per_source == []


A, B = 4, 5                          # the two real target types of ScriptedSession


class ScriptedSession:
    """A DecodeSession whose log-probabilities are fixed per sentence and
    previous token.  A sentence's script is picked by its first source id;
    it maps the previous token to {token: log-probability}, and every other
    token gets -20.  It records the rows of every step."""

    SCRIPTS = {
        # after <s>, </s> at -1.0 is the best finished rank for a while; "a"
        # (-1.5) averages less, yet "a </s>" ranks -1.55 / 2 = -0.775
        4: {BOS: {EOS: -1.0, A: -1.5}, A: {EOS: -0.05, A: -1.0}},
        # "b" stays ahead of every finished hypothesis up to the cap
        5: {BOS: {EOS: -5.0, B: -0.1}, B: {EOS: -5.0, B: -0.1}},
    }
    stepped = []

    def __init__(self, params, config, sentences, width=1):
        self.script = np.repeat([srcs[0][0] for srcs in sentences], width)

    def initial(self):
        rows = len(self.script)
        return [(np.zeros((rows, 1)), np.zeros((rows, 1)))], np.zeros((rows, 1))

    def keep_rows(self, rows):
        self.script = self.script[rows]

    def step(self, states, htilde, tokens):
        assert len(tokens) == len(self.script)
        self.stepped.append(len(tokens))
        logp = np.full((len(tokens), 6), -20.0)
        for r, (key, prev) in enumerate(zip(self.script, tokens)):
            for tok, lp in self.SCRIPTS[key].get(prev, {}).items():
                logp[r, tok] = lp
        return states, htilde, logp, []


class TestStopRule:
    CFG = small_cfg(vocab=6)

    @pytest.mark.parametrize("length_norm,want,closes", [
        # sentence "a": closes once -0.775 >= its best live score / cap
        # 10, (-1.5 - 7) / 10, after step 8 of 10
        (True, [([A], -0.775), ([B] * 9, -5.9 / 10)], 8),
        # without length normalisation, "</s>" at -1.0 beats the live "a"
        # (-1.5) at once; "b"'s live score never falls to its "</s>" (-5.0)
        (False, [([], -1.0), ([], -5.0)], 1),
    ])
    def test_closes_at_the_first_step_the_bound_allows(self, monkeypatch, length_norm,
                                                       want, closes):
        monkeypatch.setattr(decoding, "DecodeSession", ScriptedSession)
        monkeypatch.setattr(ScriptedSession, "stepped", [])
        sentences = [([4],), ([5],)]
        results, steps, rows = decoding.beam_search(None, self.CFG, sentences, beam=2,
                                                    max_len=10, length_norm=length_norm)
        for (toks, score, _), (want_toks, want_score), srcs in zip(results, want, sentences):
            ref_toks, ref_score = reference_beam_decode(None, self.CFG, srcs, 2, 10,
                                                        length_norm, ScriptedSession)
            assert toks == ref_toks == want_toks
            assert score == pytest.approx(ref_score, abs=1e-12)
            assert score == pytest.approx(want_score, abs=1e-12)
        # both sentences' two rows until "a" closes, then "b"'s alone to the cap
        assert ScriptedSession.stepped[:steps] == [4] * closes + [2] * (10 - closes)
        assert (steps, rows) == (10, 4 * closes + 2 * (10 - closes))


class TestDecodeSession:
    SENTENCES = [(s, s[::-1][:2]) for s in ([4 + k % 8] * (1 + k % 7) for k in range(20))]

    @pytest.mark.parametrize("attention", ["none", "local-p"])
    def test_slices_match_encoding_each_slice(self, attention):
        cfg = small_cfg("multi-childsum", attention=attention)
        params = init_params(cfg, 25, 0.5)
        width = 3
        sess = DecodeSession(params, cfg, self.SENTENCES, width)
        for start in (0, M.ENCODE_SLICE):
            part = self.SENTENCES[start:start + M.ENCODE_SLICE]
            padded = [M.pad_ids([srcs[k] for srcs in part]) for k in range(2)]
            init, tops, _, _ = M._encode_sources(params, cfg, [p[:2] for p in padded])
            rows = np.arange(start * width, (start + len(part)) * width)
            for (h, c), (h0, c0) in zip(sess.init_states, init):
                assert np.array_equal(h[rows], np.repeat(h0, width, axis=0))
                assert np.array_equal(c[rows], np.repeat(c0, width, axis=0))
            for (all_tops, lens), top, (_, _, want_lens) in zip(sess.sources, tops, padded):
                assert np.array_equal(all_tops[rows, :top.shape[1]],
                                      np.repeat(top, width, axis=0))
                assert np.array_equal(lens[rows], np.repeat(want_lens, width))
        # without attention no source states are kept, so none are copied
        assert len(sess.sources) == (2 if attention == "local-p" else 0)
        sess.keep_rows(np.array([0, 3, 5]))
        assert [len(lens) for _, lens in sess.sources] == [3] * len(sess.sources)


class TestTranslateFile:
    def _vocab(self):
        return Vocabulary(RESERVED + [f"w{k}" for k in range(8)])

    def test_line_counts_and_blank_passthrough(self, tmp_path):
        cfg = small_cfg()
        params = init_params(cfg, 19, 0.4)
        v = self._vocab()
        src = tmp_path / "src"
        src.write_text("w1 w2 w3\n\nw4 w5\n", encoding="utf-8")
        out = tmp_path / "out"
        translate_file(params, cfg, [str(src)], str(out), ([v], v), beam=2)
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 4 and lines[3] == ""
        assert lines[1] == ""  # blank input stays blank

    def test_only_blank_lines(self, tmp_path):
        cfg = small_cfg()
        v = self._vocab()
        src = tmp_path / "src"
        src.write_text("\n  \n\n", encoding="utf-8")
        out, att = tmp_path / "out", tmp_path / "att.tsv"
        stats = translate_file(init_params(cfg, 19, 0.4), cfg, [str(src)], str(out), ([v], v),
                               beam=2, dump_attention=str(att))
        assert stats["sentences"] == 0
        assert out.read_text(encoding="utf-8") == "\n\n\n"
        assert att.read_text(encoding="utf-8").count("\n") == 1

    def test_attention_dump_schema(self, tmp_path):
        cfg = small_cfg("multi-basic")
        params = init_params(cfg, 20, 0.4)
        v = self._vocab()
        s1 = tmp_path / "s1"
        s1.write_text("w1 w2 w3\n", encoding="utf-8")
        s2 = tmp_path / "s2"
        s2.write_text("w4 w5\n", encoding="utf-8")
        out = tmp_path / "out"
        att = tmp_path / "att.tsv"
        translate_file(params, cfg, [str(s1), str(s2)], str(out), ([v, v], v),
                       beam=1, dump_attention=str(att))
        rows = att.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "sentence\ttarget_pos\tencoder_id\tsource_pos\tweight"
        encs = set()
        for r in rows[1:]:
            sent, tpos, enc, spos, w = r.split("\t")
            assert sent == "0"
            encs.add(enc)
            lim = 3 if enc == "0" else 2
            assert 0 <= int(spos) < lim
            assert 0.0 <= float(w) <= 1.0
        assert encs == {"0", "1"}

    def _reverse_length_files(self, tmp_path):
        """20 lines, 20 tokens down to 1: two chunks, in reverse length order."""
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        s1.write_text("".join(" ".join(f"w{k % 8}" for k in range(n)) + "\n"
                              for n in range(20, 0, -1)), encoding="utf-8")
        s2.write_text("w3 w1\n" * 20, encoding="utf-8")
        return [str(s1), str(s2)]

    def test_rows_are_the_rows_stepped(self, tmp_path, monkeypatch):
        cfg = small_cfg("multi-basic")
        params = init_params(cfg, 23, 0.5)
        v = self._vocab()
        seen = []
        step = M.DecodeSession.step

        def counting_step(sess, states, htilde, tokens):
            seen.append(len(tokens))
            return step(sess, states, htilde, tokens)

        monkeypatch.setattr(M.DecodeSession, "step", counting_step)
        stats = translate_file(params, cfg, self._reverse_length_files(tmp_path),
                               str(tmp_path / "out"), ([v, v], v), beam=4)
        assert stats["rows"] == sum(seen) and stats["steps"] == len(seen)
        # one chunk: 20 sentences fit in ROWS // 4; closed sentences' rows drop
        assert max(seen) == 20 * 4 <= decoding.ROWS and min(seen) < 4 * 4

    def test_encoder_slices_stay_small_while_steps_fill(self, tmp_path, monkeypatch):
        """Greedy decoding steps many rows at once, but the encoder never
        sees more than ENCODE_SLICE sentences in one call."""
        cfg = small_cfg()
        params = init_params(cfg, 24, 0.5)
        v = self._vocab()
        src = tmp_path / "src"
        src.write_text("".join(" ".join(f"w{(k + n) % 8}" for k in range(1 + n % 9)) + "\n"
                               for n in range(40)), encoding="utf-8")
        encoded, stepped = [], []
        encode, step = M.rec_mod.encode_batch, M.DecodeSession.step

        def counting_encode(ids, *args, **kwargs):
            encoded.append(len(ids))
            return encode(ids, *args, **kwargs)

        def counting_step(sess, states, htilde, tokens):
            stepped.append(len(tokens))
            return step(sess, states, htilde, tokens)

        monkeypatch.setattr(M.rec_mod, "encode_batch", counting_encode)
        monkeypatch.setattr(M.DecodeSession, "step", counting_step)
        translate_file(params, cfg, [str(src)], str(tmp_path / "out"), ([v], v), beam=1)
        assert encoded == [M.ENCODE_SLICE, M.ENCODE_SLICE, 8]
        assert max(stepped) == 40 > M.ENCODE_SLICE

    def test_outputs_in_input_order(self, tmp_path):
        cfg = small_cfg("multi-basic")
        params = init_params(cfg, 23, 0.5)
        v = self._vocab()
        paths = self._reverse_length_files(tmp_path)
        out, att = tmp_path / "out", tmp_path / "att.tsv"
        translate_file(params, cfg, paths, str(out), ([v, v], v), beam=4,
                       dump_attention=str(att))
        hyps = out.read_text(encoding="utf-8").splitlines()
        rows = [r.split("\t") for r in att.read_text(encoding="utf-8").splitlines()[1:]]
        sentences = [int(r[0]) for r in rows]
        assert sentences == sorted(sentences) and set(sentences) == set(range(20))
        lines = zip(*(Path(p).read_text(encoding="utf-8").splitlines() for p in paths))
        for i, (hyp, srcs) in enumerate(zip(hyps, lines)):
            toks, _, traces = beam_decode(params, cfg, *(encode_line(l, v, reverse=True)
                                                    for l in srcs), beam=4)
            assert hyp == " ".join(decode_ids(toks, v))
            assert len({r[1] for r in rows if r[0] == str(i)}) == len(traces)

    @pytest.mark.parametrize("beam, max_len", [(0, None), (2, 0)])
    def test_bad_beam_or_cap_refused_before_any_file(self, tmp_path, beam, max_len):
        cfg = small_cfg()
        v = self._vocab()
        src = tmp_path / "src"
        src.write_text("w1 w2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            translate_file(ModelParams(cfg), cfg, [str(src)], str(tmp_path / "out"), ([v], v),
                           beam=beam, max_len=max_len)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, n_files", [("single", 2), ("multi-basic", 1)])
    def test_source_file_count_refused_before_any_file(self, tmp_path, mode, n_files):
        cfg = small_cfg(mode)
        v = self._vocab()
        paths = [tmp_path / f"src{k}" for k in range(n_files)]
        for path in paths:
            path.write_text("w1 w2\n\n", encoding="utf-8")
        with pytest.raises(CompatibilityError, match=f"{n_files} source file"):
            translate_file(ModelParams(cfg), cfg, list(map(str, paths)), str(tmp_path / "out"),
                           ([v] * cfg.n_sources, v))
        assert not (tmp_path / "out").exists()

    def test_misaligned_sources(self, tmp_path):
        cfg = small_cfg("multi-basic")
        params = ModelParams(cfg)
        v = self._vocab()
        s1 = tmp_path / "s1"
        s1.write_text("w1\nw2\n", encoding="utf-8")
        s2 = tmp_path / "s2"
        s2.write_text("w1\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            translate_file(params, cfg, [str(s1), str(s2)],
                           str(tmp_path / "out"), ([v, v], v))


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "decode")


def _tsv_rows(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        return header, [(tuple(r[:4]), float(r[4]))
                        for r in (line.rstrip("\n").split("\t") for line in f)]


class TestDecodeFixture:
    """A small trained multi-basic local-p checkpoint (hidden 8, window 2,
    sources of 1-12 tokens and one blank line).  The expected hypotheses and
    attention dumps were written by the per-example attention code this
    batched routine replaced."""

    @pytest.mark.parametrize("beam", [1, 4])
    def test_outputs_match_recorded(self, tmp_path, beam):
        config, params, meta = M.load_checkpoint(os.path.join(FIXTURE, "model.ckpt"))
        vocabs = ([Vocabulary(t) for t in meta["src"]], Vocabulary(meta["tgt"]))
        out, tsv = tmp_path / "hyp.txt", tmp_path / "align.tsv"
        translate_file(params, config,
                       [os.path.join(FIXTURE, "src1.txt"), os.path.join(FIXTURE, "src2.txt")],
                       str(out), vocabs, beam=beam, dump_attention=str(tsv))
        with open(os.path.join(FIXTURE, f"hyp.beam{beam}.txt"), encoding="utf-8") as f:
            assert out.read_text(encoding="utf-8") == f.read()
        want_header, want = _tsv_rows(os.path.join(FIXTURE, f"align.beam{beam}.tsv"))
        got_header, got = _tsv_rows(str(tsv))
        assert got_header == want_header
        assert [k for k, _ in got] == [k for k, _ in want]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= 1e-6


class TestWorkerDecoding:
    """With several chunks and several usable CPUs, translate_file decodes
    its chunks in forked worker processes; it must write what the serial
    path writes."""

    FILES = [os.path.join(FIXTURE, "src1.txt"), os.path.join(FIXTURE, "src2.txt")]

    def _translate(self, tmp_path, tag, beam):
        config, params, meta = M.load_checkpoint(os.path.join(FIXTURE, "model.ckpt"))
        vocabs = ([Vocabulary(t) for t in meta["src"]], Vocabulary(meta["tgt"]))
        out, tsv = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.tsv"
        stats = translate_file(params, config, self.FILES, str(out), vocabs, beam=beam,
                               dump_attention=str(tsv))
        return out.read_bytes(), tsv.read_bytes(), stats

    @pytest.mark.parametrize("beam", [1, 4])
    def test_workers_write_what_the_serial_path_writes(self, tmp_path, monkeypatch, beam):
        # 12 decoded lines: 3 chunks of 4 at beam 1, 12 chunks of 1 at beam 4
        monkeypatch.setattr(decoding, "ROWS", 4)
        pids = tmp_path / "pids"
        decode_chunk = decoding._decode_chunk

        def recording(job, chunk):
            with open(pids, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            return decode_chunk(job, chunk)

        monkeypatch.setattr(decoding, "_decode_chunk", recording)
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: 2)
        in_workers = self._translate(tmp_path, "workers", beam)
        worker_pids = set(pids.read_text(encoding="utf-8").split())
        pids.unlink()
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: 1)
        serial = self._translate(tmp_path, "serial", beam)
        assert set(pids.read_text(encoding="utf-8").split()) == {str(os.getpid())}
        assert str(os.getpid()) not in worker_pids and len(worker_pids) <= 2
        assert in_workers == serial
        assert in_workers[2]["sentences"] == 12

    @pytest.mark.parametrize("rows, cpus", [(4, 1), (128, 2)], ids=["one-cpu", "one-chunk"])
    def test_serial_cases_fork_nothing(self, tmp_path, monkeypatch, rows, cpus):
        monkeypatch.setattr(decoding, "ROWS", rows)
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        hyp, _tsv, _stats = self._translate(tmp_path, "serial", 1)
        with open(os.path.join(FIXTURE, "hyp.beam1.txt"), "rb") as f:
            assert hyp == f.read()

    @pytest.mark.parametrize("refused", [1, 2])
    def test_refused_fork_decodes_in_process(self, tmp_path, monkeypatch, refused):
        # the first or the second worker cannot be started (EAGAIN, as
        # under a process limit); a worker already started must not be left
        # behind, and the output is the serial path's
        forks, fork = [], os.fork

        def limited():
            forks.append(1)
            if len(forks) == refused:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(decoding, "ROWS", 4)
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", limited)
        hyp, _tsv, _stats = self._translate(tmp_path, "refused", 1)
        with open(os.path.join(FIXTURE, "hyp.beam1.txt"), "rb") as f:
            assert hyp == f.read()
        assert len(forks) == refused

    def test_dead_worker_raises_promptly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(decoding, "ROWS", 4)
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(decoding, "_decode_chunk", lambda job, chunk: os._exit(9))
        t0 = time.perf_counter()
        with pytest.raises(WorkerError, match="worker process died") as e:
            self._translate(tmp_path, "dead", 1)
        assert time.perf_counter() - t0 < 30
        assert e.value.exit_code == 2


class TestChunkedDecoding:
    """translate_file decodes max(1, ROWS // beam) sentences at a time; the
    result must be the one it gives one sentence at a time.  Rows of a BLAS
    product can differ in the last bits with the number of rows, so
    attention weights are compared to 1e-6."""

    # 20 non-blank lines of 1-12 tokens (so the default caps differ within a
    # chunk; at beam 8 the second chunk holds 4, and at beams 1 and 4 the one
    # chunk is encoded in slices of 16 and 4), with blank lines in the middle
    LENGTHS = [3, 1, 12, 5, 2, 9, 7, 4, 11, 6, 1, 8, 10, 3, 2, 12, 5, 4, 9, 6]

    def _files(self, tmp_path, n_sources):
        rng = np.random.default_rng(0)
        paths = [tmp_path / f"src{k}.txt" for k in range(n_sources)]
        rows = [[" ".join(f"w{int(t)}" for t in rng.integers(0, 8, size=n))
                 for n in self.LENGTHS] for _ in paths]
        rows[0].insert(4, "")            # blank in every source
        for r in rows[1:]:
            r.insert(4, "")
        rows[-1].insert(17, "")          # blank in the last source only
        for r in rows[:-1]:
            r.insert(17, "w1 w2")
        for p, r in zip(paths, rows):
            p.write_text("\n".join(r) + "\n", encoding="utf-8")
        return [str(p) for p in paths]

    def _translate(self, tmp_path, tag, *args, **kwargs):
        out, tsv = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.tsv"
        translate_file(*args, out_path=str(out), dump_attention=str(tsv), **kwargs)
        return out.read_text(encoding="utf-8"), _tsv_rows(str(tsv))

    @pytest.mark.parametrize("beam", [1, 4, 8])
    @pytest.mark.parametrize("attention", ["none", "local-p"])
    @pytest.mark.parametrize("mode", ["single", "multi-basic", "multi-childsum"])
    def test_chunks_match_one_sentence_at_a_time(self, tmp_path, monkeypatch,
                                                 mode, attention, beam):
        n = 1 if mode == "single" else 2
        src_vocab = Vocabulary(RESERVED + [f"w{k}" for k in range(8)])
        paths = self._files(tmp_path, n)
        # default caps with 12 target types; a fixed cap with 5 types, fewer
        # than beam + 2 at beams 4 and 8, so some candidates are -inf
        for tgt_types, max_len in ((12, None), (5, 6)):
            tgt_vocab = Vocabulary(RESERVED + [f"t{k}" for k in range(tgt_types - 4)])
            cfg = ModelConfig(mode=mode, attention=attention, layers=2, hidden=8,
                              src_vocab_sizes=(len(src_vocab),) * n,
                              tgt_vocab_size=tgt_types, window=2)
            params = init_params(cfg, 21, 0.5)
            args = (params, cfg, paths)
            kw = dict(vocabs=([src_vocab] * n, tgt_vocab), beam=beam, max_len=max_len)
            hyp, (header, rows) = self._translate(tmp_path, "chunked", *args, **kw)
            monkeypatch.setattr(decoding, "ROWS", 1)
            want_hyp, (want_header, want_rows) = self._translate(tmp_path, "single", *args, **kw)
            monkeypatch.undo()
            lines = hyp.split("\n")
            assert len(lines) == len(self.LENGTHS) + 3 and lines[4] == lines[17] == ""
            assert hyp == want_hyp
            assert header == want_header
            assert [k for k, _ in rows] == [k for k, _ in want_rows]
            assert all(abs(a - b) <= 1e-6 for (_, a), (_, b) in zip(rows, want_rows))
            assert (rows == []) == (attention == "none")
