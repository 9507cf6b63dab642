"""End-to-end acceptance suite.

Each test prints a single CRITERION line so the pass/fail status of every
criterion is visible at a glance (run with -s or check captured output on
failure).  The expensive training runs are session-scoped fixtures so each
configuration is trained exactly once.
"""

import json
import math
import os

import numpy as np
import pytest

from msnmt import gradcheck as gc
from msnmt import synth
from msnmt.data import build_vocab, encode_line, encode_tuples
from msnmt.evaluation import bleu, score_files
from msnmt.model import ModelConfig
from msnmt.trainer import TrainConfig, clip_rescale, lr_at, train
from one_example import beam_decode, multi_attend
from recipe import train_config

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def train_on_lines(line_tuples, mode, attention, hidden, layers, train_cfg,
                   out_dir, window=10):
    """Build vocabularies from raw token lines, encode, train; returns
    (params, config, src_vocabs, tgt_vocab, report)."""
    n_src = len(line_tuples[0]) - 1
    src_vocabs = [build_vocab((t[k] for t in line_tuples), train_cfg.vocab_size)
                  for k in range(n_src)]
    tgt_vocab = build_vocab((t[-1] for t in line_tuples), train_cfg.vocab_size)
    cfg = ModelConfig(mode=mode, attention=attention, layers=layers,
                      hidden=hidden,
                      src_vocab_sizes=tuple(len(v) for v in src_vocabs),
                      tgt_vocab_size=len(tgt_vocab), window=window,
                      dropout=train_cfg.dropout)
    enc = encode_tuples(line_tuples, src_vocabs, tgt_vocab)
    rep, params = train(cfg, train_cfg, enc, enc[:min(64, len(enc))], out_dir)
    return params, cfg, src_vocabs, tgt_vocab, rep


def decode_lines(params, cfg, src_vocabs, tgt_vocab, rows, beam=1):
    """rows: list of source-line tuples; returns hypothesis token lists."""
    out = []
    for row in rows:
        ids = [encode_line(r, v, reverse=True) for r, v in zip(row, src_vocabs)]
        src2 = ids[1] if len(ids) == 2 else None
        toks, _, _ = beam_decode(params, cfg, ids[0], src2, beam=beam)
        out.append([tgt_vocab.token_of(t) for t in toks])
    return out


def token_accuracy(hyps, refs):
    """Positional token match rate over all reference tokens."""
    hit, total = 0, 0
    for h, r in zip(hyps, refs):
        total += len(r)
        hit += sum(1 for a, b in zip(h, r) if a == b)
    return hit / total


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def copy500():
    """Criterion 4/9 corpus: 500 copy lines, vocab 50."""
    lines = synth.generate_copy(500, 50, seed=3)
    return [(l, l) for l in lines]


COPY_TRAIN_CFG = dict(epochs=30, lr0=0.5, halve_after_epoch=20, batch_size=16,
                      dropout=0.0, init_range=0.5, seed=3, max_len=50, vocab_size=60)


@pytest.fixture(scope="session")
def copy_run(copy500, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("copy-a"))
    cfg = TrainConfig(**COPY_TRAIN_CFG)
    params, mcfg, sv, tv, rep = train_on_lines(
        copy500, "single", "local-p", hidden=64, layers=2,
        train_cfg=cfg, out_dir=out)
    return params, mcfg, sv, tv, rep, out


@pytest.fixture(scope="session")
def triangulate_data():
    s1, s2, tg = synth.generate_triangulate(2200, 10, seed=5)
    tuples = list(zip(s1, s2, tg))
    return tuples[:2000], tuples[2000:]


@pytest.fixture(scope="session")
def triangulate_runs(triangulate_data, tmp_path_factory):
    train_tuples, test_tuples = triangulate_data
    cfg = TrainConfig(epochs=10, lr0=0.5, halve_after_epoch=7, batch_size=16,
                      dropout=0.0, init_range=0.5, seed=5, max_len=50, vocab_size=60)
    runs = {}
    for mode in ("single", "multi-basic", "multi-childsum"):
        data = train_tuples if mode != "single" else [(a, t) for a, _, t in train_tuples]
        out = str(tmp_path_factory.mktemp(f"tri-{mode}"))
        runs[mode] = train_on_lines(data, mode, "local-p", hidden=64, layers=2,
                                    train_cfg=cfg, out_dir=out)
    return runs, test_tuples


@pytest.fixture(scope="session")
def copy2000():
    train_lines = synth.generate_copy(2000, 50, seed=3)
    test_lines = synth.generate_copy(200, 50, seed=31)
    return [(l, l) for l in train_lines], test_lines


@pytest.fixture(scope="session")
def null_control_runs(copy2000, tmp_path_factory):
    """Single-source vs duplicated-source multi on the same copy corpus."""
    train_tuples, _ = copy2000
    cfg = TrainConfig(epochs=12, lr0=0.5, halve_after_epoch=8, batch_size=16,
                      dropout=0.2, init_range=0.5, seed=3, max_len=50, vocab_size=60)
    out_s = str(tmp_path_factory.mktemp("null-single"))
    single = train_on_lines(train_tuples, "single", "local-p", 64, 2, cfg, out_s)
    dup = [(s, s, t) for s, t in train_tuples]
    out_m = str(tmp_path_factory.mktemp("null-multi"))
    multi = train_on_lines(dup, "multi-basic", "local-p", 64, 2, cfg, out_m)
    return single, multi


# --------------------------------------------------------------- criteria

class TestCriterion1GradientFidelity:
    def test_all_modes(self):
        import time
        t0 = time.monotonic()
        worst_overall = 0.0
        details = []
        for mode, att in [("single", "none"), ("single", "local-p"),
                          ("multi-basic", "local-p"),
                          ("multi-childsum", "local-p")]:
            _, name, worst, ok = gc.run_gradcheck(
                mode, att, layers=2, hidden=8, vocab=20, time_steps=5,
                epsilon=1e-5)
            worst_overall = max(worst_overall, worst)
            details.append(f"{mode}/{att}: {worst:.2e}")
            assert ok, f"{mode}/{att} worst {worst:.3e} on {name}"
        elapsed = time.monotonic() - t0
        report(1, worst_overall < 1e-4 and elapsed < 120,
               f"max rel err {worst_overall:.2e} (< 1e-4), {elapsed:.0f}s "
               f"(< 120s); " + "; ".join(details))


class TestCriterion2CombinerOracles:
    def test_oracles(self):
        from msnmt.combiner import (BasicCombinerParams,
                                    ChildSumCombinerParams, basic_combine,
                                    childsum_combine)
        from msnmt.numerics import Parameter, sigmoid

        # d=1 hand oracle, basic: h = tanh(w1*h1 + w2*h2), c = c1 + c2
        p1 = BasicCombinerParams(w_c=Parameter("w", np.array([[0.3, -0.7]])))
        h, c, _ = basic_combine(np.array([[0.4]]), np.array([[0.2]]),
                                np.array([[-0.1]]), np.array([[0.5]]), p1)
        ok = abs(h[0, 0] - math.tanh(0.3 * 0.4 + (-0.7) * (-0.1))) < 1e-12
        ok &= abs(c[0, 0] - 0.7) < 1e-12

        # d=2 scalar oracle, basic
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, (2, 4))
        h1, c1, h2, c2 = (rng.uniform(-1, 1, (1, 2)) for _ in range(4))
        hh, cc, _ = basic_combine(h1, c1, h2, c2,
                                  BasicCombinerParams(w_c=Parameter("w", w)))
        for i in range(2):
            z = sum(w[i, j] * h1[0, j] for j in range(2)) \
                + sum(w[i, 2 + j] * h2[0, j] for j in range(2))
            ok &= abs(hh[0, i] - math.tanh(z)) < 1e-12
            ok &= abs(cc[0, i] - (c1[0, i] + c2[0, i])) < 1e-12

        # d=1 scalar oracle, child-sum
        names = ("w1_i", "w2_i", "w1_f", "w2_f", "w1_o", "w2_o", "w1_u", "w2_u")
        vals = dict(zip(names, rng.uniform(-1, 1, 8)))
        pcs = ChildSumCombinerParams(
            **{n: Parameter(n, np.array([[v]])) for n, v in vals.items()})
        a, b = 0.3, -0.6
        ca, cb = 0.4, 0.9
        hh, cc, _ = childsum_combine(np.array([[a]]), np.array([[ca]]),
                                     np.array([[b]]), np.array([[cb]]), pcs)
        i_ = sigmoid(vals["w1_i"] * a + vals["w2_i"] * b)
        f1 = sigmoid(vals["w1_f"] * a)
        f2 = sigmoid(vals["w2_f"] * b)
        o_ = sigmoid(vals["w1_o"] * a + vals["w2_o"] * b)
        u_ = math.tanh(vals["w1_u"] * a + vals["w2_u"] * b)
        c_ = i_ * u_ + f1 * ca + f2 * cb
        ok &= abs(cc[0, 0] - c_) < 1e-12
        ok &= abs(hh[0, 0] - o_ * math.tanh(c_)) < 1e-12

        # exact swap symmetry (child-sum) and cell commutativity (basic)
        d = 3
        pc = ChildSumCombinerParams(
            **{n: Parameter(n, rng.uniform(-1, 1, (d, d))) for n in names})
        swapped = ChildSumCombinerParams(
            w1_i=pc.w2_i, w2_i=pc.w1_i, w1_f=pc.w2_f, w2_f=pc.w1_f,
            w1_o=pc.w2_o, w2_o=pc.w1_o, w1_u=pc.w2_u, w2_u=pc.w1_u)
        s1 = (rng.uniform(-1, 1, (1, d)), rng.uniform(-1, 1, (1, d)))
        s2 = (rng.uniform(-1, 1, (1, d)), rng.uniform(-1, 1, (1, d)))
        ha, ca_, _ = childsum_combine(*s1, *s2, pc)
        hb, cb_, _ = childsum_combine(*s2, *s1, swapped)
        ok &= np.array_equal(ha, hb) and np.array_equal(ca_, cb_)

        pb = BasicCombinerParams(w_c=Parameter("w", rng.uniform(-1, 1, (d, 2 * d))))
        _, cx, _ = basic_combine(*s1, *s2, pb)
        _, cy, _ = basic_combine(*s2, *s1, pb)
        ok &= np.array_equal(cx, cy)

        report(2, ok, "hand/scalar oracles to 1e-12; swap symmetry and cell "
                      "commutativity exact")


class TestCriterion3AttentionInvariants:
    def test_invariants(self):
        from msnmt.attention import AttentionParams, attend, attentional_hidden
        from msnmt.numerics import Parameter

        rng = np.random.default_rng(33)
        d = 4
        worst_sum = 0.0
        for _ in range(1000):
            S = int(rng.integers(1, 41))
            D = int(rng.integers(1, 11))
            p = AttentionParams(
                w_p=Parameter("w_p", rng.uniform(-0.7, 0.7, (d, d))),
                v_p=Parameter("v_p", rng.uniform(-0.7, 0.7, (d,))),
                w_a=Parameter("w_a", rng.uniform(-0.7, 0.7, (d, d))))
            h = rng.uniform(-1, 1, d)
            top = rng.uniform(-1, 1, (S, d))
            _, trace, _ = attend(h, top, p, D)
            worst_sum = max(worst_sum, abs(trace.align.sum() - 1.0))
            assert 0.0 < trace.p_t < S
            assert np.all(trace.weights <= trace.align + 1e-15)
        assert worst_sum <= 1e-9

        # dual-source equals two independent single-source passes composed
        # through the shared projection, to 1e-12
        worst_comp = 0.0
        for seed in range(20):
            r = np.random.default_rng(seed)
            p1 = AttentionParams(w_p=Parameter("w_p", r.uniform(-1, 1, (d, d))),
                                 v_p=Parameter("v_p", r.uniform(-1, 1, d)),
                                 w_a=Parameter("w_a", r.uniform(-1, 1, (d, d))))
            p2 = AttentionParams(w_p=Parameter("w_p", r.uniform(-1, 1, (d, d))),
                                 v_p=Parameter("v_p", r.uniform(-1, 1, d)),
                                 w_a=Parameter("w_a", r.uniform(-1, 1, (d, d))))
            proj = Parameter("proj", r.uniform(-1, 1, (d, 3 * d)))
            h = r.uniform(-1, 1, d)
            e1 = r.uniform(-1, 1, (int(r.integers(1, 15)), d))
            e2 = r.uniform(-1, 1, (int(r.integers(1, 15)), d))
            out, _, _ = multi_attend(h, e1, e2, p1, p2, proj, 3)
            c1, _, _ = attend(h, e1, p1, 3)
            c2, _, _ = attend(h, e2, p2, 3)
            want, _ = attentional_hidden(h.reshape(1, -1),
                                         [c1.reshape(1, -1), c2.reshape(1, -1)],
                                         proj)
            worst_comp = max(worst_comp, float(np.max(np.abs(out - want[0]))))
        report(3, worst_sum <= 1e-9 and worst_comp <= 1e-12,
               f"1000 configs: worst align-sum dev {worst_sum:.1e} (<= 1e-9); "
               f"dual-source composition dev {worst_comp:.1e} (<= 1e-12)")


class TestCriterion4OverfitOracle:
    def test_copy_overfit(self, copy500, copy_run):
        import time
        t0 = time.monotonic()
        params, mcfg, sv, tv, rep, _ = copy_run
        train_ppl = math.exp(rep.epochs[-1].train_nll)
        hyps = decode_lines(params, mcfg, sv, tv, [(s,) for s, _ in copy500],
                            beam=1)
        exact = sum(1 for h, (_, t) in zip(hyps, copy500)
                    if " ".join(h) == t)
        rate = exact / len(copy500)
        elapsed = time.monotonic() - t0
        report(4, train_ppl <= 1.2 and rate >= 0.99,
               f"train ppl {train_ppl:.3f} (<= 1.2), exact copy "
               f"{exact}/{len(copy500)} = {rate:.3f} (>= 0.99), "
               f"decode {elapsed:.0f}s")


class TestCriterion5TriangulationBenefit:
    def test_accuracies(self, triangulate_runs):
        runs, test_tuples = triangulate_runs
        refs = [t.split() for _, _, t in test_tuples]
        accs = {}
        for mode, (params, mcfg, sv, tv, _) in runs.items():
            rows = ([(a,) for a, _, _ in test_tuples] if mode == "single"
                    else [(a, b) for a, b, _ in test_tuples])
            hyps = decode_lines(params, mcfg, sv, tv, rows, beam=4)
            accs[mode] = token_accuracy(hyps, refs)
        ok = (accs["multi-basic"] >= 0.95 and accs["single"] <= 0.75
              and accs["multi-childsum"] >= 0.90)
        report(5, ok,
               f"ambiguous-token accuracy: single {accs['single']:.3f} "
               f"(<= 0.75), multi-basic {accs['multi-basic']:.3f} (>= 0.95), "
               f"multi-childsum {accs['multi-childsum']:.3f} (>= 0.90)")


class TestCriterion6DuplicateSourceNull:
    def test_no_gain_from_duplicated_source(self, copy2000, null_control_runs):
        _, test_lines = copy2000
        refs = [l.split() for l in test_lines]
        single, multi = null_control_runs
        scores = {}
        for name, run, rows in [
                ("single", single, [(l,) for l in test_lines]),
                ("dup-multi", multi, [(l, l) for l in test_lines])]:
            params, mcfg, sv, tv, _ = run
            hyps = decode_lines(params, mcfg, sv, tv, rows, beam=4)
            scores[name] = bleu(hyps, refs).bleu
        delta = scores["dup-multi"] - scores["single"]
        report(6, abs(delta) <= 2.0,
               f"copy-task BLEU: single {scores['single']:.2f}, "
               f"duplicated-source multi {scores['dup-multi']:.2f}, "
               f"delta {delta:+.2f} (within ±2)")


class TestCriterion7BleuScorer:
    def test_scorer(self):
        # self-score exactly 100
        segs = [s.split() for s in ["a b c d e", "x y z w v u"]]
        ok = bleu(segs, segs).bleu == 100.0
        # zero 4-gram precision -> 0
        ok &= bleu([["a", "b", "c", "d"]], [["a", "x", "c", "y"]]).bleu == 0.0
        # hand-derived fixture
        hand = bleu(["a b c d x f g".split()], ["a b c d e f g".split()]).bleu
        ok &= abs(hand - 48.89) < 0.1
        # frozen reference-scorer fixtures
        fdir = os.path.join(FIXTURES, "bleu")
        with open(os.path.join(fdir, "expected.json")) as f:
            expected = json.load(f)
        devs = []
        for pair, want in sorted(expected.items()):
            got = score_files(os.path.join(fdir, f"{pair}.hyp"),
                              os.path.join(fdir, f"{pair}.ref")).bleu
            devs.append(f"{pair}: {got:.2f} vs {want:.2f}")
            ok &= abs(got - want) <= 0.01
        report(7, ok, "self-score 100.0; zero 4-gram -> 0.0; hand fixture "
                      f"{hand:.2f} (48.89 ± 0.1); " + "; ".join(devs))


class TestCriterion8ScheduleClipping:
    def test_schedule_and_clipping(self):
        cfg = train_config(epochs=15, lr0=1.0, halve_after_epoch=10)
        lrs = [lr_at(e, cfg) for e in range(1, 16)]
        want = [1.0] * 10 + [0.5, 0.25, 0.125, 0.0625, 0.03125]
        ok = lrs == want

        from msnmt.model import init_params
        mcfg = ModelConfig(mode="single", attention="none", layers=1,
                           hidden=8, src_vocab_sizes=(10,), tgt_vocab_size=10)
        worst = 0.0
        for seed in range(10):
            params = init_params(mcfg, seed, 0.1)
            rng = np.random.default_rng(seed)
            for p in params.all():
                p.grad[...] = rng.uniform(-2, 2, p.grad.shape)
            scale, norm = clip_rescale(params, 5.0)
            if scale < 1.0:
                from msnmt.trainer import global_grad_norm
                worst = max(worst, abs(global_grad_norm(params) - 5.0))
        report(8, ok and worst <= 1e-9,
               f"lr schedule exact; post-clip norm dev {worst:.1e} (<= 1e-9)")


class TestCriterion9Determinism:
    def test_bit_identical_reruns(self, copy500, copy_run, tmp_path_factory):
        _, _, _, _, _, out_a = copy_run
        out_b = str(tmp_path_factory.mktemp("copy-b"))
        cfg = TrainConfig(**COPY_TRAIN_CFG)
        train_on_lines(copy500, "single", "local-p", hidden=64, layers=2,
                       train_cfg=cfg, out_dir=out_b)

        # report.tsv identical except the wall-clock seconds column
        def strip_seconds(path):
            rows = open(path, encoding="utf-8").read().splitlines()
            return ["\t".join(r.split("\t")[:-1]) for r in rows]

        ok = strip_seconds(os.path.join(out_a, "report.tsv")) == \
            strip_seconds(os.path.join(out_b, "report.tsv"))

        n_ck = 0
        for epoch in range(1, COPY_TRAIN_CFG["epochs"] + 1):
            a = os.path.join(out_a, f"checkpoint-epoch{epoch}")
            b = os.path.join(out_b, f"checkpoint-epoch{epoch}")
            with open(a, "rb") as fa, open(b, "rb") as fb:
                ok &= fa.read() == fb.read()
            n_ck += 1
        report(9, ok, f"report.tsv (minus timing) and {n_ck} checkpoints "
                      "bit-identical across two seeded runs")
