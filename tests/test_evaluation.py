import math
import random

import pytest

from msnmt.errors import AlignmentError, ConfigError
from msnmt.evaluation import bleu, modified_precision, score_files


class TestModifiedPrecision:
    def test_clipping_classic(self):
        # "the the the the the the the" vs "the cat sat on the mat":
        # "the" appears twice in the reference, so matches clip at 2/7
        hyp = ["the"] * 7
        ref = "the cat sat on the mat".split()
        m, t = modified_precision([hyp], [ref], 1)
        assert (m, t) == (2, 7)

    def test_identical_all_match(self):
        toks = "a b c d e".split()
        for n in range(1, 5):
            m, t = modified_precision([toks], [toks], n)
            assert m == t == len(toks) - n + 1

    def test_disjoint_zero(self):
        m, t = modified_precision([["x", "y"]], [["a", "b"]], 1)
        assert (m, t) == (0, 2)

    def test_corpus_level_sums_over_segments(self):
        h1, r1 = ["a", "b"], ["a", "x"]
        h2, r2 = ["c"], ["c"]
        m, t = modified_precision([h1, h2], [r1, r2], 1)
        assert (m, t) == (2, 3)

    def test_bigram_window(self):
        m, t = modified_precision([["a", "b", "c"]], [["a", "b", "x"]], 2)
        assert (m, t) == (1, 2)


class TestBleu:
    def test_identity_is_100(self):
        segs = [s.split() for s in ["a b c d e", "f g h i j k"]]
        rep = bleu(segs, segs)
        assert rep.bleu == pytest.approx(100.0, abs=1e-9)
        assert rep.precisions == (1.0, 1.0, 1.0, 1.0)
        assert rep.brevity_penalty == 1.0

    def test_hand_computed_fixture(self):
        # p1=6/7, p2=4/6, p3=2/5, p4=1/4, BP=1
        hyp = "a b c d x f g".split()
        ref = "a b c d e f g".split()
        rep = bleu([hyp], [ref])
        assert rep.precisions == pytest.approx((6 / 7, 4 / 6, 2 / 5, 1 / 4))
        want = 100 * math.exp(sum(math.log(p) for p in
                                  (6 / 7, 4 / 6, 2 / 5, 1 / 4)) / 4)
        assert rep.bleu == pytest.approx(want, abs=1e-9)
        assert rep.bleu == pytest.approx(48.89, abs=0.01)

    def test_zero_four_gram_gives_zero(self):
        rep = bleu([["a", "b", "c", "d"]], [["a", "x", "c", "y"]])
        assert rep.precisions[3] == 0.0
        assert rep.bleu == 0.0

    def test_brevity_penalty_applied(self):
        # hyp 4 tokens, ref 8: BP = exp(1 - 8/4) = e^-1
        hyp = "a b c d".split()
        ref = "a b c d e f g h".split()
        rep = bleu([hyp], [ref])
        assert rep.brevity_penalty == pytest.approx(math.exp(-1), abs=1e-12)
        assert rep.bleu == pytest.approx(100 * math.exp(-1), abs=1e-9)

    def test_no_penalty_when_longer(self):
        hyp = "a b c d e f".split()
        ref = "a b c d e".split()
        assert bleu([hyp], [ref]).brevity_penalty == 1.0

    def test_segment_permutation_invariant(self):
        pairs = [("a b c d", "a b c d"), ("e f g h i", "e f x h i"),
                 ("j k l m n o", "j k l y n o")]
        hyps = [h.split() for h, _ in pairs]
        refs = [r.split() for _, r in pairs]
        base = bleu(hyps, refs).bleu
        rng = random.Random(0)
        for _ in range(5):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            got = bleu([hyps[i] for i in order], [refs[i] for i in order]).bleu
            assert got == pytest.approx(base, abs=1e-12)

    def test_corpus_not_mean_of_segments(self):
        # corpus BLEU pools counts; check it differs from averaging
        h1, r1 = "a b c d".split(), "a b c d".split()
        h2, r2 = "x y z w".split(), "p q r s".split()
        rep = bleu([h1, h2], [r1, r2])
        assert rep.precisions[0] == pytest.approx(4 / 8)

    def test_case_sensitive(self):
        rep = bleu([["The", "cat", "sat", "mat"]], [["the", "cat", "sat", "mat"]])
        assert rep.precisions[0] == pytest.approx(3 / 4)

    def test_empty_hypotheses_rejected(self):
        with pytest.raises(ConfigError):
            bleu([[]], [["a"]])


class TestScoreFiles:
    def test_matches_in_memory(self, tmp_path):
        hyp = tmp_path / "hyp"
        ref = tmp_path / "ref"
        hyp.write_text("a b c d x f g\n", encoding="utf-8")
        ref.write_text("a b c d e f g\n", encoding="utf-8")
        rep = score_files(str(hyp), str(ref))
        assert rep.bleu == pytest.approx(48.89, abs=0.01)

    def test_format_string(self, tmp_path):
        hyp = tmp_path / "hyp"
        ref = tmp_path / "ref"
        hyp.write_text("a b c d\n", encoding="utf-8")
        ref.write_text("a b c d\n", encoding="utf-8")
        s = score_files(str(hyp), str(ref)).format()
        assert s == ("BLEU = 100.00, 100.0/100.0/100.0/100.0 "
                     "(BP=1.000, ratio=1.000, hyp_len=4, ref_len=4)")

    def test_line_count_mismatch(self, tmp_path):
        hyp = tmp_path / "hyp"
        ref = tmp_path / "ref"
        hyp.write_text("a\nb\n", encoding="utf-8")
        ref.write_text("a\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            score_files(str(hyp), str(ref))
