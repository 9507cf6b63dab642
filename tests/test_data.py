import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnmt.data import (BOS, EOS, PAD, RESERVED, UNK, Batch, Vocabulary,
                        batchify, build_vocab, decode_ids, encode_line,
                        encode_tuples, load_parallel, make_batch, read_lines)
from msnmt.errors import (AlignmentError, ConfigError, CorpusIOError,
                          VocabularyError)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary(RESERVED + ["cat", "dog"])
        ids = encode_line("<pad> <s> </s> <unk> cat", v, reverse=False)
        assert ids == [PAD, BOS, EOS, UNK, 4] == [0, 1, 2, 3, 4]

    def test_oov_maps_to_unk(self):
        v = Vocabulary(RESERVED + ["cat"])
        assert encode_line("zebra", v, reverse=False) == [UNK]

    def test_missing_reserved_prefix(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["cat", "dog"])

    def test_duplicate_token(self):
        with pytest.raises(VocabularyError):
            Vocabulary(RESERVED + ["cat", "cat"])

    def test_token_of_out_of_range(self):
        v = Vocabulary(RESERVED + ["cat"])
        with pytest.raises(VocabularyError):
            v.token_of(5)

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary(RESERVED + ["cat", "dog", "émü"])
        path = str(tmp_path / "v.txt")
        v.save(path)
        w = Vocabulary.load(path)
        assert w.tokens == v.tokens
        assert w.content_hash() == v.content_hash()

    def test_content_hash_differs(self):
        a = Vocabulary(RESERVED + ["cat"])
        b = Vocabulary(RESERVED + ["dog"])
        assert a.content_hash() != b.content_hash()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CorpusIOError):
            Vocabulary.load(str(tmp_path / "nope"))


class TestBuildVocab:
    def test_frequency_order(self):
        v = build_vocab(["b b b a a c"], 10)
        assert v.tokens[4:] == ["b", "a", "c"]

    def test_ties_lexicographic(self):
        v = build_vocab(["z q m", "q z m"], 10)
        assert v.tokens[4:] == ["m", "q", "z"]

    def test_truncates_to_size(self):
        v = build_vocab(["a a a b b c"], 6)
        assert len(v) == 6
        assert v.tokens[4:] == ["a", "b"]

    def test_size_too_small(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], 4)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_vocab(["", "   "], 10)


class TestEncodeDecode:
    def test_source_reversed(self):
        v = Vocabulary(RESERVED + ["a", "b", "c"])
        assert encode_line("a b c", v, reverse=True) == [6, 5, 4]

    def test_target_not_reversed(self):
        v = Vocabulary(RESERVED + ["a", "b"])
        assert encode_line("a b", v, reverse=False) == [4, 5]

    def test_unknown_becomes_unk(self):
        v = Vocabulary(RESERVED + ["a"])
        assert encode_line("a zzz a", v, reverse=False) == [4, UNK, 4]

    def test_decode_round_trip(self):
        v = Vocabulary(RESERVED + ["a", "b", "c"])
        ids = encode_line("c a b", v, reverse=False)
        assert decode_ids(ids, v) == ["c", "a", "b"]

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_reverse_twice_is_identity(self, toks):
        v = Vocabulary(RESERVED + ["a", "b", "c"])
        line = " ".join(toks)
        once = encode_line(line, v, reverse=True)
        assert once[::-1] == encode_line(line, v, reverse=False)


class TestLoadParallel:
    def _write(self, tmp_path, name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(p)

    def test_two_files(self, tmp_path):
        a = self._write(tmp_path, "a", ["x y", "p q r"])
        b = self._write(tmp_path, "b", ["u", "v w"])
        tuples, dropped = load_parallel([a, b])
        assert tuples == [("x y", "u"), ("p q r", "v w")]
        assert dropped == 0

    def test_three_files(self, tmp_path):
        a = self._write(tmp_path, "a", ["x"])
        b = self._write(tmp_path, "b", ["y"])
        c = self._write(tmp_path, "c", ["z"])
        tuples, _ = load_parallel([a, b, c])
        assert tuples == [("x", "y", "z")]

    def test_length_filter_drops_whole_tuple(self, tmp_path):
        a = self._write(tmp_path, "a", ["one", "a b c d e f"])
        b = self._write(tmp_path, "b", ["uno", "short"])
        tuples, dropped = load_parallel([a, b], max_len=5)
        assert tuples == [("one", "uno")]
        assert dropped == 1

    def test_empty_side_dropped(self, tmp_path):
        a = self._write(tmp_path, "a", ["x", ""])
        b = self._write(tmp_path, "b", ["y", "z"])
        tuples, dropped = load_parallel([a, b])
        assert tuples == [("x", "y")]
        assert dropped == 1

    def test_misaligned_counts(self, tmp_path):
        a = self._write(tmp_path, "a", ["x", "y"])
        b = self._write(tmp_path, "b", ["u"])
        with pytest.raises(AlignmentError):
            load_parallel([a, b])

    def test_missing_file(self, tmp_path):
        a = self._write(tmp_path, "a", ["x"])
        with pytest.raises(CorpusIOError):
            load_parallel([a, str(tmp_path / "nope")])


class TestMakeBatch:
    def test_target_framing(self):
        b = make_batch([([4, 5], [6, 7, 8])])
        assert b.tgt_in.tolist() == [[BOS, 6, 7, 8]]
        assert b.tgt_out.tolist() == [[6, 7, 8, EOS]]
        assert b.tgt_mask.tolist() == [[1.0, 1.0, 1.0, 1.0]]
        assert b.n_predicted == 4

    def test_padding_and_masks(self):
        b = make_batch([([4, 5, 6], [7]), ([4], [7, 8])])
        assert b.src1.tolist() == [[4, 5, 6], [4, PAD, PAD]]
        assert b.src1_mask.tolist() == [[1, 1, 1], [1, 0, 0]]
        assert b.src1_len.tolist() == [3, 1]
        # target lengths include </s>
        assert b.tgt_out.tolist() == [[7, EOS, PAD], [7, 8, EOS]]
        assert b.tgt_mask.tolist() == [[1, 1, 0], [1, 1, 1]]
        assert b.n_predicted == 5

    def test_second_source_attached(self):
        b = make_batch([([4], [5, 6], [7])])
        assert b.src2.tolist() == [[5, 6]]
        assert b.src2_len.tolist() == [2]
        assert b.size == 1

    def test_no_second_source(self):
        b = make_batch([([4], [7])])
        assert b.src2 is None


class TestEncodeTuples:
    def test_single_source(self):
        v = Vocabulary(RESERVED + ["a", "b"])
        got = encode_tuples([("a b", "b a")], [v], v)
        assert got == [([5, 4], [5, 4])]  # source reversed, target not

    def test_two_sources(self):
        v = Vocabulary(RESERVED + ["a", "b"])
        got = encode_tuples([("a b", "b", "a")], [v, v], v)
        assert got == [([5, 4], [5], [4])]

    def test_vocab_count_mismatch(self):
        v = Vocabulary(RESERVED + ["a"])
        with pytest.raises(ConfigError):
            encode_tuples([("a", "a", "a")], [v], v)


class TestBatchify:
    def _tuples(self, n, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            sl = int(rng.integers(1, 8))
            tl = int(rng.integers(1, 8))
            out.append((list(rng.integers(4, 9, sl)), list(rng.integers(4, 9, tl))))
        return out

    def test_partition_is_exact(self):
        tuples = self._tuples(23)
        batches = batchify(tuples, 5, np.random.default_rng(1))
        assert sum(b.size for b in batches) == 23
        assert sorted(b.size for b in batches) == [3, 5, 5, 5, 5]

    def test_batches_are_length_homogeneous(self):
        # grouping after a length sort keeps the within-batch target length
        # spread at most the spread of adjacent sort positions
        tuples = self._tuples(40)
        batches = batchify(tuples, 8, np.random.default_rng(2))
        for b in batches:
            assert b.tgt_len.max() - b.tgt_len.min() <= 3

    def test_deterministic_given_seed(self):
        tuples = self._tuples(17)
        a = batchify(tuples, 4, np.random.default_rng(7))
        b = batchify(tuples, 4, np.random.default_rng(7))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.src1, y.src1)
            assert np.array_equal(x.tgt_out, y.tgt_out)

    def test_different_seeds_differ(self):
        tuples = self._tuples(40, seed=3)
        a = batchify(tuples, 4, np.random.default_rng(1))
        b = batchify(tuples, 4, np.random.default_rng(2))
        assert any(not np.array_equal(x.src1, y.src1) or x.src1.shape != y.src1.shape
                   for x, y in zip(a, b))

    def test_every_example_survives(self):
        tuples = self._tuples(19, seed=4)
        batches = batchify(tuples, 6, np.random.default_rng(5))
        seen = []
        for b in batches:
            for r in range(b.size):
                src = list(b.src1[r, :b.src1_len[r]])
                tgt = list(b.tgt_out[r, :b.tgt_len[r] - 1])
                seen.append((tuple(src), tuple(tgt)))
        want = sorted((tuple(s), tuple(t)) for s, t in tuples)
        assert sorted(seen) == want


class TestReadLines:
    def test_reads_lines(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("a\nb b\n", encoding="utf-8")
        assert read_lines(str(p)) == ["a", "b b"]

    def test_missing(self, tmp_path):
        with pytest.raises(CorpusIOError):
            read_lines(str(tmp_path / "nope"))
