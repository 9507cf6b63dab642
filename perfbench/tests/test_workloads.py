import dataclasses

from perfbench import workloads as wl


def test_same_seed_same_corpus_and_different_seed_differs():
    for w in wl.WORKLOADS.values():
        a = wl.generate(w, 5, "train", 30)
        assert a == wl.generate(w, 5, "train", 30)
        assert a != wl.generate(w, 6, "train", 30)


def test_held_out_splits_use_their_own_streams():
    w = wl.WORKLOADS["multi-localp-short"]
    train, dev, test = (wl.generate(w, 3, split, 20) for split in ("train", "dev", "test"))
    assert train != dev and dev != test and train != test


def test_targets_follow_the_task_rules():
    srcs, tgt = wl.generate(wl.WORKLOADS["single-none"], 1, "train", 50)
    assert srcs == [tgt]
    assert all(3 <= len(line.split()) <= 12 for line in tgt)
    long = wl.WORKLOADS["multi-localp-long"]
    (src1, src2), tgt = wl.generate(long, 1, "train", 50)
    for a, d, t in zip(src1, src2, tgt):
        assert 20 <= len(a.split()) <= 50
        assert t.split() == [f"t{x[1:]}_{y[1:]}" for x, y in zip(a.split(), d.split())]


def test_write_corpus_writes_every_split(tmp_path):
    w = dataclasses.replace(wl.WORKLOADS["multi-localp-short"], train_lines=7, dev_lines=3,
                            test_lines=2)
    paths = wl.write_corpus(w, 1, str(tmp_path))
    assert sorted(paths) == ["dev", "test", "train"]
    for split, n in (("train", 7), ("dev", 3), ("test", 2)):
        assert len(paths[split]) == 3
        for p in paths[split]:
            assert len(open(p, encoding="utf-8").read().splitlines()) == n
