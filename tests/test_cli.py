import json
import os
import re

import numpy as np
import pytest

from msnmt import cli
from msnmt import decoding as dec_mod
from msnmt import model as M
from msnmt import synth
from msnmt.data import Vocabulary
from msnmt.decoding import translate_file
from msnmt.errors import ConfigError


def run_cli(argv, capsys=None):
    return cli.main(argv)


class TestConfigFile:
    def test_parses_keys_and_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nhidden = 32\nbatch-size=16  # inline\n\n",
                     encoding="utf-8")
        vals = cli.load_config_file(str(p))
        assert vals == {"hidden": "32", "batch_size": "16"}

    def test_unknown_key_rejected(self, tmp_path):
        # train, the only command that reads --config, has no beam
        p = tmp_path / "cfg"
        for key in ("hiden", "beam"):
            p.write_text(f"{key} = 3\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=key):
                cli.load_config_file(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("hidden 32\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            cli.load_config_file(str(p))

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = run_cli(["train", "--config", str(tmp_path / "nope")])
        assert rc == 2

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg"
        p.write_bytes(b"hidden = \xff\xfe\n")
        rc = run_cli(["train", "--config", str(p)])
        assert rc == 2
        assert str(p) in capsys.readouterr().err

    def test_unparsable_value_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg"
        p.write_text("layers = abc\n", encoding="utf-8")
        rc = run_cli(["train", "--config", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(p) in err and "layers" in err and "'abc'" in err


class TestTrainSettings:
    @staticmethod
    def settings(tmp_path, file_vals, *flags):
        """train's resolved settings for a --config file of file_vals plus flags."""
        cfg = tmp_path / "cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in file_vals.items()), encoding="utf-8")
        args = cli.build_parser().parse_args(["train", "--config", str(cfg), *flags])
        return cli.train_settings(args)

    @pytest.mark.parametrize("key", list(cli.TRAIN_SETTINGS))
    def test_flag_and_config_key_agree(self, tmp_path, key):
        kind, default, _ = cli.TRAIN_SETTINGS[key]
        if isinstance(kind, tuple):
            a, b = next(c for c in kind if c != default), default
        else:
            a, b = kind(3), kind(7)
        flag = "--" + key.replace("_", "-")
        assert self.settings(tmp_path, {key: a})[key] == a
        assert self.settings(tmp_path, {}, flag, str(a))[key] == a
        assert self.settings(tmp_path, {key: a}, flag, str(b))[key] == b
        if isinstance(default, tuple):
            assert self.settings(tmp_path, {})[key] == default[0]
            assert self.settings(tmp_path, {}, "--attention", "local-p")[key] == default[1]
            assert self.settings(tmp_path, {"attention": "local-p"})[key] == default[1]
        else:
            assert self.settings(tmp_path, {})[key] == default


class TestSynthCommand:
    @pytest.mark.parametrize("task", ["copy", "triangulate"])
    @pytest.mark.parametrize("min_len,max_len", [("5", "2"), ("3", "0")])
    def test_min_len_above_max_len_exit_code(self, tmp_path, capsys, task, min_len, max_len):
        rc = run_cli(["synth", "--task", task, "--lines", "5", "--out-dir", str(tmp_path / "o"),
                      "--min-len", min_len, "--max-len", max_len])
        assert rc == 1
        assert f"min_len {min_len} and max_len {max_len}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("min_len", ["-2", "0"])
    def test_nonpositive_min_len_exit_code(self, tmp_path, capsys, min_len):
        rc = run_cli(["synth", "--task", "copy", "--lines", "5", "--out-dir", str(tmp_path / "o"),
                      "--min-len", min_len])
        assert rc == 1
        assert f"min_len {min_len}" in capsys.readouterr().err

    def test_out_dir_is_a_file_exit_code(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        rc = run_cli(["synth", "--task", "copy", "--lines", "5", "--out-dir", str(taken)])
        assert rc == 2
        assert str(taken) in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        rc = run_cli(["synth", "--task", "copy", "--lines", "3", "--out-dir", str(tmp_path / "o"),
                      "--seed", "-1"])
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_copy_files_byte_equal(self, tmp_path):
        out = tmp_path / "c"
        rc = run_cli(["synth", "--task", "copy", "--lines", "20",
                      "--out-dir", str(out), "--vocab", "9", "--seed", "4"])
        assert rc == 0
        src = (out / "src1.txt").read_bytes()
        assert src == (out / "tgt.txt").read_bytes()
        lines = src.decode().splitlines()
        assert len(lines) == 20
        for ln in lines:
            toks = ln.split()
            assert 3 <= len(toks) <= 8
            assert all(t.startswith("w") and 0 <= int(t[1:]) < 9 for t in toks)

    def test_copy_deterministic_per_seed(self, tmp_path):
        a, b, c = (tmp_path / x for x in "abc")
        for d in (a, b):
            run_cli(["synth", "--task", "copy", "--lines", "10",
                     "--out-dir", str(d), "--seed", "7"])
        run_cli(["synth", "--task", "copy", "--lines", "10",
                 "--out-dir", str(c), "--seed", "8"])
        assert (a / "src1.txt").read_bytes() == (b / "src1.txt").read_bytes()
        assert (a / "src1.txt").read_bytes() != (c / "src1.txt").read_bytes()

    def test_triangulate_table_holds_exhaustively(self, tmp_path):
        out = tmp_path / "t"
        rc = run_cli(["synth", "--task", "triangulate", "--lines", "50",
                      "--out-dir", str(out), "--bases", "6", "--seed", "2"])
        assert rc == 0
        s1 = (out / "src1.txt").read_text().splitlines()
        s2 = (out / "src2.txt").read_text().splitlines()
        tg = (out / "tgt.txt").read_text().splitlines()
        assert len(s1) == len(s2) == len(tg) == 50
        for a, b, t in zip(s1, s2, tg):
            at, bt, tt = a.split(), b.split(), t.split()
            assert len(at) == len(bt) == len(tt)
            for x, y, z in zip(at, bt, tt):
                assert z == synth.triangulate_target(x, y)
        # target is genuinely ambiguous given src1 alone
        seen = {}
        ambiguous = False
        for a, t in zip(" ".join(s1).split(), " ".join(tg).split()):
            if a in seen and seen[a] != t:
                ambiguous = True
            seen[a] = t
        assert ambiguous


class TestTrainValidation:
    def test_collects_all_errors_at_once(self, tmp_path, capsys):
        rc = run_cli(["train", "--mode", "multi-basic", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        for frag in ("--src1", "--tgt", "--dev-src1", "--dev-tgt", "--src2",
                     "--dev-src2"):
            assert frag in err

    def test_single_mode_rejects_src2(self, tmp_path, capsys):
        d = tmp_path
        for name in ("s1", "s2", "t", "ds", "dt"):
            (d / name).write_text("w1 w2\n", encoding="utf-8")
        rc = run_cli(["train", "--mode", "single",
                      "--src1", str(d / "s1"), "--src2", str(d / "s2"),
                      "--tgt", str(d / "t"), "--dev-src1", str(d / "ds"),
                      "--dev-tgt", str(d / "dt"), "--out", str(d / "out")])
        assert rc == 1
        assert "does not accept --src2" in capsys.readouterr().err

    def test_single_mode_rejects_dev_src2(self, tmp_path, capsys):
        d = tmp_path
        for name in ("s", "t"):
            (d / name).write_text("w1 w2\n", encoding="utf-8")
        rc = run_cli(["train", "--mode", "single", "--src1", str(d / "s"), "--tgt", str(d / "t"),
                      "--dev-src1", str(d / "s"), "--dev-src2", str(d / "s"),
                      "--dev-tgt", str(d / "t"), "--out", str(d / "out")])
        assert rc == 1
        assert "does not accept --dev-src2" in capsys.readouterr().err
        assert not (d / "out").exists()

    @staticmethod
    def tiny_run(d, out, *flags):
        """A one-epoch run on a two-line corpus, writing into out."""
        for name in ("s", "t"):
            (d / name).write_text("w1 w2\nw2 w3\n", encoding="utf-8")
        return ["train", "--src1", str(d / "s"), "--tgt", str(d / "t"),
                "--dev-src1", str(d / "s"), "--dev-tgt", str(d / "t"), "--out", str(out),
                "--layers", "1", "--hidden", "2", "--epochs", "1", *flags]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        rc = run_cli(self.tiny_run(tmp_path, tmp_path / "out", "--seed", "-1"))
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--init-range", "inf"), ("train", "--init-range", "nan"),
        ("train", "--lr", "inf"), ("train", "--lr", "nan"), ("train", "--clip", "nan"),
        ("gradcheck", "--epsilon", "nan")])
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, command, flag, value):
        argv = (self.tiny_run(tmp_path, tmp_path / "out", flag, value) if command == "train"
                else ["gradcheck", "--layers", "1", "--hidden", "2", flag, value])
        assert run_cli(argv) == 1
        assert "finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--attention", "local-p", "--window", "0"], "window radius D must be >= 1"),
        (["--batch-size", "0"], "batch_size must be >= 1"),
        (["--dropout", "1"], "dropout must be in [0,1)"),
        (["--layers", "0"], "layers must be >= 1")],
        ids=["window-0", "batch-size-0", "dropout-1", "layers-0"])
    def test_out_of_range_setting_exit_code(self, tmp_path, capsys, flags, message):
        assert run_cli(self.tiny_run(tmp_path, tmp_path / "out", *flags)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_path_is_a_directory_exit_code(self, tmp_path, capsys):
        (tmp_path / "out" / "report.tsv").mkdir(parents=True)
        rc = run_cli(self.tiny_run(tmp_path, tmp_path / "out"))
        assert rc == 2
        assert "report.tsv" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "out")) == ["best", "checkpoint-epoch1",
                                                        "report.tsv"]

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "out").write_text("", encoding="utf-8")
        rc = run_cli(self.tiny_run(tmp_path, tmp_path / "out"))
        assert rc == 2
        assert str(tmp_path / "out") in capsys.readouterr().err

    def test_missing_input_file_listed(self, tmp_path, capsys):
        rc = run_cli(["train", "--src1", str(tmp_path / "nope"),
                      "--tgt", str(tmp_path / "nope"),
                      "--dev-src1", str(tmp_path / "nope"),
                      "--dev-tgt", str(tmp_path / "nope"),
                      "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny end-to-end training run shared by the smoke tests."""
    root = tmp_path_factory.mktemp("smoke")
    data = root / "data"
    synth.write_copy_corpus(str(data), 40, 8, 1, prefix="train-")
    synth.write_copy_corpus(str(data), 8, 8, 2, prefix="dev-")
    out = root / "run"
    rc = run_cli(["train",
                  "--src1", str(data / "train-src1.txt"),
                  "--tgt", str(data / "train-tgt.txt"),
                  "--dev-src1", str(data / "dev-src1.txt"),
                  "--dev-tgt", str(data / "dev-tgt.txt"),
                  "--out", str(out),
                  "--mode", "single", "--attention", "local-p",
                  "--layers", "2", "--hidden", "8", "--epochs", "4",
                  "--batch-size", "8", "--dropout", "0", "--seed", "3",
                  "--init-range", "0.5", "--lr", "0.5"])
    assert rc == 0
    return root, data, out


class TestTrainTranslateScoreSmoke:
    def test_artifacts(self, trained):
        _, _, out = trained
        assert (out / "checkpoint-epoch4").exists()
        assert (out / "best").exists()
        assert (out / "report.tsv").exists()

    def test_translate_and_score(self, trained, capsys):
        root, data, out = trained
        hyp = root / "hyp.txt"
        rc = run_cli(["translate", "--checkpoint", str(out / "checkpoint-epoch4"),
                      "--src1", str(data / "dev-src1.txt"),
                      "--out", str(hyp), "--beam", "2"])
        assert rc == 0
        hyp_lines = hyp.read_text().splitlines()
        assert len(hyp_lines) == 8
        rc = run_cli(["score", "--hyp", str(hyp),
                      "--ref", str(data / "dev-tgt.txt")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("BLEU = ")

    def test_translate_reports_throughput(self, trained, capsys):
        root, data, out = trained
        rc = run_cli(["translate", "--checkpoint", str(out / "checkpoint-epoch4"),
                      "--src1", str(data / "dev-src1.txt"),
                      "--out", str(root / "hyp-report.txt"), "--beam", "2"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("translated")]
        assert len(lines) == 1
        m = re.fullmatch(r"translated 8 sentences in ([0-9.]+) s \(([0-9.]+) sent/s\); "
                         r"([0-9]+) decoder steps, ([0-9.]+) rows per step", lines[0])
        assert m, lines[0]
        seconds, rate, steps, rows = map(float, m.groups())
        assert seconds > 0 and rate > 0
        # the 8 sentences are one chunk of at most 8 x beam 2 rows; a closed
        # sentence's rows are dropped, so the average is at most 16
        assert steps >= 1 and 0 < rows <= 16
        config, params, meta = M.load_checkpoint(str(out / "checkpoint-epoch4"))
        vocabs = ([Vocabulary(t) for t in meta["src"]], Vocabulary(meta["tgt"]))
        stats = translate_file(params, config, [str(data / "dev-src1.txt")],
                               str(root / "hyp-count.txt"), vocabs, beam=2)
        assert stats["steps"] == steps
        assert steps * rows == pytest.approx(stats["rows"], abs=0.05 * steps)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "workers"])
    def test_translate_reports_cpu_time(self, trained, capsys, monkeypatch, cpus):
        # at ROWS 4 and beam 2 the 8 sentences are 4 chunks of 2, decoded in
        # forked workers when two CPUs are usable
        root, data, out = trained
        monkeypatch.setattr(dec_mod, "ROWS", 4)
        monkeypatch.setattr(dec_mod, "_usable_cpus", lambda: cpus)
        rc = run_cli(["translate", "--checkpoint", str(out / "checkpoint-epoch4"),
                      "--src1", str(data / "dev-src1.txt"),
                      "--out", str(root / f"hyp-cpu{cpus}.txt"), "--beam", "2"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert err[-2].startswith("translated 8 sentences in ")
        m = re.fullmatch(r"cpu time ([0-9.]+) s in this process, ([0-9.]+) s in worker "
                         r"processes", err[-1])
        assert m, err[-1]
        own, workers = map(float, m.groups())
        # the decoding ran here, or in the workers
        assert (workers > 0) if cpus == 2 else (workers == 0 and own > 0)

    def test_translate_source_count_mismatch(self, trained, capsys):
        root, data, out = trained
        rc = run_cli(["translate", "--checkpoint", str(out / "checkpoint-epoch4"),
                      "--src1", str(data / "dev-src1.txt"),
                      "--src2", str(data / "dev-src1.txt"),
                      "--out", str(root / "x")])
        assert rc == 4
        assert "source" in capsys.readouterr().err

    @staticmethod
    def resume_args(data, out_dir, checkpoint, epochs=5, train="train-"):
        """The smoke run's training flags, one epoch further, from checkpoint."""
        return ["train",
                "--src1", str(data / f"{train}src1.txt"),
                "--tgt", str(data / f"{train}tgt.txt"),
                "--dev-src1", str(data / "dev-src1.txt"),
                "--dev-tgt", str(data / "dev-tgt.txt"),
                "--out", str(out_dir),
                "--mode", "single", "--attention", "local-p",
                "--layers", "2", "--hidden", "8", "--epochs", str(epochs),
                "--batch-size", "8", "--dropout", "0", "--seed", "3",
                "--init-range", "0.5", "--lr", "0.5",
                "--resume", str(checkpoint)]

    def test_resume_continues_from_checkpoint(self, trained, capsys):
        root, data, out = trained
        rc = run_cli(self.resume_args(data, root / "resumed", out / "checkpoint-epoch4"))
        assert rc == 0
        assert (root / "resumed" / "checkpoint-epoch5").exists()
        assert not (root / "resumed" / "checkpoint-epoch1").exists()

    @pytest.mark.parametrize("name", ["checkpoint-epoch4.bak", "model.ckpt"])
    def test_resume_name_without_epoch_number(self, trained, capsys, name):
        root, data, out = trained
        backup = root / name
        backup.write_bytes((out / "checkpoint-epoch4").read_bytes())
        rc = run_cli(self.resume_args(data, root / "resumed-bak", backup))
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not (root / "resumed-bak").exists()

    def test_resume_with_no_epochs_left(self, trained, capsys):
        root, data, out = trained
        rc = run_cli(self.resume_args(data, root / "resumed-none", out / "checkpoint-epoch4",
                                      epochs=3))
        assert rc == 1
        err = capsys.readouterr().err
        assert "trained 4 epoch(s)" in err and "--epochs is 3" in err
        assert not (root / "resumed-none").exists()

    def test_resume_with_changed_vocabulary(self, trained, capsys):
        """A corpus with one token swapped for a new one keeps every
        vocabulary size, so only the hashes tell the vocabularies apart."""
        root, data, out = trained
        for side in ("src1", "tgt"):
            text = (data / f"train-{side}.txt").read_text(encoding="utf-8")
            assert " w3 " in text and "w9" not in text
            (data / f"swapped-{side}.txt").write_text(re.sub(r"\bw3\b", "w9", text),
                                                      encoding="utf-8")
        rc = run_cli(self.resume_args(data, root / "resumed-swap", out / "checkpoint-epoch4",
                                      train="swapped-"))
        assert rc == 4
        assert "vocabularies differ" in capsys.readouterr().err
        assert not (root / "resumed-swap").exists()


class TestGradcheckCommand:
    def test_pass_path(self, capsys):
        rc = run_cli(["gradcheck", "--mode", "single", "--attention", "none",
                      "--layers", "1", "--hidden", "4", "--vocab", "8",
                      "--time-steps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_negative_control_detects_broken_gradient(self, capsys, monkeypatch):
        """Corrupt one parameter's gradient and the check must fail on it."""
        from msnmt import model as model_mod
        real_backward = model_mod.backward

        def broken_backward(tape, params):
            real_backward(tape, params)
            params.softmax_b.grad += 0.5

        monkeypatch.setattr(model_mod, "backward", broken_backward)
        rc = run_cli(["gradcheck", "--mode", "single", "--attention", "none",
                      "--layers", "1", "--hidden", "4", "--vocab", "8",
                      "--time-steps", "3"])
        assert rc == 3
        assert "softmax.b" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("--vocab", "4", "vocab 4", id="vocab-4"),
        pytest.param("--vocab", "2", "vocab 2", id="vocab-2"),
        pytest.param("--time-steps", "0", "0 time steps", id="time-steps-0"),
        pytest.param("--seed", "-1", "seed", id="seed--1")])
    def test_unbuildable_settings_exit_code(self, capsys, flag, value, message):
        rc = run_cli(["gradcheck", "--attention", "none", "--layers", "1", "--hidden", "2",
                      flag, value])
        assert rc == 1
        assert message in capsys.readouterr().err


class TestScoreErrors:
    def test_missing_file_exit_code(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        ref.write_text("a\n", encoding="utf-8")
        rc = run_cli(["score", "--hyp", str(tmp_path / "nope"),
                      "--ref", str(ref)])
        assert rc == 2


class TestTranslateErrors:
    def test_truncated_checkpoint_exit_code(self, trained, capsys):
        root, data, out = trained
        raw = (out / "checkpoint-epoch4").read_bytes()
        cut = root / "truncated"
        cut.write_bytes(raw[:len(raw) - 100])
        rc = run_cli(["translate", "--checkpoint", str(cut),
                      "--src1", str(data / "dev-src1.txt"), "--out", str(root / "t.txt")])
        assert rc == 4
        assert "truncated" in capsys.readouterr().err

    def test_damaged_header_length_exit_code(self, tmp_path, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "decode")
        raw = open(os.path.join(fixture, "model.ckpt"), "rb").read()
        start = len(M.CKPT_MAGIC)
        damaged = tmp_path / "damaged"
        damaged.write_bytes(raw[:start] + (2 ** 62).to_bytes(8, "little") + raw[start + 8:])
        rc = run_cli(["translate", "--checkpoint", str(damaged),
                      "--src1", os.path.join(fixture, "src1.txt"),
                      "--src2", os.path.join(fixture, "src2.txt"),
                      "--out", str(tmp_path / "t.txt")])
        assert rc == 4
        assert "header length" in capsys.readouterr().err

    @staticmethod
    def _translate_fixture(tmp_path, edit):
        """Translate the decode fixture with its checkpoint's header and
        body passed through ``edit(header, body)``."""
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "decode")
        raw = open(os.path.join(fixture, "model.ckpt"), "rb").read()
        start = len(M.CKPT_MAGIC) + 8
        hlen = int.from_bytes(raw[len(M.CKPT_MAGIC):start], "little")
        header, body = json.loads(raw[start:start + hlen]), raw[start + hlen:]
        header, body = edit(header, body)
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        damaged = tmp_path / "damaged"
        damaged.write_bytes(M.CKPT_MAGIC + len(new).to_bytes(8, "little") + new + body)
        return run_cli(["translate", "--checkpoint", str(damaged),
                        "--src1", os.path.join(fixture, "src1.txt"),
                        "--src2", os.path.join(fixture, "src2.txt"),
                        "--out", str(tmp_path / "t.txt")])

    def test_absurd_hidden_exit_code(self, tmp_path, capsys):
        def edit(header, body):
            header["config"]["hidden"] = 200000
            return header, body

        rc = self._translate_fixture(tmp_path, edit)
        assert rc == 4
        assert "truncated body" in capsys.readouterr().err

    def test_nan_weights_exit_code(self, tmp_path, capsys):
        nan = np.full(1, np.nan).tobytes()
        rc = self._translate_fixture(tmp_path, lambda h, body: (h, nan * (len(body) // 8)))
        assert rc == 4
        assert "non-finite weights" in capsys.readouterr().err

    @pytest.mark.parametrize("vocab", [
        {"src": [1, 2]},
        {"src": [[1, 2], [3, 4]]},
        "src",
        {"tgt": None},
        {"tgt": ["<pad>", "<s>"]},
        "reserved tokens swapped",
    ], ids=["src-numbers", "src-number-lists", "not-a-mapping", "no-tgt", "tgt-too-short",
            "reserved-swapped"])
    def test_malformed_vocabulary_exit_code(self, tmp_path, capsys, vocab):
        def edit(header, body):
            if isinstance(vocab, dict):
                header["vocab"].update(vocab)
            elif vocab == "reserved tokens swapped":
                tgt = header["vocab"]["tgt"]
                tgt[0], tgt[1] = tgt[1], tgt[0]
            else:
                header["vocab"] = vocab
            return header, body

        rc = self._translate_fixture(tmp_path, edit)
        assert rc == 4
        assert "vocabulary" in capsys.readouterr().err

    def test_renamed_token_exit_code(self, tmp_path, capsys):
        """A token renamed in the header keeps every size; only the stored
        hashes tell the lists apart."""
        def edit(header, body):
            header["vocab"]["tgt"][6] = "renamed"
            return header, body

        rc = self._translate_fixture(tmp_path, edit)
        assert rc == 4
        assert "does not match its stored hashes" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_missing_vocabulary_hashes_exit_code(self, tmp_path, capsys):
        def edit(header, body):
            del header["vocab"]["hashes"]
            return header, body

        rc = self._translate_fixture(tmp_path, edit)
        assert rc == 4
        assert "no hashes" in capsys.readouterr().err

    def test_unwritable_dump_path_exit_code(self, trained, capsys):
        root, data, out = trained
        hyp = root / "d.txt"
        rc = run_cli(["translate", "--checkpoint", str(out / "checkpoint-epoch4"),
                      "--src1", str(data / "dev-src1.txt"), "--out", str(hyp),
                      "--dump-attention", str(root / "no-such-dir" / "align.tsv")])
        assert rc == 2
        assert "no-such-dir" in capsys.readouterr().err


class TestLineAlignment:
    @pytest.mark.parametrize("command", ["train", "translate", "score"])
    def test_one_message_for_every_command(self, tmp_path, capsys, command):
        """Each command that reads line-aligned files refuses misaligned ones
        with the same message, naming every file and its line count."""
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("w1 w2\nw3\n", encoding="utf-8")
        b.write_text("w1\n", encoding="utf-8")
        ckpt = os.path.join(os.path.dirname(__file__), "fixtures", "decode", "model.ckpt")
        argv = {"train": ["train", "--src1", str(a), "--tgt", str(b), "--dev-src1", str(a),
                          "--dev-tgt", str(a), "--out", str(tmp_path / "o")],
                "translate": ["translate", "--checkpoint", ckpt, "--src1", str(a),
                              "--src2", str(b), "--out", str(tmp_path / "o")],
                "score": ["score", "--hyp", str(a), "--ref", str(b)]}[command]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"error: line counts differ: {a}=2, {b}=1"
        assert not (tmp_path / "o").exists()
