"""Minimum-size runs of every workload through the benchmark's command."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads as wl

SPEC = run.load_spec()


def tiny(w):
    return dataclasses.replace(w, train_lines=24, dev_lines=8, epochs=2, halve_after=1,
                               test_lines=4)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(wl, "WORKLOADS", {n: tiny(w) for n, w in wl.WORKLOADS.items()})


def result_of(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_prints_every_metric(tiny_workloads, capsys, name, traced):
    details, result = result_of(capsys, "--workload", name, "--seed", "3",
                                "--seconds", "0", "--trace", str(traced))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert details["quality"]["hyp_sha256"]
    assert details["env"]["numpy"]
    if traced:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["decoding.rows_per_step"] == 1
        assert metrics["trainer.batches"] == 2 * 2
        if name == "single-none":
            assert metrics["attention.fwd_s"] == 0 and metrics["attention.calls"] == 0
        else:
            assert metrics["attention.fwd_s"] > 0 and metrics["combiner.calls"] > 0


def test_untraced_run_never_imports_the_tracer(tmp_path):
    code = (
        "import dataclasses, sys\n"
        "from perfbench import run, workloads as wl\n"
        "wl.WORKLOADS = {n: dataclasses.replace(w, train_lines=16, dev_lines=4, epochs=1,"
        " test_lines=2) for n, w in wl.WORKLOADS.items()}\n"
        "run.main(['--workload', 'single-none', '--seed', '1', '--seconds', '0'])\n"
        "assert 'perfbench.trace' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.ROOT, os.path.join(run.ROOT, "src")]))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single-none",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
