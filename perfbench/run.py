"""msnmt benchmark: one workload per invocation.

    python3 perfbench/run.py --workload multi-localp-short --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ./src, never
from an installed copy.  With --trace 0 the last line of standard output
holds every end-to-end metric of BENCHMARK.json; with --trace 1 every
per-layer metric, from a traced pass compared with an untraced one.  The
line before it holds the details: environment fingerprint, load and
calibration before and after, raw samples, dev perplexity, BLEU and the
SHA-256 of the hypothesis file.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_program():
    """Put ./src first on the path and import msnmt from it, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, ROOT)
    try:
        import msnmt
    except ImportError as e:
        sys.exit(f"perfbench: cannot import msnmt from {src}: {e}")
    if not os.path.abspath(msnmt.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: msnmt was imported from {msnmt.__file__}, not {src}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, out, w):
    """Per-layer metrics of one traced pass; times are self time in seconds."""
    from perfbench import workloads as wl
    from perfbench.trace import LAYERS

    st, c = tracer.self_time, tracer.counts
    steps = c["decoding.steps"]
    return {
        "attention.fwd_s": st("attention", "fwd"),
        "attention.bwd_s": st("attention", "bwd"),
        "attention.decode_s": st("attention", "decode"),
        "attention.calls": c["attention.calls"],
        "attention.window_fill": ratio(c["attention.positions"],
                                       c["attention.windows"] * (2 * wl.WINDOW + 1)),
        "recurrent.enc_fwd_s": st("recurrent", "fwd", "enc"),
        "recurrent.enc_bwd_s": st("recurrent", "bwd", "enc"),
        "recurrent.enc_decode_s": st("recurrent", "decode", "enc"),
        "recurrent.enc_steps": c["recurrent.enc_steps"],
        "recurrent.dec_fwd_s": st("recurrent", "fwd", "dec"),
        "recurrent.dec_bwd_s": st("recurrent", "bwd", "dec"),
        "recurrent.dec_decode_s": st("recurrent", "decode", "dec"),
        "recurrent.dec_steps": c["recurrent.dec_steps"],
        "kernels.fwd_s": st("kernels", "fwd"),
        "kernels.bwd_s": st("kernels", "bwd"),
        "kernels.decode_s": st("kernels", "decode"),
        "kernels.calls": c["kernels.calls"],
        "kernels.rows": c["kernels.rows"],
        "kernels.bytes": c["kernels.bytes"],
        "combiner.fwd_s": st("combiner", "fwd"),
        "combiner.bwd_s": st("combiner", "bwd"),
        "combiner.calls": c["combiner.calls"],
        "model.loss_fwd_s": st("model", "fwd"),
        "model.loss_bwd_s": st("model", "bwd"),
        # every layer's self time under dev-eval forward_loss: its wall time
        "model.eval_s": sum(st(layer, "eval") for layer in LAYERS),
        "model.ckpt_save_s": tracer.span_time("model", "save_checkpoint"),
        "model.ckpt_load_s": tracer.span_time("model", "load_checkpoint"),
        "model.ckpt_bytes": out.ckpt_bytes,
        "model.decode_step_s": st("model", "decode"),
        "trainer.clip_step_s": tracer.span_time("trainer", "clip_rescale")
                               + tracer.span_time("trainer", "sgd_step"),
        "trainer.batches": c["trainer.batches"],
        "trainer.clip_rate": out.clip_rate or 0.0,
        "data.batchify_s": st("data", stage="train"),
        "data.src_fill": ratio(c["data.src_real"], c["data.src_slots"]),
        "data.tgt_fill": ratio(c["data.tgt_real"], c["data.tgt_slots"]),
        "decoding.search_s": st("decoding"),
        "decoding.steps": steps,
        "decoding.rows_per_step": ratio(c["decoding.rows"], steps),
        "decoding.out_tokens": out.out_tokens,
        "decoding.steps_per_token": ratio(steps, out.out_tokens),
    }


def phase_wall(out):
    return (out.train_s or 0.0) + sum(out.translate_s[:1])


def measure(w, seed, seconds, trace, work_dir):
    """(outcome, {metric: value}) for one run."""
    from perfbench import bench

    if not trace:
        out = bench.run(w, seed, os.path.join(work_dir, "a"), seconds=seconds)
        return out, bench.end_to_end(w, out)
    from perfbench.trace import Instrumentation, Tracer

    ref = bench.run(w, seed, os.path.join(work_dir, "ref"), setups=1, min_passes=1)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    try:
        out = bench.run(w, seed, os.path.join(work_dir, "traced"), setups=1, min_passes=1,
                        tracer=tracer)
    finally:
        inst.restore()
    out.reference = {"train_s": ref.train_s, "translate_s": ref.translate_s}
    out.attempted += ref.attempted
    out.failed += ref.failed
    out.problems += ref.problems
    if ref.hyp_sha256 != out.hyp_sha256:
        out.fail(w.test_lines, "traced and untraced passes translated differently")
    metrics = layer_metrics(tracer, out, w)
    metrics["trace.overhead"] = ratio(phase_wall(out), phase_wall(ref)) - 1.0
    return out, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = load_spec()
    import_program()
    from perfbench import env
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    before = env.snapshot()
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root)
    try:
        out, values = measure(w, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    after = env.snapshot()

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            out.problems.append(f"metric {m['name']} was not measured")
    details = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env.fingerprint(ROOT), "before": before, "after": after,
        "samples": {"setup_s": out.setup_s, "load_s": out.load_s,
                    "train_s": out.train_s, "translate_s": out.translate_s,
                    "untraced": out.reference},
        "quality": {"dev_ppl": out.dev_ppl, "bleu": out.bleu, "hyp_sha256": out.hyp_sha256},
        "problems": out.problems,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
