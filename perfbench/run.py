"""qatlab benchmark: the command BENCHMARK.json names.

    python3 perfbench/run.py --workload {cnn_trend,mlp_wide,toy} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a qatlab checkout and imports qatlab from its
``src``.  Every process it starts is a fresh ``worker.py`` with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS pinned to 1
before numpy loads.

--trace 0  measures end to end, untraced: five set-up-only processes and
           then whole-workload repetitions until S seconds have passed
           (at least one); timings are medians over them.
--trace 1  runs the workload once untraced and once traced (spans.py),
           then the layer kernels (kernels.py), and derives the per-layer
           metrics; trace_overhead_frac compares the two wall times.

Each CLI call and each output check is one operation; the failed ones
are listed with their cause.  Every metric is printed by name and unit;
the last line is one JSON object carrying the metrics BENCHMARK.json
lists for the mode.  Outputs, spans and full results go under
``.perfbench/`` in the checkout.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

STATE = ROOT / ".perfbench"
WORK = STATE / "work"
SETUP_SPAWNS = 5
BUDGET_S = 170.0
FOLD_TOLERANCE = 1e-6
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """Spawns workers for one benchmark invocation and records operations."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.ops = []  # (name, ok, cause)
        self.env = None
        self.env_vars = {**os.environ, **PINNED}
        self.env_vars.pop("QATLAB_OUT", None)

    def op(self, name, ok, cause=""):
        self.ops.append((name, bool(ok), "" if ok else cause))
        return ok

    def spawn(self, tag, *args):
        """Run worker.py; return (result dict or None, setup_s)."""
        result_path = WORK / f"{tag}.json"
        log_path = WORK / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result_path), *args]
        with open(log_path, "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env_vars, stdout=log, stderr=log)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                rc = "timeout"
            finally:  # also on interrupt: leave no worker running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0:
            tail = log_path.read_text().strip().splitlines()[-1:] or [""]
            self.op(f"worker:{tag}", False, f"exit {rc}: {tail[0]}")
            return None, None
        with open(result_path) as fh:
            result = json.load(fh)
        self.env = result["env"]
        return result, result["ready"] - start

    def repetition(self, tag, trace):
        """One whole workload in a fresh process, then its output checks."""
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = ["--mode", "workload", "--workload", self.workload, "--seed", str(self.seed),
                "--out", os.path.relpath(out, ROOT)]
        if trace:
            args += ["--trace-file", str(WORK / f"{tag}-spans.npz")]
        result, setup = self.spawn(tag, *args)
        if result is None:
            return None
        # Wall time ends with the last CLI call, before the worker's own
        # bookkeeping (span files, environment record) and exit.
        wall = result["calls"][-1]["end"] - (result["ready"] - setup)
        rep = {"tag": tag, "setup_s": setup, "wall_s": wall, **result}
        for call in result["calls"]:
            cause = call["error"] or f"exit {call['rc']}"
            self.op(f"cli:{call['task']}", call["rc"] == 0, cause)
            for name in call["run_dirs"]:
                self.check_manifest(out / name)
        ok = all(call["rc"] == 0 for call in result["calls"])
        rep["outputs"] = read_outputs(self, out) if ok else {}
        rep["digests"] = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))
        }
        return rep

    def check_manifest(self, run_dir):
        path = run_dir / "manifest.json"
        if not path.exists():
            return self.op(f"manifest:{run_dir.name}", False, "no manifest.json")
        manifest = json.loads(path.read_text())
        missing = [a for a in manifest.get("artifacts", []) if not (run_dir / a).exists()]
        status = manifest.get("status")
        cause = f"status {status!r}, missing artifacts {missing}"
        return self.op(f"manifest:{run_dir.name}", status == "ok" and not missing, cause)

    def check_identical(self, reps):
        """CSV bytes must repeat across repetitions and across invocations
        with the same workload, seed and source (stored digests)."""
        reps = [r for r in reps if r is not None]
        if not reps:
            return
        first = reps[0]["digests"]
        for rep in reps[1:]:
            diff = _differing(first, rep["digests"])
            self.op(f"csv_identical:{rep['tag']}", not diff, f"differs: {diff}")
        store = STATE / "digests" / f"{self.workload}-seed{self.seed}-{source_fingerprint()}.json"
        if store.exists():
            diff = _differing(json.loads(store.read_text()), first)
            self.op("csv_identical:stored", not diff, f"differs from an earlier run: {diff}")
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(first, indent=1, sort_keys=True))


def _differing(a, b):
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def source_fingerprint():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qatlab").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_outputs(run, out):
    """Quality figures and output checks that need the files of one repetition."""
    found = {}
    for fold in sorted(out.glob("fold-seed*/fold_report.csv")):
        diff = float(_rows(fold)[0]["max_abs_output_diff"])
        run.op("fold_diff", diff <= FOLD_TOLERANCE,
               f"max_abs_output_diff {diff!r} > {FOLD_TOLERANCE}")
    for qc in sorted(out.glob("qc-seed*/qc_metrics.csv")):
        found["eval_accuracy"] = float(_rows(qc)[0]["eval_accuracy_after"])
    for ema in sorted(out.glob("ablate-seed*/ema_decay.csv")):
        found["eval_accuracy"] = statistics.fmean(
            float(r["ema_eval_accuracy"]) for r in _rows(ema))
    toys = sorted(out.glob("toy-seed*"))
    if toys:
        found["toy_ema_eval_loss"] = statistics.fmean(
            json.loads((d / "manifest.json").read_text())["final"]["final_eval_loss_ema"]
            for d in toys)
        found["toy_steps"] = sum(len(_rows(d / "toy_trace.csv")) for d in toys)
    return found


def _call_s(rep, tasks):
    return sum(c["end"] - c["start"] for c in rep["calls"] if c["task"] in tasks)


def end_to_end(run, setups, reps):
    """All end-to-end metrics that apply to the workload: name -> (value, unit)."""
    tasks = {c["task"] for c in reps[0]["calls"]}
    med = lambda f: statistics.median(f(r) for r in reps)  # noqa: E731
    m = {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
        "wall_s": (med(lambda r: r["wall_s"]), "s"),
    }
    if "train" in tasks:
        m["train_s"] = (med(lambda r: _call_s(r, {"train"})), "s")
        m["train_samples_per_s"] = (
            med(lambda r: r["train_samples"] / _call_s(r, {"train"})), "samples/s")
    if tasks & {"qc", "fold", "eval"}:
        m["posthoc_s"] = (med(lambda r: _call_s(r, {"qc", "fold", "eval"})), "s")
    if "ablate" in tasks:
        m["ablate_s"] = (med(lambda r: _call_s(r, {"ablate"})), "s")
    steps = reps[0]["outputs"].get("toy_steps")  # the same in every repetition
    if "toy" in tasks and steps:
        m["toy_s"] = (med(lambda r: _call_s(r, {"toy"})), "s")
        m["toy_steps_per_s"] = (med(lambda r: steps / _call_s(r, {"toy"})), "steps/s")
    m["peak_rss_mb"] = (med(lambda r: r["maxrss_kib"] / 1024.0), "MiB")
    failed = sum(not ok for _, ok, _ in run.ops)
    m["failed_frac"] = (failed / max(len(run.ops), 1), "ratio")
    outputs = reps[0]["outputs"]
    if "eval_accuracy" in outputs:
        m["eval_accuracy"] = (outputs["eval_accuracy"], "ratio")
    if "toy_ema_eval_loss" in outputs:
        m["toy_ema_eval_loss"] = (outputs["toy_ema_eval_loss"], "loss")
    return m


# Per span name, the figures of spans.aggregate reported for it.
LAYER_FIGURES = (
    ("network.forward", ("self_s", "calls")),
    ("network.backward", ("self_s", "calls")),
    ("network.im2col", ("s",)),
    ("network.col2im", ("s",)),
    ("network.loss_and_grad", ("s",)),
    ("quantizer.quantize", ("s", "calls")),
    ("quantizer.quantize_backward", ("s", "calls")),
    ("quantizer.integer_code", ("s", "calls")),
    ("training.adam_step", ("s", "calls")),
    ("training.evaluate", ("self_s", "calls")),
    ("training.train_latent", ("s", "self_s")),
    ("training.train_qat", ("s", "self_s", "calls")),
    ("training.attach_quantizers", ("s",)),
    ("ema.ema_update", ("s", "calls")),
    ("ema.materialize_ema", ("s", "calls")),
    ("oscillation.record_step", ("s", "calls")),
    ("oscillation.run_toy", ("self_s",)),
    ("qc.fit_qc", ("self_s", "calls")),
    ("qc.qc_ablation", ("s", "self_s")),
    ("qc.absorb_corrections", ("s",)),
    ("qc.fold_network", ("s",)),
    ("checkpoint.save_checkpoint", ("s", "calls", "bytes")),
    ("checkpoint.load_checkpoint", ("s", "calls", "bytes")),
    ("datasets.gen_classification", ("s", "calls")),
    ("cli.write_csv", ("s", "rows")),
    ("cli.write_manifest", ("s",)),
    ("config.resolve_config", ("s",)),
)
FIGURE_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count", "bytes": "bytes"}


def per_layer(trace, kernels, traced_wall, untraced_wall):
    """All per-layer metrics of one traced run: name -> (value, unit)."""
    spans = trace["spans"]
    m = {}
    for name, figures in LAYER_FIGURES:
        for figure in figures:
            m[f"{name}.{figure}"] = (spans.get(name, {}).get(figure, 0), FIGURE_UNITS[figure])
    for fn in ("quantize", "quantize_backward", "integer_code"):
        seconds, calls = m[f"quantizer.{fn}.s"][0], m[f"quantizer.{fn}.calls"][0]
        m[f"quantizer.{fn}.us_per_call"] = (seconds / calls * 1e6 if calls else 0.0, "us")
    # The most bytes one flip tracker holds when train_qat or run_toy returns it.
    retained = max(spans.get(name, {}).get("tracker_bytes", 0)
                   for name in ("training.train_qat", "oscillation.run_toy"))
    m["oscillation.record_step.retained_mb"] = (retained / 2**20, "MiB")
    m["training.train_qat.calls_in_ablate"] = (trace["train_qat_calls_in_ablate"], "count")
    m["qc.qc_ablation.evaluate_calls"] = (trace["qc_ablation_evaluate_calls"], "count")
    for caller, entries in trace["grad_entries"].items():
        short = caller.split(".")[1]
        used, returned = entries["adam_step"], entries["backward"]
        m[f"network.backward.grad_used_ratio.{short}"] = (
            used / returned if returned else 0.0, "ratio")
        m[f"network.backward.grad_entries_returned.{short}"] = (returned, "count")
        m[f"training.adam_step.grad_entries_used.{short}"] = (used, "count")
    for name, value in kernels.items():
        m[name] = tuple(value)
    m["trace_overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    m["trace_uncovered_s"] = (traced_wall - trace["covered_s"], "s")
    m["trace_spans"] = (trace["span_count"], "count")
    return m


def measure(run, seconds, trace):
    """Spawn the workers for one invocation; return (metrics, reps, setups)."""
    run.spawn("warmup", "--mode", "setup")  # fills bytecode caches; not timed
    if trace:
        plain = run.repetition("untraced", trace=False)
        traced = run.repetition("traced", trace=True)
        kernels, _ = run.spawn("kernels", "--mode", "kernels")
        reps = [plain, traced]
        run.check_identical(reps)
        if plain is None or traced is None or kernels is None:
            return None, reps, []
        metrics = per_layer(traced["trace"], kernels["kernels"], traced["wall_s"], plain["wall_s"])
        return metrics, reps, []
    setups = []
    for i in range(SETUP_SPAWNS):
        _, setup = run.spawn(f"setup{i}", "--mode", "setup")
        if setup is not None:
            setups.append(setup)
    reps, began = [], time.monotonic()
    while not reps or time.monotonic() - began < seconds:
        if reps and time.monotonic() + reps[-1]["wall_s"] > run.deadline:
            break  # another repetition would overrun the time budget
        rep = run.repetition(f"rep{len(reps)}", trace=False)
        if rep is None:
            break
        reps.append(rep)
    run.check_identical(reps)
    if not reps:
        return None, reps, setups
    return end_to_end(run, setups, reps), reps, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.monotonic()

    if not (ROOT / "src" / "qatlab" / "cli.py").is_file():
        print(f"perfbench: no qatlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    run = Run(args.workload, args.seed, begin + BUDGET_S)
    metrics, reps, setups = measure(run, args.seconds, args.trace)
    failures = [(name, cause) for name, ok, cause in run.ops if not ok]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len([r for r in reps if r])} setup_samples={len(setups)}")
    if run.env:
        env = run.env
        threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
        print(f"env host={env['host']} cpus={env['cpu_count']} usable={env['cpus_usable']} "
              f"python={env['python']} numpy={env['numpy']} blas={env['blas']!r} {threads}")
    for name, (value, unit) in (metrics or {}).items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(f"operations attempted={len(run.ops)} failed={len(failures)}")
    for name, cause in failures:
        print(f"  FAILED {name}: {cause}")

    results = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": run.env, "setup_samples": setups,
        "metrics": metrics, "operations": run.ops,
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps if r],
    }, indent=1))
    print(f"results {results.relative_to(ROOT)}")

    missing = [n for n in wanted if metrics is None or n not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": len(run.ops),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
