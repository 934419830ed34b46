"""Command-line front end: runs experiments and writes self-describing
run directories (metrics CSV, checkpoints, manifest)."""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import (
    checkpoint_to_network,
    load_checkpoint,
    network_to_checkpoint,
    save_checkpoint,
    write_atomically,
)
from .config import (
    ExperimentConfig,
    check_dataset,
    config_hash,
    config_to_dict,
    resolve_config,
)
from .datasets import Dataset, batches, build_dataset
from .ema import materialize_ema
from .network import build_cnn, build_mlp, forward
from .numeric import Rng
from .oscillation import flip_stats, run_toys
from .qc import ABLATION_VARIANTS, absorb_corrections, fit_qc, fold_network, qc_ablation
from .training import EVAL_BATCH, attach_quantizers, check_batch_fits, evaluate, shape_inputs
from .training import train_latent, train_qat

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUT_ENV = "QATLAB_OUT"

# The most toy seeds one loop steps together.  Eight amortise the loop's
# per-call cost; each seed holds about 4 MB of arrays at 10,000 steps.
TOY_SEEDS_PER_LOOP = 8

# Canonical order for metrics columns and report method rows.
METRIC_COLUMNS = (
    "epoch",
    "train_loss",
    "eval_loss",
    "eval_accuracy",
    "ema_eval_loss",
    "ema_eval_accuracy",
)
METHOD_ORDER = ("plain", "dampening", "ema", "qc", "ema_qc")


def _quoted(text):
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it: in quotes, with its
    quotes doubled, if it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(cells):
    """One CSV row of text cells.  csv quotes a row's one empty cell, so
    that the row is not blank."""
    return (",".join(cells) if cells != [""] else '""') + "\r\n"


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (sequences, or dicts keyed by the
    header, a missing key being None) as ``csv.writer`` writes them: a cell
    is its ``str``, and None an empty cell.  A native float or int needs no
    quotes; any other cell goes through ``_quoted``."""

    def write(fh):
        fh.write(_line([_quoted(str(col)) for col in header]))
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(col) for col in header]
            fh.write(_line([str(v) if type(v) is float or type(v) is int
                            else "" if v is None else _quoted(str(v)) for v in row]))

    write_atomically(path, write)


def out_root(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out_dir or os.environ.get(OUT_ENV, "runs"))


def run_dir_for(cfg: ExperimentConfig, seed) -> Path:
    name = cfg.task if seed is None else f"{cfg.task}-seed{seed}"
    d = out_root(cfg) / name
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_manifest(run_dir, cfg, seed, wall, artifacts, status="ok", error=None, **extra):
    manifest = {
        "package_version": __version__,
        "task": cfg.task,
        "seed": seed,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "status": status,
        "wall_time_s": wall,
        "artifacts": sorted(artifacts),
    }
    if error is not None:
        manifest["error"] = error
    manifest.update(extra)

    def write(fh):
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_atomically(Path(run_dir) / "manifest.json", write)
    return manifest


def _network_io(dataset: Dataset) -> tuple:
    """(input features, outputs, loss) of a network for ``dataset``."""
    if dataset.task == "classification":
        return dataset.inputs.shape[1], int(dataset.targets.max()) + 1, "softmax_ce"
    return dataset.inputs.shape[1], dataset.targets.shape[1], "mse"


def build_network(cfg: ExperimentConfig, dataset: Dataset, seed: int):
    rng = Rng(seed).child("init")
    in_dim, out_dim, loss = _network_io(dataset)
    if cfg.network == "mlp":
        return build_mlp(in_dim, out_dim, rng=rng, loss=loss)
    if in_dim != 16:
        raise ValueError("the cnn network expects 16-feature rows shaped to 1x4x4")
    return build_cnn(in_shape=(1, 4, 4), out_dim=out_dim, rng=rng, loss=loss)


def method_name(cfg: ExperimentConfig) -> str:
    if cfg.dampening_lambda > 0:
        return "dampening"
    if cfg.ema["enabled"]:
        return "ema"
    return "plain"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def map_seeds(fn, seeds):
    """Run ``fn(seed)`` for every seed and return the results in seed order.
    Every seed runs; if any failed, the first failure in seed order is
    raised once all have finished.  The seeds run through ``map_groups``,
    one group each."""
    outcomes = map_groups(lambda group: [_outcome(fn, group[0])], [[seed] for seed in seeds])
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]


def map_groups(fn, groups):
    """Run ``fn(group)`` for every group of seeds and return the outcomes
    of all their seeds, group after group.  ``fn`` returns one ``(result,
    error)`` pair per seed of its group, in the group's order, and raises
    nothing.

    Several groups run in a pool of forked worker processes, one per usable
    CPU up to one per group.  Each seed draws only from its own
    ``Rng(seed)``, so a worker computes the same bits the parent would.
    Forking hands ``fn`` to the workers as it is, closures and
    monkeypatched module globals included; only groups and outcomes are
    pickled.  A worker that dies fails every seed of every group the pool
    had not finished with a RuntimeError.  One group, one usable CPU or no
    ``fork`` runs the groups in this process."""
    workers = min(len(groups), usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        return _forked_outcomes(fn, groups, workers)
    return [outcome for group in groups for outcome in fn(group)]


def _outcome(fn, seed):
    try:
        return fn(seed), None
    except Exception as exc:  # the other seeds still run; the caller raises it
        return None, exc


_worker_fn = None  # the per-group function, in a forked worker only


def _install_worker_fn(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(group):
    return _worker_fn(group)


def _forked_outcomes(fn, groups, workers):
    # Imported here: loading them costs every process ~17 ms of start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not the platform default, so that fn reaches the workers
    # through the initializer's arguments without being pickled.
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_worker_fn,
        initargs=(fn,),
    ) as pool:
        futures = [pool.submit(_call_worker_fn, group) for group in groups]
        outcomes = []
        for group, future in zip(groups, futures):
            try:
                outcomes += future.result()
            except BrokenProcessPool:
                outcomes += [
                    (None, RuntimeError(f"seed {seed} did not finish: a worker process died"))
                    for seed in group
                ]
            except Exception as exc:
                outcomes += [(None, exc)] * len(group)
    return outcomes


def _run_seed(cfg, seed, work, before=0.0):
    """Run ``work(seed, save)`` and give it an ``ok`` manifest; ``work``
    returns the extra manifest fields.  ``save(writer, name, *args)`` calls
    ``writer(run_dir / name, *args)`` and lists ``name`` in the manifest's
    artifacts.  If ``work`` fails, write a flagged manifest listing the
    files it saved and re-raise.  ``before`` is time spent on the seed
    before this call, which its ``wall_time_s`` includes."""
    run_dir = run_dir_for(cfg, seed)
    start = time.perf_counter() - before
    artifacts = []

    def save(writer, name, *args):
        writer(run_dir / name, *args)
        artifacts.append(name)

    try:
        extra = work(seed, save)
        write_manifest(run_dir, cfg, seed, time.perf_counter() - start, artifacts, **extra)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        wall = time.perf_counter() - start
        write_manifest(run_dir, cfg, seed, wall, artifacts, status="failed", error=str(exc))
        raise


def _per_seed(cfg, work):
    """Run ``_run_seed`` for every seed through ``map_seeds``: a failing
    seed does not stop the others, and then the first failure in seed order
    propagates so the exit code reflects its kind."""
    map_seeds(lambda seed: _run_seed(cfg, seed, work), cfg.seeds)


def _qat_run(cfg: ExperimentConfig, dataset, seed, ema_alphas=None):
    """Build the network, pretrain it for ``pretrain_epochs``, attach
    quantizers and run QAT; returns what ``train_qat`` returns."""
    net = build_network(cfg, dataset, seed)
    if cfg.pretrain_epochs:
        train_latent(net, dataset, cfg.pretrain_epochs, cfg.batch, cfg.lr, seed)
    qnet = attach_quantizers(
        net,
        dataset.calib_x,
        bits_w=cfg.bits_w,
        bits_a=cfg.bits_a,
        first_last_bits=cfg.first_last_bits,
        granularity=cfg.granularity,
    )
    return train_qat(qnet, dataset, cfg.train_config(seed), ema_alphas=ema_alphas)


def _open_checkpoint(cfg: ExperimentConfig):
    """Load ``cfg.checkpoint`` and rebuild its network and EMA state, plus
    the dataset it was trained on (falling back to the current config).
    Returns ``(ckpt, net, ema, dataset_spec, dataset)``; the spec is carried
    into checkpoints written downstream."""
    if not cfg.checkpoint:
        raise ValueError(f"the {cfg.task} task needs a checkpoint path")
    # The file exists, so whatever fails from here on is a bad file, not a
    # bad configuration.
    try:
        ckpt = load_checkpoint(cfg.checkpoint)
        net, ema = checkpoint_to_network(ckpt)
        experiment = ckpt.config.get("experiment", {})
        if not isinstance(experiment, dict):
            raise ValueError("config 'experiment' is not an object")
    except ValueError as exc:
        raise RuntimeError(f"unusable checkpoint: {exc}") from None
    spec = experiment.get("dataset")
    if spec is None:
        return ckpt, net, ema, cfg.dataset, _dataset_for(net, cfg.dataset)
    try:
        if not isinstance(spec, dict):
            raise ValueError(f"dataset must be an object, got {spec!r}")
        # Checkpoints written before dataset.mode was removed carry it, and
        # build_dataset ignores it.
        check_dataset({k: v for k, v in spec.items() if k != "mode"})
        dataset = _dataset_for(net, spec)
    except (ValueError, OSError) as exc:
        raise RuntimeError(f"unusable checkpoint: {exc}") from None
    return ckpt, net, ema, spec, dataset


def _dataset_for(net, spec: dict) -> Dataset:
    """``spec``'s data; a ValueError unless it fits ``net``'s inputs, outputs and loss."""
    dataset = build_dataset(spec)
    have = (int(np.prod(net.input_shape)), len(net.layers[-1].bias), net.loss)
    if _network_io(dataset) != have:
        raise ValueError(f"the dataset needs {_network_io(dataset)}, the network has {have}")
    return dataset


def _shadow_net(net, ema):
    """``net`` with its parameters materialized from the EMA shadows."""
    if ema is None or not ema.shadows:
        raise RuntimeError("checkpoint has no EMA shadows")
    return materialize_ema(net, ema)


def _snapshot(cfg: ExperimentConfig, seed, dataset_spec) -> dict:
    return {
        "experiment": {**config_to_dict(cfg), "dataset": dict(dataset_spec)},
        "seed": seed,
    }


def _eval_before_after(before: dict, after: dict) -> dict:
    """Two ``evaluate()`` results as row cells: ``eval_<metric>_before``
    then ``eval_<metric>_after`` for each metric."""
    row = {}
    for key in after:
        row[f"eval_{key}_before"] = before[key]
        row[f"eval_{key}_after"] = after[key]
    return row


def _toy_groups(seeds) -> list:
    """``seeds`` dealt round-robin into one group per usable CPU (up to one
    per seed), and into more groups where that would put more than
    TOY_SEEDS_PER_LOOP seeds in one."""
    n = max(min(len(seeds), usable_cpus()), -(-len(seeds) // TOY_SEEDS_PER_LOOP))
    return [seeds[i::n] for i in range(n)]


def task_toy(cfg: ExperimentConfig):
    problem = cfg.toy_problem()

    def write(save, trace, tracker):
        n = trace["w"].shape[1]
        header = (
            ["iter"]
            + [f"w_{i}" for i in range(n)]
            + [f"q_w_{i}" for i in range(n)]
            + ["s_w", "s_x", "loss", "flips"]
        )
        columns = [*trace["w"].T, *trace["q_w"].T, trace["s_w"], trace["s_x"], trace["loss"],
                   np.cumsum(trace["flips"])]
        rows = list(zip(range(len(trace["flips"])), *(c.tolist() for c in columns)))
        save(write_csv, "toy_trace.csv", header, rows)
        final = {
            "final_loss": float(trace["loss"][-1]),
            "final_eval_loss": float(trace["final_eval_loss"]),
            "final_eval_loss_ema": float(trace["final_eval_loss_ema"]),
            **flip_stats(tracker),
        }
        return {"final": final}

    def run_group(group):
        """One loop steps the group's seeds, then each seed writes its own
        files; its wall time is the loop's plus its own writing.  A seed
        alone in its group, or in a group whose loop failed, runs its own
        loop, for its own outcome and manifest."""
        start = time.perf_counter()
        results = {}
        try:
            if len(group) > 1:
                results = dict(zip(group, run_toys(problem, [Rng(seed) for seed in group])))
        except Exception:  # each seed reruns alone below and reports its own failure
            pass
        loop_s = time.perf_counter() - start if results else 0.0

        def work(seed, save):
            result = results.pop(seed, None) or run_toys(problem, [Rng(seed)])[0]
            return write(save, *result)

        return [_outcome(lambda seed: _run_seed(cfg, seed, work, loop_s), seed) for seed in group]

    groups = _toy_groups(cfg.seeds)
    outcomes = dict(zip([seed for group in groups for seed in group], map_groups(run_group, groups)))
    for seed in cfg.seeds:  # the first failure in seed order decides
        if outcomes[seed][1] is not None:
            raise outcomes[seed][1]


def task_train(cfg: ExperimentConfig):
    dataset = build_dataset(cfg.dataset)
    check_batch_fits(len(dataset.train_idx), cfg.batch,
                     max(cfg.epochs, cfg.pretrain_epochs))

    def work(seed, save):
        qnet, ema, tracker, history = _qat_run(cfg, dataset, seed)
        save(write_csv, "metrics.csv", METRIC_COLUMNS, history)
        save(save_checkpoint, "checkpoint.qat",
             network_to_checkpoint(qnet, _snapshot(cfg, seed, cfg.dataset), ema))
        final = dict(history[-1]) if history else {}
        final.update(flip_stats(tracker))
        return {"method": method_name(cfg), "bits_w": cfg.bits_w, "final": final}

    _per_seed(cfg, work)


def task_qc(cfg: ExperimentConfig):
    ckpt, net, ema, dataset_spec, dataset = _open_checkpoint(cfg)
    source = cfg.qc["source"]
    if source == "ema":
        net = _shadow_net(net, ema)
    qcfg = cfg.qc_config()

    def work(seed, save):
        calib_x, calib_y = dataset.calib_x, dataset.calib_y
        eval_x, eval_y = dataset.eval_x, dataset.eval_y
        calib_before = evaluate(net, calib_x, calib_y)
        eval_before = evaluate(net, eval_x, eval_y)
        corrected, _params = fit_qc(net, calib_x, calib_y, qcfg, seed=seed)
        calib_after = evaluate(corrected, calib_x, calib_y)
        eval_after = evaluate(corrected, eval_x, eval_y)
        row = {
            "calib_loss_before": calib_before["loss"],
            "calib_loss_after": calib_after["loss"],
            **_eval_before_after(eval_before, eval_after),
        }
        save(write_csv, "qc_metrics.csv", list(row), [row])
        save(save_checkpoint, "qc_checkpoint.qat",
             network_to_checkpoint(corrected, _snapshot(cfg, seed, dataset_spec)))
        return {
            "method": "ema_qc" if source == "ema" else "qc",
            "bits_w": ckpt.config.get("experiment", {}).get("bits_w", cfg.bits_w),
            "final": row,
        }

    _per_seed(cfg, work)


def task_fold(cfg: ExperimentConfig):
    _, net, _, dataset_spec, dataset = _open_checkpoint(cfg)

    def work(seed, save):
        frozen = net.frozen()
        merged = absorb_corrections(frozen)
        folded = fold_network(merged)
        eval_x, eval_y = dataset.eval_x, dataset.eval_y
        # In evaluate's batches, so no forward holds a whole split's activations.
        x = shape_inputs(eval_x, net.input_shape)
        diff = float(np.max([
            np.abs(forward(folded, x[i], "quantized") - forward(frozen, x[i], "quantized")).max()
            for i in batches(len(x), EVAL_BATCH, drop_last=False)
        ]))
        before = evaluate(frozen, eval_x, eval_y)
        after = evaluate(folded, eval_x, eval_y)
        row = {"max_abs_output_diff": diff, **_eval_before_after(before, after)}
        save(write_csv, "fold_report.csv", list(row), [row])
        if diff > 1e-6:
            raise RuntimeError(f"folding changed the outputs by {diff!r} (> 1e-6)")
        save(save_checkpoint, "folded_checkpoint.qat",
             network_to_checkpoint(folded, _snapshot(cfg, seed, dataset_spec)))
        return {"final": row}

    _per_seed(cfg, work)


def task_eval(cfg: ExperimentConfig):
    _, net, ema, _, dataset = _open_checkpoint(cfg)

    def work(seed, save):
        target, mode = net, cfg.eval_mode
        if mode == "ema_quantized":
            target, mode = _shadow_net(net, ema), "quantized"
        result = evaluate(
            target, dataset.eval_x, dataset.eval_y, mode=mode, k=cfg.soft_round_k
        )
        row = {"mode": cfg.eval_mode, **result}
        save(write_csv, "eval.csv", list(row), [row])
        return {"final": row}

    _per_seed(cfg, work)


def task_ablate(cfg: ExperimentConfig):
    if cfg.ablate_kind == "qc":
        _, net, ema, _, dataset = _open_checkpoint(cfg)
        if cfg.qc["source"] == "ema":
            net = _shadow_net(net, ema)

        def work(seed, save):
            table = qc_ablation(
                net, dataset, lr=cfg.qc["lr"], batch=cfg.qc["batch"], seed=seed
            )
            header = [
                "granularity",
                "variant",
                "calib_loss_before",
                "calib_loss_after",
                "eval_loss",
                "eval_accuracy",
            ]
            rows = []
            for gran in sorted(table):
                for variant in ABLATION_VARIANTS:
                    cell = dict(table[gran][variant])
                    cell.update({"granularity": gran, "variant": variant})
                    rows.append(cell)
            save(write_csv, "ablation.csv", header, rows)
            return {"final": {"cells": len(rows)}}

        _per_seed(cfg, work)
        return

    if cfg.epochs < 1:
        raise ValueError("the ema_decay ablation needs epochs >= 1")
    dataset = build_dataset(cfg.dataset)
    check_batch_fits(len(dataset.train_idx), cfg.batch,
                     max(cfg.epochs, cfg.pretrain_epochs))

    def work(seed, save):
        # EMA is passive, so one live run yields every decay's shadows.
        _, _, _, histories = _qat_run(cfg, dataset, seed, ema_alphas=cfg.ema_alphas)
        rows = []
        for alpha in cfg.ema_alphas:
            row = {"alpha": alpha}
            row.update(histories[alpha][-1])
            del row["epoch"]
            rows.append(row)
        header = ["alpha"] + [c for c in METRIC_COLUMNS if c != "epoch"]
        save(write_csv, "ema_decay.csv", header, rows)
        return {"final": {"alphas": list(cfg.ema_alphas)}}

    _per_seed(cfg, work)


def _final_metric(final: dict, prefix: str):
    """(name, value) of the eval metric a manifest's ``final`` holds under
    ``prefix``: accuracy if the run has one, else loss, a qc run's value
    after fitting over its value before.  (None, None) if there is none, a
    ValueError if the value is not a finite number."""
    for name in ("eval_accuracy", "eval_loss"):
        for key in (f"{prefix}{name}_after", f"{prefix}{name}"):
            if key in final:
                value = final[key]
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(f"{key} {value!r} is not a finite number")
                return name, float(value)
    return None, None


def _report_arms(path: Path):
    """(method, bits_w, metric name, value) of each arm an ``ok`` manifest
    reports, the last two from ``_final_metric``; none if ``path`` is
    missing or not ``ok``.  A RuntimeError if it cannot be read as one."""
    if not path.exists():
        return []  # absent cell, not an error
    try:
        with open(path) as fh:
            m = json.load(fh)
        if type(m) is not dict:
            raise ValueError("not a JSON object")
        if m.get("status") != "ok" or "method" not in m:
            return []
        method, bits, final = m["method"], m.get("bits_w"), m.get("final", {})
        if type(method) is not str or type(bits) not in (int, type(None)) or type(final) is not dict:
            raise ValueError("method must be a string, bits_w an integer or null, final an object")
        # A train run with EMA on records both arms: the live net and its shadows.
        arms = [(method, "")]
        if m.get("task") == "train" and method == "ema":
            arms = [("plain", ""), ("ema", "ema_")]
        return [(arm, bits, *_final_metric(final, prefix)) for arm, prefix in arms]
    # Bad JSON or UTF-8, JSON nested past the recursion limit, an int past float range.
    except (ValueError, RecursionError, OverflowError) as exc:
        raise RuntimeError(f"unusable manifest: {path}: {exc}") from None


def task_report(cfg: ExperimentConfig):
    start = time.perf_counter()
    groups = {}
    for run in cfg.runs:
        for method, bits, metric_name, metric in _report_arms(Path(run) / "manifest.json"):
            if metric is not None:
                groups.setdefault((method, bits, metric_name), []).append(metric)

    header = ["method", "bits_w", "metric", "runs", "mean", "spread"]
    rows = []
    order = {m: i for i, m in enumerate(METHOD_ORDER)}
    for (method, bits, metric_name) in sorted(
        groups, key=lambda k: (order.get(k[0], 99), k[1] or 0, k[2])
    ):
        vals = np.asarray(groups[(method, bits, metric_name)])
        rows.append([method, bits, metric_name, len(vals), float(vals.mean()), float(vals.std())])

    def work(seed, save):
        save(write_csv, "report.csv", header, rows)
        return {"final": {"rows": len(rows)}}

    _run_seed(cfg, None, work, time.perf_counter() - start)


TASK_RUNNERS = {
    "toy": task_toy,
    "train": task_train,
    "qc": task_qc,
    "fold": task_fold,
    "ablate": task_ablate,
    "eval": task_eval,
    "report": task_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qatlab",
        description="Desk-scale laboratory for oscillation in quantization-aware training.",
    )
    sub = parser.add_subparsers(dest="task")
    for name in TASK_RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted paths allowed)",
        )
        p.add_argument("--out", help="output root directory")
        if name == "report":
            p.add_argument("runs", nargs="*", help="run directories to aggregate")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit:
        return EXIT_CONFIG
    if ns.task is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = resolve_config(ns.config, ns.set, forced_task=ns.task)
        if ns.out:
            cfg.out_dir = ns.out
        if ns.task == "report" and getattr(ns, "runs", None):
            cfg.runs = list(cfg.runs) + list(ns.runs)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        TASK_RUNNERS[cfg.task](cfg)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, OSError, MemoryError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
