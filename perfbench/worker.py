"""One benchmark process: import qatlab from the checkout, then run.

Modes:
  setup     import ``qatlab.cli`` and stop (set-up time only)
  workload  run a workload's CLI calls through ``qatlab.cli.main``
  kernels   time the layer kernels (kernels.py)

The parent (run.py) starts each worker in a fresh process with the BLAS
and OpenMP thread variables pinned, and reads the JSON it writes to
``--result``.  Stamps are ``time.monotonic()``, which is system-wide, so
the parent can subtract its own spawn stamp from ``ready``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def environment():
    """Host, CPUs, Python, numpy and BLAS versions and the thread pins."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_workload(cli, workload, seed, out, trace_path):
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    calls = []
    for call in workloads.WORKLOADS[workload](seed, out):
        start = time.monotonic()
        error = None
        try:
            rc = cli.main(call["argv"])
        except Exception as exc:  # the CLI would exit 1 with a traceback
            rc, error = 1, f"{type(exc).__name__}: {exc}"
        calls.append(
            {**call, "rc": rc, "error": error, "start": start, "end": time.monotonic()}
        )
    result = {
        "calls": calls,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_path)
        result["trace"] = spans.aggregate(tracer)
    result["train_samples"] = train_samples(cli, calls)
    return result


def train_samples(cli, calls):
    """Samples the `train` call trains on: (pretrain + QAT epochs) x the rows
    of the full batches, with the call's own config resolved as the CLI does."""
    for call in calls:
        if call["task"] == "train":
            argv = call["argv"]
            sets = [value for flag, value in zip(argv, argv[1:]) if flag == "--set"]
            cfg = cli.resolve_config(None, sets, forced_task="train")
            rows = len(cli.build_dataset(cfg.dataset).train_x)
            return (cfg.pretrain_epochs + cfg.epochs) * (rows // cfg.batch) * cfg.batch
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "workload", "kernels"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qatlab.cli as cli

    result = {"ready": time.monotonic(), "qatlab": cli.__file__}
    if args.mode == "workload":
        result.update(run_workload(cli, args.workload, args.seed, args.out, args.trace_file))
    elif args.mode == "kernels":
        import kernels

        result["kernels"] = kernels.run()
    result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
