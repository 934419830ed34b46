"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public, non-generator function defined in
the qatlab modules and rebinds each name that refers to it in any of
those modules, so calls from one module into another are recorded too.
The program itself is not changed; untraced runs never import this.

Each call records a span (name, start, end, parent) in memory.  A few
boundaries also record counts: gradient entries returned by ``backward``
and consumed by ``adam_step``, CSV rows written, checkpoint bytes, and the
bytes held by the flip tracker that ``train_qat`` and ``run_toy`` return
(its code snapshots plus ``flip_counts``).  ``aggregate`` turns the spans
into per-name calls, inclusive time, self time and counts.
"""

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = (
    "checkpoint",
    "cli",
    "config",
    "datasets",
    "ema",
    "network",
    "numeric",
    "oscillation",
    "qc",
    "quantizer",
    "training",
)

# Callers whose gradient traffic is compared: entries adam_step consumes
# against entries backward returns.
GRAD_CALLERS = ("training.train_latent", "training.train_qat", "qc.fit_qc")


def _entries(arrays):
    return sum(int(getattr(a, "size", 1)) for a in arrays)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_backward(args, kwargs, result):
    return {"entries": _entries(result.values())}


def _count_adam(args, kwargs, result):
    return {"entries": _entries(_arg(args, kwargs, 1, "params").values())}


def _count_rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 2, "rows"))}


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _tracker_bytes(tracker):
    """Bytes of the arrays an OscillationTracker holds."""
    held = sum(codes.nbytes for codes in tracker._buf)
    if tracker.flip_counts is not None:
        held += tracker.flip_counts.nbytes
    return {"tracker_bytes": held}


COUNTERS = {
    "network.backward": _count_backward,
    "training.adam_step": _count_adam,
    "cli.write_csv": _count_rows,
    "checkpoint.save_checkpoint": _count_file_bytes,
    "checkpoint.load_checkpoint": _count_file_bytes,
    # (net, ema, tracker, history) and (trace, tracker)
    "training.train_qat": lambda args, kwargs, result: _tracker_bytes(result[2]),
    "oscillation.run_toy": lambda args, kwargs, result: _tracker_bytes(result[1]),
}
# Counters aggregated as the largest value over calls, not the sum.
MAX_COUNTERS = ("tracker_bytes",)


class Tracer:
    """Records spans of wrapped qatlab functions in parallel lists."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = {}  # span index -> {counter: value}
        self._stack = [-1]
        self._patched = []  # (namespace, key, original) to restore

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        return span

    def install(self):
        modules = [importlib.import_module(f"qatlab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for key, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not key.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(f"{short}.{key}", obj)
        for mod in modules:
            ns = vars(mod)
            for key, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, key, wrappers[obj])
                elif isinstance(obj, dict):  # dispatch tables like cli.TASK_RUNNERS
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patch(obj, k, wrappers[v])

    def _patch(self, table, key, wrapper):
        self._patched.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self):
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def write(self, path):
        """Save the spans as arrays: name ids into ``names``, parent
        indices (-1 for a root span), start and end in seconds."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )


def _nearest(tracer, idx, wanted):
    """The nearest ancestor of span ``idx`` whose name is in ``wanted``."""
    p = tracer.parents[idx]
    while p >= 0:
        if tracer.names[p] in wanted:
            return tracer.names[p]
        p = tracer.parents[p]
    return None


def aggregate(tracer):
    """Per span name: calls, inclusive seconds, self seconds and summed
    counters; plus the figures that need a span's ancestry."""
    n = len(tracer.names)
    child = [0.0] * n
    covered = 0.0
    for i in range(n):
        dur = tracer.ends[i] - tracer.starts[i]
        p = tracer.parents[i]
        if p >= 0:
            child[p] += dur
        else:
            covered += dur
    by_name = {}
    for i, name in enumerate(tracer.names):
        dur = tracer.ends[i] - tracer.starts[i]
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child[i]
        for key, value in tracer.counts.get(i, {}).items():
            if key in MAX_COUNTERS:
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value

    grad = {c: {"backward": 0, "adam_step": 0} for c in GRAD_CALLERS}
    evaluate_in_ablation = 0
    train_qat_in_ablate = 0
    for i, name in enumerate(tracer.names):
        if name in ("network.backward", "training.adam_step"):
            caller = _nearest(tracer, i, GRAD_CALLERS)
            if caller is not None:
                grad[caller][name.split(".")[1]] += tracer.counts.get(i, {}).get("entries", 0)
        elif name == "training.evaluate":
            evaluate_in_ablation += _nearest(tracer, i, ("qc.qc_ablation",)) is not None
        elif name == "training.train_qat":
            train_qat_in_ablate += _nearest(tracer, i, ("cli.task_ablate",)) is not None
    return {
        "spans": by_name,
        "span_count": n,
        "covered_s": covered,
        "grad_entries": grad,
        "qc_ablation_evaluate_calls": evaluate_in_ablation,
        "train_qat_calls_in_ablate": train_qat_in_ablate,
    }
