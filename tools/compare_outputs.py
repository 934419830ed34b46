"""Check that two qatlab source trees write the same bytes.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Makes the benchmark's workload calls (``perfbench/workloads.py``) for
cnn_trend, mlp_wide and toy at workload seeds 0-2 with each tree's
``qatlab.cli``, one subprocess per call, with PYTHONPATH=<tree>/src and
OMP_NUM_THREADS=1, then ``qatlab report`` over every run directory they
left, so that ``report.csv``, which no workload writes, is compared too.
Both trees write into the same output path, since the checkpoints and the
report's manifest record it.  Every file the calls leave is hashed with
sha256; a manifest is hashed as its JSON less ``wall_time_s``, so its ``final``
(the flip statistics of ``train`` and ``toy`` among them) is compared too.
Each file that differs or exists in one tree only is printed, and so is
each call that fails; the exit status is 1 if there is any, else 0.

Each call's peak RSS and minor page faults in both trees are printed too,
with the largest peak change.  They are the ``ru_maxrss`` (KiB on Linux) and
``ru_minflt`` that ``os.wait4`` reports for the call's process, which cover
the worker processes it waited for, such as ``toy``'s forked seeds.  They do
not affect the exit status.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("cnn_trend", "mlp_wide", "toy")
SEEDS = (0, 1, 2)


def run_tree(tree: Path, out: Path) -> tuple:
    """Make every workload call with ``tree``'s CLI under ``out``, then a
    report over their run directories; returns ({relative path: sha256} of
    the files left there, [failed calls], {call: (peak RSS in MiB, minor
    page faults)})."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    failed = []
    usages = {}

    def call(label, argv):
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen([sys.executable, "-m", "qatlab.cli", *argv], cwd=tree,
                                    env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            usages[label] = usage.ru_maxrss / 1024.0, usage.ru_minflt
            if proc.returncode != 0:
                err.seek(0)
                stderr = err.read().decode(errors="replace")
                failed.append(f"{label}: exit {proc.returncode} {stderr.strip()[-300:]}")

    for name in WORKLOADS:
        for seed in SEEDS:
            for c in workloads.WORKLOADS[name](seed, str(out / f"{name}-{seed}")):
                call(f"{name} seed {seed} {c['task']}", c["argv"])
    runs = sorted(str(path.parent) for path in out.rglob("manifest.json"))
    call("report", ["report", "--out", str(out / "report"), *runs])
    digests = {str(path.relative_to(out)): digest(path)
               for path in sorted(out.rglob("*")) if path.is_file()}
    return digests, failed, usages


def digest(path: Path) -> str:
    """sha256 of the file's bytes, or of a manifest's JSON less its wall time."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    runs = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        out = Path(work) / "out"
        for tree in trees:
            runs.append(run_tree(tree, out))
            shutil.rmtree(out, ignore_errors=True)
    (parent, parent_failed, parent_usage), (change, change_failed, change_usage) = runs
    # Both trees make the same calls, so both have a peak for every label.
    deltas = {label: change_usage[label][0] - peak for label, (peak, _) in parent_usage.items()}
    print("peak RSS per call, MiB, and minor page faults: parent -> change")
    for label, delta in deltas.items():
        (peak, faults), (new_peak, new_faults) = parent_usage[label], change_usage[label]
        print(f"  {label}: {peak:.2f} -> {new_peak:.2f} MiB ({delta:+.2f}),"
              f" {faults} -> {new_faults} faults")
    label = max(deltas, key=lambda k: abs(deltas[k]))
    print(f"largest peak RSS change: {label}: {deltas[label]:+.2f} MiB")
    bad = 0
    for label, failed in (("parent", parent_failed), ("change", change_failed)):
        for line in failed:
            print(f"call failed in {label}: {line}")
            bad += 1
    for path in sorted(parent.keys() | change.keys()):
        if path not in change:
            print(f"only in parent: {path}")
        elif path not in parent:
            print(f"only in change: {path}")
        elif parent[path] != change[path]:
            print(f"differs: {path}")
        else:
            continue
        bad += 1
    print(f"compared {len(parent.keys() & change.keys())} files;"
          f" {bad} difference(s) or failed call(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
