"""Summarize the results run.py left under .perfbench/results.

    python3 perfbench/summarize.py [--json PATH]

For every workload, mode and metric: the number of runs (one per seed),
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median.  Comparing two commits means running the same
seeds on each and comparing these medians against BENCHMARK.json's bounds.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"


def summarize(paths):
    groups = {}
    env = None
    for path in sorted(paths):
        result = json.loads(path.read_text())
        env = env or result["env"]
        key = f"{result['workload']}/trace{result['trace']}"
        for name, (value, unit) in (result["metrics"] or {}).items():
            groups.setdefault(key, {}).setdefault(name, (unit, []))[1].append(value)
    table = {}
    for key, metrics in sorted(groups.items()):
        table[key] = {}
        for name, (unit, values) in metrics.items():
            med = statistics.median(values)
            row = {"unit": unit, "runs": len(values), "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            table[key][name] = row
    return {"env": env, "metrics": table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    summary = summarize(RESULTS.glob("*.json"))
    for key, metrics in summary["metrics"].items():
        print(key)
        for name, row in metrics.items():
            spread = f"spread {row['spread']:.3f}" if "spread" in row else ""
            print(f"  {name:48s} {row['median']:>14.6g} {row['unit']:10s} "
                  f"n={row['runs']:<3d} {spread}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
