"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --seeds 1-10 [--trace-seed N] [--label TEXT] [--out FILE]

For every workload: one untraced run per seed, then (with --trace-seed) one
traced run.  Reports, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, the sample count and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json; the traced
run gives the per-layer table.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": args.label, "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        digests, correct = {}, True
        for seed in args.seeds:
            result, detail = bench(workload, seed, spec["run_seconds"], 0)
            correct = correct and result["correct"] and result["failed"] == 0
            digests[seed] = detail["sha256"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        table = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                           "spread": (q3 - q1) / med, "bound": bounds.get(name)}
            print(f"  {workload} {name}: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
                  f"  spread {(q3 - q1) / med:.2%} (bound {bounds.get(name)})", flush=True)
        entry = {"correct": correct, "end_to_end": table, "sha256": digests}
        if args.trace_seed is not None:
            result, detail = bench(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": result["correct"],
                                  "sha256": detail["sha256"],
                                  "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
