"""One pass of an in-process workload, run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUTS_JSON [--setup-only] [--trace SPANS_JSONL]

Imports homlie, builds the workload's algebras from the inputs, then times each
operation of the pass, with a reference-loop sample (calibrate.py) before and
after each.  With --setup-only it stops after the set-up; with --trace it
wraps the package (see layertrace.py) for the timed ops only.  Prints one JSON
object: pass time, per-op latencies and verdicts, the pace samples, output
problems, the output digest, peak RSS and, when traced, the trace aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, inputs_path = argv[0], argv[1]
    t0 = time.perf_counter()
    import homlie  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    import calibrate
    import workloads as wl
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    state = getattr(wl, f"{workload}_setup")(inputs)
    if "--setup-only" in argv:
        return 0

    ops = getattr(wl, f"{workload}_ops")(inputs, state)
    tracer = None
    if "--trace" in argv:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    names, results, latencies = [], [], []
    pace = [calibrate.loop_sample()]
    for k, (name, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        latencies.append(time.perf_counter() - t)
        pace.append(calibrate.loop_sample())
        names.append(name)
        results.append(result)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok, problems, digest = getattr(wl, f"{workload}_check")(inputs, state, names, results)
    out = {"wall_s": sum(latencies), "import_s": import_s, "peak_rss_mb": peak_rss_mb,
           "ops": [[n, s * 1000, g] for n, s, g in zip(names, latencies, ok)],
           "pace": pace, "pace_reference": calibrate.LOOP_REFERENCE_S, "problems": problems, "digest": digest}
    if tracer is not None:
        out["trace"] = dict(tracer.export(), import_s=[import_s])
        tracer.dump_spans(argv[argv.index("--trace") + 1])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
