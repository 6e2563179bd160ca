"""The homlie benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

Workloads (BENCHMARK.json says why each was chosen):
  identity_suite   theorems.verify on 22 identities x 6 fixtures (132 ops)
  operator_search  12 {0,1}-grid searches and 3 relative-operator contexts
                   among 54 seeded operator verdicts (69 ops)
  cli_session      28 seeded CLI commands, one fresh process each
identity_suite and operator_search run each pass in a fresh worker process,
so the compatibility-basis cache starts empty as it does for a CLI command.

The load is closed-loop: one client, the next op starts when the previous one
ends.  Every pass repeats the same seeded inputs; passes continue until the
next one would overrun --seconds, but at least MIN_PASSES passes are timed.
Set-up (fresh interpreter, ``import homlie``, the workload's algebras built)
is timed in SETUP_PROBES separate processes.

Every time is rescaled by pace samples taken around it (see calibrate.py).
The raw medians are printed on the line before the result, with the SHA-256 of the canonical outputs, so two commits
can be compared byte for byte on one seed.  --trace 0 reports the end-to-end
metrics; --trace 1 runs one untraced and one traced pass and reports the
per-layer metrics, with trace.overhead_s = traced minus untraced pass time
(raw).  Output checks run outside the timed region; a failed one is printed
as "check failed: ..." and makes the result's "correct" false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("identity_suite", "operator_search", "cli_session")
SETUP_PROBES = 9
P90_MIN_OPS = 100
# Every pass repeats the same inputs; op-wise medians over passes drop the
# slow samples of a burst that hits one pass.
MIN_PASSES = 3
# Stop starting passes after this long, whatever the op count, to end in time.
HARD_STOP_S = 120.0


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[int, bytes, bytes, float, float]:
    """Run to completion; returns (exit code, stdout, stderr, wall seconds, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


class Run:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.pop("PERFBENCH_TRACE_DIR", None)
        self.problems: list[str] = []
        import workloads as wl
        self.wl = wl
        self.inputs_path = os.path.join(work, "inputs.json")
        if workload == "cli_session":
            self.inputs = wl.cli_session_inputs(seed, work)
        elif workload == "operator_search":
            self.inputs = wl.operator_search_inputs(seed)
        else:
            self.inputs = {"seed": seed}
        with open(self.inputs_path, "w", encoding="utf-8") as fh:
            json.dump(self.inputs, fh)

    def worker_argv(self, *extra: str) -> list[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
                self.inputs_path, *extra]

    def setup_times(self) -> dict:
        """Set-up probes as a pseudo-pass: {ops: [[name, ms, ok]], pace, pace_reference}."""
        ops, pace = [], [calibrate.spawn_sample()]
        for _ in range(SETUP_PROBES):
            code, _, err, wall, _ = run_child(self.worker_argv("--setup-only"), self.work, self.env)
            if code != 0:
                raise RuntimeError(f"set-up failed: {err.decode(errors='replace')[-2000:]}")
            pace.append(calibrate.spawn_sample())
            ops.append(["setup", wall * 1000, True])
        return {"ops": ops, "pace": pace, "pace_reference": calibrate.SPAWN_REFERENCE_S}

    def one_pass(self, trace_path: str | None = None) -> dict:
        """One pass: {wall_s, ops: [[name, ms, ok]], peak_rss_mb, digest, trace?}."""
        if self.workload == "cli_session":
            return self.cli_pass(trace_path)
        argv = self.worker_argv(*(["--trace", trace_path] if trace_path else []))
        code, out, err, _, _ = run_child(argv, self.work, self.env)
        if code != 0:
            raise RuntimeError(f"worker failed: {err.decode(errors='replace')[-2000:]}")
        result = json.loads(out.decode().strip().splitlines()[-1])
        self.problems.extend(result["problems"])
        if trace_path:
            result["trace"] = [result["trace"]]
        return result

    def cli_pass(self, trace_path: str | None) -> dict:
        env = self.env
        if trace_path:
            trace_dir = os.path.join(self.work, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            env = dict(env, PERFBENCH_TRACE_DIR=trace_dir)
        shim = os.path.join(HERE, "cli_shim.py")
        ops, outputs, rss, pace = [], [], 0.0, [calibrate.spawn_sample()]
        for k, cmd in enumerate(self.inputs["commands"]):
            if trace_path:
                env["PERFBENCH_OP"] = str(k)
            code, out, err, wall, peak = run_child([sys.executable, shim, *cmd["argv"]],
                                                   self.work, env)
            pace.append(calibrate.spawn_sample())
            rss = max(rss, peak)
            ok = code in (0, 1)
            if not ok:
                self.problems.append(f"{' '.join(cmd['argv'][:2])}: exit {code}: "
                                     f"{err.decode(errors='replace')[-500:]}")
            ops.append([" ".join(cmd["argv"][:2]), wall * 1000, ok])
            outputs.append((code, out.decode()))
        result = {"wall_s": sum(op[1] for op in ops) / 1000, "ops": ops, "pace": pace,
                  "pace_reference": calibrate.SPAWN_REFERENCE_S,
                  "peak_rss_mb": rss, "outputs": outputs,
                  "digest": self.wl.sha256_text(json.dumps(
                      [[c["argv"], code, text] for c, (code, text)
                       in zip(self.inputs["commands"], outputs)]))}
        if trace_path:
            exports = []
            for k in range(len(ops)):
                with open(os.path.join(trace_dir, f"{k}.json"), encoding="utf-8") as fh:
                    exports.append(json.load(fh))
            shutil.move(os.path.join(trace_dir, "spans.jsonl"), trace_path)
            result["trace"] = exports
        return result

    def check_cli_outputs(self, first: dict):
        """Exit codes, cohomology dimensions and deformations (outside the timed region)."""
        ok, problems = self.wl.cli_session_check(self.inputs, first["outputs"])
        for op, good in zip(first["ops"], ok):
            op[2] = op[2] and good
        self.problems.extend(problems)

    def passes(self, seconds: float) -> list[dict]:
        done: list[dict] = []
        start = time.perf_counter()
        while True:
            done.append(self.one_pass())
            elapsed = time.perf_counter() - start
            if elapsed > HARD_STOP_S:
                return done
            if len(done) >= MIN_PASSES and elapsed + elapsed / len(done) > seconds:
                return done

    def finish_checks(self, passes: list[dict]):
        if self.workload == "cli_session":
            self.check_cli_outputs(passes[0])
        digests = {p["digest"] for p in passes}
        if len(digests) != 1:
            self.problems.append(f"outputs differ between passes of one seed: {sorted(digests)}")
        for p in passes[1:]:
            for op, first in zip(p["ops"], passes[0]["ops"]):
                op[2] = op[2] and first[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def op_times(p: dict, rescaled: bool = True) -> list[float]:
    """A pass's op times in ms, rescaled to the reference pace (or raw)."""
    if not rescaled:
        return [op[1] for op in p["ops"]]
    pace, ref = p["pace"], p["pace_reference"]
    return [calibrate.rescale(op[1], pace[k], pace[k + 1], ref) for k, op in enumerate(p["ops"])]


def end_to_end(setup: dict, passes: list[dict],
               rescaled: bool = True) -> dict[str, tuple[list[float], str]]:
    """Samples per metric.  Each op's time is its median over passes; wall_s is
    one pass of those, op_p50_ms their median."""
    per_pass = [op_times(p, rescaled) for p in passes]
    op_medians = [statistics.median(column) for column in zip(*per_pass)]
    wall = sum(op_medians) / 1000
    return {
        "setup_s": ([ms / 1000 for ms in op_times(setup, rescaled)], "s"),
        "wall_s": ([wall], "s"),
        "ops_per_s": ([len(op_medians) / wall], "1/s"),
        "op_p50_ms": ([statistics.median(op_medians)], "ms"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "MB"),
    }


def op_p90_ms(passes: list[dict]) -> float:
    """Rescaled p90 op latency.  It is printed only where a run times at least
    P90_MIN_OPS ops, so that ten lie beyond it; cli_session times fewer, and a
    metric must be reported on every workload, so it is not a metric."""
    return statistics.quantiles([ms for p in passes for ms in op_times(p)], n=10)[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homlie", "__init__.py")):
        print(f"error: no homlie package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            baseline = run.one_pass()
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            if os.path.exists(spans):
                os.remove(spans)
            traced = run.one_pass(trace_path=spans)
            passes = [baseline, traced]
        else:
            setup = run.setup_times()
            passes = run.passes(args.seconds)
        run.finish_checks(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op[2])
    if args.trace:
        from layertrace import layer_metrics
        values = layer_metrics(traced["trace"])
        values["cli.import_s"] = statistics.median(
            s for ex in traced["trace"] for s in ex["import_s"])
        values["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in sorted(values.items())}
        summary = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": baseline["wall_s"],
                   "spans": sum(ex["spans"] for ex in traced["trace"])}
    else:
        metrics, summary = {}, {}
        for name, (v, unit) in end_to_end(setup, passes).items():
            q1, median, q3 = quartiles(v)
            metrics[name] = {"value": median, "unit": unit}
            summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(v)}
        summary["raw"] = {name: quartiles(v)[1]
                          for name, (v, _) in end_to_end(setup, passes, rescaled=False).items()}
        if attempted >= P90_MIN_OPS:
            summary["op_p90_ms"] = op_p90_ms(passes)
        summary["pace_s"] = statistics.median(x for p in passes for x in p["pace"])
        summary["ops"] = attempted
        summary["passes"] = len(passes)
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "sha256": passes[0]["digest"], "detail": summary}))
    print(json.dumps({"correct": not run.problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
