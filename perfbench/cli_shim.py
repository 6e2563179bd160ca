"""Run one homlie CLI command in this (fresh) process.

    python3 perfbench/cli_shim.py ARGV...

Equivalent to ``python -m homlie.cli ARGV...``.  When PERFBENCH_TRACE_DIR is
set, the package is wrapped (see layertrace.py) after ``import homlie.cli``,
and the trace aggregates of the command are written to
``$PERFBENCH_TRACE_DIR/<PERFBENCH_OP>.json`` with its spans appended to
``$PERFBENCH_TRACE_DIR/spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import homlie.cli
    import_s = time.perf_counter() - t0
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        return homlie.cli.main(argv)

    from layertrace import Tracer
    tracer = Tracer()
    tracer.op = int(os.environ["PERFBENCH_OP"])
    tracer.install()
    try:
        code = homlie.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        with open(os.path.join(trace_dir, f"{tracer.op}.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.export(), import_s=[import_s]), fh)
        tracer.dump_spans(os.path.join(trace_dir, "spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
