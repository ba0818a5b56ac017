"""One benchmark iteration in a fresh process.

Imports jgraphs from the checkout's ``src``, builds the workload's seeded
inputs, runs its operation list once, checks every answer and writes the
measurements as JSON.  A fresh process per iteration means every
iteration pays the import and the lazily filled caches, as a CLI user
does, and peak memory belongs to this workload alone.

    python3 bench/worker.py --workload verify --seed 1 --tmp DIR --result FILE [--spans FILE]

With ``--spans`` the public jgraphs functions are traced and the spans
are written to that file.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory for CLI files")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import jgraphs  # noqa: F401  (import time is part of set-up)
    import workloads

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed, Path(args.tmp))
    setup_s = perf_counter() - start

    outcome = workloads.execute(ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    result = {
        "setup_s": setup_s,
        "op_s": outcome.op_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": workloads.failures(ops, outcome),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        Path(args.spans).write_text(json.dumps(tracer.span_records()))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
