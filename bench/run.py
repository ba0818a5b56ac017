"""jgraphs benchmark: seeded closed-loop workloads with checked answers.

    python3 bench/run.py --workload cli --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each iteration runs in a fresh single-threaded process (bench/worker.py)
that imports jgraphs from ``src``, sets up the workload's seeded inputs,
runs the operation list once and checks every answer.  Iterations run
one after another, and no new one starts once it would run past
``--seconds`` (default: ``run_seconds`` in BENCHMARK.json); the first
always runs.  An iteration that takes longer than ITERATION_LIMIT_S is
stopped and counted as a failed operation.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import plus input construction, at its fastest over the
  run's iterations;
- ``run_s``: wall time of the operation list, each operation taken at
  its fastest over the run's iterations;
- ``max_op_s``: the slowest operation, again at its fastest;
- ``peak_rss_mb``: peak resident memory of a worker, median.

Every time is the fastest of its samples because a shared virtual
machine runs the same call up to twice as slowly for seconds or minutes
at a time; the fastest sample is the one least disturbed by that, as
with ``timeit``.  The operation lists are short (see workloads.py), so
a one-minute run gives each operation twenty or more samples.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (medians) plus
``trace.overhead_ratio``, traced ``run_s`` / untraced ``run_s`` - 1.  The
spans of the last traced iteration go to
``.bench-trace/<workload>-seed<seed>.json``.  Failed operations are
counted against attempted ones in every mode and printed as
``failed_ratio``.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "symmetric", "cli")
ITERATION_LIMIT_S = 80  # far beyond any workload's iteration; longer counts as failed

END_TO_END = {"setup_s": "s", "run_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}


class IterationFailed(Exception):
    pass


def run_worker(workload, seed, spans_path=None):
    """Run one iteration in a fresh process and return its result dict.

    The worker's files go to a directory under ``.bench-tmp`` in the
    checkout, so that the benchmark writes nothing outside it.
    """
    scratch = ROOT / ".bench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        result_path = Path(tmp) / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--tmp", tmp, "--result", str(result_path)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=ITERATION_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise IterationFailed(
                f"{workload} iteration timed out after {ITERATION_LIMIT_S} s") from None
        if proc.returncode != 0 or not result_path.exists():
            raise IterationFailed(f"{workload} worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text())


def run_workload(workload, seed, seconds, trace):
    """Iterate until the time is used up.

    Returns (iteration results by mode, attempted, failed).
    """
    modes = (False, True) if trace else (False,)
    samples = {mode: [] for mode in modes}
    attempted = failed = 0
    spans_path = ROOT / ".bench-trace" / f"{workload}-seed{seed}.json"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    start = perf_counter()
    longest = 0.0  # the longest step so far, to decide whether another fits
    while True:
        for traced in modes:
            if all(samples.values()) and perf_counter() - start + longest > seconds:
                return samples, attempted, failed
            step_start = perf_counter()
            try:
                result = run_worker(workload, seed, spans_path if traced else None)
            except IterationFailed as exc:
                print(f"FAILED {exc}", file=sys.stderr)
                return samples, attempted + 1, failed + 1
            longest = max(longest, perf_counter() - step_start)
            samples[traced].append(result)
            attempted += result["attempted"]
            failed += len(result["failures"])
            for name, reason in result["failures"]:
                print(f"FAILED {workload}: {name}: {reason}", file=sys.stderr)


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _fastest(samples):
    """Each operation's fastest wall time over the iterations."""
    return {op: min(s["op_s"][op] for s in samples) for op in samples[0]["op_s"]}


def end_to_end(samples):
    fastest = _fastest(samples)
    return {
        "setup_s": min(s["setup_s"] for s in samples),
        "run_s": sum(fastest.values()),
        "max_op_s": max(fastest.values()),
        "peak_rss_mb": _median(samples, "peak_rss_mb"),
    }


def measure(workload, seed, seconds, trace):
    """Metrics for one workload as {name: {"value", "unit"}}, plus counts."""
    samples, attempted, failed = run_workload(workload, seed, seconds, trace)
    untraced = samples[False]
    metrics = {}
    if trace and untraced and samples[True]:
        from tracing import unit

        layers = [s["layers"] for s in samples[True]]
        for name in layers[0]:
            metrics[name] = {"value": _median(layers, name), "unit": unit(name)}
        overhead = sum(_fastest(samples[True]).values()) / sum(_fastest(untraced).values()) - 1
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    elif untraced and not trace:
        for name, value in end_to_end(untraced).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
    traced_note = f" + {len(samples[True])} traced" if trace else ""
    print(f"{workload} (seed {seed}, {len(untraced)} untraced{traced_note} iterations)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if untraced and not trace:
        fastest = _fastest(untraced)
        print(f"  slowest operation: {max(fastest, key=fastest.get)}")
    print(f"  {'failed_ratio':<44} {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted})")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jgraphs" / "__init__.py").is_file():
        print(f"error: no jgraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = measure(name, args.seed, seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
