"""The repo benchmark: typechecking size families, the served daemon and
the batch supervisor, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload families-exact --seed 1 \\
        --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  ``--trace 0``
measures the end-to-end metrics, with every time scaled to a host-speed
reference timed on the same CPU (``hostspeed.py``, which says why);
``--trace 1`` is a separate run that
replays every check stage by stage under benchmark-side spans and
reports the per-layer metrics (a metric whose layer the workload does
not exercise reads 0).  Every metric is printed with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every verdict is checked
against the families' hand-derived oracle, and every counterexample is
replayed through ``repro.pebble.run``; any failure makes the exit code
non-zero.  Spans of a traced run are written to
``.bench_build/perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The claimed complexity of each family's route (docs/algorithms.md),
#: printed next to the fitted growth exponent.
CLAIMS = {
    "families-auto": "copy: fast-td, O(|Q_T|·|τ1|·|det τ2|); others: "
                     "lazy-backward, reachable summary × |τ1|",
    "families-exact": "Thm 4.7 regularization, non-elementary in k "
                      "(k = 1 here: exponential at most)",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as bench
    from perfbench.hostspeed import REFERENCE_MS, pin_to_one_cpu

    cpu = pin_to_one_cpu()

    scratch = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        trace = bool(args.trace)
        if args.workload.startswith("families-"):
            out = bench.run_families(args.workload[len("families-"):],
                                     args.seed, args.seconds, trace)
        elif args.workload == "served":
            out = bench.run_served(args.seed, args.seconds, trace, scratch)
        else:
            out = bench.run_batch(args.seed, args.seconds, trace, scratch)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(out.problems)
    # Where each latency is an instance's or job's own, each enters the
    # percentiles once, at its median over the run: all of them run equally
    # often, and with an even number of them the median of the pooled
    # samples falls in the gap between two instances' costs, where it is
    # set by the two most extreme samples.  Otherwise every sample counts.
    by_kind: dict = {}
    for index, ms in enumerate(out.latencies_ms):
        kind = out.kinds[index] if out.kinds else index
        by_kind.setdefault(kind, []).append(ms)
    typical = {kind: statistics.median(ms) for kind, ms in by_kind.items()}
    p90 = statistics.quantiles(typical.values(), n=10, method="inclusive")[8]
    measured = {
        "latency_ms_p50": statistics.median(typical.values()),
        "latency_ms_p90": p90,
        "throughput_per_s": out.attempted / out.busy_s,
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": out.peak_rss_mb,
    }
    layer = dict(out.layer)
    layer["failed_share"] = failed / out.attempted
    layer["import.repro_s"] = statistics.median(out.import_s)
    layer["bench.host_block_ms"] = out.host.median_ms()
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer if trace else measured
    metrics = {
        metric["name"]: {"value": float(source.get(metric["name"], 0.0)),
                         "unit": metric["unit"]}
        for metric in chosen
    }

    beyond = sum(len(by_kind[kind]) for kind, ms in typical.items()
                 if ms > p90)
    print(f"workload {args.workload}, seed {args.seed}, CPU {cpu}: "
          f"{out.attempted} units ("
          f"{f'{len(by_kind)} kinds' if out.kinds else 'pooled'}), "
          f"{out.busy_s:.2f} s busy, {failed} failed; {beyond} samples "
          "beyond p90; reference block "
          f"{out.host.median_ms():.3f} ms (times scaled to {REFERENCE_MS} ms)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    if trace and args.workload in CLAIMS:
        print(f"  growth exponents vs claim: {CLAIMS[args.workload]}")
    for line in out.drifted:
        print(f"  count drift: {line}")
    for problem in out.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    if trace:
        traces = ROOT / ".bench_build" / "perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        out.spans.write(path)
        print(f"  {len(out.spans.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
