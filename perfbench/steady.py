"""Steadiness report: run the benchmark on several seeds per workload
and print, for every end-to-end metric, the median and quartiles next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads fig4_replay ...]

The spread is (Q3 - Q1) / median with ``statistics.quantiles(n=4)``;
a metric is steady when its spread is within its bound (setup_s is
reported but has no spread gate).  Runs whose host facts differ from
the first run's are reported as not comparable.  Exits 1 if any run
fails or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace=0):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    report = json.loads(lines[-2].split(" ", 1)[1])
    return report, json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bad = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        facts = None
        for i in range(args.runs):
            seed = args.first_seed + i
            report, result = run_once(spec, workload, seed)
            if facts is None:
                facts = report["facts"]
            elif report["facts"] != facts:
                print(f"{workload} seed {seed}: host facts differ, not comparable: "
                      f"{report['facts']}")
                bad += 1
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
                bad += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(
                f"  {workload} seed {seed}: "
                + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" slowdown={report['host_slowdown']:.3f}"
                + f" steal={report['host_steal_share']:.3f}",
                flush=True,
            )
        print(f"{workload}: {args.runs} runs, facts {json.dumps(facts, sort_keys=True)}")
        print(f"  {'metric':<16} {'unit':<8} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = name != "setup_s"
            flag = ""
            if gated and spread > metric["bound"]:
                flag = "  OVER BOUND"
                bad += 1
            elif gated and spread > metric["bound"] / 3:
                flag = "  over a third of bound"
            print(
                f"  {name:<16} {metric['unit']:<8} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                f"{spread:8.4f} {metric['bound']:6.2f}{flag}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
