#!/usr/bin/env python3
"""Runs the benchmark on seeds 1..10 and reports each metric's spread.

For every workload in BENCHMARK.json it runs `bash perfbench/run.sh
--workload W --seed S --seconds N --trace 0` once per seed, from the
repository root, and
prints each end-to-end metric's median, first and third quartile
(statistics.quantiles(values, n=4)), the quartile spread as a share of
the median, and the bound BENCHMARK.json sets for it. Workload-only
metrics (printed on their own lines, without a bound) are summarised
the same way.

    python3 perfbench/steadiness.py
"""
import json
import statistics
import subprocess
import sys


SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # Workload-only metrics are printed as "metric <workload>
            # <name> <value> <unit>" lines, outside the JSON result.
            for line in lines[:-1]:
                f = line.split()
                if len(f) == 5 and f[0] == "metric" and f[2] not in res["metrics"]:
                    values.setdefault(f[2], []).append(float(f[3]))
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"\n{w} (seeds {SEEDS.start}..{SEEDS.stop - 1})")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            vs = values[name]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, "-")
            flag = ""
            if bound != "-" and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
