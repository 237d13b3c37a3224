#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

Run from the repository root:

    python3 perfbench/validate.py --seeds 501-510
    python3 perfbench/validate.py --workloads c4-analyze --seeds 1-5
    python3 perfbench/validate.py --seeds 501-510 --baseline perfbench/baseline.json

For every workload it runs the command of BENCHMARK.json with --trace 0
once per seed, fails on any incorrect run, and prints for each metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
--baseline also makes one traced run per workload (seed 1) and writes
both into the given file: all of it when every workload of
BENCHMARK.json ran, else only the entries of the workloads run.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

LINE = re.compile(r"^(e2e|info|layer)\s+(\S+)\s+(\S+)\s+(\S+)")


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{p.stdout[-2000:]}")
    metrics = {}
    for ln in lines:
        m = LINE.match(ln)
        if m:
            metrics[m.group(2)] = (float(m.group(3)), m.group(4))
    host = json.loads(lines[0].split(" ", 1)[1])
    metrics["calibration_ms"] = (host.pop("calibration_ms"), "ms")
    return res, metrics, wall, host


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--baseline", default="")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd, secs = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]

    e2e, layer, host = {}, {}, {}
    for wl in names:
        vals = {}
        for seed in a.seeds:
            res, metrics, wall, host = run(cmd, wl, seed, secs, 0)
            for k, (v, unit) in metrics.items():
                vals.setdefault(k, (unit, []))[1].append(v)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"{wl} seed {seed}: {shown} calib={metrics['calibration_ms'][0]:.1f} "
                  f"steal={metrics.get('host.steal_share', (0,))[0]:.3f} wall={wall:.0f}s", flush=True)
        e2e[wl] = {}
        for k, (unit, xs) in sorted(vals.items()):
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            e2e[wl][k] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
            if k in bounds:
                flag = "ok" if spread < bounds[k] / 3 else ("within bound" if spread <= bounds[k] else "OVER BOUND")
                print(f"  {k:12s} median {med:12.6g} {unit:4s} spread {spread:.3f} bound {bounds[k]} {flag}")
        if a.baseline:
            res, _, _, _ = run(cmd, wl, 1, secs, 1)
            layer[wl] = res["metrics"]

    if a.baseline:
        try:
            out = json.load(open(a.baseline))
        except FileNotFoundError:
            out = {}
        out.update({
            "about": "Baseline of the parent commit on the host below, measured with this benchmark "
                     "(perfbench/validate.py). end_to_end: runs per workload with seeds "
                     f"{a.seeds}, median and quartiles (statistics.quantiles n=4) of each printed "
                     "metric, gated or not. per_layer: one traced run per workload, seed 1.",
            "run_seconds": secs,
            "host": host,
        })
        if a.workloads:
            out.setdefault("end_to_end", {}).update(e2e)
            out.setdefault("per_layer", {}).update(layer)
        else:
            out["end_to_end"], out["per_layer"] = e2e, layer
        with open(a.baseline, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
