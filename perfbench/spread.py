#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload md-deep --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed (untraced) and prints, for each metric,
the median and the spread (Q3 - Q1) / median, with the quartiles taken as
Python's statistics.quantiles(values, n=4) gives them, next to the metric's
bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        if res.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed (exit {res.returncode})")
            continue
        r = json.loads(last)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds.get(k)
        flag = "" if b is None else ("ok" if spread <= b / 3 else ("within bound" if spread <= b else "OVER BOUND"))
        print(f"{k:20s} median {statistics.median(vs):12.5g}  spread {spread:7.4f}  bound {b}  {flag}")


if __name__ == "__main__":
    main()
