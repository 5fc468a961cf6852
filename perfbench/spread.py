#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads desk4d,rough3d --seeds 1-10 --seconds 16 --out spread.json

Runs `run.py --trace 0` once per (workload, seed), one run at a time, and
reports for each metric the median of its values and the distance between
their first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of that median.  The benchmark is steady when each spread stays below
a third of the bound BENCHMARK.json fixes for it; a spread above that is
flagged.
With `--trace-seed N` it adds one traced run per workload, so the summary
holds the per-layer breakdown as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {r.returncode}: {r.stderr[-2000:]}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    detail = HERE.parent / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["info"] = json.loads(detail.read_text())["info"]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="a range such as 1-10, or a comma-separated list")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in parse_seeds(args.seeds):
            t0 = time.monotonic()
            res = one_run(workload, seed, args.seconds)
            walls.append(time.monotonic() - t0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f} (bound {bound}){flag}")
        reported = {name: summarize([r["info"]["reported"][name]["value"] for r in runs])
                    for name in runs[0]["info"]["reported"]}
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "run_wall_s": walls,
            "metrics": metrics,
            "reported": reported,
        }
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, args.seconds, trace=1)
            summary[workload]["traced"] = {
                "seed": args.trace_seed,
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "self_time_ms": traced["info"]["self_time_ms"],
            }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
