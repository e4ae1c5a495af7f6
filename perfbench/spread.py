"""Run workloads over seeds; print every metric by name and its spread.

    python3 perfbench/spread.py [--workloads train_ref,ablate_grid] [--seeds 1-10] [--out FILE]

Each run is `run.py` in its own process, one after another, so peak RSS is
per workload. Per run it prints every metric with its unit: the gated ones
of BENCHMARK.json and the per-phase figures (train_items_per_s,
eval_nots_items_per_s, ablate_grid_s, pipeline_clips_per_s, failed_ratio).
Per workload and metric it then prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the distance between
them as a share of the median, next to the metric's bound. `--seeds 0` is
the one command for all workloads on the default seed. With --out, runs and
summary are also written as JSON. Exits nonzero when any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    named = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            named[name] = {"value": float(value), "unit": unit}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": result, "named": named}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    seeds = parse_seeds(args.seeds)
    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            r = run_once(workload, seed, args.seconds)
            runs.append(r)
            good = r["exit"] == 0 and r["result"] is not None and r["result"]["correct"]
            ok = ok and good
            metrics = dict(r["named"], **(r["result"]["metrics"] if r["result"] else {}))
            print(f"{workload} seed {seed}: exit {r['exit']} {'ok' if good else 'FAILED'}: "
                  + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
                  flush=True)
            if good:
                for k, v in metrics.items():
                    values.setdefault(k, []).append(v["value"])
        summary[workload] = {k: summarise(v) for k, v in values.items()}
        if len(seeds) < 2:
            continue
        for k, s in summary[workload].items():
            bound = bounds.get(k)
            print(f"  {k:<32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['iqr_share']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1)
                                  + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
