"""charqa benchmark: one workload, measured for about --seconds seconds.

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; charqa is imported from its `src/`. Load is
a closed loop in this one process with one BLAS thread: each measured unit
starts when the previous one has finished, and units repeat while another
one fits in --seconds (at least one runs). Every unit's outputs are checked.
Set-up runs several times and reports its median; units report the median
of their rates. Times are host-speed corrected "steady seconds" (see
hostspeed.py); raw wall and CPU time are printed beside them.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones:
setup_s, ops_per_s (QA items, or clips for corpus_pipeline, per steady
second of the measured phases) and peak_rss_mb. With --trace 1 one untraced
unit is followed by one traced unit, and the metrics are the per-layer ones
(spans go to .bench_out/). The lines before it show the environment, each
phase's times, the per-layer table when tracing, and as
`metric <name> <value> <unit>` the end-to-end metrics and the per-phase
figures (train_items_per_s, eval_nots_items_per_s, ablate_grid_s,
pipeline_clips_per_s, failed_ratio).
"""

import os

# One BLAS thread, fixed before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _import_charqa():
    """Import charqa from this checkout's src/ only; exit nonzero when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import charqa
    except ImportError as e:
        sys.exit(f"error: cannot import charqa from {src}: {e}")
    if Path(charqa.__file__).resolve().parent.parent != src:
        sys.exit(f"error: charqa imported from {charqa.__file__}, not from {src}")


_import_charqa()

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log(line: str) -> None:
    print(line, flush=True)


def _log_unit(i: int, unit, label: str = "unit") -> None:
    parts = [f"{name} wall {p.wall_s:.4f} s cpu {p.cpu_s:.4f} s steady {p.steady_s:.4f} s"
             for name, p in unit.phases.items()]
    _log(f"{label} {i}: " + " | ".join(parts))


def steady(probe, phase) -> float:
    return probe.steady_seconds(phase.start, phase.end)


def run(name: str, seed: int, seconds: float, trace: bool, clips: int | None = None):
    """Set up and measure one workload. Returns (result dict, exit code)."""
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, work_dir, clips)
    _log("env " + json.dumps(environment(), sort_keys=True))
    _log(f"workload {name} seed {seed} clips {wl.clips} seconds {seconds} trace {int(trace)}")

    setup_times = []
    units = []
    attempted = failed = 0
    correct = True
    per_layer = {}
    try:
        with hostspeed.SpeedProbe() as probe:
            for _ in range(wl.setup_repeats):
                _, phase = workloads.timed(wl.setup)
                setup_times.append(steady(probe, phase))
            _log("setup_s runs " + " ".join(f"{t:.4f}" for t in setup_times))

            t0 = time.perf_counter()
            while True:
                attempted += wl.ops_per_unit
                unit = wl.run()
                wl.check(unit, wl.expected)
                unit.outputs = {}  # so that peak RSS does not grow with the number of units
                for p in unit.phases.values():
                    p.steady_s = steady(probe, p)
                units.append(unit)
                _log_unit(len(units), unit)
                mean_unit = (time.perf_counter() - t0) / len(units)
                if trace or time.perf_counter() - t0 + mean_unit > seconds:
                    break

            if trace:
                attempted += wl.ops_per_unit
                per_layer = traced_unit(wl, units[-1], probe)
    except CheckFailed as e:
        print(f"error: output check failed: {e}", file=sys.stderr)
        correct = False
    except Exception:  # a workload that raises still reports its failed operations
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not correct:  # every operation of a failing run counts as failed
        attempted = failed = max(attempted, 1)

    named = {}
    for key, (_, unit_name) in (wl.named(units[0]) if units else {}).items():
        named[key] = (statistics.median(wl.named(u)[key][0] for u in units), unit_name)
    named["failed_ratio"] = (failed / attempted if attempted else 0.0, "ratio")
    for key, (value, unit_name) in named.items():
        _log(f"metric {key} {value:.6g} {unit_name}")

    if trace:
        metrics = per_layer
    else:
        ops_rates = [u.ops / u.steady_s for u in units]
        metrics = {
            "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
            "ops_per_s": (statistics.median(ops_rates) if ops_rates else 0.0, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for key, (value, unit_name) in metrics.items():
            _log(f"metric {key} {value:.6g} {unit_name}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    return result, 0 if correct else 1


def traced_unit(wl, untraced, probe) -> dict:
    """One more set-up and unit with every layer wrapped; per-layer metrics.
    Probe time is left out of the spans; the overhead compares steady times."""
    tr = tracing.Tracer().install()
    tr.probe = probe
    try:
        with tr.span("bench.setup"):
            wl.setup()
        with tr.span("bench.run"):
            unit = wl.run()
    finally:
        tr.uninstall()
    wl.check(unit, wl.expected)
    for p in unit.phases.values():
        p.steady_s = steady(probe, p)
    _log_unit(1, unit, "traced unit")
    metrics = tracing.layer_metrics(tr, unit.steady_s, untraced.wall_s - untraced.cpu_s,
                                    untraced.steady_s)
    _log(tracing.format_table(tr))
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tr.write(spans, {"workload": wl.name, "seed": wl.seed, "env": environment(),
                     "fields": ["name", "start_s", "end_s", "parent", "item"]})
    _log(f"wrote {len(tr.names)} spans to {spans.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
