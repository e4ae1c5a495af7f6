"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a few clips, untraced and traced,
and checks that each passes its output checks, returns exactly the metrics
BENCHMARK.json names, and prints every per-phase figure, each with its unit.
Then checks that a corrupted recorded loss, CSV or digest, or a semantics
dump line with the wrong use_ts, fails the run loudly, and that a workload
that raises reports all its operations as failed. Takes about a minute; exits
nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread count and imports charqa from this checkout
import workloads

TINY_CLIPS = {"train_ref": 6, "ablate_grid": 2, "corpus_pipeline": 10}
SEED = 3

# Printed as `metric <name> <value> <unit>` lines by every untraced run,
# besides the end-to-end metrics of BENCHMARK.json.
PHASE_METRICS = {
    "train_ref": {"train_items_per_s": "1/s", "eval_nots_items_per_s": "1/s"},
    "ablate_grid": {"ablate_grid_s": "s"},
    "corpus_pipeline": {"pipeline_clips_per_s": "1/s"},
}
COMMON_METRICS = {"failed_ratio": "ratio"}


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args, **kwargs)


def _captured(fn, *args, **kwargs):
    """Run fn quietly; return its result and its `metric` lines as name -> unit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args, **kwargs)
    printed = {}
    for line in out.getvalue().splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            float(value)
            printed[name] = unit
    return result, printed


def _fail(message: str) -> None:
    sys.exit(f"smoke: FAIL: {message}")


def check_emits_every_metric(spec: dict) -> None:
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            (result, code), printed = _captured(run.run, name, SEED, 0.1, trace,
                                                clips=TINY_CLIPS[name])
            if code != 0 or not result["correct"] or result["failed"]:
                _fail(f"{name} trace={int(trace)}: exit {code}, result {result}")
            if result["attempted"] < 1:
                _fail(f"{name}: attempted {result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                _fail(f"{name} trace={int(trace)}: missing {missing}, extra {extra}, "
                      f"wrong units {wrong}")
            want_printed = dict(PHASE_METRICS[name], **COMMON_METRICS)
            if not trace:
                want_printed.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
            wrong = sorted(k for k, u in want_printed.items() if printed.get(k) != u)
            if wrong:
                _fail(f"{name} trace={int(trace)}: metric lines missing or with a wrong unit: "
                      f"{wrong}, printed {printed}")
            json.dumps(result, allow_nan=False)
            print(f"smoke: {name} trace={int(trace)} ok ({len(got)} metrics)")


def _one_unit(cls):
    work = run.OUT_DIR / "smoke-work"
    work.mkdir(parents=True, exist_ok=True)
    wl = cls(SEED, work, TINY_CLIPS[cls.name])
    _quiet(wl.setup)
    return wl, _quiet(wl.run)


def _corrupted(cls, key, corrupt) -> None:
    """The unit's own outputs pass as the recorded ones; a corrupted copy fails."""
    wl, unit = _one_unit(cls)
    wl.check(unit, {key: unit.outputs[key]})
    try:
        wl.check(unit, {key: corrupt(unit.outputs[key])})
    except workloads.CheckFailed as e:
        print(f"smoke: corrupted {cls.name} {key} rejected ({e})")
        return
    _fail(f"a corrupted {key} passed the {cls.name} checks")


def check_corruption_fails() -> None:
    _corrupted(workloads.TrainRef, "loss", lambda v: v + 1e-12)
    _corrupted(workloads.AblateGrid, "csv", lambda v: v.replace("0", "1", 1))
    for key in ("jsonl_sha256", "ts_sha256", "nots_sha256"):
        _corrupted(workloads.CorpusPipeline, key, lambda v: "0" * len(v))

    # A dump line with the wrong use_ts fails the invariant checks of any seed.
    wl, unit = _one_unit(workloads.CorpusPipeline)
    wl.check(unit, None)
    first = unit.outputs["nots"][0]
    unit.outputs["nots"][0] = first[:3] + (True,) + first[4:]
    try:
        wl.check(unit, None)
    except workloads.CheckFailed as e:
        print(f"smoke: a dump line with the wrong use_ts rejected ({e})")
    else:
        _fail("a dump line with the wrong use_ts passed the corpus_pipeline checks")

    # End to end: a wrong recorded digest fails the run, which still reports.
    cls = workloads.CorpusPipeline
    saved = cls.full_clips, cls.recorded
    cls.full_clips = TINY_CLIPS[cls.name]
    cls.recorded = lambda self: {"jsonl_sha256": "0" * 64}
    try:
        result, code = _quiet(run.run, cls.name, workloads.DEFAULT_SEED, 0.1, False)
    finally:
        cls.full_clips, cls.recorded = saved
    if code == 0 or result["correct"] or result["failed"] != result["attempted"]:
        _fail(f"a wrong recorded digest gave exit {code}, result {result}")
    print("smoke: wrong recorded digest fails the run")


def check_raise_counts_failed(spec: dict) -> None:
    cls = workloads.TrainRef
    saved = cls.run

    def boom(self):
        raise RuntimeError("injected failure")

    cls.run = boom
    try:
        result, code = _quiet(run.run, cls.name, SEED, 0.1, False, clips=TINY_CLIPS[cls.name])
    finally:
        cls.run = saved
    want = {m["name"] for m in spec["end_to_end"]}
    if (code == 0 or result["correct"] or result["attempted"] < 1
            or result["failed"] != result["attempted"] or set(result["metrics"]) != want):
        _fail(f"a raising workload gave exit {code}, result {result}")
    print("smoke: a raising workload reports all operations failed")


def main() -> int:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_emits_every_metric(spec)
    check_corruption_fails()
    check_raise_counts_failed(spec)
    shutil.rmtree(run.OUT_DIR / "smoke-work", ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
