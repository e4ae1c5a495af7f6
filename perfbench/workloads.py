"""The benchmark's workloads: set-up, one measured unit, and output checks.

Every workload builds its inputs from the seed alone and calls charqa only
through module attributes (`harness.train`, `cli.main`, ...), so that the
tracer's wrappers see every call.

- train_ref: one epoch of the full variant on the 200-clip reference corpus
  (backward-heavy over short time-stamped windows), then a separately timed
  whole-clip evaluation (forward-only over the long streams that the QAs of
  a clip share).
- ablate_grid: the 9-variant grid on a 16-clip corpus; many short trainings
  make fixed per-training costs count, and half the variants skip the visual
  stream or name injection.
- corpus_pipeline: `charqa gen` then `charqa semantics dump` with and without
  time stamps, in-process; no model runs, so corpus I/O and stream building
  dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from charqa import cli, corpus, harness
from charqa.carn import VARIANT_LABELS, ModelConfig
from charqa.corpus import GenConfig
from charqa.harness import METRICS_COLUMNS, TrainConfig

DEFAULT_SEED = 0
HELD_OUT_SEED = 7  # kept out of tuning; later speed claims must also hold on it
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

REFERENCE_MODEL = ModelConfig(d_model=32, d_ff=64)
DUMP_MODALITY = "objs_nm,rels_nm"
DUMP_MODALITY_LABEL = "Objs_nm + Rels_nm"  # what the dump writes for DUMP_MODALITY


class CheckFailed(Exception):
    """An output of the program is not what the workload must produce."""


@dataclass
class Phase:
    wall_s: float
    cpu_s: float
    start: float = 0.0  # perf_counter at entry and exit
    end: float = 0.0
    steady_s: float = 0.0  # see hostspeed.py; set by the runner


@dataclass
class Unit:
    """One measured pass of a workload."""
    ops: int
    phases: dict[str, Phase]
    outputs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.phases.values())

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.phases.values())

    @property
    def steady_s(self) -> float:
        return sum(p.steady_s for p in self.phases.values())


def timed(fn, *args, **kwargs):
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    w1, c1 = time.perf_counter(), time.process_time()
    return result, Phase(w1 - w0, c1 - c0, w0, w1, w1 - w0)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def reference_gen_config(n_clips: int, seed: int) -> GenConfig:
    """The ROADMAP reference generator settings (k=4, 2 extras, noise 0.1, rho 0.9)."""
    return GenConfig(k_principals=4, n_extras=2, n_clips=n_clips,
                     noise_sigma=0.1, cooccur_rho=0.9, seed=seed)


def round_trip_corpus(n_clips: int, seed: int, work_dir: Path):
    clips = corpus.generate_corpus(reference_gen_config(n_clips, seed))
    path = work_dir / "corpus.jsonl"
    corpus.write_corpus(clips, path)
    return corpus.read_corpus(path)


class Workload:
    name = ""
    full_clips = 0
    setup_repeats = 3

    def __init__(self, seed: int, work_dir: Path, clips: int | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.clips = clips or self.full_clips
        self.expected = self.recorded() if (seed == DEFAULT_SEED
                                            and self.clips == self.full_clips) else None

    def recorded(self) -> dict:
        """Outputs recorded for the default seed at full size."""
        return {}

    @property
    def ops_per_unit(self) -> int:
        """Operations of one unit: QA items (set by set-up), or clips."""
        return self.n_items

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Unit:
        raise NotImplementedError

    def check(self, unit: Unit, expected: dict | None) -> None:
        raise NotImplementedError

    def named(self, unit: Unit) -> dict[str, tuple[float, str]]:
        """Per-phase figures shown by name, not gated: name -> (value, unit)."""
        raise NotImplementedError


class TrainRef(Workload):
    name = "train_ref"
    full_clips = 200

    def recorded(self):
        return {"loss": 12.935858918944056, "qa_acc": 0.415, "nots_qa_acc": 0.38625}

    def setup(self):
        self.corpus = round_trip_corpus(self.clips, self.seed, self.work_dir)
        self.n_items = sum(len(c.qas) for c in self.corpus)

    def run(self):
        cfg = TrainConfig(epochs=1, batch_size=64, seed=self.seed, use_ts=True,
                          model=REFERENCE_MODEL)
        (model, report), t_train = timed(harness.train, self.corpus, cfg)
        nots, t_eval = timed(harness.evaluate, model, self.corpus, use_ts=False)
        outputs = {"loss": report.losses[0], "qa_acc": report.qa_acc,
                   "nots_qa_acc": nots.qa_acc, "n_items": report.n_items,
                   "nots_n_items": nots.n_items, "variant": report.variant}
        return Unit(self.n_items, {"train": t_train, "eval_nots": t_eval}, outputs)

    def check(self, unit, expected):
        out = unit.outputs
        _require(out["variant"] == VARIANT_LABELS[-1], f"trained variant {out['variant']!r}")
        _require(out["n_items"] == self.n_items and out["nots_n_items"] == self.n_items,
                 f"evaluated {out['n_items']}/{out['nots_n_items']} of {self.n_items} items")
        _require(math.isfinite(out["loss"]) and out["loss"] > 0, f"epoch loss {out['loss']}")
        for key in ("qa_acc", "nots_qa_acc"):
            _require(0.0 <= out[key] <= 1.0, f"{key}={out[key]} outside [0, 1]")
        if expected:
            for key, want in expected.items():
                _require(out[key] == want, f"{key}={out[key]!r}, recorded {want!r}")

    def named(self, unit):
        return {"train_items_per_s": (self.n_items / unit.phases["train"].steady_s, "1/s"),
                "eval_nots_items_per_s": (self.n_items / unit.phases["eval_nots"].steady_s,
                                          "1/s")}


class AblateGrid(Workload):
    name = "ablate_grid"
    full_clips = 16
    setup_repeats = 9  # a set-up takes under 0.1 s

    def recorded(self):
        return {"csv": (EXPECTED_DIR / f"ablate_grid_seed{DEFAULT_SEED}.csv").read_text(
            encoding="utf-8")}

    def setup(self):
        self.corpus = round_trip_corpus(self.clips, self.seed, self.work_dir)
        self.n_items = sum(len(c.qas) for c in self.corpus)

    def run(self):
        cfg = TrainConfig(epochs=1, batch_size=64, seed=self.seed, model=REFERENCE_MODEL)
        reports, t_grid = timed(harness.ablate, self.corpus, cfg)
        return Unit(self.n_items, {"grid": t_grid},
                    {"csv": harness.metrics_csv_text(reports)})

    def check(self, unit, expected):
        csv = unit.outputs["csv"]
        lines = csv.splitlines()
        _require(lines[0] == ",".join(METRICS_COLUMNS), f"header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == 2 * len(VARIANT_LABELS), f"{len(rows)} metric rows, expected 18")
        for i, row in enumerate(rows):
            want = (VARIANT_LABELS[i // 2], "1" if i % 2 == 0 else "0")
            _require((row[0], row[1]) == want, f"row {i} is {row[:2]}, expected {list(want)}")
            for value in row[2:6]:
                _require(0.0 <= float(value) <= 1.0, f"row {i}: value {value} outside [0, 1]")
        if expected:
            _require(csv == expected["csv"], "metrics CSV differs from the recorded text")

    def named(self, unit):
        return {"ablate_grid_s": (unit.phases["grid"].steady_s, "s")}


class CorpusPipeline(Workload):
    name = "corpus_pipeline"
    full_clips = 1000
    warmup_clips = 20
    setup_repeats = 5

    def recorded(self):
        return {
            "jsonl_sha256": "537b3a6bc55809d9e654467ff032f8ede1f3e4a5fbf8b0c0719838fb48137942",
            "ts_sha256": "97481cc2b42e8195beaa0dc378710afdc58373c4c556e62da97c6fca43871c11",
            "nots_sha256": "2d53b0dd83a190907d077360b981918d1edf732abd60d58903940a526caaf46f",
        }

    def _pipeline(self, n_clips: int, tag: str):
        paths = {k: self.work_dir / f"{tag}-{k}.jsonl" for k in ("corpus", "ts", "nots")}
        commands = {
            "gen": ["gen", "--out", str(paths["corpus"]), "--clips", str(n_clips),
                    "--seed", str(self.seed)],
            "dump_ts": ["semantics", "dump", "--corpus", str(paths["corpus"]),
                        "--modality", DUMP_MODALITY, "--out", str(paths["ts"]),
                        "--use-ts"],
            "dump_nots": ["semantics", "dump", "--corpus", str(paths["corpus"]),
                          "--modality", DUMP_MODALITY, "--out", str(paths["nots"]),
                          "--no-use-ts"],
        }
        phases = {}
        for phase, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code, phases[phase] = timed(cli.main, argv)
            if code != 0:
                raise RuntimeError(f"charqa {' '.join(argv[:2])} exited with {code}")
        return phases, paths

    @property
    def ops_per_unit(self):
        return self.clips

    def setup(self):
        # A small pass of the same pipeline, so that lazy set-up is done
        # before timing.
        self._pipeline(self.warmup_clips, "warmup")

    def run(self):
        phases, paths = self._pipeline(self.clips, "run")
        with open(paths["corpus"], "rb") as fh:
            n_lines = sum(1 for _ in fh)
        outputs = {"corpus_lines": n_lines,
                   "ts": _dump_lines(paths["ts"]), "nots": _dump_lines(paths["nots"])}
        for k, key in (("corpus", "jsonl_sha256"), ("ts", "ts_sha256"), ("nots", "nots_sha256")):
            outputs[key] = hashlib.sha256(paths[k].read_bytes()).hexdigest()
        return Unit(self.clips, phases, outputs)

    def check(self, unit, expected):
        out = unit.outputs
        _require(out["corpus_lines"] == self.clips,
                 f"corpus has {out['corpus_lines']} lines for {self.clips} clips")
        per_clip = len(GenConfig().qa_templates)
        want = [(f"clip{c:05d}", q) for c in range(self.clips) for q in range(per_clip)]
        for tag, use_ts in (("ts", True), ("nots", False)):
            lines = out[tag]
            _require([line[:2] for line in lines] == want,
                     f"{tag} dump has {len(lines)} lines, not one per QA item ({len(want)})")
            for i, (_, _, modality, line_ts, n_vis, n_vis_flags, n_sub, n_sub_flags) in \
                    enumerate(lines):
                _require(modality == DUMP_MODALITY_LABEL and line_ts is use_ts,
                         f"{tag} dump line {i}: modality {modality!r}, use_ts {line_ts!r}")
                _require(n_vis == n_vis_flags and n_sub == n_sub_flags,
                         f"{tag} dump line {i}: {n_vis} visual tokens, {n_vis_flags} flags; "
                         f"{n_sub} subtitle tokens, {n_sub_flags} flags")
            _require(sum(line[4] for line in lines) > 0 and sum(line[6] for line in lines) > 0,
                     f"{tag} dump has no visual or no subtitle tokens")
        if expected:
            for key, want_digest in expected.items():
                _require(out[key] == want_digest, f"{key} {out[key]}, recorded {want_digest}")

    def named(self, unit):
        return {"pipeline_clips_per_s": (self.clips / unit.steady_s, "1/s")}


def _dump_lines(path: Path) -> list[tuple]:
    """Per line of a semantics dump: clip_id, qa_index, modality, use_ts and
    the lengths of the four token and flag lists."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            lines.append((d["clip_id"], d["qa_index"], d["modality"], d["use_ts"],
                          len(d["visual_tokens"]), len(d["visual_name_flags"]),
                          len(d["subtitle_tokens"]), len(d["subtitle_name_flags"])))
    return lines


WORKLOADS = {w.name: w for w in (TrainRef, AblateGrid, CorpusPipeline)}
