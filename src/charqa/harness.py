"""Training, evaluation (w/ and w/o time stamps), the ablation grid, and the
finite-difference gradient-check runner.

Runs are deterministic given (config, seed): batch order comes from a seeded
generator, parameter updates iterate keys in sorted order, and metrics files
are formatted with fixed precision, so identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import nn
from .carn import (VARIANT_LABELS, ModalityConfig, Model, ModelConfig, Vocab, build_vocab,
                   draw_params, init_params, param_table)
from .castlist import (DEFAULT_MAX_RATIO, CastList, build_cast_list, check_thresholds,
                       count_speakers)
from .corpus import (BBox, Clip, FaceDetection, Frame, QAItem, RelationTriple,
                     SubtitleLine, bounded, clip_view, config_kwargs, typed, validate_clip)
from .errors import (EmptyInputError, NonFiniteLossError, NumericFaultError, ShapeError,
                     numeric_faults)
from .naming import (TargetSeq, broadcast_targets, face_accuracy, naming_backward,
                     naming_forward, rkl_loss_with_grad, smoothed_onehot)

METRICS_COLUMNS = ("variant", "use_ts", "qa_acc", "qa_acc_visual",
                   "qa_acc_textual", "face_acc", "seed")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64  # scales down automatically to the corpus size
    learning_rate: float = 1e-3
    epochs: int = 10
    lam: float = 1.0
    seed: int = 0
    use_ts: bool = True
    modality: ModalityConfig = ModalityConfig()
    model: ModelConfig = ModelConfig()
    min_count: int | None = None  # None: scale the 500-line rule to corpus size
    max_ratio: float = DEFAULT_MAX_RATIO

    def __post_init__(self):
        bounded(self.batch_size, "batch_size", 1)
        bounded(self.learning_rate, "learning_rate", 0, open_low=True)
        bounded(self.epochs, "epochs", 0)
        bounded(self.lam, "lam", 0)
        bounded(self.seed, "seed", 0)
        check_thresholds(self.min_count, self.max_ratio)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["modality"] = self.modality.label()
        d["model"] = dict(self.model.__dict__)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kw = config_kwargs(cls, d, "train config")
        if "modality" in kw:
            kw["modality"] = ModalityConfig.from_label(
                typed(kw["modality"], str, "train config: modality"))
        if "model" in kw:
            kw["model"] = ModelConfig(**config_kwargs(ModelConfig, kw["model"], "model"))
        return cls(**kw)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class MetricsReport:
    variant: str
    use_ts: bool
    qa_acc: float
    qa_acc_visual: float
    qa_acc_textual: float
    face_acc: float
    seed: int
    config_hash: str = ""
    n_items: int = 0
    n_visual: int = 0
    n_textual: int = 0
    n_faces: int = 0
    losses: list = field(default_factory=list)  # per-epoch mean joint loss
    warnings: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("qa_acc", "qa_acc_visual", "qa_acc_textual", "face_acc"):
            bounded(getattr(self, name), name, 0, 1)

    def row(self) -> str:
        return ",".join([
            self.variant, str(int(self.use_ts)),
            f"{self.qa_acc:.6f}", f"{self.qa_acc_visual:.6f}",
            f"{self.qa_acc_textual:.6f}", f"{self.face_acc:.6f}", str(self.seed),
        ])

    def to_dict(self) -> dict:
        return asdict(self)


def metrics_csv_text(reports) -> str:
    lines = [",".join(METRICS_COLUMNS)] + [r.row() for r in reports]
    return "\n".join(lines) + "\n"


def write_metrics_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_csv_text(reports))


def _face_dim(corpus) -> int:
    """The size of the corpus' face embeddings, which the naming head reads.
    A corpus without faces never runs the head, so 1 serves."""
    dims = sorted({face.embedding.shape[0] for clip in corpus for face in clip.all_faces()})
    if len(dims) > 1:
        raise ShapeError(f"corpus face embeddings differ in size: {dims}")
    return dims[0] if dims else 1


# ---------------------------------------------------------------------------
# Training


@numeric_faults()
def train(corpus: list[Clip], config: TrainConfig = TrainConfig()):
    """Joint training of the reasoning network and the naming head.

    Returns (model, MetricsReport). Every clip passes corpus.validate_clip
    first, so a clip with a number out of range raises ClipError naming it.
    Each optimizer batch runs the naming head once per distinct clip, which
    gives the name assignments feeding the semantic streams and the clip's
    RKL term, then the QA part in length-sorted buckets within
    carn.ROW_BUDGET padded rows. The report is an evaluate of the trained
    model on the corpus, whose forward-only buckets take
    carn.FORWARD_ONLY_MULTIPLE times as many rows; it runs after the
    training loop's Adam moments, gradients and items are freed (_fit).
    Settings that push a computation out of float range, or a parameter
    that an Adam step leaves non-finite, raise NumericFaultError
    (errors.numeric_faults), so no poisoned model is returned.
    """
    if not corpus:
        raise EmptyInputError("corpus is empty")
    for clip in corpus:
        validate_clip(clip)
    if not any(clip.qas for clip in corpus):
        raise EmptyInputError("corpus has no QA items")

    cast = build_cast_list(count_speakers(corpus), min_count=config.min_count,
                           max_ratio=config.max_ratio)
    vocab = build_vocab(corpus, cast)
    master = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = [np.random.default_rng(s) for s in master.spawn(2)]
    model = Model(vocab, cast, config.model,
                  init_params(init_rng, vocab, cast, config.model, _face_dim(corpus)),
                  modality=config.modality, seed=config.seed)
    losses, clamped, empty_ctx = _fit(model, corpus, config, shuffle_rng)
    # The loop leaves many small objects' memory on CPython's free lists, where
    # it stays pinned; without a full collection, the peak memory of repeated
    # trainings in one process (an ablation grid) ratchets up with each one.
    gc.collect()
    report = evaluate(model, corpus, use_ts=config.use_ts)
    report.config_hash = config.hash()
    report.losses = losses
    report.warnings = {"clamped": clamped, "empty_context": empty_ctx}
    return model, report


def _fit(model: Model, corpus: list[Clip], config: TrainConfig, shuffle_rng):
    """train's epochs: Adam steps on shuffled batches of every QA item.
    Returns the mean loss of each epoch and the clamp and empty-context
    counts. The Adam moments, the last batch's gradients and the item list
    live in this call only, so train's evaluation runs without them."""
    optimizer = nn.Adam(lr=config.learning_rate)
    # Every item as loss_and_grads takes it: (clip, view, qa, clip targets).
    items = []
    for clip in corpus:
        targets = broadcast_targets(clip, model.cast, config.model.epsilon)
        items += [(clip, clip_view(clip, qa, config.use_ts), qa, targets)
                  for qa in clip.qas]

    batch_size = min(config.batch_size, len(items))
    losses = []
    clamped = 0
    empty_ctx = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(items))
        epoch_loss = 0.0
        for start in range(0, len(items), batch_size):
            batch = [items[int(i)] for i in order[start:start + batch_size]]
            grads: dict[str, np.ndarray] = {}
            results = model.loss_and_grads(batch, lam=config.lam, grads=grads)
            for (clip, *_), res in zip(batch, results):
                if not math.isfinite(res.loss):
                    raise NonFiniteLossError(f"loss became non-finite on clip {clip.clip_id}")
                epoch_loss += res.loss
                clamped += res.clamped
                empty_ctx += res.empty_context
            scale = 1.0 / len(batch)
            for k in grads:
                grads[k] = grads[k] * scale
            optimizer.step(model.params, grads)
            for k in sorted(grads):
                if not np.isfinite(model.params[k]).all():
                    raise NumericFaultError(f"numeric fault (parameter {k!r} became non-finite)")
        losses.append(epoch_loss / len(items))
    return losses, clamped, empty_ctx


def name_clips(model: Model, corpus: list[Clip]):
    """The naming pass over a corpus: each clip that has QA items or a truth
    sidecar, with the model's name assignment (one head forward) and its
    face_accuracy (correct, total) against the sidecar, (0, 0) without one.
    Each clip passes corpus.validate_clip first (ClipError naming it)."""
    for clip in corpus:
        validate_clip(clip)
        if clip.qas or clip.truth:
            names = model.name_assignments(clip)
            yield clip, names, face_accuracy(names, clip.truth or {}, model.cast)


@numeric_faults()
def evaluate(model: Model, corpus: list[Clip], use_ts: bool) -> MetricsReport:
    """Top-1 QA accuracy (overall and per question type) of the model's own
    variant, plus the face accuracy of its name assignment against the truth
    sidecar; the report carries the model's variant and seed. One name_clips
    pass checks each clip (ClipError naming it) and gives its names, which
    its items' visual streams use, and its face counts; then every item of
    the corpus goes through one forward_item call: its context streams are
    built once per distinct view, a token the vocabulary lacks embedding as
    zeros, and it runs as forward-only buckets sorted by
    carn.bucket_key, each within carn.FORWARD_ONLY_MULTIPLE *
    carn.ROW_BUDGET padded rows: no bucket keeps a cache for backward.
    Read-only on the model; NumericFaultError for a model whose activations
    leave float range."""
    if not corpus:
        raise EmptyInputError("corpus is empty")
    face_correct = face_total = 0
    items = []  # (view, qa, face names) of every QA item, in corpus order
    for clip, face_names, (c, n) in name_clips(model, corpus):
        face_correct += c
        face_total += n
        items += [(clip_view(clip, qa, use_ts), qa, face_names) for qa in clip.qas]
    if not items:
        raise EmptyInputError("corpus has no QA items")
    p_a, _ = model.forward_item(items)
    correct = {"all": 0, "visual": 0, "textual": 0}
    totals = {"all": 0, "visual": 0, "textual": 0}
    for (_, qa, _), p in zip(items, p_a):
        hit = int(np.argmax(p)) == qa.correct_index
        totals["all"] += 1
        correct["all"] += hit
        totals[qa.qtype] += 1
        correct[qa.qtype] += hit

    def acc(tag):
        return correct[tag] / totals[tag] if totals[tag] else 0.0

    return MetricsReport(
        variant=model.modality.label(), use_ts=use_ts, qa_acc=acc("all"),
        qa_acc_visual=acc("visual"), qa_acc_textual=acc("textual"),
        face_acc=face_correct / face_total if face_total else 0.0,
        seed=model.seed, n_items=totals["all"], n_visual=totals["visual"],
        n_textual=totals["textual"], n_faces=face_total,
    )


def ablate(corpus: list[Clip], config: TrainConfig = TrainConfig(),
           variants=VARIANT_LABELS):
    """Train each ablation variant once, evaluate w/ and w/o time stamps.

    Returns a list of MetricsReports, two per variant (use_ts True, False),
    in grid order. The report of config.use_ts is the one training made; only
    the other protocol is evaluated again. Both raise NumericFaultError on a
    numeric fault.
    """
    reports = []
    for label in variants:
        cfg = replace(config, modality=ModalityConfig.from_label(label))
        model, trained = train(corpus, cfg)
        for use_ts in (True, False):
            r = trained if use_ts == cfg.use_ts else evaluate(model, corpus, use_ts=use_ts)
            r.config_hash = cfg.hash()
            reports.append(r)
        del model  # the next variant trains without this one's parameters alive
    return reports


def format_report(reports) -> str:
    """Readable two-column (w/ ts, w/o ts) table with one row per variant
    and seed, in first-seen order; seeds are never mixed within a row."""
    rows: dict[tuple[str, int], dict[bool, MetricsReport]] = {}
    for r in reports:
        rows.setdefault((r.variant, r.seed), {})[r.use_ts] = r
    width = max([len("variant")] + [len(v) for v, _ in rows]) + 2
    lines = [f"{'variant':<{width}} {'seed':>6} {'w/ ts':>8} {'w/o ts':>8} {'face':>8}"]
    for (v, seed), pair in rows.items():
        w = pair.get(True)
        wo = pair.get(False)
        face = w.face_acc if w else (wo.face_acc if wo else 0.0)
        lines.append(
            f"{v:<{width}} {seed:>6} "
            f"{w.qa_acc if w else float('nan'):>8.4f} "
            f"{wo.qa_acc if wo else float('nan'):>8.4f} "
            f"{face:>8.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Gradient checks


@dataclass
class GradCheckReport:
    component: str
    tolerance: float
    worst: dict = field(default_factory=dict)  # param key -> max rel error
    kinks: dict = field(default_factory=dict)  # param key -> entries at a kink

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.worst.values())

    def merge(self, errors: dict, kinks: dict | None = None) -> None:
        """Fold in one check's worst errors and kink counts."""
        for k, v in errors.items():
            self.worst[k] = max(self.worst.get(k, 0.0), v)
        for k, n in (kinks or {}).items():
            self.kinks[k] = self.kinks.get(k, 0) + n

    def format(self) -> str:
        n_kinks = sum(self.kinks.values())
        lines = [f"[{self.component}] tolerance {self.tolerance:g} "
                 f"{'PASS' if self.passed else 'FAIL'}"
                 + (f" ({n_kinks} kink entries left out)" if n_kinks else "")]
        for k in sorted(self.worst):
            mark = "ok " if self.worst[k] <= self.tolerance else "BAD"
            kinks = self.kinks.get(k, 0)
            lines.append(f"  {mark} {k:<24} {self.worst[k]:.3e}"
                         + (f"  {kinks} kink{'s' if kinks > 1 else ''}" if kinks else ""))
        return "\n".join(lines)


def _random_distribution_instance(rng, n_faces, n_classes, epsilon):
    """Faces partitioned over frames, one smoothed target per frame; face i
    is row i of the embeddings."""
    embeddings = rng.standard_normal((n_faces, int(rng.integers(2, 6))))
    frame_of = rng.integers(0, max(1, n_faces // 2) + 1, size=n_faces)
    groups = []
    for fr in sorted(set(int(f) for f in frame_of)):
        cls = int(rng.integers(0, n_classes))
        groups.append((fr, np.flatnonzero(frame_of == fr),
                       smoothed_onehot(cls, n_classes, epsilon)))
    return embeddings, TargetSeq(groups)


def check_naming(rng, report: GradCheckReport) -> None:
    """One random config: rkl(softmax head) vs finite differences."""
    n_classes = int(rng.integers(2, 8))
    epsilon = float(rng.choice([0.01, 0.05, 0.2]))
    n_faces = int(rng.integers(1, 7))
    embeddings, targets = _random_distribution_instance(rng, n_faces, n_classes, epsilon)
    config = ModelConfig(d_h1=int(rng.integers(2, 6)))
    params = draw_params(rng, param_table(config, embeddings.shape[1], 0, n_classes), "naming.")

    def loss():
        return rkl_loss_with_grad(naming_forward(params, embeddings), targets)[0]

    rows = naming_forward(params, embeddings)
    _, drows = rkl_loss_with_grad(rows, targets)
    analytic: dict[str, np.ndarray] = {}
    naming_backward(params, embeddings, rows, drows, analytic)
    report.merge(*nn.check_gradients(loss, params, analytic, tolerance=report.tolerance))


def check_stack(rng, report: GradCheckReport, cross: bool = False) -> None:
    """One random config: scalar probe of a two-layer stack, self-attention
    over 2-6 rows ("enc") or cross-attention of 2-5 query rows over 2-5
    context rows ("dec_v"); then the same stack on a batch of 2-3 sequences
    under a random key mask that keeps at least one key per sequence."""
    heads = int(rng.choice([1, 2, 4]))
    d_model = 8
    d_ff = int(rng.integers(4, 13))
    n = int(rng.integers(2, 6 if cross else 7))
    n_c = int(rng.integers(2, 6)) if cross else 0
    prefix = "dec_v" if cross else "enc"
    table = param_table(ModelConfig(d_model=d_model, d_ff=d_ff, heads=heads), 1, 0, 1)
    params = draw_params(rng, table, prefix + ".")

    def probe_check(x, context, key_mask):
        probe = rng.standard_normal(x.shape)

        def loss():
            y, _ = nn.stack_forward(params, prefix, 2, x, context, key_mask)
            return float(np.sum(y * probe))

        _, cache = nn.stack_forward(params, prefix, 2, x, context, key_mask)
        grads: dict[str, np.ndarray] = {}
        nn.stack_backward(params, prefix, cache, probe, grads)
        report.merge(*nn.check_gradients(loss, params, grads, tolerance=report.tolerance))

    probe_check(rng.standard_normal((n, d_model)),
                rng.standard_normal((n_c, d_model)) if cross else None, None)
    b = int(rng.integers(2, 4))
    n_keys = n_c if cross else n
    key_mask = rng.random((b, n_keys)) < 0.6
    key_mask[np.arange(b), rng.integers(0, n_keys, size=b)] = True
    probe_check(rng.standard_normal((b, n, d_model)),
                rng.standard_normal((b, n_c, d_model)) if cross else None, key_mask)


def _mini_setup(rng):
    """Hand-built one-frame clip with tiny sequences for full-model checks."""
    d_f = 6
    emb = rng.standard_normal(d_f)
    emb /= np.linalg.norm(emb)
    face = FaceDetection(0, 0, BBox(10, 10, 20, 20), emb)
    human = BBox(5, 5, 30, 60)
    frame = Frame(0, 0.0, [face], [(human, "man")],
                  [("cup", None)], [RelationTriple("man", "holds", "cup", human)])
    line = SubtitleLine("Ada", ["so", "story"], 0.0, 0.9)
    # "holdz" stays out of the vocabulary, so the check also runs over an
    # unseen token: it embeds as zeros and must send no gradient.
    # The two-token answer makes the candidates unequal in length, so the
    # encoder batch carries pad rows under its key mask.
    qa = QAItem(["who", "holdz", "cup"],
                [["Ada"], ["Ben"], ["cup", "so"], ["so"], ["story"]], 0, (0.0, 0.9))
    clip = Clip("mini", [frame], [line], [qa], {0: "Ada"})
    cast = CastList(("Ada", "Ben"), (10, 5))
    vocab = Vocab(("cup", "holds", "man", "so", "story", "who"), cast.label_names())
    cfg = ModelConfig(d_model=8, d_ff=10, d_h1=5, heads=4,
                      epsilon=float(rng.choice([0.01, 0.05, 0.2])))
    model = Model(vocab, cast, cfg, init_params(rng, vocab, cast, cfg, d_f))
    return model, clip, qa


def _mini_batch(clip: Clip, qa: QAItem):
    """Twelve items: three of _mini_setup's clip and nine of a clip whose
    streams are longer, so that the contexts of a batch pad, each clip's
    context is shared by several items, and a training pass of the batch
    spans two buckets. The second clip's detections and lines repeat 15
    times, and its nine items' padded rows alone exceed carn.ROW_BUDGET:
    they go into the training buckets item by item, so that clip has items
    on both sides of a split."""
    (frame,) = clip.frames
    (face,) = frame.faces
    human = frame.human_boxes[0][0]
    face2 = FaceDetection(1, 0, face.box, np.roll(face.embedding, 1))
    frame2 = Frame(0, 0.0, [face2], [(human, "man")], [("cup", None), ("story", None)] * 15,
                   [RelationTriple("man", "holds", "cup", human),
                    RelationTriple("man", "holds", "story", human)] * 15)
    lines = [SubtitleLine("Ben", ["so", "story", "so"], 0.0, 0.9),
             SubtitleLine("Ada", ["story"], 0.5, 0.9)] * 15
    qas = [qa,
           QAItem(["who", "holds", "story"],
                  [["so"], ["story", "cup"], ["Ben"], ["Ada"], ["man"]], 2, (0.0, 0.9)),
           QAItem(["who", "so"], [["man"], ["Ben", "so"], ["story"], ["Ada"], ["cup"]], 3,
                  (0.0, 0.9)),
           QAItem(["so", "cup"], [["holds"], ["Ada", "story"], ["man", "so", "cup"], ["who"],
                                  ["Ben"]], 1, (0.0, 0.9))]
    other = Clip("mini2", [frame2], lines, (qas * 3)[:9], {1: "Ben"})
    first = Clip(clip.clip_id, clip.frames, clip.subtitles, qas[:3], clip.truth)
    return [(c, q) for c in (first, other) for q in c.qas]


def check_full(rng, report: GradCheckReport) -> None:
    """One random config: joint CE + lambda*RKL on a tiny handmade item,
    then summed over _mini_batch's twelve items from two clips. The
    gradient pass runs as training runs it (buckets within carn.ROW_BUDGET
    padded rows, so the second clip's items fall into two of them); the
    finite-difference loss runs forward-only buckets, as an evaluation
    does, which take carn.FORWARD_ONLY_MULTIPLE times as many rows."""
    model, clip, qa = _mini_setup(rng)
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    for pairs in ([(clip, qa)], _mini_batch(clip, qa)):
        batch = [(c, c, q, broadcast_targets(c, model.cast, model.config.epsilon))
                 for c, q in pairs]

        def loss():
            return sum(r.loss for r in model.loss_and_grads(batch, lam=lam))

        grads: dict[str, np.ndarray] = {}
        model.loss_and_grads(batch, lam=lam, grads=grads)
        report.merge(*nn.check_gradients(loss, model.params, grads, keys=sorted(model.params),
                                        max_entries_per_tensor=2, rng=rng,
                                        tolerance=report.tolerance))


GRAD_CHECKS = {
    "naming": check_naming,
    "encoder": check_stack,
    "coattention": partial(check_stack, cross=True),
    "full": check_full,
}


def grad_check(component: str = "all", tolerance: float = 1e-4,
               n_configs: int = 10, seed: int = 0):
    """Run the finite-difference suites, one GradCheckReport per component
    that each of its checks merges into; failures are report entries.
    ConfigError for no config (a run that checks nothing would pass), a
    tolerance outside (0, inf), or a negative seed."""
    bounded(n_configs, "n_configs", 1)
    bounded(tolerance, "tolerance", 0, open_low=True)
    bounded(seed, "seed", 0)
    names = list(GRAD_CHECKS) if component == "all" else [component]
    reports = []
    for name in names:
        rep = GradCheckReport(name, tolerance)
        spawn = sorted(GRAD_CHECKS).index(name)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(spawn,)))
        for _ in range(n_configs):
            GRAD_CHECKS[name](rng, rep)
        reports.append(rep)
    return reports


__all__ = [
    "METRICS_COLUMNS", "TrainConfig", "MetricsReport",
    "write_metrics_csv", "metrics_csv_text", "train", "name_clips", "evaluate",
    "ablate", "format_report", "GradCheckReport",
    "check_naming", "check_stack", "check_full", "grad_check", "GRAD_CHECKS",
]
