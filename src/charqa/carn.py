"""Character-aware reasoning network.

The network runs on a batch of QA items; a single item is a batch of one.
The five question+answer token sequences of every item are padded to one
length and encoded by a shared two-layer self-attention encoder as one
(5B, L, d) batch, with a key mask that keeps pad rows out of attention.
Each item's encoded candidates' valid rows are stacked, and the items'
stacks are padded to one (B, N_q, d) tensor fused by co-attention decoders:
the visual decoder attends over the relation triples, then, in a second
pass through the same stack, over the objects; a second decoder then
attends over the subtitle stream. The context streams are deduplicated
across the batch and each distinct stream is encoded once by the shared
encoder. The five pooled candidate vectors of each item pass through one
self-attention block and a shared scalar head, softmaxed into answer
probabilities. Words and names share one embedding table, "embed": the
word rows, then a row per cast name and UNKNAME, trained from scratch. A
token without a row of its own embeds as zeros, as pads do, plus its
positional encoding, and trains nothing. The vocabulary is fixed when it is
built; a pass is embedded by one gather from the table, and its gradient
scattered back into the table's gradient in place by one np.add.at.

The QA loss is cross-entropy on the gold option; the naming head trains
jointly through the regularized-KL term, weighted by lambda. The head runs
once per distinct clip of a batch: its rows give both the clip's name
assignment and its RKL term, whose gradient is weighted by the clip's item
count. The QA part of a batch, and every item of an evaluation, runs
through Model.forward_item: it builds each item's context streams by one
function, Model.context_streams, once per distinct (view, names) pair, then
runs the items through one runner, run_in_buckets, which sorts them by
bucket_key (the lengths of the streams the passes pad), runs them in
buckets of neighbours that fill a budget of padded rows, so that the items
of a padded batch are of like length and a bucket of short items holds more
of them, and returns every result in input order. The budget is ROW_BUDGET
for a training pass, whose buckets keep caches for backward, and
FORWARD_ONLY_MULTIPLE times that for a forward-only pass, which keeps none.
Items with equal context streams join a bucket together, unless they alone
overflow it.

param_table writes each parameter's name, shape and initial value once, in
draw order; draw_params is the one draw, and Model.load checks a
checkpoint's shapes against the table without drawing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby, product
from typing import ClassVar

import numpy as np

from . import nn
from .castlist import CastList, map_speaker
from .corpus import Clip, QAItem, bounded, config_kwargs, strings, typed
from .errors import CheckpointError, ConfigError, SchemaVersionError, VocabError
from .naming import (assign_names, broadcast_targets, face_table, naming_backward,
                     naming_forward, rkl_loss_with_grad)
from .semantics import visual_stream

CHECKPOINT_VERSION = "charqa-ckpt-7"
PROB_FLOOR = 1e-12

# Padded rows per bucket of run_in_buckets (_BucketRows counts them) in a
# training pass: per forward/backward pass of a training batch's QA part. A
# bucket takes items until the next would push it over; it always takes one.
# Larger passes amortize numpy's per-call overhead over more rows but hold
# more activation caches at once. A training bucket's caches hold the
# attention weights, projections and FFN activations that backward reads,
# and backward runs right after the bucket's forward and frees each cache
# once it has used it, so one bucket's caches are alive at a time. Measured
# with tracemalloc at d_model 32 on the seed-1 reference corpus, one 64-item
# training batch peaks at 5.33 MB (3.84 at 600 rows, 6.42 at 1,200, 8.06 at
# 1,500). The QA items of a whole-clip view join a bucket whole, so each
# clip's streams are encoded once per pass.
ROW_BUDGET = 1000
# A forward-only pass (every evaluation, and the loss of a gradient check)
# keeps no cache: a batch holds one block's activations at a time. So its
# buckets take FORWARD_ONLY_MULTIPLE times ROW_BUDGET rows, and pay numpy's
# per-call cost a third as often. At 3,000 rows, evaluating the seed-1
# reference corpus peaks at 6.44 MB time-stamped and 4.83 MB whole-clip
# (tracemalloc), against 3.21 and 2.36 MB at 1,000; both stay below the
# 8.57 MB of one train() call on that corpus.
FORWARD_ONLY_MULTIPLE = 3


# ---------------------------------------------------------------------------
# Variants and the ablation grid


VISUAL_RUNS = ("Objs", "Objs_nm", "Rels", "Rels_nm")
# Every (object run, relation run) pair, either of which may be absent.
_RUN_SHAPES = {tuple(r for r in pair if r)
               for pair in product(("", "Objs", "Objs_nm"), ("", "Rels", "Rels_nm"))}


@dataclass(frozen=True)
class ModalityConfig:
    """A variant: whether the subtitles feed the network, and its visual
    runs, named by their label parts: at most an object run ("Objs", or
    "Objs_nm" with names injected) followed by a relation run ("Rels" or
    "Rels_nm"). The name switch is per run because the ablation grid
    includes mixed rows like Objs_nm + Rels."""

    use_sub: bool = True
    runs: tuple[str, ...] = ("Objs_nm", "Rels_nm")

    def __post_init__(self):
        if not (self.use_sub or self.runs):
            raise ConfigError("at least one modality must be enabled")
        if self.runs not in _RUN_SHAPES:
            raise ConfigError(f"visual runs {self.runs}: expected [Objs|Objs_nm] [Rels|Rels_nm]")

    def label(self) -> str:
        return " + ".join(("Sub",) * self.use_sub + self.runs)

    @classmethod
    def from_label(cls, label: str) -> "ModalityConfig":
        """The variant of a label's parts, in any order and case, joined by
        " + " or ","; ConfigError for an unknown part or two parts of one run."""
        canonical = {p.lower(): p for p in ("Sub",) + VISUAL_RUNS}
        parts = set()
        for part in [p.strip() for p in label.replace(",", " + ").split(" + ") if p.strip()]:
            if part.lower() not in canonical:
                raise ConfigError(f"unknown modality part {part!r}")
            parts.add(canonical[part.lower()])
        return cls("Sub" in parts, tuple(r for r in VISUAL_RUNS if r in parts))


VARIANT_LABELS = (
    "Sub",
    "Sub + Objs",
    "Sub + Rels",
    "Sub + Objs_nm",
    "Sub + Rels_nm",
    "Sub + Objs + Rels",
    "Sub + Objs + Rels_nm",
    "Sub + Objs_nm + Rels",
    "Sub + Objs_nm + Rels_nm",
)


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Vocab:
    """The embedding table's entries: its word rows, then its name rows.

    `rows` maps each (token, name flag) that has a table row to it: a word,
    flagged or not, to its word row, and a cast name, flagged or not, to its
    name row, past the word rows; a repeated word, or a cast name among the
    words, raises VocabError. Any other token embeds as zeros."""

    words: tuple[str, ...]
    names: tuple[str, ...]  # cast names + UNKNAME, the name rows
    rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, t in enumerate(self.words + self.names):
            if index.setdefault(t, i) != i:
                raise VocabError(f"vocabulary token {t!r} has more than one row"
                                 " (a repeated word, or a cast name among the words)")
        # A cast name read as a plain word, as in hand-written subtitle
        # text, takes its name row too.
        object.__setattr__(self, "rows", {(t, flag): i for t, i in index.items()
                                          for flag in (False, True)})


def clip_tokens(clip: Clip, cast: CastList) -> set[str]:
    """Every token a clip can feed the network, as the stream builders lay
    it out: its subtitle stream, its visual stream with both runs and no
    names injected (an injected name is a cast name), and its questions and
    answers."""
    tokens = set(subtitle_stream(clip.subtitles, cast)[0])
    tokens.update(visual_stream(clip.frames, ("Objs", "Rels"), {}, cast)[0])
    for qa in clip.qas:
        tokens.update(qa.question)
        for ans in qa.answers:
            tokens.update(ans)
    return tokens


def build_vocab(clips: list[Clip], cast: CastList) -> Vocab:
    """The vocabulary of every token the corpus can feed the network
    (clip_tokens). Cast names are excluded from the word rows: they have
    name rows. A token outside the corpus, met at evaluation time, embeds as
    zeros."""
    tokens: set[str] = set()
    for clip in clips:
        tokens |= clip_tokens(clip, cast)
    names = cast.label_names()
    return Vocab(tuple(sorted(tokens - set(names))), names)


# ---------------------------------------------------------------------------
# Token streams


def subtitle_stream(subtitles, cast: CastList):
    """Tokens of each line prefixed by its speaker mapped through the cast
    (principal name or UNKNAME), flags marking the name positions."""
    labels = cast.label_names()
    toks: list[str] = []
    flags: list[bool] = []
    for line in subtitles:
        toks.append(labels[map_speaker(line.speaker, cast)])
        flags.append(True)
        toks.extend(line.tokens)
        flags.extend(False for _ in line.tokens)
    return toks, flags


def qa_stream(question, answer, cast: CastList):
    """[question ; answer] token concatenation; cast members are names."""
    toks = list(question) + list(answer)
    return toks, [t in cast for t in toks]


# ---------------------------------------------------------------------------
# Length buckets


def bucket_key(streams, qa: QAItem) -> tuple:
    """An item's sort key: the lengths of its context streams, in pass
    order; then the streams themselves, so that items with equal streams
    (the QA items of a whole-clip view) sort side by side and a bucket
    encodes their streams once; then its question and answer tokens."""
    return (*(len(toks) for toks, _ in streams), streams,
            len(qa.question) + sum(len(a) for a in qa.answers))


class _BucketRows:
    """The padded rows Model.forward_batch runs on a bucket, as `rows`: 5B
    times the longest question+answer for the QA encoder; per pass, its
    distinct non-empty streams, by (tokens, flags), times the longest of
    them for the context encoder, and its items with a non-empty stream
    times N_q, the most question+answer rows of an item, for the decoder.
    add gives the count with more items and leaves this one as it is."""

    def __init__(self, items=0, qa_len=0, n_q=0, passes=()):
        self.items, self.qa_len, self.n_q = items, qa_len, n_q
        self.passes = passes  # per pass: (distinct streams, longest, items)
        self.rows = 5 * items * qa_len + sum(len(distinct) * longest + users * n_q
                                             for distinct, longest, users in passes)

    def add(self, streams, qas) -> _BucketRows:
        """The count with one item per QAItem of qas added, all of them with
        the context streams `streams`."""
        lengths = [[len(qa.question) + len(a) for a in qa.answers] for qa in qas]
        passes = []
        for (distinct, longest, users), (toks, flags) in zip(
                self.passes or [(frozenset(), 0, 0)] * len(streams), streams, strict=True):
            if toks:
                distinct = distinct | {(tuple(toks), tuple(flags))}
                longest, users = max(longest, len(toks)), users + len(qas)
            passes.append((distinct, longest, users))
        return _BucketRows(self.items + len(qas), max(self.qa_len, *chain(*lengths)),
                           max(self.n_q, *map(sum, lengths)), tuple(passes))


def run_in_buckets(items, run, budget) -> list:
    """run over (context streams, qa) items in buckets of at most budget
    padded rows (_BucketRows), the items sorted by (bucket_key, input
    index), so that a padded batch holds items of like length and the order
    is deterministic. Model.forward_item passes ROW_BUDGET for a training
    pass and FORWARD_ONLY_MULTIPLE times it for a forward-only one. The
    sorted items with equal context streams (a run, such as the QA items of
    a whole-clip view) join the current bucket whole if its rows stay within
    budget, or else start a new one, so that a bucket encodes each of their
    streams once. A run whose rows alone exceed budget goes item by item
    instead: a bucket takes its items until the next would push it over. A
    bucket always takes one item or run. run maps a bucket, a list of input
    indices, to one result per index. Returns the results in input order."""
    order = sorted(range(len(items)), key=lambda i: (bucket_key(*items[i]), i))
    buckets, rows = [], _BucketRows()
    for streams, same in groupby(order, key=lambda i: items[i][0]):
        same = list(same)
        whole = _BucketRows().add(streams, [items[i][1] for i in same])
        for part in [same] if whole.rows <= budget else [[i] for i in same]:
            qas = [items[i][1] for i in part]
            more = rows.add(streams, qas)
            if not buckets or more.rows > budget:
                buckets.append([])
                more = _BucketRows().add(streams, qas)
            buckets[-1] += part
            rows = more
    results = [None] * len(items)
    for bucket in buckets:
        for i, result in zip(bucket, run(bucket), strict=True):
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# Embedding (one table: word rows, then name rows)

@lru_cache(maxsize=256)
def _pe(n: int, d: int) -> np.ndarray:
    return nn.sinusoidal_positions(n, d)


def prepare_sequence(params, vocab: Vocab, tokens, flags) -> list[int]:
    """The embedding-table rows of a stream's tokens: its vocabulary row for
    a token that has one, and -1, which embeds as zeros, for any other."""
    # params is unread; perfbench's tracer reads tokens, flags as positional args 2, 3.
    rows = vocab.rows
    return [rows.get(key, -1) for key in zip(tokens, flags)]


def embed(params, vocab: Vocab, streams):
    """Embedding + sinusoidal positional encoding of (tokens, flags) streams
    as one padded (n, L, d) batch, by one gather from params["embed"], read
    in place. Returns it with its (n, L) mask and the gather's table rows,
    -1 at pads and at out-of-vocabulary tokens: both embed as zeros, pads
    without positional encoding."""
    rows = [prepare_sequence(params, vocab, toks, flags) for toks, flags in streams]
    lengths = np.array([len(r) for r in rows])
    mask = np.arange(lengths.max()) < lengths[:, None]
    idx = np.full(mask.shape, -1)
    idx[mask] = np.fromiter(chain.from_iterable(rows), int, lengths.sum())
    x = params["embed"][idx]
    x[idx < 0] = 0.0
    x += _pe(*x.shape[1:])
    x[~mask] = 0.0
    return x, mask, idx


def embed_backward(grads, params, idx, dx) -> None:
    """Accumulate dx, the gradient of embed's (n, L, d) batch, into
    grads["embed"] in place (made only if grads lacks it) by one scatter of
    the gather's valid rows, in the batch's row order; a row of -1, at pads
    and out-of-vocabulary tokens, carries none."""
    if "embed" not in grads:
        grads["embed"] = np.zeros_like(params["embed"])
    valid = idx >= 0
    np.add.at(grads["embed"], idx[valid], dx[valid])


def joint_loss(p_a: np.ndarray, gold: int, rkl: float, lam: float = 1.0):
    """-log p_a[gold] + lambda * rkl, the gold probability floored at
    PROB_FLOOR. Returns (loss, ce, clamped)."""
    bounded(rkl, "rkl", 0)
    pg = float(p_a[gold])
    ce = -float(np.log(max(pg, PROB_FLOOR)))
    return ce + lam * rkl, ce, pg < PROB_FLOOR


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    d_ff: int = 128
    d_h1: int = 64
    heads: int = 4
    epsilon: float = 0.05
    # The network's depth is part of its design, not a setting: a shared
    # two-layer encoder, two-layer co-attention decoders, a one-layer answer block.
    enc_layers: ClassVar[int] = 2
    dec_layers: ClassVar[int] = 2
    ans_layers: ClassVar[int] = 1

    def __post_init__(self):
        for name in ("d_model", "d_ff", "d_h1", "heads"):
            bounded(getattr(self, name), name, 1)
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        # Training smooths the speaker targets by epsilon, and the naming
        # loss, a KL divergence from them, is infinite at a zero target.
        bounded(self.epsilon, "epsilon", 0, 1, open_low=True, open_high=True)


@dataclass
class ItemResult:
    loss: float
    ce: float
    rkl: float
    p_a: np.ndarray
    clamped: bool = False
    empty_context: int = 0


def param_table(config: ModelConfig, d_f: int, n_words: int,
                n_classes: int) -> dict[str, tuple]:
    """Every parameter of a model, in draw order: name -> (shape, init). A
    float init is a fill; a pair (s, n) draws standard normals times s over
    sqrt(n). The stacks multiply by 1/sqrt(fan-in) and the heads divide by
    sqrt(fan-in), which round apart. n_classes is the cast plus UNKNAME; embed
    holds the n_words word rows, then the n_classes name rows (Vocab.rows)."""
    c, d = config, config.d_model
    sc = 1.0 / np.sqrt(d)
    # Attention projections start at half scale: near-uniform early
    # attention spreads gradient over the whole context, where a peaked
    # random pattern can lock onto arbitrary tokens and stall small models.
    block = {"attn.wq": ((c.heads, d, d // c.heads), (0.5 * sc, 1)),
             "attn.wk": ((c.heads, d, d // c.heads), (0.5 * sc, 1)),
             "ln1.g": ((d,), 1.0), "ln1.b": ((d,), 0.0),
             "ln2.g": ((d,), 1.0), "ln2.b": ((d,), 0.0),
             "ffn.w1": ((d, c.d_ff), (sc, 1)), "ffn.b1": ((c.d_ff,), 0.0),
             "ffn.w2": ((c.d_ff, d), (1.0 / np.sqrt(c.d_ff), 1)), "ffn.b2": ((d,), 0.0)}
    table = {"embed": ((n_words + n_classes, d), (1.0, 1))}
    for prefix, n_layers in (("enc", c.enc_layers), ("dec_v", c.dec_layers),
                             ("dec_s", c.dec_layers), ("ans", c.ans_layers)):
        table.update({f"{prefix}.l{i}.{k}": v for i in range(n_layers) for k, v in block.items()})
        table[prefix + ".lnf.g"] = ((d,), 1.0)
        # A final bias of the answer block would add one b . ans.head.w to
        # all five logits, which the softmax ignores: it would never train.
        if prefix != "ans":
            table[prefix + ".lnf.b"] = ((d,), 0.0)
    table.update({"ans.head.w": ((d,), (1.0, d)),
                  "naming.w1": ((d_f, c.d_h1), (1.0, d_f)), "naming.b1": ((c.d_h1,), 0.0),
                  "naming.w2": ((c.d_h1, n_classes), (1.0, c.d_h1)),
                  "naming.b2": ((n_classes,), 0.0)})
    return table


def draw_params(rng, table: dict[str, tuple], prefix: str = "") -> dict[str, np.ndarray]:
    """The tensors of a param_table whose names start with prefix, drawn
    from rng in table order."""
    return {name: rng.standard_normal(shape) * init[0] / np.sqrt(init[1])
            if isinstance(init, tuple) else np.full(shape, init)
            for name, (shape, init) in table.items() if name.startswith(prefix)}


def init_params(rng, vocab: Vocab, cast: CastList, config: ModelConfig,
                d_f: int) -> dict[str, np.ndarray]:
    """A model's parameters drawn from rng, the naming head's input being
    d_f-dim face embeddings."""
    return draw_params(rng, param_table(config, d_f, len(vocab.words), cast.size))


class Model:
    """Parameters + vocabulary + cast; forward/backward for batches of items.

    `modality` is the variant the network runs and `seed` the seed of the
    training run that made the parameters; checkpoints record both, and
    evaluation reads both from here."""

    def __init__(self, vocab: Vocab, cast: CastList, config: ModelConfig,
                 params: dict[str, np.ndarray], modality: ModalityConfig = ModalityConfig(),
                 seed: int = 0):
        self.vocab = vocab
        self.cast = cast
        self.config = config
        self.params = params
        self.modality = modality
        self.seed = seed

    # -- naming ----------------------------------------------------------

    def _name_faces(self, clip: Clip):
        """(face table, the head's (faces, classes) rows on it, their name
        assignment) of one head forward on a clip; a clip without faces runs none."""
        ids, table = face_table(clip)
        rows = naming_forward(self.params, table) if ids else np.zeros((0, self.cast.size))
        return table, rows, assign_names(ids, rows, self.cast)

    def name_assignments(self, clip: Clip) -> dict[int, str]:
        """Face id -> argmax name (UNKNAME faces omitted) of one head forward on the clip."""
        return self._name_faces(clip)[2]

    # -- context streams -------------------------------------------------

    def _passes(self):
        """(decoder, visual runs or None for the subtitles) per co-attention
        pass, in order: one pass per visual run, the relations first, then
        the subtitles."""
        m = self.modality
        return [("dec_v", (run,)) for run in reversed(m.runs)] + [("dec_s", None)] * m.use_sub

    def context_streams(self, view: Clip, face_names: dict[int, str]):
        """The (tokens, flags) context stream of each pass, in pass order, of
        a view whose faces are named by face_names: the one place the
        network's context streams are built."""
        return tuple(subtitle_stream(view.subtitles, self.cast) if runs is None
                     else visual_stream(view.frames, runs, face_names, self.cast)
                     for _, runs in self._passes())

    # -- QA forward ------------------------------------------------------

    def _encode(self, streams, keep_cache: bool):
        """Embed + PE + shared encoder over (tokens, flags) streams, padded
        to one (n, L, d) key-masked batch."""
        x, mask, gather = embed(self.params, self.vocab, streams)
        h, cache = nn.stack_forward(self.params, "enc", self.config.enc_layers, x,
                                    key_mask=mask, keep_cache=keep_cache)
        return h, mask, (gather, cache)

    def _encode_backward(self, cache, dh, grads):
        gather, enc_cache = cache
        dx, _ = nn.stack_backward(self.params, "enc", enc_cache, dh, grads)
        embed_backward(grads, self.params, gather, dx)

    def forward_item(self, items, backward=None):
        """Answer probabilities (N, 5) under the model's own variant of
        (view, qa, face_names) items, in input order, and each item's
        empty_context count.

        Each distinct (view, face_names) pair, by identity, has its context
        streams built once (context_streams): the QA items of a whole-clip
        view share one build. The items then run through
        run_in_buckets, sorted by bucket_key, as forward_batch batches of
        items of like length. Without backward no batch keeps an activation,
        and a batch takes up to FORWARD_ONLY_MULTIPLE * ROW_BUDGET padded
        rows; with it, each batch keeps its cache within ROW_BUDGET rows,
        and backward(indices, p_a, cache) runs right after the batch's
        forward, indices being its items' input positions. The budget is
        read from the module at each call.
        """
        # The streams are built here, inside the call that encodes them:
        # perfbench's tracer files a stream under its kind by that nesting.
        built, fed = {}, []
        for view, qa, names in items:
            key = (id(view), id(names))
            if key not in built:
                built[key] = self.context_streams(view, names)
            fed.append((built[key], qa))

        def run(bucket):
            p_a, empty_context, cache = self.forward_batch(
                [fed[i] for i in bucket], keep_cache=backward is not None)
            if backward is not None:
                backward(bucket, p_a, cache)
            return list(zip(p_a, empty_context))

        budget = ROW_BUDGET if backward is not None else FORWARD_ONLY_MULTIPLE * ROW_BUDGET
        results = run_in_buckets(fed, run, budget)
        return np.array([p_a for p_a, _ in results]), [empty for _, empty in results]

    def forward_batch(self, batch, keep_cache: bool = True):
        """Answer probabilities (B, 5) of a batch of (context streams, qa)
        items, each item's empty_context count, and the backward cache
        (None with keep_cache False: then no activation is kept for
        backward, and a forward-only batch holds one block's activations at
        a time). It builds no context stream.

        The items' context streams are deduplicated per pass by (tokens,
        flags): each distinct stream is encoded once, all of a pass's
        distinct streams as one padded batch under a key mask. The 5B
        question+answer sequences go through the encoder as one padded
        batch. Each item's candidates' valid rows are stacked and padded to
        (B, N_q, d); the co-attention decoders then run one pass per context
        in pass order, with `dec_v` over the relation run, with `dec_v` again
        over the object run, then with `dec_s` over the subtitles, each on
        the items whose context for that pass is non-empty. Pad rows never
        reach a valid row: the key mask keeps pad keys out of attention, and
        the decoders are cross-attention only, with layer norm and FFN acting
        row by row, so a batch equals its items run alone up to summation
        order. `empty_context` counts per item the enabled modalities
        (visual, subtitles) whose streams are empty. Each candidate's rows
        are mean-pooled; the (B, 5, d) pooled vectors go through the answer
        block and the scalar head.
        """
        c = self.config
        p = self.params
        modality = self.modality
        passes = self._passes()
        distinct = [{} for _ in passes]  # (tokens, flags) -> distinct stream index
        streams = [[] for _ in passes]
        users = [[] for _ in passes]  # (item, distinct stream index)
        empty_context = []
        for b, (item_streams, _) in enumerate(batch):
            has_visual = has_sub = False
            for i, ((_, runs), (toks, flags)) in enumerate(zip(passes, item_streams,
                                                                strict=True)):
                if not toks:
                    continue
                if runs is None:
                    has_sub = True
                else:
                    has_visual = True
                u = distinct[i].setdefault((tuple(toks), tuple(flags)), len(streams[i]))
                if u == len(streams[i]):
                    streams[i].append((toks, flags))
                users[i].append((b, u))
            empty_context.append(int(bool(modality.runs) and not has_visual)
                                 + int(modality.use_sub and not has_sub))

        qa_streams = [qa_stream(qa.question, ans, self.cast)
                      for _, qa in batch for ans in qa.answers]
        h_q, mask, enc_cache = self._encode(qa_streams, keep_cache)
        lengths = mask.sum(axis=1)
        rows = lengths.reshape(-1, 5).sum(axis=1)
        q_mask = np.arange(rows.max())[None, :] < rows[:, None]
        v = np.zeros(q_mask.shape + (c.d_model,))
        v[q_mask] = h_q[mask]

        dec_caches = []
        for (prefix, _), pass_streams, pass_users in zip(passes, streams, users):
            if not pass_streams:
                dec_caches.append(None)
                continue
            h, ctx_mask, ctx_cache = self._encode(pass_streams, keep_cache)
            items, u = (np.array(col) for col in zip(*pass_users))
            v[items], dec_cache = nn.stack_forward(p, prefix, c.dec_layers, v[items], h[u],
                                                   key_mask=ctx_mask[u], keep_cache=keep_cache)
            dec_caches.append((items, u, h.shape, ctx_cache, dec_cache))

        starts = np.cumsum(lengths) - lengths
        m = (np.add.reduceat(v[q_mask], starts) / lengths[:, None]).reshape(-1, 5, c.d_model)
        a, ans_cache = nn.stack_forward(p, "ans", c.ans_layers, m, keep_cache=keep_cache)
        logits = a @ p["ans.head.w"]
        p_a = nn.softmax(logits)
        cache = (mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a)
        return p_a, empty_context, cache if keep_cache else None

    def backward_item(self, cache, dlogits: np.ndarray, grads: dict) -> None:
        """Accumulate the parameter gradients of a forward_batch batch, given
        dL/dlogits (B, 5). A context stream shared by several items gets the sum of
        their context gradients before its one encoder backward. The cache
        is used up: each pass's decoder and context-encoder caches are
        dropped once the pass has run."""
        p = self.params
        mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a = cache
        d = a.shape[-1]
        grads["ans.head.w"] = grads.get("ans.head.w", 0) + a.reshape(-1, d).T @ dlogits.ravel()
        da = dlogits[..., None] * p["ans.head.w"]
        dm, _ = nn.stack_backward(p, "ans", ans_cache, da, grads)

        lengths = mask.sum(axis=1)
        dv = np.zeros(q_mask.shape + (d,))
        dv[q_mask] = np.repeat(dm.reshape(-1, d) / lengths[:, None], lengths, axis=0)
        for prefix, _ in reversed(passes):
            pass_cache = dec_caches.pop()
            if pass_cache is None:
                continue
            items, u, h_shape, ctx_cache, dec_cache = pass_cache
            dv[items], dctx = nn.stack_backward(p, prefix, dec_cache, dv[items], grads)
            dh = np.zeros(h_shape)
            np.add.at(dh, u, dctx)
            self._encode_backward(ctx_cache, dh, grads)
            # Nothing of the pass outlives it: its caches go once it has run.
            del pass_cache, ctx_cache, dec_cache, dctx, dh
        dh_q = np.zeros(mask.shape + (d,))
        dh_q[mask] = dv[q_mask]
        self._encode_backward(enc_cache, dh_q, grads)

    # -- joint loss ------------------------------------------------------

    def loss_and_grads(self, batch, lam: float = 1.0,
                       grads: dict | None = None) -> list[ItemResult]:
        """The joint objective CE + lambda * clip RKL of each item of a batch
        of (clip, view, qa, targets), targets being the clip's broadcast_targets.
        With grads, accumulates the batch's summed gradient.

        The naming step runs once per distinct clip of the batch: one face
        table and one head forward (_name_faces). Its rows give the clip's RKL
        term, which always runs over the full clip (naming supervision does
        not depend on the QA window), with its gradient weighted by the clip's
        item count; they also give the clip's name assignment, the only names
        its items' visual streams use. The assignment is discrete: no gradient
        flows through it. The QA part then runs through forward_item, which
        builds the items' context streams once per distinct (view, names)
        pair and runs forward/backward passes of items of like length within
        ROW_BUDGET padded rows, sorted by bucket_key; the parameters do not
        change within a call, so the buckets move results only by summation
        order.
        """
        clips = {}  # id(clip) -> [clip, targets, item count], in batch order
        for clip, _, _, targets in batch:
            clips.setdefault(id(clip), [clip, targets, 0])[2] += 1
        names, rkl = {}, dict.fromkeys(clips, 0.0)
        for key, (clip, targets, count) in clips.items():
            table, rows, names[key] = self._name_faces(clip)
            # No targets or a zero weight: no "naming.*" key, so Adam steps no zero gradient.
            if targets.frame_ids:
                rkl[key], drows = rkl_loss_with_grad(rows, targets)
                if grads is not None and lam * count != 0.0:
                    naming_backward(self.params, table, rows, lam * count * drows, grads)

        def backward(indices, p_a, cache):
            dlogits = p_a.copy()
            dlogits[np.arange(len(indices)), [batch[i][2].correct_index for i in indices]] -= 1.0
            self.backward_item(cache, dlogits, grads)

        p_a, empty_context = self.forward_item(
            [(view, qa, names[id(clip)]) for clip, view, qa, _ in batch],
            backward=None if grads is None else backward)
        results = []
        for (clip, _, qa, _), p, empty in zip(batch, p_a, empty_context, strict=True):
            loss, ce, clamped = joint_loss(p, qa.correct_index, rkl[id(clip)], lam)
            results.append(ItemResult(loss, ce, rkl[id(clip)], p, clamped=clamped,
                                      empty_context=empty))
        return results

    def item_loss_and_grads(self, clip: Clip, view: Clip, qa: QAItem, lam: float = 1.0,
                            grads: dict | None = None) -> ItemResult:
        """loss_and_grads of a batch of one item, its targets built from the clip."""
        # Only tests call this; perfbench's tracer wraps it by name as its item span.
        targets = broadcast_targets(clip, self.cast, self.config.epsilon)
        return self.loss_and_grads([(clip, view, qa, targets)], lam, grads)[0]

    def score(self, view: Clip, qa: QAItem, face_names: dict[int, str]) -> np.ndarray:
        """Answer probabilities of one item: forward_item on a batch of one."""
        # Only tests call this; perfbench's tracer wraps it by name as its item span.
        return self.forward_item([(view, qa, face_names)])[0][0]

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.__dict__,
            "vocab": {"words": list(self.vocab.words)},
            "cast": self.cast.to_dict(),
            "variant": self.modality.label(),
            "seed": self.seed,
        }
        # Through a handle, so a path without the .npz suffix is written as given.
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **self.params)

    @classmethod
    def load(cls, path) -> "Model":
        try:
            with open(path, "rb") as fh, np.load(fh) as z:
                meta = json.loads(bytes(z["__meta__"]).decode())
                params = {k: z[k].copy() for k in z.files if k != "__meta__"}
        except OSError:
            raise  # a file that cannot be read is reported as such
        except Exception as e:
            # numpy, zipfile and its decompressors raise many kinds of error
            # on bytes that are not a checkpoint: ValueError, KeyError,
            # EOFError, NotImplementedError and RuntimeError for a corrupt
            # zip header, zlib.error, MemoryError for a huge npy shape.
            raise CheckpointError(f"{path}: not a charqa checkpoint ({e})") from None
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != CHECKPOINT_VERSION:
            raise SchemaVersionError(f"unsupported checkpoint version {version!r}"
                                     f" (expected {CHECKPOINT_VERSION!r})")
        try:
            words = tuple(strings(meta["vocab"]["words"], "vocab words"))
            cast = CastList.from_dict(meta["cast"])
            # The name rows are the cast's names and UNKNAME, as build_vocab lays them out.
            vocab = Vocab(words, cast.label_names())
            config = ModelConfig(**config_kwargs(ModelConfig, meta["config"], "config"))
            modality = ModalityConfig.from_label(typed(meta["variant"], str, "variant"))
            seed = bounded(typed(meta["seed"], int, "seed"), "seed", 0)
            # The face size is naming.w1's row count (1 stands in for a missing
            # or empty one, which the shape check then names).
            w1 = params.get("naming.w1")
            d_f = len(w1) if w1 is not None and w1.ndim == 2 and len(w1) else 1
        except KeyError as e:
            raise CheckpointError(f"{path}: checkpoint meta lacks {e.args[0]!r}") from None
        except (TypeError, ValueError, ConfigError, VocabError) as e:
            raise CheckpointError(f"{path}: malformed checkpoint meta ({e})") from None
        # The shapes the meta's sizes give, read from the table, not drawn.
        expected = {k: v[0] for k, v in param_table(config, d_f, len(words), cast.size).items()}
        for key in sorted(expected.keys() | params.keys()):
            want, got = expected.get(key), params.get(key)
            if want is None or got is None or want != got.shape:
                raise CheckpointError(f"{path}: tensor {key!r} has shape "
                                      f"{None if got is None else got.shape}, "
                                      f"config and vocab need {want}")
            if got.dtype.kind != "f" or got.dtype.itemsize != 8 or not np.isfinite(got).all():
                raise CheckpointError(f"{path}: tensor {key!r} must hold finite float64 values")
        return cls(vocab, cast, config, params=params, modality=modality, seed=seed)


__all__ = [
    "CHECKPOINT_VERSION", "PROB_FLOOR", "ROW_BUDGET", "VISUAL_RUNS", "ModalityConfig",
    "VARIANT_LABELS", "Vocab", "clip_tokens", "build_vocab", "subtitle_stream",
    "qa_stream", "bucket_key", "run_in_buckets", "prepare_sequence", "embed",
    "embed_backward", "joint_loss", "ModelConfig", "ItemResult", "param_table",
    "draw_params", "init_params", "Model", "FORWARD_ONLY_MULTIPLE",
]
