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
probabilities. Name tokens live in their own embedding table, trained from
scratch, separate from words; words missing from the vocabulary embed as
the mean of their character vectors. The vocabulary is fixed when it is
built; a pass is embedded by one gather from one table, the word and name
tables plus the character means of the pass's own out-of-vocabulary words,
and its gradient scattered back by one np.add.at.

The QA loss is cross-entropy on the gold option; the naming head trains
jointly through the regularized-KL term, weighted by lambda. The head runs
once per distinct clip of a batch: its rows give both the clip's name
assignment and its RKL term, whose gradient is weighted by the clip's item
count. The QA part of a batch, and every item of an evaluation, runs
through one runner, run_in_buckets: it sorts the items by length_key,
which is read from each item's view and QA item without building a
stream, runs them in buckets of MICRO_BATCH neighbours, so that the items
of a padded batch are of like length, and returns every result in input
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from typing import ClassVar

import numpy as np

from . import nn
from .castlist import CastList, map_speaker
from .corpus import Clip, QAItem, bounded, config_kwargs, strings, typed
from .errors import CheckpointError, ConfigError, SchemaVersionError, VocabError
from .naming import (assign_names, broadcast_targets, face_table, init_naming,
                     naming_backward, naming_forward, rkl_loss_with_grad)
from .semantics import visual_stream

CHECKPOINT_VERSION = "charqa-ckpt-4"
PROB_FLOOR = 1e-12

# Items per bucket of run_in_buckets: per forward/backward pass of a training
# batch's QA part, and per forward-only pass of an evaluation. Larger passes
# amortize numpy's per-call overhead over more rows but hold more activation
# caches at once. Caches hold no attention weights (backward recomputes
# them), and backward frees each cache once it has used it. Measured with
# tracemalloc at d_model 32, the items sorted by length: one 64-item
# optimizer batch of 60 reference clips peaks at 2.45 MB at 6 items, against
# 1.56 MB at 3 and 4.24 MB at 12; a whole-clip evaluation of the 200
# reference clips peaks at 1.69 MB at 6 and 2.69 MB at 12. On the benchmark
# (10 alternating pairs, 2-CPU host, one BLAS thread), sorted buckets of 6
# give 13% more ablate_grid and 9% more train_ref throughput than unsorted
# micro-batches of 6 with per-clip evaluation batches, at a median peak RSS
# within 0.15 MB of theirs.
MICRO_BATCH = 6


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
    """The word, name and character tables' entries.

    `rows` maps each (token, name flag) that has a table row to it: a word,
    flagged or not, to its word row, and a name-flagged cast name to its
    name row, past the word rows. Any other token is out of the vocabulary
    and embeds as the mean of its characters' vectors."""

    words: tuple[str, ...]
    names: tuple[str, ...]  # cast names + UNKNAME, the name-table rows
    chars: tuple[str, ...]
    char_index: dict = field(init=False, repr=False, compare=False)
    rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.words) & set(self.names):
            raise VocabError("word and name index spaces must be disjoint")
        object.__setattr__(self, "char_index", {c: i for i, c in enumerate(self.chars)})
        # The empty token has no row, so that embedding it raises.
        rows = {(w, flag): i for i, w in enumerate(self.words) if w for flag in (False, True)}
        rows.update({(n, True): i for i, n in enumerate(self.names, len(self.words)) if n})
        object.__setattr__(self, "rows", rows)

    def char_means(self, tokens) -> np.ndarray:
        """(len(tokens), chars) averaging matrix of out-of-vocabulary tokens:
        embed.char maps through it to their character means. VocabError for
        an empty token or a character outside the character table."""
        a = np.zeros((len(tokens), len(self.chars)))
        for i, token in enumerate(tokens):
            if not token:
                raise VocabError("empty token cannot be embedded")
            ids = []
            for ch in token:
                j = self.char_index.get(ch)
                if j is None:
                    raise VocabError(f"token {token!r}: character {ch!r} not in character table")
                ids.append(j)
            np.add.at(a[i], ids, 1.0 / len(ids))
        return a

    def check_chars(self, tokens) -> None:
        """VocabError for the first token, in sorted order, that char_means
        could not embed: one with a character outside the character table."""
        self.char_means(sorted(tokens))


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
    (clip_tokens).

    Cast names are excluded from the word table (they live in the name
    table); the character table covers every character of every token, so
    unseen words at evaluation time can still embed if their characters
    are in it (Vocab.check_chars).
    """
    tokens: set[str] = set()
    for clip in clips:
        tokens |= clip_tokens(clip, cast)
    names = cast.label_names()
    words = sorted(tokens - set(names))
    chars = sorted({ch for tok in tokens | set(names) for ch in tok})
    return Vocab(tuple(words), tuple(names), tuple(chars))


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


def length_key(view: Clip, qa: QAItem) -> tuple[int, int, int]:
    """An item's sort key, read from its view and QA item without building a
    stream: its subtitle tokens plus lines (each line adds its speaker
    token), then its frames, then its question and answer tokens."""
    return (sum(len(line.tokens) for line in view.subtitles) + len(view.subtitles),
            len(view.frames), len(qa.question) + sum(len(a) for a in qa.answers))


def run_in_buckets(items, keys, run) -> list:
    """run over the items in buckets of MICRO_BATCH, the items sorted by
    (key, input index), so that a padded batch holds items of like length
    and the order is deterministic; run maps a list of items to one result
    per item. Returns the results in input order."""
    order = sorted(range(len(items)), key=lambda i: (keys[i], i))
    results = [None] * len(items)
    for m0 in range(0, len(order), MICRO_BATCH):
        bucket = order[m0:m0 + MICRO_BATCH]
        for i, result in zip(bucket, run([items[i] for i in bucket]), strict=True):
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# Embedding (word / name / character tables)

@lru_cache(maxsize=256)
def _pe(n: int, d: int) -> np.ndarray:
    return nn.sinusoidal_positions(n, d)


def prepare_sequence(params, vocab: Vocab, tokens, flags, oov: dict) -> list[int]:
    """The embedding-table rows of a stream's tokens: its vocabulary row for
    a token that has one; for any other, its row in oov, the pass's
    out-of-vocabulary token -> row dict, which a token new to the pass
    extends by the next row past the word and name rows."""
    # params is unread; perfbench's tracer reads tokens, flags as positional args 2, 3.
    rows = vocab.rows
    first = len(vocab.words) + len(vocab.names)
    return [rows[key] if key in rows else oov.setdefault(key[0], first + len(oov))
            for key in zip(tokens, flags)]


def embed(params, vocab: Vocab, streams):
    """Embedding + sinusoidal positional encoding of (tokens, flags) streams
    as one padded (n, L, d) batch, by one gather from the pass's table
    [embed.word; embed.name; the character means of the pass's distinct
    out-of-vocabulary tokens; a zero row]. Returns it with its (n, L) mask
    and the gather's (table rows, averaging matrix of those means), the rows
    -1 at pads: pads gather the zero row, without positional encoding."""
    oov = {}
    rows = [prepare_sequence(params, vocab, toks, flags, oov) for toks, flags in streams]
    lengths = np.array([len(r) for r in rows])
    mask = np.arange(lengths.max()) < lengths[:, None]
    idx = np.full(mask.shape, -1)
    idx[mask] = np.fromiter(chain.from_iterable(rows), int, lengths.sum())
    a = vocab.char_means(list(oov))
    word = params["embed.word"]
    table = np.concatenate([word, params["embed.name"], a @ params["embed.char"],
                            np.zeros((1, word.shape[1]))])
    x = table[idx]
    x += _pe(*x.shape[1:])
    x[~mask] = 0.0
    return x, mask, (idx, a)


def embed_backward(grads, params, gather, dx) -> None:
    """Accumulate into the three tables' gradients dx, the gradient of
    embed's (n, L, d) batch, through its gather (table rows, averaging
    matrix); pad rows (-1) carry none."""
    idx, a = gather
    n_words, n_names = len(params["embed.word"]), len(params["embed.name"])
    # One scatter into the word and name gradients as they stand, so each
    # row's sum runs in the order of the batch's rows.
    g = np.concatenate([grads.get("embed.word", np.zeros_like(params["embed.word"])),
                        grads.get("embed.name", np.zeros_like(params["embed.name"])),
                        np.zeros((len(a) + 1, dx.shape[-1]))])
    np.add.at(g, idx, dx)
    grads["embed.word"], grads["embed.name"] = g[:n_words], g[n_words:n_words + n_names]
    grads["embed.char"] = grads.get("embed.char", 0) + a.T @ g[n_words + n_names:-1]


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


def init_params(rng, vocab: Vocab, cast: CastList, config: ModelConfig,
                d_f: int) -> dict[str, np.ndarray]:
    """A model's parameters drawn from rng, the naming head's input being
    d_f-dim face embeddings."""
    c = config
    p: dict[str, np.ndarray] = {}
    p["embed.word"] = rng.standard_normal((len(vocab.words), c.d_model))
    p["embed.name"] = rng.standard_normal((len(vocab.names), c.d_model))
    p["embed.char"] = rng.standard_normal((len(vocab.chars), c.d_model))
    nn.init_stack(rng, p, "enc", c.enc_layers, c.d_model, c.d_ff, c.heads)
    nn.init_stack(rng, p, "dec_v", c.dec_layers, c.d_model, c.d_ff, c.heads)
    nn.init_stack(rng, p, "dec_s", c.dec_layers, c.d_model, c.d_ff, c.heads)
    nn.init_stack(rng, p, "ans", c.ans_layers, c.d_model, c.d_ff, c.heads)
    p["ans.head.w"] = rng.standard_normal(c.d_model) / np.sqrt(c.d_model)
    p["ans.head.b"] = np.zeros(())
    init_naming(rng, p, d_f, c.d_h1, cast.size)
    return p


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

    def forward_item(self, batch, keep_cache: bool = True):
        """Answer probabilities (B, 5) under the model's own variant for a
        batch of (view, qa, face_names) items, each item's empty_context
        count, and the backward cache (None with keep_cache False: then no
        activation is kept for backward, and a forward-only batch holds one
        block's activations at a time).

        Every item's context streams are built, then deduplicated per pass
        by (tokens, flags): each distinct stream is encoded once, all of a
        pass's distinct streams as one padded batch under a key mask. The 5B
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
        # (decoder, visual runs or None for the subtitles) per pass, in order:
        # one pass per visual run, the relations first, then the subtitles
        passes = ([("dec_v", (run,)) for run in reversed(modality.runs)]
                  + [("dec_s", None)] * modality.use_sub)
        distinct = [{} for _ in passes]  # (tokens, flags) -> distinct stream index
        streams = [[] for _ in passes]
        users = [[] for _ in passes]  # (item, distinct stream index)
        empty_context = []
        for b, (view, _, face_names) in enumerate(batch):
            has_visual = has_sub = False
            for i, (_, runs) in enumerate(passes):
                if runs is None:
                    toks, flags = subtitle_stream(view.subtitles, self.cast)
                else:
                    toks, flags = visual_stream(view.frames, runs, face_names, self.cast)
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
                      for _, qa, _ in batch for ans in qa.answers]
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
        logits = a @ p["ans.head.w"] + p["ans.head.b"]
        p_a = nn.softmax(logits)
        cache = (mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a)
        return p_a, empty_context, cache if keep_cache else None

    def backward_item(self, cache, dlogits: np.ndarray, grads: dict) -> None:
        """Accumulate the parameter gradients of a batch, given dL/dlogits
        (B, 5). A context stream shared by several items gets the sum of
        their context gradients before its one encoder backward. The cache
        is used up: each pass's decoder and context-encoder caches are
        dropped once the pass has run."""
        p = self.params
        mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a = cache
        d = a.shape[-1]
        grads["ans.head.w"] = grads.get("ans.head.w", 0) + a.reshape(-1, d).T @ dlogits.ravel()
        grads["ans.head.b"] = grads.get("ans.head.b", 0) + dlogits.sum()
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
        flows through it. The QA part runs through run_in_buckets, as
        forward/backward passes of MICRO_BATCH items of like length; the
        parameters do not change within a call, so the buckets move results
        only by summation order.
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

        def run(micro):
            p_a, empty_context, cache = self.forward_item(
                [(view, qa, names[id(clip)]) for clip, view, qa, _ in micro],
                keep_cache=grads is not None)
            gold = [qa.correct_index for _, _, qa, _ in micro]
            results = []
            for b, (clip, *_) in enumerate(micro):
                loss, ce, clamped = joint_loss(p_a[b], gold[b], rkl[id(clip)], lam)
                results.append(ItemResult(loss, ce, rkl[id(clip)], p_a[b], clamped=clamped,
                                          empty_context=empty_context[b]))
            if grads is not None:
                dlogits = p_a.copy()
                dlogits[np.arange(len(micro)), gold] -= 1.0
                self.backward_item(cache, dlogits, grads)
            return results

        return run_in_buckets(batch, [length_key(view, qa) for _, view, qa, _ in batch], run)

    def item_loss_and_grads(self, clip: Clip, view: Clip, qa: QAItem, lam: float = 1.0,
                            grads: dict | None = None) -> ItemResult:
        """loss_and_grads of a batch of one item, its targets built from the clip."""
        # Only tests call this; perfbench's tracer wraps it by name as its item span.
        targets = broadcast_targets(clip, self.cast, self.config.epsilon)
        return self.loss_and_grads([(clip, view, qa, targets)], lam, grads)[0]

    def score(self, view: Clip, qa: QAItem, face_names: dict[int, str]) -> np.ndarray:
        """Answer probabilities of one item: forward_item on a batch of one."""
        # Only tests call this; perfbench's tracer wraps it by name as its item span.
        return self.forward_item([(view, qa, face_names)], keep_cache=False)[0][0]

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.__dict__,
            "vocab": {"words": list(self.vocab.words), "chars": list(self.vocab.chars)},
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
            words, chars = (tuple(strings(meta["vocab"][k], f"vocab {k}"))
                            for k in ("words", "chars"))
            cast = CastList.from_dict(meta["cast"])
            # The name rows are the cast's names and UNKNAME, as build_vocab lays them out.
            vocab = Vocab(words, cast.label_names(), chars)
            config = ModelConfig(**config_kwargs(ModelConfig, meta["config"], "config"))
            modality = ModalityConfig.from_label(typed(meta["variant"], str, "variant"))
            seed = bounded(typed(meta["seed"], int, "seed"), "seed", 0)
            # The face size is naming.w1's row count (1 stands in for a missing
            # or empty one, which the shape check then names). Parameters drawn
            # at these sizes have the shapes the checkpoint must have.
            w1 = params.get("naming.w1")
            d_f = len(w1) if w1 is not None and w1.ndim == 2 and len(w1) else 1
            expected = init_params(np.random.default_rng(0), vocab, cast, config, d_f)
        except KeyError as e:
            raise CheckpointError(f"{path}: checkpoint meta lacks {e.args[0]!r}") from None
        except (TypeError, ValueError, MemoryError, ConfigError, VocabError) as e:
            raise CheckpointError(f"{path}: malformed checkpoint meta ({e})") from None
        for key in sorted(expected.keys() | params.keys()):
            want, got = expected.get(key), params.get(key)
            if want is None or got is None or want.shape != got.shape:
                raise CheckpointError(
                    f"{path}: tensor {key!r} has shape "
                    f"{None if got is None else got.shape}, config and vocab need "
                    f"{None if want is None else want.shape}")
            if got.dtype.kind != "f" or got.dtype.itemsize != 8 or not np.isfinite(got).all():
                raise CheckpointError(f"{path}: tensor {key!r} must hold finite float64 values")
        return cls(vocab, cast, config, params=params, modality=modality, seed=seed)


__all__ = [
    "CHECKPOINT_VERSION", "PROB_FLOOR", "MICRO_BATCH", "VISUAL_RUNS", "ModalityConfig",
    "VARIANT_LABELS", "Vocab", "clip_tokens", "build_vocab", "subtitle_stream",
    "qa_stream", "length_key", "run_in_buckets", "prepare_sequence", "embed",
    "embed_backward", "joint_loss", "ModelConfig", "ItemResult", "init_params", "Model",
]
