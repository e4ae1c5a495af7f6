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
count. The QA part runs in micro-batches of MICRO_BATCH items under the
same parameters.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from . import nn
from .castlist import CastList, map_speaker
from .corpus import Clip, QAItem
from .errors import (CheckpointError, ConfigError, EmptyInputError, SchemaVersionError,
                     VocabError)
from .naming import (assign_names, broadcast_targets, face_table, init_naming,
                     naming_backward, naming_forward, rkl_loss_with_grad)
from .semantics import visual_stream

CHECKPOINT_VERSION = "charqa-ckpt-2"
PROB_FLOOR = 1e-12

# Items per forward/backward pass of the QA part in training. Larger passes
# amortize numpy's per-call overhead over more rows but hold more activation
# caches at once. Caches hold no attention weights (backward recomputes
# them), and backward frees each cache once it has used it. Measured with
# tracemalloc on one 64-item optimizer batch of 60 reference clips at
# d_model 32: the peak is 2.48 MB at 6 items, against 2.21 MB at 3 items and
# 3.70 MB at 6 items with the weights cached. On the benchmark (10
# alternating runs each, 2-CPU host, one BLAS thread), 6 items give 16% more
# ablate_grid and 11% more train_ref throughput than 3 items with the
# weights cached, at a median peak RSS within 0.1 MB of theirs.
MICRO_BATCH = 6


# ---------------------------------------------------------------------------
# Modality flags and the ablation grid


@dataclass(frozen=True)
class ModalityConfig:
    """Which streams feed the network, and where names are injected.

    The name switch is split per stream (objs_names / rels_names) because the
    ablation grid includes mixed rows like Objs_nm + Rels.
    """

    use_sub: bool = True
    use_objs: bool = True
    use_rels: bool = True
    objs_names: bool = True
    rels_names: bool = True

    def __post_init__(self):
        if not (self.use_sub or self.use_objs or self.use_rels):
            raise ConfigError("at least one modality must be enabled")
        if self.objs_names and not self.use_objs:
            raise ConfigError("objs_names requires use_objs")
        if self.rels_names and not self.use_rels:
            raise ConfigError("rels_names requires use_rels")

    def label(self) -> str:
        parts = []
        if self.use_sub:
            parts.append("Sub")
        if self.use_objs:
            parts.append("Objs_nm" if self.objs_names else "Objs")
        if self.use_rels:
            parts.append("Rels_nm" if self.rels_names else "Rels")
        return " + ".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "ModalityConfig":
        kw = dict(use_sub=False, use_objs=False, use_rels=False,
                  objs_names=False, rels_names=False)
        for part in [p.strip() for p in label.replace(",", " + ").split(" + ") if p.strip()]:
            key = part.lower()
            if key == "sub":
                kw["use_sub"] = True
            elif key == "objs":
                kw["use_objs"] = True
            elif key == "objs_nm":
                kw.update(use_objs=True, objs_names=True)
            elif key == "rels":
                kw["use_rels"] = True
            elif key == "rels_nm":
                kw.update(use_rels=True, rels_names=True)
            else:
                raise ConfigError(f"unknown modality part {part!r}")
        return cls(**kw)

    def visual_passes(self) -> tuple["ModalityConfig", ...]:
        """One single-run config per visual co-attention pass, in pass
        order: the relations, then the objects. A config with one visual run
        is its own single pass; one with none has no pass."""
        if self.use_objs and self.use_rels:
            return (replace(self, use_objs=False, objs_names=False),
                    replace(self, use_rels=False, rels_names=False))
        return (self,) if self.use_objs or self.use_rels else ()


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

FULL_VARIANT = VARIANT_LABELS[-1]


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


def build_vocab(clips: list[Clip], cast: CastList) -> Vocab:
    """Collect every token the corpus can feed the network.

    Cast names are excluded from the word table (they live in the name
    table); the character table covers every character of every token, so
    unseen words at evaluation time can still embed.
    """
    tokens: set[str] = set()
    for clip in clips:
        for line in clip.subtitles:
            tokens.update(line.tokens)
        for qa in clip.qas:
            tokens.update(qa.question)
            for ans in qa.answers:
                tokens.update(ans)
        for frame in clip.frames:
            for label, attr in frame.objects:
                tokens.add(label)
                if attr is not None:
                    tokens.add(attr)
            for t in frame.triples:
                tokens.update(t.tokens)
            for _, word in frame.human_boxes:
                tokens.add(word)
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
    if rkl < 0:
        raise ValueError("rkl must be >= 0")
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
    enc_layers: int = 2
    dec_layers: int = 2
    ans_layers: int = 1
    d_f: int | None = None  # face embedding size; None: train takes the corpus'
    epsilon: float = 0.05

    def __post_init__(self):
        for name in ("d_model", "d_ff", "d_h1", "heads", "enc_layers",
                     "dec_layers", "ans_layers", "d_f"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")


@dataclass
class ItemResult:
    loss: float
    ce: float
    rkl: float
    p_a: np.ndarray
    clamped: bool = False
    empty_context: int = 0


class Model:
    """Parameters + vocabulary + cast; forward/backward for batches of items.

    `modality` is the variant the network runs and `seed` the seed of the
    training run that made the parameters; checkpoints record both, and
    evaluation reads both from here."""

    def __init__(self, vocab: Vocab, cast: CastList, config: ModelConfig = ModelConfig(),
                 rng=None, params=None, modality: ModalityConfig = ModalityConfig(),
                 seed: int = 0):
        self.vocab = vocab
        self.cast = cast
        self.config = config
        self.modality = modality
        self.seed = seed
        if params is not None:
            self.params = params
        elif config.d_f is None:
            raise ConfigError("d_f must be set to initialize a model")
        else:
            self.params = self._init_params(rng if rng is not None else np.random.default_rng(0))

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        c = self.config
        p: dict[str, np.ndarray] = {}
        p["embed.word"] = rng.standard_normal((len(self.vocab.words), c.d_model))
        p["embed.name"] = rng.standard_normal((len(self.vocab.names), c.d_model))
        p["embed.char"] = rng.standard_normal((len(self.vocab.chars), c.d_model))
        nn.init_stack(rng, p, "enc", c.enc_layers, c.d_model, c.d_ff, c.heads)
        nn.init_stack(rng, p, "dec_v", c.dec_layers, c.d_model, c.d_ff, c.heads)
        nn.init_stack(rng, p, "dec_s", c.dec_layers, c.d_model, c.d_ff, c.heads)
        nn.init_stack(rng, p, "ans", c.ans_layers, c.d_model, c.d_ff, c.heads)
        p["ans.head.w"] = rng.standard_normal(c.d_model) / np.sqrt(c.d_model)
        p["ans.head.b"] = np.zeros(())
        init_naming(rng, p, c.d_f, c.d_h1, self.cast.size)
        return p

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
        batch of (view, qa, face_names) items, plus the backward cache (None
        with keep_cache False: then no activation is kept for backward, and a
        forward-only batch holds one block's activations at a time).

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
        # (decoder, visual run or None for the subtitles) per pass, in order
        visual_runs = modality.visual_passes()
        passes = [("dec_v", run) for run in visual_runs] + [("dec_s", None)] * modality.use_sub
        distinct = [{} for _ in passes]  # (tokens, flags) -> distinct stream index
        streams = [[] for _ in passes]
        users = [[] for _ in passes]  # (item, distinct stream index)
        empty_context = []
        for b, (view, _, face_names) in enumerate(batch):
            has_visual = has_sub = False
            for i, (_, run) in enumerate(passes):
                if run is None:
                    toks, flags = subtitle_stream(view.subtitles, self.cast)
                else:
                    toks, flags = visual_stream(view.frames, run, face_names, self.cast)
                if not toks:
                    continue
                if run is None:
                    has_sub = True
                else:
                    has_visual = True
                u = distinct[i].setdefault((tuple(toks), tuple(flags)), len(streams[i]))
                if u == len(streams[i]):
                    streams[i].append((toks, flags))
                users[i].append((b, u))
            empty_context.append(int(bool(visual_runs) and not has_visual)
                                 + int(modality.use_sub and not has_sub))

        qa_streams = [qa_stream(qa.question, ans, self.cast)
                      for _, qa, _ in batch for ans in qa.answers]
        if not all(toks for toks, _ in qa_streams):
            raise EmptyInputError("enc: empty input sequence")
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
        cache = (mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a, empty_context)
        return p_a, cache if keep_cache else None

    def backward_item(self, cache, dlogits: np.ndarray, grads: dict) -> None:
        """Accumulate the parameter gradients of a batch, given dL/dlogits
        (B, 5). A context stream shared by several items gets the sum of
        their context gradients before its one encoder backward. The cache
        is used up: each pass's decoder and context-encoder caches are
        dropped once the pass has run."""
        p = self.params
        mask, q_mask, enc_cache, passes, dec_caches, ans_cache, a, _ = cache
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
        flows through it. The QA part runs as consecutive forward/backward
        passes of MICRO_BATCH items; the parameters do not change within a
        call, so the split moves results only by summation order.
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
        results = []
        for m0 in range(0, len(batch), MICRO_BATCH):
            micro = batch[m0:m0 + MICRO_BATCH]
            p_a, cache = self.forward_item([(view, qa, names[id(clip)])
                                            for clip, view, qa, _ in micro])
            gold = [qa.correct_index for _, _, qa, _ in micro]
            for b, (clip, *_) in enumerate(micro):
                loss, ce, clamped = joint_loss(p_a[b], gold[b], rkl[id(clip)], lam)
                results.append(ItemResult(loss, ce, rkl[id(clip)], p_a[b], clamped=clamped,
                                          empty_context=cache[-1][b]))
            if grads is not None:
                dlogits = p_a.copy()
                dlogits[np.arange(len(micro)), gold] -= 1.0
                self.backward_item(cache, dlogits, grads)
            del cache  # free this pass's activations before the next forward
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
        return self.forward_item([(view, qa, face_names)], keep_cache=False)[0][0]

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.__dict__,
            "vocab": {"words": list(self.vocab.words), "names": list(self.vocab.names),
                      "chars": list(self.vocab.chars)},
            "cast": self.cast.to_dict(),
            "variant": self.modality.label(),
            "seed": self.seed,
        }
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **self.params)

    @classmethod
    def load(cls, path) -> "Model":
        try:
            with np.load(path) as z:
                meta = json.loads(bytes(z["__meta__"]).decode())
                params = {k: z[k].copy() for k in z.files if k != "__meta__"}
        except (ValueError, KeyError, TypeError, zipfile.BadZipFile) as e:
            # numpy refuses to unpickle a non-npz file (ValueError), has no
            # context manager for a bare .npy array (TypeError), and raises
            # KeyError for an archive without the meta record.
            raise CheckpointError(f"{path}: not a charqa checkpoint ({e})") from None
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != CHECKPOINT_VERSION:
            raise SchemaVersionError(f"unsupported checkpoint version {version!r}"
                                     f" (expected {CHECKPOINT_VERSION!r})")
        try:
            vocab = Vocab(tuple(meta["vocab"]["words"]), tuple(meta["vocab"]["names"]),
                          tuple(meta["vocab"]["chars"]))
            cast = CastList.from_dict(meta["cast"])
            config = ModelConfig(**meta["config"])
            # Checkpoints written before the variant and the seed were
            # recorded are of the full variant, the training default, and are
            # evaluated as seed 0.
            variant = meta.get("variant", FULL_VARIANT)
            if not isinstance(variant, str):
                raise TypeError(f"variant must be a string, got {variant!r}")
            modality = ModalityConfig.from_label(variant)
            seed = meta.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise TypeError(f"seed must be an integer >= 0, got {seed!r}")
        except KeyError as e:
            raise CheckpointError(f"{path}: checkpoint meta lacks {e.args[0]!r}") from None
        except (TypeError, ConfigError) as e:
            raise CheckpointError(f"{path}: malformed checkpoint meta ({e})") from None
        # A fresh model of the same config and vocabulary has every tensor
        # in the shape the checkpoint must have.
        expected = cls(vocab, cast, config).params
        for key in sorted(expected.keys() | params.keys()):
            want, got = expected.get(key), params.get(key)
            if want is None or got is None or want.shape != got.shape:
                raise CheckpointError(
                    f"{path}: tensor {key!r} has shape "
                    f"{None if got is None else got.shape}, config and vocab need "
                    f"{None if want is None else want.shape}")
            if got.dtype.kind != "f" or not np.isfinite(got).all():
                raise CheckpointError(f"{path}: tensor {key!r} must hold finite floats")
        return cls(vocab, cast, config, params=params, modality=modality, seed=seed)


__all__ = [
    "CHECKPOINT_VERSION", "PROB_FLOOR", "MICRO_BATCH", "ModalityConfig",
    "VARIANT_LABELS", "FULL_VARIANT", "Vocab", "build_vocab", "subtitle_stream",
    "qa_stream", "prepare_sequence", "embed",
    "embed_backward", "joint_loss", "ModelConfig", "ItemResult", "Model",
]
