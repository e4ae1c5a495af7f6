import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charqa import carn, nn
from charqa.carn import (CHECKPOINT_VERSION, ModalityConfig, Model, ModelConfig,
                         VARIANT_LABELS, Vocab, build_vocab, draw_params, embed,
                         embed_backward, init_params, joint_loss, param_table)
from charqa.castlist import CastList, build_cast_list, count_speakers
from charqa.corpus import (BBox, Clip, FaceDetection, Frame, GenConfig, QAItem, SubtitleLine,
                           clip_view, generate_corpus)
from charqa.errors import (CheckpointError, ConfigError, EmptyInputError, SchemaVersionError,
                           ShapeError, VocabError)
from charqa.harness import _mini_setup, grad_check
from charqa.naming import broadcast_targets
from charqa.semantics import visual_stream
from oracles import (oracle_embed, oracle_embed_backward, oracle_init_naming,
                     oracle_init_params, oracle_init_stack)
from test_corpus import JSON_VALUES, json_kind, value_at


def stack_params(prefix="enc", d_model=8, d_ff=12, heads=4, seed=0):
    """A lone two-layer stack ("enc" or "dec_v") drawn from the parameter table."""
    table = param_table(ModelConfig(d_model=d_model, d_ff=d_ff, heads=heads), 1, 0, 1)
    return draw_params(np.random.default_rng(seed), table, prefix + ".")


# The ops the model runs, output only.
def attention(q, k, key_mask=None):
    return nn.attention_weights(q, k, key_mask) @ k


def encode(x, params, key_mask=None):
    return nn.stack_forward(params, "enc", 2, x, None, key_mask)[0]


def co_attend(x, context, params):
    return nn.stack_forward(params, "dec_v", 2, x, context)[0]


@contextlib.contextmanager
def pad_gradients_checked():
    """Every key-masked stack call inside the block asserts that the input
    gradient of each pad row, and the context gradient of each pad key, are
    exactly zero. Yields the list of (prefix, pad count) checked; on exit,
    every recorded cache has been through backward."""
    forward, backward = nn.stack_forward, nn.stack_backward
    masks, checked = {}, []

    def recording_forward(params, prefix, n_layers, x, context=None, key_mask=None,
                          keep_cache=True):
        y, cache = forward(params, prefix, n_layers, x, context, key_mask, keep_cache)
        if key_mask is not None:
            masks[id(cache)] = (context is None, key_mask, cache)
        return y, cache

    def checking_backward(params, prefix, cache, dy, grads):
        dx, dctx = backward(params, prefix, cache, dy, grads)
        if id(cache) in masks:
            is_self, key_mask, _ = masks.pop(id(cache))
            pads = dx[~key_mask] if is_self else dctx[~key_mask]
            assert np.all(pads == 0.0), prefix
            checked.append((prefix, int((~key_mask).sum())))
        return dx, dctx

    with mock.patch.object(nn, "stack_forward", recording_forward), \
            mock.patch.object(nn, "stack_backward", checking_backward):
        yield checked
    assert not masks


class TestModalityConfig:
    def test_nine_labels_round_trip(self):
        assert len(VARIANT_LABELS) == 9
        for label in VARIANT_LABELS:
            assert ModalityConfig.from_label(label).label() == label
        assert VARIANT_LABELS[-1] == "Sub + Objs_nm + Rels_nm"

    def test_lowercase_comma_form(self):
        m = ModalityConfig.from_label("objs_nm,rels_nm")
        assert (m.use_sub, m.runs) == (False, ("Objs_nm", "Rels_nm"))

    def test_all_streams_off_rejected(self):
        with pytest.raises(ConfigError):
            ModalityConfig(use_sub=False, runs=())

    def test_runs_are_an_object_run_then_a_relation_run(self):
        for runs in (("Rels", "Objs"), ("Objs", "Objs_nm"), ("Rels", "Rels_nm"), ("Faces",),
                     ("Sub",)):
            with pytest.raises(ConfigError, match="visual runs"):
                ModalityConfig(runs=runs)
        for runs in ((), ("Objs_nm",), ("Rels",), ("Objs", "Rels_nm")):
            assert ModalityConfig(runs=runs).runs == runs

    def test_unknown_part_rejected(self):
        with pytest.raises(ConfigError, match="unknown modality part 'FACES'"):
            ModalityConfig.from_label("Sub + FACES")

    @pytest.mark.parametrize("label", ["Sub + Objs + Objs_nm", "Rels_nm + rels", "Objs_nm + Objs"])
    def test_conflicting_parts_rejected(self, label):
        with pytest.raises(ConfigError, match="visual runs"):
            ModalityConfig.from_label(label)

    PARTS = ("Sub", "Objs", "Objs_nm", "Rels", "Rels_nm")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(PARTS + ("Faces",)),
                              st.sampled_from([str.lower, str.upper, str])), max_size=5),
           st.sampled_from([" + ", ","]))
    def test_label_parts_round_trip_in_canonical_order(self, parts, sep):
        label = sep.join(case(p) for p, case in parts)
        given_parts = {p for p, _ in parts}
        valid = (given_parts and "Faces" not in given_parts
                 and not {"Objs", "Objs_nm"} <= given_parts
                 and not {"Rels", "Rels_nm"} <= given_parts)
        if not valid:
            with pytest.raises(ConfigError):
                ModalityConfig.from_label(label)
            return
        m = ModalityConfig.from_label(label)
        assert m.label() == " + ".join(p for p in self.PARTS if p in given_parts)
        assert ModalityConfig.from_label(m.label()) == m


class TestVocabAndEmbedding:
    @pytest.fixture
    def setup(self, tiny_cast):
        vocab = Vocab(("cup", "hold", "what"), tiny_cast.label_names())
        rng = np.random.default_rng(1)
        params = {"embed.word": rng.standard_normal((3, 6)),
                  "embed.name": rng.standard_normal((3, 6))}
        return vocab, params

    def test_word_and_name_spaces_disjoint(self):
        with pytest.raises(VocabError):
            Vocab(("Ada",), ("Ada",))

    def test_name_flag_selects_name_table(self, setup):
        vocab, params = setup
        x, _, _ = embed(params, vocab, [(["Ada"], [True])])
        want = params["embed.name"][vocab.names.index("Ada")] + nn.sinusoidal_positions(1, 6)[0]
        assert np.array_equal(x[0, 0], want)

    def test_oov_word_uses_char_mean(self, setup):
        # Out-of-vocabulary words once embedded as the mean of their
        # character rows. There is no character table now: whatever its
        # characters, seen in the vocabulary or not, such a word gathers
        # the zero row that pads use and keeps only its positional encoding.
        vocab, params = setup
        toks = ["zyx", "cupz", "dloh", "café"]
        x, mask, _ = embed(params, vocab, [(toks, [False] * len(toks))])
        assert mask[0].all()
        assert np.array_equal(x[0], nn.sinusoidal_positions(len(toks), 6))

    def test_pass_table_holds_only_the_pass_out_of_vocabulary_tokens(self, setup):
        # However many out-of-vocabulary tokens earlier passes held (an
        # evaluation corpus unlike the training one), a pass gathers from
        # the word and name rows alone: each of its out-of-vocabulary tokens
        # takes the pad index, and no gradient reaches any table through it.
        vocab, params = setup
        seen = ["".join(p) for p in itertools.product("zyxcup", repeat=4)]
        embed(params, vocab, [(seen, [False] * len(seen))])
        toks = ["zyx", "cup", "café", "zyx", "Ada"]
        x, _, idx = embed(params, vocab, [(toks, [t == "Ada" for t in toks]),
                                          (["cup"], [False])])
        assert idx.tolist() == [[-1, 0, -1, -1, len(vocab.words) + vocab.names.index("Ada")],
                                [0, -1, -1, -1, -1]]
        grads = {}
        dx = np.ones_like(x)
        dx[0, [1, 4]] = 0.0
        dx[1, 0] = 0.0
        embed_backward(grads, params, idx, dx)
        assert set(grads) == set(params)
        assert all(not g.any() for g in grads.values())

    def test_name_read_as_a_word_takes_its_name_row(self, setup):
        # A cast name in plain text, such as inside a subtitle line, is
        # unflagged; it still takes its trained name row, not the zero row.
        vocab, params = setup
        x, _, _ = embed(params, vocab, [(["Ada", "Ada"], [False, True])])
        row = params["embed.name"][vocab.names.index("Ada")]
        assert np.array_equal(x[0], row + nn.sinusoidal_positions(2, 6))

    def test_embedding_leaves_the_vocabulary_as_built(self, setup):
        vocab, params = setup
        fresh = Vocab(vocab.words, vocab.names)
        for tok in ("zyx", "cupz", "Adah", "Ada"):
            embed(params, vocab, [([tok, "cup", "Ada"], [False, False, True]), ([tok], [True])])
        assert vocab.rows == fresh.rows

    def test_pad_rows_are_zero_and_masked(self, setup):
        vocab, params = setup
        x, mask, _ = embed(params, vocab, [(["cup", "hold"], [False, False]),
                                           (["cup"] * 5, [False] * 5)])
        assert x.shape[1] == 5
        assert np.all(x[0, 2:] == 0.0)
        assert mask[0].tolist() == [True, True, False, False, False]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.lists(st.tuples(st.sampled_from(["word", "name", "name as word",
                                                        "oov"]),
                                       st.integers(0, 50)),
                             min_size=1, max_size=6),
                    min_size=1, max_size=4))
    def test_gather_embedding_matches_token_by_token(self, seed, streams):
        # Words, names, a name flagged as a non-name and out-of-vocabulary
        # words (the zero row), against the token-by-token reference: the padded batch's
        # valid rows are the reference rows plus positions, pads are zero and
        # pass no gradient to any table, and the scattered gradient is the
        # reference's row by row.
        vocab = Vocab(("cup", "hold", "what"), CastList(("Ada", "Ben"), (10, 5)).label_names())
        rng = np.random.default_rng(seed)
        d = 6
        params = {"embed.word": rng.standard_normal((3, d)),
                  "embed.name": rng.standard_normal((3, d))}
        oov = ["zyx", "cupz", "Adah", "x", "whatz", "cup9", "café"]
        pick = {"word": (vocab.words, False), "name": (vocab.names, True),
                "name as word": (vocab.names, False), "oov": (oov, False)}
        streams = [([pick[kind][0][i % len(pick[kind][0])] for kind, i in spec],
                    [pick[kind][1] for kind, _ in spec]) for spec in streams]
        x, mask, gather = embed(params, vocab, streams)
        width = max(len(toks) for toks, _ in streams)
        pe = nn.sinusoidal_positions(width, d)
        assert x.shape == (len(streams), width, d)
        for i, (toks, flags) in enumerate(streams):
            n = len(toks)
            assert mask[i].tolist() == [True] * n + [False] * (width - n)
            want = np.array(oracle_embed(params, vocab, toks, flags)) + pe[:n]
            assert np.max(np.abs(x[i, :n] - want)) <= 1e-12
            assert np.all(x[i, n:] == 0.0)

        dx = rng.standard_normal(x.shape)
        start = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        grads = {k: v.copy() for k, v in start.items()}
        embed_backward(grads, params, gather, dx)
        ref = {k: [[float(e) for e in row] for row in v] for k, v in start.items()}
        for i, (toks, flags) in enumerate(streams):
            oracle_embed_backward(params, vocab, toks, flags, dx[i, :len(toks)], ref)
        for k in params:
            assert np.max(np.abs(grads[k] - np.array(ref[k]))) <= 1e-12, k

    def test_build_vocab_covers_corpus(self, small_corpus):
        cast = build_cast_list({"Ada": 10, "Ben": 8}, min_count=2, max_ratio=0.1)
        vocab = build_vocab(small_corpus, cast)
        assert set(cast.label_names()) == set(vocab.names)
        assert not (set(vocab.words) & set(vocab.names))
        for clip in small_corpus:
            for line in clip.subtitles:
                for t in line.tokens:
                    assert (t, False) in vocab.rows


class TestAttention:
    def test_single_key_returns_that_key(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((1, 3))
        y = attention(q, k)
        assert np.allclose(y, np.repeat(k, 4, axis=0))

    def test_orthogonal_gives_column_mean(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        k = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        y = attention(q, k)
        assert np.allclose(y[0], k.mean(axis=0))

    def test_hand_case_matches_scalar_arithmetic(self):
        q = np.array([[1.0], [0.0]])
        k = np.array([[1.0], [-1.0]])
        y = attention(q, k)
        e1, e2 = math.exp(1.0), math.exp(-1.0)
        p = e1 / (e1 + e2)
        assert y[0, 0] == pytest.approx(p * 1.0 + (1 - p) * -1.0, abs=1e-12)
        assert y[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((5, 4)), rng.standard_normal((7, 4))
        y = attention(q, k)
        lo, hi = k.min(axis=0), k.max(axis=0)
        assert np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_empty_keys(self):
        with pytest.raises(EmptyInputError):
            attention(np.zeros((2, 3)), np.zeros((0, 3)))


class TestReductionKernels:
    def test_row_reductions_match_numpy(self):
        # The max is exact; the sums run as a matrix-vector product, so
        # they may differ from numpy's pairwise sum in the last bits.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4, 5, 7))
        for arr in (x, x.swapaxes(-1, -2), x[..., 0, :]):
            assert np.array_equal(nn.row_max(arr), arr.max(axis=-1, keepdims=True))
            assert np.max(np.abs(nn.row_sum(arr) - arr.sum(axis=-1, keepdims=True))) <= 1e-13
            assert np.max(np.abs(nn.row_mean(arr) - arr.mean(axis=-1, keepdims=True))) <= 1e-14
        p = nn.softmax(x)
        assert p.shape == x.shape and np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-14
        for arr in (x, x.swapaxes(-1, -2), x[0, 0]):
            expected = arr.sum(axis=tuple(range(arr.ndim - 1)))
            assert np.max(np.abs(nn.column_sum(arr) - expected)) <= 1e-13


class TestEncode:
    def test_output_shape(self):
        params = stack_params()
        x = np.random.default_rng(3).standard_normal((5, 8))
        assert encode(x, params).shape == (5, 8)

    def test_pad_invariance(self):
        params = stack_params()
        x = np.random.default_rng(4).standard_normal((4, 8))
        y = encode(x, params)
        x_pad = np.vstack([x, np.zeros((3, 8))])
        mask = np.array([True] * 4 + [False] * 3)
        y_pad = encode(x_pad, params, key_mask=mask)
        assert np.max(np.abs(y_pad[:4] - y)) <= 1e-6

    def test_identical_rows_stay_identical(self):
        params = stack_params()
        row = np.random.default_rng(5).standard_normal(8)
        y = encode(np.tile(row, (4, 1)), params)
        assert np.allclose(y, y[0])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            encode(np.zeros((0, 8)), stack_params())

    def test_positions_of_every_width(self):
        # Even and odd widths: sine on even columns, cosine on odd ones,
        # frequency 10000^(-2j/d) for the column pair j.
        for d in range(1, 8):
            pe = nn.sinusoidal_positions(4, d)
            for p in range(4):
                for c in range(d):
                    ang = p / 10000.0 ** (2 * (c // 2) / d)
                    assert pe[p, c] == pytest.approx(math.cos(ang) if c % 2 else math.sin(ang),
                                                     abs=1e-15), (d, p, c)


class TestCoAttend:
    def test_single_context_attention_row(self):
        # the pre-FFN attention value with one key equals that key everywhere
        k = np.array([[2.0, -1.0, 0.5]])
        q = np.random.default_rng(6).standard_normal((4, 3))
        assert np.allclose(attention(q, k), np.repeat(k, 4, axis=0))

    def test_context_permutation_invariant(self):
        params = stack_params("dec_v")
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8))
        ctx = rng.standard_normal((6, 8))
        y1 = co_attend(x, ctx, params)
        y2 = co_attend(x, ctx[::-1].copy(), params)
        assert np.allclose(y1, y2)

    def test_hand_2x1_case(self):
        # One query [0.5], one context row [2.0]: softmax over a single key
        # is 1, so the attention value is exactly the context row.
        assert attention(np.array([[0.5]]), np.array([[2.0]]))[0, 0] == 2.0


class TestStackedCandidates:
    def test_cross_attention_rows_independent(self):
        # The five candidates share one decoder pass as a stacked matrix;
        # that equals five separate passes only because no query row
        # attends to another and LN/FFN act row by row.
        params = stack_params("dec_v")
        rng = np.random.default_rng(13)
        queries = [rng.standard_normal((n, 8)) for n in (3, 5, 2, 4, 1)]
        ctx = rng.standard_normal((6, 8))
        probes = [rng.standard_normal(q.shape) for q in queries]
        y, cache = nn.stack_forward(params, "dec_v", 2, np.concatenate(queries), ctx)
        grads = {}
        dq, dctx = nn.stack_backward(params, "dec_v", cache, np.concatenate(probes), grads)
        split = np.cumsum([len(q) for q in queries])[:-1]
        alone_grads = {}
        alone_dctx = np.zeros_like(ctx)
        for q, probe, y_i, dq_i in zip(queries, probes, np.split(y, split),
                                       np.split(dq, split)):
            y1, c1 = nn.stack_forward(params, "dec_v", 2, q, ctx)
            dq1, dctx1 = nn.stack_backward(params, "dec_v", c1, probe, alone_grads)
            assert np.max(np.abs(y_i - y1)) <= 1e-12
            assert np.max(np.abs(dq_i - dq1)) <= 1e-12
            alone_dctx += dctx1
        assert np.max(np.abs(dctx - alone_dctx)) <= 1e-12
        assert set(grads) == set(alone_grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - alone_grads[k])) <= 1e-12, k

    def test_padded_self_attention_batch_matches_each_alone(self):
        # The five candidates go through the encoder as one padded batch;
        # the key mask must make that equal to five separate passes.
        params = stack_params("enc")
        rng = np.random.default_rng(14)
        lengths = (3, 5, 2, 4, 1)
        width = max(lengths)
        seqs = [rng.standard_normal((n, 8)) for n in lengths]
        probes = [rng.standard_normal((n, 8)) for n in lengths]
        mask = np.arange(width)[None, :] < np.array(lengths)[:, None]
        x = np.zeros((5, width, 8))
        x[mask] = np.concatenate(seqs)
        probe = np.zeros_like(x)
        probe[mask] = np.concatenate(probes)
        y, cache = nn.stack_forward(params, "enc", 2, x, key_mask=mask)
        grads = {}
        dx, _ = nn.stack_backward(params, "enc", cache, probe, grads)
        alone_grads = {}
        for i, (seq, pr) in enumerate(zip(seqs, probes)):
            y1, c1 = nn.stack_forward(params, "enc", 2, seq)
            dx1, _ = nn.stack_backward(params, "enc", c1, pr, alone_grads)
            n = len(seq)
            assert np.max(np.abs(y[i, :n] - y1)) <= 1e-12
            assert np.max(np.abs(dx[i, :n] - dx1)) <= 1e-12
            assert np.all(dx[i, n:] == 0.0)
        assert set(grads) == set(alone_grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - alone_grads[k])) <= 1e-12, k

    def test_head_h_fills_its_own_columns(self):
        # Checkpoints store wq/wk per head; a reordered concatenation would
        # pass every FD check yet change what a saved model computes.
        params = stack_params("enc", heads=4)
        rng = np.random.default_rng(15)
        xq, xk = rng.standard_normal((3, 8)), rng.standard_normal((6, 8))
        wq, wk = params["enc.l0.attn.wq"], params["enc.l0.attn.wk"]
        y, _ = nn.mha_forward(params, "enc.l0.attn", xq, xk)
        d_h = wq.shape[2]
        for h in range(wq.shape[0]):
            expected = attention(xq @ wq[h], xk @ wk[h])
            assert np.max(np.abs(y[:, h * d_h:(h + 1) * d_h] - expected)) <= 1e-12


class TestBackwardCache:
    def test_stack_backward_recomputes_nothing(self):
        # Backward reads the projections, attention weights and FFN
        # activations from the forward's cache: with every forward op made
        # to raise once the forward has run, a key-masked encoder and decoder
        # give exactly the gradients of an unpatched backward.
        rng = np.random.default_rng(17)
        x, ctx = rng.standard_normal((3, 6, 8)), rng.standard_normal((3, 5, 8))
        x_mask = np.arange(6) < np.array([6, 4, 2])[:, None]
        ctx_mask = np.arange(5) < np.array([5, 3, 1])[:, None]
        probe = rng.standard_normal(x.shape)
        forward_ops = ("attention_weights", "_project", "ffn_activation", "ffn_forward",
                       "softmax")

        def backward(prefix, context, key_mask, patched):
            params = stack_params(prefix)
            _, cache = nn.stack_forward(params, prefix, 2, x, context, key_mask)
            grads = {}
            with contextlib.ExitStack() as patches:
                for name in forward_ops if patched else ():
                    patches.enter_context(mock.patch.object(nn, name,
                                                            side_effect=AssertionError(name)))
                return nn.stack_backward(params, prefix, cache, probe, grads), grads

        for prefix, context, key_mask in (("enc", None, x_mask), ("dec_v", ctx, ctx_mask)):
            (dx, dctx), grads = backward(prefix, context, key_mask, patched=True)
            (dx0, dctx0), grads0 = backward(prefix, context, key_mask, patched=False)
            assert np.array_equal(dx, dx0)
            assert (dctx is None) == (context is None)
            assert context is None or np.array_equal(dctx, dctx0)
            assert grads.keys() == grads0.keys()
            assert all(np.array_equal(grads[k], grads0[k]) for k in grads)


class TestMultiTaskLoss:
    def test_perfect_prediction_zero_loss(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert joint_loss(p, 2, 0.0) == (0.0, 0.0, False)

    def test_uniform_is_ln5_plus_rkl(self):
        p = np.full(5, 0.2)
        assert joint_loss(p, 0, 0.0)[0] == pytest.approx(math.log(5), abs=1e-12)
        loss, ce, _ = joint_loss(p, 0, 0.7, lam=2.0)
        assert loss == pytest.approx(math.log(5) + 1.4, abs=1e-12)
        assert ce == pytest.approx(math.log(5), abs=1e-12)

    def test_zero_probability_clamped_and_flagged(self):
        p = np.zeros(5)
        p[1] = 1.0
        loss, _, clamped = joint_loss(p, 0, 0.0)
        assert clamped
        assert loss == pytest.approx(-math.log(1e-12))

    def test_negative_rkl_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(np.full(5, 0.2), 0, -1.0)


class TestModelConfig:
    def test_fields(self):
        # The face size is a fact of the corpus, which training reads; no
        # setting holds it.
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "d_model", "d_ff", "d_h1", "heads", "epsilon"]

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, heads=4)

    def test_epsilon_range(self):
        # Training smooths the speaker targets by epsilon, and the KL from a
        # target with a zero class is infinite, so 0 is refused with 1.
        for epsilon in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match=r"epsilon must be in \(0, 1\)"):
                ModelConfig(epsilon=epsilon)


class TestForward:
    @pytest.fixture
    def mini(self):
        return _mini_setup(np.random.default_rng(12))

    def test_p_a_is_distribution(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        p_a = model.score(clip, qa, names)
        assert p_a.shape == (5,)
        assert p_a.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p_a >= 0)

    def test_identical_candidates_uniform(self, mini):
        model, clip, qa = mini
        same = QAItem(qa.question, [list(qa.answers[0])] * 5, 0, qa.ts_interval)
        names = model.name_assignments(clip)
        p_a = model.score(clip, same, names)
        assert np.allclose(p_a, 0.2, atol=1e-9)

    def test_candidate_permutation_equivariance(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, names)
        perm = [3, 0, 4, 1, 2]
        permuted = QAItem(qa.question, [qa.answers[i] for i in perm],
                          perm.index(qa.correct_index), qa.ts_interval)
        p_perm = model.score(clip, permuted, names)
        assert np.allclose(p_perm, base[perm], atol=1e-9)

    def test_swap_first_two_answers(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, names)
        swapped = QAItem(qa.question,
                         [qa.answers[1], qa.answers[0]] + list(qa.answers[2:]),
                         qa.correct_index, qa.ts_interval)
        p_sw = model.score(clip, swapped, names)
        assert p_sw[0] == pytest.approx(base[1], abs=1e-9)
        assert p_sw[1] == pytest.approx(base[0], abs=1e-9)
        assert np.allclose(p_sw[2:], base[2:], atol=1e-9)

    def test_empty_candidate_rejected(self, mini):
        # An empty question or answer would reach the encoder as an empty
        # candidate sequence: the item refuses it when it is made.
        _, _, qa = mini
        answers = [list(a) for a in qa.answers]
        with pytest.raises(ValueError, match="question must not be empty"):
            QAItem([], answers, 0, qa.ts_interval)
        with pytest.raises(ValueError, match="answer candidates must not be empty"):
            QAItem(qa.question, [[]] + answers[1:], 0, qa.ts_interval)

    def test_sub_only_ignores_frames(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        model.modality = ModalityConfig.from_label("Sub")
        p1 = model.score(clip, qa, names)
        stripped = type(clip)(clip.clip_id, [], clip.subtitles, clip.qas, None)
        p2 = model.score(stripped, qa, names)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_checkpoint_round_trip(self, mini, tmp_path):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, names)
        path = tmp_path / "m.npz"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.vocab == model.vocab
        assert loaded.cast == model.cast
        assert loaded.config == model.config
        for k, v in model.params.items():
            assert np.array_equal(loaded.params[k], v)
        p2 = loaded.score(clip, qa, names)
        assert np.array_equal(base, p2)

    def test_checkpoint_with_human_words_record_loads(self, mini, tmp_path):
        # Checkpoints of the same version once also recorded the human
        # words; that record is ignored and the scores stay the same.
        import json
        model, clip, qa = mini
        names = model.name_assignments(clip)
        path = tmp_path / "m.npz"
        model.save(path)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        assert "human_words" not in meta
        meta["human_words"] = ["man", "woman", "person", "boy", "girl", "guy", "lady",
                               "people"]
        blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                         dtype=np.uint8).copy()
        np.savez(tmp_path / "old.npz", **blob)
        loaded = Model.load(tmp_path / "old.npz")
        assert np.array_equal(loaded.score(clip, qa, names),
                              model.score(clip, qa, names))

    def test_checkpoint_version_guard(self, mini, tmp_path):
        model, _, _ = mini
        path = tmp_path / "m.npz"
        model.save(path)
        # ckpt-1 holds the same tensors but was trained under the single
        # visual context; ckpt-2 stores the name rows apart from the cast and
        # may lack the variant and seed; ckpt-3 records the face size in its
        # config too; ckpt-4 holds a character table; ckpt-5 holds ans.lnf.b.
        # None may load silently.
        for version in ("bogus", "charqa-ckpt-1", "charqa-ckpt-2", "charqa-ckpt-3",
                        "charqa-ckpt-4", "charqa-ckpt-5"):
            blob = dict(np.load(path, allow_pickle=False))
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            meta["version"] = version
            blob["__meta__"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
            np.savez(tmp_path / "bad.npz", **blob)
            with pytest.raises(SchemaVersionError, match=version):
                Model.load(tmp_path / "bad.npz")
        # Files that are not charqa checkpoints at all: plain text, a bare
        # .npy array, and an npz archive without the meta record.
        (tmp_path / "text.npz").write_text("not a checkpoint\n", encoding="utf-8")
        np.save(tmp_path / "bare.npy", np.zeros(3))
        np.savez(tmp_path / "nometa.npz", w=np.zeros(3))
        for name in ("text.npz", "bare.npy", "nometa.npz"):
            with pytest.raises(CheckpointError, match="not a charqa checkpoint"):
                Model.load(tmp_path / name)
        # A member whose npy header asks for more memory than there is.
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10 ** 13, 8)})
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(tmp_path / "huge.npz", "w") as dst:
            for info in src.infolist():
                dst.writestr(info, header.getvalue() if info.filename == "embed.word.npy"
                             else src.read(info))
        with pytest.raises(CheckpointError, match=r"not a charqa checkpoint \(Unable to allocate"):
            Model.load(tmp_path / "huge.npz")
        # The right version, but a meta record without the vocabulary, and
        # a tensor whose shape disagrees with the config.
        blob = dict(np.load(path, allow_pickle=False))
        blob["__meta__"] = np.frombuffer(
            json.dumps({"version": CHECKPOINT_VERSION}).encode("utf-8"), dtype=np.uint8).copy()
        np.savez(tmp_path / "thin.npz", **blob)
        with pytest.raises(CheckpointError, match="lacks 'vocab'"):
            Model.load(tmp_path / "thin.npz")
        blob = dict(np.load(path, allow_pickle=False))
        blob["enc.l0.ffn.w1"] = blob["enc.l0.ffn.w1"][:, :-1]
        np.savez(tmp_path / "shape.npz", **blob)
        with pytest.raises(CheckpointError, match="enc.l0.ffn.w1"):
            Model.load(tmp_path / "shape.npz")
        # Tensors of the right shape that are not finite: one entry of the
        # naming head, and a whole encoder weight.
        for key, index in (("naming.w1", (0, 0)), ("enc.l0.ffn.w1", ...)):
            for value in (np.nan, np.inf, -np.inf):
                blob = dict(np.load(path, allow_pickle=False))
                blob[key][index] = value
                np.savez(tmp_path / "nonfinite.npz", **blob)
                with pytest.raises(CheckpointError, match=f"{key}.*finite"):
                    Model.load(tmp_path / "nonfinite.npz")

    def test_face_size_is_the_naming_w1_rows(self, mini, tmp_path):
        import json
        model, _, _ = mini
        path = tmp_path / "m.npz"
        model.save(path)
        assert Model.load(path).params["naming.w1"].shape[0] == 6
        # naming.w1 is the face size's one record: a missing, 1-d or empty
        # one is refused as a bad tensor, and a meta that records the size
        # again is refused as an unknown config field.
        w1 = model.params["naming.w1"]
        for name, value in (("drop", None), ("1-d", w1[:, 0]), ("no-rows", w1[:0])):
            blob = dict(np.load(path, allow_pickle=False))
            if value is None:
                del blob["naming.w1"]
            else:
                blob["naming.w1"] = value
            np.savez(tmp_path / "bad.npz", **blob)
            with pytest.raises(CheckpointError) as info:
                Model.load(tmp_path / "bad.npz")
            assert "'naming.w1'" in str(info.value) and "\n" not in str(info.value), name
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        meta["config"]["d_f"] = 6
        blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(tmp_path / "d_f.npz", **blob)
        with pytest.raises(CheckpointError, match=r"\(config: unknown field 'd_f'\)"):
            Model.load(tmp_path / "d_f.npz")

    def test_checkpoint_holds_float64_only(self, mini, tmp_path):
        # Double precision everywhere: a tensor of another float width is
        # refused, whatever its byte order; a big-endian float64 loads.
        model, _, _ = mini
        path = tmp_path / "m.npz"
        model.save(path)
        for dtype in (np.float16, np.float32, np.longdouble, ">f4"):
            if np.dtype(dtype).itemsize == 8:  # longdouble is float64 on some hosts
                continue
            blob = dict(np.load(path, allow_pickle=False))
            blob["enc.l0.ffn.w1"] = blob["enc.l0.ffn.w1"].astype(dtype)
            np.savez(tmp_path / "narrow.npz", **blob)
            with pytest.raises(CheckpointError,
                               match=r"'enc\.l0\.ffn\.w1' must hold finite float64 values"):
                Model.load(tmp_path / "narrow.npz")
        blob = dict(np.load(path, allow_pickle=False))
        blob["enc.l0.ffn.w1"] = blob["enc.l0.ffn.w1"].astype(">f8")
        np.savez(tmp_path / "big.npz", **blob)
        loaded = Model.load(tmp_path / "big.npz")
        assert np.array_equal(loaded.params["enc.l0.ffn.w1"], model.params["enc.l0.ffn.w1"])

    def test_checkpoint_records_the_variant(self, mini, tmp_path):
        import json
        model, _, _ = mini
        sub = Model(model.vocab, model.cast, model.config, params=model.params,
                    modality=ModalityConfig.from_label("Sub + Objs"))
        path = tmp_path / "m.npz"
        sub.save(path)
        assert Model.load(path).modality == ModalityConfig.from_label("Sub + Objs")
        # A meta without the record, or with a malformed one, is a
        # checkpoint error.
        for variant, needle in ((None, "lacks 'variant'"), ("Sub + Bogus", "malformed"),
                                (3, "malformed")):
            blob = dict(np.load(path, allow_pickle=False))
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            if variant is None:
                del meta["variant"]
            else:
                meta["variant"] = variant
            blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                             dtype=np.uint8).copy()
            np.savez(tmp_path / "v.npz", **blob)
            with pytest.raises(CheckpointError, match=needle):
                Model.load(tmp_path / "v.npz")

    def test_checkpoint_records_the_seed(self, mini, tmp_path):
        import json
        model, _, _ = mini
        seeded = Model(model.vocab, model.cast, model.config, params=model.params, seed=5)
        path = tmp_path / "m.npz"
        seeded.save(path)
        assert Model.load(path).seed == 5
        # A meta without the record, or with a seed that is not an integer
        # >= 0, is a checkpoint error.
        for seed, needle in ((None, "lacks 'seed'"), (-1, "seed must be"), (1.5, "seed must be"),
                             ("3", "seed must be"), (True, "seed must be")):
            blob = dict(np.load(path, allow_pickle=False))
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            if seed is None:
                del meta["seed"]
            else:
                meta["seed"] = seed
            blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                             dtype=np.uint8).copy()
            np.savez(tmp_path / "s.npz", **blob)
            with pytest.raises(CheckpointError, match=needle):
                Model.load(tmp_path / "s.npz")

    def test_visual_runs_relations_then_objects(self, mini):
        """One visual_stream call per distinct (view, names) pair and
        co-attention pass, with the pass's one run: the relations, then the
        objects. Two items of one view and one names dict share one build;
        a names dict of its own, even an equal one, builds again."""
        model, clip, qa = mini
        calls = []

        def recording(frames, runs, face_names, cast):
            calls.append(runs)
            return visual_stream(frames, runs, face_names, cast)

        names = model.name_assignments(clip)
        with mock.patch.object(carn, "visual_stream", recording):
            for label, want in ((VARIANT_LABELS[-1], [("Rels_nm",), ("Objs_nm",)]),
                                ("Sub + Objs", [("Objs",)]), ("Sub", [])):
                model.modality = ModalityConfig.from_label(label)
                calls.clear()
                model.forward_item([(clip, qa, names)] * 2)
                assert calls == want, label
                calls.clear()
                model.forward_item([(clip, qa, names), (clip, qa, dict(names))])
                assert calls == want * 2, label

    def test_empty_context_needs_both_visual_runs_empty(self, mini):
        model, clip, qa = mini
        (frame,) = clip.frames

        def view_with(objects, triples):
            f = Frame(frame.frame_id, frame.time, frame.faces, frame.human_boxes,
                      objects, triples)
            return type(clip)(clip.clip_id, [f], clip.subtitles, clip.qas, None)

        def empty_count(view):
            # A forward-only pass gives the count too.
            count = model.item_loss_and_grads(clip, view, qa).empty_context
            assert model.forward_item([(view, qa, {})])[1] == [count]
            return count

        assert frame.objects and frame.triples
        assert empty_count(clip) == 0
        assert empty_count(view_with(frame.objects, [])) == 0
        assert empty_count(view_with([], frame.triples)) == 0
        assert empty_count(view_with([], [])) == 1

    def test_switched_off_modality_is_not_an_empty_context(self, mini):
        model, clip, qa = mini
        (frame,) = clip.frames
        assert frame.objects and frame.triples and clip.subtitles
        for label in ("Sub", "Objs_nm + Rels_nm"):
            model.modality = ModalityConfig.from_label(label)
            res = model.item_loss_and_grads(clip, clip, qa)
            assert res.empty_context == 0, label


def forward_rows(model, batch) -> int:
    """The padded rows that model.forward_batch runs on a batch of (context
    streams, qa) items, counted at nn.stack_forward: the rows of the QA and
    context encoder batches and of the decoder batches."""
    rows = []
    forward = nn.stack_forward

    def counting_forward(params, prefix, n_layers, x, *args, **kwargs):
        if prefix != "ans":
            rows.append(x.shape[0] * x.shape[1])
        return forward(params, prefix, n_layers, x, *args, **kwargs)

    with mock.patch.object(nn, "stack_forward", counting_forward):
        model.forward_batch(batch, keep_cache=False)
    return sum(rows)


def draw_batch_setup(data):
    """A small drawn corpus, a model of a drawn variant on it, and one
    (clip, view, qa, targets) item per QA item under drawn time stamps."""
    corpus = generate_corpus(GenConfig(
        k_principals=data.draw(st.integers(2, 3)), n_extras=1,
        n_clips=data.draw(st.integers(2, 4)), frames_per_clip=data.draw(st.integers(3, 4)),
        d_f=6, seed=data.draw(st.integers(0, 2**16))))
    # At least six lines among at most four speakers: one speaks twice.
    cast = build_cast_list(count_speakers(corpus), min_count=1)
    vocab = build_vocab(corpus, cast)
    config = ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2)
    model = Model(vocab, cast, config,
                  init_params(np.random.default_rng(data.draw(st.integers(0, 2**16))),
                              vocab, cast, config, 6),
                  modality=ModalityConfig.from_label(data.draw(st.sampled_from(
                      VARIANT_LABELS))))
    use_ts = data.draw(st.booleans())
    targets = {id(c): broadcast_targets(c, cast, model.config.epsilon) for c in corpus}
    pool = [(c, clip_view(c, qa, use_ts), qa, targets[id(c)])
            for c in corpus for qa in c.qas]
    return model, pool


class TestBuckets:
    """run_in_buckets cuts the sorted items into buckets that fill the row
    budget it is given: a run of items with equal context streams joins a
    bucket whole unless that would push the rows that forward_batch runs on
    it over the budget, and then starts a new one; a run too long for one
    bucket goes item by item."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_buckets_fill_the_budget(self, data):
        model, pool = draw_batch_setup(data)
        names = {id(clip): model.name_assignments(clip) for clip, *_ in pool}
        fed = [(model.context_streams(view, names[id(clip)]), qa) for clip, view, qa, _ in pool]
        budget = data.draw(st.integers(0, 3000) | st.just(math.inf))
        buckets = []
        results = carn.run_in_buckets(fed, lambda b: buckets.append(b) or list(b), budget)
        assert results == list(range(len(fed)))
        order = sorted(range(len(fed)), key=lambda i: (carn.bucket_key(*fed[i]), i))
        assert [i for b in buckets for i in b] == order

        def rows(indices):
            return forward_rows(model, [fed[i] for i in indices])

        runs = [list(run) for _, run in itertools.groupby(order, key=lambda i: fed[i][0])]
        whole = {i: run for run in runs if rows(run) <= budget for i in run}
        for run in whole.values():
            assert any(set(run) <= set(b) for b in buckets)
        for b, after in zip(buckets, buckets[1:] + [[]]):
            if len(b) > 1:
                assert rows(b) <= budget
            if after:  # the next run, or the next item of a run too long for a bucket
                assert rows(b + whole.get(after[0], after[:1])) > budget

    @pytest.mark.parametrize("budget, expected", [
        (100, [[0], [1, 2, 3, 4]]),  # 84 rows for [0, 1, 2], 92 for [1, 2, 3, 4]
        (90, [[0, 1, 2], [3, 4]]),  # the run [1, 2, 3, 4] alone is over the budget
    ])
    def test_a_run_of_equal_streams_joins_a_bucket_whole(self, budget, expected):
        # A one-item clip and a whole-clip view of four items, one subtitle
        # pass each. Cut item by item at 100 rows, the four items' stream
        # would be encoded in two buckets.
        qa = QAItem(["who"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (0.0, 1.0))
        short, long_ = ((["x"] * 10, [False] * 10),), ((["y"] * 12, [False] * 12),)
        fed = [(short, qa)] + [(long_, qa)] * 4
        buckets = []
        carn.run_in_buckets(fed, lambda b: buckets.append(b) or list(b), budget)
        assert buckets == expected


class TestBatch:
    """A batch through forward_item/backward_item equals its items run
    alone; batching changes nothing but speed."""

    @pytest.fixture(scope="class")
    def setup(self, small_corpus):
        cast = build_cast_list(count_speakers(small_corpus), min_count=None)
        vocab = build_vocab(small_corpus, cast)
        config = ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2)
        model = Model(vocab, cast, config,
                      init_params(np.random.default_rng(3), vocab, cast, config, 16))
        items = []
        for clip in small_corpus[:3]:
            targets = broadcast_targets(clip, cast, model.config.epsilon)
            for qa in clip.qas[:2]:
                items.append((clip, clip_view(clip, qa, True), qa, targets))
        # Two items whose contexts repeat (the whole clip), one without
        # frames (empty visual context) and one without anything.
        clip = small_corpus[3]
        targets = broadcast_targets(clip, cast, model.config.epsilon)
        bare = type(clip)(clip.clip_id, [], clip.subtitles, clip.qas, clip.truth)
        empty = type(clip)(clip.clip_id, [], [], clip.qas, clip.truth)
        items += [(clip, view, qa, targets)
                  for view, qa in zip((clip, clip, bare, empty), clip.qas)]
        return model, items

    def test_every_drawn_tensor_trains(self, setup):
        # One batch of the full variant gives every tensor init_params draws
        # a gradient well above rounding noise.
        model, items = setup
        assert model.modality == ModalityConfig()
        grads = {}
        model.loss_and_grads(items, grads=grads)
        assert set(grads) == set(model.params)
        assert {k for k, g in grads.items() if not np.max(np.abs(g)) > 1e-10} == set()

    def test_batch_equals_items_alone(self, setup):
        model, items = setup
        grads = {}
        results = model.loss_and_grads(items, lam=0.7, grads=grads)
        alone_grads = {}
        alone = [model.loss_and_grads([it], lam=0.7, grads=alone_grads)[0]
                 for it in items]
        assert [r.empty_context for r in alone] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 2]
        assert [r.empty_context for r in results] == [r.empty_context for r in alone]
        for r, a in zip(results, alone):
            assert np.max(np.abs(r.p_a - a.p_a)) <= 1e-12
            assert abs(r.loss - a.loss) <= 1e-12
        assert set(grads) == set(alone_grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - alone_grads[k])) <= 1e-12, k

    def test_item_permutation_permutes_outputs(self, setup):
        model, items = setup
        perm = np.random.default_rng(0).permutation(len(items))
        grads, perm_grads = {}, {}
        base = model.loss_and_grads(items, grads=grads)
        permuted = model.loss_and_grads([items[i] for i in perm], grads=perm_grads)
        for j, i in enumerate(perm):
            assert np.max(np.abs(permuted[j].p_a - base[i].p_a)) <= 1e-12
            assert permuted[j].empty_context == base[i].empty_context
        for k in grads:
            assert np.max(np.abs(grads[k] - perm_grads[k])) <= 1e-12, k

    def test_naming_head_runs_once_per_clip_of_a_batch(self, setup, monkeypatch):
        # Two clips have items on both sides of a boundary between the
        # runner's sorted buckets. The naming head runs once per
        # distinct clip of the whole batch, with its RKL gradient weighted by
        # the clip's item count; that equals the rule of running each
        # bucket as its own batch (once per clip of a bucket). Every
        # item is forwarded with the streams of its own clip's assignment,
        # the one of that head forward. The row budget is cut so that
        # several clips straddle a boundary, whatever names the head draws.
        monkeypatch.setattr(carn, "ROW_BUDGET", 600)
        model, items = setup
        own_names = {id(qa): model.name_assignments(clip) for clip, _, qa, _ in items}
        assert len({tuple(sorted(names.items())) for names in own_names.values()}) > 1
        own_streams = {id(qa): model.context_streams(view, own_names[id(qa)])
                       for _, view, qa, _ in items}
        micro = []
        carn.run_in_buckets([(own_streams[id(qa)], qa) for _, _, qa, _ in items],
                            lambda b: micro.append([items[i] for i in b]) or [None] * len(b),
                            carn.ROW_BUDGET)
        clips_per_micro = [{id(clip) for clip, *_ in mb} for mb in micro]
        crossing = {c for i, a in enumerate(clips_per_micro) for b in clips_per_micro[i + 1:]
                    for c in a & b}
        assert len(crossing) >= 2
        heads, named = [], []
        forward_batch, naming_forward = Model.forward_batch, carn.naming_forward
        monkeypatch.setattr(carn, "naming_forward",
                            lambda *a: heads.append(1) or naming_forward(*a))
        monkeypatch.setattr(model, "forward_batch", lambda b, **kw: (
            named.extend((id(qa), streams) for streams, qa in b)
            or forward_batch(model, b, **kw)))
        grads = {}
        results = model.loss_and_grads(items, lam=0.7, grads=grads)
        n_clips = len({id(clip) for clip, *_ in items})
        assert len(heads) == n_clips
        assert named == [(id(qa), own_streams[id(qa)]) for mb in micro for _, _, qa, _ in mb]
        ref_grads, ref = {}, {}
        for mb in micro:
            for (_, _, qa, _), r in zip(mb, model.loss_and_grads(mb, lam=0.7, grads=ref_grads)):
                ref[id(qa)] = r
        assert len(heads) == n_clips + sum(len(c) for c in clips_per_micro)
        assert [r.rkl for r in results] == [ref[id(qa)].rkl for _, _, qa, _ in items]
        assert [r.loss for r in results] == [ref[id(qa)].loss for _, _, qa, _ in items]
        assert set(grads) == set(ref_grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - ref_grads[k])) <= 1e-12, k

    def test_results_come_back_in_input_order(self, setup, monkeypatch):
        # The items are forwarded sorted by (bucket_key, input index), which
        # is not the batch's order, and each result goes back to its item.
        model, items = setup
        forwarded = []
        forward_batch = Model.forward_batch
        monkeypatch.setattr(model, "forward_batch", lambda b, **kw: (
            forwarded.extend(id(qa) for _, qa in b) or forward_batch(model, b, **kw)))
        results = model.loss_and_grads(items, lam=0.7)
        monkeypatch.undo()
        position = {id(qa): i for i, (_, _, qa, _) in enumerate(items)}
        order = [position[q] for q in forwarded]
        keys = [carn.bucket_key(model.context_streams(view, model.name_assignments(clip)), qa)
                for clip, view, qa, _ in items]
        assert order == sorted(range(len(items)), key=lambda i: (keys[i], i))
        assert order != list(range(len(items)))
        for item, r in zip(items, results):
            alone = model.loss_and_grads([item], lam=0.7)[0]
            assert np.max(np.abs(r.p_a - alone.p_a)) <= 1e-12
            assert abs(r.loss - alone.loss) <= 1e-12
            assert r.empty_context == alone.empty_context

    def test_loss_without_grads_keeps_no_cache(self, setup, monkeypatch):
        model, items = setup
        kept = []
        forward_batch = Model.forward_batch
        monkeypatch.setattr(model, "forward_batch", lambda b, **kw: (
            kept.append(kw["keep_cache"]) or forward_batch(model, b, **kw)))
        model.loss_and_grads(items, lam=0.7)
        forward_only = kept[:]
        del kept[:]
        model.loss_and_grads(items, lam=0.7, grads={})
        # The two calls cut different buckets (forward-only ones are larger).
        assert forward_only and forward_only == [False] * len(forward_only)
        assert kept and kept == [True] * len(kept)

    def test_face_table_built_once_per_clip(self, setup, monkeypatch):
        # One naming step per distinct clip: the table that the head's
        # forward reads is the one its backward reads.
        model, items = setup
        assert any(targets.frame_ids for *_, targets in items)
        tables = []
        face_table = carn.face_table
        monkeypatch.setattr(carn, "face_table", lambda clip: tables.append(clip.clip_id)
                            or face_table(clip))
        model.loss_and_grads(items, lam=0.7, grads={})
        assert sorted(tables) == sorted({clip.clip_id for clip, *_ in items})

    def test_faceless_clip_adds_no_naming_term(self, setup, small_corpus, monkeypatch):
        model, _ = setup
        clip = small_corpus[0]
        frames = [Frame(f.frame_id, f.time, [], f.human_boxes, f.objects, f.triples)
                  for f in clip.frames]
        faceless = type(clip)(clip.clip_id, frames, clip.subtitles, clip.qas, None)
        targets = broadcast_targets(faceless, model.cast, model.config.epsilon)
        named = []
        forward_item = Model.forward_item
        monkeypatch.setattr(model, "forward_item", lambda b, **kw: (
            named.extend(names for _, _, names in b) or forward_item(model, b, **kw)))
        grads = {}
        results = model.loss_and_grads([(faceless, faceless, qa, targets)
                                        for qa in faceless.qas], lam=0.7, grads=grads)
        assert [r.rkl for r in results] == [0.0] * len(faceless.qas)
        assert named == [{}] * len(faceless.qas)
        assert grads and not [k for k in grads if k.startswith("naming.")]

    def test_pad_rows_get_zero_gradient(self, setup):
        model, items = setup
        with pad_gradients_checked() as checked:
            model.loss_and_grads(items, grads={})
        assert {p for p, n in checked if n} >= {"enc", "dec_v", "dec_s"}

    def test_whole_clip_batch_encodes_each_context_once(self, setup, small_corpus,
                                                        monkeypatch):
        model, _ = setup
        clip = small_corpus[0]
        names = model.name_assignments(clip)
        calls = []
        forward = nn.stack_forward

        def counting_forward(params, prefix, *args, **kwargs):
            y, cache = forward(params, prefix, *args, **kwargs)
            if prefix == "enc":
                calls.append(y.shape[0])
            return y, cache

        streams = model.context_streams(clip, names)
        assert forward_rows(model, [(streams, qa) for qa in clip.qas]) <= carn.ROW_BUDGET
        monkeypatch.setattr(nn, "stack_forward", counting_forward)
        p_a, _ = model.forward_item([(clip, qa, names) for qa in clip.qas])
        # One QA batch of 5 candidates per item, then one encode of the one
        # distinct stream of each context pass (relations, objects, subtitles).
        assert calls == [5 * len(clip.qas), 1, 1, 1]
        assert p_a.shape == (len(clip.qas), 5)


class TestBatchProperties:
    """TestBatch's invariants on drawn corpora, variants, batches and
    permutations, through loss_and_grads as training runs it: the draws
    include batches of one item and batches of several buckets."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batch_invariants(self, data):
        model, pool = draw_batch_setup(data)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                   max_size=min(10, len(pool)), unique=True))
        items = [pool[i] for i in picks]
        perm = data.draw(st.permutations(range(len(items))))

        grads = {}
        with pad_gradients_checked() as checked:
            results = model.loss_and_grads(items, lam=0.7, grads=grads)
        assert checked

        alone_grads = {}
        alone = [model.loss_and_grads([it], lam=0.7, grads=alone_grads)[0] for it in items]
        for r, a in zip(results, alone):
            assert np.max(np.abs(r.p_a - a.p_a)) <= 1e-12
            assert abs(r.loss - a.loss) <= 1e-12
            assert r.empty_context == a.empty_context
        assert set(grads) == set(alone_grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - alone_grads[k])) <= 1e-12, k

        perm_grads = {}
        permuted = model.loss_and_grads([items[i] for i in perm], lam=0.7, grads=perm_grads)
        for j, i in enumerate(perm):
            assert np.max(np.abs(permuted[j].p_a - results[i].p_a)) <= 1e-12
            assert abs(permuted[j].loss - results[i].loss) <= 1e-12
        assert set(perm_grads) == set(grads)
        for k in grads:
            assert np.max(np.abs(grads[k] - perm_grads[k])) <= 1e-12, k


class TestCarnGradients:
    def test_encoder_and_coattention_fd(self):
        for comp in ("encoder", "coattention"):
            (rep,) = grad_check(comp, tolerance=1e-4, n_configs=2, seed=1)
            assert rep.passed, rep.format()

    def test_full_model_fd_smoke(self):
        (rep,) = grad_check("full", tolerance=1e-4, n_configs=1, seed=2)
        assert rep.passed, rep.format()
        # gradient coverage: every trainable tensor appears in the report
        model, _, _ = _mini_setup(np.random.default_rng(0))
        assert set(rep.worst) == set(model.params)


class TestParamTable:
    """The one table draws what the per-block init functions it replaced
    drew (tests/oracles.py keeps them), tensor for tensor and bit for bit,
    in key order; only ans.lnf.b, which never trained, is gone. At d_model
    32 the heads' division by sqrt(fan-in) and a multiplication by its
    inverse round apart in about one draw in eight."""

    @pytest.mark.parametrize("d_model, d_ff, d_h1, heads, d_f", [
        (32, 64, 16, 4, 16), (8, 12, 6, 2, 16), (4, 3, 2, 2, 5), (24, 20, 7, 3, 1)])
    def test_draws_match_the_replaced_init_functions(self, tiny_cast, d_model, d_ff, d_h1,
                                                     heads, d_f):
        vocab = Vocab(("cup", "hold", "story", "what"), tiny_cast.label_names())
        config = ModelConfig(d_model=d_model, d_ff=d_ff, d_h1=d_h1, heads=heads)
        got = init_params(np.random.default_rng(d_model), vocab, tiny_cast, config, d_f)
        want = oracle_init_params(np.random.default_rng(d_model), vocab, tiny_cast, config, d_f)
        del want["ans.lnf.b"]
        assert list(got) == list(want)
        for k, v in want.items():
            assert got[k].dtype == v.dtype and np.array_equal(got[k], v), k

    def test_lone_stacks_and_head_draw_as_before(self):
        config = ModelConfig(d_model=8, d_ff=12, d_h1=5, heads=2)
        table = param_table(config, 6, 0, 4)
        for prefix in ("enc", "dec_v", "dec_s"):
            want = {}
            oracle_init_stack(np.random.default_rng(4), want, prefix, 2, 8, 12, 2)
            got = draw_params(np.random.default_rng(4), table, prefix + ".")
            assert list(got) == list(want)
            assert all(np.array_equal(got[k], v) for k, v in want.items()), prefix
        want = {}
        oracle_init_naming(np.random.default_rng(5), want, 6, 5, 4)
        got = draw_params(np.random.default_rng(5), table, "naming.")
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], v) for k, v in want.items())


class TestLoadPeak:
    # Model.load reads the shapes a meta needs from the parameter table and
    # draws nothing: a small checkpoint whose meta claims large sizes is
    # refused, naming a tensor, at a traced peak set by its own tensors.
    @pytest.mark.parametrize("d_model, d_ff", [(256, 256), (512, 1024)])
    def test_inflated_meta_is_refused_without_a_draw(self, small_corpus, tmp_path,
                                                     d_model, d_ff):
        cast = build_cast_list(count_speakers(small_corpus), min_count=None)
        vocab = build_vocab(small_corpus, cast)
        config = ModelConfig(d_model=32, d_ff=64, d_h1=16, heads=4)
        model = Model(vocab, cast, config,
                      init_params(np.random.default_rng(0), vocab, cast, config, 16))
        model.save(tmp_path / "m.npz")
        blob = dict(np.load(tmp_path / "m.npz", allow_pickle=False))
        meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
        meta["config"].update(d_model=d_model, d_ff=d_ff)
        blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(tmp_path / "big.npz", **blob)
        tensor_bytes = sum(v.nbytes for v in model.params.values())
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="tensor 'ans.head.w' has shape"):
                Model.load(tmp_path / "big.npz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tensor_bytes + 2**18, (peak, tensor_bytes)


class TestCheckpointFormat:
    # Every tensor init_params draws for one fixed tiny config, by name and
    # shape, beside the checkpoint version: a change to the tensors a model
    # holds must come with a new version, which this pin then records.
    LAYER = {"attn.wk": (2, 4, 2), "attn.wq": (2, 4, 2), "ffn.b1": (3,), "ffn.b2": (4,),
             "ffn.w1": (4, 3), "ffn.w2": (3, 4), "ln1.b": (4,), "ln1.g": (4,),
             "ln2.b": (4,), "ln2.g": (4,)}
    STACKS = {"enc": 2, "dec_v": 2, "dec_s": 2, "ans": 1}
    OTHERS = {"embed.word": (3, 4), "embed.name": (3, 4), "ans.head.w": (4,),
              "naming.w1": (5, 2), "naming.b1": (2,), "naming.w2": (2, 3), "naming.b2": (3,)}

    def test_version_pins_the_drawn_tensors(self, tiny_cast):
        vocab = Vocab(("cup", "hold", "what"), tiny_cast.label_names())
        config = ModelConfig(d_model=4, d_ff=3, d_h1=2, heads=2)
        params = init_params(np.random.default_rng(0), vocab, tiny_cast, config, 5)
        want = {f"{s}.l{i}.{k}": shape for s, n in self.STACKS.items() for i in range(n)
                for k, shape in self.LAYER.items()}
        want.update({f"{s}.lnf.{k}": (4,) for s in self.STACKS for k in "bg"})
        del want["ans.lnf.b"]
        want.update(self.OTHERS)
        assert (CHECKPOINT_VERSION, sorted((k, v.shape) for k, v in params.items())) == \
            ("charqa-ckpt-6", sorted(want.items()))


class TestCheckpointRoundTrip:
    """Property: any small model survives save/load bit for bit, and any
    non-finite, missing or reshaped tensor is refused."""

    @staticmethod
    def draw_model(data):
        heads = data.draw(st.sampled_from([1, 2]))
        config = ModelConfig(
            d_model=heads * data.draw(st.integers(1, 4)), d_ff=data.draw(st.integers(1, 6)),
            d_h1=data.draw(st.integers(1, 5)), heads=heads,
            epsilon=data.draw(st.floats(0.0, 0.5, exclude_min=True)))
        d_f = data.draw(st.integers(1, 4))
        words = data.draw(st.lists(st.text("abcdefg", min_size=1, max_size=4),
                                   min_size=1, max_size=6, unique=True))
        names = data.draw(st.lists(st.text("ABCDEF", min_size=1, max_size=3),
                                   max_size=3, unique=True))
        cast = CastList(tuple(names), tuple(range(len(names), 0, -1)))
        vocab = Vocab(tuple(sorted(words)), cast.label_names())
        modality = ModalityConfig.from_label(data.draw(st.sampled_from(VARIANT_LABELS)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        model = Model(vocab, cast, config, init_params(rng, vocab, cast, config, d_f),
                      modality=modality, seed=data.draw(st.integers(0, 2**40)))
        face = FaceDetection(0, 0, BBox(1, 1, 4, 4), rng.standard_normal(d_f))
        frame = Frame(0, 0.0, [face], [], [(words[0], None)], [])
        line = SubtitleLine(names[0] if names else "Zed", words[-1:], 0.0, 1.0)
        qa = QAItem(list(words), [[words[i % len(words)]] for i in range(5)], 0, (0.0, 1.0))
        return model, Clip("p", [frame], [line], [qa], None), qa

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_save_load_is_exact_and_corruption_is_refused(self, data):
        model, clip, qa = self.draw_model(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npz"
            model.save(path)
            loaded = Model.load(path)
            assert (loaded.vocab, loaded.cast, loaded.config, loaded.modality,
                    loaded.seed) == (model.vocab, model.cast, model.config,
                                     model.modality, model.seed)
            assert loaded.params.keys() == model.params.keys()
            for k, v in model.params.items():
                got = loaded.params[k]
                assert got.dtype == v.dtype and got.shape == v.shape
                assert got.tobytes() == v.tobytes(), k
            names = model.name_assignments(clip)
            assert loaded.name_assignments(clip) == names
            assert np.array_equal(loaded.score(clip, qa, names),
                                  model.score(clip, qa, names))

            key = data.draw(st.sampled_from(sorted(model.params)))
            fault = data.draw(st.sampled_from(["nan", "inf", "-inf", "drop", "reshape",
                                               "float32"]))
            blob = dict(np.load(path, allow_pickle=False))
            if fault == "drop":
                del blob[key]
            elif fault == "reshape":
                blob[key] = blob[key].reshape(blob[key].shape + (1,))
            elif fault == "float32":
                blob[key] = blob[key].astype(np.float32)
            else:
                blob[key] = blob[key].copy()
                blob[key].flat[data.draw(st.integers(0, blob[key].size - 1))] = float(fault)
            np.savez(Path(tmp) / "bad.npz", **blob)
            with pytest.raises(CheckpointError, match=re.escape(repr(key))):
                Model.load(Path(tmp) / "bad.npz")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_meta_is_refused(self, data):
        # One meta value swapped for a value of another JSON kind, or an
        # integer size for a float: a CheckpointError, never another error.
        model, _, _ = self.draw_model(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npz"
            model.save(path)
            blob = dict(np.load(path, allow_pickle=False))
            meta = json.loads(bytes(blob["__meta__"]).decode("utf-8"))
            paths = [("config", name) for name in meta["config"]] + [("variant",), ("seed",)]
            for record, key in (("cast", "names"), ("cast", "counts"), ("vocab", "words")):
                paths += [(record, key)] + [(record, key, i)
                                            for i in range(len(meta[record][key]))]
            where = data.draw(st.sampled_from(paths))
            owner = value_at(meta, where[:-1])
            old = owner[where[-1]]
            new = JSON_VALUES.filter(lambda v: json_kind(v) != json_kind(old))
            if type(old) is int:
                new |= st.floats(-4.0, 4.0)
            owner[where[-1]] = data.draw(new)
            blob["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                             dtype=np.uint8).copy()
            np.savez(Path(tmp) / "bad.npz", **blob)
            with pytest.raises(CheckpointError, match="malformed checkpoint meta"):
                Model.load(Path(tmp) / "bad.npz")
