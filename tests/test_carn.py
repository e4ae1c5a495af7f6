import math

import numpy as np
import pytest

from charqa import nn
from charqa.carn import (FULL_VARIANT, ModalityConfig, Model, ModelConfig,
                         VARIANT_LABELS, Vocab, build_vocab, embed_sequence,
                         joint_loss, prepare_sequence, qa_stream, subtitle_stream)
from charqa.castlist import build_cast_list
from charqa.corpus import Frame, QAItem, clip_view, generate_corpus, GenConfig
from charqa.errors import (CheckpointError, ConfigError, EmptyInputError, ShapeError,
                           VocabError)
from charqa.harness import TrainConfig, _build_cast, _mini_setup, grad_check


def stack_params(prefix="enc", d_model=8, d_ff=12, heads=4, seed=0):
    rng = np.random.default_rng(seed)
    params = {}
    nn.init_stack(rng, params, prefix, 2, d_model, d_ff, heads)
    return params


# The ops the model runs, output only.
def attention(q, k, key_mask=None):
    return nn.attention_forward(q, k, key_mask)[0]


def encode(x, params, key_mask=None):
    return nn.stack_forward(params, "enc", 2, x, None, key_mask)[0]


def co_attend(x, context, params):
    return nn.stack_forward(params, "dec", 2, x, context)[0]


class TestModalityConfig:
    def test_nine_labels_round_trip(self):
        assert len(VARIANT_LABELS) == 9
        for label in VARIANT_LABELS:
            assert ModalityConfig.from_label(label).label() == label
        assert FULL_VARIANT == "Sub + Objs_nm + Rels_nm"

    def test_lowercase_comma_form(self):
        m = ModalityConfig.from_label("objs_nm,rels_nm")
        assert (m.use_sub, m.use_objs, m.objs_names, m.use_rels, m.rels_names) \
            == (False, True, True, True, True)

    def test_all_streams_off_rejected(self):
        with pytest.raises(ConfigError):
            ModalityConfig(use_sub=False, use_objs=False, use_rels=False,
                           objs_names=False, rels_names=False)

    def test_names_require_stream(self):
        with pytest.raises(ConfigError):
            ModalityConfig(use_objs=False, objs_names=True)

    def test_unknown_part_rejected(self):
        with pytest.raises(ConfigError):
            ModalityConfig.from_label("Sub + Faces")


class TestVocabAndEmbedding:
    @pytest.fixture
    def setup(self, tiny_cast):
        vocab = Vocab(("cup", "hold", "what"), tiny_cast.label_names(),
                      tuple(sorted(set("cupholdwhatAdaBenUNKNAME" "zyx"))))
        rng = np.random.default_rng(1)
        params = {"embed.word": rng.standard_normal((3, 6)),
                  "embed.name": rng.standard_normal((3, 6)),
                  "embed.char": rng.standard_normal((len(vocab.chars), 6))}
        return vocab, params

    def test_word_and_name_spaces_disjoint(self):
        with pytest.raises(VocabError):
            Vocab(("Ada",), ("Ada",), ("A", "d", "a"))

    def test_name_flag_selects_name_table(self, setup):
        vocab, params = setup
        x, _ = embed_sequence(params, vocab, ["Ada"], [True])
        assert np.array_equal(x[0], params["embed.name"][vocab.name_index["Ada"]])

    def test_oov_word_uses_char_mean(self, setup):
        vocab, params = setup
        x, _ = embed_sequence(params, vocab, ["zyx"], [False])
        rows = [params["embed.char"][vocab.char_index[c]] for c in "zyx"]
        assert np.allclose(x[0], np.mean(rows, axis=0))

    def test_unknown_char_raises(self, setup):
        vocab, params = setup
        with pytest.raises(VocabError, match="9"):
            embed_sequence(params, vocab, ["cup9"], [False])

    def test_pad_rows_are_zero_and_masked(self, setup):
        vocab, params = setup
        x, mask, _ = prepare_sequence(params, vocab, ["cup", "hold"],
                                      [False, False], n_pad=3)
        assert x.shape[0] == 5
        assert np.all(x[2:] == 0.0)
        assert mask.tolist() == [True, True, False, False, False]

    def test_build_vocab_covers_corpus(self, small_corpus):
        cast = build_cast_list({"Ada": 10, "Ben": 8}, min_count=2, max_ratio=0.1)
        vocab = build_vocab(small_corpus, cast)
        assert set(cast.label_names()) == set(vocab.names)
        assert not (set(vocab.words) & set(vocab.names))
        for clip in small_corpus:
            for line in clip.subtitles:
                for t in line.tokens:
                    assert all(ch in vocab.char_index for ch in t)


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


class TestCoAttend:
    def test_single_context_attention_row(self):
        # the pre-FFN attention value with one key equals that key everywhere
        k = np.array([[2.0, -1.0, 0.5]])
        q = np.random.default_rng(6).standard_normal((4, 3))
        assert np.allclose(attention(q, k), np.repeat(k, 4, axis=0))

    def test_context_permutation_invariant(self):
        params = stack_params("dec")
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
        params = stack_params("dec")
        rng = np.random.default_rng(13)
        queries = [rng.standard_normal((n, 8)) for n in (3, 5, 2, 4, 1)]
        ctx = rng.standard_normal((6, 8))
        probes = [rng.standard_normal(q.shape) for q in queries]
        y, cache = nn.stack_forward(params, "dec", 2, np.concatenate(queries), ctx)
        grads = {}
        dq, dctx = nn.stack_backward(params, "dec", cache, np.concatenate(probes), grads)
        split = np.cumsum([len(q) for q in queries])[:-1]
        alone_grads = {}
        alone_dctx = np.zeros_like(ctx)
        for q, probe, y_i, dq_i in zip(queries, probes, np.split(y, split),
                                       np.split(dq, split)):
            y1, c1 = nn.stack_forward(params, "dec", 2, q, ctx)
            dq1, dctx1 = nn.stack_backward(params, "dec", c1, probe, alone_grads)
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
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, heads=4)

    def test_epsilon_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(epsilon=1.0)


class TestForward:
    @pytest.fixture
    def mini(self):
        return _mini_setup(np.random.default_rng(12))

    def test_p_a_is_distribution(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        p_a = model.score(clip, qa, ModalityConfig(), names)
        assert p_a.shape == (5,)
        assert p_a.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p_a >= 0)

    def test_identical_candidates_uniform(self, mini):
        model, clip, qa = mini
        same = QAItem(qa.question, [list(qa.answers[0])] * 5, 0, qa.ts_interval)
        names = model.name_assignments(clip)
        p_a = model.score(clip, same, ModalityConfig(), names)
        assert np.allclose(p_a, 0.2, atol=1e-9)

    def test_candidate_permutation_equivariance(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, ModalityConfig(), names)
        perm = [3, 0, 4, 1, 2]
        permuted = QAItem(qa.question, [qa.answers[i] for i in perm],
                          perm.index(qa.correct_index), qa.ts_interval)
        p_perm = model.score(clip, permuted, ModalityConfig(), names)
        assert np.allclose(p_perm, base[perm], atol=1e-9)

    def test_swap_first_two_answers(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, ModalityConfig(), names)
        swapped = QAItem(qa.question,
                         [qa.answers[1], qa.answers[0]] + list(qa.answers[2:]),
                         qa.correct_index, qa.ts_interval)
        p_sw = model.score(clip, swapped, ModalityConfig(), names)
        assert p_sw[0] == pytest.approx(base[1], abs=1e-9)
        assert p_sw[1] == pytest.approx(base[0], abs=1e-9)
        assert np.allclose(p_sw[2:], base[2:], atol=1e-9)

    def test_empty_candidate_rejected(self, mini):
        model, clip, qa = mini
        empty = QAItem([], [[]] + [list(a) for a in qa.answers[1:]], 0, qa.ts_interval)
        with pytest.raises(EmptyInputError):
            model.score(clip, empty, ModalityConfig(), model.name_assignments(clip))

    def test_sub_only_ignores_frames(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        sub_only = ModalityConfig.from_label("Sub")
        p1 = model.score(clip, qa, sub_only, names)
        stripped = type(clip)(clip.clip_id, [], clip.subtitles, clip.qas, None)
        p2 = model.score(stripped, qa, sub_only, names)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_checkpoint_round_trip(self, mini, tmp_path):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        base = model.score(clip, qa, ModalityConfig(), names)
        path = tmp_path / "m.npz"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.vocab == model.vocab
        assert loaded.cast == model.cast
        assert loaded.config == model.config
        for k, v in model.params.items():
            assert np.array_equal(loaded.params[k], v)
        p2 = loaded.score(clip, qa, ModalityConfig(), names)
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
        assert np.array_equal(loaded.score(clip, qa, ModalityConfig(), names),
                              model.score(clip, qa, ModalityConfig(), names))

    def test_checkpoint_version_guard(self, mini, tmp_path):
        import json
        from charqa.errors import SchemaVersionError
        model, _, _ = mini
        path = tmp_path / "m.npz"
        model.save(path)
        # ckpt-1 holds the same tensors but was trained under the single
        # visual context; it must not load silently.
        for version in ("bogus", "charqa-ckpt-1"):
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
        # The right version, but a meta record without the vocabulary, and
        # a tensor whose shape disagrees with the config.
        blob = dict(np.load(path, allow_pickle=False))
        blob["__meta__"] = np.frombuffer(
            json.dumps({"version": "charqa-ckpt-2"}).encode("utf-8"), dtype=np.uint8).copy()
        np.savez(tmp_path / "thin.npz", **blob)
        with pytest.raises(CheckpointError, match="lacks 'vocab'"):
            Model.load(tmp_path / "thin.npz")
        blob = dict(np.load(path, allow_pickle=False))
        blob["enc.l0.ffn.w1"] = blob["enc.l0.ffn.w1"][:, :-1]
        np.savez(tmp_path / "shape.npz", **blob)
        with pytest.raises(CheckpointError, match="enc.l0.ffn.w1"):
            Model.load(tmp_path / "shape.npz")

    def test_visual_passes_relations_then_objects(self):
        passes = ModalityConfig().visual_passes()
        assert [m.label() for m in passes] == ["Sub + Rels_nm", "Sub + Objs_nm"]
        single = ModalityConfig.from_label("Sub + Objs")
        assert single.visual_passes() == (single,)
        assert ModalityConfig.from_label("Sub").visual_passes() == ()

    def test_empty_context_needs_both_visual_runs_empty(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        (frame,) = clip.frames

        def view_with(objects, triples):
            f = Frame(frame.frame_id, frame.time, frame.faces, frame.human_boxes,
                      objects, triples)
            return type(clip)(clip.clip_id, [f], clip.subtitles, clip.qas, None)

        def empty_count(view):
            return model.item_loss_and_grads(clip, view, qa, ModalityConfig(),
                                             names).empty_context

        assert frame.objects and frame.triples
        assert empty_count(clip) == 0
        assert empty_count(view_with(frame.objects, [])) == 0
        assert empty_count(view_with([], frame.triples)) == 0
        assert empty_count(view_with([], [])) == 1

    def test_switched_off_modality_is_not_an_empty_context(self, mini):
        model, clip, qa = mini
        names = model.name_assignments(clip)
        (frame,) = clip.frames
        assert frame.objects and frame.triples and clip.subtitles
        for label in ("Sub", "Objs_nm + Rels_nm"):
            res = model.item_loss_and_grads(clip, clip, qa, ModalityConfig.from_label(label),
                                            names)
            assert res.empty_context == 0, label


class TestBatch:
    """A batch through forward_item/backward_item equals its items run
    alone; batching changes nothing but speed."""

    @pytest.fixture(scope="class")
    def setup(self, small_corpus):
        cast = _build_cast(small_corpus, TrainConfig())
        model = Model(build_vocab(small_corpus, cast), cast,
                      ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2, d_f=16),
                      rng=np.random.default_rng(3))
        items = []
        for clip in small_corpus[:3]:
            names = model.name_assignments(clip)
            for qa in clip.qas[:2]:
                items.append((clip, clip_view(clip, qa, True)[0], qa, names, None))
        # Two items whose contexts repeat (the whole clip), one without
        # frames (empty visual context) and one without anything.
        clip = small_corpus[3]
        names = model.name_assignments(clip)
        bare = type(clip)(clip.clip_id, [], clip.subtitles, clip.qas, clip.truth)
        empty = type(clip)(clip.clip_id, [], [], clip.qas, clip.truth)
        items += [(clip, clip, clip.qas[0], names, None), (clip, clip, clip.qas[1], names, None),
                  (clip, bare, clip.qas[2], names, None), (clip, empty, clip.qas[3], names, None)]
        return model, items

    def test_batch_equals_items_alone(self, setup):
        model, items = setup
        grads = {}
        results = model.loss_and_grads(items, ModalityConfig(), lam=0.7, grads=grads)
        alone_grads = {}
        alone = [model.loss_and_grads([it], ModalityConfig(), lam=0.7, grads=alone_grads)[0]
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
        base = model.loss_and_grads(items, ModalityConfig(), grads=grads)
        permuted = model.loss_and_grads([items[i] for i in perm], ModalityConfig(),
                                        grads=perm_grads)
        for j, i in enumerate(perm):
            assert np.max(np.abs(permuted[j].p_a - base[i].p_a)) <= 1e-12
            assert permuted[j].empty_context == base[i].empty_context
        for k in grads:
            assert np.max(np.abs(grads[k] - perm_grads[k])) <= 1e-12, k

    def test_pad_rows_get_zero_gradient(self, setup, monkeypatch):
        # Every key-masked stack call: the input gradient of each pad row,
        # and the context gradient of each pad key, are exactly zero.
        model, items = setup
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
                is_self, key_mask, _ = masks[id(cache)]
                pads = dx[~key_mask] if is_self else dctx[~key_mask]
                assert np.all(pads == 0.0), prefix
                checked.append((prefix, int((~key_mask).sum())))
            return dx, dctx

        monkeypatch.setattr(nn, "stack_forward", recording_forward)
        monkeypatch.setattr(nn, "stack_backward", checking_backward)
        model.loss_and_grads(items, ModalityConfig(), grads={})
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

        monkeypatch.setattr(nn, "stack_forward", counting_forward)
        p_a, _ = model.forward_item([(clip, qa, names) for qa in clip.qas], ModalityConfig(),
                                    keep_cache=False)
        # One QA batch of 5 candidates per item, then one encode of the one
        # distinct stream of each context pass (relations, objects, subtitles).
        assert calls == [5 * len(clip.qas), 1, 1, 1]
        assert p_a.shape == (len(clip.qas), 5)


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
