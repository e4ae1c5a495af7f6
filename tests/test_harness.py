"""Training loop, evaluation, ablation grid, metrics files, gradient-check
runner."""

import copy
import gc
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charqa import carn, harness, nn
from charqa.carn import (VARIANT_LABELS, ModalityConfig, Model, ModelConfig, draw_params,
                         param_table)
from charqa.corpus import (DEFAULT_DIALOGUE_VOCAB, MAX_K_PRINCIPALS, MAX_N_EXTRAS, Clip,
                           GenConfig, clip_view, config_kwargs, generate_corpus)
from charqa.errors import (CharqaError, ConfigError, EmptyInputError, NumericFaultError,
                           ShapeError)
from charqa.harness import (METRICS_COLUMNS, GradCheckReport, TrainConfig, _mini_batch,
                            _mini_setup, ablate, evaluate, format_report,
                            grad_check, metrics_csv_text, train, write_metrics_csv)
from charqa.naming import broadcast_targets
from test_carn import fed_item, forward_rows

SMALL_MODEL = ModelConfig(d_model=16, d_ff=24, d_h1=8, heads=2)


def small_config(**kw):
    base = dict(epochs=3, batch_size=16, model=SMALL_MODEL)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trained(small_corpus):
    config = small_config()
    model, report = train(small_corpus, config)
    return model, report, config


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [
        dict(batch_size=0), dict(learning_rate=0.0), dict(epochs=-1),
        dict(lam=-0.5), dict(model={"epsilon": 1.0}), dict(seed=-1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(kw)

    def test_dict_round_trip(self):
        config = small_config(modality=ModalityConfig.from_label("Sub + Objs"))
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_hash_tracks_content(self):
        a = small_config()
        assert a.hash() == small_config().hash()
        assert a.hash() != small_config(seed=1).hash()


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


# What a config may hold, per numeric field.
TRAIN_RANGES = {
    "batch_size": lambda v: v >= 1,
    "learning_rate": lambda v: _finite(v) and v > 0,
    "epochs": lambda v: v >= 0,
    "lam": lambda v: _finite(v) and v >= 0,
    "seed": lambda v: v >= 0,
    "min_count": lambda v: v is None or v >= 1,
    "max_ratio": lambda v: _finite(v) and 0 < v <= 1,
}
MODEL_RANGES = {
    **{name: lambda v: v >= 1 for name in ("d_model", "d_ff", "d_h1", "heads")},
    "epsilon": lambda v: _finite(v) and 0 < v < 1,
}
GEN_RANGES = {
    "k_principals": lambda v: 1 <= v <= MAX_K_PRINCIPALS,
    "n_extras": lambda v: 0 <= v <= MAX_N_EXTRAS,
    "n_clips": lambda v: v >= 1,
    "frames_per_clip": lambda v: 1 <= v <= len(DEFAULT_DIALOGUE_VOCAB),
    "d_f": lambda v: v >= 1,
    "noise_sigma": lambda v: _finite(v) and v >= 0,
    "cooccur_rho": lambda v: _finite(v) and 0 <= v <= 1,
    "seed": lambda v: v >= 0,
}

JSON_SCALARS = st.one_of(
    st.integers(-3, 3), st.integers(), st.sampled_from([10 ** 400, -10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.5, 1.0, 2.0]),
    st.booleans(), st.text(max_size=6), st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)


def json_objects(cls, **nested):
    """JSON objects over the fields of cls, any subset, each value drawn from
    nested[name] or else from any JSON value."""
    return st.fixed_dictionaries({}, optional={
        f.name: nested.get(f.name, JSON_VALUES) for f in fields(cls)})


def assert_in_range(config, ranges):
    numeric = {f.name for f in fields(config)
               if f.type.removesuffix(" | None") in ("int", "float")}
    assert set(ranges) == numeric
    for name, ok in ranges.items():
        v = getattr(config, name)
        assert v is None or (isinstance(v, (int, float)) and not isinstance(v, bool)), name
        assert ok(v), (name, v)


class TestConfigFileProperties:
    """A --config file either gives a ConfigError or a config whose every
    numeric field is finite and in range."""

    @settings(max_examples=300, deadline=None)
    @given(json_objects(TrainConfig,
                        model=json_objects(ModelConfig) | JSON_VALUES,
                        modality=st.sampled_from(VARIANT_LABELS) | JSON_VALUES))
    @example({"model": {"heads": 0}})
    @example({"learning_rate": math.nan})
    @example({"lam": math.inf})
    @example({"min_count": 0})
    @example({"max_ratio": 2.0})
    def test_train_config(self, d):
        try:
            config = TrainConfig.from_dict(d)
        except ConfigError:
            return
        assert_in_range(config, TRAIN_RANGES)
        assert_in_range(config.model, MODEL_RANGES)
        assert config.model.d_model % config.model.heads == 0

    @settings(max_examples=300, deadline=None)
    @given(json_objects(GenConfig))
    @example({"noise_sigma": 10 ** 400})
    def test_gen_config(self, d):
        try:
            config = GenConfig(**config_kwargs(GenConfig, d, "gen config"))
        except ConfigError:
            return
        assert_in_range(config, GEN_RANGES)


class TestTrain:
    def test_evaluation_runs_without_the_optimizer(self, small_corpus, monkeypatch):
        # train's own evaluation runs after the training loop's Adam moments
        # (and its last gradients and item list) are freed.
        def adams():
            return sum(isinstance(o, nn.Adam) for o in gc.get_objects())

        before, during = adams(), []
        monkeypatch.setattr(harness, "evaluate", lambda *a, **kw: (
            during.append(adams()) or evaluate(*a, **kw)))
        train(small_corpus, small_config(epochs=1))
        assert during == [before]

    def test_loss_decreases(self, small_corpus, trained):
        _, report, config = trained
        assert len(report.losses) == config.epochs
        assert report.losses[-1] < report.losses[0]
        assert report.variant == config.modality.label()
        assert report.n_items == sum(len(c.qas) for c in small_corpus)
        assert 0.0 <= report.qa_acc <= 1.0

    def test_deterministic(self, small_corpus):
        config = small_config(epochs=2)
        model_a, rep_a = train(small_corpus, config)
        model_b, rep_b = train(small_corpus, config)
        assert metrics_csv_text([rep_a]) == metrics_csv_text([rep_b])
        for key in model_a.params:
            assert model_a.params[key].tobytes() == model_b.params[key].tobytes()

    def test_empty_corpus(self):
        with pytest.raises(EmptyInputError):
            train([], small_config())

    def test_corpus_without_qa(self, small_corpus):
        stripped = [Clip(c.clip_id, c.frames, c.subtitles, [], c.truth)
                    for c in small_corpus]
        with pytest.raises(EmptyInputError):
            train(stripped, small_config())

    def test_face_sizes_must_agree(self, small_corpus):
        # The naming head's input size is read from the corpus, so it must
        # have one.
        other = generate_corpus(GenConfig(k_principals=2, n_extras=1, n_clips=1, d_f=4,
                                          seed=1))
        with pytest.raises(ShapeError, match=r"differ in size: \[4, 16\]"):
            train(small_corpus[:2] + other, small_config(epochs=0))

    def test_checkpoint_reproduces_eval(self, small_corpus, trained, tmp_path):
        model, report, config = trained
        path = tmp_path / "model.npz"
        model.save(path)
        again = evaluate(Model.load(path), small_corpus, use_ts=config.use_ts)
        assert again.row() == report.row()

    def test_zero_epochs_is_chance(self, chance_corpus):
        # One untrained model is not at chance: its random answer head may
        # favour, or shun, candidates whose tokens its context repeats: over
        # seeds 0-31 one draw scores the textual items from 0.0 to 0.54, and
        # the whole corpus from 0.08 to 0.38. Its expectation over the draws
        # is chance.
        accs = []
        for seed in range(8):
            _, report = train(chance_corpus, small_config(epochs=0, seed=seed))
            assert report.losses == []
            assert report.n_items >= 500
            accs.append(report.qa_acc)
        assert abs(np.mean(accs) - 0.2) < 0.06


@pytest.fixture(scope="module")
def chance_corpus():
    # 125 clips x 4 QA items: enough for a tight binomial band around 0.2.
    return generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=125,
                                     d_f=16, seed=5))


class TestEvaluate:
    def test_forced_gold_is_perfect(self, small_corpus, trained):
        model, _, config = trained

        def gold(items):
            p = np.zeros((len(items), 5))
            for b, (_, qa, _) in enumerate(items):
                p[b, qa.correct_index] = 1.0
            return p, [0] * len(items)

        original = model.forward_item
        model.forward_item = gold
        try:
            report = evaluate(model, small_corpus, use_ts=True)
        finally:
            model.forward_item = original
        assert report.qa_acc == 1.0
        assert report.qa_acc_visual == 1.0
        assert report.qa_acc_textual == 1.0

    def test_names_each_clip_once(self, small_corpus, trained, monkeypatch):
        # One naming pass: each clip's one assignment feeds its items'
        # streams and its face count. The items are forwarded in sorted
        # buckets, so each is paired with its own clip's assignment.
        model, _, _ = trained
        named, forwarded = [], []
        name_assignments, forward_item = Model.name_assignments, Model.forward_item
        monkeypatch.setattr(model, "name_assignments", lambda clip: (
            named.append(clip.clip_id) or name_assignments(model, clip)))
        monkeypatch.setattr(model, "forward_item", lambda batch, **kw: (
            forwarded.extend((id(qa), names) for _, qa, names in batch)
            or forward_item(model, batch, **kw)))
        report = evaluate(model, small_corpus, use_ts=True)
        assert named == [clip.clip_id for clip in small_corpus]
        clip_of = {id(qa): clip for clip in small_corpus for qa in clip.qas}
        assert sorted(q for q, _ in forwarded) == sorted(clip_of)
        assert [names for _, names in forwarded] == [name_assignments(model, clip_of[q])
                                                     for q, _ in forwarded]
        assert report.n_faces == sum(len(clip.truth) for clip in small_corpus)

    def test_buckets_move_no_result(self, small_corpus, trained, monkeypatch):
        # The report and each item's answer probabilities are the same for a
        # permuted corpus and for every row budget: 0, which leaves one item
        # per bucket, the chosen one, and an unbounded one, one bucket.
        model, _, _ = trained
        forward_item, forward_batch = Model.forward_item, Model.forward_batch
        permuted = [small_corpus[i] for i in np.random.default_rng(0).permutation(
            len(small_corpus))]

        def run(corpus, use_ts, budget=carn.ROW_BUDGET):
            p_a, sizes = {}, []

            def recording(items):
                p, empty_context = forward_item(model, items)
                p_a.update((id(qa), row) for (_, qa, _), row in zip(items, p))
                return p, empty_context

            with monkeypatch.context() as m:
                m.setattr(carn, "ROW_BUDGET", budget)
                m.setattr(model, "forward_item", recording)
                m.setattr(model, "forward_batch", lambda b, **kw: (
                    sizes.append(len(b)) or forward_batch(model, b, **kw)))
                return evaluate(model, corpus, use_ts=use_ts).to_dict(), p_a, sizes

        for use_ts in (True, False):
            report, p_a, sizes = run(small_corpus, use_ts)
            assert len(p_a) == report["n_items"]
            assert 1 < len(sizes) < report["n_items"]
            alone, whole = run(small_corpus, use_ts, 0), run(small_corpus, use_ts, math.inf)
            assert alone[2] == [1] * report["n_items"] and whole[2] == [report["n_items"]]
            for other_report, other_p_a, _ in (run(permuted, use_ts), alone, whole):
                assert other_report == report
                assert other_p_a.keys() == p_a.keys()
                for q, p in p_a.items():
                    assert np.max(np.abs(other_p_a[q] - p)) <= 1e-12

    @pytest.mark.parametrize("budget", [carn.ROW_BUDGET, 300])
    def test_forward_only_buckets_take_the_larger_budget(self, small_corpus, trained, budget,
                                                         monkeypatch):
        # evaluate's batches, and those of a loss without gradients (a
        # gradient check's), are cut at FORWARD_ONLY_MULTIPLE * ROW_BUDGET
        # padded rows; a training pass's at ROW_BUDGET. Both budgets are read
        # at the call, so patching ROW_BUDGET shapes both.
        model, _, _ = trained
        forward_batch = Model.forward_batch
        monkeypatch.setattr(carn, "ROW_BUDGET", budget)
        forward_only = carn.FORWARD_ONLY_MULTIPLE * budget

        def batches_of(call):
            batches = []
            with monkeypatch.context() as m:
                m.setattr(model, "forward_batch", lambda b, **kw: (
                    batches.append(list(b)) or forward_batch(model, b, **kw)))
                call()
            return batches

        for use_ts in (True, False):
            items = [(clip, clip_view(clip, qa, use_ts), qa,
                      broadcast_targets(clip, model.cast, model.config.epsilon))
                     for clip in small_corpus for qa in clip.qas]
            for call, cut in ((lambda: evaluate(model, small_corpus, use_ts), forward_only),
                              (lambda: model.loss_and_grads(items), forward_only),
                              (lambda: model.loss_and_grads(items, grads={}), budget)):
                batches = batches_of(call)
                fed = [item for b in batches for item in b]
                expected = []
                carn.run_in_buckets(fed, lambda b: expected.append([fed[i] for i in b])
                                    or list(b), cut)
                assert batches == expected
                rows = [forward_rows(model, b) for b in batches]
                assert all(r <= cut for r, b in zip(rows, batches) if len(b) > 1), rows
                if cut == forward_only:
                    assert max(rows) > budget, rows

    def test_whole_clip_evaluation_encodes_each_stream_once(self, small_corpus, trained,
                                                            monkeypatch):
        # Without time stamps a clip's items share its context streams, and
        # they share one bucket: the context encoder runs on each clip's
        # stream of each pass once. Its other sequences are the five
        # question+answer candidates of each item.
        model, _, _ = trained
        per_clip = [model.context_streams(clip, model.name_assignments(clip))
                    for clip in small_corpus]
        streams = {(p, rows) for clip_streams in per_clip
                   for p, rows in enumerate(clip_streams) if rows}
        assert len(streams) == sum(map(len, per_clip))  # each clip's own, none empty
        encoded = []
        forward = nn.stack_forward
        monkeypatch.setattr(nn, "stack_forward", lambda params, prefix, n, x, *a, **kw: (
            prefix == "enc" and encoded.append(len(x))) or forward(params, prefix, n, x, *a, **kw))
        report = evaluate(model, small_corpus, use_ts=False)
        assert sum(encoded) == 5 * report.n_items + len(streams)

    def test_use_ts_marks_rows(self, small_corpus, trained):
        model, _, config = trained
        w = evaluate(model, small_corpus, use_ts=True)
        wo = evaluate(model, small_corpus, use_ts=False)
        assert w.use_ts and not wo.use_ts
        assert w.row().split(",")[1] == "1"
        assert wo.row().split(",")[1] == "0"

    def test_row_shape(self, small_corpus, trained):
        model, report, _ = trained
        fields = report.row().split(",")
        assert len(fields) == len(METRICS_COLUMNS)
        assert fields[0] == report.variant
        assert fields[2] == f"{report.qa_acc:.6f}"

    def test_empty_corpus(self, trained):
        model, _, _ = trained
        with pytest.raises(EmptyInputError):
            evaluate(model, [], use_ts=True)

    def test_whole_clip_streams_built_once_per_clip(self, small_corpus, trained,
                                                    monkeypatch):
        # Without time stamps every item of a clip has the clip as its view:
        # each pass's stream is built once per clip, not once per item.
        model, _, _ = trained
        assert model.modality.runs and model.modality.use_sub
        assert all(len(clip.qas) > 1 for clip in small_corpus)
        built = []
        for name in ("visual_stream", "subtitle_stream"):
            monkeypatch.setattr(carn, name, lambda frames_or_lines, *a, _f=getattr(carn, name): (
                built.append(id(frames_or_lines)) or _f(frames_or_lines, *a)))
        evaluate(model, small_corpus, use_ts=False)
        per_clip = [[id(clip.frames)] * len(model.modality.runs) + [id(clip.subtitles)]
                    for clip in small_corpus]
        assert sorted(built) == sorted(i for ids in per_clip for i in ids)

    def test_unseen_tokens_embed_alike(self, small_corpus, trained):
        # A token the vocabulary lacks, such as one with a character no
        # training token holds, embeds as the zero row whatever it is: a
        # clip whose lines say "café" scores as one whose lines say "xyzzy",
        # and evaluation scores every clip of a corpus that holds it.
        model, _, _ = trained
        assert not {("café", False), ("xyzzy", False)} & model.vocab.rows.keys()
        clip = small_corpus[4]
        names = model.name_assignments(clip)

        def said(token):
            return replace(clip, subtitles=[replace(line, tokens=[token])
                                            for line in clip.subtitles])

        cafe, xyzzy = said("café"), said("xyzzy")
        assert np.array_equal(model.forward_item([(cafe, qa, names) for qa in clip.qas])[0],
                              model.forward_item([(xyzzy, qa, names) for qa in clip.qas])[0])
        corpus = small_corpus[:4] + [cafe] + small_corpus[5:]
        for use_ts in (True, False):
            report = evaluate(model, corpus, use_ts=use_ts)
            assert report.qa_acc == evaluate(model, small_corpus[:4] + [xyzzy] + small_corpus[5:],
                                             use_ts=use_ts).qa_acc


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the tracemalloc peak of what fn allocates, in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryCeiling:
    """A memory ceiling: the tracemalloc peaks of one train() call, and of
    evaluate() with and without time stamps, on 24 clips of the reference
    generator settings (seed 3), ModelConfig(d_model=32, d_ff=64), one
    epoch. Each ceiling sits about 5% over its measured peak, which moves
    by a few kB with the hash seed; a change that needs more memory raises
    the ceiling here, in its own diff."""

    # name -> (measured peak, ceiling), in MB (10^6 bytes)
    CEILINGS = {"train": (7.13, 7.5), "eval_ts": (2.30, 2.42), "eval_nots": (3.85, 4.05)}

    @pytest.fixture(scope="class")
    def peaks(self):
        corpus = generate_corpus(GenConfig(k_principals=4, n_extras=2, n_clips=24,
                                           noise_sigma=0.1, cooccur_rho=0.9, seed=3))
        config = TrainConfig(epochs=1, seed=3, model=ModelConfig(d_model=32, d_ff=64))
        (model, _), train_peak = traced_peak(train, corpus, config)
        return {"train": train_peak,
                **{name: traced_peak(evaluate, model, corpus, use_ts=use_ts)[1]
                   for name, use_ts in (("eval_ts", True), ("eval_nots", False))}}

    @pytest.mark.parametrize("name", list(CEILINGS))
    def test_peak_stays_under_its_ceiling(self, peaks, name):
        measured, ceiling = self.CEILINGS[name]
        assert peaks[name] / 1e6 <= ceiling, (name, peaks[name], measured)


class TestNumericFaults:
    """The library's entry points own the numeric-fault rule: settings or
    weights that push a computation out of float range raise, and no
    poisoned model or report comes back."""

    def test_train_with_overflowing_learning_rate(self, small_corpus):
        with pytest.raises(NumericFaultError, match="^numeric fault"):
            train(small_corpus, small_config(epochs=1, batch_size=8, learning_rate=1e30))

    def test_evaluate_with_overflowing_weights(self, small_corpus, trained):
        model, _, _ = trained
        params = dict(model.params, **{"enc.l0.ffn.w1": model.params["enc.l0.ffn.w1"] * 1e300})
        huge = Model(model.vocab, model.cast, model.config, params=params,
                     modality=model.modality, seed=model.seed)
        with pytest.raises(NumericFaultError, match="^numeric fault"):
            evaluate(huge, small_corpus, use_ts=True)

    def test_non_finite_parameter_after_a_step_is_a_fault(self, small_corpus, monkeypatch):
        # NaN in, NaN out sets no floating-point flag: a face embedding that
        # slips past the clip check makes the naming gradients NaN, and the
        # first Adam step that writes them is refused.
        corpus = copy.deepcopy(small_corpus)
        next(corpus[0].all_faces()).embedding[0] = math.nan
        monkeypatch.setattr(harness, "validate_clip", lambda clip: None)
        with pytest.raises(NumericFaultError, match=r"^numeric fault \(parameter 'naming\."):
            train(corpus, small_config(epochs=1))


# A clip's number and token fields: how to write a value into one of them,
# and its bad values besides NaN and +-inf (which no token field takes).
def _write_frame(attr):
    return lambda clip, i, v: setattr(clip.frames[i % len(clip.frames)], attr, v)


def _write_face(attr):
    def write(clip, i, v):
        faces = list(clip.all_faces())
        setattr(faces[i % len(faces)], attr, v)
    return write


def _write_embedding(clip, i, v):
    faces = list(clip.all_faces())
    emb = faces[i % len(faces)].embedding
    emb[i % len(emb)] = v


def _write_line(attr):
    return lambda clip, i, v: setattr(clip.subtitles[i % len(clip.subtitles)], attr, v)


def _write_qa(attr):
    return lambda clip, i, v: setattr(clip.qas[i % len(clip.qas)], attr, v)


def _write_ts(end):
    def write(clip, i, v):
        qa = clip.qas[i % len(clip.qas)]
        qa.ts_interval = (qa.ts_interval[0], v) if end else (v, qa.ts_interval[1])
    return write


def _write_token(lists_of):
    def write(clip, i, v):
        lists = lists_of(clip)
        tokens = lists[i % len(lists)]
        tokens[i % len(tokens)] = v
    return write


def _write_pair(attr, slot):
    # A human box's word (slot 1), or an object's label (0) or attribute (1).
    def write(clip, i, v):
        spots = [(f, k) for f in clip.frames for k in range(len(getattr(f, attr)))]
        f, k = spots[i % len(spots)]
        pairs = getattr(f, attr)
        pairs[k] = tuple(v if j == slot else x for j, x in enumerate(pairs[k]))
    return write


CLIP_FIELDS = {
    "frame_id": (_write_frame("frame_id"), [0.5]),
    "frame time": (_write_frame("time"), [-1.0]),
    "face_id": (_write_face("face_id"), [0.5]),
    "face frame_id": (_write_face("frame_id"), [-1]),
    "face embedding": (_write_embedding, [2.0, -1.5]),
    "t_start": (_write_line("t_start"), [-0.5]),
    "t_end": (_write_line("t_end"), [-0.5]),
    "correct_index": (_write_qa("correct_index"), [5, -1, 0.5]),
    "ts_interval start": (_write_ts(False), [-0.5]),
    "ts_interval end": (_write_ts(True), [1e6]),
    "subtitle token": (_write_token(lambda clip: [line.tokens for line in clip.subtitles]), [""]),
    "question token": (_write_token(lambda clip: [qa.question for qa in clip.qas]), [""]),
    "answer token": (_write_token(lambda clip: [a for qa in clip.qas for a in qa.answers]),
                     [""]),
    "human word": (_write_pair("human_boxes", 1), [""]),
    "object label": (_write_pair("objects", 0), [""]),
    "object attribute": (_write_pair("objects", 1), [""]),
}


class TestLibraryBoundary:
    """train and evaluate check every clip a Python caller hands them, as
    read_corpus checks every record: a number out of its field's range, or
    a token that is empty or no string, is a CharqaError naming its clip,
    before any model is built or run."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bad_number_names_its_clip(self, small_corpus, trained, data):
        model, _, _ = trained
        corpus = copy.deepcopy(small_corpus)
        clip = corpus[data.draw(st.integers(0, len(corpus) - 1))]
        write, out_of_range = CLIP_FIELDS[data.draw(st.sampled_from(sorted(CLIP_FIELDS)))]
        write(clip, data.draw(st.integers(0, 99)),
              data.draw(st.sampled_from([math.nan, math.inf, -math.inf] + out_of_range)))
        needle = f"^{re.escape(clip.clip_id)}: "
        with pytest.raises(CharqaError, match=needle):
            train(corpus, small_config(epochs=1))
        for use_ts in (True, False):
            with pytest.raises(CharqaError, match=needle):
                evaluate(model, corpus, use_ts=use_ts)


@pytest.fixture(scope="module")
def grid_reports():
    corpus = generate_corpus(GenConfig(k_principals=2, n_extras=1, n_clips=6,
                                       d_f=12, seed=9))
    config = TrainConfig(epochs=1, batch_size=8,
                         model=ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2))
    return ablate(corpus, config)


class TestAblate:
    def test_grid_shape(self, grid_reports):
        assert len(grid_reports) == 2 * len(VARIANT_LABELS)
        for i, label in enumerate(VARIANT_LABELS):
            w, wo = grid_reports[2 * i], grid_reports[2 * i + 1]
            assert w.variant == wo.variant == label
            assert w.use_ts and not wo.use_ts
            assert w.config_hash == wo.config_hash

    def test_hash_differs_across_variants(self, grid_reports):
        hashes = {r.config_hash for r in grid_reports}
        assert len(hashes) == len(VARIANT_LABELS)

    def test_each_protocol_is_evaluated_once(self, monkeypatch):
        # Training evaluates its own protocol; the grid reuses that report
        # and evaluates only the other one, with the same rows as evaluating
        # both afresh.
        corpus = generate_corpus(GenConfig(k_principals=2, n_extras=1, n_clips=3,
                                           d_f=12, seed=4))
        config = TrainConfig(epochs=1, batch_size=8,
                             model=ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2))
        variants = ("Sub", "Sub + Objs_nm + Rels_nm")
        calls = []
        original = harness.evaluate

        def counting(model, corpus_, use_ts):
            calls.append(use_ts)
            return original(model, corpus_, use_ts)

        monkeypatch.setattr(harness, "evaluate", counting)
        reports = ablate(corpus, config, variants)
        assert calls == [True, False] * len(variants)
        monkeypatch.undo()
        fresh = []
        for label in variants:
            model, _ = train(corpus, TrainConfig(**{**config.__dict__,
                                                    "modality": ModalityConfig.from_label(label)}))
            fresh += [evaluate(model, corpus, use_ts=ts) for ts in (True, False)]
        assert metrics_csv_text(reports) == metrics_csv_text(fresh)

    def test_format_report(self, grid_reports):
        text = format_report(grid_reports)
        lines = text.splitlines()
        assert len(lines) == 1 + len(VARIANT_LABELS)
        for label in VARIANT_LABELS:
            assert any(line.startswith(label) for line in lines[1:])

    def test_format_report_keeps_seeds_apart(self):
        def report(use_ts, qa_acc, seed):
            return harness.MetricsReport("Sub", use_ts, qa_acc, 0.5, 0.5, 0.25, seed)

        text = format_report([report(True, 0.5, 0), report(True, 0.7, 1), report(False, 0.1, 0)])
        header, *rows = text.splitlines()
        assert header.split() == ["variant", "seed", "w/", "ts", "w/o", "ts", "face"]
        assert [row.split() for row in rows] == [["Sub", "0", "0.5000", "0.1000", "0.2500"],
                                                 ["Sub", "1", "0.7000", "nan", "0.2500"]]


class TestMetricsFiles:
    def test_file_matches_text(self, grid_reports, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(grid_reports, path)
        assert path.read_text(encoding="utf-8") == metrics_csv_text(grid_reports)

    def test_header(self, grid_reports):
        first = metrics_csv_text(grid_reports).splitlines()[0]
        assert first == ",".join(METRICS_COLUMNS)


class TestGradCheckRunner:
    def test_all_components_pass(self):
        reports = grad_check("all", n_configs=1, seed=3)
        assert [r.component for r in reports] == ["naming", "encoder",
                                                  "coattention", "full"]
        for rep in reports:
            assert rep.passed, rep.format()

    def test_full_check_batch_spans_micro_batches(self):
        # The full check sums gradients over buckets only if its batch
        # exceeds the row budget, with a clip's items on both sides of a split.
        model, clip, qa = _mini_setup(np.random.default_rng(0))
        pairs = _mini_batch(clip, qa)
        fed = [fed_item(model, c, q, model.name_assignments(c)) for c, q in pairs]
        split = []
        carn.run_in_buckets(fed, lambda b: split.append({pairs[i][0].clip_id for i in b})
                            or [None] * len(b), carn.ROW_BUDGET)
        assert len(split) > 1 and set.intersection(*split[:2])

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.standard_normal((4, 3))}
        probe = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(params["w"] * probe))

        clean, _ = nn.check_gradients(loss, params, {"w": probe.copy()})
        assert max(clean.values()) <= 1e-4
        bad = probe.copy()
        bad[0, 0] += 1e-2
        errors, _ = nn.check_gradients(loss, params, {"w": bad})
        assert errors["w"] > 1e-4

    def test_missing_gradient_is_claimed_zero(self):
        rng = np.random.default_rng(1)
        params = {"w": rng.standard_normal(5)}
        probe = rng.standard_normal(5)

        def loss():
            return float(np.sum(params["w"] * probe))

        errors, _ = nn.check_gradients(loss, params, {}, keys=["w"])
        assert errors["w"] > 1e-4

    def test_relu_kink_is_told_from_a_wrong_gradient(self):
        # An FFN input built so that one pre-activation sits 3.4e-6 above the
        # ReLU kink, inside the 1e-5 central step of the bias entry it adds:
        # the central difference misses the (correct) analytic value.
        rng = np.random.default_rng(0)
        table = param_table(ModelConfig(d_model=8, d_ff=12, heads=2), 1, 0, 1)
        params = draw_params(rng, table, "enc.")
        key, unit = "enc.l0.ffn.b1", 5
        x = rng.standard_normal((2, 3, 8))
        params[key][unit] = 3.4e-6 - x[0, 0] @ params["enc.l0.ffn.w1"][:, unit]
        probe = rng.standard_normal(x.shape)

        def loss():
            return float(np.sum(nn.ffn_forward(params, "enc.l0.ffn", x)[0] * probe))

        _, h = nn.ffn_forward(params, "enc.l0.ffn", x)
        grads = {}
        nn.ffn_backward(params, "enc.l0.ffn", x, h, probe, grads)
        entry, step = params[key][unit], 1e-5
        params[key][unit] = entry + step
        hi = loss()
        params[key][unit] = entry - step
        lo = loss()
        params[key][unit] = entry
        central = (hi - lo) / (2 * step)
        assert nn.relative_error(grads[key][unit], central) > 1e-2
        worst, kinks = nn.check_gradients(loss, params, grads, keys=[key])
        assert kinks[key] == 1
        assert worst[key] <= 1e-4
        rep = GradCheckReport("enc", 1e-4)
        rep.merge(worst, kinks)
        assert rep.passed and "kink" in rep.format()

    def test_flipped_relu_mask_still_fails(self, monkeypatch):
        # A test double of the FFN backward that flips the ReLU mask, read
        # from the cached activation, of the unit with the largest
        # activation: a wrong gradient, not a kink.
        rng = np.random.default_rng(4)
        table = param_table(ModelConfig(d_model=8, d_ff=12, heads=2), 1, 0, 1)
        params = draw_params(rng, table, "enc.")
        x = rng.standard_normal((2, 5, 8))
        mask = np.array([[True] * 5, [True, True, False, True, False]])
        probe = rng.standard_normal(x.shape)

        def flipped(params_, prefix, x_, h, dy, grads_):
            w1, w2 = params_[prefix + ".w1"], params_[prefix + ".w2"]
            on = h > 0
            i = np.unravel_index(np.argmax(h), h.shape)
            on[i] = not on[i]
            dpre = (dy @ w2.T) * on

            def rows(a):
                return a.reshape(-1, a.shape[-1])

            for k, g in ((".w2", rows(h * on).T @ rows(dy)), (".b2", rows(dy).sum(axis=0)),
                         (".w1", rows(x_).T @ rows(dpre)), (".b1", rows(dpre).sum(axis=0))):
                grads_[prefix + k] = grads_.get(prefix + k, 0) + g
            return dpre @ w1.T

        def loss():
            return float(np.sum(nn.stack_forward(params, "enc", 2, x, None, mask)[0] * probe))

        _, cache = nn.stack_forward(params, "enc", 2, x, None, mask)
        grads = {}
        monkeypatch.setattr(nn, "ffn_backward", flipped)
        nn.stack_backward(params, "enc", cache, probe, grads)
        monkeypatch.undo()
        worst, kinks = nn.check_gradients(loss, params, grads)
        assert max(worst.values()) > 1e-4
        assert not any(kinks.values())
        rep = GradCheckReport("enc", 1e-4)
        rep.merge(worst, kinks)
        assert not rep.passed and "FAIL" in rep.format()

    @pytest.mark.parametrize("kw, needle", [
        ({"n_configs": 0}, "n_configs"), ({"n_configs": -3}, "n_configs"),
        ({"tolerance": 0.0}, "tolerance"), ({"tolerance": -1e-4}, "tolerance"),
        ({"tolerance": math.nan}, "tolerance"), ({"tolerance": math.inf}, "tolerance"),
        ({"seed": -1}, "seed"),
    ])
    def test_refuses_out_of_range_settings(self, kw, needle):
        with pytest.raises(ConfigError, match=needle):
            grad_check("naming", **kw)

    def test_refuses_an_unknown_component_naming_the_known_ones(self):
        with pytest.raises(ConfigError, match=r"'bogus' \(known: all, coattention, encoder, "
                                              r"full, naming\)"):
            grad_check("bogus")

    def test_report_merge_and_format(self):
        rep = GradCheckReport("enc", 1e-4)
        rep.merge({"enc.0.wq": 1e-6, "enc.0.wk": 5e-7})
        assert rep.passed
        rep.merge({"enc.0.wq": 3e-4})
        assert not rep.passed
        assert rep.worst["enc.0.wq"] == 3e-4
        assert "FAIL" in rep.format()
