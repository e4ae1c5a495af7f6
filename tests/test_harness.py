"""Training loop, evaluation, ablation grid, metrics files, gradient-check
runner."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charqa import carn, harness, nn
from charqa.carn import VARIANT_LABELS, ModalityConfig, Model, ModelConfig
from charqa.corpus import (DEFAULT_DIALOGUE_VOCAB, MAX_K_PRINCIPALS, MAX_N_EXTRAS, Clip,
                           GenConfig, QAItem, config_kwargs, generate_corpus)
from charqa.errors import ConfigError, EmptyInputError, NumericFaultError, ShapeError
from charqa.harness import (METRICS_COLUMNS, GradCheckReport, TrainConfig, _mini_batch,
                            _mini_setup, ablate, evaluate, format_report,
                            grad_check, metrics_csv_text, train, write_metrics_csv)

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
        config = small_config(epochs=0)
        _, report = train(chance_corpus, config)
        assert report.losses == []
        assert report.n_items >= 500
        assert abs(report.qa_acc - 0.2) < 0.06


@pytest.fixture(scope="module")
def chance_corpus():
    # 125 clips x 4 QA items: enough for a tight binomial band around 0.2.
    return generate_corpus(GenConfig(k_principals=3, n_extras=1, n_clips=125,
                                     d_f=16, seed=5))


class TestEvaluate:
    def test_forced_gold_is_perfect(self, small_corpus, trained):
        model, _, config = trained

        def gold(batch, keep_cache=True):
            p = np.zeros((len(batch), 5))
            for b, (_, qa, _) in enumerate(batch):
                p[b, qa.correct_index] = 1.0
            return p, None

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
        # permuted corpus and for buckets of one item.
        model, _, _ = trained
        forward_item = Model.forward_item
        permuted = [small_corpus[i] for i in np.random.default_rng(0).permutation(
            len(small_corpus))]

        def run(corpus, use_ts):
            p_a = {}

            def recording(batch, **kw):
                p, empty_context, cache = forward_item(model, batch, **kw)
                p_a.update((id(qa), row) for (_, qa, _), row in zip(batch, p))
                return p, empty_context, cache

            with monkeypatch.context() as m:
                m.setattr(model, "forward_item", recording)
                return evaluate(model, corpus, use_ts=use_ts).to_dict(), p_a

        for use_ts in (True, False):
            report, p_a = run(small_corpus, use_ts)
            assert len(p_a) == report["n_items"]
            with monkeypatch.context() as m:
                m.setattr(carn, "MICRO_BATCH", 1)
                alone = run(small_corpus, use_ts)
            for other_report, other_p_a in (run(permuted, use_ts), alone):
                assert other_report == report
                assert other_p_a.keys() == p_a.keys()
                for q, p in p_a.items():
                    assert np.max(np.abs(other_p_a[q] - p)) <= 1e-12

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
        # The full check sums gradients over micro-batches only if its batch
        # is longer than one, with a clip's items on both sides of a split.
        _, clip, qa = _mini_setup(np.random.default_rng(0))
        pairs = _mini_batch(clip, qa)
        assert len(pairs) > carn.MICRO_BATCH
        split = []
        carn.run_in_buckets(pairs, [carn.length_key(c, q) for c, q in pairs],
                            lambda mb: split.append({c.clip_id for c, _ in mb}) or [None] * len(mb))
        assert set.intersection(*split[:2])

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
        # With ["so", "story"] as the fourth answer, config 7 of the
        # single-item full check at seed 0 puts an FFN pre-activation within
        # the 1e-5 central step of the ReLU kink: the central difference of
        # enc.l0.ffn.b2[4] misses the (correct) analytic value by 3.4e-2.
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(2,)))
        for config in range(8):
            model, clip, qa = _mini_setup(rng)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            if config < 7:  # draw the entries that the config probed
                for _, a in sorted(model.params.items()):
                    if a.size > 2:
                        rng.choice(a.size, size=2, replace=False)
        qa = QAItem(qa.question, [["Ada"], ["Ben"], ["cup"], ["so", "story"], ["story"]],
                    0, qa.ts_interval)
        clip = Clip(clip.clip_id, clip.frames, clip.subtitles, [qa], clip.truth)

        def loss():
            return model.item_loss_and_grads(clip, clip, qa, lam=lam).loss

        grads = {}
        model.item_loss_and_grads(clip, clip, qa, lam=lam, grads=grads)
        key = "enc.l0.ffn.b2"
        entry, step = model.params[key][4], 1e-5
        model.params[key][4] = entry + step
        hi = loss()
        model.params[key][4] = entry - step
        lo = loss()
        model.params[key][4] = entry
        central = (hi - lo) / (2 * step)
        assert nn.relative_error(grads[key][4], central) > 1e-2
        worst, kinks = nn.check_gradients(loss, model.params, grads, keys=[key])
        assert kinks[key] >= 1
        assert worst[key] <= 1e-4
        rep = GradCheckReport("full", 1e-4)
        rep.merge(worst, kinks)
        assert rep.passed and "kink" in rep.format()

    def test_flipped_relu_mask_still_fails(self, monkeypatch):
        # A test double of the FFN backward that flips the ReLU of the unit
        # with the largest pre-activation: a wrong gradient, not a kink.
        rng = np.random.default_rng(4)
        params = {}
        nn.init_stack(rng, params, "enc", 2, 8, 12, 2)
        x = rng.standard_normal((2, 5, 8))
        mask = np.array([[True] * 5, [True, True, False, True, False]])
        probe = rng.standard_normal(x.shape)

        def flipped(params_, prefix, x_, dy, grads_):
            w1, b1, w2 = (params_[prefix + k] for k in (".w1", ".b1", ".w2"))
            pre = x_ @ w1 + b1
            on = pre > 0
            i = np.unravel_index(np.argmax(np.abs(pre)), pre.shape)
            on[i] = not on[i]
            dpre = (dy @ w2.T) * on

            def rows(a):
                return a.reshape(-1, a.shape[-1])

            for k, g in ((".w2", rows(pre * on).T @ rows(dy)), (".b2", rows(dy).sum(axis=0)),
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

    def test_report_merge_and_format(self):
        rep = GradCheckReport("enc", 1e-4)
        rep.merge({"enc.0.wq": 1e-6, "enc.0.wk": 5e-7})
        assert rep.passed
        rep.merge({"enc.0.wq": 3e-4})
        assert not rep.passed
        assert rep.worst["enc.0.wq"] == 3e-4
        assert "FAIL" in rep.format()
