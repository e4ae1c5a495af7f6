import copy
import hashlib
import json
import math
import tempfile
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charqa.corpus import (BBox, Clip, Frame, GenConfig, QAItem, SCHEMA_VERSION,
                           SubtitleLine, clip_from_dict, clip_to_dict, clip_view,
                           generate_corpus, read_corpus, validate_clip, write_corpus)
from charqa import corpus
from charqa.carn import ModelConfig
from charqa.errors import (CharqaError, ConfigError, CorpusParseError, FieldRangeError,
                           SchemaVersionError)
from charqa.harness import TrainConfig, train


def corpus_bytes(clips, tmp_path, name):
    p = tmp_path / name
    write_corpus(clips, p)
    return p.read_bytes()


class TestBBox:
    def test_area_and_intersection(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 5, 15, 15)
        assert a.area == 100
        assert a.intersection_area(b) == 25
        assert a.intersection_area(BBox(20, 20, 30, 30)) == 0

    def test_rejects_negative_or_empty(self):
        with pytest.raises(ValueError):
            BBox(-1, 0, 10, 10)
        with pytest.raises(ValueError):
            BBox(5, 5, 5, 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "int_too_large_for_a_float"])
    def test_rejects_non_finite_as_value_error(self, bad):
        # An integer too large for a float is a ValueError too, not the
        # OverflowError that math.isfinite raises for it.
        with pytest.raises(ValueError, match=r"box coordinate must be in \[0, inf\)"):
            BBox(0, 0, bad, 10)


class TestBounded:
    """The range rule of every number that enters: each end open or closed,
    and no high end the largest finite float."""

    @pytest.mark.parametrize("v, kw, ok", [
        (0, {}, True), (0, {"open_low": True}, False), (-1e-300, {}, False),
        (1e308, {}, True), (1, {"high": 1}, True), (1, {"high": 1, "open_high": True}, False),
        (0.5, {"high": 1, "open_low": True, "open_high": True}, True),
        (math.nan, {}, False), (math.nan, {"high": 1}, False), (math.inf, {}, False),
        (-math.inf, {}, False), (10 ** 400, {}, False), (-10 ** 400, {}, False),
    ])
    def test_ends_and_non_finite_values(self, v, kw, ok):
        if ok:
            assert corpus.bounded(v, "x", 0, **kw) is v
        else:
            with pytest.raises(FieldRangeError, match="^x must be in "):
                corpus.bounded(v, "x", 0, **kw)

    @pytest.mark.parametrize("args, kw, message", [
        ((math.nan, "frame time", 0), {}, "frame time must be in [0, inf), got NaN"),
        ((math.inf, "lam", 0), {"open_low": True}, "lam must be in (0, inf), got Infinity"),
        ((0.0, "epsilon", 0, 1), {"open_low": True, "open_high": True},
         "epsilon must be in (0, 1), got 0.0"),
        ((5, "correct_index", 0, 5), {"open_high": True},
         "correct_index must be in [0, 5), got 5"),
        ((10 ** 400, "d_f", 1, 4096), {}, f"d_f must be in [1, 4096], got 1{'0' * 36}..."),
    ])
    def test_message_names_field_interval_and_value(self, args, kw, message):
        with pytest.raises(FieldRangeError) as info:
            corpus.bounded(*args, **kw)
        assert str(info.value) == message

    def test_error_is_a_config_error_and_a_value_error(self):
        assert issubclass(FieldRangeError, ConfigError)
        assert issubclass(FieldRangeError, ValueError)


class TestGenerate:
    def test_structure_k3_two_clips(self):
        clips = generate_corpus(GenConfig(k_principals=3, n_clips=2, d_f=8, seed=7))
        assert len(clips) == 2
        for clip in clips:
            validate_clip(clip)
            face_ids = {f.face_id for f in clip.all_faces()}
            assert set(clip.truth) == face_ids
            preceding = [f.frame_id for f in clip.frames]
            assert preceding == sorted(preceding)
            assert all(len(q.answers) == 5 for q in clip.qas)
            dur = clip.duration()
            for q in clip.qas:
                assert 0.0 <= q.ts_interval[0] <= q.ts_interval[1] <= dur

    def test_truth_labels_from_known_pool(self):
        cfg = GenConfig(k_principals=3, n_extras=2, n_clips=4, d_f=8, seed=3)
        pool = set(cfg.principal_names()) | set(cfg.extra_names())
        for clip in generate_corpus(cfg):
            assert set(clip.truth.values()) <= pool

    def test_byte_identical_rerun(self, tmp_path):
        cfg = GenConfig(k_principals=3, n_clips=5, d_f=8, seed=21)
        a = corpus_bytes(generate_corpus(cfg), tmp_path, "a.jsonl")
        b = corpus_bytes(generate_corpus(cfg), tmp_path, "b.jsonl")
        assert a == b

    def test_nearest_prototype_oracle_on_clean_corpus(self):
        # noise_sigma=0 makes each face embedding equal its character
        # prototype; centroid classification must then be perfect.
        cfg = GenConfig(k_principals=4, n_extras=1, n_clips=8, d_f=16,
                        noise_sigma=0.0, cooccur_rho=1.0, seed=5)
        clips = generate_corpus(cfg)
        embs, labels = [], []
        for clip in clips:
            for f in clip.all_faces():
                embs.append(f.embedding)
                labels.append(clip.truth[f.face_id])
        names = sorted(set(labels))
        assert len(embs) >= 30
        cents = {n: np.mean([e for e, l in zip(embs, labels) if l == n], axis=0)
                 for n in names}
        hits = 0
        for e, l in zip(embs, labels):
            scores = [(float(np.dot(e, cents[n])), n) for n in names]
            hits += max(scores)[1] == l
        assert hits == len(embs)

    def test_visual_distractors_disjoint_from_plain_objects_when_noise_off(self, monkeypatch):
        # With a noiseless detector the plain object stream never contains
        # a distractor answer.
        monkeypatch.setattr(corpus, "OBJECT_NOISE_RATE", 0.0)
        clips = generate_corpus(GenConfig(k_principals=3, n_clips=12, d_f=8, seed=9))
        checked = 0
        for clip in clips:
            plain = {lbl for fr in clip.frames for lbl, _ in fr.objects}
            for qa in clip.qas:
                if qa.qtype != "visual":
                    continue
                for i, ans in enumerate(qa.answers):
                    if i != qa.correct_index:
                        assert ans[0] not in plain
                        checked += 1
        assert checked > 50

    def test_detector_noise_leaks_relation_objects(self):
        # At the default confusion rate some detections come from the
        # relation pool, so presence in the plain stream is a hint, not an
        # answer key.
        clips = generate_corpus(GenConfig(k_principals=3, n_clips=12, d_f=8, seed=9))
        leaked = 0
        for clip in clips:
            plain = {lbl for fr in clip.frames for lbl, _ in fr.objects}
            for qa in clip.qas:
                if qa.qtype != "visual":
                    continue
                for i, ans in enumerate(qa.answers):
                    if i != qa.correct_index and ans[0] in plain:
                        leaked += 1
        assert leaked > 0

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="cooccur_rho"):
            generate_corpus(GenConfig(cooccur_rho=1.5))
        with pytest.raises(ConfigError, match="k_principals"):
            generate_corpus(GenConfig(k_principals=0))
        with pytest.raises(ConfigError, match="noise_sigma"):
            generate_corpus(GenConfig(noise_sigma=-0.1))
        # Upper bounds: no cast too large to list, no embedding size past
        # any detector's, and no noise whose squared norm could overflow.
        GenConfig(k_principals=corpus.MAX_K_PRINCIPALS, n_extras=corpus.MAX_N_EXTRAS,
                  d_f=corpus.MAX_D_F, noise_sigma=corpus.MAX_NOISE_SIGMA)
        with pytest.raises(ConfigError, match=r"k_principals must be in \[1, 1024\], got 1025"):
            GenConfig(k_principals=corpus.MAX_K_PRINCIPALS + 1)
        with pytest.raises(ConfigError, match=r"n_extras must be in \[0, 1024\], got 1025"):
            GenConfig(n_extras=corpus.MAX_N_EXTRAS + 1)
        with pytest.raises(ConfigError, match=r"d_f must be in \[1, 4096\], got 4097"):
            GenConfig(d_f=corpus.MAX_D_F + 1)
        with pytest.raises(ConfigError, match="noise_sigma"):
            GenConfig(noise_sigma=corpus.MAX_NOISE_SIGMA * 10)

    def test_config_checks_itself(self):
        # Each frame speaks a distinct word of the dialogue vocabulary, so
        # frames_per_clip is bounded by its size.
        GenConfig(frames_per_clip=len(corpus.DEFAULT_DIALOGUE_VOCAB))
        with pytest.raises(ConfigError, match=r"frames_per_clip must be in \[1, 6\], got 7"):
            GenConfig(frames_per_clip=len(corpus.DEFAULT_DIALOGUE_VOCAB) + 1)
        # Two clip actors need a scene each; a single principal needs one.
        assert generate_corpus(GenConfig(k_principals=1, n_clips=1, frames_per_clip=1, d_f=2))
        with pytest.raises(ConfigError, match="frames_per_clip must be >= 2"):
            GenConfig(k_principals=2, frames_per_clip=1)
        with pytest.raises(ConfigError, match="seed"):
            GenConfig(seed=-1)
        assert [f.name for f in fields(GenConfig)] == [
            "k_principals", "n_extras", "n_clips", "frames_per_clip", "d_f",
            "noise_sigma", "cooccur_rho", "seed"]

    @pytest.mark.parametrize("kw, digest", [
        (dict(k_principals=3, n_extras=1, n_clips=4, d_f=8, seed=2),
         "02b9f990f47dcc69d6030bfedd85b9f421bc54b34bdd5c79d3f698b9382924fc"),
        (dict(k_principals=1, n_extras=0, n_clips=3, d_f=4, noise_sigma=0.2,
              cooccur_rho=0.5, seed=5),
         "20d8751258cb3fdccdb75c975d1d1ceef7f57564192ec2a0706806f046bed8d0"),
    ])
    def test_output_bytes_pinned(self, tmp_path, kw, digest):
        # The exact JSONL bytes of two small corpora: a change to the
        # generator's output must re-record them on purpose.
        data = corpus_bytes(generate_corpus(GenConfig(**kw)), tmp_path, "c.jsonl")
        assert hashlib.sha256(data).hexdigest() == digest


class TestSerialization:
    def test_round_trip_equality(self, small_corpus, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(small_corpus, p)
        back = read_corpus(p)
        assert back == small_corpus

    def test_dict_round_trip_preserves_truth(self, tiny_clip):
        assert clip_from_dict(clip_to_dict(tiny_clip)) == tiny_clip

    def test_record_shares_no_list_with_the_clip(self, tiny_clip):
        before = copy.deepcopy(tiny_clip)
        d = clip_to_dict(tiny_clip)
        d["subtitles"][0]["tokens"][0] = "edited"
        d["qas"][0]["question"][0] = "edited"
        d["qas"][0]["answers"][0][0] = "edited"
        d["qas"][0]["answers"].append(["more"])
        assert tiny_clip == before

    def test_empty_object_line_is_parse_error_at_line_1(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{}\n")
        with pytest.raises(CorpusParseError, match="line 1"):
            read_corpus(p)

    def test_malformed_json_reports_line_number(self, tmp_path, small_corpus):
        p = tmp_path / "bad2.jsonl"
        write_corpus(small_corpus[:2], p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(CorpusParseError, match="line 3"):
            read_corpus(p)

    def test_clip_invariants_checked_with_line_number(self, tmp_path, small_corpus):
        p = tmp_path / "dup.jsonl"
        write_corpus(small_corpus[:2], p)
        d = clip_to_dict(small_corpus[2])
        faces = [fc for f in d["frames"] for fc in f["faces"]]
        faces[1]["face_id"] = faces[0]["face_id"]
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(d) + "\n")
        with pytest.raises(CorpusParseError, match="line 3: .*duplicate face_ids"):
            read_corpus(p)

    @pytest.mark.parametrize("what, path", [
        ("subtitle tokens", ("subtitles", 1, "tokens", 1)),
        ("question", ("qas", 0, "question", 2)),
        ("answer", ("qas", 0, "answers", 3, 0)),
        ("object label", ("frames", 0, "objects", 0, "label")),
        ("object attribute", ("frames", 0, "objects", 0, "attribute")),
        ("human word", ("frames", 0, "human_boxes", 0, "word")),
        ("triple tokens", ("frames", 0, "triples", 0, "predicate")),
    ])
    def test_empty_token_is_parse_error_with_line_number(self, tmp_path, tiny_clip, what, path):
        d = clip_to_dict(tiny_clip)
        owner = d
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = ""
        p = tmp_path / "empty.jsonl"
        write_corpus([tiny_clip], p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(d) + "\n")
        with pytest.raises(CorpusParseError, match=f"line 2: .*{what} must not"):
            read_corpus(p)

    def test_unknown_schema_version(self, tmp_path, tiny_clip):
        d = clip_to_dict(tiny_clip)
        d["schema_version"] = "999"
        p = tmp_path / "v.jsonl"
        p.write_text(json.dumps(d) + "\n")
        with pytest.raises(SchemaVersionError):
            read_corpus(p)

    def test_schema_version_constant_written(self, tmp_path, tiny_clip):
        p = tmp_path / "s.jsonl"
        write_corpus([tiny_clip], p)
        d = json.loads(p.read_text().splitlines()[0])
        assert d["schema_version"] == SCHEMA_VERSION
        for key in ("clip_id", "frames", "subtitles", "qas", "truth"):
            assert key in d


class TestSerializationProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_write_read_write_is_exact(self, data):
        k = data.draw(st.integers(1, 4))
        clips = generate_corpus(GenConfig(
            k_principals=k, n_extras=data.draw(st.integers(0, 2)),
            n_clips=data.draw(st.integers(1, 3)),
            frames_per_clip=data.draw(st.integers(min(2, k), 6)),
            d_f=data.draw(st.integers(1, 8)), noise_sigma=data.draw(st.floats(0.0, 0.5)),
            cooccur_rho=data.draw(st.floats(0.0, 1.0)), seed=data.draw(st.integers(0, 2**16))))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            write_corpus(clips, first)
            back = read_corpus(first)
            write_corpus(back, second)
            assert back == clips
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mistyped_field_raises_only_charqa_errors(self, data):
        records, fields_ = fuzz_base()
        field = data.draw(st.sampled_from(list(fields_)))
        path = data.draw(st.sampled_from(fields_[field]))
        mutated = copy.deepcopy(records)
        owner = value_at(mutated[0], path[:-1])
        kind = json_kind(owner[path[-1]])
        owner[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != kind))
        read_then_train(mutated)

    @settings(max_examples=150, deadline=None)
    @given(path=st.deferred(lambda: numeric_paths()),  # defined below
           value=st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])
           | st.integers(-10 ** 6, -1) | st.floats(max_value=-1e-9))
    # A finite embedding component whose square overflows the norm.
    @example(path=("frames", 0, "faces", 0, "embedding", 0), value=-1.3407807929942597e+154)
    def test_out_of_range_number_raises_only_charqa_errors(self, path, value):
        # Any number field may hold NaN, an infinity, a number too large for
        # a float or a negative number: only a CharqaError escapes, and
        # read_corpus refuses every value that is not finite.
        records, _ = fuzz_base()
        mutated = copy.deepcopy(records)
        value_at(mutated[0], path[:-1])[path[-1]] = value
        finite = not isinstance(value, float) or math.isfinite(value)
        assert not read_then_train(mutated) or finite, (path, value)


def value_at(record, path):
    for key in path:
        record = record[key]
    return record


def read_then_train(records) -> bool:
    """Write the records as a corpus, read it, and train one epoch on it;
    False when read_corpus refuses it. Any error but a CharqaError escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        try:
            clips = read_corpus(p)
        except CharqaError:
            return False
    try:
        train(clips, TrainConfig(epochs=1, batch_size=4,
                                 model=ModelConfig(d_model=4, d_ff=4, d_h1=2, heads=1)))
    except CharqaError:
        pass
    return True


@lru_cache(maxsize=1)
def fuzz_base():
    """Two clip records, and every path into the first one grouped by its
    field (list indices as "*"), so that each field is drawn alike."""
    records = [clip_to_dict(c) for c in generate_corpus(
        GenConfig(k_principals=2, n_extras=1, n_clips=2, frames_per_clip=4, d_f=4, seed=3))]
    fields_ = {}

    def walk(value, path):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        for key, child in items:
            field = tuple("*" if isinstance(k, int) else k for k in path + (key,))
            fields_.setdefault(field, []).append(path + (key,))
            walk(child, path + (key,))

    walk(records[0], ())
    return records, {f: tuple(paths) for f, paths in sorted(fields_.items())}


def numeric_paths():
    """Paths to the number fields of fuzz_base's first record, drawn field
    first, so that each field is drawn alike."""
    records, fields_ = fuzz_base()
    numeric = [f for f, paths in fields_.items()
               if json_kind(value_at(records[0], paths[0])) == "number"]
    return st.sampled_from(numeric).flatmap(lambda f: st.sampled_from(fields_[f]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2.0, 2.0)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def json_kind(value) -> str:
    for kind, types in (("boolean", bool), ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


class TestClipView:
    def test_full_span_interval_is_identity(self, tiny_clip):
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0,
                    (0.0, tiny_clip.duration()))
        view = clip_view(tiny_clip, qa, use_ts=True)
        assert view.frames == tiny_clip.frames
        assert view.subtitles == tiny_clip.subtitles

    def test_interval_overlap_rule(self):
        subs = [SubtitleLine("Ada", ["a"], 0.0, 1.0),
                SubtitleLine("Ben", ["b"], 3.0, 5.0)]
        clip = Clip("v", [Frame(0, 0.0), Frame(3, 3.0)], subs, [], None)
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (2.0, 4.0))
        view = clip_view(clip, qa, use_ts=True)
        assert [s.t_start for s in view.subtitles] == [3.0]
        assert [f.frame_id for f in view.frames] == [3]

    def test_use_ts_false_returns_full_clip(self, tiny_clip):
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (0.0, 0.0))
        view = clip_view(tiny_clip, qa, use_ts=False)
        assert view is tiny_clip
        assert view.frames == tiny_clip.frames
        assert view.subtitles == tiny_clip.subtitles

    def test_interval_outside_duration_gives_empty_view(self):
        clip = Clip("w", [Frame(0, 0.0)],
                    [SubtitleLine("Ada", ["a"], 0.0, 1.0)], [], None)
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (50.0, 60.0))
        view = clip_view(clip, qa, use_ts=True)
        assert view.frames == [] and view.subtitles == []

    def test_views_are_subsets(self, small_corpus):
        for clip in small_corpus:
            for qa in clip.qas:
                for use_ts in (True, False):
                    view = clip_view(clip, qa, use_ts)
                    assert subset_of(view, clip)


def subset_of(view: Clip, clip: Clip) -> bool:
    """True when every frame/subtitle of the view is taken from the clip."""
    frame_ids = {f.frame_id for f in clip.frames}
    sub_keys = {(s.speaker, tuple(s.tokens), s.t_start, s.t_end) for s in clip.subtitles}
    return all(f.frame_id in frame_ids for f in view.frames) and all(
        (s.speaker, tuple(s.tokens), s.t_start, s.t_end) in sub_keys for s in view.subtitles
    )
