import json

import numpy as np
import pytest

from charqa.corpus import (BBox, Clip, FaceDetection, Frame, GenConfig, QAItem,
                           RelationTriple, SCHEMA_VERSION, SubtitleLine,
                           clip_from_dict, clip_to_dict, clip_view,
                           generate_corpus, read_corpus,
                           validate_clip, write_corpus)
from charqa.errors import ConfigError, CorpusParseError, SchemaVersionError


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

    def test_visual_distractors_disjoint_from_plain_objects_when_noise_off(self):
        # With a noiseless detector the plain object stream never contains
        # a distractor answer.
        clips = generate_corpus(GenConfig(k_principals=3, n_clips=12, d_f=8, seed=9,
                                          object_noise_rate=0.0))
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


class TestSerialization:
    def test_round_trip_equality(self, small_corpus, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(small_corpus, p)
        back = read_corpus(p)
        assert back == small_corpus

    def test_dict_round_trip_preserves_truth(self, tiny_clip):
        assert clip_from_dict(clip_to_dict(tiny_clip)) == tiny_clip

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


class TestClipView:
    def test_full_span_interval_is_identity(self, tiny_clip):
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0,
                    (0.0, tiny_clip.duration()))
        view, warned = clip_view(tiny_clip, qa, use_ts=True)
        assert not warned
        assert view.frames == tiny_clip.frames
        assert view.subtitles == tiny_clip.subtitles

    def test_interval_overlap_rule(self):
        subs = [SubtitleLine("Ada", ["a"], 0.0, 1.0),
                SubtitleLine("Ben", ["b"], 3.0, 5.0)]
        clip = Clip("v", [Frame(0, 0.0), Frame(3, 3.0)], subs, [], None)
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (2.0, 4.0))
        view, warned = clip_view(clip, qa, use_ts=True)
        assert not warned
        assert [s.t_start for s in view.subtitles] == [3.0]
        assert [f.frame_id for f in view.frames] == [3]

    def test_use_ts_false_returns_full_clip(self, tiny_clip):
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (0.0, 0.0))
        view, warned = clip_view(tiny_clip, qa, use_ts=False)
        assert not warned
        assert view.frames == tiny_clip.frames
        assert view.subtitles == tiny_clip.subtitles

    def test_interval_outside_duration_gives_empty_view_and_warning(self):
        clip = Clip("w", [Frame(0, 0.0)],
                    [SubtitleLine("Ada", ["a"], 0.0, 1.0)], [], None)
        qa = QAItem(["q"], [["a"], ["b"], ["c"], ["d"], ["e"]], 0, (50.0, 60.0))
        view, warned = clip_view(clip, qa, use_ts=True)
        assert warned
        assert view.frames == [] and view.subtitles == []

    def test_views_are_subsets(self, small_corpus):
        for clip in small_corpus:
            for qa in clip.qas:
                for use_ts in (True, False):
                    view, _ = clip_view(clip, qa, use_ts)
                    assert subset_of(view, clip)


def subset_of(view: Clip, clip: Clip) -> bool:
    """True when every frame/subtitle of the view is taken from the clip."""
    frame_ids = {f.frame_id for f in clip.frames}
    sub_keys = {(s.speaker, tuple(s.tokens), s.t_start, s.t_end) for s in clip.subtitles}
    return all(f.frame_id in frame_ids for f in view.frames) and all(
        (s.speaker, tuple(s.tokens), s.t_start, s.t_end) in sub_keys for s in view.subtitles
    )
