import math

import numpy as np
import pytest

from charqa.carn import Model, ModelConfig, build_vocab, init_params
from charqa.castlist import build_cast_list, count_speakers, map_speaker
from charqa.corpus import (BBox, Clip, FaceDetection, Frame, GenConfig, SubtitleLine,
                           generate_corpus)
from charqa.errors import NonFiniteLossError, ShapeError
from charqa.harness import grad_check
from charqa.naming import (TargetSeq, assign_names, broadcast_targets, face_accuracy,
                           face_table, frame_speaker, init_naming, naming_forward,
                           rkl_loss_with_grad, smoothed_onehot)
from oracles import oracle_rkl, random_rkl_instance


def head(w1, b1, w2, b2):
    """The naming FFN of a flat parameter store."""
    return {"naming.w1": w1, "naming.b1": b1, "naming.w2": w2, "naming.b2": b2}


def rkl_loss(rows, targets):
    return rkl_loss_with_grad(rows, targets)[0]


def unit_face(fid, frame_id, d=4):
    e = np.zeros(d)
    e[fid % d] = 1.0
    return FaceDetection(fid, frame_id, BBox(0, 0, 5, 5), e)


class TestPredict:
    def test_zero_params_give_uniform(self):
        params = head(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        rows = naming_forward(params, np.eye(4))
        assert np.allclose(rows, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = {}
        init_naming(rng, params, 6, 5, 4)
        rows = naming_forward(params, rng.standard_normal((9, 6)))
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all(rows >= 0)

    def test_hand_case_matches_scalar_arithmetic(self):
        # d_f=2, d_h1=2, two classes; every number recomputed with plain
        # floats below, no linear algebra.
        params = head(np.array([[1.0, -1.0], [0.5, 2.0]]),
                      np.array([0.1, -0.2]),
                      np.array([[0.3, -0.4], [1.5, 0.2]]),
                      np.array([0.05, -0.05]))
        f = np.array([[1.0, 0.0]])
        rows = naming_forward(params, f)

        h1 = max(1.0 * 1.0 + 0.0 * 0.5 + 0.1, 0.0)
        h2 = max(1.0 * -1.0 + 0.0 * 2.0 + -0.2, 0.0)
        l1 = h1 * 0.3 + h2 * 1.5 + 0.05
        l2 = h1 * -0.4 + h2 * 0.2 + -0.05
        z = math.exp(l1) + math.exp(l2)
        assert rows[0] == pytest.approx([math.exp(l1) / z, math.exp(l2) / z],
                                              abs=1e-12)

    def test_dimension_mismatch(self):
        params = head(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            naming_forward(params, np.zeros((2, 5)))


class TestBroadcast:
    def make_clip(self, speaker="Ada", n_faces=3):
        faces = [unit_face(i, 0) for i in range(n_faces)]
        frame = Frame(0, 0.0, faces, [], [], [])
        line = SubtitleLine(speaker, ["hi"], 0.0, 0.9)
        return Clip("b", [frame], [line], [], None)

    def test_speaker_broadcast_to_all_faces(self, tiny_cast):
        # One frame row holding all three faces, with one shared target.
        ts = broadcast_targets(self.make_clip(), tiny_cast, 0.05)
        assert ts.frame_ids == [0]
        assert ts.face_rows.tolist() == [[0, 1, 2]]
        assert ts.targets.shape == (1, 3)
        expected = (1 - 0.05) * np.eye(3)[0] + 0.05 / 3
        assert np.allclose(ts.targets[0], expected)
        assert ts.targets[0].sum() == pytest.approx(1.0)

    def test_unkname_speaker_emits_nothing(self, tiny_cast):
        ts = broadcast_targets(self.make_clip(speaker="Stranger"), tiny_cast, 0.05)
        assert ts.frame_ids == [] and ts.face_rows.size == 0 and ts.targets.size == 0

    def test_epsilon_zero_exact_onehot(self, tiny_cast):
        ts = broadcast_targets(self.make_clip(speaker="Ben"), tiny_cast, 0.0)
        assert np.array_equal(ts.targets, [[0.0, 1.0, 0.0]])

    def test_faceless_and_silent_frames_skipped(self, tiny_cast):
        frames = [Frame(0, 0.0, [], [], [], []),
                  Frame(5, 5.0, [unit_face(0, 5)], [], [], [])]
        clip = Clip("b", frames, [SubtitleLine("Ada", ["x"], 0.0, 0.9)], [], None)
        assert broadcast_targets(clip, tiny_cast, 0.05).frame_ids == []

    def test_rows_map_back_to_each_frames_face_ids(self):
        corpus = generate_corpus(GenConfig(k_principals=3, n_extras=2, n_clips=12, d_f=8,
                                           seed=5))
        cast = build_cast_list(count_speakers(corpus), min_count=None)
        supervised = 0
        for clip in corpus:
            ids, _ = face_table(clip)
            faces = {f.frame_id: sorted(fc.face_id for fc in f.faces) for f in clip.frames}
            ts = broadcast_targets(clip, cast, 0.05)
            assert ts.face_rows.shape[0] == len(ts.frame_ids) == len(ts.targets)
            for frame_id, rows in zip(ts.frame_ids, ts.face_rows):
                assert [ids[r] for r in rows if r >= 0] == faces[frame_id]
            supervised += len(ts.frame_ids)
        assert supervised > 0

    def test_overlapping_lines_latest_start_wins(self):
        clip = Clip("s", [], [SubtitleLine("Ada", ["x"], 0.0, 2.0),
                              SubtitleLine("Ben", ["y"], 1.0, 3.0)], [], None)
        assert frame_speaker(clip, 1.5) == "Ben"
        assert frame_speaker(clip, 0.5) == "Ada"
        assert frame_speaker(clip, 9.0) is None


class TestRklLoss:
    def test_perfect_prediction_gives_zero(self):
        g = smoothed_onehot(1, 3, 0.05)
        targets = TargetSeq(((0, [0], g),))
        assert rkl_loss(g[None, :].copy(), targets) == pytest.approx(0.0, abs=1e-15)

    def test_single_frame_matches_scalar_oracle(self):
        # One face, uniform over 3 classes, target smoothed-one-hot(0).
        p = [1 / 3, 1 / 3, 1 / 3]
        g = [0.95 + 0.05 / 3, 0.05 / 3, 0.05 / 3]
        expected = sum(pc * math.log(pc / gc) for pc, gc in zip(p, g))
        targets = TargetSeq(((0, [0], np.array(g)),))
        assert rkl_loss(np.full((1, 3), 1 / 3), targets) == pytest.approx(expected, abs=1e-12)

    def test_two_frames_sum(self):
        rng = np.random.default_rng(3)
        _, rows, targets, rows_by_face, groups = random_rkl_instance(rng)
        while len(groups) < 2:
            _, rows, targets, rows_by_face, groups = random_rkl_instance(rng)
        per_frame = [oracle_rkl(rows_by_face, [grp]) for grp in groups]
        assert rkl_loss(rows, targets) == pytest.approx(sum(per_frame), abs=1e-9)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            _, rows, targets, rows_by_face, groups = random_rkl_instance(rng)
            expected = oracle_rkl(rows_by_face, groups)
            assert abs(rkl_loss(rows, targets) - expected) <= 1e-9

    def test_empty_targets_zero(self):
        assert rkl_loss(np.full((1, 2), 0.5), TargetSeq(())) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            _, rows, targets, _, _ = random_rkl_instance(rng)
            assert rkl_loss(rows, targets) >= 0.0

    def test_unsmoothed_target_off_support_raises(self):
        targets = TargetSeq(((0, [0], np.array([1.0, 0.0])),))
        with pytest.raises(NonFiniteLossError):
            rkl_loss(np.array([[0.5, 0.5]]), targets)

    def test_improving_winner_never_raises_loss(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            face_ids, rows, targets, rows_by_face, groups = random_rkl_instance(rng)
            before = rkl_loss(rows, targets)
            # move the first frame's argmin face toward its target
            members, g = groups[0]
            kls = {fid: oracle_rkl(rows_by_face, [([fid], g)]) for fid in members}
            winner = min(kls, key=lambda f: (kls[f], f))
            i = face_ids.index(winner)
            moved = rows.copy()
            moved[i] = 0.7 * rows[i] + 0.3 * np.asarray(g)
            after = rkl_loss(moved, targets)
            assert after <= before + 1e-12

    def test_gradient_flows_only_to_argmin(self):
        g = smoothed_onehot(0, 3, 0.05)
        rows = np.array([g.copy(), [1 / 3, 1 / 3, 1 / 3]])
        targets = TargetSeq(((0, [0, 1], g),))
        _, drows = rkl_loss_with_grad(rows, targets)
        assert np.any(drows[0] != 0)
        assert np.all(drows[1] == 0)

    def test_tie_gradient_to_lowest_face_id(self, tiny_cast):
        # The frame lists face 2 before face 1; the face table puts face 1
        # at row 0, and the tie goes to it.
        frame = Frame(0, 0.0, [unit_face(2, 0), unit_face(1, 0)], [], [], [])
        clip = Clip("t", [frame], [SubtitleLine("Ada", ["hi"], 0.0, 0.9)], [], None)
        ids, _ = face_table(clip)
        assert ids == (1, 2)
        targets = broadcast_targets(clip, tiny_cast, 0.05)
        _, drows = rkl_loss_with_grad(np.full((2, 3), 1 / 3), targets)
        assert np.any(drows[ids.index(1)] != 0)
        assert np.all(drows[ids.index(2)] == 0)


class TestAssignNames:
    def test_argmax(self, tiny_cast):
        assert assign_names((0,), np.array([[0.1, 0.7, 0.2]]), tiny_cast) == {0: "Ben"}

    def test_uniform_ties_to_class_zero(self, tiny_cast):
        assert assign_names((3,), np.full((1, 3), 1 / 3), tiny_cast) == {3: "Ada"}

    def test_unk_argmax_omitted(self, tiny_cast):
        rows = np.array([[0.1, 0.2, 0.7],
                         [0.8, 0.1, 0.1]])
        assert assign_names((0, 1), rows, tiny_cast) == {1: "Ada"}


class TestFaceAccuracy:
    def test_counts_matches_through_cast(self, tiny_cast):
        # Face 0 is named Ada, truth Ada -> hit; face 1 Ben, truth Ada ->
        # miss; face 2 has no name (UNKNAME), truth Guest1 -> hit.
        names = {0: "Ada", 1: "Ben"}
        truth = {0: "Ada", 1: "Ada", 2: "Guest1"}
        assert face_accuracy(names, truth, tiny_cast) == (2, 3)
        # Faces without a truth label are not counted.
        assert face_accuracy(names, {0: "Ada", 1: "Ada"}, tiny_cast) == (1, 2)

    def test_empty_truth(self, tiny_cast):
        assert face_accuracy({}, {}, tiny_cast) == (0, 0)

    @staticmethod
    def oracle_counts(face_ids, rows, truth, cast):
        """(correct, total): argmax class of each labelled face's row (ties to
        the lowest class) against its label mapped through the cast."""
        correct = 0
        for fid, row in zip(face_ids, rows):
            best = max(range(len(row)), key=lambda c: (row[c], -c))
            correct += best == map_speaker(truth[fid], cast)
        return correct, len(truth)

    def test_model_names_score_as_argmax_over_rows(self, small_corpus):
        cast = build_cast_list(count_speakers(small_corpus), min_count=None)
        vocab = build_vocab(small_corpus, cast)
        config = ModelConfig(d_model=8, d_ff=12, d_h1=6, heads=2)
        model = Model(vocab, cast, config,
                      init_params(np.random.default_rng(3), vocab, cast, config, 16))
        named = 0
        for clip in small_corpus:
            ids, table = face_table(clip)
            rows = naming_forward(model.params, table)
            names = model.name_assignments(clip)
            named += len(names)
            assert face_accuracy(names, clip.truth, cast) == self.oracle_counts(
                ids, rows, clip.truth, cast)
        assert 0 < named < sum(len(clip.truth) for clip in small_corpus)  # UNKNAME too

    def test_ties_score_as_argmax_over_rows(self, tiny_cast):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(0, 8))
            rows = rng.integers(0, 3, size=(n, 3)) + 0.5
            rows /= rows.sum(axis=1, keepdims=True)
            ids = tuple(int(i) for i in rng.permutation(3 * n)[:n])
            truth = {fid: str(rng.choice(["Ada", "Ben", "Guest1", "UNKNAME"]))
                     for fid in ids}
            names = assign_names(ids, rows, tiny_cast)
            assert face_accuracy(names, truth, tiny_cast) == self.oracle_counts(
                ids, rows, truth, tiny_cast)


class TestNamingGradients:
    def test_fd_check_passes(self):
        (rep,) = grad_check("naming", tolerance=1e-4, n_configs=3, seed=0)
        assert rep.passed, rep.format()
        assert set(rep.worst) == {"naming.w1", "naming.b1", "naming.w2", "naming.b2"}
