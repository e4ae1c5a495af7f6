import math

import numpy as np
import pytest

from charqa.corpus import BBox, Clip, FaceDetection, Frame, SubtitleLine
from charqa.errors import NonFiniteLossError, ShapeError
from charqa.harness import grad_check
from charqa.naming import (NameDistributionSeq, TargetSeq, assign_names,
                           broadcast_targets, face_accuracy, frame_speaker,
                           init_naming, naming_forward,
                           rkl_loss_with_grad, smoothed_onehot)
from oracles import oracle_rkl, random_rkl_instance


def predict_name_distributions(embeddings, params):
    rows = naming_forward(params, embeddings)
    return NameDistributionSeq(tuple(range(len(rows))), rows)


def head(w1, b1, w2, b2):
    """The naming FFN of a flat parameter store."""
    return {"naming.w1": w1, "naming.b1": b1, "naming.w2": w2, "naming.b2": b2}


def rkl_loss(preds, targets):
    return rkl_loss_with_grad(preds, targets)[0]


def unit_face(fid, frame_id, d=4):
    e = np.zeros(d)
    e[fid % d] = 1.0
    return FaceDetection(fid, frame_id, BBox(0, 0, 5, 5), e)


class TestPredict:
    def test_zero_params_give_uniform(self):
        params = head(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        preds = predict_name_distributions(np.eye(4), params)
        assert np.allclose(preds.rows, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = {}
        init_naming(rng, params, 6, 5, 4)
        preds = predict_name_distributions(rng.standard_normal((9, 6)), params)
        assert np.allclose(preds.rows.sum(axis=1), 1.0)
        assert np.all(preds.rows >= 0)

    def test_hand_case_matches_scalar_arithmetic(self):
        # d_f=2, d_h1=2, two classes; every number recomputed with plain
        # floats below, no linear algebra.
        params = head(np.array([[1.0, -1.0], [0.5, 2.0]]),
                      np.array([0.1, -0.2]),
                      np.array([[0.3, -0.4], [1.5, 0.2]]),
                      np.array([0.05, -0.05]))
        f = np.array([[1.0, 0.0]])
        preds = predict_name_distributions(f, params)

        h1 = max(1.0 * 1.0 + 0.0 * 0.5 + 0.1, 0.0)
        h2 = max(1.0 * -1.0 + 0.0 * 2.0 + -0.2, 0.0)
        l1 = h1 * 0.3 + h2 * 1.5 + 0.05
        l2 = h1 * -0.4 + h2 * 0.2 + -0.05
        z = math.exp(l1) + math.exp(l2)
        assert preds.rows[0] == pytest.approx([math.exp(l1) / z, math.exp(l2) / z],
                                              abs=1e-12)

    def test_dimension_mismatch(self):
        params = head(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            predict_name_distributions(np.zeros((2, 5)), params)


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
        assert ts.faces.tolist() == [[0, 1, 2]]
        assert ts.targets.shape == (1, 3)
        expected = (1 - 0.05) * np.eye(3)[0] + 0.05 / 3
        assert np.allclose(ts.targets[0], expected)
        assert ts.targets[0].sum() == pytest.approx(1.0)

    def test_unkname_speaker_emits_nothing(self, tiny_cast):
        ts = broadcast_targets(self.make_clip(speaker="Stranger"), tiny_cast, 0.05)
        assert ts.frame_ids == [] and ts.faces.size == 0 and ts.targets.size == 0

    def test_epsilon_zero_exact_onehot(self, tiny_cast):
        ts = broadcast_targets(self.make_clip(speaker="Ben"), tiny_cast, 0.0)
        assert np.array_equal(ts.targets, [[0.0, 1.0, 0.0]])

    def test_faceless_and_silent_frames_skipped(self, tiny_cast):
        frames = [Frame(0, 0.0, [], [], [], []),
                  Frame(5, 5.0, [unit_face(0, 5)], [], [], [])]
        clip = Clip("b", frames, [SubtitleLine("Ada", ["x"], 0.0, 0.9)], [], None)
        assert broadcast_targets(clip, tiny_cast, 0.05).frame_ids == []

    def test_overlapping_lines_latest_start_wins(self):
        clip = Clip("s", [], [SubtitleLine("Ada", ["x"], 0.0, 2.0),
                              SubtitleLine("Ben", ["y"], 1.0, 3.0)], [], None)
        assert frame_speaker(clip, 1.5) == "Ben"
        assert frame_speaker(clip, 0.5) == "Ada"
        assert frame_speaker(clip, 9.0) is None


class TestRklLoss:
    def test_perfect_prediction_gives_zero(self):
        g = smoothed_onehot(1, 3, 0.05)
        preds = NameDistributionSeq((7,), g[None, :].copy())
        targets = TargetSeq(((7, 0, g),))
        assert rkl_loss(preds, targets) == pytest.approx(0.0, abs=1e-15)

    def test_single_frame_matches_scalar_oracle(self):
        # One face, uniform over 3 classes, target smoothed-one-hot(0).
        p = [1 / 3, 1 / 3, 1 / 3]
        g = [0.95 + 0.05 / 3, 0.05 / 3, 0.05 / 3]
        expected = sum(pc * math.log(pc / gc) for pc, gc in zip(p, g))
        preds = NameDistributionSeq((0,), np.full((1, 3), 1 / 3))
        targets = TargetSeq(((0, 0, np.array(g)),))
        assert rkl_loss(preds, targets) == pytest.approx(expected, abs=1e-12)

    def test_two_frames_sum(self):
        rng = np.random.default_rng(3)
        preds, targets, rows_by_face, groups = random_rkl_instance(rng)
        while len(groups) < 2:
            preds, targets, rows_by_face, groups = random_rkl_instance(rng)
        per_frame = [oracle_rkl(rows_by_face, [grp]) for grp in groups]
        assert rkl_loss(preds, targets) == pytest.approx(sum(per_frame), abs=1e-9)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            preds, targets, rows_by_face, groups = random_rkl_instance(rng)
            expected = oracle_rkl(rows_by_face, groups)
            assert abs(rkl_loss(preds, targets) - expected) <= 1e-9

    def test_empty_targets_zero(self):
        preds = NameDistributionSeq((0,), np.full((1, 2), 0.5))
        assert rkl_loss(preds, TargetSeq(())) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            preds, targets, _, _ = random_rkl_instance(rng)
            assert rkl_loss(preds, targets) >= 0.0

    def test_unsmoothed_target_off_support_raises(self):
        preds = NameDistributionSeq((0,), np.array([[0.5, 0.5]]))
        targets = TargetSeq(((0, 0, np.array([1.0, 0.0])),))
        with pytest.raises(NonFiniteLossError):
            rkl_loss(preds, targets)

    def test_improving_winner_never_raises_loss(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            preds, targets, rows_by_face, groups = random_rkl_instance(rng)
            before = rkl_loss(preds, targets)
            # move the first frame's argmin face toward its target
            members, g = groups[0]
            kls = {fid: oracle_rkl(rows_by_face, [([fid], g)]) for fid in members}
            winner = min(kls, key=lambda f: (kls[f], f))
            i = preds.face_ids.index(winner)
            rows = preds.rows.copy()
            rows[i] = 0.7 * rows[i] + 0.3 * np.asarray(g)
            after = rkl_loss(NameDistributionSeq(preds.face_ids, rows), targets)
            assert after <= before + 1e-12

    def test_gradient_flows_only_to_argmin(self):
        g = smoothed_onehot(0, 3, 0.05)
        rows = np.array([g.copy(), [1 / 3, 1 / 3, 1 / 3]])
        preds = NameDistributionSeq((4, 9), rows)
        targets = TargetSeq(((4, 0, g), (9, 0, g)))
        _, drows = rkl_loss_with_grad(preds, targets)
        assert np.any(drows[0] != 0)
        assert np.all(drows[1] == 0)

    def test_tie_gradient_to_lowest_face_id(self):
        g = smoothed_onehot(0, 3, 0.05)
        rows = np.full((2, 3), 1 / 3)
        preds = NameDistributionSeq((2, 1), rows)
        targets = TargetSeq(((1, 0, g), (2, 0, g)))
        _, drows = rkl_loss_with_grad(preds, targets)
        # face_id 1 sits at row index 1
        assert np.any(drows[1] != 0)
        assert np.all(drows[0] == 0)


class TestAssignNames:
    def test_argmax(self, tiny_cast):
        preds = NameDistributionSeq((0,), np.array([[0.1, 0.7, 0.2]]))
        assert assign_names(preds, tiny_cast) == {0: "Ben"}

    def test_uniform_ties_to_class_zero(self, tiny_cast):
        preds = NameDistributionSeq((3,), np.full((1, 3), 1 / 3))
        assert assign_names(preds, tiny_cast) == {3: "Ada"}

    def test_unk_argmax_omitted(self, tiny_cast):
        preds = NameDistributionSeq((0, 1), np.array([[0.1, 0.2, 0.7],
                                                      [0.8, 0.1, 0.1]]))
        assert assign_names(preds, tiny_cast) == {1: "Ada"}


class TestFaceAccuracy:
    def test_counts_matches_through_cast(self, tiny_cast):
        rows = np.array([[0.8, 0.1, 0.1],   # Ada, truth Ada -> hit
                         [0.1, 0.8, 0.1],   # Ben, truth Ada -> miss
                         [0.1, 0.1, 0.8]])  # UNKNAME, truth Guest1 -> hit
        preds = NameDistributionSeq((0, 1, 2), rows)
        truth = {0: "Ada", 1: "Ada", 2: "Guest1"}
        assert face_accuracy(preds, truth, tiny_cast) == (2, 3)
        # Faces without a truth label are not counted.
        assert face_accuracy(preds, {0: "Ada", 1: "Ada"}, tiny_cast) == (1, 2)

    def test_empty_truth(self, tiny_cast):
        preds = NameDistributionSeq((), np.zeros((0, 3)))
        assert face_accuracy(preds, {}, tiny_cast) == (0, 0)


class TestNamingGradients:
    def test_fd_check_passes(self):
        (rep,) = grad_check("naming", tolerance=1e-4, n_configs=3, seed=0)
        assert rep.passed, rep.format()
        assert set(rep.worst) == {"naming.w1", "naming.b1", "naming.w2", "naming.b2"}
