"""Weakly supervised character identification.

A two-layer head, the "naming" FFN of the model's flat parameter store (run
by `nn.ffn_forward`/`ffn_backward`) followed by a softmax, maps face
embeddings to distributions over the cast plus UNKNAME. Supervision is
indirect: each subtitle line's speaker name is broadcast to every face in
the frames it overlaps, and the loss takes, per frame, the minimum KL
divergence between any face's prediction and the smoothed one-hot speaker
target. Only the argmin face receives gradient, in the spirit of
multiple-instance learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .castlist import CastList, map_speaker
from .corpus import Clip
from .errors import NonFiniteLossError, ShapeError
from .nn import ffn_backward, ffn_forward, softmax, softmax_backward


def init_naming(rng, params, d_f: int, d_h1: int, n_classes: int) -> None:
    """Add the head's "naming" FFN, (d_f, d_h1) then (d_h1, n_classes), to
    the flat parameter store."""
    params["naming.w1"] = rng.standard_normal((d_f, d_h1)) / np.sqrt(d_f)
    params["naming.b1"] = np.zeros(d_h1)
    params["naming.w2"] = rng.standard_normal((d_h1, n_classes)) / np.sqrt(d_h1)
    params["naming.b2"] = np.zeros(n_classes)


@dataclass(frozen=True)
class NameDistributionSeq:
    face_ids: tuple[int, ...]
    rows: np.ndarray  # (n, k+1)

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.face_ids):
            raise ShapeError("rows must align with face_ids")
        if self.rows.size and (np.any(self.rows < 0)
                               or np.max(np.abs(self.rows.sum(axis=1) - 1.0)) > 1e-6):
            raise ValueError("rows must be distributions")


@dataclass(frozen=True)
class TargetSeq:
    """(face_id, frame_id, target row) per broadcast-supervised face."""

    entries: tuple[tuple[int, int, np.ndarray], ...]

    def frames(self):
        """Group entries by frame: yields (frame_id, face_ids, target)."""
        by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
        for face_id, frame_id, g in self.entries:
            by_frame.setdefault(frame_id, []).append((face_id, g))
        for frame_id in sorted(by_frame):
            items = sorted(by_frame[frame_id])
            yield frame_id, [fid for fid, _ in items], items[0][1]


def naming_forward(params, embeddings: np.ndarray) -> np.ndarray:
    """Rows of softmax(relu(F W1 + b1) W2 + b2), the "naming" FFN of the
    parameter store followed by a softmax."""
    w1 = params["naming.w1"]
    if embeddings.ndim != 2 or embeddings.shape[1] != w1.shape[0]:
        raise ShapeError(f"embeddings {embeddings.shape} incompatible with W1 {w1.shape}")
    return softmax(ffn_forward(params, "naming", embeddings)[0])


def naming_backward(params, embeddings: np.ndarray, rows: np.ndarray, drows: np.ndarray,
                    grads: dict) -> None:
    """Accumulate into grads the "naming.*" gradients of a loss whose
    gradient with respect to naming_forward's rows is drows."""
    ffn_backward(params, "naming", embeddings, softmax_backward(rows, drows), grads)


# ---------------------------------------------------------------------------
# Broadcast supervision


def frame_speaker(clip: Clip, frame_time: float) -> str | None:
    """Speaker of the subtitle line overlapping the frame time, or None.

    Simultaneously overlapping lines resolve to the latest t_start.
    """
    best = None
    for line in clip.subtitles:
        if line.t_start <= frame_time <= line.t_end:
            if best is None or line.t_start >= best.t_start:
                best = line
    return None if best is None else best.speaker


def smoothed_onehot(index: int, n_classes: int, epsilon: float) -> np.ndarray:
    g = np.full(n_classes, epsilon / n_classes)
    g[index] += 1.0 - epsilon
    return g


def broadcast_targets(clip: Clip, cast: CastList, epsilon: float) -> TargetSeq:
    """Duplicate each frame's speaker name over all faces in that frame.

    Frames whose speaker maps to UNKNAME (or that have no overlapping line,
    or no faces) contribute nothing.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    n_classes = cast.size
    entries = []
    for frame in clip.frames:
        if not frame.faces:
            continue
        speaker = frame_speaker(clip, frame.time)
        if speaker is None:
            continue
        idx = map_speaker(speaker, cast)
        if idx == cast.unk_index:
            continue
        g = smoothed_onehot(idx, n_classes, epsilon)
        for fc in sorted(frame.faces, key=lambda f: f.face_id):
            entries.append((fc.face_id, frame.frame_id, g))
    return TargetSeq(tuple(entries))


# ---------------------------------------------------------------------------
# Regularized KL multi-instance loss


def kl_divergence(p: np.ndarray, g: np.ndarray) -> float:
    """sum_c p_c ln(p_c/g_c) with the 0 ln 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(g)), 0.0)
    return float(np.sum(terms))


def rkl_loss_with_grad(preds: NameDistributionSeq, targets: TargetSeq):
    """Sum over frames of the min-over-faces KL to the frame target.

    Returns (loss, dloss/drows). The min is hard: only the argmin face per
    frame carries gradient; ties resolve to the lowest face_id.
    """
    index = {fid: i for i, fid in enumerate(preds.face_ids)}
    total = 0.0
    drows = np.zeros_like(preds.rows)
    for _, face_ids, g in targets.frames():
        best_i = None
        best_kl = np.inf
        for fid in face_ids:
            i = index[fid]
            kl = kl_divergence(preds.rows[i], g)
            if kl < best_kl:
                best_kl = kl
                best_i = i
        if not np.isfinite(best_kl):
            raise NonFiniteLossError(
                "KL divergence is non-finite; a zero-probability target class "
                "received prediction mass (use epsilon > 0)"
            )
        total += best_kl
        p = preds.rows[best_i]
        with np.errstate(divide="ignore", invalid="ignore"):
            dkl = np.where(p > 0, np.log(p) - np.log(g) + 1.0, 0.0)
        drows[best_i] += dkl
    return float(total), drows


def assign_names(preds: NameDistributionSeq, cast: CastList) -> dict[int, str]:
    """argmax class per face (ties to the lowest index); UNKNAME faces are
    omitted from the map."""
    out = {}
    for fid, row in zip(preds.face_ids, preds.rows):
        c = int(np.argmax(row))
        if c != cast.unk_index:
            out[fid] = cast.names[c]
    return out


def face_accuracy(preds: NameDistributionSeq, truth: dict[int, str],
                  cast: CastList) -> tuple[int, int]:
    """(correct, total) over the predicted faces that have a truth label:
    correct counts those whose argmax class matches the label mapped through
    the cast (off-cast truth names count as UNKNAME)."""
    correct = total = 0
    for fid, row in zip(preds.face_ids, preds.rows):
        if fid in truth:
            total += 1
            correct += int(np.argmax(row)) == map_speaker(truth[fid], cast)
    return correct, total


__all__ = [
    "init_naming", "NameDistributionSeq", "TargetSeq", "naming_forward",
    "naming_backward", "frame_speaker", "smoothed_onehot", "broadcast_targets",
    "kl_divergence", "rkl_loss_with_grad", "assign_names", "face_accuracy",
]
