"""Weakly supervised character identification.

A two-layer head, the "naming" FFN of the model's flat parameter store (run
by `nn.ffn_forward`/`ffn_backward`) followed by a softmax, maps face
embeddings to distributions over the cast plus UNKNAME. Supervision is
indirect: each subtitle line's speaker name is broadcast to every face in
the frames it overlaps, and the loss takes, per frame, the minimum KL
divergence between any face's prediction and the smoothed one-hot speaker
target. Only the argmin face receives gradient, in the spirit of
multiple-instance learning.

This module owns a clip's face order: `face_table` lists its faces in
face_id order, and the head's rows, the targets and the name assignment,
which face accuracy scores, follow it. The targets hold each supervised
frame's rows of that table in one padded (frames x faces) array, so the
loss is one gather, one row-wise KL and a masked argmin per frame.
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


class TargetSeq:
    """A clip's broadcast targets, one group per supervised frame, in the
    clip's frame order: row i of `face_rows` holds frame `frame_ids[i]`'s
    rows of the clip's face table (see face_table), padded with -1 to the
    widest frame, and row i of `targets` the frame's target."""

    def __init__(self, groups):
        """groups: (frame_id, face-table rows, target row) per supervised frame."""
        self.frame_ids = [frame_id for frame_id, _, _ in groups]
        width = max((len(rows) for _, rows, _ in groups), default=0)
        self.face_rows = np.full((len(groups), width), -1)
        for i, (_, rows, _) in enumerate(groups):
            self.face_rows[i, :len(rows)] = rows
        self.targets = np.array([g for _, _, g in groups]) if groups else np.zeros((0, 0))


def face_table(clip: Clip):
    """The clip's face order: (face ids, (faces, d_f) embeddings), in face_id
    order. The head's rows, the targets' face rows and the name assignment
    all follow it. A clip without faces gives a (0, 1) table."""
    faces = sorted(clip.all_faces(), key=lambda f: f.face_id)
    ids = tuple(f.face_id for f in faces)
    if not faces:
        return ids, np.zeros((0, 1))
    return ids, np.stack([f.embedding for f in faces])


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
    """Duplicate each frame's speaker name over all faces in that frame, the
    faces given by their rows of face_table(clip), in ascending order.

    Frames whose speaker maps to UNKNAME (or that have no overlapping line,
    or no faces) contribute nothing.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    row = {face_id: i for i, face_id in enumerate(face_table(clip)[0])}
    groups = []
    for frame in clip.frames:
        if not frame.faces:
            continue
        speaker = frame_speaker(clip, frame.time)
        if speaker is None:
            continue
        idx = map_speaker(speaker, cast)
        if idx == cast.unk_index:
            continue
        groups.append((frame.frame_id, sorted(row[fc.face_id] for fc in frame.faces),
                       smoothed_onehot(idx, cast.size, epsilon)))
    return TargetSeq(groups)


# ---------------------------------------------------------------------------
# Regularized KL multi-instance loss


def rkl_loss_with_grad(rows: np.ndarray, targets: TargetSeq):
    """Sum over frames of the min-over-faces KL to the frame target, with
    the 0 ln 0 convention. rows are the head's (faces, classes) predictions
    on the clip's face table, which targets' face rows index.

    Returns (loss, dloss/drows). The min is hard: only the argmin face per
    frame carries gradient; ties resolve to the frame's first row, which
    broadcast_targets makes its lowest face_id.
    """
    drows = np.zeros_like(rows)
    if not targets.frame_ids:
        return 0.0, drows
    valid = targets.face_rows >= 0
    p = rows[targets.face_rows]  # (frames, faces, classes); pads gather the last row
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(targets.targets)[:, None, :]
        log_p = np.log(p)
        kl = np.where(p > 0, p * (log_p - log_g), 0.0).sum(axis=-1)
        kl[~valid] = np.inf
        best = np.argmin(kl, axis=1)  # the first minimum
        frames = np.arange(len(best))
        best_kl = kl[frames, best]
        if not np.all(np.isfinite(best_kl)):
            raise NonFiniteLossError(
                "KL divergence is non-finite; a zero-probability target class "
                "received prediction mass (use epsilon > 0)"
            )
        p_best = p[frames, best]
        dkl = np.where(p_best > 0, log_p[frames, best] - log_g[:, 0] + 1.0, 0.0)
    np.add.at(drows, targets.face_rows[frames, best], dkl)
    # cumsum adds the frames one by one, in frame order
    return float(np.cumsum(best_kl)[-1]), drows


def assign_names(preds: NameDistributionSeq, cast: CastList) -> dict[int, str]:
    """argmax class per face (ties to the lowest index); UNKNAME faces are
    omitted from the map."""
    classes = np.argmax(preds.rows, axis=1).tolist()
    return {fid: cast.names[c] for fid, c in zip(preds.face_ids, classes)
            if c != cast.unk_index}


def face_accuracy(names: dict[int, str], truth: dict[int, str],
                  cast: CastList) -> tuple[int, int]:
    """(correct, total) over the faces truth labels, given names, a clip's
    name assignment (assign_names): a face is right when its assigned name is
    its label, or when it has none and its label is off the cast."""
    correct = sum(names[fid] == label if fid in names else label not in cast
                  for fid, label in truth.items())
    return correct, len(truth)


__all__ = [
    "init_naming", "NameDistributionSeq", "TargetSeq", "face_table", "naming_forward",
    "naming_backward", "frame_speaker", "smoothed_onehot", "broadcast_targets",
    "rkl_loss_with_grad", "assign_names", "face_accuracy",
]
