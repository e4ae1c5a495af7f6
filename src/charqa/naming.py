"""Weakly supervised character identification.

A two-layer head, the "naming" FFN of the model's flat parameter store (run
by `nn.ffn_forward`/`ffn_backward`) followed by a softmax, maps face
embeddings to distributions over the cast plus UNKNAME. Supervision is
indirect: each subtitle line's speaker name is broadcast to every face in
the frames it overlaps, and the loss takes, per frame, the minimum KL
divergence between any face's prediction and the smoothed one-hot speaker
target. Only the argmin face receives gradient, in the spirit of
multiple-instance learning. The targets of a clip are grouped by frame once,
into a padded (frames x faces) array, so the loss is one gather, one
row-wise KL and a masked argmin per frame.
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
    """A clip's broadcast targets, grouped by frame once, in frame_id order:
    row i of `faces` holds frame `frame_ids[i]`'s face ids in face_id order,
    padded with -1 to the widest frame, and row i of `targets` the frame's
    target (that of its lowest face_id)."""

    def __init__(self, entries):
        """entries: (face_id, frame_id, target row) per broadcast-supervised face."""
        by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
        for face_id, frame_id, g in entries:
            by_frame.setdefault(frame_id, []).append((face_id, g))
        self.frame_ids = sorted(by_frame)
        frames = [sorted(by_frame[frame_id], key=lambda item: item[0])
                  for frame_id in self.frame_ids]
        self.faces = np.full((len(frames), max(map(len, frames), default=0)), -1)
        for i, items in enumerate(frames):
            self.faces[i, :len(items)] = [fid for fid, _ in items]
        self.targets = (np.array([items[0][1] for items in frames]) if frames
                        else np.zeros((0, 0)))


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


def rkl_loss_with_grad(preds: NameDistributionSeq, targets: TargetSeq):
    """Sum over frames of the min-over-faces KL to the frame target, with
    the 0 ln 0 convention.

    Returns (loss, dloss/drows). The min is hard: only the argmin face per
    frame carries gradient; ties resolve to the lowest face_id.
    """
    drows = np.zeros_like(preds.rows)
    if not targets.frame_ids:
        return 0.0, drows
    if not preds.face_ids:
        raise ShapeError("targets name faces but there are no prediction rows")
    ids = np.asarray(preds.face_ids)
    valid = targets.faces >= 0
    faces = np.where(valid, targets.faces, targets.faces[:, :1])  # pads repeat a real face
    order = np.argsort(ids)
    pos = order[np.minimum(np.searchsorted(ids, faces, sorter=order), len(ids) - 1)]
    if not np.array_equal(ids[pos], faces):
        raise ShapeError("targets name a face that has no prediction row")
    p = preds.rows[pos]  # (frames, faces, classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(targets.targets)[:, None, :]
        log_p = np.log(p)
        kl = np.where(p > 0, p * (log_p - log_g), 0.0).sum(axis=-1)
        kl[~valid] = np.inf
        best = np.argmin(kl, axis=1)  # the first minimum: the lowest face_id
        frames = np.arange(len(best))
        best_kl = kl[frames, best]
        if not np.all(np.isfinite(best_kl)):
            raise NonFiniteLossError(
                "KL divergence is non-finite; a zero-probability target class "
                "received prediction mass (use epsilon > 0)"
            )
        p_best = p[frames, best]
        dkl = np.where(p_best > 0, log_p[frames, best] - log_g[:, 0] + 1.0, 0.0)
    np.add.at(drows, pos[frames, best], dkl)
    # cumsum adds the frames one by one, in frame order
    return float(np.cumsum(best_kl)[-1]), drows


def assign_names(preds: NameDistributionSeq, cast: CastList) -> dict[int, str]:
    """argmax class per face (ties to the lowest index); UNKNAME faces are
    omitted from the map."""
    classes = np.argmax(preds.rows, axis=1).tolist()
    return {fid: cast.names[c] for fid, c in zip(preds.face_ids, classes)
            if c != cast.unk_index}


def face_accuracy(preds: NameDistributionSeq, truth: dict[int, str],
                  cast: CastList) -> tuple[int, int]:
    """(correct, total) over the predicted faces that have a truth label:
    correct counts those whose argmax class matches the label mapped through
    the cast (off-cast truth names count as UNKNAME)."""
    correct = total = 0
    for fid, c in zip(preds.face_ids, np.argmax(preds.rows, axis=1).tolist()):
        if fid in truth:
            total += 1
            correct += c == map_speaker(truth[fid], cast)
    return correct, total


__all__ = [
    "init_naming", "NameDistributionSeq", "TargetSeq", "naming_forward",
    "naming_backward", "frame_speaker", "smoothed_onehot", "broadcast_targets",
    "rkl_loss_with_grad", "assign_names", "face_accuracy",
]
