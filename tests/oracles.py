"""Independent reference implementations used by the test suite.

Everything here is written as plain Python loops over scalars, deliberately
avoiding the package's vectorized code paths.
"""

import math

import numpy as np

from charqa.naming import NameDistributionSeq, TargetSeq


def oracle_kl(p, g):
    total = 0.0
    for c in range(len(g)):
        if p[c] > 0:
            total += p[c] * math.log(p[c] / g[c])
    return total


def oracle_rkl(rows_by_face, frame_groups):
    """Naive triple loop: frames, faces within the frame, classes.

    rows_by_face: face_id -> probability row (any sequence of floats).
    frame_groups: list of (face_id list, target row).
    """
    total = 0.0
    for face_ids, g in frame_groups:
        best = None
        for fid in face_ids:
            kl = oracle_kl(rows_by_face[fid], g)
            if best is None or kl < best:
                best = kl
        total += best
    return total


def random_rkl_instance(rng, max_faces=20, max_k=6):
    """A random prediction/target pair plus the oracle's view of it.

    Faces are partitioned over frames (matching the generator's contract
    that a face_id occurs in exactly one frame); face_ids are shuffled and
    non-contiguous, and the targets give each frame's faces as their rows
    of that shuffled prediction table.
    """
    n_faces = int(rng.integers(1, max_faces + 1))
    n_classes = int(rng.integers(2, max_k + 2))  # cast size k+1
    epsilon = float(rng.choice([0.01, 0.05, 0.2]))
    face_ids = [int(i) for i in rng.permutation(n_faces * 3)[:n_faces]]

    raw = rng.random((n_faces, n_classes)) + 1e-3
    rows = raw / raw.sum(axis=1, keepdims=True)
    preds = NameDistributionSeq(tuple(face_ids), rows)
    rows_by_face = {fid: [float(v) for v in rows[i]]
                    for i, fid in enumerate(face_ids)}

    n_frames = int(rng.integers(1, n_faces + 1))
    frame_of = rng.integers(0, n_frames, size=n_faces)
    groups = []
    frame_groups = []
    for fr in sorted(set(int(x) for x in frame_of)):
        cls = int(rng.integers(0, n_classes))
        g = np.full(n_classes, epsilon / n_classes)
        g[cls] += 1.0 - epsilon
        members = [face_ids[i] for i in np.flatnonzero(frame_of == fr)]
        # The frame's rows of the prediction table, lowest face_id first.
        groups.append((fr, [face_ids.index(fid) for fid in sorted(members)], g))
        frame_groups.append((members, [float(v) for v in g]))
    targets = TargetSeq(groups)
    return preds, targets, rows_by_face, frame_groups


def oracle_embed(params, vocab, tokens, flags):
    """Token-by-token embedding rows, without positional encoding: a
    name-flagged cast name takes its name row, a word its word row, and any
    other token the mean of its characters' rows."""
    rows = []
    for tok, is_name in zip(tokens, flags):
        if is_name and tok in vocab.names:
            rows.append([float(v) for v in params["embed.name"][vocab.names.index(tok)]])
        elif tok in vocab.words:
            rows.append([float(v) for v in params["embed.word"][vocab.words.index(tok)]])
        else:
            chars = [params["embed.char"][vocab.chars.index(ch)] for ch in tok]
            rows.append([sum(float(c[k]) for c in chars) / len(chars)
                         for k in range(len(chars[0]))])
    return rows


def oracle_embed_backward(params, vocab, tokens, flags, drows, grads):
    """Add each token's row gradient to the table rows oracle_embed read;
    grads maps each table name to a list of row lists."""
    for tok, is_name, drow in zip(tokens, flags, drows):
        if is_name and tok in vocab.names:
            targets = [(grads["embed.name"][vocab.names.index(tok)], 1.0)]
        elif tok in vocab.words:
            targets = [(grads["embed.word"][vocab.words.index(tok)], 1.0)]
        else:
            targets = [(grads["embed.char"][vocab.chars.index(ch)], 1.0 / len(tok))
                       for ch in tok]
        for row, share in targets:
            for k in range(len(row)):
                row[k] += float(drow[k]) * share
