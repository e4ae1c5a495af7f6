"""Independent reference implementations used by the test suite.

Everything here is written as plain Python loops over scalars, deliberately
avoiding the package's vectorized code paths.
"""

import math

import numpy as np

from charqa.naming import TargetSeq


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
    """A random prediction/target pair plus the oracle's view of it:
    (face_ids, rows, targets, rows_by_face, frame_groups).

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
    return face_ids, rows, targets, rows_by_face, frame_groups


def _oracle_table_row(vocab, tok):
    """The embedding-table row of a token, or None: a cast name, flagged as
    a name or not, takes its name row, past the word rows, and a word its
    word row."""
    if tok in vocab.names:
        return len(vocab.words) + vocab.names.index(tok)
    if tok in vocab.words:
        return vocab.words.index(tok)
    return None


def oracle_embed(params, vocab, tokens, flags):
    """Token-by-token embedding rows, without positional encoding: a token's
    table row, and zeros for a token without one."""
    rows = []
    for tok in tokens:
        i = _oracle_table_row(vocab, tok)
        if i is None:
            rows.append([0.0] * params["embed"].shape[1])
        else:
            rows.append([float(v) for v in params["embed"][i]])
    return rows


def oracle_embed_backward(params, vocab, tokens, flags, drows, grads):
    """Add each token's row gradient to the table row oracle_embed read, if
    any; grads["embed"] is a list of row lists."""
    for tok, drow in zip(tokens, drows):
        i = _oracle_table_row(vocab, tok)
        if i is None:
            continue
        row = grads["embed"][i]
        for k in range(len(row)):
            row[k] += float(drow[k])


def _oracle_init_block(rng, params, prefix, d_model, d_ff, heads):
    d_h = d_model // heads
    sc = 1.0 / math.sqrt(d_model)
    params[prefix + ".attn.wq"] = rng.standard_normal((heads, d_model, d_h)) * (0.5 * sc)
    params[prefix + ".attn.wk"] = rng.standard_normal((heads, d_model, d_h)) * (0.5 * sc)
    params[prefix + ".ln1.g"] = np.ones(d_model)
    params[prefix + ".ln1.b"] = np.zeros(d_model)
    params[prefix + ".ln2.g"] = np.ones(d_model)
    params[prefix + ".ln2.b"] = np.zeros(d_model)
    params[prefix + ".ffn.w1"] = rng.standard_normal((d_model, d_ff)) * sc
    params[prefix + ".ffn.b1"] = np.zeros(d_ff)
    params[prefix + ".ffn.w2"] = rng.standard_normal((d_ff, d_model)) * (1.0 / math.sqrt(d_ff))
    params[prefix + ".ffn.b2"] = np.zeros(d_model)


def oracle_init_stack(rng, params, prefix, n_layers, d_model, d_ff, heads):
    for i in range(n_layers):
        _oracle_init_block(rng, params, f"{prefix}.l{i}", d_model, d_ff, heads)
    params[prefix + ".lnf.g"] = np.ones(d_model)
    params[prefix + ".lnf.b"] = np.zeros(d_model)


def oracle_init_naming(rng, params, d_f, d_h1, n_classes):
    params["naming.w1"] = rng.standard_normal((d_f, d_h1)) / np.sqrt(d_f)
    params["naming.b1"] = np.zeros(d_h1)
    params["naming.w2"] = rng.standard_normal((d_h1, n_classes)) / np.sqrt(d_h1)
    params["naming.b2"] = np.zeros(n_classes)


def oracle_init_params(rng, vocab, cast, config, d_f):
    """The drawing code of the three init functions and init_params as
    they stood before the parameter table replaced them, draw for draw: the
    word and name tables are two tensors, the stacks multiply by
    1/sqrt(fan-in), the heads divide by sqrt(fan-in), and every stack has a
    final layer-norm bias."""
    c = config
    p = {}
    p["embed.word"] = rng.standard_normal((len(vocab.words), c.d_model))
    p["embed.name"] = rng.standard_normal((len(vocab.names), c.d_model))
    oracle_init_stack(rng, p, "enc", c.enc_layers, c.d_model, c.d_ff, c.heads)
    oracle_init_stack(rng, p, "dec_v", c.dec_layers, c.d_model, c.d_ff, c.heads)
    oracle_init_stack(rng, p, "dec_s", c.dec_layers, c.d_model, c.d_ff, c.heads)
    oracle_init_stack(rng, p, "ans", c.ans_layers, c.d_model, c.d_ff, c.heads)
    p["ans.head.w"] = rng.standard_normal(c.d_model) / np.sqrt(c.d_model)
    oracle_init_naming(rng, p, d_f, c.d_h1, cast.size)
    return p
