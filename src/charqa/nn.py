"""Numeric primitives: float64 forward/backward passes for every block the
reasoning network uses, plus Adam and finite-difference helpers.

Everything is written against a flat dict[str, ndarray] parameter store with
dotted key prefixes ("enc.l0.attn.wq", ...). Each forward returns (output,
cache); each backward consumes the cache and accumulates parameter gradients
into a same-keyed dict while returning input gradients. Gradients are exact,
which the finite-difference suite checks, so keep any new op differentiable
or route it around the tape the way the hard min in the naming loss is.

Every op takes leading batch axes: a (n, d) sequence and a (B, n, d) batch
of equal-length (padded) sequences run through the same code, and weight
gradients sum over all leading axes. A key mask of shape (..., n_k) marks
the valid keys of each sequence.

Attention follows the convention of reusing the projected keys as values:
Attention(Q, K) = softmax(QK^T/sqrt(d_h)) K, with per-head projections for
queries and keys only (no value or output projection). All heads run as one
(..., H, n, d_h) batched matmul; head h fills output columns h*d_h:(h+1)*d_h.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInputError, ShapeError

MASK_FILL = -1e30  # pre-softmax fill for masked keys; exp underflows to 0 exactly


# ---------------------------------------------------------------------------
# Elementwise / row ops


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    return p * (dp - np.sum(dp * p, axis=axis, keepdims=True))


def layernorm_forward(x, g, b, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def layernorm_backward(cache, dy):
    xhat, inv, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
    return dx, dg, db


# ---------------------------------------------------------------------------
# Attention (keys double as values)


def attention_forward(q, k, key_mask=None):
    """softmax(QK^T/sqrt(d_h)) K, plus the cache for backward. key_mask marks
    VALID key rows (True=keep)."""
    if q.ndim < 2 or k.ndim < 2:
        raise ShapeError(f"attention expects arrays of rank >= 2, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"feature dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    if k.shape[-2] == 0:
        raise EmptyInputError("attention needs at least one key")
    scale = 1.0 / math.sqrt(q.shape[-1])
    s = (q @ k.swapaxes(-1, -2)) * scale
    if key_mask is not None:
        s = np.where(key_mask[..., None, :], s, MASK_FILL)
    p = softmax(s, axis=-1)
    return p @ k, (q, k, p, scale)


def attention_backward(cache, dy):
    q, k, p, scale = cache
    dp = dy @ k.swapaxes(-1, -2)
    dk = p.swapaxes(-1, -2) @ dy
    ds = softmax_backward(p, dp, axis=-1)  # masked cols have p=0 -> ds=0
    dq = (ds @ k) * scale
    dk += (ds.swapaxes(-1, -2) @ q) * scale
    return dq, dk


def mha_forward(params, prefix, xq, xk, key_mask=None):
    """Multi-head: per-head q/k projections, concat of per-head outputs.

    All heads run as one (..., H, n, d_h) matmul; head h fills columns
    h*d_h:(h+1)*d_h of the output.
    """
    wq = params[prefix + ".wq"]  # (H, d_model, d_h)
    wk = params[prefix + ".wk"]
    q = xq[..., None, :, :] @ wq
    k = xk[..., None, :, :] @ wk
    if key_mask is not None:
        key_mask = key_mask[..., None, :]  # one mask row for every head
    y, c = attention_forward(q, k, key_mask)
    y = y.swapaxes(-3, -2)
    return y.reshape(y.shape[:-2] + (-1,)), (xq, xk, c)


def mha_backward(params, prefix, cache, dy, grads):
    xq, xk, c = cache
    wq = params[prefix + ".wq"]
    wk = params[prefix + ".wk"]
    n_heads, d_model, d_h = wq.shape
    dy = dy.reshape(dy.shape[:-1] + (n_heads, d_h)).swapaxes(-3, -2)
    dq, dk = attention_backward(c, dy)
    # One matmul per weight sums every head's gradient over all leading axes.
    gq = grads.setdefault(prefix + ".wq", np.zeros_like(wq))
    gk = grads.setdefault(prefix + ".wk", np.zeros_like(wk))
    gq += xq.reshape(-1, d_model).T @ np.moveaxis(dq, -3, 0).reshape(n_heads, -1, d_h)
    gk += xk.reshape(-1, d_model).T @ np.moveaxis(dk, -3, 0).reshape(n_heads, -1, d_h)
    dxq = (dq @ wq.swapaxes(-1, -2)).sum(axis=-3)
    dxk = (dk @ wk.swapaxes(-1, -2)).sum(axis=-3)
    return dxq, dxk


# ---------------------------------------------------------------------------
# Feed-forward and transformer blocks (pre-norm, residual)


def ffn_forward(params, prefix, x):
    w1, b1 = params[prefix + ".w1"], params[prefix + ".b1"]
    w2, b2 = params[prefix + ".w2"], params[prefix + ".b2"]
    pre = x @ w1 + b1
    h = np.maximum(pre, 0.0)
    return h @ w2 + b2, (x, pre, h)


def ffn_backward(params, prefix, cache, dy, grads):
    x, pre, h = cache
    w1, w2 = params[prefix + ".w1"], params[prefix + ".w2"]
    dh = dy @ w2.T
    dpre = dh * (pre > 0)
    # Weight gradients sum over every leading axis: flatten to rows first.
    x2, h2 = x.reshape(-1, x.shape[-1]), h.reshape(-1, h.shape[-1])
    dy2, dpre2 = dy.reshape(-1, dy.shape[-1]), dpre.reshape(-1, dpre.shape[-1])
    grads[prefix + ".w2"] = grads.get(prefix + ".w2", 0) + h2.T @ dy2
    grads[prefix + ".b2"] = grads.get(prefix + ".b2", 0) + dy2.sum(axis=0)
    grads[prefix + ".w1"] = grads.get(prefix + ".w1", 0) + x2.T @ dpre2
    grads[prefix + ".b1"] = grads.get(prefix + ".b1", 0) + dpre2.sum(axis=0)
    return dpre @ w1.T


def block_forward(params, prefix, x, context=None, key_mask=None):
    """x = x + MHA(LN1(x), C); x = x + FFN(LN2(x)). Self-attention when
    context is None (C = LN1(x)), cross-attention otherwise (C = context)."""
    u, ln1c = layernorm_forward(x, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
    ctx = u if context is None else context
    a, ac = mha_forward(params, prefix + ".attn", u, ctx, key_mask)
    x1 = x + a
    v, ln2c = layernorm_forward(x1, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
    f, fc = ffn_forward(params, prefix + ".ffn", v)
    y = x1 + f
    return y, (ln1c, ac, ln2c, fc, context is None)


def block_backward(params, prefix, cache, dy, grads):
    ln1c, ac, ln2c, fc, is_self = cache
    dx1 = dy.copy()
    dv = ffn_backward(params, prefix + ".ffn", fc, dy, grads)
    dxx, dg2, db2 = layernorm_backward(ln2c, dv)
    grads[prefix + ".ln2.g"] = grads.get(prefix + ".ln2.g", 0) + dg2
    grads[prefix + ".ln2.b"] = grads.get(prefix + ".ln2.b", 0) + db2
    dx1 += dxx
    da = dx1
    du, dctx = mha_backward(params, prefix + ".attn", ac, da, grads)
    if is_self:
        du = du + dctx
        dctx_out = None
    else:
        dctx_out = dctx
    dx, dg1, db1 = layernorm_backward(ln1c, du)
    grads[prefix + ".ln1.g"] = grads.get(prefix + ".ln1.g", 0) + dg1
    grads[prefix + ".ln1.b"] = grads.get(prefix + ".ln1.b", 0) + db1
    dx += dx1
    return dx, dctx_out


def stack_forward(params, prefix, n_layers, x, context=None, key_mask=None):
    """n_layers blocks sharing one context, then a final layer norm."""
    if x.shape[-2] == 0:
        raise EmptyInputError(f"{prefix}: empty input sequence")
    caches = []
    for i in range(n_layers):
        x, c = block_forward(params, f"{prefix}.l{i}", x, context, key_mask)
        caches.append(c)
    y, lnc = layernorm_forward(x, params[prefix + ".lnf.g"], params[prefix + ".lnf.b"])
    return y, (caches, lnc, n_layers)


def stack_backward(params, prefix, cache, dy, grads):
    caches, lnc, n_layers = cache
    dx, dg, db = layernorm_backward(lnc, dy)
    grads[prefix + ".lnf.g"] = grads.get(prefix + ".lnf.g", 0) + dg
    grads[prefix + ".lnf.b"] = grads.get(prefix + ".lnf.b", 0) + db
    dctx_total = None
    for i in reversed(range(n_layers)):
        dx, dctx = block_backward(params, f"{prefix}.l{i}", caches[i], dx, grads)
        if dctx is not None:
            dctx_total = dctx if dctx_total is None else dctx_total + dctx
    return dx, dctx_total


# ---------------------------------------------------------------------------
# Parameter initialization


def init_block(rng, params, prefix, d_model, d_ff, heads):
    if d_model % heads != 0:
        raise ShapeError(f"d_model {d_model} not divisible by {heads} heads")
    d_h = d_model // heads
    sc = 1.0 / math.sqrt(d_model)
    # Attention projections start at half scale: near-uniform early
    # attention spreads gradient over the whole context, where a peaked
    # random pattern can lock onto arbitrary tokens and stall small models.
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


def init_stack(rng, params, prefix, n_layers, d_model, d_ff, heads):
    for i in range(n_layers):
        init_block(rng, params, f"{prefix}.l{i}", d_model, d_ff, heads)
    params[prefix + ".lnf.g"] = np.ones(d_model)
    params[prefix + ".lnf.b"] = np.zeros(d_model)


# ---------------------------------------------------------------------------
# Positional encodings


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n)[:, None].astype(np.float64)
    i = np.arange(d // 2)[None, :].astype(np.float64)
    ang = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang[:, : d - d // 2])
    return pe


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Standard Adam over a flat param dict; missing grads are skipped."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k in sorted(grads):
            g = grads[k]
            if k not in self.m:
                self.m[k] = np.zeros_like(params[k])
                self.v[k] = np.zeros_like(params[k])
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * (g * g)
        for k in sorted(grads):
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# Finite differences


def fd_gradient_entry(fun, params, key, idx, step=1e-5):
    """Central difference of fun(params) w.r.t. one tensor entry."""
    arr = params[key]
    orig = arr[idx]
    arr[idx] = orig + step
    hi = fun()
    arr[idx] = orig - step
    lo = fun()
    arr[idx] = orig
    return (hi - lo) / (2.0 * step)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)


def check_gradients(fun, params, analytic: dict, keys=None, step=1e-5,
                    max_entries_per_tensor=None, rng=None):
    """Max relative error per parameter key between analytic and FD grads.

    With max_entries_per_tensor set, a random subset of entries is probed
    (full model checks would otherwise be quadratic in parameter count).
    """
    keys = sorted(analytic) if keys is None else list(keys)
    report = {}
    for key in keys:
        arr = params[key]
        grad = analytic.get(key)  # missing == claimed zero everywhere
        entries = list(np.ndindex(arr.shape))
        if max_entries_per_tensor is not None and len(entries) > max_entries_per_tensor:
            pick = rng.choice(len(entries), size=max_entries_per_tensor, replace=False)
            entries = [entries[int(i)] for i in pick]
        worst = 0.0
        for idx in entries:
            num = fd_gradient_entry(fun, params, key, idx, step)
            a = float(grad[idx]) if grad is not None else 0.0
            worst = max(worst, relative_error(a, num))
        report[key] = worst
    return report


__all__ = [
    "MASK_FILL", "softmax", "softmax_backward", "layernorm_forward",
    "layernorm_backward", "attention_forward", "attention_backward",
    "mha_forward", "mha_backward", "ffn_forward", "ffn_backward",
    "block_forward", "block_backward", "stack_forward", "stack_backward",
    "init_block", "init_stack", "sinusoidal_positions", "Adam",
    "fd_gradient_entry", "relative_error", "check_gradients",
]
