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
the valid keys of each sequence. The ops are sized for batches of many
short rows, where numpy's cost per call dominates: reductions over the
short last axis (the softmax row max and row sums, the layer-norm means)
run as a max over a contiguous transpose or as one matrix-vector product
with a constant column, and caches keep only what backward cannot
recompute elementwise or with one gemm, because a training batch holds
every block's cache at once.

Attention follows the convention of reusing the projected keys as values:
Attention(Q, K) = softmax(QK^T/sqrt(d_h)) K, with per-head projections for
queries and keys only (no value or output projection). The projections of
all heads are one gemm over the heads' concatenated columns, and all heads
attend as one (..., H, n, d_h) batched matmul; head h fills output columns
h*d_h:(h+1)*d_h.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EmptyInputError, ShapeError

MASK_FILL = -1e30  # pre-softmax fill for masked keys; exp underflows to 0 exactly


# ---------------------------------------------------------------------------
# Elementwise / row ops


def row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims. numpy reduces a short last axis
    slowly; an elementwise max over the slices of a contiguous transpose
    gives the same values an order of magnitude faster at batch scale."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)[..., None]


@lru_cache(maxsize=64)
def _column(n: int, value: float) -> np.ndarray:
    col = np.full(n, value)
    col.flags.writeable = False  # shared by every caller
    return col


def row_sum(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * (sum over the last axis), keepdims, as one matrix-vector
    product with a constant column over all rows."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ _column(n, scale)).reshape(x.shape[:-1] + (1,))


def row_mean(x: np.ndarray) -> np.ndarray:
    return row_sum(x, 1.0 / x.shape[-1])


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - row_max(x))
    return e / row_sum(e)


def softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    return p * (dp - row_sum(dp * p))


def layernorm_forward(x, g, b, eps: float = 1e-5):
    xc = x - row_mean(x)
    inv = 1.0 / np.sqrt(row_mean(xc * xc) + eps)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def layernorm_backward(cache, dy):
    xhat, inv, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (dxhat - row_mean(dxhat) - xhat * row_mean(dxhat * xhat))
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
    p = softmax(s)
    return p @ k, (q, k, p, scale)


def attention_backward(cache, dy):
    q, k, p, scale = cache
    dp = dy @ k.swapaxes(-1, -2)
    dk = p.swapaxes(-1, -2) @ dy
    ds = softmax_backward(p, dp)  # masked cols have p=0 -> ds=0
    dq = (ds @ k) * scale
    dk += (ds.swapaxes(-1, -2) @ q) * scale
    return dq, dk


def _project(x, w):
    """x @ w[h] for every head h, as one gemm over the heads' concatenated
    columns: (..., n, d_model) -> (..., H, n, d_h)."""
    n_heads, d_model, d_h = w.shape
    y = x.reshape(-1, d_model) @ w.transpose(1, 0, 2).reshape(d_model, n_heads * d_h)
    return y.reshape(x.shape[:-1] + (n_heads, d_h)).swapaxes(-3, -2)


def _project_backward(x, w, dy):
    """(dL/dw, dL/dx) of _project for dy of shape (..., H, n, d_h)."""
    n_heads, d_model, d_h = w.shape
    dy2 = dy.swapaxes(-3, -2).reshape(-1, n_heads * d_h)
    gw = (x.reshape(-1, d_model).T @ dy2).reshape(d_model, n_heads, d_h).transpose(1, 0, 2)
    dx = dy2 @ w.transpose(1, 0, 2).reshape(d_model, n_heads * d_h).T
    return gw, dx.reshape(x.shape)


def mha_forward(params, prefix, xq, xk, key_mask=None):
    """Multi-head: per-head q/k projections, concat of per-head outputs.

    All heads run as one (..., H, n, d_h) matmul; head h fills columns
    h*d_h:(h+1)*d_h of the output. The cache keeps the inputs and the
    attention weights; backward recomputes the projections.
    """
    wq = params[prefix + ".wq"]  # (H, d_model, d_h)
    wk = params[prefix + ".wk"]
    if key_mask is not None:
        key_mask = key_mask[..., None, :]  # one mask row for every head
    y, (_, _, p, _) = attention_forward(_project(xq, wq), _project(xk, wk), key_mask)
    y = y.swapaxes(-3, -2)
    return y.reshape(y.shape[:-2] + (-1,)), (xq, xk, p)


def mha_backward(params, prefix, cache, dy, grads):
    xq, xk, p = cache
    wq = params[prefix + ".wq"]
    wk = params[prefix + ".wk"]
    n_heads, _, d_h = wq.shape
    q, k = _project(xq, wq), _project(xk, wk)
    dy = dy.reshape(dy.shape[:-1] + (n_heads, d_h)).swapaxes(-3, -2)
    dq, dk = attention_backward((q, k, p, 1.0 / math.sqrt(d_h)), dy)
    gq, dxq = _project_backward(xq, wq, dq)
    gk, dxk = _project_backward(xk, wk, dk)
    grads[prefix + ".wq"] = grads.get(prefix + ".wq", 0) + gq
    grads[prefix + ".wk"] = grads.get(prefix + ".wk", 0) + gk
    return dxq, dxk


# ---------------------------------------------------------------------------
# Feed-forward and transformer blocks (pre-norm, residual)


def ffn_forward(params, prefix, x):
    """relu(x W1 + b1) W2 + b2; the cache is the input alone, since backward
    recomputes the pre-activation with one gemm."""
    w1, b1 = params[prefix + ".w1"], params[prefix + ".b1"]
    w2, b2 = params[prefix + ".w2"], params[prefix + ".b2"]
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2, x


def ffn_backward(params, prefix, x, dy, grads):
    w1, b1, w2 = params[prefix + ".w1"], params[prefix + ".b1"], params[prefix + ".w2"]
    pre = x @ w1 + b1
    dpre = (dy @ w2.T) * (pre > 0)
    # Weight gradients sum over every leading axis: flatten to rows first.
    x2, h2 = x.reshape(-1, x.shape[-1]), np.maximum(pre, 0.0).reshape(-1, pre.shape[-1])
    dy2, dpre2 = dy.reshape(-1, dy.shape[-1]), dpre.reshape(-1, dpre.shape[-1])
    grads[prefix + ".w2"] = grads.get(prefix + ".w2", 0) + h2.T @ dy2
    grads[prefix + ".b2"] = grads.get(prefix + ".b2", 0) + dy2.sum(axis=0)
    grads[prefix + ".w1"] = grads.get(prefix + ".w1", 0) + x2.T @ dpre2
    grads[prefix + ".b1"] = grads.get(prefix + ".b1", 0) + dpre2.sum(axis=0)
    return dpre @ w1.T


def block_forward(params, prefix, x, context=None, key_mask=None):
    """x = x + MHA(LN1(x), C); x = x + FFN(LN2(x)). Self-attention when
    context is None (C = LN1(x)), cross-attention otherwise (C = context).

    The cache keeps the two layer norms' caches, the attention weights and
    the context: backward recomputes the layer-norm outputs elementwise and
    the projections and the FFN pre-activation with one gemm each, since a
    training batch holds every block's cache at once."""
    u, ln1c = layernorm_forward(x, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
    a, (_, _, p) = mha_forward(params, prefix + ".attn", u, u if context is None else context,
                               key_mask)
    x1 = x + a
    v, ln2c = layernorm_forward(x1, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
    f, _ = ffn_forward(params, prefix + ".ffn", v)
    return x1 + f, (ln1c, p, ln2c, context)


def _layernorm_output(params, prefix, cache):
    xhat, _, g = cache
    return xhat * g + params[prefix + ".b"]


def block_backward(params, prefix, cache, dy, grads):
    ln1c, p, ln2c, context = cache
    v = _layernorm_output(params, prefix + ".ln2", ln2c)
    dv = ffn_backward(params, prefix + ".ffn", v, dy, grads)
    dxx, dg2, db2 = layernorm_backward(ln2c, dv)
    grads[prefix + ".ln2.g"] = grads.get(prefix + ".ln2.g", 0) + dg2
    grads[prefix + ".ln2.b"] = grads.get(prefix + ".ln2.b", 0) + db2
    dx1 = dy + dxx
    u = _layernorm_output(params, prefix + ".ln1", ln1c)
    du, dctx = mha_backward(params, prefix + ".attn",
                            (u, u if context is None else context, p), dx1, grads)
    if context is None:
        du = du + dctx
        dctx = None
    dx, dg1, db1 = layernorm_backward(ln1c, du)
    grads[prefix + ".ln1.g"] = grads.get(prefix + ".ln1.g", 0) + dg1
    grads[prefix + ".ln1.b"] = grads.get(prefix + ".ln1.b", 0) + db1
    return dx + dx1, dctx


def stack_forward(params, prefix, n_layers, x, context=None, key_mask=None,
                  keep_cache: bool = True):
    """n_layers blocks sharing one context, then a final layer norm. With
    keep_cache False each block's cache is dropped once the next block has
    run, and the cache returned is None (a forward-only pass)."""
    if x.shape[-2] == 0:
        raise EmptyInputError(f"{prefix}: empty input sequence")
    caches = []
    for i in range(n_layers):
        x, c = block_forward(params, f"{prefix}.l{i}", x, context, key_mask)
        if keep_cache:
            caches.append(c)
    y, lnc = layernorm_forward(x, params[prefix + ".lnf.g"], params[prefix + ".lnf.b"])
    return y, (caches, lnc, n_layers) if keep_cache else None


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


def _one_sided(fun, params, key, idx, step):
    """(left, right) one-sided differences of fun(params) w.r.t. one entry."""
    arr = params[key]
    orig = arr[idx]
    mid = fun()
    arr[idx] = orig - step
    lo = fun()
    arr[idx] = orig + step
    hi = fun()
    arr[idx] = orig
    return (mid - lo) / step, (hi - mid) / step


def _is_kink(fun, params, key, idx, analytic: float, step: float, tolerance: float) -> bool:
    """Whether an entry whose central difference misses the analytic value
    sits at a kink (a ReLU or a hard min switching inside the step) rather
    than carrying a wrong gradient: the one-sided differences at the step
    disagree by more than tolerance, so the function is not smooth there,
    and the analytic value matches a one-sided difference at step / 100."""
    left, right = _one_sided(fun, params, key, idx, step)
    if relative_error(left, right) <= tolerance:
        return False
    return min(relative_error(analytic, d) for d in
               _one_sided(fun, params, key, idx, step * 1e-2)) <= tolerance


def check_gradients(fun, params, analytic: dict, keys=None, step=1e-5,
                    max_entries_per_tensor=None, rng=None, tolerance: float = 1e-4):
    """(worst, kinks): per parameter key, the max relative error between
    analytic and central-difference grads, and the number of entries over
    tolerance that `_is_kink` classifies as kinks; kinks count in kinks,
    not in worst.

    With max_entries_per_tensor set, a random subset of entries is probed
    (full model checks would otherwise be quadratic in parameter count).
    """
    keys = sorted(analytic) if keys is None else list(keys)
    worst, kinks = {}, {}
    for key in keys:
        arr = params[key]
        grad = analytic.get(key)  # missing == claimed zero everywhere
        entries = list(np.ndindex(arr.shape))
        if max_entries_per_tensor is not None and len(entries) > max_entries_per_tensor:
            pick = rng.choice(len(entries), size=max_entries_per_tensor, replace=False)
            entries = [entries[int(i)] for i in pick]
        worst[key], kinks[key] = 0.0, 0
        for idx in entries:
            a = float(grad[idx]) if grad is not None else 0.0
            err = relative_error(a, fd_gradient_entry(fun, params, key, idx, step))
            if err > tolerance and _is_kink(fun, params, key, idx, a, step, tolerance):
                kinks[key] += 1
            else:
                worst[key] = max(worst[key], err)
    return worst, kinks


__all__ = [
    "MASK_FILL", "row_max", "row_sum", "row_mean", "softmax", "softmax_backward",
    "layernorm_forward", "layernorm_backward", "attention_forward", "attention_backward",
    "mha_forward", "mha_backward", "ffn_forward", "ffn_backward",
    "block_forward", "block_backward", "stack_forward", "stack_backward",
    "init_block", "init_stack", "sinusoidal_positions", "Adam",
    "fd_gradient_entry", "relative_error", "check_gradients",
]
