"""Numeric primitives: float64 forward/backward passes for every block the
reasoning network uses, plus Adam and finite-difference helpers.

Everything is written against a flat dict[str, ndarray] parameter store with
dotted key prefixes ("enc.l0.attn.wq", ...), drawn from carn.param_table.
The layer-norm, attention, FFN, block and stack forwards return (output,
cache), and each backward reads its forward's cache. Each backward
accumulates parameter gradients into a same-keyed dict while returning
input gradients. A cache is used once: stack_backward pops each block's
cache as it runs the block, so its memory goes as backward goes. Gradients
are exact, which the finite-difference suite checks, so keep any new op
differentiable or route it around the tape the way the hard min in the
naming loss is.

Every op takes leading batch axes: a (n, d) sequence and a (B, n, d) batch
of equal-length (padded) sequences run through the same code, and weight
gradients sum over all leading axes. A key mask of shape (..., n_k) marks
the valid keys of each sequence. The ops are sized for batches of many
short rows, where numpy's cost per call dominates: reductions over the
short last axis (the softmax row max and row sums, the layer-norm means)
run as a max over a contiguous transpose or as one matrix-vector product
with a constant column, and the parameter gradients' sums over rows as one
vector-matrix product with a ones row. A block's cache holds what its
backward reads: the attention's projections and weights and the FFN's
activation, so no backward runs a forward op. Only the layer-norm outputs
are rebuilt, elementwise, from the cached normalized input. A caller runs
each batch's backward right after its forward, so one batch's caches are
alive at a time; a forward-only pass (keep_cache False) keeps none, and
drops the attention weights before the FFN runs. The attention scores are
scaled, masked and normalized in place in one array, and the softmax
backward overwrites the gradient it is given.

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
LN_EPS = 1e-5  # added to the layer-norm variance
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's standard settings


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


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into out if given (out may be x)."""
    out = np.subtract(x, row_max(x), out=out)
    np.exp(out, out=out)
    out /= row_sum(out)
    return out


def softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """The gradient of the softmax input, given the softmax output p and the
    gradient dp of its output; written into dp, which it returns."""
    dp -= row_sum(dp * p)
    dp *= p
    return dp


def column_sum(x: np.ndarray) -> np.ndarray:
    """Sum over every leading axis, (..., d) -> (d,), as one vector-matrix
    product with a ones row. The row is made per call, not taken from
    _column's cache, since the row count varies from call to call."""
    x2 = x.reshape(-1, x.shape[-1])
    return np.ones(x2.shape[0]) @ x2


def layernorm_forward(x, g, b):
    xhat = x - row_mean(x)
    inv = 1.0 / np.sqrt(row_mean(xhat * xhat) + LN_EPS)
    xhat *= inv
    return _affine(xhat, g, b), (xhat, inv, g)


def _affine(xhat, g, b):
    y = xhat * g
    y += b
    return y


def layernorm_backward(cache, dy):
    xhat, inv, g = cache
    dg = column_sum(dy * xhat)
    db = column_sum(dy)
    dxhat = dy * g
    dx = dxhat - row_mean(dxhat)
    dx -= xhat * row_mean(dxhat * xhat)
    dx *= inv
    return dx, dg, db


# ---------------------------------------------------------------------------
# Attention (keys double as values)


def attention_weights(q, k, key_mask=None):
    """softmax(QK^T/sqrt(d_h)) over the valid keys: key_mask marks VALID key
    rows (True=keep). The scores are scaled, masked and normalized in place."""
    if q.ndim < 2 or k.ndim < 2:
        raise ShapeError(f"attention expects arrays of rank >= 2, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"feature dims differ: {q.shape[-1]} vs {k.shape[-1]}")
    if k.shape[-2] == 0:
        raise EmptyInputError("attention needs at least one key")
    s = q @ k.swapaxes(-1, -2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    if key_mask is not None:
        np.copyto(s, MASK_FILL, where=~key_mask[..., None, :])
    return softmax(s, out=s)


def attention_backward(q, k, p, dy):
    """(dL/dq, dL/dk) of softmax(QK^T/sqrt(d_h)) K, given its attention
    weights p."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    dp = dy @ k.swapaxes(-1, -2)
    dk = p.swapaxes(-1, -2) @ dy
    ds = softmax_backward(p, dp)  # masked cols have p=0 -> ds=0
    dq = ds @ k
    dq *= scale
    dsq = ds.swapaxes(-1, -2) @ q
    dsq *= scale
    dk += dsq
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


def _per_head(key_mask):
    return None if key_mask is None else key_mask[..., None, :]  # one row for every head


def mha_forward(params, prefix, xq, xk, key_mask=None):
    """Multi-head: per-head q/k projections, concat of per-head outputs.
    Returns the output and the cache mha_backward reads: the projections q
    and k, (..., H, n, d_h), and the attention weights p, (..., H, n, n_k).

    All heads run as one (..., H, n, d_h) matmul; head h fills columns
    h*d_h:(h+1)*d_h of the output.
    """
    q = _project(xq, params[prefix + ".wq"])  # wq: (H, d_model, d_h)
    k = _project(xk, params[prefix + ".wk"])
    p = attention_weights(q, k, _per_head(key_mask))
    y = (p @ k).swapaxes(-3, -2)
    return y.reshape(y.shape[:-2] + (-1,)), (q, k, p)


def mha_backward(params, prefix, xq, xk, cache, dy, grads):
    """(dL/dxq, dL/dxk) of mha_forward, given its inputs and its cache."""
    q, k, p = cache
    wq = params[prefix + ".wq"]
    wk = params[prefix + ".wk"]
    n_heads, _, d_h = wq.shape
    dy = dy.reshape(dy.shape[:-1] + (n_heads, d_h)).swapaxes(-3, -2)
    dq, dk = attention_backward(q, k, p, dy)
    gq, dxq = _project_backward(xq, wq, dq)
    gk, dxk = _project_backward(xk, wk, dk)
    grads[prefix + ".wq"] = grads.get(prefix + ".wq", 0) + gq
    grads[prefix + ".wk"] = grads.get(prefix + ".wk", 0) + gk
    return dxq, dxk


# ---------------------------------------------------------------------------
# Feed-forward and transformer blocks (pre-norm, residual)


def ffn_activation(params, prefix, x):
    """relu(x W1 + b1)."""
    h = x @ params[prefix + ".w1"]
    h += params[prefix + ".b1"]
    return np.maximum(h, 0.0, out=h)


def ffn_forward(params, prefix, x):
    """relu(x W1 + b1) W2 + b2, and the activation h = relu(x W1 + b1),
    which ffn_backward reads with the input x."""
    h = ffn_activation(params, prefix, x)
    y = h @ params[prefix + ".w2"]
    y += params[prefix + ".b2"]
    return y, h


def ffn_backward(params, prefix, x, h, dy, grads):
    """dL/dx of ffn_forward, given its input x and its activation h."""
    dpre = dy @ params[prefix + ".w2"].T
    dpre *= h > 0
    # Weight gradients sum over every leading axis: flatten to rows first.
    x2, h2 = x.reshape(-1, x.shape[-1]), h.reshape(-1, h.shape[-1])
    dy2, dpre2 = dy.reshape(-1, dy.shape[-1]), dpre.reshape(-1, dpre.shape[-1])
    grads[prefix + ".w2"] = grads.get(prefix + ".w2", 0) + h2.T @ dy2
    grads[prefix + ".b2"] = grads.get(prefix + ".b2", 0) + column_sum(dy2)
    grads[prefix + ".w1"] = grads.get(prefix + ".w1", 0) + x2.T @ dpre2
    grads[prefix + ".b1"] = grads.get(prefix + ".b1", 0) + column_sum(dpre2)
    return dpre @ params[prefix + ".w1"].T


def block_forward(params, prefix, x, context=None, key_mask=None, keep_cache: bool = True):
    """x = x + MHA(LN1(x), C); x = x + FFN(LN2(x)). Self-attention when
    context is None (C = LN1(x)), cross-attention otherwise (C = context).

    The cache keeps what backward reads: the two layer norms' caches, the
    context, the attention's projections and weights, and the FFN's
    activation. Backward rebuilds only the layer-norm outputs, elementwise,
    and runs no other forward op. With keep_cache False the cache is None,
    and the attention's cache goes before the FFN runs."""
    u, ln1c = layernorm_forward(x, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
    x1, attn = mha_forward(params, prefix + ".attn", u, u if context is None else context,
                           key_mask)
    if not keep_cache:
        attn = None
    x1 += x
    v, ln2c = layernorm_forward(x1, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
    y, h = ffn_forward(params, prefix + ".ffn", v)
    y += x1
    return y, (ln1c, ln2c, context, attn, h) if keep_cache else None


def _layernorm_output(params, prefix, cache):
    xhat, _, g = cache
    return _affine(xhat, g, params[prefix + ".b"])


def block_backward(params, prefix, cache, dy, grads):
    ln1c, ln2c, context, attn, h = cache
    v = _layernorm_output(params, prefix + ".ln2", ln2c)
    dv = ffn_backward(params, prefix + ".ffn", v, h, dy, grads)
    dxx, dg2, db2 = layernorm_backward(ln2c, dv)
    grads[prefix + ".ln2.g"] = grads.get(prefix + ".ln2.g", 0) + dg2
    grads[prefix + ".ln2.b"] = grads.get(prefix + ".ln2.b", 0) + db2
    dx1 = dxx
    dx1 += dy
    u = _layernorm_output(params, prefix + ".ln1", ln1c)
    du, dctx = mha_backward(params, prefix + ".attn", u, u if context is None else context,
                            attn, dx1, grads)
    if context is None:
        du += dctx
        dctx = None
    dx, dg1, db1 = layernorm_backward(ln1c, du)
    grads[prefix + ".ln1.g"] = grads.get(prefix + ".ln1.g", 0) + dg1
    grads[prefix + ".ln1.b"] = grads.get(prefix + ".ln1.b", 0) + db1
    dx += dx1
    return dx, dctx


def stack_forward(params, prefix, n_layers, x, context=None, key_mask=None,
                  keep_cache: bool = True):
    """n_layers blocks sharing one context, then a final layer norm, whose
    bias applies only where params hold one (prefix + ".lnf.b"). With
    keep_cache False no block keeps a cache, and the cache returned is None
    (a forward-only pass)."""
    if x.shape[-2] == 0:
        raise EmptyInputError(f"{prefix}: empty input sequence")
    caches = []
    for i in range(n_layers):
        x, c = block_forward(params, f"{prefix}.l{i}", x, context, key_mask, keep_cache)
        if keep_cache:
            caches.append(c)
    y, lnc = layernorm_forward(x, params[prefix + ".lnf.g"], params.get(prefix + ".lnf.b", 0.0))
    return y, (caches, lnc, n_layers) if keep_cache else None


def stack_backward(params, prefix, cache, dy, grads):
    """Backward of stack_forward. Each block's cache is popped as it is
    consumed, so its memory goes as soon as the block is done, and a second
    backward over the same cache raises IndexError."""
    caches, lnc, n_layers = cache
    dx, dg, db = layernorm_backward(lnc, dy)
    grads[prefix + ".lnf.g"] = grads.get(prefix + ".lnf.g", 0) + dg
    if prefix + ".lnf.b" in params:
        grads[prefix + ".lnf.b"] = grads.get(prefix + ".lnf.b", 0) + db
    dctx_total = None
    for i in reversed(range(n_layers)):
        dx, dctx = block_backward(params, f"{prefix}.l{i}", caches.pop(), dx, grads)
        if dctx_total is None:
            dctx_total = dctx
        elif dctx is not None:
            dctx_total += dctx
    return dx, dctx_total


# ---------------------------------------------------------------------------
# Positional encodings


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Column 2j is sin(p / 10000^(2j/d)), column 2j+1 the cosine; an odd d
    ends on a sine column."""
    pos = np.arange(n)[:, None].astype(np.float64)
    i = np.arange((d + 1) // 2)[None, :].astype(np.float64)
    ang = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang[:, : d // 2])
    return pe


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Standard Adam (ADAM_*) over a flat param dict; missing grads are skipped."""

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for k in sorted(grads):
            g = grads[k]
            if k not in self.m:
                self.m[k] = np.zeros_like(params[k])
                self.v[k] = np.zeros_like(params[k])
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * (g * g)
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Finite differences


FD_STEP = 1e-5  # the central difference's step


def _probe(fun, params, key, idx, steps) -> list[float]:
    """fun() with one tensor entry moved by each of steps in turn; the entry
    is restored afterwards."""
    arr = params[key]
    orig = arr[idx]
    values = []
    for step in steps:
        arr[idx] = orig + step
        values.append(fun())
    arr[idx] = orig
    return values


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)


def _is_kink(fun, params, key, idx, analytic: float, lo: float, hi: float,
             tolerance: float) -> bool:
    """Whether an entry whose central difference, from the losses lo and hi
    at -FD_STEP and +FD_STEP, misses the analytic value sits at a kink (a
    ReLU or a hard min switching inside the step) rather than carrying a
    wrong gradient: the one-sided differences at the step disagree by more
    than tolerance, so the function is not smooth there, and the analytic
    value matches a one-sided difference at FD_STEP / 100."""
    mid = fun()
    if relative_error((mid - lo) / FD_STEP, (hi - mid) / FD_STEP) <= tolerance:
        return False
    step = FD_STEP * 1e-2
    near_lo, near_hi = _probe(fun, params, key, idx, (-step, step))
    return min(relative_error(analytic, (mid - near_lo) / step),
               relative_error(analytic, (near_hi - mid) / step)) <= tolerance


def check_gradients(fun, params, analytic: dict, keys=None, max_entries_per_tensor=None,
                    rng=None, tolerance: float = 1e-4):
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
            hi, lo = _probe(fun, params, key, idx, (FD_STEP, -FD_STEP))
            err = relative_error(a, (hi - lo) / (2.0 * FD_STEP))
            if err > tolerance and _is_kink(fun, params, key, idx, a, lo, hi, tolerance):
                kinks[key] += 1
            else:
                worst[key] = max(worst[key], err)
    return worst, kinks


__all__ = [
    "MASK_FILL", "row_max", "row_sum", "row_mean", "softmax", "softmax_backward",
    "column_sum", "layernorm_forward", "layernorm_backward", "attention_weights",
    "attention_backward", "mha_forward", "mha_backward", "ffn_activation", "ffn_forward",
    "ffn_backward",
    "block_forward", "block_backward", "stack_forward", "stack_backward",
    "sinusoidal_positions", "Adam",
    "relative_error", "check_gradients",
]
