"""Dense feed-forward network substrate.

Forward pass, exact reverse-mode gradients, Adam/SGD updates, a
finite-difference gradient checker, and a versioned flat serialization
format. Everything is float64 and purely functional: no global state,
no hidden RNG.
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")

_MAGIC = b"RILEMLP1"


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _act_grad(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation. ReLU at exactly 0 uses subgradient 0."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - h * h
    if name == "sigmoid":
        return h * (1.0 - h)
    return np.ones_like(z)


def _act_grad2(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Second derivative of the activation (needed for double backprop)."""
    if name == "relu":
        return np.zeros_like(z)
    if name == "tanh":
        return -2.0 * h * (1.0 - h * h)
    if name == "sigmoid":
        s = h
        return s * (1.0 - s) * (1.0 - 2.0 * s)
    return np.zeros_like(z)


@dataclass
class MlpParams:
    """Layered dense network: weights[k] is [out, in], biases[k] is [out].

    Consecutive layer dimensions must chain and all values must be finite.
    validate=False skips the construction checks; internal code uses it on
    already-validated shapes (optimizer moments, gradients, copies).
    """

    weights: list
    biases: list
    activations: list
    validate: InitVar[bool] = True

    def __post_init__(self, validate=True):
        if not validate:
            return
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases, activations must have equal length")
        if not self.weights:
            raise ValueError("network needs at least one layer")
        for k, (w, b, a) in enumerate(zip(self.weights, self.biases, self.activations)):
            if a not in ACTIVATIONS:
                raise ValueError(f"layer {k}: unknown activation {a!r}")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(
                    f"layer {k}: input dim {w.shape[1]} does not chain with "
                    f"layer {k - 1} output dim {self.weights[k - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite parameter values")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
            validate=False,
        )

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def mlp_init(dims, activations, rng) -> MlpParams:
    """New network with weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    dims is the full size chain [in, h1, ..., out]; activations has one
    entry per layer (len(dims) - 1).
    """
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(ws, bs, list(activations))


def zeros_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        list(params.activations),
        validate=False,
    )


def _as_batch(x, expected_dim, what="input"):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} has dim {x.shape[-1]}, layer expects {expected_dim}")
    return x, squeeze


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Returns (output, pre-activations z per layer, activations h per layer).

    h[0] is the input; h[k] the output of layer k.
    """
    hs = [x]
    zs = []
    h = x
    for w, b, a in zip(params.weights, params.biases, params.activations):
        z = h @ w.T + b
        h = _act(a, z)
        zs.append(z)
        hs.append(h)
    return h, zs, hs


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network. Accepts a single vector or a [n, in_dim] batch."""
    return mlp_forward_cached(params, x)[0]


def mlp_forward_cached(params: MlpParams, x):
    """mlp_forward that also returns the cache mlp_backward needs.

    Returns (output, cache). The cache holds the per-layer pre-activations
    and activations of this forward and whether x was a single vector.
    """
    xb, squeeze = _as_batch(x, params.in_dim)
    y, zs, hs = _forward_cached(params, xb)
    return (y[0] if squeeze else y), (zs, hs, squeeze)


def mlp_backward(params: MlpParams, cache, upstream):
    """Exact gradients of <output, upstream> w.r.t. parameters and input,
    from the cache of the forward pass mlp_forward_cached made.

    For batched input the parameter gradients are summed over the batch rows.
    Returns (param_grads: MlpParams-shaped, input_grad).
    """
    zs, hs, squeeze = cache
    ub, usq = _as_batch(upstream, params.out_dim, what="upstream gradient")
    if hs[0].shape[0] != ub.shape[0]:
        raise ValueError("input and upstream gradient batch sizes differ")

    gws = [None] * params.n_layers
    gbs = [None] * params.n_layers
    delta = ub
    for k in range(params.n_layers - 1, -1, -1):
        delta = delta * _act_grad(params.activations[k], zs[k], hs[k + 1])
        gws[k] = delta.T @ hs[k]
        gbs[k] = delta.sum(axis=0)
        delta = delta @ params.weights[k]
    grads = MlpParams(gws, gbs, list(params.activations), validate=False)
    return grads, (delta[0] if squeeze and usq else delta)


@dataclass
class AdamState:
    """Per-parameter Adam moments; shapes mirror the MlpParams exactly."""

    m: MlpParams
    v: MlpParams
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: MlpParams, lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    return AdamState(zeros_like_params(params), zeros_like_params(params),
                     0, lr, beta1, beta2, eps)


def _check_same_shape(params, grads):
    for k, (w, gw) in enumerate(zip(params.weights, grads.weights)):
        if w.shape != gw.shape or params.biases[k].shape != grads.biases[k].shape:
            raise ValueError(f"layer {k}: gradient shape does not match parameters")


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState):
    """One bias-corrected Adam update. Rejects non-finite gradients."""
    _check_same_shape(params, grads)
    for gw, gb in zip(grads.weights, grads.biases):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise ValueError("non-finite gradient passed to adam_step")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_w, new_b = [], []
    new_mw, new_mb, new_vw, new_vb = [], [], [], []
    for k in range(params.n_layers):
        for arrs, out_p, out_m, out_v in (
            ((params.weights[k], grads.weights[k], state.m.weights[k], state.v.weights[k]),
             new_w, new_mw, new_vw),
            ((params.biases[k], grads.biases[k], state.m.biases[k], state.v.biases[k]),
             new_b, new_mb, new_vb),
        ):
            p, g, m, v = arrs
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
            out_p.append(p)
            out_m.append(m)
            out_v.append(v)
    acts = list(params.activations)
    new_params = MlpParams(new_w, new_b, acts, validate=False)
    new_state = AdamState(
        MlpParams(new_mw, new_mb, acts, validate=False),
        MlpParams(new_vw, new_vb, acts, validate=False),
        t, state.lr, b1, b2, state.eps,
    )
    return new_params, new_state


def sgd_step(params: MlpParams, grads: MlpParams, lr: float) -> MlpParams:
    _check_same_shape(params, grads)
    return MlpParams(
        [w - lr * gw for w, gw in zip(params.weights, grads.weights)],
        [b - lr * gb for b, gb in zip(params.biases, grads.biases)],
        list(params.activations),
        validate=False,
    )


def params_to_flat(params: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(params.weights, params.biases)
                           for a in pair])


def flat_to_params(flat: np.ndarray, like: MlpParams) -> MlpParams:
    ws, bs, off = [], [], 0
    for w, b in zip(like.weights, like.biases):
        ws.append(flat[off:off + w.size].reshape(w.shape).copy())
        off += w.size
        bs.append(flat[off:off + b.size].copy())
        off += b.size
    return MlpParams(ws, bs, list(like.activations), validate=False)


def finite_diff_check(loss_fn, params: MlpParams, analytic: MlpParams,
                      step: float = 1e-5, coords=None, rng=None) -> float:
    """Max relative error between an analytic gradient and central differences.

    loss_fn maps MlpParams -> scalar and must be deterministic; analytic is
    the gradient to verify, same shape as params. Error per coordinate is
    |analytic - fd| / max(1, |analytic|). coords, if given, limits the sweep
    to that many randomly chosen coordinates (rng required).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    flat = params_to_flat(params)
    aflat = params_to_flat(analytic)
    n = flat.size
    if coords is None:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=min(coords, n), replace=False)
    worst = 0.0
    for i in idx:
        bump = np.zeros(n)
        bump[i] = step
        lo = loss_fn(flat_to_params(flat - bump, params))
        hi = loss_fn(flat_to_params(flat + bump, params))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("loss_fn returned a non-finite value")
        fd = (hi - lo) / (2.0 * step)
        err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
        worst = max(worst, err)
    return worst


_ACT_CODE = {a: i for i, a in enumerate(ACTIVATIONS)}


def mlp_to_bytes(params: MlpParams) -> bytes:
    """Versioned flat layout: magic, layer count, per-layer dims and
    activation codes, then row-major float64 weights and biases."""
    out = [_MAGIC, struct.pack("<I", params.n_layers)]
    for w, a in zip(params.weights, params.activations):
        out.append(struct.pack("<IIB", w.shape[1], w.shape[0], _ACT_CODE[a]))
    for w, b in zip(params.weights, params.biases):
        out.append(np.ascontiguousarray(w, dtype=np.float64).tobytes())
        out.append(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    return b"".join(out)


def mlp_from_bytes(data: bytes) -> MlpParams:
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("bad magic string: not a serialized network")
    off = len(_MAGIC)
    (n_layers,) = struct.unpack_from("<I", data, off)
    off += 4
    shapes, acts = [], []
    for _ in range(n_layers):
        din, dout, code = struct.unpack_from("<IIB", data, off)
        off += 9
        shapes.append((dout, din))
        acts.append(ACTIVATIONS[code])
    ws, bs = [], []
    for dout, din in shapes:
        nw = dout * din * 8
        ws.append(np.frombuffer(data[off:off + nw], dtype=np.float64).reshape(dout, din).copy())
        off += nw
        bs.append(np.frombuffer(data[off:off + dout * 8], dtype=np.float64).copy())
        off += dout * 8
    if off != len(data):
        raise ValueError("trailing bytes after network payload")
    return MlpParams(ws, bs, acts)


def save_mlp(params: MlpParams, path) -> None:
    with open(path, "wb") as f:
        f.write(mlp_to_bytes(params))


def load_mlp(path) -> MlpParams:
    with open(path, "rb") as f:
        return mlp_from_bytes(f.read())
