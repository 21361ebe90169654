"""Dense feed-forward network substrate.

Forward pass, exact reverse-mode gradients, Adam, a versioned flat
serialization format, and the BLAS thread policy of a training run. There
is no hidden RNG and no module state; the one process-wide setting touched
is the BLAS thread count, during a run.

Precision: a network computes in the dtype of its parameter vector,
float32 or float64. The learner factories build every network a run
trains in float32 (mlp_init(dims, rng, np.float32)): on one OpenBLAS
thread of a 2-core x86-64 host, a 256x64 @ 64x64 matmul takes 19.9 us in
float32 against 45.7 us in float64. mlp_init's default and every loaded
network are float64. Everything outside a network stays float64: a
forward casts an input batch of another dtype into the network's scratch
and returns a float64 output, and mlp_backward casts its float64 upstream
gradient the same way. The parameter gradient, the Adam moments and the
scratch have the network's dtype.

There is one architecture: ReLU on every layer but the last, which is
linear. Squashing (tanh actions, sigmoid probabilities) happens outside
the network. The file format keeps one activation code per layer from its
original table (0 relu, 1 tanh, 2 sigmoid, 3 identity): a network writes
0 for each hidden layer and 3 for the last, and mlp_from_bytes rejects any
other layout.

Inputs, outputs and gradients are [rows, dim] batches: a single row is a
1-row batch, and a 1-D input is rejected. Only the environment steps and
agents.student_act take one state; everything below them takes batches.

Each network's parameters live in one contiguous vector, MlpParams.flat,
laid out [W0, b0, W1, b1, ...] with every weight matrix row-major; the
per-layer weights and biases are views into it. Whole-network arithmetic
(Adam, Polyak averaging, gradient sums, serialization) is therefore one
vector expression on .flat, and the serialized payload is .flat's values
as float64, exact for a float32 network.

Adam updates a network in place: adam_step writes the new parameters into
.flat and the new moments into its AdamState's vectors, so a learner's
networks and optimizer states stay the same objects for the whole run.

Batch-sized scratch lives on the network: each MlpParams owns a
Workspace, into which its forward and backward passes write the casts
of their input and upstream gradient, the hidden layers' activations, the
ReLU masks, the backward deltas and the parameter gradient, adam_step its
two parameter-sized temporaries and polyak its one, so
steady-state updates allocate no batch-sized or parameter-sized arrays. A
forward cache holds activations only: each hidden layer's activation is
written over its pre-activation in one buffer, because ReLU's derivative
mask z > 0 is h > 0. A forward cache stays valid until the same network's
next forward, and a parameter gradient, a vector laid out like .flat,
until the same network's next backward. Network outputs are always fresh
arrays, never views of the scratch.

BLAS threads: every training run does its matmuls on one OpenBLAS thread
(one_blas_thread), whatever its widths. Its matmuls are batches of a few
hundred rows or single rows, and OpenBLAS's second thread spins between
them. Measured on a 2-core x86-64 host with OpenBLAS 0.3.31, airl with
128x128 nets used 1.24 CPU s per 1,000 env steps on one thread against
2.42 on two, at the same 808 env steps/s (bench/run.py, 10 pairs). Two
runs at once each kept 948-1,147 env steps/s on one thread and fell to
234-272 on two; with 256x256 nets, 341-412 against 60-89. Alone, a
256x256 run is 4-11 % slower on one thread, at 0.56 times the CPU time.
The count is set only for the duration of a run, never at import, and
nothing changes where no OpenBLAS is loaded.
"""

from __future__ import annotations

import ctypes
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"RILEMLP1"
_RELU_CODE, _LINEAR_CODE = 0, 3  # the file format's activation codes


class Workspace:
    """Grow-only scratch buffers of one dtype, the dtype of the network
    that owns them, keyed by name and handed out as [rows, cols] views of
    their leading rows * cols values.

    A buffer is reallocated only when a request outgrows it, so a network
    whose batches keep their sizes reuses the same memory on every update.
    """

    def __init__(self, dtype):
        self.dtype = dtype
        self._bufs = {}

    def take(self, key, rows: int, cols: int) -> np.ndarray:
        n = rows * cols
        buf = self._bufs.get(key)
        if buf is None or buf.size < n:
            buf = self._bufs[key] = np.empty(n, dtype=self.dtype)
        return buf[:n].reshape(rows, cols)


@dataclass
class MlpParams:
    """Layered dense network: weights[k] is [out, in], biases[k] is [out].

    The constructor copies the given arrays into one new vector, flat,
    laid out [W0, b0, W1, b1, ...]: float32 if the arrays concatenate to
    float32, float64 otherwise. It rebinds weights[k] and
    biases[k] to views into it: a write through a view shows in flat and
    the reverse. Consecutive layer dimensions must chain and all values
    must be finite. Every layer but the last is ReLU; the last is linear.
    ws is the network's own batch scratch; no two networks share one.
    """

    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False)
    ws: Workspace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate()
        flat = np.concatenate([np.ravel(a) for pair in zip(self.weights, self.biases)
                               for a in pair])
        self.flat = flat.astype(np.float32 if flat.dtype == np.float32 else np.float64,
                                copy=False)
        self.weights, self.biases = _views(self.flat, [w.shape for w in self.weights])
        self.ws = Workspace(self.flat.dtype)

    def _validate(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must have equal length")
        if not self.weights:
            raise ValueError("network needs at least one layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
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
        return MlpParams(self.weights, self.biases)


def _views(flat: np.ndarray, shapes):
    """Per-layer weight and bias views into flat for [out, in] weight shapes."""
    ws, bs, off = [], [], 0
    for dout, din in shapes:
        ws.append(flat[off:off + dout * din].reshape(dout, din))
        off += dout * din
        bs.append(flat[off:off + dout])
        off += dout
    return ws, bs


def mlp_init(dims, rng, dtype=np.float64) -> MlpParams:
    """New network with weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    dims is the full size chain [in, h1, ..., out]. The values are drawn in
    float64, whatever dtype is, and rounded to it once, so the dtype moves
    no draw of rng.
    """
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype, copy=False))
        bs.append(rng.uniform(-bound, bound, size=fan_out).astype(dtype, copy=False))
    return MlpParams(ws, bs)


def _as_batch(x, expected_dim, what="input"):
    """x as a float64 [rows, expected_dim] batch; ValueError for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} has shape {x.shape}, layer expects rows of "
                         f"dim {expected_dim}")
    return x


def _in_net_dtype(params: MlpParams, key, x: np.ndarray) -> np.ndarray:
    """x itself if it has the network's dtype, else x cast into the
    buffer key of params.ws."""
    if x.dtype == params.flat.dtype:
        return x
    cast = params.ws.take(key, *x.shape)
    np.copyto(cast, x)
    return cast


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Returns (output, activations h per layer).

    h[0] is the input in the network's dtype (x itself, or its cast into
    params.ws); h[k] the output of layer k. Each hidden layer's ReLU is
    computed in place over its pre-activation, in a view into params.ws;
    the last layer's linear output, and the float64 output returned, are
    fresh arrays.
    """
    hs = [_in_net_dtype(params, "x", x)]
    last = params.n_layers - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = params.ws.take(("h", k), x.shape[0], w.shape[0]) if k < last else None
        z = np.matmul(hs[-1], w.T, out=out)
        z += b
        hs.append(np.maximum(z, 0.0, out=z) if k < last else z)
    return hs[-1].astype(np.float64, copy=False), hs


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on a [rows, in_dim] batch."""
    return mlp_forward_cached(params, x)[0]


def mlp_forward_cached(params: MlpParams, x):
    """mlp_forward that also returns the cache mlp_backward needs.

    Returns (output, hs). The cache hs is the input and each layer's
    activation from this forward; it stays valid until the same network's
    next forward.
    """
    return _forward_cached(params, _as_batch(x, params.in_dim))


def mlp_backward(params: MlpParams, hs, upstream) -> np.ndarray:
    """Exact gradient of <output, upstream> w.r.t. the parameters, from the
    cache hs of the forward pass mlp_forward_cached made.

    Each hidden layer's ReLU mask is read from its cached activation
    (h > 0; subgradient 0 at h = 0) into a buffer of the network's dtype,
    which the product reads without a cast.
    The gradient is summed over the batch rows and returned as one vector
    laid out like params.flat, in the network's dtype: a row of params.ws,
    valid until the same network's next backward. The upstream gradient is
    cast to the network's dtype, and the backward deltas are written into
    params.ws too, under names of their own, beside the cache.
    """
    ub = _as_batch(upstream, params.out_dim, what="upstream gradient")
    rows = hs[0].shape[0]
    if rows != ub.shape[0]:
        raise ValueError("input and upstream gradient batch sizes differ")
    ws = params.ws

    grad = ws.take("grad", 1, params.flat.size)[0]
    grad_w, grad_b = _views(grad, [w.shape for w in params.weights])
    last = params.n_layers - 1
    g = _in_net_dtype(params, ("d", last), ub)  # gradient w.r.t. the output of layer k
    for k in range(last, -1, -1):
        # g may be layer k's delta buffer itself
        delta = g if k == last else np.multiply(
            g, np.greater(hs[k + 1], 0.0, out=ws.take("mask", *g.shape)),
            out=ws.take(("d", k), *g.shape))
        np.matmul(delta.T, hs[k], out=grad_w[k])
        np.sum(delta, axis=0, out=grad_b[k])
        if k:  # no gradient w.r.t. the input
            # np.dot, not matmul: a one-output net's last [rows, 1] @ [1, h]
            # is a rank-1 product, which matmul runs in its non-BLAS loop and
            # np.dot on BLAS, with equal bits (one product per element)
            g = np.dot(delta, params.weights[k], out=ws.take(("d", k - 1), *hs[k].shape))
    return grad


# Adam's moment decay rates and denominator offset, the same for every net.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam moments: m and v are vectors laid out like the
    flat vector of the network they belong to."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def adam_init(params: MlpParams, lr: float) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0, lr)


def adam_step(params: MlpParams, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update from the gradient vector grad, laid
    out like params.flat (what mlp_backward returns), written in place into
    params.flat, state.m, state.v and state.step. Its two temporaries are
    the rows of one buffer in params.ws, so a step allocates no
    parameter-sized array.

    A gradient of the wrong size or with a non-finite value is rejected
    before anything is written."""
    if params.flat.shape != grad.shape:
        raise ValueError(f"gradient has {grad.size} values, "
                         f"parameters have {params.flat.size}")
    tmp, delta = params.ws.take("adam", 2, grad.size)
    # the finiteness mask goes into the scratch too, as bytes of tmp
    if not np.isfinite(grad, out=tmp.view(bool)[:grad.size]).all():
        raise ValueError("non-finite gradient passed to adam_step")
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    # m = m*b1 + grad*(1-b1); v = v*b2 + (grad*(1-b2))*grad;
    # flat -= ((m/c1)*lr) / (sqrt(v/c2) + eps)
    np.multiply(grad, 1.0 - b1, out=tmp)
    state.m *= b1
    state.m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    state.v *= b2
    state.v += tmp
    np.divide(state.v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(state.m, c1, out=delta)
    delta *= state.lr
    delta /= tmp
    params.flat -= delta
    state.step = t


def polyak(target: MlpParams, source: MlpParams, tau: float) -> None:
    """target <- (1 - tau) target + tau source, in place, with tau * source
    written into a row of target.ws: a call allocates no parameter vector."""
    scaled = target.ws.take("polyak", 1, source.flat.size)[0]
    target.flat *= 1 - tau
    target.flat += np.multiply(source.flat, tau, out=scaled)


def _layer_code(k: int, n_layers: int) -> int:
    return _LINEAR_CODE if k == n_layers - 1 else _RELU_CODE


def mlp_to_bytes(params: MlpParams) -> bytes:
    """Versioned flat layout: magic, layer count, per-layer dims and
    activation codes, then the parameter vector flat as float64 (exact
    for a float32 network, which loads back as float64)."""
    out = [_MAGIC, struct.pack("<I", params.n_layers)]
    for k, w in enumerate(params.weights):
        out.append(struct.pack("<IIB", w.shape[1], w.shape[0],
                               _layer_code(k, params.n_layers)))
    out.append(params.flat.astype(np.float64, copy=False).tobytes())
    return b"".join(out)


def _header_field(fmt: str, data: bytes, off: int):
    """(values, end offset) of the struct fmt at data[off:]; ValueError if
    data ends first."""
    end = off + struct.calcsize(fmt)
    if len(data) < end:
        raise ValueError(f"network header truncated: {len(data)} bytes, "
                         f"its next field ends at byte {end}")
    return struct.unpack_from(fmt, data, off), end


def mlp_from_bytes(data: bytes) -> MlpParams:
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("bad magic string: not a serialized network")
    (n_layers,), off = _header_field("<I", data, len(_MAGIC))
    shapes = []
    for k in range(n_layers):
        (din, dout, code), off = _header_field("<IIB", data, off)
        if code != _layer_code(k, n_layers):
            raise ValueError(f"layer {k} has activation code {code}; a network is "
                             f"relu (0) on its hidden layers and identity (3) on its last")
        shapes.append((dout, din))
    n = sum(dout * (din + 1) for dout, din in shapes)
    if len(data) - off != 8 * n:
        raise ValueError(f"network payload has {len(data) - off} bytes, "
                         f"its layer dims need {8 * n}")
    flat = np.frombuffer(data, dtype=np.float64, count=n, offset=off)
    return MlpParams(*_views(flat, shapes))


def save_mlp(params: MlpParams, path) -> None:
    with open(path, "wb") as f:
        f.write(mlp_to_bytes(params))


def load_mlp(path) -> MlpParams:
    with open(path, "rb") as f:
        return mlp_from_bytes(f.read())


def _openblas_thread_calls() -> list:
    """(get, set) thread-count functions of every OpenBLAS library mapped
    into this process, found by path in /proc/self/maps; empty where there
    is none (another BLAS) or no such file (another OS)."""
    try:
        with open("/proc/self/maps") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    calls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
    return calls


@contextmanager
def one_blas_thread():
    """Runs the body on one OpenBLAS thread and restores every library's
    previous count on exit, however the body ends. In a process without
    OpenBLAS the body runs with nothing changed. The count is process-wide,
    so it holds for other threads of the process as well."""
    calls = _openblas_thread_calls()
    before = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(calls, before):
            set_(n)
