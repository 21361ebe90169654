"""Dense feed-forward network substrate.

Forward pass, exact reverse-mode gradients, Adam, a versioned flat
serialization format, and the BLAS thread policy of a training run.
Everything is float64, with no hidden RNG and no module state; the one
process-wide setting touched is the BLAS thread count, during a run.

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
vector expression on .flat, and the serialized payload is .flat's bytes.

Adam updates a network in place: adam_step writes the new parameters into
.flat and the new moments into its AdamState's vectors, so a learner's
networks and optimizer states stay the same objects for the whole run.

Batch-sized scratch lives on the network: each MlpParams owns a
Workspace, into which its forward and backward passes write the hidden
layers' activations and the backward deltas, so steady-state updates
allocate no batch-sized arrays. A forward cache holds activations only:
each hidden layer's activation is written over its pre-activation in one
buffer, because ReLU's derivative mask z > 0 is h > 0. A forward cache
stays valid until the same network's next forward. Network outputs, input
gradients and parameter gradients are always fresh arrays, never views of
the scratch.

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
    """Grow-only float64 scratch buffers, keyed by name and handed out as
    [rows, cols] views of their leading rows * cols values.

    A buffer is reallocated only when a request outgrows it, so a network
    whose batches keep their sizes reuses the same memory on every update.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, key, rows: int, cols: int) -> np.ndarray:
        n = rows * cols
        buf = self._bufs.get(key)
        if buf is None or buf.size < n:
            buf = self._bufs[key] = np.empty(n)
        return buf[:n].reshape(rows, cols)


@dataclass
class MlpParams:
    """Layered dense network: weights[k] is [out, in], biases[k] is [out].

    The constructor copies the given arrays into one new float64 vector,
    flat, laid out [W0, b0, W1, b1, ...], and rebinds weights[k] and
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
        self.flat = np.concatenate([np.ravel(a) for pair in zip(self.weights, self.biases)
                                    for a in pair]).astype(np.float64, copy=False)
        self.weights, self.biases = _views(self.flat, [w.shape for w in self.weights])
        self.ws = Workspace()

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
        return _on_flat(self.flat.copy(), self)


def _views(flat: np.ndarray, shapes):
    """Per-layer weight and bias views into flat for [out, in] weight shapes."""
    ws, bs, off = [], [], 0
    for dout, din in shapes:
        ws.append(flat[off:off + dout * din].reshape(dout, din))
        off += dout * din
        bs.append(flat[off:off + dout])
        off += dout
    return ws, bs


def _on_flat(flat: np.ndarray, like: MlpParams) -> MlpParams:
    """Network with like's layout whose parameters are flat itself (no copy)."""
    params = object.__new__(MlpParams)
    params.flat = flat
    params.weights, params.biases = _views(flat, [w.shape for w in like.weights])
    params.ws = Workspace()
    return params


def mlp_init(dims, rng) -> MlpParams:
    """New network with weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    dims is the full size chain [in, h1, ..., out].
    """
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(ws, bs)


def zeros_like_params(params: MlpParams) -> MlpParams:
    return _on_flat(np.zeros_like(params.flat), params)


def _as_batch(x, expected_dim, what="input"):
    """x as a float64 [rows, expected_dim] batch; ValueError for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} has shape {x.shape}, layer expects rows of "
                         f"dim {expected_dim}")
    return x


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Returns (output, activations h per layer).

    h[0] is the input; h[k] the output of layer k. Each hidden layer's ReLU
    is computed in place over its pre-activation, in a view into params.ws;
    the last layer's linear output is a fresh array.
    """
    hs = [x]
    last = params.n_layers - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = params.ws.take(("h", k), x.shape[0], w.shape[0]) if k < last else None
        z = np.matmul(hs[-1], w.T, out=out)
        z += b
        hs.append(np.maximum(z, 0.0, out=z) if k < last else z)
    return hs[-1], hs


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


def mlp_backward(params: MlpParams, hs, upstream):
    """Exact gradients of <output, upstream> w.r.t. parameters and input,
    from the cache hs of the forward pass mlp_forward_cached made.

    Each hidden layer's ReLU mask is read from its cached activation
    (h > 0; subgradient 0 at h = 0). The parameter gradients are summed
    over the batch rows. The backward deltas are written into params.ws,
    under names of their own, beside the cache. Returns (param_grads:
    MlpParams-shaped, input_grad), both fresh.
    """
    ub = _as_batch(upstream, params.out_dim, what="upstream gradient")
    rows = hs[0].shape[0]
    if rows != ub.shape[0]:
        raise ValueError("input and upstream gradient batch sizes differ")
    ws = params.ws

    grads = _on_flat(np.empty_like(params.flat), params)
    g = ub  # gradient w.r.t. the output of layer k
    last = params.n_layers - 1
    for k in range(last, -1, -1):
        # g may be layer k's delta buffer itself
        delta = g if k == last else np.multiply(g, hs[k + 1] > 0.0,
                                                out=ws.take(("d", k), *g.shape))
        np.matmul(delta.T, hs[k], out=grads.weights[k])
        np.sum(delta, axis=0, out=grads.biases[k])
        w = params.weights[k]
        g = np.matmul(delta, w, out=ws.take(("d", k - 1), rows, w.shape[1]) if k else None)
    return grads, g


# Adam's moment decay rates and denominator offset, the same for every net.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam moments: m and v are vectors laid out like the
    flat vector of the network they belong to."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4


def adam_init(params: MlpParams, lr: float) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0, lr)


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState) -> None:
    """One bias-corrected Adam update, written in place into params.flat,
    state.m, state.v and state.step.

    A gradient of the wrong size or with a non-finite value is rejected
    before anything is written."""
    g = grads.flat
    if params.flat.shape != g.shape:
        raise ValueError(f"gradient has {g.size} values, "
                         f"parameters have {params.flat.size}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to adam_step")
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    # m = m*b1 + g*(1-b1); v = v*b2 + (g*(1-b2))*g;
    # flat -= ((m/c1)*lr) / (sqrt(v/c2) + eps), with two scratch vectors
    tmp = np.multiply(g, 1.0 - b1)
    state.m *= b1
    state.m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    state.v *= b2
    state.v += tmp
    np.divide(state.v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    delta = np.divide(state.m, c1)
    delta *= state.lr
    delta /= tmp
    params.flat -= delta
    state.step = t


def _layer_code(k: int, n_layers: int) -> int:
    return _LINEAR_CODE if k == n_layers - 1 else _RELU_CODE


def mlp_to_bytes(params: MlpParams) -> bytes:
    """Versioned flat layout: magic, layer count, per-layer dims and
    activation codes, then the float64 parameter vector flat."""
    out = [_MAGIC, struct.pack("<I", params.n_layers)]
    for k, w in enumerate(params.weights):
        out.append(struct.pack("<IIB", w.shape[1], w.shape[0],
                               _layer_code(k, params.n_layers)))
    out.append(params.flat.tobytes())
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
