"""Reference checks that only the tests use: the flat-vector round trip, a
central-difference gradient checker, the closed-form optimal discriminator
and the two network cases the gradient tests run on."""

from __future__ import annotations

import numpy as np
import pytest

from rile.nets import MlpParams, _on_flat


def params_to_flat(params: MlpParams) -> np.ndarray:
    """A copy of the parameter vector, laid out [W0, b0, W1, b1, ...]."""
    return params.flat.copy()


def flat_to_params(flat: np.ndarray, like: MlpParams) -> MlpParams:
    """Network with like's layout over a copy of flat."""
    flat = np.array(flat, dtype=np.float64)
    if flat.shape != like.flat.shape:
        raise ValueError(f"flat vector has shape {flat.shape}, "
                         f"network needs ({like.flat.size},)")
    return _on_flat(flat, like)


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


def optimal_disc_oracle(p_expert, p_student) -> np.ndarray:
    """Closed-form optimum p_E / (p_E + p_S) over a shared finite support.

    Entries where both probabilities are zero are undefined and returned
    as NaN.
    """
    pe = np.asarray(p_expert, dtype=np.float64)
    ps = np.asarray(p_student, dtype=np.float64)
    if pe.shape != ps.shape:
        raise ValueError("probability tables must share a support")
    if (pe < 0).any() or (ps < 0).any():
        raise ValueError("probabilities must be non-negative")
    for name, p in (("expert", pe), ("student", ps)):
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} table must sum to 1")
    tot = pe + ps
    out = np.full(pe.shape, np.nan)
    mask = tot > 0
    out[mask] = pe[mask] / tot[mask]
    return out


def nets(relu_hidden):
    """Parametrizes hidden over two networks: "relu" has relu_hidden ReLU
    hidden layers; "identity" has none, so its one layer is linear."""
    return pytest.mark.parametrize("hidden", [relu_hidden, ()], ids=["relu", "identity"])
