"""SDE problem definitions: coefficients, derivatives, and built-in test systems.

A problem bundles the drift ``mu``, the diffusion ``rho`` and the
diffusion-gradient contraction used by Milstein-type correction terms,
together with the regularity metadata (superlinearity exponent ``xi``,
temporal Hoelder exponent ``beta``) that downstream rate predictions use.

Coefficient callables follow numpy broadcasting conventions: the state
``x`` may be a single vector of shape ``(d,)`` or a batch ``(N, d)``, and
the time ``t`` may be a scalar or an array broadcastable against the
leading batch axes.  The vectorised path engine in
:mod:`sde_rtm.schemes` relies on this, so the built-in problems are all
written batch-friendly.  Problems are immutable after construction and
coefficient evaluation is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NoiseStructure",
    "TamingSplit",
    "SdeProblem",
    "InvalidParameterError",
    "DomainError",
    "EvaluationError",
    "eval_drift",
    "eval_diffusion",
    "eval_milstein_tensor",
    "finite_difference_milstein_tensor",
    "make_builtin",
    "BUILTIN_FACTORIES",
]


class InvalidParameterError(ValueError):
    """A problem or builtin was constructed with out-of-range parameters."""


class DomainError(ValueError):
    """A coefficient was evaluated outside its domain (t not in [0, T], bad x)."""


class EvaluationError(ArithmeticError):
    """A coefficient returned a non-finite or mis-shaped value."""


class NoiseStructure(Enum):
    """Declared structure of the diffusion matrix.

    SCALAR means m == 1.  DIAGONAL means the Milstein contraction vanishes
    off the diagonal.  COMMUTATIVE allows the symmetrised per-step iterated
    integrals.  GENERAL would require Levy-area simulation and is rejected
    by Milstein-type integrators.
    """

    SCALAR = "scalar"
    DIAGONAL = "diagonal"
    COMMUTATIVE = "commutative"
    GENERAL = "general"


@dataclass(frozen=True)
class TamingSplit:
    """Optional decomposition ``drift = superlinear + remainder``.

    Tamed integrators divide only the ``superlinear`` summand by the taming
    denominator, leaving ``remainder`` untouched, and compute the
    denominator norm from the state components in ``norm_indices`` instead
    of the full Euclidean norm.  This is how the FitzHugh-Nagumo builtin
    reproduces the usual per-component taming of its cubic term; the
    generic default (no split) tames the whole drift vector.
    """

    superlinear: Callable
    remainder: Callable
    norm_indices: tuple

    def norm(self, x: np.ndarray) -> np.ndarray:
        sel = np.asarray(x, dtype=float)[..., list(self.norm_indices)]
        return np.sqrt((sel * sel).sum(axis=-1))


@dataclass(frozen=True)
class SdeProblem:
    """An SDE ``dx = mu(t, x) dt + rho(t, x) dw`` on [0, horizon].

    Parameters
    ----------
    d, m : int
        State dimension and Brownian dimension.
    horizon : float
        Final time T > 0.
    initial_state : array of shape (d,)
        Deterministic initial value.
    drift, diffusion, milstein_tensor : callables
        ``drift(t, x) -> (..., d)``, ``diffusion(t, x) -> (..., d, m)`` and
        ``milstein_tensor(t, x) -> (..., d, m, m)`` with
        ``tensor[i, k, l] = sum_r d(rho[i, k])/d(x_r) * rho[r, l]``.
    noise_structure : NoiseStructure
    xi : float
        Superlinearity exponent of the drift (>= 0).
    beta : float
        Temporal Hoelder exponent of the drift, in (0, 1].  Metadata only;
        the predicted strong rate is min(beta + 1/2, 1).
    exact_terminal : callable, optional
        ``exact_terminal(w_T) -> (..., d)`` closed-form terminal value from
        the terminal Brownian value, when available.
    taming_split : TamingSplit, optional
        Per-summand taming mask; see :class:`TamingSplit`.
    """

    d: int
    m: int
    horizon: float
    initial_state: np.ndarray
    drift: Callable
    diffusion: Callable
    milstein_tensor: Callable
    noise_structure: NoiseStructure
    xi: float
    beta: float
    exact_terminal: Optional[Callable] = None
    taming_split: Optional[TamingSplit] = None
    name: str = "custom"

    def __post_init__(self):
        if int(self.d) < 1 or int(self.m) < 1:
            raise InvalidParameterError("d and m must be positive integers")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise InvalidParameterError("horizon must be a positive finite real")
        if self.xi < 0:
            raise InvalidParameterError("xi must be nonnegative")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameterError("beta must lie in (0, 1]")
        if self.noise_structure is NoiseStructure.SCALAR and self.m != 1:
            raise InvalidParameterError("scalar noise requires m == 1")
        x0 = np.array(self.initial_state, dtype=float).reshape(-1)
        if x0.shape != (self.d,):
            raise InvalidParameterError(
                f"initial_state must have shape ({self.d},), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise InvalidParameterError("initial_state must be finite")
        x0.setflags(write=False)
        object.__setattr__(self, "initial_state", x0)
        if self.taming_split is not None:
            idx = self.taming_split.norm_indices
            if not idx or any(not 0 <= i < self.d for i in idx):
                raise InvalidParameterError("taming_split.norm_indices out of range")


def _check_time(problem: SdeProblem, t) -> float:
    t = float(t)
    if not 0.0 <= t <= problem.horizon:
        raise DomainError(f"t={t} outside [0, {problem.horizon}]")
    return t


def _check_state(problem: SdeProblem, x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if xa.shape != (problem.d,):
        raise DomainError(f"state must have shape ({problem.d},), got {xa.shape}")
    if not np.all(np.isfinite(xa)):
        raise DomainError("state must be finite")
    return xa


def _checked_eval(problem, fn, t, x, shape, what):
    out = np.asarray(fn(t, x), dtype=float)
    if out.shape != shape:
        raise EvaluationError(f"{what} returned shape {out.shape}, expected {shape}")
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"{what} returned a non-finite value at t={t}, x={x}")
    return out


def eval_drift(problem: SdeProblem, t, x) -> np.ndarray:
    """Evaluate mu(t, x) with domain and finiteness checks."""
    t = _check_time(problem, t)
    xa = _check_state(problem, x)
    return _checked_eval(problem, problem.drift, t, xa, (problem.d,), "drift")


def eval_diffusion(problem: SdeProblem, t, x) -> np.ndarray:
    """Evaluate rho(t, x) with domain and finiteness checks."""
    t = _check_time(problem, t)
    xa = _check_state(problem, x)
    return _checked_eval(
        problem, problem.diffusion, t, xa, (problem.d, problem.m), "diffusion"
    )


def eval_milstein_tensor(problem: SdeProblem, t, x) -> np.ndarray:
    """Evaluate the correction tensor Lambda(t, x).

    ``Lambda[i, k, l] = sum_r d(rho[i, k])/d(x_r) * rho[r, l]``, the
    integrand contracted against per-step iterated integrals by
    Milstein-type integrators.
    """
    t = _check_time(problem, t)
    xa = _check_state(problem, x)
    return _checked_eval(
        problem,
        problem.milstein_tensor,
        t,
        xa,
        (problem.d, problem.m, problem.m),
        "milstein_tensor",
    )


def finite_difference_milstein_tensor(
    problem: SdeProblem, t, x, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference reconstruction of the correction tensor.

    Independent cross-check for analytically supplied tensors: rebuilds
    ``sum_r d(rho[i, k])/d(x_r) * rho[r, l]`` from ``diffusion`` alone.
    """
    t = _check_time(problem, t)
    xa = _check_state(problem, x)
    rho = _checked_eval(
        problem, problem.diffusion, t, xa, (problem.d, problem.m), "diffusion"
    )
    lam = np.zeros((problem.d, problem.m, problem.m))
    for r in range(problem.d):
        h = rel_step * max(1.0, abs(xa[r]))
        e = np.zeros(problem.d)
        e[r] = h
        drho = (problem.diffusion(t, xa + e) - problem.diffusion(t, xa - e)) / (2 * h)
        lam += drho[:, :, None] * rho[r][None, None, :]
    return lam


# --- built-in problems -------------------------------------------------------


def _fhn_family(name, amp, exponent, v0, r0, sigma, alpha, gamma, lam,
                horizon, xi, beta):
    """FitzHugh-Nagumo-type system with external input amp*(1 - t**exponent).

    dV = (V - V^3/3 - R + I_ext(t)) dt + sigma*V dw,  dR = alpha*(V + gamma
    - lam*R) dt.  Only the cubic summand of the V-drift is tamed, with the
    denominator norm taken from |V| alone (see the taming_split).
    """
    if horizon <= 0:
        raise InvalidParameterError("horizon must be positive")
    if sigma < 0:
        raise InvalidParameterError("sigma must be nonnegative")
    if not 0.0 < exponent <= 1.0:
        raise InvalidParameterError("input exponent must lie in (0, 1]")

    def external_input(t):
        return amp * (1.0 - np.asarray(t, dtype=float) ** exponent)

    def cubic_part(t, x):
        xa = np.asarray(x, dtype=float)
        v = xa[..., 0]
        out = np.zeros_like(xa)
        out[..., 0] = v - v ** 3 / 3.0
        return out

    def linear_part(t, x):
        xa = np.asarray(x, dtype=float)
        v = xa[..., 0]
        r = xa[..., 1]
        out = np.empty_like(xa)
        out[..., 0] = external_input(t) - r
        out[..., 1] = alpha * (v + gamma - lam * r)
        return out

    def drift(t, x):
        return cubic_part(t, x) + linear_part(t, x)

    def diffusion(t, x):
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape + (1,))
        out[..., 0, 0] = sigma * xa[..., 0]
        return out

    def milstein_tensor(t, x):
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape + (1, 1))
        out[..., 0, 0, 0] = sigma * sigma * xa[..., 0]
        return out

    return SdeProblem(
        d=2,
        m=1,
        horizon=horizon,
        initial_state=np.array([v0, r0]),
        drift=drift,
        diffusion=diffusion,
        milstein_tensor=milstein_tensor,
        noise_structure=NoiseStructure.SCALAR,
        xi=xi,
        beta=beta,
        taming_split=TamingSplit(cubic_part, linear_part, (0,)),
        name=name,
    )


def _make_fitzhugh_nagumo(i_amp=25.0, v0=2.0, r0=-1.0, sigma=0.001, alpha=0.8,
                          gamma=0.7, lam=0.8, horizon=1.0, xi=2.0):
    """Stochastic FitzHugh-Nagumo neuron with I_ext(t) = i_amp*(1 - sqrt(t))."""
    return _fhn_family("fhn", i_amp, 0.5, v0, r0, sigma, alpha, gamma, lam,
                       horizon, xi, beta=0.5)


def _make_rough_drift(beta, c=25.0, v0=2.0, r0=-1.0, sigma=0.001, alpha=0.8,
                      gamma=0.7, lam=0.8, horizon=1.0, xi=2.0):
    """FitzHugh-Nagumo variant with input c*(1 - t**beta) of lower time regularity."""
    if not 0.0 < beta <= 1.0:
        raise InvalidParameterError("beta must lie in (0, 1]")
    return _fhn_family("rough_drift", c, beta, v0, r0, sigma, alpha, gamma,
                       lam, horizon, xi, beta=beta)


def _make_geometric_brownian(a=0.5, sigma=0.5, x0=1.0, horizon=1.0):
    """Geometric Brownian motion dx = a*x dt + sigma*x dw with exact terminal."""
    if horizon <= 0:
        raise InvalidParameterError("horizon must be positive")
    if sigma < 0:
        raise InvalidParameterError("sigma must be nonnegative")

    def drift(t, x):
        return a * np.asarray(x, dtype=float)

    def diffusion(t, x):
        xa = np.asarray(x, dtype=float)
        return sigma * xa[..., None]

    def milstein_tensor(t, x):
        xa = np.asarray(x, dtype=float)
        return (sigma * sigma * xa)[..., None, None]

    def exact_terminal(w_terminal):
        wa = np.asarray(w_terminal, dtype=float)
        val = x0 * np.exp((a - 0.5 * sigma * sigma) * horizon + sigma * wa[..., 0])
        return val[..., None]

    return SdeProblem(
        d=1,
        m=1,
        horizon=horizon,
        initial_state=np.array([x0]),
        drift=drift,
        diffusion=diffusion,
        milstein_tensor=milstein_tensor,
        noise_structure=NoiseStructure.SCALAR,
        xi=0.0,
        beta=1.0,
        exact_terminal=exact_terminal,
        name="gbm",
    )


BUILTIN_FACTORIES = {
    "fhn": _make_fitzhugh_nagumo,
    "fitzhugh_nagumo": _make_fitzhugh_nagumo,
    "gbm": _make_geometric_brownian,
    "geometric_brownian": _make_geometric_brownian,
    "rough_drift": _make_rough_drift,
}


def make_builtin(kind: str, **params) -> SdeProblem:
    """Construct a built-in problem by id.

    Known ids: ``fhn`` (alias ``fitzhugh_nagumo``), ``gbm`` (alias
    ``geometric_brownian``) and ``rough_drift``.  Parameter records are
    keyword arguments; unknown parameters and out-of-range values raise
    :class:`InvalidParameterError`.
    """
    try:
        factory = BUILTIN_FACTORIES[str(kind).lower()]
    except KeyError:
        raise InvalidParameterError(f"unknown builtin problem id: {kind!r}") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise InvalidParameterError(str(exc)) from None
