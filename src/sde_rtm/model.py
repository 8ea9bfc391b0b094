"""SDE problem definitions: coefficients, derivatives, and built-in test systems.

A problem bundles the drift ``mu``, the diffusion ``rho`` and the
diffusion-gradient contraction used by Milstein-type correction terms,
together with the regularity metadata (superlinearity exponent ``xi``,
temporal Hoelder exponent ``beta``) that downstream rate predictions use.

Coefficients are written component by component: the state ``x`` is a
sequence of d arrays of one shape (the step kernel passes d ``(B,)``
arrays), and each coefficient returns nested entries, each an array or a
Python float.  The float ``0.0`` is a structural zero, which the kernel
skips.  ``_stacked`` gives the stacked ``(..., d)`` view of this form.
Problems are immutable after construction and coefficient evaluation is
safe to call concurrently.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NoiseStructure",
    "TamingSplit",
    "SdeProblem",
    "InvalidParameterError",
    "make_builtin",
    "BUILTIN_FACTORIES",
]


class InvalidParameterError(ValueError):
    """A problem, builtin or experiment was given an out-of-range parameter."""


# --- value rules: what every module's input checks are written with ----------


def _is_int(value) -> bool:
    # bool is an int subclass, but never a count, level or seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # finite, which also rules out an int too large for any float
    return ((_is_int(value) or isinstance(value, (float, np.floating)))
            and abs(value) <= sys.float_info.max)


def _check_int(name: str, value, low: int, high: int) -> int:
    if not (_is_int(value) and low <= value <= high):
        raise InvalidParameterError(f"{name} must be an integer in [{low}, {high}]")
    return int(value)


def _check_ints(name: str, values, low: int, high: int) -> list:
    values = list(values) if np.iterable(values) else []
    if not values or not all(_is_int(v) and low <= v <= high for v in values):
        raise InvalidParameterError(
            f"{name} must be a nonempty list of integers in [{low}, {high}]")
    return [int(v) for v in values]


def _check_real(name: str, value, low: float) -> None:
    if not (_is_real(value) and value >= low):
        raise InvalidParameterError(f"{name} must be a finite real number >= {low}")


def _check_positive(name: str, value) -> None:
    if not (_is_real(value) and value > 0):
        raise InvalidParameterError(f"{name} must be a positive finite real number")


def _check_type(name: str, value, cls) -> None:
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{name} must be a {cls.__name__}, got {value!r}")


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

    Both summands return d drift entries.  Tamed integrators divide only the
    ``superlinear`` summand by the taming denominator, leaving ``remainder``
    untouched, and compute the denominator norm from the state components
    that ``norm_indices`` picks instead of the full Euclidean norm.  This is
    how the FitzHugh-Nagumo builtin reproduces the usual per-component
    taming of its cubic term; the generic default (no split) tames the
    whole drift vector.
    """

    superlinear: Callable
    remainder: Callable
    norm_indices: tuple


@dataclass(frozen=True)
class SdeProblem:
    """An SDE ``dx = mu(t, x) dt + rho(t, x) dw`` on [0, horizon].

    Parameters
    ----------
    d, m : int
        State dimension and Brownian dimension, integers >= 1.
    horizon : float
        Final time T > 0, finite.
    initial_state : array of shape (d,)
        Deterministic initial value.
    drift, diffusion, milstein_tensor : callables
        ``drift(t, x)`` returns d entries, ``diffusion(t, x)`` d rows of m
        entries and ``milstein_tensor(t, x)`` d x m x m entries with
        ``tensor[i][k][l] = sum_r d(rho[i][k])/d(x_r) * rho[r][l]``.
    noise_structure : NoiseStructure
    xi : float
        Superlinearity exponent of the drift, a finite real >= 0.
    beta : float
        Temporal Hoelder exponent of the drift, in (0, 1].  Metadata only;
        the predicted strong rate is min(beta + 1/2, 1).
    exact_terminal : callable, optional
        ``exact_terminal(w)``, the d entries of the closed-form terminal
        value from the m components of the terminal Brownian value.
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

    def __post_init__(self):
        if not (_is_int(self.d) and _is_int(self.m) and self.d >= 1 and self.m >= 1):
            raise InvalidParameterError("d and m must be positive integers")
        _check_positive("horizon", self.horizon)
        _check_real("xi", self.xi, 0)
        if not (_is_real(self.beta) and 0.0 < self.beta <= 1.0):
            raise InvalidParameterError("beta must lie in (0, 1]")
        _check_type("noise_structure", self.noise_structure, NoiseStructure)
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
            _check_type("taming_split", self.taming_split, TamingSplit)
            _check_ints("taming_split.norm_indices", self.taming_split.norm_indices,
                        0, self.d - 1)


def _stacked(coefficient, *args):
    """``coefficient(*args)`` with its last argument, an ``(..., k)`` array,
    passed as its k components and its nested entries stacked the same way,
    to ``(..., d)``, ``(..., d, m)`` or ``(..., d, m, m)``."""
    *head, x = args
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]

    def stack(entries):
        if isinstance(entries, (tuple, list)):
            return np.stack([stack(entry) for entry in entries], axis=len(batch))
        return np.broadcast_to(np.asarray(entries, dtype=float), batch)

    return stack(coefficient(*head, tuple(x[..., i] for i in range(x.shape[-1]))))


# --- built-in problems -------------------------------------------------------


def _fhn_family(external_input, sigma, beta):
    """FitzHugh-Nagumo-type system on [0, 1] driven by ``external_input(t)``.

    dV = (V - V^3/3 - R + I_ext(t)) dt + sigma*V dw,  dR = alpha*(V + gamma
    - lam*R) dt from (V, R) = (2, -1), with alpha = 0.8, gamma = 0.7,
    lam = 0.8 and xi = 2.  Only the cubic summand of the V-drift is tamed,
    with the denominator norm taken from |V| alone (see the taming_split).
    ``beta`` is the input's temporal Hoelder exponent.
    """
    if not sigma >= 0:
        raise InvalidParameterError("sigma must be nonnegative")

    def cubic_part(t, x):
        v = x[0]
        return v - v ** 3 / 3.0, 0.0

    def linear_part(t, x):
        v, r = x
        return external_input(t) - r, 0.8 * (v + 0.7 - 0.8 * r)

    def drift(t, x):
        (cubic, _), (linear, recovery) = cubic_part(t, x), linear_part(t, x)
        return cubic + linear, recovery

    return SdeProblem(
        d=2,
        m=1,
        horizon=1.0,
        initial_state=np.array([2.0, -1.0]),
        drift=drift,
        diffusion=lambda t, x: ((sigma * x[0],), (0.0,)),
        milstein_tensor=lambda t, x: (((sigma * sigma * x[0],),), ((0.0,),)),
        noise_structure=NoiseStructure.SCALAR,
        xi=2.0,
        beta=beta,
        taming_split=TamingSplit(cubic_part, linear_part, (0,)),
    )


def _make_fitzhugh_nagumo(i_amp=25.0, sigma=0.001):
    """Stochastic FitzHugh-Nagumo neuron with I_ext(t) = i_amp*(1 - sqrt(t)),
    which is ``rough_drift`` at beta = 1/2."""
    return _make_rough_drift(0.5, i_amp, sigma)


def _make_rough_drift(beta, c=25.0, sigma=0.001):
    """FitzHugh-Nagumo variant with input c*(1 - t**beta) of lower time regularity."""
    return _fhn_family(
        lambda t: c * (1.0 - np.asarray(t, dtype=float) ** beta), sigma,
        beta=beta)


def _make_geometric_brownian(a=0.5, sigma=0.5, x0=1.0):
    """Geometric Brownian motion dx = a*x dt + sigma*x dw on [0, 1], with
    exact terminal."""
    if not sigma >= 0:
        raise InvalidParameterError("sigma must be nonnegative")

    def exact_terminal(w):
        return (x0 * np.exp((a - 0.5 * sigma * sigma) + sigma * w[0]),)

    return SdeProblem(
        d=1,
        m=1,
        horizon=1.0,
        initial_state=np.array([x0]),
        drift=lambda t, x: (a * x[0],),
        diffusion=lambda t, x: ((sigma * x[0],),),
        milstein_tensor=lambda t, x: (((sigma * sigma * x[0],),),),
        noise_structure=NoiseStructure.SCALAR,
        xi=0.0,
        beta=1.0,
        exact_terminal=exact_terminal,
    )


def _make_double_well():
    """dx = (x - x^3) dt + dw with x_0 = 2: the classical setting in which
    untamed explicit Euler loses moment control while tamed variants stay
    bounded (the problem behind the blow-up demonstration)."""
    return SdeProblem(
        d=1,
        m=1,
        horizon=1.0,
        initial_state=np.array([2.0]),
        drift=lambda t, x: (x[0] - x[0] ** 3,),
        diffusion=lambda t, x: ((1.0,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR,
        xi=2.0,
        beta=1.0,
    )


BUILTIN_FACTORIES = {
    "fhn": _make_fitzhugh_nagumo,
    "gbm": _make_geometric_brownian,
    "rough_drift": _make_rough_drift,
    "double_well": _make_double_well,
}


def make_builtin(kind: str, /, **params) -> SdeProblem:
    """Construct a built-in problem by id.

    The ids are exactly ``fhn``, ``gbm``, ``rough_drift`` and
    ``double_well`` (no parameters), spelled as here.  Parameter records are
    keyword arguments whose values are finite real numbers; unknown ids,
    unknown or missing parameters and out-of-range values raise
    :class:`InvalidParameterError`, whose message names the problem id.
    """
    factory = BUILTIN_FACTORIES.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise InvalidParameterError(f"unknown builtin problem id: {kind!r}")
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise InvalidParameterError(f"{kind}: {exc}") from None
    bad = sorted(name for name, value in params.items() if not _is_real(value))
    if bad:
        raise InvalidParameterError(f"{kind}: {bad} must be finite real numbers")
    return factory(**params)
