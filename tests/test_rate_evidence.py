"""Evidence for the paper's rate claim on drifts that are rough in time
everywhere.

The input is the zero-mean triangle sum

    g(t) = c * sum_{k<K} 2^(-k beta) (phi(2^k t) - 1/4),  phi(y) = |y - rint(y)|,

a truncated Takagi-Landsberg sum, beta-Hoelder and no better for
0 < beta < 1.  Every term integrates to 0 over [0, 1].  Left-endpoint
sampling of such a drift converges at order beta; sampling it at a uniform
random time in each step converges at order beta + 1/2, and at order
min(beta + 1/2, 1) once state-dependent noise gives the Milstein part an
order-one error.  The bands below were fixed from that theory before the
runs that pin them.
"""

import numpy as np
import pytest

from sde_rtm import (NoiseStructure, SchemeKind, SdeProblem, SeedPolicy, fit_rate, model,
                     strong_error_experiment)

RTM = SchemeKind.RANDOMIZED_TAMED_MILSTEIN
TM = SchemeKind.TAMED_MILSTEIN
LEVELS = [4, 5, 6, 7, 8, 9]
SIGMA = 0.2


def triangle_sum(beta, c, terms):
    """``g`` above, evaluated at a time or an array of times."""
    scales = 2.0 ** np.arange(terms)
    weights = c * scales ** -beta

    def g(t):
        y = np.multiply.outer(t, scales)
        return (np.abs(y - np.rint(y)) - 0.25) @ weights

    return g


def additive_problem(beta):
    """dx = g(t) dt + sigma dW on [0, 1] from 0, with c = 8 and K = 40.

    g integrates to 0, so the exact terminal is sigma W_1."""
    g = triangle_sum(beta, 8.0, 40)
    return SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=np.array([0.0]),
        drift=lambda t, x: (g(t),),
        diffusion=lambda t, x: ((SIGMA,),),
        milstein_tensor=lambda t, x: (((0.0,),),),
        noise_structure=NoiseStructure.SCALAR, xi=0.0, beta=beta,
        exact_terminal=lambda w: (SIGMA * w[0],),
    )


# an L^2 case is named by beta alone, an L^4 case by beta and "p4"
@pytest.mark.parametrize("beta,p", [
    pytest.param(beta, p, id=f"{beta}" if p == 2.0 else f"{beta}-p{p:g}")
    for p in (2.0, 4.0) for beta in (0.1, 0.25, 0.5, 0.75)])
def test_rates_against_an_exact_terminal(beta, p):
    """Randomized slope within 0.1 of beta + 1/2 and classical slope within
    0.1 of beta, with r^2 >= 0.98, on seeds 101, 202 and 303 (levels 4-9
    against the exact terminal, 500 paths), in L^2 and in L^4: the paper
    claims the rate in every L^p, and the bands are the same for both p.

    The scheme's error is the quadrature error of g alone, so this pins the
    two rates of the time sampling and nothing else.  It does not show the
    cap at 1 (``test_the_randomized_rate_is_capped_at_one`` does): with no
    state-dependent error the randomized rate is beta + 1/2 (about 1.2 at
    beta = 0.75).  Nor does it show taming at work:
    with xi = 0 the tamed kinds only scale the drift by n / (n + 1).
    """
    problem = additive_problem(beta)
    for seed in (101, 202, 303):
        for kind, theory in ((RTM, beta + 0.5), (TM, beta)):
            fit = fit_rate(strong_error_experiment(problem, kind, LEVELS, "exact",
                                                   p, 500, SeedPolicy(seed)))
            detail = (f"beta {beta} p {p:g} seed {seed} {kind.value}: slope {fit.slope:.4f} "
                      f"(theory {theory}), r^2 {fit.r_squared:.4f}")
            print(detail)
            assert abs(fit.slope - theory) <= 0.1, detail
            assert fit.r_squared >= 0.98, detail


def test_randomization_beats_left_sampling_under_neuron_dynamics():
    """FitzHugh-Nagumo dynamics driven by g at beta = 0.25 (c = 8, K = 14),
    sigma = 0.2, levels 4-9 against a level-14 reference, p = 2, 500 paths,
    on seeds 101, 202 and 303: randomized slope >= beta + 1/2 - 0.1 = 0.65,
    a randomized minus classical gap >= 0.2, and r^2 >= 0.98 for both kinds.

    K stays at the reference level: a term with k >= 14 is constant on every
    grid of level 14 or coarser, so the reference could not see it.  The
    theorem bounds the error from above, so beta + 1/2 is a floor on the
    randomized slope here, not a target; the measured slopes at these
    levels sit above both theory lines.
    """
    problem = model._fhn_family(triangle_sum(0.25, 8.0, 14), SIGMA, 0.25)
    for seed in (101, 202, 303):
        fits = {kind: fit_rate(strong_error_experiment(problem, kind, LEVELS, 14, 2.0,
                                                       500, SeedPolicy(seed)))
                for kind in (RTM, TM)}
        detail = f"seed {seed} " + ", ".join(
            f"{kind.value}: slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}"
            for kind, fit in fits.items())
        print(detail)
        assert fits[RTM].slope >= 0.65, detail
        assert fits[RTM].slope - fits[TM].slope >= 0.2, detail
        assert all(fit.r_squared >= 0.98 for fit in fits.values()), detail


def multiplicative_problem(beta, sigma, xi=0.0):
    """dx = g(t) x dt + sigma x dW on [0, 1] from 1, with c = 2 and K = 40;
    the tamed kinds divide its drift by 1 + |x|^(2 xi) / n.

    g integrates to 0, so the exact terminal is exp(-sigma^2 / 2 + sigma W_1)."""
    g = triangle_sum(beta, 2.0, 40)
    return SdeProblem(
        d=1, m=1, horizon=1.0, initial_state=np.array([1.0]),
        drift=lambda t, x: (g(t) * x[0],),
        diffusion=lambda t, x: ((sigma * x[0],),),
        milstein_tensor=lambda t, x: (((sigma * sigma * x[0],),),),
        noise_structure=NoiseStructure.SCALAR, xi=xi, beta=beta,
        exact_terminal=lambda w: (np.exp(-0.5 * sigma * sigma + sigma * w[0]),),
    )


@pytest.mark.parametrize("sigma,beta", [(1.0, 0.75), (1.0, 0.9), (0.2, 0.75), (0.2, 0.9)])
def test_the_randomized_rate_is_capped_at_one(sigma, beta):
    """The cap of min(beta + 1/2, 1), levels 4-9 against the exact terminal,
    p = 2, 2000 paths, seeds 101, 202 and 303.

    The noise sigma x dW gives the Milstein part an order-one error, and
    sigma sets its size.  At sigma = 1 it shows at these levels: the
    randomized slope lies within 0.1 of the cap 1, below beta + 1/2 = 1.4 at
    beta = 0.9.  At sigma = 0.2 it is too small to show, and the randomized
    slope follows beta + 1/2 instead, so the band there is a floor of 1.1.
    The classical slope lies within 0.1 of beta at both sigma, and every
    r^2 is at least 0.98.  c = 2 keeps the drift's error, which enters
    through exp, from saturating on these grids.

    This does not test taming: with xi = 0 the tamed kinds only scale the
    drift by n / (n + 1).
    """
    problem = multiplicative_problem(beta, sigma)
    for seed in (101, 202, 303):
        for kind in (RTM, TM):
            fit = fit_rate(strong_error_experiment(problem, kind, LEVELS, "exact",
                                                   2.0, 2000, SeedPolicy(seed)))
            detail = (f"sigma {sigma} beta {beta} seed {seed} {kind.value}: "
                      f"slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}")
            print(detail)
            if kind is TM:
                assert abs(fit.slope - beta) <= 0.1, detail
            elif sigma == 1.0:
                assert abs(fit.slope - 1.0) <= 0.1, detail
            else:
                assert fit.slope >= 1.1, detail
            assert fit.r_squared >= 0.98, detail


@pytest.mark.parametrize("beta", [0.75, 0.9])
def test_taming_leaves_the_rate_at_small_noise(beta):
    """Taming at xi = 1 moves no slope by more than 0.05 at sigma = 0.2:
    the problem of ``test_the_randomized_rate_is_capped_at_one``, levels 4-9
    against the exact terminal, p = 2, 2000 paths, seeds 101, 202 and 303,
    each slope against the xi = 0 slope of the same seed and kind.

    The drift is linear, so taming adds only the perturbation
    g x |x|^(2 xi) / n, whose L^p size grows with the q-th moment of the
    state; the rate needs 2p(xi + 2) <= q, that is q >= 12 here.  The
    terminal is lognormal with E X_1^12 = exp(66 sigma^2), about 14 at
    sigma = 0.2, so the condition holds with room.  At sigma = 1, where
    E X_1^12 is e^66, the randomized slope is not settled by 2000 paths;
    those rows wait for the map of where taming hides the rate.
    """
    for seed in (101, 202, 303):
        for kind in (RTM, TM):
            slopes = [fit_rate(strong_error_experiment(
                multiplicative_problem(beta, SIGMA, xi), kind, LEVELS, "exact", 2.0, 2000,
                SeedPolicy(seed))).slope for xi in (0.0, 1.0)]
            detail = (f"beta {beta} seed {seed} {kind.value}: slope {slopes[0]:.4f} "
                      f"at xi 0, {slopes[1]:.4f} at xi 1")
            print(detail)
            assert abs(slopes[1] - slopes[0]) <= 0.05, detail
