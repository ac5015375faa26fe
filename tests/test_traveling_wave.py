"""Exact traveling-wave oracle for the b-equation over two inertia operators.

A smooth wave u = phi(x - c t) of m_t + u m_x + b u_x m = 0 with m = L u
satisfies (phi - c)(L phi)' + b phi' (L phi) = 0, which integrates to

    |c - phi|^b (L phi) = K.

The even wave phi = sum_{k=0}^{24} a_k cos(2 pi k x) is solved for by
collocation at x_j = j/48, j = 0..24: the unknowns are a_0, a_2..a_24 and
K, with the amplitude a_1 = eps fixed and c the linear speed of mode 1
about the mean M0 = 1.  A ``mub`` run of that wave must match its exact
translate rfft(u0) e^{-2 pi i k c t} to RK4 accuracy.

A tracked run's flow is exact too: in the co-moving frame a particle
obeys xi' = phi(xi) - c, so g(T) - c T must equal xi(T) with xi(0) = x_j.
xi(T) comes from scipy's DOP853 on the run's own cosine series, summed in
numpy rather than through the solver's off-grid evaluation.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import root

from mubflow import dynamics as dy
from mubflow import inertia as io

TWO_PI = 2.0 * np.pi
MODES = 24        # collocated cosine modes
RUN_MODES = 21    # modes kept in the run: n/3 on the dealiased 64-point grid
N, T_END = 64, 0.5

# L and the linear speed of mode 1 about the mean M0 = 1
OPERATORS = {
    "mu_minus_dxx": (io.MU_MINUS_DXX, lambda b: 1.0 + b / TWO_PI ** 2),
    "ch_dp": (io.InertiaSpec.helmholtz(1.0), lambda b: 1.0 + b / (1.0 + TWO_PI ** 2)),
}


def traveling_wave(spec, b, eps, c):
    """Cosine coefficients a_0 .. a_24 of the wave of amplitude eps and speed c."""
    k = np.arange(MODES + 1)
    cosines = np.cos(TWO_PI * np.outer(k / (2.0 * MODES), k))
    ell = spec.multipliers(2 * MODES)

    def coefficients(z):
        return np.concatenate(([z[0], eps], z[1:MODES]))

    def residual(z):
        a = coefficients(z)
        return np.abs(c - cosines @ a) ** b * (cosines @ (ell * a)) - z[-1]

    guess = np.zeros(MODES + 1)
    guess[0], guess[-1] = 1.0, abs(c - 1.0) ** b * ell[0]
    sol = root(residual, guess, method="hybr", options={"xtol": 1e-13})
    assert sol.success, sol.message
    return coefficients(sol.x)


def run_wave(spec, b, a, dt, track_flow=False, dealias=True):
    """A mub run of the wave a from 0 to T at step dt, rows at 0 and T only."""
    cfg = dy.SimulationConfig(
        n=N, dt=dt, t_end=T_END, output_every=round(T_END / dt), form="mub", b=b,
        inertia=spec, initial={"type": "trig", "mean": float(a[0]),
                               "cos": a[1:RUN_MODES + 1].tolist()},
        dealias=dealias, track_flow=track_flow)
    res = dy.simulate(cfg)
    assert res.status == dy.STATUS_COMPLETED
    return res


def translation_error(spec, b, a, c, dt, dealias=True):
    """max|u(T) - u0(x - c T)| / max|u0| of a mub run at step dt."""
    res = run_wave(spec, b, a, dt, dealias=dealias)
    u0 = res.u_history[0]
    shift = np.exp(-2j * np.pi * np.arange(N // 2 + 1) * c * T_END)
    exact = np.fft.irfft(np.fft.rfft(u0) * shift, N)
    return np.max(np.abs(res.u_history[-1] - exact)) / np.max(np.abs(u0))


def comoving_particles(a, c):
    """xi(T) of xi' = phi(xi) - c from the grid, phi the run's cosine series."""
    a = a[:RUN_MODES + 1]
    k = TWO_PI * np.arange(a.size)
    sol = solve_ivp(lambda t, xi: np.cos(np.outer(xi, k)) @ a - c, (0.0, T_END),
                    np.arange(N) / N, method="DOP853", rtol=1e-13, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


def flow_error(spec, b, a, c, exact, dt):
    """max|g(T) - c T - xi(T)| of a tracked mub run at step dt."""
    g = run_wave(spec, b, a, dt, track_flow=True).flow_history[-1]
    return np.max(np.abs(g - c * T_END - exact))


# the dealiased runs at four b, and the runs without dealiasing at three
WAVE_CASES = [
    *(pytest.param(operator, b, eps, True, id=f"{operator}-{b}-{eps}")
      for operator in sorted(OPERATORS) for b in (2.0, 3.0, 2.5, -1.3) for eps in (0.005, 0.02)),
    *(pytest.param(operator, b, eps, False, id=f"{operator}-{b}-{eps}-no_dealias")
      for operator in sorted(OPERATORS) for b in (2.0, 3.0, -1.3) for eps in (0.005, 0.02)),
]


@pytest.mark.parametrize("operator, b, eps, dealias", WAVE_CASES)
def test_mub_run_translates_the_exact_traveling_wave(operator, b, eps, dealias):
    spec, speed = OPERATORS[operator]
    c = speed(b)
    a = traveling_wave(spec, b, eps, c)
    coarse, fine = (translation_error(spec, b, a, c, dt, dealias) for dt in (1e-3, 5e-4))
    # measured with and without dealiasing: <= 1.7e-11, and a dt-halving
    # ratio of 13.3 to 16.5 (RK4: 16)
    assert coarse <= 1e-10
    assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("eps", [0.005, 0.02])
@pytest.mark.parametrize("b", [2.0, 3.0, -1.3])
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_tracked_flow_follows_the_comoving_particles(operator, b, eps):
    spec, speed = OPERATORS[operator]
    c = speed(b)
    a = traveling_wave(spec, b, eps, c)
    exact = comoving_particles(a, c)
    coarse, fine = (flow_error(spec, b, a, c, exact, dt) for dt in (1e-3, 5e-4))
    # measured: <= 5.3e-12, and a dt-halving ratio of 11.3 to 16.6 (RK4: 16)
    assert coarse <= 5e-11
    assert 10.0 <= coarse / fine <= 20.0
