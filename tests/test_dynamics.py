import math

import numpy as np
import pytest

from mubflow import dynamics as dy
from mubflow import inertia as io
from mubflow import spectral as sp

TWO_PI = 2.0 * np.pi
L = io.MU_MINUS_DXX


def rand_field(n=256, modes=32, seed=0, mean=None):
    return sp.random_trig_field(n, modes, np.random.default_rng(seed), mean_value=mean)


# bracket ---------------------------------------------------------------------

def test_bracket_antisymmetry():
    u = rand_field(seed=1)
    assert np.max(np.abs(dy.lie_bracket(u, u))) < 1e-11


def test_bracket_with_constant():
    v = rand_field(seed=2)
    out = dy.lie_bracket(np.full(v.size, 1.0), v)
    assert np.max(np.abs(out - sp.derivative(v, 1))) < 1e-11


def test_bracket_sin_cos_symbolic_oracle():
    import sympy
    xs = sympy.symbols("x")
    u_s = sympy.sin(2 * sympy.pi * xs)
    v_s = sympy.cos(2 * sympy.pi * xs)
    bracket_s = sympy.simplify(u_s * sympy.diff(v_s, xs) - sympy.diff(u_s, xs) * v_s)
    assert bracket_s == -2 * sympy.pi

    n = 64
    x = sp.grid(n)
    out = dy.lie_bracket(np.sin(TWO_PI * x), np.cos(TWO_PI * x))
    assert np.max(np.abs(out - float(bracket_s))) < 1e-12


# the symmetric bilinear term ---------------------------------------------------

def test_christoffel_identity_operator_is_burgers():
    # B(u, u) = 3 u u_x when A is the identity
    import sympy
    xs = sympy.symbols("x")
    u_s = sympy.sin(2 * sympy.pi * xs)
    expected_s = sympy.expand_trig(sympy.simplify(3 * u_s * sympy.diff(u_s, xs)))

    n = 64
    x = sp.grid(n)
    u = np.sin(TWO_PI * x)
    out = dy.christoffel(io.IDENTITY, u, u)
    lam = sympy.lambdify(xs, expected_s, "numpy")
    assert np.max(np.abs(out - lam(x))) < 1e-12
    # amplitude check: 3 u u_x = 3 pi sin(4 pi x)
    assert np.max(np.abs(out - 3.0 * np.pi * np.sin(2.0 * TWO_PI * x))) < 1e-12


def test_christoffel_neg_dxx_matches_gradient_form():
    # B(u, u) = -A^{-1}(2 u_x u_xx + u u_xxx) for A = -d_xx on mean-zero data
    u = rand_field(seed=3, mean=0.0)
    lhs = dy.christoffel(io.NEG_DXX, u, u)
    ux = sp.derivative(u, 1)
    uxx = sp.derivative(u, 2)
    uxxx = sp.derivative(u, 3)
    rhs = -io.invert(io.NEG_DXX, 2.0 * sp.product(ux, uxx) + sp.product(u, uxxx))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_christoffel_symmetric():
    u = rand_field(seed=4)
    v = rand_field(seed=5)
    for spec in [L, io.InertiaSpec.helmholtz(0.5)]:
        assert np.max(np.abs(dy.christoffel(spec, u, v) - dy.christoffel(spec, v, u))) < 1e-11


def test_covariant_derivative_reduces_on_diagonal():
    u = rand_field(seed=6)
    assert np.max(np.abs(dy.covariant_derivative(L, u, u) - dy.christoffel(L, u, u))) < 1e-11


def test_covariant_derivative_along_constant():
    v = rand_field(seed=7)
    one = np.ones(v.size)
    expected = 0.5 * sp.derivative(v, 1) + dy.christoffel(L, one, v)
    assert np.max(np.abs(dy.covariant_derivative(L, one, v) - expected)) < 1e-11


def test_torsion_free():
    u = rand_field(seed=8)
    v = rand_field(seed=9)
    lhs = dy.covariant_derivative(L, u, v) - dy.covariant_derivative(L, v, u)
    assert np.max(np.abs(lhs - dy.lie_bracket(u, v))) <= 1e-10


@pytest.mark.parametrize("spec", [
    L, io.InertiaSpec.helmholtz(1.0), io.IDENTITY,
    io.InertiaSpec.diagonal({k: 1.0 + 0.7 * k ** 1.5 for k in range(65)}),
], ids=["mu_minus_dxx", "one_minus_dxx", "identity", "diagonal"])
def test_euler_rhs_is_the_geodesic_equation_of_the_connection(spec):
    # u_t = -Gamma(u, u): the solver's right-hand side is the geodesic
    # equation of the symmetric term; at most 2.4e-14 relative measured
    u = rand_field(n=128, modes=40, seed=10)
    rhs = dy.euler_rhs(spec, u)
    gap = np.max(np.abs(rhs + dy.christoffel(spec, u, u)))
    assert gap <= 1e-12 * np.max(np.abs(rhs))


# right-hand sides ----------------------------------------------------------------

def test_constants_are_stationary():
    one = np.ones(64)
    for spec in [L, io.IDENTITY, io.InertiaSpec.helmholtz(1.0)]:
        assert np.max(np.abs(dy.euler_rhs(spec, one))) < 1e-13
    for b in (0.0, 2.0, 3.0):
        assert np.max(np.abs(dy.mub_rhs(b, one))) < 1e-13


def test_euler_rhs_single_mode_oracle():
    # independent mode arithmetic: u = cos(n x), n = 2 pi, A u = n^2 u,
    # 2 (Au) u_x + u (Au)_x = -(3/2) n^3 sin(2 n x), invert at mode 2 divides
    # by (2n)^2, so u_t = (3 n / 8) sin(2 n x) = (3 pi / 4) sin(4 pi x)
    n_w = TWO_PI
    amplitude = 1.5 * n_w ** 3 / (2.0 * n_w) ** 2
    assert amplitude == pytest.approx(3.0 * np.pi / 4.0, rel=1e-15)

    n = 256
    x = sp.grid(n)
    out = dy.euler_rhs(L, np.cos(TWO_PI * x))
    assert np.max(np.abs(out - amplitude * np.sin(2.0 * TWO_PI * x))) < 1e-12


def test_euler_rhs_identity_is_negative_burgers():
    n = 256
    x = sp.grid(n)
    out = dy.euler_rhs(io.IDENTITY, np.sin(TWO_PI * x))
    assert np.max(np.abs(out + 3.0 * np.pi * np.sin(2.0 * TWO_PI * x))) < 1e-12


def test_mub_matches_euler_at_b2():
    for seed in range(5):
        u = rand_field(seed=seed)
        d = np.max(np.abs(dy.euler_rhs(L, u) - dy.mub_rhs(2.0, u)))
        assert d / np.max(np.abs(u)) <= 1e-9


def test_mub_b3_single_mode_gap():
    # both sides on u = cos(2 pi x): the difference is L^{-1}((Lu) u_x),
    # a sine at mode 2 with amplitude (2 pi)^3 / (2 (4 pi)^2) = pi / 4
    gap_amp = TWO_PI ** 3 / (2.0 * (2.0 * TWO_PI) ** 2)
    assert gap_amp == pytest.approx(np.pi / 4.0, rel=1e-15)

    n = 256
    x = sp.grid(n)
    u = np.cos(TWO_PI * x)
    diff = dy.euler_rhs(L, u) - dy.mub_rhs(3.0, u)
    assert np.max(np.abs(diff + gap_amp * np.sin(2.0 * TWO_PI * x))) < 1e-12


def test_mub_mean_momentum_identity():
    # by-parts oracle: int (mu(u) - u_xx) u_x dx = 0, hence mu(m) is constant
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = sp.random_trig_field(128, 30, rng)
        m = io.apply(L, u)
        assert abs(sp.inner_l2(m, sp.derivative(u, 1))) < 1e-12


def _composed_forms(spec, u, v, dealias):
    # the same operators built field by field from the public spectral and
    # inertia calls; the -d_xx inverse gets the bracket's analytically zero
    # mean removed first
    def inv(op, t):
        return io.invert(op, t - sp.mean(t) if not op.invertible_everywhere else t)

    def prod(f, g):
        return sp.product(f, g, dealias)

    ux, vx = sp.derivative(u, 1), sp.derivative(v, 1)
    au, av = io.apply(spec, u), io.apply(spec, v)
    m = io.apply(L, u)
    out = {
        "lie_bracket": prod(u, vx) - prod(ux, v),
        "christoffel": 0.5 * inv(spec, 2.0 * prod(au, vx) + 2.0 * prod(av, ux)
                                 + prod(u, sp.derivative(av, 1)) + prod(v, sp.derivative(au, 1))),
        "euler_rhs": -inv(spec, 2.0 * prod(au, ux) + prod(u, sp.derivative(au, 1))),
    }
    for b in (2.0, -1.3, 0.0):
        out[f"mub_rhs b={b}"] = -inv(L, prod(sp.derivative(m, 1), u) + b * prod(m, ux))
    return out


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("kind", ["mu_minus_dxx", "helmholtz", "neg_dxx", "diagonal"])
def test_kernel_forms_match_field_composition(kind, n, dealias):
    spec = {"mu_minus_dxx": L, "helmholtz": io.InertiaSpec.helmholtz(0.3), "neg_dxx": io.NEG_DXX,
            "diagonal": io.InertiaSpec.diagonal({k: 1.0 + 0.7 * k ** 1.5 for k in range(n // 2 + 1)}),
            }[kind]
    mean = 0.0 if kind == "neg_dxx" else None
    u = rand_field(n, n // 4, seed=n + 1, mean=mean)
    v = rand_field(n, n // 4, seed=n + 2, mean=mean)
    kernel = {
        "lie_bracket": dy.lie_bracket(u, v, dealias),
        "christoffel": dy.christoffel(spec, u, v, dealias),
        "euler_rhs": dy.euler_rhs(spec, u, dealias),
    }
    for b in (2.0, -1.3, 0.0):
        kernel[f"mub_rhs b={b}"] = dy.mub_rhs(b, u, dealias)
    for name, expected in _composed_forms(spec, u, v, dealias).items():
        err = np.max(np.abs(kernel[name] - expected)) / np.max(np.abs(expected))
        assert err <= 1e-10, (name, err)


# time stepping -------------------------------------------------------------------

def test_rk4_zero_rhs_is_identity():
    u = rand_field(seed=11)
    out = dy.step_rk4(lambda w: np.zeros_like(w), u, 0.37)
    assert np.array_equal(out, u)


def _rk4_textbook(rhs, u, dt):
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("state", ["complex", "real"])
def test_rk4_matches_the_textbook_sum_bit_for_bit(state):
    n = 128
    u = rand_field(n, 40, seed=12)
    if state == "complex":
        rhs, w = dy.coefficient_rhs(n, b=-1.3), np.fft.rfft(u)
    else:
        rhs, w = (lambda v: -v * sp.derivative(v, 1)), u
    before = w.copy()
    out = dy.step_rk4(rhs, w, 0.013)
    assert out.dtype == w.dtype
    assert np.array_equal(out, _rk4_textbook(rhs, w, 0.013))
    assert np.array_equal(w, before)


@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_on_a_stack_equals_per_row_calls(dealias):
    rng = np.random.default_rng(21)
    stack = np.array([sp.random_trig_field(64, 12, rng) for _ in range(6)])
    for rhs in (lambda u: dy.euler_rhs(L, u, dealias),
                lambda u: dy.euler_rhs(io.NEG_DXX, u, dealias),
                lambda u: dy.mub_rhs(-1.3, u, dealias)):
        rows = np.array([rhs(u) for u in stack])
        assert np.array_equal(rhs(stack), rows)
        # any number of leading axes
        assert np.array_equal(rhs(stack.reshape(2, 3, 64)), rows.reshape(2, 3, 64))


@pytest.mark.parametrize("b", [2.0, -1.3], ids=["euler", "mub"])
def test_rk4_step_memory_is_bounded_by_the_state(b):
    import tracemalloc

    n = 4096
    rhs = dy.coefficient_rhs(n, b=b)
    c = np.fft.rfft(rand_field(n, 64, seed=13))
    dy.step_rk4(rhs, c, 1e-5)
    tracemalloc.start()
    try:
        dy.step_rk4(rhs, c, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the accumulator, one stage input, the (4, n/2 + 1) factor block and
    # its (4, 3n/2) samples: about 12 states
    assert peak <= 13 * c.nbytes


def test_rk4_advection_convergence_order():
    # u_t = -u_x has the exact solution u0(x - t)
    n = 64
    u0 = sp.trig_field(n, 0.0, [0.4, 0.1], [0.2])
    rhs = lambda w: -sp.derivative(w, 1)
    t_end = 0.5

    def error(dt):
        u = u0.copy()
        for _ in range(int(round(t_end / dt))):
            u = dy.step_rk4(rhs, u, dt)
        exact = sp.evaluate(u0, sp.grid(n) - t_end)
        return np.max(np.abs(u - exact))

    e1, e2 = error(2e-2), error(1e-2)
    order = math.log2(e1 / e2)
    assert order >= 3.8


def test_short_run_conserves_energy_and_mean():
    cfg = dy.SimulationConfig(t_end=0.1)
    res = dy.simulate(cfg)
    assert res.status == dy.STATUS_COMPLETED
    e = np.array([r.energy_mu for r in res.rows])
    mu = np.array([r.mu_u for r in res.rows])
    assert np.max(np.abs(e - e[0])) / abs(e[0]) <= 1e-6
    assert np.max(np.abs(mu - mu[0])) <= 1e-10


def test_energy_conserved_for_any_symmetric_operator():
    # d/dt <Au, u> = -2 <T, u> = 0 since T u integrates to a total derivative
    spec = io.InertiaSpec.diagonal({k: 1.0 + 0.3 * k ** 2 for k in range(0, 33)})
    cfg = dy.SimulationConfig(n=64, t_end=0.1, inertia=spec,
                              initial={"type": "trig", "cos": [0.2], "sin": [0.1]})
    res = dy.simulate(cfg)
    e = np.array([r.energy_A for r in res.rows])
    assert np.max(np.abs(e - e[0])) / abs(e[0]) <= 1e-6


def test_blowup_flag_on_threshold():
    cfg = dy.SimulationConfig(t_end=0.1, blowup_threshold=0.25)
    res = dy.simulate(cfg)
    assert res.status == dy.STATUS_BLOWUP
    assert all(np.isfinite(r.linf_u) for r in res.rows)


def test_neg_dxx_large_amplitude_run_completes():
    # the bracket's round-off mean grows with |u|^2; the inverse inside the
    # right-hand side projects it out instead of rejecting it
    cfg = dy.SimulationConfig(n=256, dt=1e-4, t_end=0.01, inertia=io.NEG_DXX,
                              initial={"type": "trig", "sin": [0, 0, 10]})
    assert dy.simulate(cfg).status == dy.STATUS_COMPLETED
    rhs = dy.euler_rhs(io.NEG_DXX, dy.initial_field(cfg))
    assert abs(sp.mean(rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_validate_config_mean_tolerance_scales_with_the_field():
    # mean zero, but of size 1e7: its round-off mean -4.66e-10 exceeds 1e-10
    initial = {"type": "trig", "cos": [7e6], "sin": [1e7, 3e6, 1e6]}
    u0 = dy.validate_config(dy.SimulationConfig(n=256, inertia=io.NEG_DXX, initial=initial))
    assert abs(sp.mean(u0)) > io.MEAN_TOL
    # a true mean is still rejected at that size
    with pytest.raises(ValueError, match="initial"):
        dy.validate_config(dy.SimulationConfig(n=256, inertia=io.NEG_DXX,
                                               initial={**initial, "mean": 1e-2}))


def test_validate_config_names_field():
    with pytest.raises(ValueError, match="dt"):
        dy.validate_config(dy.SimulationConfig(dt=-1.0))
    with pytest.raises(ValueError, match="output_every"):
        dy.validate_config(dy.SimulationConfig(output_every=0))
    with pytest.raises(ValueError, match="initial"):
        dy.validate_config(dy.SimulationConfig(
            inertia=io.NEG_DXX, initial={"type": "preset", "name": "mucauchy"}))
    with pytest.raises(ValueError, match="form"):
        dy.validate_config(dy.SimulationConfig(form="implicit"))
    # the velocity form is b = 2 and takes no other b
    with pytest.raises(ValueError, match="^b: "):
        dy.validate_config(dy.SimulationConfig(form="euler", b=7.5))
    # runs that would never end: 1e300 steps, a step count of inf, and one
    # step past the bound
    for dt, t_end in ((1e-300, 1.0), (5e-324, 1.0), (1e-3, 1e4 + 1e-3)):
        with pytest.raises(ValueError, match="^dt: "):
            dy.validate_config(dy.SimulationConfig(n=8, dt=dt, t_end=t_end,
                                                   output_every=1000000000))
    # dealiased runs need initial data within n/3
    with pytest.raises(ValueError, match="n/3"):
        dy.validate_config(dy.SimulationConfig(
            n=24, initial={"type": "trig", "cos": [0.0] * 8 + [0.1]}))


def test_validate_config_accepts_the_largest_step_count():
    cfg = dy.SimulationConfig(n=8, dt=1e-3, t_end=1e4)
    assert round(cfg.t_end / cfg.dt) == dy.MAX_STEPS
    dy.validate_config(cfg)


BURGERS = dict(n=64, t_end=1.0, output_every=20, inertia=io.IDENTITY,
               initial={"type": "trig", "sin": [0.1]})
# breaking time of u_t + 3 u u_x = 0 from u0 = 0.1 sin(2 pi x)
BURGERS_T_STAR = 1.0 / (0.6 * math.pi)


# each bound is 10x the measured error
@pytest.mark.parametrize("n, t_end, bound", [
    (64, 0.2, 1e-11),      # measured 1.0e-12
    (256, 0.2, 5.5e-12),   # 5.5e-13
    (256, 0.4, 1e-9),      # 9.3e-11
    (1024, 0.1, 8e-12),    # 8.0e-13; four blocks of off-grid points per stage
])
def test_burgers_flow_matches_the_exact_flow(n, t_end, bound):
    # u stays odd about x = 1/2, so the particle there never moves; it sits
    # at the breaking point, where g_x = exp(int u_x(t, 1/2) dt) and
    # u_x(t, 1/2) = u0'(1/2)/(1 - t/t*) give g_x = (1 - t/t*)^(1/3), the
    # smallest g_x of the flow
    cfg = dy.SimulationConfig(**dict(BURGERS, n=n, t_end=t_end, track_flow=True))
    seen = {}
    res = dy.simulate(cfg, observe=lambda s, u, g: seen.update(g=g.copy()))
    assert res.status == dy.STATUS_COMPLETED
    g = seen["g"]
    assert g[n // 2] == 0.5
    exact = (1.0 - t_end / BURGERS_T_STAR) ** (1.0 / 3.0)
    gx = 1.0 + sp.derivative(g - sp.grid(n), 1)
    assert abs(gx[n // 2] - exact) <= bound
    assert res.rows[-1].min_gx == gx[n // 2]


@pytest.mark.parametrize("status, overrides", [
    # the final step is off the output cadence
    (dy.STATUS_COMPLETED, dict(n=64, t_end=0.025, output_every=10, track_flow=True)),
    (dy.STATUS_BLOWUP, dict(BURGERS, blowup_threshold=0.1005)),
    (dy.STATUS_DIFFEO_LOST, dict(BURGERS, track_flow=True)),
    # the first step overflows to inf/NaN, which no threshold comparison passes
    (dy.STATUS_BLOWUP, dict(n=16, initial={"type": "trig", "cos": [1e300]},
                            blowup_threshold=1e308)),
], ids=["completed", "blowup", "diffeo_lost", "non_finite"])
def test_observer_gets_the_diagnostics_rows(status, overrides):
    cfg = dy.SimulationConfig(**overrides)
    dense = dy.simulate(cfg)
    seen = []
    streamed = dy.simulate(cfg, observe=lambda s, u, g: seen.append(
        (s, u.copy(), None if g is None else g.copy())))

    assert streamed.status == dense.status == status
    assert streamed.times is None and streamed.u_history is None
    assert streamed.flow_history is None
    last = len(dense.times) - 1
    steps = sorted({0, last} | set(range(0, last + 1, cfg.output_every)))
    assert [s for s, _, _ in seen] == steps
    assert [round(r.t / cfg.dt) for r in dense.rows] == steps

    def table(res):
        return np.array([list(vars(r).values()) for r in res.rows])
    assert np.array_equal(table(streamed), table(dense), equal_nan=True)
    for s, u, g in seen:
        assert np.array_equal(u, dense.u_history[s])
        if cfg.track_flow:
            assert np.array_equal(g, dense.flow_history[s])
        else:
            assert g is None and dense.flow_history is None


def _grid_space_run(cfg):
    # the reference loop: RK4 on grid samples through the public grid RHS
    def rhs(w):
        if cfg.form == "mub":
            return dy.mub_rhs(cfg.b, w, cfg.dealias, cfg.inertia)
        return dy.euler_rhs(cfg.inertia, w, cfg.dealias)

    state = dy.initial_field(cfg)
    if cfg.track_flow:
        state = np.stack((state, sp.grid(cfg.n)))
        def advance(w):
            return np.stack((rhs(w[0]), sp.evaluate(w[0], w[1])))
    else:
        advance = rhs
    history = [state]
    for _ in range(round(cfg.t_end / cfg.dt)):
        history.append(dy.step_rk4(advance, history[-1], cfg.dt))
    return np.asarray(history)


@pytest.mark.parametrize("overrides", [
    dict(inertia=L),
    dict(inertia=io.InertiaSpec.helmholtz(0.02), dealias=False),
    dict(inertia=io.NEG_DXX, initial={"type": "trig", "cos": [0.3, 0.1], "sin": [0.2]}),
    dict(inertia=io.InertiaSpec.diagonal({k: 1.0 + 0.7 * k ** 1.5 for k in range(33)})),
    dict(form="mub", b=-1.3),
    dict(form="mub", b=3.5, dealias=False, track_flow=True),
    dict(track_flow=True),
    dict(form="mub", b=3.0, inertia=io.InertiaSpec.helmholtz(1.0)),
], ids=["mu_minus_dxx", "helmholtz-aliased", "neg_dxx", "diagonal", "mub", "mub-aliased-tracked",
        "tracked", "mub-helmholtz"])
def test_coefficient_stepping_matches_grid_loop(overrides):
    cfg = dy.SimulationConfig(**{**dict(n=64, dt=2e-3, t_end=0.1), **overrides})
    res = dy.simulate(cfg)
    ref = _grid_space_run(cfg)
    u_ref = ref[:, 0] if cfg.track_flow else ref
    assert res.status == dy.STATUS_COMPLETED and res.u_history.shape == u_ref.shape
    assert np.array_equal(res.u_history[0], u_ref[0])
    assert np.max(np.abs(res.u_history - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
    if cfg.track_flow:
        assert np.max(np.abs(res.flow_history - ref[:, 1])) <= 1e-13


# mub over any L -------------------------------------------------------------------

def test_mub_evolves_the_configured_inertia():
    base = dict(n=64, dt=1e-3, t_end=0.1, form="mub")
    helmholtz = dy.simulate(dy.SimulationConfig(**base, inertia=io.InertiaSpec.helmholtz(1.0)))
    mu = dy.simulate(dy.SimulationConfig(**base))
    # measured 1.9e-4: 1 - d_xx is not mu - d_xx
    assert np.max(np.abs(helmholtz.u_history[-1] - mu.u_history[-1])) > 1e-5


@pytest.mark.parametrize("spec", [
    io.InertiaSpec.helmholtz(0.5),
    io.InertiaSpec.diagonal({k: 1.0 + 0.7 * k ** 1.5 for k in range(33)}),
    io.NEG_DXX,
], ids=["helmholtz", "diagonal", "neg_dxx"])
def test_mub_at_b2_is_euler_bit_for_bit(spec):
    base = dict(n=64, dt=2e-3, t_end=0.1, inertia=spec, track_flow=True,
                initial={"type": "trig", "cos": [0.3, 0.1], "sin": [0.2]})
    euler = dy.simulate(dy.SimulationConfig(**base))
    mub = dy.simulate(dy.SimulationConfig(**base, form="mub", b=2.0))
    assert np.array_equal(mub.u_history, euler.u_history)
    assert np.array_equal(mub.flow_history, euler.flow_history)
    assert [vars(r) for r in mub.rows] == [vars(r) for r in euler.rows]


def test_dp_on_one_minus_dxx_conserves_the_mean_momentum():
    # b = 3 over 1 - d_xx (Degasperis-Procesi): int m is invariant
    cfg = dy.SimulationConfig(n=64, dt=1e-3, t_end=0.5, form="mub", b=3.0,
                              inertia=io.InertiaSpec.helmholtz(1.0),
                              initial={"type": "trig", "mean": 0.3, "cos": [0.2, 0.05],
                                       "sin": [0.1]})
    res = dy.simulate(cfg)
    mu_m = np.array([r.mu_m for r in res.rows])
    assert res.status == dy.STATUS_COMPLETED
    # measured 4.4e-16
    assert np.max(np.abs(mu_m - mu_m[0])) <= 1e-10


# flow maps -----------------------------------------------------------------------

def test_flow_of_zero_velocity_is_identity():
    n = 32
    series = np.zeros((5, n))
    flow = dy.reconstruct_flow(series, 0.01)
    for frame in flow.g:
        assert np.array_equal(frame, sp.grid(n))
    assert np.allclose(flow.gx, 1.0)


def test_flow_of_constant_velocity_is_rotation():
    n = 32
    c = 0.3
    series = np.full((9, n), c)
    flow = dy.reconstruct_flow(series, 0.01)
    expected = sp.grid(n)[None, :] + c * flow.times[:, None]
    assert np.max(np.abs(flow.g - expected)) < 1e-14
    assert np.min(flow.gx) > 0.0


def test_flow_requires_even_interval_count():
    with pytest.raises(ValueError, match="even number"):
        dy.reconstruct_flow(np.zeros((4, 16)), 0.01)


def test_flow_self_consistency_short_run():
    cfg = dy.SimulationConfig(t_end=0.1)
    res = dy.simulate(cfg)
    flow = dy.reconstruct_flow(res.u_history, cfg.dt)
    defect = dy.flow_defect(flow, res.u_history[::2])
    assert np.max(defect) <= 1e-6
    assert np.min(flow.min_gx()) > 0.0


def test_tracked_flow_matches_reconstruction():
    cfg = dy.SimulationConfig(t_end=0.1, track_flow=True)
    res = dy.simulate(cfg)
    flow = dy.reconstruct_flow(res.u_history, cfg.dt)
    inline = res.flow_history[::2]
    assert np.max(np.abs(inline - flow.g)) <= 1e-8


def test_tracked_flow_winding_number_one():
    cfg = dy.SimulationConfig(t_end=0.05, track_flow=True)
    res = dy.simulate(cfg)
    g_end = res.flow_history[-1]
    wrapped = g_end - sp.grid(cfg.n)
    # g - id periodic and small: particle labels advance exactly once per lap
    assert np.max(np.abs(wrapped)) < 0.5


# diagnostics -----------------------------------------------------------------------

def test_diagnostics_constant_state():
    row = dy.diagnostics(L, np.ones(64), 0.0)
    assert row.energy_mu == pytest.approx(1.0, abs=1e-13)
    assert row.mu_u == pytest.approx(1.0, abs=1e-14)
    assert row.mu_m == pytest.approx(1.0, abs=1e-14)


def test_diagnostics_sine_energy():
    u = np.sin(TWO_PI * sp.grid(256))
    row = dy.diagnostics(L, u, 0.0)
    assert row.energy_mu == pytest.approx(2.0 * np.pi ** 2, rel=1e-12)
    assert math.isnan(row.min_gx)
