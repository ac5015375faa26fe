"""Geodesic-type dynamics on circle fields: bilinear operators, time
stepping, flow-map reconstruction and conserved-quantity diagnostics.

One right-hand side serves the whole b-family over an inertia operator L:
m = Lu evolves by m_t + u m_x + b u_x m = 0, resolved for u_t as
u_t = -L^{-1}(b m u_x + u m_x).  The Euler equation of an inertia
operator A, u_t = -A^{-1}(2 (Au) u_x + u (Au)_x), is its b = 2 member over
L = A; the mu-b family is the member over L = mu - d_xx.

* ``coefficient_rhs(n, spec, b)`` takes rfft(u) to rfft(u_t) with its
  derivative, symbol and inverse-symbol tables built once.
* ``euler_rhs(A, u)`` and ``mub_rhs(b, u, spec=L)`` are its grid
  wrappers, at b = 2 and at any b.  Each takes one field or a stack of
  fields, one per row, in one pass of the kernel.

The Lie bracket convention is [u, v] = u v_x - u_x v; only the
antisymmetric half of the covariant derivative depends on this choice.
Time integration is fixed-step classical RK4 on rfft coefficients, with
the right-hand side's tables built once per run, one batched inverse rfft
per right-hand side, one accumulator per step and one inverse rfft per
accepted step.  Flow maps g solve the characteristic ODE g' = u(t, g)
with g(0) = id and are advanced by RK4 as well, evaluating u off-grid
from the coefficients by exact trigonometric interpolation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import inertia, spectral
from .inertia import InertiaSpec

__all__ = [
    "lie_bracket",
    "christoffel",
    "covariant_derivative",
    "coefficient_rhs",
    "euler_rhs",
    "mub_rhs",
    "step_rk4",
    "SimulationConfig",
    "DiagnosticsRow",
    "DIAGNOSTICS_COLUMNS",
    "SimulationResult",
    "simulate",
    "initial_field",
    "FlowSeries",
    "reconstruct_flow",
    "flow_defect",
    "diagnostics",
    "STATUS_COMPLETED",
    "STATUS_BLOWUP",
    "STATUS_DIFFEO_LOST",
    "INITIAL_PRESETS",
    "MAX_N",
    "MAX_STEPS",
]

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blow-up suspected"
STATUS_DIFFEO_LOST = "diffeomorphism lost"
# largest grid size a run or a CLI check accepts
MAX_N = 2 ** 20
# most RK4 steps a run accepts; the longest shipped run takes 1000
MAX_STEPS = 10 ** 7


def _spectra(*fields) -> tuple:
    # grid size (the last axis), d/dx multiplier and the rfft of each field
    if len({np.shape(f) for f in fields}) > 1:
        raise ValueError("fields must share the same grid size")
    n = np.shape(fields[0])[-1]
    return (n, spectral.derivative_multiplier(n),
            *(np.fft.rfft(np.asarray(f, dtype=float)) for f in fields))


def lie_bracket(u: np.ndarray, v: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Vector-field bracket [u, v] = u v_x - u_x v."""
    n, d, cu, cv = _spectra(u, v)
    c = spectral.quadratic((1.0, -1.0), np.stack((cu, d * cv, d * cu, cv)), n, dealias)
    return np.fft.irfft(c, n)


def christoffel(spec: InertiaSpec, u: np.ndarray, v: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Symmetric bilinear term of the geodesic equation for the operator A.

    B(u, v) = 1/2 A^{-1} [2 (Au) v_x + 2 (Av) u_x + u (Av)_x + v (Au)_x].
    The bracketed combination has zero mean for every even multiplier A, so
    the ``neg_dxx`` inverse applies on its mean-zero gauge.
    """
    n, d, cu, cv = _spectra(u, v)
    s = spec.multipliers(n)
    au, av = s * cu, s * cv
    block = np.stack((au, d * cv, av, d * cu, cu, d * av, cv, d * au))
    t = spectral.quadratic((2.0, 2.0, 1.0, 1.0), block, n, dealias)
    return 0.5 * np.fft.irfft(inertia.divide(spec, t), n)


def covariant_derivative(spec: InertiaSpec, u: np.ndarray, v: np.ndarray,
                         dealias: bool = True) -> np.ndarray:
    """Right-invariant connection: nabla_u v = 1/2 [u, v] + B(u, v)."""
    return 0.5 * lie_bracket(u, v, dealias) + christoffel(spec, u, v, dealias)


def coefficient_rhs(n: int, spec: InertiaSpec = inertia.MU_MINUS_DXX, b: float = 2.0,
                    dealias: bool = True):
    """The map rfft(u) -> rfft(u_t) of the b-equation over L = ``spec``, tables built once.

    u_t = -L^{-1}(b m u_x + u m_x) with m = Lu on the n-point grid: the
    momentum form m_t + u m_x + b u_x m = 0 resolved for u_t.  At b = 2 it
    is the velocity form of A = L.  The bracket has zero mean
    analytically; for ``neg_dxx`` its round-off mean is projected out by
    the inverse.  The map takes c of shape (..., n/2 + 1), one field or a
    stack of them along the leading axes.  Each call fills one factor block
    (m, u_x, u, m_x) for :func:`spectral.quadratic` in place and divides
    its result in place by the negated symbol.
    """
    weights = (b, 1.0)
    d = spectral.derivative_multiplier(n)
    s = spec.multipliers(n)
    negated = -inertia.divisors(spec, n)

    def rhs(c):
        block = np.empty((4,) + c.shape, dtype=complex)
        m = np.multiply(s, c, out=block[0])
        np.multiply(d, c, out=block[1])
        block[2] = c
        np.multiply(d, m, out=block[3])
        q = spectral.quadratic(weights, block, n, dealias)
        q /= negated
        return q

    return rhs


def euler_rhs(spec: InertiaSpec, u: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Velocity-form right-hand side u_t = -A^{-1}(2 (Au) u_x + u (Au)_x) on the grid.

    This is :func:`mub_rhs` at b = 2 over ``spec``.  ``u`` is one field or
    a stack of fields, one per row along the last axis.
    """
    n, _, c = _spectra(u)
    return np.fft.irfft(coefficient_rhs(n, spec, 2.0, dealias)(c), n)


def mub_rhs(b: float, u: np.ndarray, dealias: bool = True,
            spec: InertiaSpec = inertia.MU_MINUS_DXX) -> np.ndarray:
    """b-equation right-hand side over L = ``spec``, resolved for u_t, on the grid.

    m = Lu evolves by m_t = -(u m_x + b u_x m); applying L^{-1} gives u_t.
    The default L = mu - d_xx is the mu-b family.  ``u`` is one field or a
    stack of fields, one per row along the last axis.
    """
    n, _, c = _spectra(u)
    return np.fft.irfft(coefficient_rhs(n, spec, b, dealias)(c), n)


def step_rk4(rhs, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of u_t = rhs(u); coupled systems stack u.

    k1 + 2 k2 + 2 k3 + k4 is summed in that order as one running sum, and
    each k is dropped once its stage input is formed, so beside u at most
    the sum, one stage input and what rhs allocates are alive.
    """
    acc = k = rhs(u)
    for h, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage = u + h * dt * k
        del k
        k = rhs(stage)
        acc = acc + w * k
    return u + (dt / 6.0) * acc


INITIAL_PRESETS = {
    "cos1": {"mean": 0.0, "cos": [1.0], "sin": []},
    "mucauchy": {"mean": 0.1, "cos": [0.2], "sin": []},
}


@dataclass
class SimulationConfig:
    """Everything needed for one deterministic run."""

    n: int = 256
    dt: float = 1e-3
    t_end: float = 0.5
    output_every: int = 10
    form: str = "euler"                        # "euler" | "mub"
    b: float = 2.0                             # euler is the b = 2 member and takes no other
    inertia: InertiaSpec = field(default_factory=InertiaSpec.mu_minus_dxx)
    initial: dict = field(default_factory=lambda: {"type": "preset", "name": "mucauchy"})
    dealias: bool = True
    blowup_threshold: float = 1e3
    track_flow: bool = False


@dataclass
class DiagnosticsRow:
    t: float
    mu_u: float
    mu_m: float
    energy_mu: float
    energy_A: float
    linf_u: float
    min_gx: float          # nan when the flow is not tracked


DIAGNOSTICS_COLUMNS = ("t", "mu_u", "mu_m", "energy_mu", "energy_A", "linf_u", "min_gx")


@dataclass
class SimulationResult:
    config: SimulationConfig
    status: str
    rows: list[DiagnosticsRow]
    times: np.ndarray | None   # every accepted step, spacing dt (None when observed)
    u_history: np.ndarray | None   # (len(times), n)
    flow_history: np.ndarray | None = None  # unwrapped particle positions


def _step_count(dt: float, t_end: float) -> int:
    ratio = t_end / dt
    # checked before int(): a subnormal dt makes the ratio inf
    if not ratio < MAX_STEPS + 0.5:
        raise ValueError(f"dt: t_end/dt must be at most {MAX_STEPS} steps, got {ratio:.3g}")
    steps = int(round(ratio))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end: must be an integer number of dt steps")
    return steps


def validate_config(config: SimulationConfig) -> np.ndarray:
    """Raise ValueError naming the offending field; return the initial field it builds."""
    return _prepare(config)[0]


def _prepare(config: SimulationConfig) -> tuple:
    # validate the config; return its initial field and coefficient RHS
    for name, low in (("n", 8), ("output_every", 1)):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name}: must be an integer >= {low}, got {value!r}")
    if config.n % 2 or config.n > MAX_N:
        raise ValueError(f"n: grid size must be even and at most {MAX_N}, got {config.n!r}")
    for name in ("dt", "t_end", "blowup_threshold"):
        if not inertia.finite_real(getattr(config, name), name) > 0.0:
            raise ValueError(f"{name}: must be positive")
    _step_count(config.dt, config.t_end)
    b = inertia.finite_real(config.b, "b")
    for name in ("dealias", "track_flow"):
        if not isinstance(getattr(config, name), (bool, np.bool_)):
            raise ValueError(f"{name}: must be true or false")
    if config.form not in ("euler", "mub"):
        raise ValueError("form: must be 'euler' or 'mub'")
    # the velocity form is the b = 2 member of the family and takes no other b
    if config.form == "euler" and b != 2.0:
        raise ValueError(f"b: the euler form is the b = 2 member, got {config.b!r}")
    if not isinstance(config.inertia, InertiaSpec):
        raise ValueError("inertia: must be an InertiaSpec")
    rhs = coefficient_rhs(config.n, config.inertia, b, config.dealias)
    u0 = initial_field(config)
    if config.inertia.kind == "neg_dxx":
        if not inertia.mean_is_zero(u0):
            raise ValueError(
                "initial: -d_xx dynamics require mean-zero initial data "
                f"(mean is {spectral.mean(u0):.3e})")
    return u0, rhs


def initial_field(config: SimulationConfig) -> np.ndarray:
    """Build and validate the initial condition of a run."""
    spec = config.initial
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("initial: expected {'type': 'preset'|'trig', ...}")
    if spec["type"] == "preset":
        inertia.reject_unknown(spec, ("type", "name"), "initial")
        name = spec.get("name")
        if not isinstance(name, str) or name not in INITIAL_PRESETS:
            raise ValueError(f"initial.name: unknown preset {name!r}; "
                             f"available: {sorted(INITIAL_PRESETS)}")
        spec = INITIAL_PRESETS[name]
    elif spec["type"] == "trig":
        inertia.reject_unknown(spec, ("type", "mean", "cos", "sin"), "initial")
    else:
        raise ValueError(f"initial.type: must be 'preset' or 'trig', got {spec['type']!r}")
    cos, sin = spec.get("cos", []), spec.get("sin", [])
    for key, values in (("cos", cos), ("sin", sin)):
        if not isinstance(values, (list, tuple, np.ndarray)):
            raise ValueError(f"initial.{key}: must be a list of real numbers")
        for a in values:
            inertia.finite_real(a, f"initial.{key}")
    mean_value = inertia.finite_real(spec.get("mean", 0.0), "initial.mean")
    if config.dealias and max(len(cos), len(sin)) > config.n // 3:
        raise ValueError("initial: modes must stay within n/3 when dealiasing is on")
    try:
        return spectral.trig_field(config.n, mean_value, cos, sin)
    except ValueError as exc:
        raise ValueError(f"initial: {exc}") from None


def _min_gx(g: np.ndarray) -> float:
    gx = 1.0 + spectral.derivative(g - spectral.grid(g.size), 1)
    return float(gx.min())


def diagnostics(spec: InertiaSpec, u: np.ndarray, t: float,
                g: np.ndarray | None = None) -> DiagnosticsRow:
    """Conserved/monitored quantities of a state (momentum taken as A u)."""
    m = inertia.apply(spec, u)
    return DiagnosticsRow(
        t=t,
        mu_u=spectral.mean(u),
        mu_m=spectral.mean(m),
        energy_mu=spectral.inner_mu(u, u),
        energy_A=spectral.inner_l2(m, u),
        linf_u=float(np.max(np.abs(u))),
        min_gx=_min_gx(g) if g is not None else math.nan,
    )


def simulate(config: SimulationConfig, observe=None) -> SimulationResult:
    """Run the configured dynamics to t_end with fixed-step RK4.

    The RK4 state is rfft(u), followed in a tracked run by the flow map g;
    u itself comes from one inverse rfft per accepted step.  Diagnostics
    rows are emitted at t = 0, every ``output_every`` steps and at the last
    accepted step.  The run stops early, with the status flagged rather
    than raising, when the sup norm exceeds ``blowup_threshold`` or is
    non-finite, or when a tracked flow map stops being a diffeomorphism;
    numpy's overflow and invalid-value warnings are off for the run.
    ``observe(step, u, g)`` is called at every row (g None when untracked);
    without it the result keeps every accepted step instead.
    """
    u, rhs = _prepare(config)
    n = config.n
    dt = float(config.dt)
    steps = _step_count(config.dt, config.t_end)
    tracked = config.track_flow
    if tracked:
        # one real vector: rfft(u) as n + 2 floats, then g; g_t = u o g
        state = np.concatenate((np.fft.rfft(u).view(float), spectral.grid(n)))
        g = state[n + 2:]

        def advance(w):
            c = w[:n + 2].view(complex)
            # the velocity first: the off-grid kernel's tables then peak
            # before the right-hand side's result exists
            velocity = spectral.evaluate_rfft(c, w[n + 2:])
            return np.concatenate((rhs(c).view(float), velocity))

        def fields(w):
            return np.fft.irfft(w[:n + 2].view(complex), n), w[n + 2:]
    else:
        g = None
        state, advance = np.fft.rfft(u), rhs

        def fields(w):
            return np.fft.irfft(w, n), None
    history = [(u, g)] if observe is None else None
    rows = []

    def emit(s, u, g):
        rows.append(diagnostics(config.inertia, u, s * dt, g))
        if observe is not None:
            observe(s, u, g)
        return rows[-1]

    status = STATUS_COMPLETED
    # a run that overflows is flagged below, not warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        emit(0, u, g)
        for s in range(1, steps + 1):
            new = step_rk4(advance, state, dt)
            u_new, g_new = fields(new)
            # also true when u_new holds a NaN or an inf
            if not np.max(np.abs(u_new)) <= config.blowup_threshold:
                status = STATUS_BLOWUP
                if (s - 1) % config.output_every:
                    emit(s - 1, u, g)
                break
            state, u, g = new, u_new, g_new
            if history is not None:
                # g is a view into the state; a copy lets the state go
                history.append((u, None if g is None else g.copy()))
            if s % config.output_every == 0 or s == steps:
                if emit(s, u, g).min_gx <= 0.0:
                    status = STATUS_DIFFEO_LOST
                    break

    if history is None:
        return SimulationResult(config, status, rows, None, None)
    u_hist = np.asarray([u for u, _ in history])
    g_hist = np.asarray([g for _, g in history]) if tracked else None
    return SimulationResult(config, status, rows, dt * np.arange(len(history)), u_hist, g_hist)


@dataclass
class FlowSeries:
    """Flow maps g(t) on the particle grid, with Jacobians g_x.

    Positions are unwrapped (winding kept), so g - id is periodic and g_x
    comes from spectral differentiation of that difference.
    """

    times: np.ndarray
    g: np.ndarray    # (len(times), n)
    gx: np.ndarray   # (len(times), n)

    def min_gx(self) -> np.ndarray:
        return self.gx.min(axis=1)


def reconstruct_flow(u_series: np.ndarray, dt: float) -> FlowSeries:
    """Integrate the characteristic ODE g' = u(t, g) through a u time series.

    ``u_series`` holds snapshots spaced ``dt`` apart; each RK4 step of the
    flow spans 2*dt so the midpoint snapshot supplies the interior stage
    velocities.  Requires an even number of snapshot intervals.
    """
    u_series = np.asarray(u_series, dtype=float)
    if u_series.ndim != 2:
        raise ValueError("u_series must be a (times, grid) array")
    intervals = u_series.shape[0] - 1
    if intervals < 2 or intervals % 2:
        raise ValueError("u_series needs an even number of intervals (>= 2)")
    n = u_series.shape[1]
    h = 2.0 * dt

    def rhs(w):
        # w = (snapshot index, g): the index runs at 1/dt, so the stages of
        # a step of length h read snapshots 2i, 2i+1, 2i+1, 2i+2
        u = u_series[int(round(w[0]))]
        return np.concatenate(([1.0 / dt], spectral.evaluate(u, w[1:])))

    state = np.concatenate(([0.0], spectral.grid(n)))
    frames = [state[1:]]
    for _ in range(intervals // 2):
        state = step_rk4(rhs, state, h)
        frames.append(state[1:])
    g_arr = np.asarray(frames)
    times = h * np.arange(g_arr.shape[0])
    gx = 1.0 + spectral.derivative(g_arr - spectral.grid(n), 1)
    flow = FlowSeries(times=times, g=g_arr, gx=gx)
    bad = np.nonzero(flow.min_gx() <= 0.0)[0]
    if bad.size:
        raise ValueError(
            f"flow stopped being a diffeomorphism at t = {times[bad[0]]:.6g} "
            f"(min g_x = {flow.min_gx()[bad[0]]:.3e})")
    return flow


def _time_derivative(f: np.ndarray, h: float) -> np.ndarray:
    # 4th-order finite differences along axis 0 (one-sided at the ends)
    if f.shape[0] < 5:
        return np.gradient(f, h, axis=0, edge_order=2 if f.shape[0] > 2 else 1)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    return out


def flow_defect(flow: FlowSeries, u_at_flow_times: np.ndarray) -> np.ndarray:
    """Residual of the defining ODE, per flow time.

    Returns max_x |dg/dt - u(t) o g(t)| with dg/dt estimated by 4th-order
    time differences of the reconstructed positions.
    """
    u_at_flow_times = np.asarray(u_at_flow_times, dtype=float)
    if u_at_flow_times.shape != flow.g.shape:
        raise ValueError("need one u snapshot per flow time")
    h = float(flow.times[1] - flow.times[0])
    gdot = _time_derivative(flow.g, h)
    out = np.empty(flow.times.size)
    for j in range(flow.times.size):
        out[j] = np.max(np.abs(gdot[j] - spectral.evaluate(u_at_flow_times[j], flow.g[j])))
    return out
