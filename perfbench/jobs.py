"""Seeded job generator for the mubflow benchmark.

A job is one ``mubflow`` command line: ``simulate`` with a JSON config,
``classify``, ``check-inverse`` or ``residual``.  The program under test
receives only the generated configs and arguments.

Each workload has a fixed list of job slots; the seed draws the data that
fills them (initial fields, b, lambda, check-inverse seeds).  Grid sizes,
step counts and output cadence belong to the slot, not to the seed, so the
work of a pass -- and hence every throughput figure -- does not depend on
the seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = {
    "solve_untracked": (
        "simulate, track_flow off, n=256/1024/4096, euler with three operators and mub: "
        "the RHS chain dominates and spectral.evaluate is never called"),
    "solve_tracked": (
        "both shipped presets plus seeded track_flow runs at n=1024: the O(n^2) off-grid "
        "spectral.evaluate dominates and RHS work is a minor share"),
    "analyze": (
        "classify sweep (b=0, 2, -2(2 pi k)^2, seeded b), check-inverse at n=256/1024 and "
        "residual: analyzer and the O(n^2) integral inverse, no RK4, no flow"),
}

# Velocity amplitude max|u0| is drawn from this range: unit-order speeds, as
# in the shipped presets (0.1 and 0.2).
AMPLITUDE_RANGE = (0.1, 2.0)
# Number of Fourier modes in a seeded initial field; coefficients decay like
# (1 + k)^-2 and are then rescaled to the drawn amplitude.
INITIAL_MODES = 3
# Fraction of the RK4 stability limit used for dt; the advection speed is
# taken as 3 max|u0| (the Burgers speed of helmholtz at lam = 0, which
# bounds the other operators) and the top wavenumber as pi n.
CFL = 0.4
B_RANGE = (-3.0, 5.0)           # mub parameter for seeded solve jobs
LAM_RANGE = (0.0, 0.05)         # helmholtz lambda
CLASSIFY_B_RANGE = (-10.0, 10.0)
CLASSIFY_RANDOM = 8             # seeded b values per classify sweep
CLASSIFY_FIXED = (0.0, 2.0, -2.0 * (2.0 * math.pi) ** 2, -2.0 * (4.0 * math.pi) ** 2)

# (n, steps) of the untracked slots; the 400-step n=1024 mub run is the one
# whose history (steps x n) sets the workload's peak memory.
UNTRACKED_STEPS = {256: 60, 1024: 60, 4096: 24}
UNTRACKED_LONG = (1024, 400)
TRACKED_N, TRACKED_STEPS = 1024, 20


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its checks need to know."""

    slot: str                      # stable name; the same slot in every pass
    command: str                   # simulate | classify | check-inverse | residual
    args: tuple = ()               # CLI arguments after the command, without paths
    config: dict | None = None     # generated simulate config
    preset: str | None = None      # shipped preset name, used unchanged
    expect: dict = field(default_factory=dict)
    gauge: str = "fft"             # gauge kernel matching the job's hot loop (gauge.py)

    @property
    def steps(self) -> int:
        return int(self.expect.get("steps", 0))


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def initial_coefficients(rng, n: int, mean_zero: bool) -> tuple[dict, float]:
    """Random band-limited initial field scaled to a drawn max|u0|.

    Returns the ``initial`` config entry and the realised max|u0| on the
    n-point grid.
    """
    k = np.arange(1, INITIAL_MODES + 1)
    decay = (1.0 + k) ** -2.0
    cos = rng.standard_normal(INITIAL_MODES) * decay
    sin = rng.standard_normal(INITIAL_MODES) * decay
    mean = 0.0 if mean_zero else float(rng.uniform(-0.5, 0.5)) * float(np.max(decay))
    amplitude = float(rng.uniform(*AMPLITUDE_RANGE))
    x = np.arange(n) / n
    phase = 2.0 * np.pi * np.outer(k, x)
    u0 = mean + cos @ np.cos(phase) + sin @ np.sin(phase)
    scale = amplitude / float(np.max(np.abs(u0)))
    initial = {"type": "trig", "mean": mean * scale,
               "cos": [float(c) for c in cos * scale],
               "sin": [float(s) for s in sin * scale]}
    return initial, amplitude


def cfl_dt(n: int, umax: float) -> float:
    return CFL * 2.8 / (3.0 * umax * math.pi * n)


def simulate_config(n: int, steps: int, form: str, inertia: dict, initial: dict,
                    umax: float, b: float = 2.0, track_flow: bool = False) -> dict:
    dt = cfl_dt(n, umax)
    return {"form": form, "b": b, "inertia": inertia, "initial": initial,
            "n": n, "dt": dt, "t_end": steps * dt,
            "output_every": max(1, steps // 4), "dealias": True,
            "blowup_threshold": 1000.0, "track_flow": track_flow}


def _simulate_job(slot, config, form, inertia_kind, steps, pair=None) -> Job:
    return Job(slot=slot, command="simulate", config=config,
               expect={"steps": steps, "form": form, "inertia": inertia_kind,
                       "status": "completed", "exit": 0, "pair": pair,
                       "track_flow": config["track_flow"]})


def _solve_untracked(rng) -> list[Job]:
    jobs = []
    for n, steps in UNTRACKED_STEPS.items():
        initial, umax = initial_coefficients(rng, n, mean_zero=False)
        mu = {"kind": "mu_minus_dxx"}
        jobs.append(_simulate_job(
            f"euler-mu_minus_dxx-n{n}",
            simulate_config(n, steps, "euler", mu, initial, umax), "euler", "mu_minus_dxx", steps))
        # same data through the momentum form at b = 2 must agree with the job above
        jobs.append(_simulate_job(
            f"mub-b2-n{n}",
            simulate_config(n, steps, "mub", mu, initial, umax, b=2.0), "mub", "mu_minus_dxx",
            steps, pair=f"euler-mu_minus_dxx-n{n}"))
        mub_steps = UNTRACKED_LONG[1] if n == UNTRACKED_LONG[0] else steps
        initial, umax = initial_coefficients(rng, n, mean_zero=False)
        b = float(rng.uniform(*B_RANGE))
        jobs.append(_simulate_job(
            f"mub-n{n}", simulate_config(n, mub_steps, "mub", mu, initial, umax, b=b),
            "mub", "mu_minus_dxx", mub_steps))
        initial, umax = initial_coefficients(rng, n, mean_zero=False)
        helm = {"kind": "helmholtz", "lam": float(rng.uniform(*LAM_RANGE))}
        jobs.append(_simulate_job(
            f"euler-helmholtz-n{n}", simulate_config(n, steps, "euler", helm, initial, umax),
            "euler", "helmholtz", steps))
        initial, umax = initial_coefficients(rng, n, mean_zero=True)
        jobs.append(_simulate_job(
            f"euler-neg_dxx-n{n}",
            simulate_config(n, steps, "euler", {"kind": "neg_dxx"}, initial, umax),
            "euler", "neg_dxx", steps))
    return jobs


def _solve_tracked(rng) -> list[Job]:
    jobs = [
        # burgers_shock is built to break: characteristics cross after
        # t* = 1/(3 * 0.1 * 2 pi), so the run must stop with the flow flagged
        Job(slot="preset-burgers_shock", command="simulate", preset="burgers_shock",
            expect={"steps": 1000, "form": "euler", "inertia": "helmholtz",
                    "status": "diffeomorphism lost", "exit": 2, "track_flow": True,
                    "t_break": 1.0 / (3.0 * 0.1 * 2.0 * math.pi)}),
        Job(slot="preset-mu_ch_conservation", command="simulate", preset="mu_ch_conservation",
            expect={"steps": 500, "form": "euler", "inertia": "mu_minus_dxx",
                    "status": "completed", "exit": 0, "track_flow": True}),
    ]
    n, steps = TRACKED_N, TRACKED_STEPS
    mu = {"kind": "mu_minus_dxx"}
    initial, umax = initial_coefficients(rng, n, mean_zero=False)
    jobs.append(_simulate_job(
        f"tracked-euler-mu_minus_dxx-n{n}",
        simulate_config(n, steps, "euler", mu, initial, umax, track_flow=True),
        "euler", "mu_minus_dxx", steps))
    initial, umax = initial_coefficients(rng, n, mean_zero=False)
    b = float(rng.uniform(*B_RANGE))
    jobs.append(_simulate_job(
        f"tracked-mub-n{n}",
        simulate_config(n, steps, "mub", mu, initial, umax, b=b, track_flow=True),
        "mub", "mu_minus_dxx", steps))
    return jobs


def _analyze(rng) -> list[Job]:
    bs = list(CLASSIFY_FIXED) + [float(b) for b in rng.uniform(*CLASSIFY_B_RANGE, CLASSIFY_RANDOM)]
    jobs = [Job(slot=f"classify-{i}", command="classify", args=("--b", repr(b)), expect={"b": b})
            for i, b in enumerate(bs)]
    for n, trials, count in ((256, 5, 2), (1024, 1, 1)):
        for i in range(count):
            jobs.append(Job(
                slot=f"check-inverse-n{n}-{i}", command="check-inverse",
                args=("--n", str(n), "--seed", str(int(rng.integers(2**31))),
                      "--trials", str(trials)),
                expect={"exit": 0, "n": n, "trials": trials}, gauge="table"))
    for i, b in enumerate((2.0, float(rng.uniform(*CLASSIFY_B_RANGE)))):
        mode = int(rng.integers(1, 5))
        jobs.append(Job(slot=f"residual-{i}", command="residual",
                        args=("--b", repr(b), "--mode", str(mode), "--n", "256"),
                        expect={"b": b, "exit": 0}))
    return jobs


_BUILDERS = {"solve_untracked": _solve_untracked, "solve_tracked": _solve_tracked,
             "analyze": _analyze}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of ``workload``; the same seed gives the same jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[workload](rng_for(workload, seed))


def warmup_jobs(workload: str) -> list[Job]:
    """Short jobs that touch every code path of a workload.

    Run at set-up, so that FFT plans and first-call costs are paid before
    timing; they are part of ``setup_s``.  The O(n^2) tables of
    spectral.evaluate and of the integral inverse are warmed at a small n
    only: they hold no cache, and at large n they would make set-up time
    mostly that of one timed job.
    """
    def short(n, form, kind, track):
        initial = {"type": "trig", "mean": 0.0, "cos": [], "sin": [0.1]}
        return _simulate_job(f"warmup-{form}-{kind}-n{n}",
                             simulate_config(n, 2, form, {"kind": kind}, initial, 0.1,
                                             track_flow=track), form, kind, 2)
    if workload == "solve_untracked":
        return [short(n, "euler", "mu_minus_dxx", False) for n in UNTRACKED_STEPS]
    if workload == "solve_tracked":
        return [short(64, "euler", "mu_minus_dxx", True),
                *[short(n, "euler", "mu_minus_dxx", False) for n in (256, TRACKED_N)]]
    return [Job(slot="warmup-classify", command="classify", args=("--b", "1.0"),
                expect={"b": 1.0}),
            Job(slot="warmup-check-inverse", command="check-inverse",
                args=("--n", "256", "--seed", "0", "--trials", "1"), expect={"exit": 0}),
            Job(slot="warmup-residual", command="residual",
                args=("--b", "2.0", "--mode", "1", "--n", "256"), expect={"b": 2.0, "exit": 0})]
