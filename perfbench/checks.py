"""Per-job correctness checks on the files and output of one CLI job.

Every check is stated independently of the seed: tolerances scale with the
data they guard.  A check returns a list of problems; an empty list means
the job passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# |mu_m(t) - mu_m(0)| <= MU_M_TOL * max|m0|: the mean of the momentum is an
# exact invariant of every form (its RHS has zero mean by symmetry), so only
# round-off may move it.
MU_M_TOL = 1e-12
# |E_A(t) - E_A(0)| <= ENERGY_TOL * |E_A(0)| for the geodesic (euler) form.
ENERGY_TOL = 1e-9
# mub at b = 2 versus euler with mu - d_xx on the same data, relative to max|u|.
PAIR_TOL = 1e-9
# classify's multiplier witness must equal 8|b - 2| to this relative accuracy.
WITNESS_TOL = 1e-12
# both residuals vanish at b = 2.
RESIDUAL_TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def symbol(kind: str, lam: float, n: int) -> np.ndarray:
    """Inertia multipliers s_0..s_{n/2}, written out here as the checks' oracle."""
    k2 = (2.0 * np.pi * np.arange(n // 2 + 1)) ** 2
    if kind == "mu_minus_dxx":
        k2[0] = 1.0
        return k2
    if kind == "helmholtz":
        return 1.0 + lam * k2
    return k2


def check_simulate(job, code: int, out: Path, pair_out: Path | None) -> list[str]:
    exp = job.expect
    problems = []
    if code != exp["exit"]:
        problems.append(f"exit code {code}, expected {exp['exit']}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["status"] != exp["status"]:
        problems.append(f"status {summary['status']!r}, expected {exp['status']!r}")
    header, diag = read_csv(out / "diagnostics.csv")
    col = {name: diag[:, i] for i, name in enumerate(header)}
    steps = summary["steps_completed"]
    if exp["status"] == "completed" and steps != job.steps:
        problems.append(f"{steps} steps completed, expected {job.steps}")

    config = summary["config"]
    _, u0 = read_csv(out / "snapshots" / "u_000000.csv")
    kind = exp["inertia"] if exp["form"] == "euler" else "mu_minus_dxx"
    m0 = np.fft.irfft(np.fft.rfft(u0[:, 1]) * symbol(kind, config["inertia"].get("lam", 0.0),
                                                      u0.shape[0]), u0.shape[0])
    drift = float(np.max(np.abs(col["mu_m"] - col["mu_m"][0])))
    if not drift <= MU_M_TOL * float(np.max(np.abs(m0))):
        problems.append(f"mu_m drift {drift:.3e} exceeds {MU_M_TOL:g} * max|m0|")
    if exp["form"] == "euler":
        e = col["energy_A"]
        rel = float(np.max(np.abs(e - e[0]))) / abs(e[0])
        if not rel <= ENERGY_TOL:
            problems.append(f"energy_A relative drift {rel:.3e} exceeds {ENERGY_TOL:g}")
    if exp["track_flow"]:
        min_gx = float(col["min_gx"][-1])
        if exp["status"] == "completed" and not min_gx > 0.0:
            problems.append(f"flow tracked to completion with min g_x = {min_gx:.3e}")
        if "t_break" in exp and not exp["t_break"] <= summary["t_final"] < config["t_end"]:
            problems.append(f"flow lost at t = {summary['t_final']:.6g}, before the "
                            f"breaking time {exp['t_break']:.6g} or not at all")
    if pair_out is not None:
        name = f"u_{steps:06d}.csv"
        _, a = read_csv(out / "snapshots" / name)
        _, b = read_csv(pair_out / "snapshots" / name)
        gap = float(np.max(np.abs(a[:, 1] - b[:, 1])))
        if not gap <= PAIR_TOL * max(1.0, float(np.max(np.abs(b[:, 1])))):
            problems.append(f"mub at b=2 differs from euler/mu_minus_dxx by {gap:.3e}")
    return problems


def check_classify(job, code: int, out: Path) -> list[str]:
    b = job.expect["b"]
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads((out / "report.json").read_text())
    problems = []
    if (report["verdict"] == "metric") != (b == 2.0):
        problems.append(f"verdict {report['verdict']!r} at b = {b!r}")
    if (report["reason"] == "secular_obstruction") != (b == 0.0):
        problems.append(f"reason {report['reason']!r} at b = {b!r}")
    checks = {c["name"]: c for c in report["checks"]}
    if b != 0.0:
        witness = checks["multiplier_consistency"]["witness"]
        want = 8.0 * abs(b - 2.0)
        if not abs(witness - want) <= WITNESS_TOL * max(1.0, want):
            problems.append(f"multiplier witness {witness!r}, expected 8|b-2| = {want!r}")
    return problems


def check_residual(job, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    values = [float(line.split(":")[1]) for line in stdout.splitlines()
              if line.startswith(("rhs_residual:", "shift_limit_residual:"))]
    if len(values) != 2 or not all(math.isfinite(v) for v in values):
        return [f"unreadable residual output {stdout!r}"]
    if job.expect["b"] == 2.0 and max(values) > RESIDUAL_TOL:
        return [f"residuals {values} do not vanish at b = 2"]
    return []


def check_job(job, code: int, out: Path, stdout: str, pair_out: Path | None = None) -> list[str]:
    """Problems found in one finished job (empty when it is correct)."""
    if job.command == "simulate":
        return check_simulate(job, code, out, pair_out)
    if job.command == "classify":
        return check_classify(job, code, out)
    if job.command == "residual":
        return check_residual(job, code, stdout)
    return [] if code == job.expect["exit"] else [f"exit code {code}"]
