"""Command-line front end: simulate, classify, check-inverse, residual.

Configurations are JSON files (see ``SimulationConfig`` and the shipped
presets).  Simulation output is a fixed-schema diagnostics CSV plus
snapshot files and a JSON run summary; files are written to a temporary
name and renamed so aborted runs never leave partial CSVs.

Exit codes: 0 success / run completed, 1 invalid configuration or
arguments, 2 run flagged (blow-up suspected, diffeomorphism lost) or a
check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dynamics, inertia, spectral
from .analyzer import classify, euler_mub_residual, json_text, shift_limit_residual
from .dynamics import DIAGNOSTICS_COLUMNS, SimulationConfig

__all__ = ["main", "load_config"]

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SimulationConfig)}
# rows per write of a streamed snapshot CSV
_SNAPSHOT_BLOCK = 512


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def load_config(path: str | os.PathLike) -> SimulationConfig:
    """Parse a JSON run configuration; :func:`dynamics.simulate` validates it."""
    try:
        with open(path) as fh:
            raw = json.loads(fh.read())
    except OSError as exc:
        raise ValueError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config: invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"config: JSON in {path} is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("config: top level must be an object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config: unknown field {unknown[0]!r}")
    kwargs = dict(raw)
    if "inertia" in kwargs:
        kwargs["inertia"] = inertia.InertiaSpec.from_dict(kwargs["inertia"])
    return SimulationConfig(**kwargs)


def _write_atomic(path: str, text: str) -> None:
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def _diagnostics_csv(rows) -> str:
    lines = [",".join(DIAGNOSTICS_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in DIAGNOSTICS_COLUMNS))
    return "\n".join(lines) + "\n"


def _row_templates(x: np.ndarray) -> list[str]:
    # one "x_i,%.17g\n" template per row block of a snapshot; "%.17g" of a
    # float is _fmt
    return ["".join(f"{a:.17g},%.17g\n" for a in x[i:i + _SNAPSHOT_BLOCK].tolist())
            for i in range(0, len(x), _SNAPSHOT_BLOCK)]


def _write_field_csv(path: str, templates: list[str], values: np.ndarray, name: str) -> None:
    # streamed one row block per template, then renamed
    with open(path + ".tmp", "w") as fh:
        fh.write(f"x,{name}\n")
        for i, template in enumerate(templates):
            fh.write(template % tuple(values[i * _SNAPSHOT_BLOCK:(i + 1) * _SNAPSHOT_BLOCK].tolist()))
    os.replace(path + ".tmp", path)


def _cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # plain str paths: pathlib would intern every new snapshot file name
    out = args.out
    snapdir = os.path.join(out, "snapshots")
    templates = None
    written = []

    def write_snapshot(step, u, g):
        nonlocal templates
        if templates is None:
            # step 0 comes after validation, so a rejected config leaves no
            # --out; a rerun replaces the whole output set, and summary.json
            # is written last.  The x column is formatted once per run.
            templates = _row_templates(spectral.grid(u.size))
            os.makedirs(snapdir, exist_ok=True)
            stale = [os.path.join(snapdir, f) for f in os.listdir(snapdir)
                     if f.startswith(("u_", "g_")) and f.endswith(".csv")]
            for path in [*stale, os.path.join(out, "summary.json")]:
                if os.path.isfile(path):
                    os.remove(path)
        _write_field_csv(os.path.join(snapdir, f"u_{step:06d}.csv"), templates, u, "u")
        if g is not None:
            _write_field_csv(os.path.join(snapdir, f"g_{step:06d}.csv"), templates, g, "g")
        written.append(step)

    try:
        result = dynamics.simulate(config, observe=write_snapshot)
    except ValueError as exc:
        if templates is not None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_atomic(os.path.join(out, "diagnostics.csv"), _diagnostics_csv(result.rows))
    summary = {
        "status": result.status,
        "t_final": result.rows[-1].t,
        "steps_completed": written[-1],
        "rows": len(result.rows),
        "config": {**{k: v for k, v in vars(config).items() if k not in ("inertia", "initial")},
                   "inertia": config.inertia.to_dict(),
                   "initial": config.initial},
    }
    _write_atomic(os.path.join(out, "summary.json"), json_text(summary) + "\n")

    if not args.quiet:
        print(f"status: {result.status}")
        print(f"t_final: {result.rows[-1].t:.6g}  rows: {len(result.rows)}")
        print(f"wrote {os.path.join(out, 'diagnostics.csv')}")
    return 0 if result.status == dynamics.STATUS_COMPLETED else 2


def _b_overflowed(values: dict) -> bool:
    # a huge --b overflows the witnesses: the flag's error, not NaN output
    bad = [name for name, v in values.items() if v is not None and not math.isfinite(v)]
    if bad:
        print(f"error: --b: too large, {bad[0]} is not finite", file=sys.stderr)
    return bool(bad)


def _cmd_classify(args) -> int:
    with np.errstate(over="ignore", invalid="ignore"):
        report = classify(args.b, max_k=args.max_k, trial_modes=args.modes)
    if _b_overflowed({c.name: c.witness for c in report.checks}):
        return 1
    text = report.to_json()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.json")
        _write_atomic(path, text + "\n")
        if not args.quiet:
            print(f"wrote {path}")
    if not args.quiet:
        print(f"b = {report.b:g}: {report.verdict}"
              + (f" ({report.reason})" if report.reason else ""))
        for c in report.checks:
            state = {True: "pass", False: "FAIL", None: "n/a"}[c.passed]
            witness = "" if c.witness is None else f" witness={c.witness:.6g}"
            print(f"  {c.name}: {state}{witness}")
    return 0


def _cmd_check_inverse(args) -> int:
    rng = np.random.default_rng(args.seed)
    max_mode = min(32, args.n // 3)
    worst = size = 0.0
    for _ in range(args.trials):
        u = spectral.random_trig_field(args.n, max_mode, rng)
        direct = inertia.invert(inertia.MU_MINUS_DXX, u)
        nested = inertia.invert_mu_dxx_integral(u)
        # np.maximum keeps a NaN deviation, which then fails the check
        worst = np.maximum(worst, np.max(np.abs(nested - direct)))
        size = max(size, float(np.max(np.abs(u))))
    # both inverses are exact, so the deviation is round-off, which grows
    # with the size of the fields
    ok = worst <= 1e-10 * max(1.0, size)
    if not args.quiet:
        print(f"max deviation over {args.trials} trials (n={args.n}, "
              f"modes<={max_mode}): {worst:.3e} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_residual(args) -> int:
    n = args.n
    k = abs(args.mode)
    if k >= n // 6:
        print("error: --mode: too large for the grid (need |k| < n/6)", file=sys.stderr)
        return 1
    u = spectral.trig_field(n, 0.0, [0.0] * (k - 1) + [1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        r7 = euler_mub_residual(inertia.MU_MINUS_DXX, args.b, u)
        r8 = shift_limit_residual(inertia.MU_MINUS_DXX, args.b, u)
    if _b_overflowed({"rhs_residual": r7, "shift_limit_residual": r8}):
        return 1
    print(f"rhs_residual: {_fmt(r7)}")
    print(f"shift_limit_residual: {_fmt(r8)}")
    return 0


# argument limits per subcommand: dest -> (test, message); a value that
# fails its test gives exit 1 with "error: --flag: message"
_FINITE = (math.isfinite, "must be a finite real number")
_GRID = (lambda v: 4 <= v <= dynamics.MAX_N and v % 2 == 0,
         f"must be an even integer from 4 to {dynamics.MAX_N}")
# classify's trial fields live on a 64-point grid, below its Nyquist mode 32
_TRIAL_MODES = (lambda v: 1 <= v <= 31, "must be an integer from 1 to 31")
# the secular and off-diagonal scans build O(max_k) Python objects, and
# check-inverse's run time is linear in --trials
_UP_TO_10000 = (lambda v: 1 <= v <= 10000, "must be an integer from 1 to 10000")


def _bad_argument(args) -> str | None:
    for dest, (test, message) in args.limits.items():
        value = getattr(args, dest)
        if not test(value):
            return f"--{dest.replace('_', '-')}: {message}, got {value!r}"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubflow",
        description="Pseudospectral solver and metric-compatibility analyzer "
                    "for the mu-b family on the circle (period-1 convention).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("config", help="JSON configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_simulate, limits={})

    p = sub.add_parser("classify", help="metric-compatibility report for a parameter b")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--max-k", type=int, default=8, dest="max_k")
    p.add_argument("--modes", type=int, default=6)
    p.add_argument("--out", default=None, help="directory for report.json")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_classify,
                   limits={"b": _FINITE, "max_k": _UP_TO_10000, "modes": _TRIAL_MODES})

    p = sub.add_parser("check-inverse",
                       help="cross-validate the nested-integral inverse against spectral division")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_check_inverse,
                   limits={"n": _GRID, "seed": (lambda v: v >= 0, "must be an integer >= 0"),
                           "trials": _UP_TO_10000})

    p = sub.add_parser("residual",
                       help="print both right-hand-side residuals on a single cosine mode")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_residual,
                   limits={"b": _FINITE, "mode": (lambda v: v != 0, "must be a nonzero integer"),
                           "n": _GRID})

    return parser


# built once per process; main() only parses
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    error = _bad_argument(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
