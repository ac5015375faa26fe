"""mubflow benchmark runner.

    python3 perfbench/run.py --workload solve_untracked --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one report

Runs seeded jobs (see jobs.py) in this process through the public entry
point ``mubflow.cli.main``: one client, closed loop, no threads.  Each job
is checked (checks.py); a job that raises or fails a check counts as
failed and the run goes on.

With ``--trace 0`` the run measures set-up, then repeats passes over the
job list for ``--seconds``, each job timed between two samples of a
reference kernel that cancels the machine's speed drift (gauge.py), then
makes one untimed pass under tracemalloc.  With ``--trace 1`` it makes
plain passes for half the time and traced passes (tracer.py) for the other
half, and reports per-layer figures per pass.  Nothing waits on anything
else (one thread, no queue), so no wait-time metric exists.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from checks import check_job
from gauge import Gauge
from jobs import WORKLOADS, make_jobs, warmup_jobs
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESET_DIR = ROOT / "presets"
SETUP_REPS = 15

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "peak_alloc_mb": "MB"}

# grid-sized functions whose self time is also reported per grid size
SIZED = ("spectral.product", "spectral.derivative", "spectral.evaluate", "inertia.apply",
         "inertia.invert", "inertia.invert_mu_dxx_integral", "dynamics.euler_rhs",
         "dynamics.mub_rhs", "dynamics.diagnostics", "dynamics.simulate")
SIZES = (64, 256, 1024, 4096)
PER_LAYER = {
    **{f"{name}.{k}": u for name in ("spectral.product", "spectral.derivative",
                                     "spectral.evaluate", "inertia.apply", "inertia.invert",
                                     "inertia.invert_mu_dxx_integral", "dynamics.euler_rhs",
                                     "dynamics.mub_rhs", "dynamics.diagnostics",
                                     "dynamics.simulate", "analyzer.classify",
                                     "analyzer.euler_mub_residual")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "analyzer.offdiagonal_obstruction.self_s": "s",
    "analyzer.shift_limit_residual.self_s": "s",
    "spectral.evaluate.points": "count",
    "spectral.evaluate.table_bytes_computed": "B",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.calls_per_rhs": "ratio",
    "cli.simulate.self_s": "s",
    "cli.classify.self_s": "s",
    "cli.check-inverse.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.write_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
    **{f"{name}.self_s.n{n}": "s" for name in SIZED for n in SIZES},
}


def import_program():
    """Import ``mubflow.cli`` fresh from this checkout's ``src``."""
    if not (SRC / "mubflow" / "cli.py").is_file():
        raise FileNotFoundError(f"no mubflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "mubflow" or m.startswith("mubflow.")]:
        del sys.modules[name]
    cli = importlib.import_module("mubflow.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"mubflow imported from {cli.__file__}, not from {SRC}")
    return cli


def host_metadata(seed: int) -> dict:
    meta = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "seed": seed,
            "blas_threads": {k: os.environ.get(k, "unset") for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    return meta


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Runs and checks the jobs of one workload in a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.jobs = make_jobs(workload, seed)
        self.work = work
        self.cli = None
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.steps: dict[str, int] = {}
        self.job_peak = 0
        self.gauge = Gauge()
        self.expected: dict[str, float] = {}   # last wall time per slot, sizes gauge samples
        (work / "configs").mkdir(parents=True, exist_ok=True)

    def argv(self, job) -> list[str]:
        out = str(self.work / "out" / job.slot)
        if job.command == "simulate":
            if job.preset:
                config = PRESET_DIR / f"{job.preset}.json"
            else:
                config = self.work / "configs" / f"{job.slot}.json"
                if not config.exists():
                    config.write_text(json.dumps(job.config))
            return ["simulate", str(config), "--out", out, "--quiet"]
        if job.command == "classify":
            return ["classify", *job.args, "--out", out, "--quiet"]
        if job.command == "check-inverse":
            return ["check-inverse", *job.args, "--quiet"]
        return [job.command, *job.args]

    def _call(self, argv) -> tuple[object, str | None]:
        try:
            return self.cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return None, f"raised {type(exc).__name__}: {exc}"

    def run_job(self, job, gauged: bool = False) -> tuple[float, float]:
        """Run and check one job; return its wall time and normalised time.

        Only the CLI call is timed.  With ``gauged`` the call runs between
        two gauge samples (gauge.py); otherwise the normalised time is the
        wall time.
        """
        out = self.work / "out" / job.slot
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(job)
        buffer = io.StringIO()
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        with contextlib.redirect_stdout(buffer):
            if gauged:
                elapsed, normalised, (code, error) = self.gauge.around(
                    lambda: self._call(argv), self.expected.get(job.slot, 0.05), job.gauge)
                self.expected[job.slot] = elapsed
            else:
                span = self.tracer.open(f"cli.{job.command}") if self.tracer else None
                start = time.perf_counter()
                code, error = self._call(argv)
                elapsed = normalised = time.perf_counter() - start
                if span is not None:
                    self.tracer.close(span)
        if tracemalloc.is_tracing():
            self.job_peak = max(self.job_peak, tracemalloc.get_traced_memory()[1])
        self.attempted += 1
        if error is not None:
            problems = [error]
        else:
            pair = job.expect.get("pair")
            try:
                problems = check_job(job, code, out, buffer.getvalue(),
                                     self.work / "out" / pair if pair else None)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{job.slot}: " + "; ".join(problems))
        elif job.command == "simulate" and job.slot not in self.steps:
            summary = json.loads((out / "summary.json").read_text())
            self.steps[job.slot] = summary["steps_completed"]
        return elapsed, normalised

    def run_pass(self, jobs=None, gauged: bool = False) -> dict[str, tuple[float, float]]:
        return {job.slot: self.run_job(job, gauged) for job in (jobs or self.jobs)}

    def setup(self, reps: int) -> float:
        """Median normalised time of a fresh import of mubflow plus the warm-up jobs."""
        def once():
            self.cli = import_program()
            self.run_pass(warmup_jobs(self.workload))
        times, expected = [], 0.1
        for _ in range(reps):
            expected, normalised, _ = self.gauge.around(once, expected, "py")
            times.append(normalised)
        return statistics.median(times)

    def timed_passes(self, seconds: float, gauged: bool) -> list[dict[str, tuple[float, float]]]:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(gauged=gauged))
        return passes

    def peak_alloc_mb(self) -> float:
        self.job_peak = 0
        tracemalloc.start()
        try:
            self.run_pass()
        finally:
            tracemalloc.stop()
        return self.job_peak / 1e6


def slot_medians(passes, which: int) -> dict[str, float]:
    """Median over passes of each slot's wall (which=0) or normalised (which=1) time."""
    return {slot: statistics.median(p[slot][which] for p in passes) for slot in passes[0]}


def end_to_end(runner: Runner, setup_s: float, passes, peak_mb: float) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the per-command rates for the report.

    Times are normalised (gauge.py); the report also gives the wall time.
    """
    med = slot_medians(passes, 1)
    pass_s = sum(med.values())
    metrics = {"setup_s": setup_s, "jobs_per_s": len(med) / pass_s,
               "job_ms_p50": 1e3 * statistics.median(med.values()), "peak_alloc_mb": peak_mb}
    report = {"passes": len(passes), "jobs_per_pass": len(med), "pass_s": pass_s,
              "pass_wall_s": sum(slot_medians(passes, 0).values())}
    by_command = {}
    for job in runner.jobs:
        by_command.setdefault(job.command, []).append(med[job.slot])
    if "simulate" in by_command:
        steps = sum(runner.steps.get(job.slot, 0) for job in runner.jobs)
        report["steps_per_s"] = steps / sum(by_command["simulate"])
    for command, key in (("classify", "classify_per_s"), ("check-inverse", "inverse_checks_per_s")):
        if command in by_command:
            report[key] = len(by_command[command]) / sum(by_command[command])
    return metrics, report


def install_tracer(tracer: Tracer, cli) -> None:
    """Wrap the public functions of every mubflow module and numpy.fft."""
    mods = sys.modules
    spectral, inertia = mods["mubflow.spectral"], mods["mubflow.inertia"]
    dynamics, analyzer = mods["mubflow.dynamics"], mods["mubflow.analyzer"]

    def arg_size(i):
        return lambda args, kwargs: int(np.size(args[i]))

    def on_evaluate(args, kwargs, result):
        n, points = np.size(args[0]), np.size(args[1])
        tracer.counters["spectral.evaluate.points"] += points
        tracer.counters["spectral.evaluate.table_bytes_computed"] += (n // 2 - 1) * points * 16

    for owner, attr, name, size_of, on_call in (
            (spectral, "product", "spectral.product", arg_size(0), None),
            (spectral, "derivative", "spectral.derivative", arg_size(0), None),
            (spectral, "evaluate", "spectral.evaluate", arg_size(0), on_evaluate),
            (inertia, "apply", "inertia.apply", arg_size(1), None),
            (inertia, "invert", "inertia.invert", arg_size(1), None),
            (inertia, "invert_mu_dxx_integral", "inertia.invert_mu_dxx_integral",
             arg_size(0), None),
            (dynamics, "euler_rhs", "dynamics.euler_rhs", arg_size(1), None),
            (dynamics, "mub_rhs", "dynamics.mub_rhs", arg_size(1), None),
            (dynamics, "diagnostics", "dynamics.diagnostics", arg_size(1), None),
            (dynamics, "simulate", "dynamics.simulate", lambda a, k: a[0].n, None),
            (analyzer, "classify", "analyzer.classify", None, None),
            (cli, "classify", "analyzer.classify", None, None),
            (analyzer, "euler_mub_residual", "analyzer.euler_mub_residual", None, None),
            (cli, "euler_mub_residual", "analyzer.euler_mub_residual", None, None),
            (analyzer, "offdiagonal_obstruction", "analyzer.offdiagonal_obstruction", None, None),
            (analyzer, "shift_limit_residual", "analyzer.shift_limit_residual", None, None),
            (cli, "shift_limit_residual", "analyzer.shift_limit_residual", None, None),
            (cli, "load_config", "cli.load_config", None, None)):
        tracer.wrap(owner, attr, name, size_of, on_call)

    def on_fft(args, kwargs, inverse_real=False):
        a = args[0]
        n = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("n")
        if n is None:
            n = 2 * (a.shape[-1] - 1) if inverse_real else a.shape[-1]
        tracer.counters["fft.calls"] += 1
        tracer.counters["fft.points"] += n * (a.size // a.shape[-1])
        if tracer.is_open("dynamics.euler_rhs") or tracer.is_open("dynamics.mub_rhs"):
            tracer.counters["fft.calls_in_rhs"] += 1

    for attr in ("fft", "ifft", "rfft"):
        tracer.count(np.fft, attr, on_fft)
    tracer.count(np.fft, "irfft", lambda a, k: on_fft(a, k, inverse_real=True))


def output_size(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    return sum(p.stat().st_size for p in files), len(files)


def traced_pass(runner: Runner) -> tuple[dict, dict]:
    """One pass with the tracer installed; the wrappers are gone when it returns."""
    tracer = Tracer()
    install_tracer(tracer, runner.cli)
    runner.tracer = tracer
    times, written, files = {}, 0, 0
    try:
        for job in runner.jobs:
            times[job.slot] = runner.run_job(job)
            size, count = output_size(runner.work / "out" / job.slot)
            written, files = written + size, files + count
    finally:
        runner.tracer = None
        tracer.restore()
    values = {**tracer.summary(), **tracer.counters,
              "cli.bytes_written": written, "cli.files_written": files}
    rhs_calls = values.get("dynamics.euler_rhs.calls", 0) + values.get("dynamics.mub_rhs.calls", 0)
    values["fft.calls_per_rhs"] = values.get("fft.calls_in_rhs", 0) / rhs_calls if rhs_calls else 0.0
    cli_self = sum(v for k, v in values.items() if k.startswith("cli.") and k.endswith(".self_s"))
    values["cli.write_mb_per_s"] = written / 1e6 / cli_self if cli_self else 0.0
    return times, values


def traced_metrics(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics per pass (medians over traced passes), and trace overhead.

    Plain and traced passes alternate, so both see the same machine.
    """
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        times, values = traced_pass(runner)
        traced.append(times)
        per_pass.append(values)
    metrics = {name: statistics.median(p.get(name, 0) for p in per_pass) for name in PER_LAYER}
    metrics["trace.overhead_s"] = (sum(slot_medians(traced, 0).values())
                                   - sum(slot_medians(plain, 0).values()))
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(workload, seed, work / workload)
    result = {"workload": workload, "why": WORKLOADS[workload]}
    if trace:
        runner.setup(1)
        metrics = traced_metrics(runner, seconds)
        units = PER_LAYER
    else:
        setup_s = runner.setup(SETUP_REPS)
        passes = runner.timed_passes(seconds, gauged=True)
        peak = runner.peak_alloc_mb()
        metrics, result["report"] = end_to_end(runner, setup_s, passes, peak)
        units = END_TO_END
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
                  metrics={k: {"value": float(metrics[k]), "unit": units[k]} for k in units})
    return result


def print_report(result: dict) -> None:
    print(f"# workload {result['workload']}: {result['why']}")
    for key, value in result.get("report", {}).items():
        unit = "1/s" if key.endswith("_per_s") else ("s" if key.endswith("_s") else "")
        print(f"#   {key:24s} {value:.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"#   {'failed_frac':24s} {frac:.6g} ({result['failed']} of {result['attempted']} jobs)")
    for problem in result["problems"][:20]:
        print(f"#   FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default=None,
                        help="also write results and host metadata to this file")
    args = parser.parse_args(argv)

    try:
        import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    meta = host_metadata(args.seed)
    print(f"# mubflow benchmark seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items() if k != "seed"))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), work)
                   for w in workloads]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print_report(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.json_out:
        meta["cpu_model"] = cpu_model()
        record = {"host": meta, "seconds": args.seconds, "trace": args.trace,
                  "results": results}
        Path(args.json_out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
