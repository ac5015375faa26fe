"""Self-tests of the benchmark harness: python -m pytest perfbench -q"""

import itertools
import json
import sys

import numpy as np
import pytest

import run
from checks import check_job
from jobs import CFL, WORKLOADS, make_jobs
from tracer import Tracer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_repeats_for_a_seed(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_data_not_work(workload):
    def shape(job):
        config = job.config or {}
        return (job.slot, job.command, job.steps, config.get("n"), config.get("output_every"),
                config.get("track_flow"), job.expect.get("n"), job.expect.get("trials"),
                tuple(a for a in job.args if a.startswith("--")))
    assert [shape(j) for j in make_jobs(workload, 1)] == [shape(j) for j in make_jobs(workload, 2)]


def test_time_step_follows_cfl_rule():
    for job in make_jobs("solve_untracked", 3):
        config, initial = job.config, job.config["initial"]
        n = config["n"]
        x = np.arange(n) / n
        u0 = initial["mean"] + sum(
            c * np.cos(2 * np.pi * (j + 1) * x) + s * np.sin(2 * np.pi * (j + 1) * x)
            for j, (c, s) in enumerate(zip(initial["cos"], initial["sin"])))
        umax = np.max(np.abs(u0))
        assert 0.1 <= umax <= 2.0
        assert config["dt"] == pytest.approx(CFL * 2.8 / (3.0 * umax * np.pi * n), rel=1e-12)
        assert round(config["t_end"] / config["dt"]) == job.steps


def test_self_time_of_nested_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("outer")          # t=0
    inner = tracer.open("inner", 64)      # t=1
    leaf = tracer.open("leaf")            # t=2
    tracer.close(leaf)                    # t=3
    tracer.close(inner)                   # t=4
    second = tracer.open("inner", 256)    # t=5
    tracer.close(second)                  # t=6
    tracer.close(outer)                   # t=7
    assert tracer.self_times() == [7 - 3 - 1, 3 - 1, 1, 1]
    summary = tracer.summary()
    assert summary["outer.self_s"] == 3 and summary["outer.calls"] == 1
    assert summary["inner.calls"] == 2 and summary["inner.self_s"] == 3
    assert summary["inner.self_s.n64"] == 2 and summary["inner.self_s.n256"] == 1


def test_wrapper_times_calls_and_restores():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    tracer.wrap(Owner, "f", "owner.f", size_of=lambda a, k: a[0])
    assert Owner.f(4) == 5
    tracer.restore()
    assert Owner.f is original
    assert [s[0] for s in tracer.spans] == ["owner.f"] and tracer.spans[0][4] == 4


def _public_attrs(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_traced_run_restores_module_attributes(tmp_path):
    runner = run.Runner("analyze", 0, tmp_path)
    runner.setup(1)
    modules = [sys.modules[f"mubflow.{m}"]
               for m in ("spectral", "inertia", "dynamics", "analyzer", "cli")] + [np.fft]
    before = _public_attrs(modules)
    metrics = run.traced_metrics(runner, seconds=0.0)
    assert _public_attrs(modules) == before
    assert metrics["analyzer.classify.calls"] == 12
    assert metrics["dynamics.simulate.calls"] == 0
    assert metrics["spectral.evaluate.calls"] == 0
    assert runner.failed == 0


def test_checks_catch_a_wrong_verdict(tmp_path):
    runner = run.Runner("analyze", 0, tmp_path)
    runner.cli = run.import_program()
    job = next(j for j in runner.jobs if j.expect.get("b") == 2.0 and j.command == "classify")
    runner.run_job(job)
    assert runner.failed == 0
    out = tmp_path / "out" / job.slot
    report = json.loads((out / "report.json").read_text())
    report["verdict"] = "non-metric"
    (out / "report.json").write_text(json.dumps(report))
    assert check_job(job, 0, out, "")
