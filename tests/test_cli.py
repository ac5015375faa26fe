import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubflow import cli, dynamics
from mubflow.dynamics import DIAGNOSTICS_COLUMNS

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def write_config(tmp_path, **overrides):
    config = {
        "form": "euler",
        "inertia": {"kind": "mu_minus_dxx"},
        "initial": {"type": "preset", "name": "mucauchy"},
        "n": 128,
        "dt": 0.001,
        "t_end": 0.05,
        "output_every": 10,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_simulate_conservation_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0

    header, data = read_csv(out / "diagnostics.csv")
    assert tuple(header) == DIAGNOSTICS_COLUMNS
    energy = data[:, header.index("energy_mu")]
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) <= 1e-6

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    snapshots = sorted((out / "snapshots").glob("u_*.csv"))
    assert snapshots  # one per output time
    first = snapshots[0].read_text().splitlines()
    assert first[0] == "x,u"


def test_simulate_shipped_conservation_preset(tmp_path):
    out = tmp_path / "much"
    code = cli.main(["simulate", str(PRESETS / "mu_ch_conservation.json"),
                     "--out", str(out), "--quiet"])
    assert code == 0
    header, data = read_csv(out / "diagnostics.csv")
    energy = data[:, header.index("energy_mu")]
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) <= 1e-6
    assert np.min(data[:, header.index("min_gx")]) > 0.0


def test_simulate_rejects_bad_dt(tmp_path):
    cfg = write_config(tmp_path, dt=-0.001)
    code = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1


def test_simulate_error_names_offending_field(tmp_path, capsys):
    cfg = write_config(tmp_path, initial={"type": "preset", "name": "bogus"})
    code = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert "initial" in captured.err


def test_simulate_rejects_unknown_field(tmp_path, capsys):
    cfg = write_config(tmp_path, viscosity=0.1)
    code = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert "viscosity" in capsys.readouterr().err


def test_simulate_shock_preset_flags_and_still_writes(tmp_path):
    out = tmp_path / "shock"
    code = cli.main(["simulate", str(PRESETS / "burgers_shock.json"),
                     "--out", str(out), "--quiet"])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diffeomorphism lost"
    header, data = read_csv(out / "diagnostics.csv")
    assert data[-1, header.index("min_gx")] <= 0.0
    # outputs are complete despite the flag: no partial rows
    assert data.shape[1] == len(DIAGNOSTICS_COLUMNS)
    assert not list(out.glob("*.tmp"))


def test_simulate_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, t_end=0.02)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["simulate", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_simulate_tracked_flow_writes_g_snapshots(tmp_path):
    cfg = write_config(tmp_path, t_end=0.02, track_flow=True)
    out = tmp_path / "flow"
    assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert sorted((out / "snapshots").glob("g_*.csv"))



def snapshot_steps(out, prefix):
    return sorted(int(p.stem[2:]) for p in (out / "snapshots").glob(f"{prefix}_*.csv"))


@pytest.mark.parametrize("overrides, code, status", [
    (dict(t_end=0.025, track_flow=True), 0, "completed"),
    (json.loads((PRESETS / "burgers_shock.json").read_text()), 2, "diffeomorphism lost"),
    # stopped by blow-up at step 473, between two output steps
    (dict(inertia={"kind": "helmholtz", "lam": 0}, initial={"type": "trig", "sin": [0.1]},
          n=64, dt=1e-3, t_end=1, output_every=20, blowup_threshold=0.1005), 2,
     "blow-up suspected"),
], ids=["completed", "diffeo_lost", "blowup"])
def test_snapshots_match_diagnostics_rows(tmp_path, overrides, code, status):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == code
    summary = json.loads((out / "summary.json").read_text())
    dt = summary["config"]["dt"]
    assert summary["status"] == status
    assert summary["t_final"] == summary["steps_completed"] * dt
    header, data = read_csv(out / "diagnostics.csv")
    row_steps = [round(t / dt) for t in data[:, header.index("t")]]
    assert row_steps[-1] == summary["steps_completed"]
    assert snapshot_steps(out, "u") == row_steps
    assert snapshot_steps(out, "g") == (row_steps if summary["config"]["track_flow"] else [])


def test_rerun_clears_stale_snapshots(tmp_path):
    out = tmp_path / "out"
    for t_end in (0.05, 0.02):
        cfg = write_config(tmp_path, t_end=t_end)
        assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert snapshot_steps(out, "u") == [0, 10, 20]
    assert json.loads((out / "summary.json").read_text())["steps_completed"] == 20


def test_simulate_rejects_short_diagonal_symbol(tmp_path, capsys):
    cfg = write_config(tmp_path, n=16, initial={"type": "trig", "cos": [0.2]},
                       inertia={"kind": "diagonal", "symbol": {"0": 1, "1": 2}})
    out = tmp_path / "out"
    assert cli.main(["simulate", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inertia.symbol:") and "|k| = 2" in err
    assert not out.exists()


def test_simulate_validates_the_config_once(tmp_path, monkeypatch):
    calls = []
    prepare = dynamics._prepare
    monkeypatch.setattr(dynamics, "_prepare", lambda config: calls.append(1) or prepare(config))
    assert cli.main(["simulate", str(write_config(tmp_path)), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    assert len(calls) == 1


def test_simulate_value_error_after_first_row_propagates(tmp_path, monkeypatch):
    diagnostics = dynamics.diagnostics

    def fail_after_row_0(spec, u, t, g=None):
        if t > 0.0:
            raise ValueError("late")
        return diagnostics(spec, u, t, g)

    monkeypatch.setattr(dynamics, "diagnostics", fail_after_row_0)
    with pytest.raises(ValueError, match="late"):
        cli.main(["simulate", str(write_config(tmp_path)), "--out", str(tmp_path / "o")])
    assert (tmp_path / "o" / "snapshots" / "u_000000.csv").is_file()


def test_snapshot_writer_matches_fmt(tmp_path):
    n = 4096
    values = np.random.default_rng(3).standard_normal(n) * 10.0 ** np.arange(-8, 8).repeat(n // 16)
    values[:5] = [np.nan, -0.0, np.inf, 5e-324, -np.inf]
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    path = tmp_path / "u_000000.csv"
    cli._write_field_csv(str(path), x, values, "u")
    expected = "x,u\n" + "".join(f"{cli._fmt(a)},{cli._fmt(b)}\n" for a, b in zip(x, values))
    assert path.read_bytes() == expected.encode()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("field, overrides", [
    ("dt", {"dt": "0.001"}),
    ("b", {"b": None}),
    ("blowup_threshold", {"blowup_threshold": "x"}),
    ("track_flow", {"track_flow": "no"}),
    ("dealias", {"dealias": 0}),
    ("output_every", {"output_every": True}),
    ("n", {"n": 256.0}),
    ("inertia.lam", {"inertia": {"kind": "helmholtz", "lam": "z"}}),
])
def test_simulate_rejects_mistyped_field(tmp_path, capsys, field, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_simulate_rejects_deeply_nested_json(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"initial": ' + "[" * 100000 + "]" * 100000 + "}")
    out = tmp_path / "o"
    assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


DIAGONAL = {str(k): 1.0 + k * k for k in range(65)}


@pytest.mark.parametrize("field, overrides", [
    ("inertia.lamda", {"inertia": {"kind": "helmholtz", "lam": 0.5, "lamda": 3},
                       "initial": {"type": "trig", "sin": [0.1], "amp": 2}}),
    ("inertia.lam", {"inertia": {"kind": "mu_minus_dxx", "lam": 0.5}}),
    ("inertia.lam", {"inertia": {"kind": "neg_dxx", "lam": 0.5}}),
    ("inertia.lam", {"inertia": {"kind": "diagonal", "symbol": DIAGONAL, "lam": 1.0}}),
    ("inertia.symbol", {"inertia": {"kind": "helmholtz", "lam": 0.5, "symbol": {"0": 1.0}}}),
    ("inertia.Scale", {"inertia": {"kind": "mu_minus_dxx", "Scale": 2.0}}),
    ("initial.amp", {"initial": {"type": "trig", "sin": [0.1], "amp": 2}}),
    ("initial.name", {"initial": {"type": "trig", "name": "cos1"}}),
    ("initial.mean", {"initial": {"type": "preset", "name": "mucauchy", "mean": 0.1}}),
    ("initial.cos", {"initial": {"type": "preset", "name": "cos1", "cos": [0.1]}}),
])
def test_simulate_rejects_unknown_nested_field(tmp_path, capsys, field, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: unknown field")
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"inertia": {"kind": "mu_minus_dxx", "scale": 2.0}},
    {"inertia": {"kind": "neg_dxx", "scale": 1.0}, "initial": {"type": "trig", "sin": [0.1]}},
    {"inertia": {"kind": "helmholtz", "lam": 0.5, "scale": 2.0}},
    {"inertia": {"kind": "diagonal", "symbol": DIAGONAL, "scale": 0.5}},
    {"initial": {"type": "trig", "mean": 0.1, "cos": [0.2], "sin": [0.1]}},
    {"initial": {"type": "preset", "name": "cos1"}},
], ids=["mu_minus_dxx", "neg_dxx", "helmholtz", "diagonal", "trig", "preset"])
def test_simulate_accepts_every_field_it_reads(tmp_path, overrides):
    cfg = write_config(tmp_path, t_end=0.01, **overrides)
    assert cli.main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0


FUZZ_BASE = {
    "form": "euler", "b": 2.0, "inertia": {"kind": "helmholtz", "lam": 0.5},
    "initial": {"type": "trig", "mean": 0.1, "cos": [0.2], "sin": [0.1]},
    "n": 16, "dt": 0.01, "t_end": 0.02, "output_every": 1, "dealias": True,
    "blowup_threshold": 1000.0, "track_flow": True,
}
FUZZ_PATHS = ([(k,) for k in FUZZ_BASE]
              + [("inertia", k) for k in ("kind", "lam", "scale")]
              + [("initial", k) for k in ("type", "name", "mean", "cos", "sin")]
              + [("initial", "cos", 0)])
# mistyped values only: a drawn float is non-integral and at least 1e-3 in
# size, so it never turns dt or t_end into a long valid run
MISTYPED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 1e-3 and x != int(x)),
    st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=MISTYPED)
def test_fuzzed_config_keeps_the_exit_contract(path, value):
    config = json.loads(json.dumps(FUZZ_BASE))
    *parents, key = path
    node = config
    for p in parents:
        node = node[p]
    node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        code = cli.main(["simulate", str(cfg), "--out", str(out), "--quiet"])
        assert code in (0, 1, 2)
        if code == 1:
            assert not out.exists()
        else:
            assert (out / "summary.json").is_file()


def test_classify_command_writes_report(tmp_path, capsys):
    out = tmp_path / "rep"
    code = cli.main(["classify", "--b", "3", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "non-metric"
    assert "non-metric" in capsys.readouterr().out


def test_classify_command_metric(tmp_path, capsys):
    assert cli.main(["classify", "--b", "2"]) == 0
    assert "metric" in capsys.readouterr().out


def test_classify_command_secular(capsys):
    assert cli.main(["classify", "--b", "0"]) == 0
    out = capsys.readouterr().out
    assert "secular_obstruction: FAIL" in out


def test_check_inverse_command(capsys):
    assert cli.main(["check-inverse", "--n", "256", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_inverse_low_resolution(capsys):
    assert cli.main(["check-inverse", "--n", "16", "--seed", "1"]) == 0
    assert "modes<=5" in capsys.readouterr().out


def test_residual_command(capsys):
    assert cli.main(["residual", "--b", "3", "--mode", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = {line.split(":")[0]: float(line.split(":")[1]) for line in lines}
    assert values["rhs_residual"] == pytest.approx(np.pi / 4.0, abs=1e-9)
    assert values["shift_limit_residual"] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-9)


def test_residual_command_metric_case(capsys):
    assert cli.main(["residual", "--b", "2", "--mode", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = {line.split(":")[0]: float(line.split(":")[1]) for line in lines}
    assert values["rhs_residual"] <= 1e-9
    assert values["shift_limit_residual"] <= 1e-9


def test_residual_rejects_zero_mode(capsys):
    assert cli.main(["residual", "--b", "2", "--mode", "0"]) == 1
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--b", "nan"], "--b"),
    (["classify", "--b", "inf"], "--b"),
    (["classify", "--b", "1", "--modes", "0"], "--modes"),
    (["classify", "--b", "1", "--modes", "-1"], "--modes"),
    (["classify", "--b", "1", "--max-k", "0"], "--max-k"),
    (["residual", "--b", "nan", "--mode", "1"], "--b"),
    (["residual", "--b", "2", "--mode", "1", "--n", "13"], "--n"),
    (["check-inverse", "--n", "7"], "--n"),
    (["check-inverse", "--n", "0"], "--n"),
    (["check-inverse", "--n", "-4"], "--n"),
    (["check-inverse", "--trials", "0"], "--trials"),
    (["check-inverse", "--seed", "-1"], "--seed"),
    (["classify", "--b", "1e308"], "--b"),
    (["residual", "--b", "1e308", "--mode", "1"], "--b"),
])
def test_bad_argument_exits_1_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "report"
    if argv[0] == "classify":
        argv = [*argv, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ") and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("n", ["4", "6"])
def test_check_inverse_smallest_grids(capsys, n):
    assert cli.main(["check-inverse", "--n", n, "--trials", "2"]) == 0
    assert "ok" in capsys.readouterr().out
