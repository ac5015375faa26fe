import math

import numpy as np
import pytest

from mubflow import analyzer as cl
from mubflow import inertia as io
from mubflow import spectral as sp

PI = math.pi
TWO_PI = 2.0 * PI
L = io.MU_MINUS_DXX


# mode quantities ------------------------------------------------------------

def test_homogeneous_wavenumber_values():
    assert cl.homogeneous_wavenumber(2.0, 1) == pytest.approx(1.0 / PI + TWO_PI, rel=1e-15)
    assert cl.homogeneous_wavenumber(2.0, 1) == pytest.approx(6.6014, abs=1e-4)
    # resonance: at b = 0 the homogeneous wavenumber equals the forcing one
    assert cl.homogeneous_wavenumber(0.0, 1) == TWO_PI
    # the coupled case: b = -2 p^2 with p = 2 pi gives -p
    assert cl.homogeneous_wavenumber(-8.0 * PI ** 2, 1) == pytest.approx(-TWO_PI, rel=1e-14)


def test_homogeneous_wavenumber_rejects_zero_mode():
    with pytest.raises(ValueError, match="nonzero"):
        cl.homogeneous_wavenumber(2.0, 0)


def test_diagonal_symbol_values():
    assert cl.diagonal_symbol(2.0, 1) == pytest.approx(TWO_PI ** 2, rel=1e-15)
    assert cl.diagonal_symbol(2.0, 2) == pytest.approx((2 * TWO_PI) ** 2, rel=1e-15)
    assert cl.diagonal_symbol(4.0, 1) == pytest.approx(TWO_PI ** 2 / 2.0, rel=1e-15)


def test_forced_symbol_at_b2_is_the_metric_symbol():
    # exact float equality: 2 n^2 / 2 == n^2
    for k in range(1, 9):
        assert cl.diagonal_symbol(2.0, k) == (TWO_PI * k) ** 2
        assert cl.diagonal_symbol(2.0, k) == L.symbol_at(k)


def test_diagonal_symbol_undefined_at_zero():
    with pytest.raises(ValueError, match="b = 0"):
        cl.diagonal_symbol(0.0, 1)


# residuals ------------------------------------------------------------------

def test_euler_mub_residual_vanishes_at_b2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = sp.random_trig_field(256, 32, rng)
        assert cl.euler_mub_residual(L, 2.0, u) <= 1e-9


def test_euler_mub_residual_single_mode_oracle():
    # brute-force both sides on u = cos(2 pi x): the gap is L^{-1}((b-2)(Lu) u_x),
    # a mode-2 sine of amplitude |b-2| (2 pi)^3 / (2 (4 pi)^2) = |b-2| pi / 4
    def oracle(b):
        return abs(b - 2.0) * TWO_PI ** 3 / (2.0 * (2.0 * TWO_PI) ** 2)

    assert oracle(3.0) == pytest.approx(PI / 4.0, rel=1e-15)
    u = np.cos(TWO_PI * sp.grid(256))
    assert cl.euler_mub_residual(L, 3.0, u) == pytest.approx(PI / 4.0, abs=1e-9)
    assert cl.euler_mub_residual(L, 2.5, u) == pytest.approx(oracle(2.5), abs=1e-9)


def test_euler_mub_residual_linear_in_b():
    # slope |b - 2| * 2 pi / 8 on the first cosine mode
    u = np.cos(TWO_PI * sp.grid(256))
    slope = TWO_PI / 8.0
    for b in (1.9, 2.0, 2.1):
        assert cl.euler_mub_residual(L, b, u) == pytest.approx(
            abs(b - 2.0) * slope, abs=1e-6)


def test_euler_mub_residual_constants_trivial():
    assert cl.euler_mub_residual(L, 3.0, np.ones(64)) <= 1e-13


def test_euler_mub_residual_on_a_stack_is_one_sup_norm_per_row():
    rng = np.random.default_rng(4)
    stack = np.array([sp.random_trig_field(64, 12, rng) for _ in range(5)])
    for b in (2.0, 3.0, -0.7):
        rows = [cl.euler_mub_residual(L, b, u) for u in stack]
        assert all(type(r) is float for r in rows)
        assert np.array_equal(cl.euler_mub_residual(L, b, stack), rows)


def test_shift_limit_residual_values():
    # mode-wise oracle: mode n responds with (2 + n^2)/n^2 on one side and
    # (b + n^2)/n^2 on the other; the gap is |b - 2| / n^2 times |u_x|
    n1 = TWO_PI
    u = np.sin(TWO_PI * sp.grid(256))
    assert cl.shift_limit_residual(L, 2.0, u) <= 1e-10
    expected = abs(3.0 - 2.0) / n1 ** 2 * n1
    assert expected == pytest.approx(1.0 / TWO_PI, rel=1e-15)
    assert cl.shift_limit_residual(L, 3.0, u) == pytest.approx(expected, abs=1e-9)


def test_shift_limit_residual_constant_input():
    assert cl.shift_limit_residual(L, 5.0, np.ones(64)) <= 1e-13


def test_shift_limit_requires_normalized_operator():
    doubled = io.InertiaSpec(kind="mu_minus_dxx", scale=2.0)
    with pytest.raises(ValueError, match="normalize"):
        cl.shift_limit_residual(doubled, 2.0, np.ones(64))


# secular check ---------------------------------------------------------------

def test_secular_only_at_zero():
    chk = cl.secular_obstruction(0.0)
    assert chk.passed is False and chk.witness == 0.0
    assert chk.detail.startswith("resonant")
    for b in (2.0, 3.0, -1.0):
        chk = cl.secular_obstruction(b)
        assert chk.passed is True
        assert chk.witness == abs(b) / TWO_PI
        assert chk.detail.startswith("non-resonant")
        assert cl.diagonal_symbol(b, 1) == pytest.approx(2.0 * TWO_PI ** 2 / b)


def test_secular_betas_for_b3():
    assert cl.secular_obstruction(3.0).passed
    assert cl.diagonal_symbol(3.0, 1) == pytest.approx(2.0 * TWO_PI ** 2 / 3.0, rel=1e-15)


# multiplier consistency --------------------------------------------------------

def test_multiplier_consistency_passes_only_at_two():
    assert cl.multiplier_consistency(2.0).passed
    assert cl.multiplier_consistency(2.0).witness == 0.0
    chk = cl.multiplier_consistency(3.0)
    assert not chk.passed
    # arithmetic oracle: |24 - 8 (b+1)| = 8 at b = 3, and the raw mode-1
    # residual |12 s_1 - (b+1) s_2| carries the n^2 / b factor
    assert chk.witness == pytest.approx(8.0, rel=1e-14)
    residual = abs(12.0 * cl.diagonal_symbol(3.0, 1) - 4.0 * cl.diagonal_symbol(3.0, 2))
    assert residual == pytest.approx(8.0 * TWO_PI ** 2 / 3.0, rel=1e-12)
    assert chk.detail == f"|24 - 8(b+1)| = 8; mode-1 residual {residual:.6g}"


def test_multiplier_consistency_unique_zero_on_grid():
    grid = np.linspace(-10.0, 10.0, 2001)
    grid = grid[np.abs(grid) > 1e-9]
    passing = [b for b in grid if cl.multiplier_consistency(float(b)).passed]
    assert len(passing) == 1
    assert passing[0] == pytest.approx(2.0, abs=1e-12)
    # root-finding oracle on the closed form 24 - 8 (b + 1)
    from scipy.optimize import brentq
    root = brentq(lambda b: 24.0 - 8.0 * (b + 1.0), 0.5, 5.0)
    assert passing[0] == pytest.approx(root, abs=1e-12)


def test_multiplier_consistency_scaled_residual_is_exact():
    for b in (-3.0, 1.0, 2.0, 5.5):
        chk = cl.multiplier_consistency(b)
        assert chk.witness == abs(24.0 - 8.0 * (b + 1.0))


# off-diagonal scan ---------------------------------------------------------------

def test_offdiagonal_vacuous_for_positive_b():
    scan = cl.offdiagonal_obstruction(3.0)
    assert not any(p.admissible for p in scan.probes)
    assert scan.contradiction_modes == []
    assert "no admissible" in scan.conclusion
    assert scan.all_ruled_out


def test_offdiagonal_vacuous_at_b2():
    scan = cl.offdiagonal_obstruction(2.0)
    assert not any(p.admissible for p in scan.probes)
    assert scan.all_ruled_out


def test_offdiagonal_contradiction_trace():
    b = -8.0 * PI ** 2  # = -2 p^2 for p = 2 pi
    scan = cl.offdiagonal_obstruction(b)
    assert set(scan.contradiction_modes) == {-1, 1}
    probe = next(p for p in scan.probes if p.k == 1)
    assert probe.admissible and probe.chain_holds
    # forced symbol at the coupled mode is -1, partner eigenvalue -4
    assert probe.replay["beta_p"] == pytest.approx(-1.0, rel=1e-14)
    assert probe.replay["beta_2p"] == pytest.approx(-4.0, rel=1e-14)
    # the constant-mode coefficient equation: i p gamma = 0
    assert probe.replay["const_coeff_lhs"] == pytest.approx(1j * TWO_PI, abs=1e-12)
    assert abs(probe.replay["const_coeff_rhs"]) <= 1e-13
    assert abs(probe.replay["solved_gamma"]) <= 1e-10
    assert probe.replay["gamma_forced_zero"]
    # unit hypothesis is off by exactly p in the constant coefficient
    assert probe.replay["inconsistency"] == pytest.approx(TWO_PI, rel=1e-12)
    assert scan.all_ruled_out


@pytest.mark.parametrize("k", [1, 2, -1])
def test_offdiagonal_replay_matches_a_symbolic_expansion(k):
    # expand both sides on u = e^{ipx} from scratch, at b = -2 p^2 with
    # A e_p = gamma e_{-p} + beta_p e_p, and read the constant and e^{2ipx}
    # coefficients as Fourier integrals over [0, 1]
    import sympy
    x, gamma = sympy.symbols("x gamma")
    p = 2 * sympy.pi * k
    b = -2 * p ** 2
    beta_p, beta_2p = 2 * p ** 2 / b, 2 * (2 * p) ** 2 / b   # forced symbols 2 n^2 / b
    u = sympy.exp(sympy.I * p * x)
    au = gamma * sympy.exp(-sympy.I * p * x) + beta_p * u
    lu = sympy.integrate(u, (x, 0, 1)) - sympy.diff(u, x, 2)   # mu - d_xx
    lhs = 2 * au * sympy.diff(u, x) + u * sympy.diff(au, x)
    rhs = b * lu * sympy.diff(u, x) + u * sympy.diff(lu, x)

    def coeff(f, m):
        return sympy.integrate(sympy.expand(f * sympy.exp(-sympy.I * m * p * x)), (x, 0, 1))

    # A is normalized on constants and has e_{2p} as an eigenvector; L^{-1}
    # divides mode 2p by (2p)^2
    const_lhs, const_rhs = coeff(lhs, 0), coeff(rhs, 0)
    (solved_gamma,) = sympy.solve(sympy.Eq(const_lhs, const_rhs), gamma)
    expected = {
        "const_coeff_lhs": const_lhs.subs(gamma, 1),
        "const_coeff_rhs": const_rhs.subs(gamma, 1),
        "mode2p_coeff_lhs": (coeff(lhs, 2) / beta_2p).subs(gamma, 1),
        "mode2p_coeff_rhs": (coeff(rhs, 2) / (2 * p) ** 2).subs(gamma, 1),
        "solved_gamma": solved_gamma,
        "inconsistency": sympy.Abs(const_lhs - const_rhs).subs(gamma, 1),
    }
    replay = cl._replay_contradiction(float(b), k)
    for key, value in expected.items():
        assert replay[key] == pytest.approx(complex(value), rel=1e-12, abs=0), key


def test_offdiagonal_admissible_but_chain_broken():
    # at b = -8 pi^2 mode k = 2 passes the integrality test but its partner
    # does not map back, so the coupling is ruled out without a replay
    scan = cl.offdiagonal_obstruction(-8.0 * PI ** 2)
    probe = next(p for p in scan.probes if p.k == 2)
    assert probe.admissible
    assert not probe.chain_holds
    assert probe.gamma_forced_zero


def test_offdiagonal_rejects_resonant_case():
    with pytest.raises(ValueError, match="resonant"):
        cl.offdiagonal_obstruction(0.0)


# classification ------------------------------------------------------------------

def test_classify_metric_only_at_two():
    for b in (-8.0 * PI ** 2, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0):
        report = cl.classify(b)
        assert (report.verdict == "metric") == (b == 2.0)


def test_classify_two_reports_the_symbol():
    report = cl.classify(2.0)
    assert report.verdict == "metric"
    assert report.inertia["kind"] == "mu_minus_dxx"
    assert "(2*pi*k)^2" in report.inertia["symbol"]
    assert report.reason is None
    assert all(c.passed for c in report.checks)


def test_classify_three_witnesses():
    report = cl.classify(3.0)
    assert report.verdict == "non-metric"
    assert report.reason == "multiplier_consistency"
    by_name = {c.name: c for c in report.checks}
    assert by_name["multiplier_consistency"].witness == pytest.approx(8.0)
    assert by_name["rhs_residual"].witness == pytest.approx(PI / 4.0, abs=1e-9)
    assert not by_name["rhs_residual"].passed


def test_classify_zero_is_secular():
    report = cl.classify(0.0)
    assert report.verdict == "non-metric"
    assert report.reason == "secular_obstruction"
    by_name = {c.name: c for c in report.checks}
    assert by_name["multiplier_consistency"].passed is None


def test_classify_nonmetric_has_failed_check_with_finite_witness():
    for b in (-2.0, 0.0, 4.0):
        report = cl.classify(b)
        failed = [c for c in report.checks if c.passed is False]
        assert failed
        assert all(np.isfinite(c.witness) for c in failed)


def test_report_json_is_json_dumps_and_leaves_no_reference_cycles():
    import gc
    import json
    reports = [cl.classify(b) for b in (0.0, 2.0, 3.0, -8.0 * PI ** 2)]
    reports.append(cl.ClassificationReport(
        b=1.0, verdict="non-metric", inertia={}, reason=None,
        checks=[cl.CheckOutcome("x", None, float("inf"), "\u00e9 \"quoted\"\n"),
                cl.CheckOutcome("y", True, float("nan"))]))
    for report in reports:
        for indent in (0, 2, 4):
            assert report.to_json(indent) == json.dumps(report.to_dict(), indent=indent)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        reports[2].to_json()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_report_serializes_to_json():
    import json
    report = cl.classify(3.0)
    data = json.loads(report.to_json())
    assert data["verdict"] == "non-metric"
    assert data["checks"][0]["name"] == "secular_obstruction"


def test_classify_numpy_scalar_b_serializes_like_a_float():
    for b in (0.0, 2.0, 3.0):
        assert cl.classify(np.float64(b)).to_json() == cl.classify(b).to_json()


def test_report_checks_are_the_check_functions_outcomes():
    # classify adds no formatting of its own to the first three checks
    rng = np.random.default_rng(31)
    for b in [2.0, 3.0, -2.0, -8.0 * PI ** 2, 1e300, *rng.uniform(-10.0, 10.0, 8).tolist()]:
        with np.errstate(over="ignore", invalid="ignore"):
            checks = cl.classify(b).checks
        assert [c.name for c in checks] == ["secular_obstruction", "multiplier_consistency",
                                            "offdiagonal_obstruction", "rhs_residual"]
        assert checks[0] == cl.secular_obstruction(b)
        assert checks[1] == cl.multiplier_consistency(b)
        assert checks[2] == cl.offdiagonal_obstruction(b).outcome
    assert cl.classify(0.0).checks[0] == cl.secular_obstruction(0.0)


def test_classify_passes_every_trial_mode_in_one_stack(monkeypatch):
    stacks = []

    def spy(spec, b, u):
        stacks.append(u)
        return residual(spec, b, u)

    residual = cl.euler_mub_residual
    monkeypatch.setattr(cl, "euler_mub_residual", spy)
    cl.classify(3.0, trial_modes=31)
    (stack,) = stacks
    assert stack.shape == (31, 64)
    for k, row in enumerate(stack, start=1):
        assert np.array_equal(row, sp.trig_field(64, 0.0, [0.0] * (k - 1) + [1.0]))


@pytest.mark.parametrize("trial_modes", [1, 6, 31])
def test_classify_rhs_residual_matches_a_per_mode_loop(trial_modes):
    # the reference: one trig_field and one residual call per trial mode
    rng = np.random.default_rng(trial_modes)
    sweep = [2.0, 3.0, -2.0, 1e-3, -8.0 * PI ** 2, 2.0 + 1e-9, 1e300,
             *rng.uniform(-10.0, 10.0, 8)]
    for b in sweep:
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = {k: cl.euler_mub_residual(L, b, sp.trig_field(64, 0.0, [0.0] * (k - 1) + [1.0]))
                         for k in range(1, trial_modes + 1)}
            check = cl.classify(b, trial_modes=trial_modes).checks[-1]
        worst = max(residuals.values())
        assert check.name == "rhs_residual"
        assert check.witness == residuals[1] and check.passed == (worst <= cl.RESIDUAL_TOL)
        assert check.detail == (f"sup-norm mismatch on cosine modes 1..{trial_modes}, "
                                f"worst {worst:.6g} at mode {max(residuals, key=residuals.get)}")


def test_classify_memory_is_bounded():
    import tracemalloc

    cl.classify(3.0)
    tracemalloc.start()
    try:
        cl.classify(3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (6, 64) trial stack, its factor block and its 3/2-rule samples
    assert peak <= 0.1e6
