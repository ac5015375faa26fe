import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubflow import spectral as sp

TWO_PI = 2.0 * np.pi


def lowpass(u, kmax):
    c = sp.transform(u)
    k = sp.mode_numbers(u.size)
    c[np.abs(k) > kmax] = 0.0
    return sp.inverse_transform(c)


coeff_lists = st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=6)


# transforms -----------------------------------------------------------------

def test_transform_constant():
    c = sp.transform(np.ones(16))
    assert c[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(c[1:])) < 1e-15


def test_transform_single_cosine_mode():
    x = sp.grid(8)
    c = sp.transform(np.cos(TWO_PI * x))
    assert c[1] == pytest.approx(0.5, abs=1e-14)
    assert c[-1] == pytest.approx(0.5, abs=1e-14)
    others = np.delete(c, [1, 7])
    assert np.max(np.abs(others)) < 1e-14


def test_round_trip_random():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(64)
    back = sp.inverse_transform(sp.transform(f))
    assert np.max(np.abs(back - f)) <= 1e-12


@pytest.mark.parametrize("bad", [np.full(16, np.nan), np.full(16, np.inf)])
def test_transform_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        sp.transform(bad)


@pytest.mark.parametrize("size", [2, 7])
def test_transform_rejects_bad_length(size):
    with pytest.raises(ValueError, match="even"):
        sp.transform(np.zeros(size))


@pytest.mark.parametrize("bad, match", [(np.full(16, np.nan), "non-finite"),
                                        (np.full(16, np.inf), "non-finite"),
                                        (np.zeros(7), "even")])
def test_running_integrals_reject_bad_fields(bad, match):
    with pytest.raises(ValueError, match=match):
        sp.running_integrals(bad, 3)


@given(coeff_lists, coeff_lists)
@settings(deadline=None)
def test_hermitian_symmetry(cos, sin):
    c = sp.transform(sp.trig_field(32, 0.7, cos, sin))
    assert np.max(np.abs(c - np.conj(c[::-1].take(range(-1, 31))))) < 1e-13
    # explicit statement: c_{-k} == conj(c_k)
    k = np.arange(1, 16)
    assert np.max(np.abs(c[-k] - np.conj(c[k]))) < 1e-13


@given(coeff_lists, coeff_lists)
@settings(deadline=None)
def test_parseval(cos, sin):
    f = sp.trig_field(32, 0.3, cos, sin)
    c = sp.transform(f)
    lhs = sp.inner_l2(f, f)
    rhs = float(np.sum(np.abs(c) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# mean -----------------------------------------------------------------------

def test_mean_constant():
    assert sp.mean(np.ones(16)) == 1.0


def test_mean_zero_mode():
    assert sp.mean(np.sin(TWO_PI * sp.grid(64))) == pytest.approx(0.0, abs=1e-15)


def test_mean_quadrature_oracle():
    n = 256
    x = sp.grid(n)
    f = 0.3 + 0.2 * np.cos(2.0 * TWO_PI * x)
    # trapezoid quadrature on the closed fine grid as an independent oracle
    xf = np.linspace(0.0, 1.0, 8 * n + 1)
    oracle = np.trapezoid(0.3 + 0.2 * np.cos(2.0 * TWO_PI * xf), xf)
    assert oracle == pytest.approx(0.3, abs=1e-12)
    assert sp.mean(f) == pytest.approx(oracle, abs=1e-12)


# derivative -----------------------------------------------------------------

def test_derivative_sin():
    x = sp.grid(64)
    d = sp.derivative(np.sin(TWO_PI * x), 1)
    assert np.max(np.abs(d - TWO_PI * np.cos(TWO_PI * x))) < 1e-12


def test_derivative_second():
    x = sp.grid(64)
    d = sp.derivative(np.cos(TWO_PI * x), 2)
    assert np.max(np.abs(d + TWO_PI ** 2 * np.cos(TWO_PI * x))) < 1e-10


def test_derivative_rejects_order():
    with pytest.raises(ValueError, match="order"):
        sp.derivative(np.zeros(8), 4)


def test_derivative_matches_finite_differences_at_second_order():
    # centered differences of the trig interpolant converge at order >= 1.9
    rng = np.random.default_rng(1)
    f = sp.random_trig_field(64, 8, rng)
    exact = sp.derivative(f, 1)
    xs = sp.grid(64)

    def fd_error(h):
        approx = (sp.evaluate(f, xs + h) - sp.evaluate(f, xs - h)) / (2.0 * h)
        return np.max(np.abs(approx - exact))

    e1, e2 = fd_error(1e-3), fd_error(5e-4)
    order = np.log2(e1 / e2)
    assert order >= 1.9


@given(coeff_lists, coeff_lists)
@settings(deadline=None)
def test_derivative_has_zero_mean(cos, sin):
    f = sp.trig_field(32, 1.3, cos, sin)
    assert sp.mean(sp.derivative(f, 1)) == pytest.approx(0.0, abs=1e-13)


# product and dealiasing -----------------------------------------------------

def test_product_constants():
    one = np.ones(16)
    assert np.max(np.abs(sp.product(one, one) - 1.0)) < 1e-14


def test_product_trig_identity():
    # sin(2 pi x) cos(2 pi x) = sin(4 pi x) / 2, exact once n >= 8
    for n in (8, 32):
        x = sp.grid(n)
        p = sp.product(np.sin(TWO_PI * x), np.cos(TWO_PI * x))
        assert np.max(np.abs(p - 0.5 * np.sin(2.0 * TWO_PI * x))) < 1e-14


def _convolution_oracle(f, g):
    # exact product coefficients from convolving the coefficient lines
    n = f.size
    kf = sp.mode_numbers(n).astype(int)
    cf, cg = sp.transform(f), sp.transform(g)
    acc: dict[int, complex] = {}
    for i in range(n):
        for j in range(n):
            k = kf[i] + kf[j]
            acc[k] = acc.get(k, 0.0j) + cf[i] * cg[j]
    h = n // 2
    c = np.zeros(n, dtype=complex)
    for k, v in acc.items():
        if -h < k < h:
            c[k % n] += v
        elif abs(k) == h:
            c[h] += v
    return sp.inverse_transform(c)


def test_dealiased_product_matches_exact_truncation():
    rng = np.random.default_rng(2)
    n = 48
    f = sp.random_trig_field(n, n // 3, rng)
    g = sp.random_trig_field(n, n // 3, rng)
    assert np.max(np.abs(sp.product(f, g) - _convolution_oracle(f, g))) <= 1e-12


def test_dealiased_and_plain_agree_on_retained_band():
    # inputs band-limited to n/3: agreement on modes |k| < n/3 (2/3 rule),
    # and full agreement once inputs stay within n/4
    rng = np.random.default_rng(3)
    n = 48
    f = sp.random_trig_field(n, n // 3, rng)
    g = sp.random_trig_field(n, n // 3, rng)
    pd = sp.product(f, g, dealias=True)
    pp = sp.product(f, g, dealias=False)
    kmax = n // 3 - 1
    assert np.max(np.abs(lowpass(pd, kmax) - lowpass(pp, kmax))) <= 1e-12

    f4 = sp.random_trig_field(n, n // 4, rng)
    g4 = sp.random_trig_field(n, n // 4, rng)
    assert np.max(np.abs(sp.product(f4, g4) - f4 * g4)) <= 1e-12


def test_dealiased_product_has_no_spectral_tail():
    rng = np.random.default_rng(4)
    n = 96
    kin = n // 3
    f = sp.random_trig_field(n, kin, rng)
    g = sp.random_trig_field(n, kin, rng)
    c = sp.transform(sp.product(f, g))
    k = sp.mode_numbers(n)
    tail = np.abs(c[np.abs(k) > 2 * kin])
    assert tail.size == 0 or np.max(tail) <= 1e-13


def test_product_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="same grid"):
        sp.product(np.zeros(8), np.zeros(16))


def _pad_per_factor(c, m):
    # reference: one factor zero-padded on its own to the m-point grid, the
    # Nyquist cosine split evenly between +-n/2
    h = c.size - 1
    cf = np.zeros(m // 2 + 1, dtype=complex)
    cf[:h] = c[:h]
    cf[h] = 0.5 * c[h]
    return np.fft.irfft(cf, m)


def _quadratic_per_factor(terms, n, dealias):
    # oracle: one inverse transform per factor, the sum over (a, rfft f, rfft g)
    if not dealias:
        return np.fft.rfft(sum(a * np.fft.irfft(f, n) * np.fft.irfft(g, n) for a, f, g in terms))
    m, h = 3 * n // 2, n // 2
    c = np.fft.rfft(sum(a * _pad_per_factor(f, m) * _pad_per_factor(g, m)
                        for a, f, g in terms))[:h + 1]
    c[h] = 2.0 * c[h].real
    return c * (m / n)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("terms", [1, 2, 4])
@pytest.mark.parametrize("n", [4, 6, 8, 64, 1024, 4096])
def test_quadratic_matches_per_factor_kernel_bit_for_bit(n, terms, dealias):
    rng = np.random.default_rng([n, terms, dealias])
    # white-noise fields carry energy in every mode, the Nyquist mode included
    block = np.fft.rfft(rng.standard_normal((2 * terms, n)))
    assert np.min(np.abs(block[:, n // 2])) > 0.0
    weights = tuple(rng.standard_normal(terms))
    expected = _quadratic_per_factor(list(zip(weights, block[0::2], block[1::2])), n, dealias)
    assert np.array_equal(sp.quadratic(weights, block.copy(), n, dealias), expected)


def test_quadratic_rejects_a_block_of_the_wrong_shape():
    with pytest.raises(ValueError, match="same grid"):
        sp.quadratic((1.0, 1.0), np.zeros((2, 5), dtype=complex), 8)
    with pytest.raises(ValueError, match="same grid"):
        sp.quadratic((1.0,), np.zeros((2, 9), dtype=complex), 8)
    # one factor row alone, with no mode axis, is not a block
    with pytest.raises(ValueError, match="same grid"):
        sp.quadratic((1.0,), np.zeros(2, dtype=complex), 2, dealias=False)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("terms", [1, 2, 4])
@pytest.mark.parametrize("n", [4, 6, 64, 1024])
def test_quadratic_batch_equals_per_row_calls(n, terms, dealias):
    rng = np.random.default_rng([n, terms, dealias, 2])
    # two batch axes between the factor rows and the modes; white noise puts
    # energy in every mode, the Nyquist mode included
    block = np.fft.rfft(rng.standard_normal((2 * terms, 3, 5, n)))
    assert np.min(np.abs(block[..., n // 2])) > 0.0
    weights = tuple(rng.standard_normal(terms))
    batched = sp.quadratic(weights, block.copy(), n, dealias)
    assert batched.shape == (3, 5, n // 2 + 1)
    for i, j in np.ndindex(3, 5):
        row = sp.quadratic(weights, block[:, i, j].copy(), n, dealias)
        assert np.array_equal(batched[i, j], row)


def test_nyquist_convention():
    # split evenly between +-n/2 on padding, folded back on truncation,
    # dropped by odd derivatives
    n = 16
    x = sp.grid(n)
    nyq = np.cos(np.pi * n * x)
    assert np.max(np.abs(sp.product(nyq, np.ones(n)) - nyq)) < 1e-14
    half = 0.5 * np.cos(TWO_PI * (n // 2 - 1) * x)
    assert np.max(np.abs(sp.product(nyq, np.cos(TWO_PI * x)) - half)) < 1e-14
    assert np.max(np.abs(sp.derivative(nyq, 1))) < 1e-12
    assert np.max(np.abs(sp.derivative(nyq, 2) + (np.pi * n) ** 2 * nyq)) < 1e-10


# inner products --------------------------------------------------------------

def test_inner_mu_constants():
    one = np.ones(32)
    assert sp.inner_mu(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_mu_sin_quadrature_oracle():
    n = 256
    x = sp.grid(n)
    u = np.sin(TWO_PI * x)
    # oracle: mu(u)^2 + int (u')^2 by fine trapezoid quadrature
    xf = np.linspace(0.0, 1.0, 16 * n + 1)
    du = TWO_PI * np.cos(TWO_PI * xf)
    oracle = np.trapezoid(du * du, xf)
    assert oracle == pytest.approx(2.0 * np.pi ** 2, rel=1e-10)
    assert sp.inner_mu(u, u) == pytest.approx(oracle, rel=1e-10)


@given(coeff_lists, coeff_lists, st.floats(-2, 2, allow_nan=False))
@settings(deadline=None)
def test_inner_mu_symmetric_bilinear(cos, sin, a):
    rng = np.random.default_rng(5)
    f = sp.trig_field(32, 0.2, cos, sin)
    g = sp.random_trig_field(32, 10, rng)
    h = sp.random_trig_field(32, 10, rng)
    assert sp.inner_mu(f, g) == pytest.approx(sp.inner_mu(g, f), rel=1e-11, abs=1e-11)
    assert sp.inner_mu(a * f + g, h) == pytest.approx(
        a * sp.inner_mu(f, h) + sp.inner_mu(g, h), rel=1e-10, abs=1e-10)


def test_inner_mu_positive_definite_gram():
    # Cholesky of the Gram matrix on a random 8-field basis must succeed
    rng = np.random.default_rng(6)
    basis = [sp.random_trig_field(64, 16, rng) for _ in range(8)]
    gram = np.array([[sp.inner_mu(u, v) for v in basis] for u in basis])
    np.linalg.cholesky(gram)  # raises LinAlgError if not positive definite


def test_inner_mu_definiteness_on_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = sp.random_trig_field(64, 16, rng)
        q = sp.inner_mu(f, f)
        assert q > 0.0
        # vanishing norm forces the zero field
        if q < 1e-20:
            assert np.max(np.abs(f)) < 1e-10


# first running integral ------------------------------------------------------

def first_integral(f):
    # I_1 = int_0^x f on the grid, and its slope I_1(1) = mean of f
    samples, at_one = sp.running_integrals(f, 1)
    return samples[0], at_one[0]


def test_antiderivative_constant():
    n = 64
    values, slope = first_integral(np.ones(n))
    assert slope == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(values - sp.grid(n))) < 1e-13


def test_antiderivative_cos():
    n = 64
    x = sp.grid(n)
    values, slope = first_integral(np.cos(TWO_PI * x))
    assert np.max(np.abs(values - np.sin(TWO_PI * x) / TWO_PI)) < 1e-13
    assert slope == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_antiderivative_with_nyquist_energy(n):
    # the Nyquist cosine integrates to sin(pi n x)/(pi n), zero on the grid
    x = sp.grid(n)
    values, slope = first_integral(0.7 + np.cos(np.pi * n * x) + 0.3 * np.sin(TWO_PI * x))
    expected = 0.7 * x + 0.3 * (1.0 - np.cos(TWO_PI * x)) / TWO_PI
    assert np.max(np.abs(values - expected)) < 1e-13
    assert slope == pytest.approx(0.7, abs=1e-15)


def test_antiderivative_sin_quadrature_oracle():
    n = 64
    x = sp.grid(n)
    values, slope = first_integral(np.sin(TWO_PI * x))
    expected = (1.0 - np.cos(TWO_PI * x)) / TWO_PI
    assert np.max(np.abs(values - expected)) < 1e-13
    # F(1) = slope + periodic part at 0 = slope = 0 here
    assert slope == pytest.approx(0.0, abs=1e-15)
    # independent cumulative-quadrature oracle on a fine grid
    from scipy.integrate import cumulative_trapezoid
    fine = 16
    xf = np.linspace(0.0, 1.0, fine * n + 1)[:-1]
    Ff = cumulative_trapezoid(np.sin(TWO_PI * xf), xf, initial=0.0)
    assert np.max(np.abs(values - Ff[::fine])) < 1e-5


def test_evaluate_matches_samples_and_is_periodic():
    rng = np.random.default_rng(8)
    f = sp.random_trig_field(64, 20, rng)
    x = sp.grid(64)
    assert np.max(np.abs(sp.evaluate(f, x) - f)) < 1e-12
    pts = rng.uniform(0.0, 1.0, 17)
    assert np.max(np.abs(sp.evaluate(f, pts + 3.0) - sp.evaluate(f, pts))) < 1e-11


def table_oracle(f, x, chunk=256):
    # the exact sum term by term, e^{2 pi i k x} built by repeated
    # multiplication over k = 1..n/2-1; chunked over points to bound memory
    n = f.size
    c = np.fft.rfft(f) / n
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, chunk):
        xs = flat[lo:lo + chunk]
        phases = np.multiply.accumulate(
            np.broadcast_to(np.exp(2j * np.pi * xs), (n // 2 - 1, xs.size)), axis=0)
        out[lo:lo + chunk] = (c[0].real + 2.0 * np.real(c[1:n // 2] @ phases)
                              + c[n // 2].real * np.cos(np.pi * n * xs))
    return out.reshape(x.shape)


@pytest.mark.parametrize("n", [4, 8, 64, 1024, 4096])
def test_evaluate_matches_table_oracle(n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    tol = 1e-12 * np.sum(np.abs(np.fft.fft(f) / n))
    points = [
        sp.grid(n),
        rng.uniform(0.0, 1.0, 257),
        rng.uniform(-3.0, 0.0, 64),
        rng.uniform(1.0, 5.0, 64),
        np.float64(rng.uniform(-1.0, 2.0)),
        rng.uniform(-1.0, 2.0, (7, 9)),
        # around the 256-point blocks of evaluate_rfft
        *(rng.uniform(-1.0, 2.0, size) for size in (0, 1, 255, 256, 257, 1000)),
        rng.uniform(-1.0, 2.0, (40, 9)),
    ]
    for x in points:
        got = sp.evaluate(f, x)
        assert got.shape == np.shape(x)
        assert np.max(np.abs(got - table_oracle(f, x)), initial=0.0) <= tol
    assert np.max(np.abs(sp.evaluate(f, sp.grid(n)) - f)) <= tol


@pytest.mark.parametrize("n", [4, 8, 64, 1024])
def test_evaluate_nyquist_only_field(n):
    f = np.cos(np.pi * np.arange(n))  # (-1)^j: only the Nyquist coefficient
    x = np.random.default_rng(1).uniform(-2.0, 3.0, 50)
    assert np.max(np.abs(sp.evaluate(f, x) - np.cos(np.pi * n * x))) <= 1e-12
    assert np.max(np.abs(sp.evaluate(f, x) - table_oracle(f, x))) <= 1e-12


def traced_peak(fn, *args):
    """Traced peak memory of fn(*args), after a warm-up call for first-call allocations."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_is_sublinear_in_the_table():
    n = 4096
    rng = np.random.default_rng(3)
    f = rng.standard_normal(n)
    x = rng.uniform(0.0, 1.0, n)
    # the (n/2 - 1) x n complex phase table alone is 134 MB
    assert traced_peak(sp.evaluate, f, x) <= 16e6


def test_evaluate_memory_does_not_grow_with_the_tables_of_every_point():
    n = 4096
    rng = np.random.default_rng(4)
    c = np.fft.rfft(rng.standard_normal(n))
    x = rng.uniform(0.0, 1.0, 65536)
    # blocks of 256 points measured 0.94 MB, most of it the 0.52 MB result;
    # tables for all points at once take 97.6 MB
    assert traced_peak(sp.evaluate_rfft, c, x) <= 2e6


@pytest.mark.parametrize("n, bound", [(1024, 240e3), (4096, 500e3)])
def test_evaluate_holds_one_blocks_tables_at_a_time(n, bound):
    rng = np.random.default_rng(5)
    c = np.fft.rfft(rng.standard_normal(n))
    x = rng.uniform(0.0, 1.0, n)
    # one block's baby table and GEMM result are (J + A)*256 complex values,
    # 188 kB at n = 1024 and 373 kB at n = 4096; measured 211 and 444 kB.
    # Keeping the previous block's result alive too read 309 and 633 kB.
    assert traced_peak(sp.evaluate_rfft, c, x) <= bound


def test_evaluate_passes_nan_through():
    f = np.full(16, np.nan)
    assert np.all(np.isnan(sp.evaluate(f, [0.1, 0.7])))
    g = sp.trig_field(16, 0.0, [1.0])
    out = sp.evaluate(g, [np.nan, 0.25])
    assert np.isnan(out[0]) and abs(out[1]) < 1e-15


@pytest.mark.parametrize("size", [0, 2, 5, 7])
def test_evaluate_and_derivative_reject_bad_grid_size(size):
    f = np.arange(float(size))
    with pytest.raises(ValueError, match="even"):
        sp.evaluate(f, 0.3)
    with pytest.raises(ValueError, match="even"):
        sp.derivative(f)
    with pytest.raises(ValueError, match="even"):
        sp.derivative(np.zeros((3, size)), 2)


def test_evaluate_rejects_a_stack_of_fields():
    with pytest.raises(ValueError, match="one-dimensional"):
        sp.evaluate(np.zeros((2, 8)), 0.3)


# random trial fields --------------------------------------------------------


def _max_modes(n):
    # every max_mode below Nyquist on small grids, a spread on large ones
    if n <= 64:
        return range(1, n // 2)
    return sorted({1, 2, 3, 32, n // 3, n // 2 - 2, n // 2 - 1})


@pytest.mark.parametrize("mean_value", [None, -0.75])
@pytest.mark.parametrize("n", [4, 6, 8, 64, 1024, 4096])
def test_random_trig_field_matches_trig_field_of_its_draws(n, mean_value):
    for max_mode in _max_modes(n):
        seed = 1000 * n + max_mode
        field = sp.random_trig_field(n, max_mode, np.random.default_rng(seed),
                                     mean_value=mean_value)
        # the same draws, in the same order
        rng = np.random.default_rng(seed)
        amp = (1.0 + np.arange(1, max_mode + 1)) ** -2.0
        a = rng.standard_normal(max_mode) * amp
        b = rng.standard_normal(max_mode) * amp
        m = float(rng.standard_normal()) if mean_value is None else mean_value
        size = abs(m) + np.sum(np.abs(a)) + np.sum(np.abs(b))
        assert np.max(np.abs(field - sp.trig_field(n, m, a, b))) <= 1e-13 * size, (n, max_mode)
        again = sp.random_trig_field(n, max_mode, np.random.default_rng(seed),
                                     mean_value=mean_value)
        assert np.array_equal(field, again)


def test_random_trig_field_rejects_the_nyquist_mode():
    with pytest.raises(ValueError, match="Nyquist"):
        sp.random_trig_field(8, 4, np.random.default_rng(0))
