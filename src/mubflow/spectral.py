"""Spectral calculus for real periodic fields on the unit circle.

A field is a real numpy array of length N holding samples at the uniform
grid x_j = j/N on the circle R/Z (period 1).  The spectral view stores the
normalized coefficients c_k of u(x) = sum_k c_k exp(2*pi*i*k*x) in numpy
FFT ordering (k = 0, 1, ..., N/2-1, -N/2, ..., -1), so c_0 equals the mean
of u and the integer mode k carries physical wavenumber 2*pi*k.

Every quadratic term goes through one kernel, :func:`quadratic`, which
works on rfft coefficients and dealiases by default (3/2-rule zero
padding).  The Nyquist cosine is split evenly between modes +-N/2 on
padding, folded back into one slot on truncation, and dropped by odd
derivatives.  Discrete integrals are (1/N)-weighted sums, exact for trig
polynomials below the Nyquist mode.  Running integrals from zero,
:func:`running_integrals`, are exact on the rfft coefficients and cost
one inverse rfft each, O(N log N).

Off-grid evaluation, :func:`evaluate` from samples or
:func:`evaluate_rfft` from rfft coefficients, sums the Fourier series
exactly as baby-step/giant-step powers of e^{2 pi i x}: O(N len(x)) flops
in one complex GEMM and O(sqrt(N) len(x)) memory.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "grid",
    "mode_numbers",
    "transform",
    "inverse_transform",
    "mean",
    "derivative_multiplier",
    "derivative",
    "quadratic",
    "product",
    "inner_l2",
    "inner_mu",
    "Antiderivative",
    "running_integrals",
    "antiderivative_from_zero",
    "evaluate",
    "evaluate_rfft",
    "trig_field",
    "random_trig_field",
]


def grid(n: int) -> np.ndarray:
    """Sample points x_j = j/n of the uniform n-point grid on [0, 1)."""
    return np.arange(n) / float(n)


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode numbers in FFT ordering: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n)


def _grid_size(f: np.ndarray) -> int:
    # length of the last axis, which must be an even grid size of at least 4
    if f.ndim == 0 or f.shape[-1] < 4 or f.shape[-1] % 2:
        raise ValueError("field length must be even and at least 4")
    return f.shape[-1]


def _check_field(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("field must be one-dimensional")
    _grid_size(f)
    if not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite samples")
    return f


def transform(f: np.ndarray) -> np.ndarray:
    """Normalized Fourier coefficients of a real field (c_0 = mean)."""
    f = _check_field(f)
    return np.fft.fft(f) / f.size


def inverse_transform(c: np.ndarray) -> np.ndarray:
    """Real field with the given normalized coefficients.

    Assumes Hermitian symmetry (the coefficients of a real field); the
    residual imaginary part from round-off is discarded.
    """
    c = np.asarray(c, dtype=complex)
    return np.real(np.fft.ifft(c) * c.size)


def mean(f: np.ndarray) -> float:
    """Integral of f over the circle, i.e. the coefficient c_0."""
    return float(np.mean(f))


def derivative_multiplier(n: int, order: int = 1) -> np.ndarray:
    """rfft-space multiplier (2*pi*i*k)**order of d/dx on the n-point grid.

    For odd orders the Nyquist entry is zero: its cosine has no
    representable odd derivative on the grid.
    """
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    w = (2j * np.pi * np.arange(n // 2 + 1)) ** order
    if order % 2:
        w[-1] = 0.0
    return w


def derivative(f: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order (1, 2 or 3) along the last axis."""
    f = np.asarray(f, dtype=float)
    n = _grid_size(f)
    w = derivative_multiplier(n, order)
    return np.fft.irfft(np.fft.rfft(f) * w, n)


def _pad(c: np.ndarray, m: int) -> np.ndarray:
    # samples on the m-point grid (scaled by n/m) of the field whose n-point
    # rfft is c, with the Nyquist cosine split evenly between +-n/2
    h = c.size - 1
    cf = np.zeros(m // 2 + 1, dtype=complex)
    cf[:h] = c[:h]
    cf[h] = 0.5 * c[h]
    return np.fft.irfft(cf, m)


def quadratic(terms, n: int, dealias: bool = True) -> np.ndarray:
    """rfft coefficients of sum_j a_j f_j g_j on the n-point grid.

    ``terms`` holds triples (a_j, rfft(f_j), rfft(g_j)) of n-point fields.
    With ``dealias`` each factor is zero-padded to the 3n/2 grid, the whole
    sum is formed there, and one forward rfft is truncated back to
    |k| <= n/2, folding +-n/2 into the Nyquist slot.  Without it the sum is
    formed on the n-point grid itself.
    """
    if any(np.shape(x) != (n // 2 + 1,) for _, f, g in terms for x in (f, g)):
        raise ValueError("fields must share the same grid size")
    if not dealias:
        return np.fft.rfft(sum(a * np.fft.irfft(f, n) * np.fft.irfft(g, n) for a, f, g in terms))
    if n % 2:
        raise ValueError("dealiased products need an even grid size")
    m = 3 * n // 2
    h = n // 2
    c = np.fft.rfft(sum(a * _pad(f, m) * _pad(g, m) for a, f, g in terms))[:h + 1]
    c[h] = 2.0 * c[h].real
    return c * (m / n)


def product(f: np.ndarray, g: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Pointwise product; dealiased via 3/2-rule zero padding by default."""
    if np.shape(f) != np.shape(g):
        raise ValueError("fields must share the same grid size")
    n = np.size(f)
    return np.fft.irfft(quadratic([(1.0, np.fft.rfft(f), np.fft.rfft(g))], n, dealias), n)


def inner_l2(f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product (1/N) sum f_j g_j."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("fields must share the same grid size")
    return float(np.dot(f, g) / f.size)


def inner_mu(f: np.ndarray, g: np.ndarray) -> float:
    """Mean-plus-gradient inner product mu(f) mu(g) + int f' g'."""
    return mean(f) * mean(g) + inner_l2(derivative(f, 1), derivative(g, 1))


class Antiderivative(NamedTuple):
    """Running integral F(x) = int_0^x f, sampled on the grid.

    F is generally non-periodic: F(x + 1) = F(x) + slope with slope equal
    to the mean of f.
    """

    values: np.ndarray
    slope: float


def running_integrals(f: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact nested running integrals I_j(x) = int_0^x I_{j-1} of I_0 = f.

    Returns the grid samples of I_1 .. I_depth, shape (depth, n), and
    their values at x = 1.  Each I_j is held as a polynomial plus
    2 Re sum_{k=1}^{n/2} d_k e^{2 pi i k x} on the rfft coefficients of f,
    the Nyquist cosine entering as its +n/2 half, so every mode integrates
    as d_k / (2 pi i k) and the constant -2 Re sum d_k joins the
    polynomial.  One irfft per integral samples it: O(depth n log n).
    """
    f = _check_field(f)
    n = f.size
    c = np.fft.rfft(f) / n
    poly, d = np.array([c[0].real]), c[1:]
    d[-1] *= 0.5
    ik = 2j * np.pi * np.arange(1, d.size + 1)
    x = grid(n)
    samples, at_one = np.empty((depth, n)), np.empty(depth)
    for j in range(depth):
        d = d / ik
        # the trig part at x = 0 and x = 1; the constant cancels it at 0
        trig = 2.0 * float(np.sum(d).real)
        poly = np.concatenate(([-trig], poly / np.arange(1.0, poly.size + 1.0)))
        # irfft counts the Nyquist slot once and keeps its real part
        w = np.concatenate(([0.0], n * d))
        w[-1] *= 2.0
        samples[j] = np.polynomial.polynomial.polyval(x, poly) + np.fft.irfft(w, n)
        at_one[j] = np.polynomial.polynomial.polyval(1.0, poly) + trig
    return samples, at_one


def antiderivative_from_zero(f: np.ndarray) -> Antiderivative:
    """The first of :func:`running_integrals`, with slope the mean of f.

    Mode k != 0 contributes c_k (e^{2 pi i k x} - 1)/(2 pi i k) and the mean
    contributes slope*x.  The Nyquist cosine integrates to a sine that
    vanishes at every grid point, so the returned samples are exact.
    """
    samples, _ = running_integrals(f, 1)
    return Antiderivative(samples[0], mean(f))


def _powers(w: np.ndarray, m: int) -> np.ndarray:
    # rows w^0 .. w^(m-1) by repeated multiplication, one vectorised multiply
    # per row (a row loop is several times faster than multiply.accumulate)
    out = np.empty((m, w.size), dtype=complex)
    out[0] = 1.0
    for j in range(1, m):
        np.multiply(out[j - 1], w, out=out[j])
    return out


def evaluate(f: np.ndarray, x) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Exact summation of the truncated Fourier series (Nyquist mode taken as
    a cosine); x may have any shape and lie outside [0, 1), the series is
    1-periodic, and the result has the shape of x.  This is
    :func:`evaluate_rfft` on ``rfft(f)``.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("field must be one-dimensional")
    _grid_size(f)
    return evaluate_rfft(np.fft.rfft(f), x)


def evaluate_rfft(c: np.ndarray, x) -> np.ndarray:
    """Evaluate at arbitrary points the n-point field whose rfft is c.

    With z = e^{2 pi i x} the modes k = aJ + j + 1 (J ~ sqrt(n/2)) are
    summed as baby steps z^1..z^J times giant steps z^{aJ}: O(n len(x))
    flops in one complex GEMM and O(sqrt(n) len(x)) memory.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(c) != 1 or np.size(c) < 3:
        raise ValueError("coefficients must be the rfft of an even grid of at least 4 points")
    h = np.size(c) - 1
    n = 2 * h
    c = c / n
    # C[a, j] is the coefficient of mode k = a*J + j + 1, zero past h - 1;
    # J = ceil(sqrt(h - 1)) baby steps, A = ceil((h - 1)/J) giant steps
    J = math.isqrt(h - 2) + 1
    A = -(-(h - 1) // J)
    C = np.zeros(A * J, dtype=complex)
    C[:h - 1] = c[1:h]
    C = C.reshape(A, J)
    baby = _powers(np.exp((2j * np.pi) * x.ravel()), J + 1)
    # the giant steps are built after the baby steps are freed
    zJ, partial = baby[-1].copy(), C @ baby[1:]
    del baby
    s = np.einsum("ap,ap->p", _powers(zJ, A), partial).reshape(x.shape)
    return c[0].real + 2.0 * s.real + c[h].real * np.cos(np.pi * n * x)


def trig_field(n: int, mean_value: float = 0.0, cos=(), sin=()) -> np.ndarray:
    """Build mean + sum_j cos[j-1] cos(2 pi j x) + sin[j-1] sin(2 pi j x)."""
    cos = np.asarray(cos, dtype=float)
    sin = np.asarray(sin, dtype=float)
    if max(cos.size, sin.size) >= n // 2:
        raise ValueError("coefficient lists reach the Nyquist mode")
    x = grid(n)
    u = np.full(n, float(mean_value))
    for j, a in enumerate(cos, start=1):
        u += a * np.cos(TWO_PI * j * x)
    for j, b in enumerate(sin, start=1):
        u += b * np.sin(TWO_PI * j * x)
    return u


def random_trig_field(n: int, max_mode: int, rng: np.random.Generator,
                      decay: float = 2.0, mean_value: float | None = None) -> np.ndarray:
    """Random band-limited field with coefficients damped like k**-decay."""
    if max_mode >= n // 2:
        raise ValueError("max_mode must stay below the Nyquist mode")
    k = np.arange(1, max_mode + 1)
    amp = (1.0 + k) ** (-decay)
    a = rng.standard_normal(max_mode) * amp
    b = rng.standard_normal(max_mode) * amp
    m = float(rng.standard_normal()) if mean_value is None else float(mean_value)
    return trig_field(n, m, a, b)
