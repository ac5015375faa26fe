"""Spectral calculus for real periodic fields on the unit circle.

A field is a real numpy array of length N holding samples at the uniform
grid x_j = j/N on the circle R/Z (period 1).  The spectral view stores the
normalized coefficients c_k of u(x) = sum_k c_k exp(2*pi*i*k*x) in numpy
FFT ordering (k = 0, 1, ..., N/2-1, -N/2, ..., -1), so c_0 equals the mean
of u and the integer mode k carries physical wavenumber 2*pi*k.

Every quadratic term goes through one kernel, :func:`quadratic`, which
works on a block of rfft coefficients and dealiases by default (3/2-rule
zero padding): one batched inverse rfft samples every factor, the weighted
sum of products is formed in place, and one forward rfft returns it.  The
block may carry batch axes between its factor rows and its modes, so a
stack of fields goes through in one pass, each row as if on its own.  The
Nyquist cosine is split evenly between modes +-N/2 on padding, folded back
into one slot on truncation, and dropped by odd derivatives.  Discrete
integrals are (1/N)-weighted sums, exact for trig polynomials below the
Nyquist mode.  Running integrals from zero, :func:`running_integrals`, are
exact on the rfft coefficients and cost one inverse rfft each, O(N log N).

Off-grid evaluation, :func:`evaluate` from samples or
:func:`evaluate_rfft` from rfft coefficients, sums the Fourier series
exactly in powers of z = e^{2 pi i x}: per block of 256 points one complex
GEMM against the baby steps z^1..z^J, J ~ sqrt(N/2), and a Horner fold of
its rows in z^J.  That is O(N len(x)) flops; the working set is at most
one block's two tables, (J + A)*256 complex values (188 kB at N = 1024),
plus C and the result.

:func:`trig_field` builds a field as an exact per-mode sum of sampled
cosines and sines; initial fields use it.  Random test fields,
:func:`random_trig_field`, come from one inverse rfft of their drawn
coefficients instead: O(N log N), equal to the per-mode sum of the same
draws up to round-off.
"""

from __future__ import annotations

import math

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
    "running_integrals",
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


def quadratic(weights, block: np.ndarray, n: int, dealias: bool = True) -> np.ndarray:
    """rfft coefficients of sum_j w_j f_j g_j on the n-point grid.

    ``block`` is a (2k, ..., n/2 + 1) complex array whose rows 2j and 2j + 1
    hold rfft(f_j) and rfft(g_j) for the k ``weights`` w_j; any axes between
    the factor rows and the modes are batch axes, and the result has shape
    (..., n/2 + 1).  The block is scratch, and the kernel overwrites it.  One
    batched inverse rfft samples every factor: with ``dealias`` on the 3n/2
    grid (numpy zero-pads the modes; the Nyquist cosine is split evenly
    between +-n/2), without it on the n-point grid.  The weighted sum is
    formed in place there, and one forward rfft into the block's memory is
    truncated back to |k| <= n/2, folding +-n/2 into the Nyquist slot.
    Every step acts on the last axis, so each batch entry gets the same
    arithmetic as a call on its own.
    """
    h = n // 2
    shape = block.shape
    if len(shape) < 2 or shape[0] != 2 * len(weights) or shape[-1] != h + 1:
        raise ValueError("fields must share the same grid size")
    if dealias and n % 2:
        raise ValueError("dealiased products need an even grid size")
    m = 3 * n // 2 if dealias else n
    # .T puts the mode axis first, so .T[h] is the Nyquist slot of every row
    # and batch entry; unbatched it costs less than [..., h]
    if dealias:
        block.T[h] *= 0.5
    fine = np.fft.irfft(block, m)
    for j, w in enumerate(weights):
        f = fine[2 * j]
        f *= w
        f *= fine[2 * j + 1]
        if j:
            fine[0] += f
    batch = shape[1:-1]
    out = block.ravel()[:math.prod(batch) * (m // 2 + 1)].reshape(batch + (m // 2 + 1,))
    c = np.fft.rfft(fine[0], out=out)
    del fine, f     # f is a view that would keep the samples alive
    if dealias:
        by_mode = c.T
        by_mode[h] = 2.0 * by_mode[h].real
    return c[..., :h + 1] * (m / n)


def product(f: np.ndarray, g: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Pointwise product; dealiased via 3/2-rule zero padding by default."""
    if np.shape(f) != np.shape(g):
        raise ValueError("fields must share the same grid size")
    n = np.size(f)
    return np.fft.irfft(quadratic((1.0,), np.fft.rfft(np.array((f, g), dtype=float)), n, dealias), n)


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


# points per block of off-grid evaluation.  At most one block's two tables
# are alive, the baby steps and the GEMM result: (J + A)*256 complex values
# (188 kB at n = 1024), plus C and the result.
# Each block makes about 3 sqrt(n/2) numpy calls whatever its size (J - 1
# multiplies for the baby steps, two in-place ops per Horner step), so a
# smaller block pays that fixed cost more often: 128 halves the tables again
# but is 1.35-1.46x slower at n = 256..4096 with n points, and 64 is 2-2.3x.
_BLOCK = 256


def _powers(w: np.ndarray, m: int) -> np.ndarray:
    # rows w^1 .. w^m by repeated multiplication, one vectorised multiply
    # per row (a row loop is several times faster than multiply.accumulate)
    out = np.empty((m, w.size), dtype=complex)
    out[0] = w
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

    With z = e^{2 pi i x} the modes k = aJ + j (J ~ sqrt(n/2), j = 1..J)
    are summed as one complex GEMM of the coefficients, scaled by 2/n,
    against the baby steps z^1..z^J, and the A partial sums are folded by
    Horner in z^J: O(n len(x)) flops.  The points go through in blocks of
    256, each block freeing its tables before the next builds its own, so
    the working set is at most one block's two tables, (J + A)*256 complex
    values (188 kB at n = 1024), plus C and the result.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(c) != 1 or np.size(c) < 3:
        raise ValueError("coefficients must be the rfft of an even grid of at least 4 points")
    h = np.size(c) - 1
    n = 2 * h
    # C[a, j - 1] is 2/n times the coefficient of mode k = a*J + j, zero past
    # h - 1; J = ceil(sqrt(h - 1)) baby steps, A = ceil((h - 1)/J) giant steps.
    # Dividing by n/2 rounds exactly as 2 (c/n).
    J = math.isqrt(h - 2) + 1
    A = -(-(h - 1) // J)
    C = np.zeros(A * J, dtype=complex)
    np.divide(c[1:h], n / 2, out=C[:h - 1])
    C = C.reshape(A, J)
    mean, nyquist = c[0].real / n, c[h].real / n
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _BLOCK):
        xb = flat[i:i + _BLOCK]
        baby = _powers(np.exp((2j * np.pi) * xb), J)
        # z^J is copied out so the baby table is freed before the fold;
        # keeping it alive made n = 65536 1.2x slower
        zJ, partial = baby[-1].copy(), C @ baby
        del baby
        s = partial[-1]
        for a in range(A - 2, -1, -1):
            s *= zJ
            s += partial[a]
        out[i:i + _BLOCK] = mean + s.real + nyquist * np.cos(np.pi * n * xb)
        # free this block's tables (s is a view of partial) before the next
        # block builds its baby table and GEMM, or three tables are alive
        del s, partial, zJ
    # [()] makes a scalar x give a scalar, as a ufunc does
    return out.reshape(x.shape)[()]


def trig_field(n: int, mean_value: float = 0.0, cos=(), sin=()) -> np.ndarray:
    """Build mean + sum_j cos[j-1] cos(2 pi j x) + sin[j-1] sin(2 pi j x).

    An exact per-mode sum: one sampled cosine or sine per coefficient.
    """
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
    """Random band-limited field with coefficients damped like k**-decay.

    The field is ``trig_field(n, m, a, b)`` for the drawn m, a and b, up to
    round-off, sampled by one inverse rfft: O(n log n).
    """
    if max_mode >= n // 2:
        raise ValueError("max_mode must stay below the Nyquist mode")
    k = np.arange(1, max_mode + 1)
    amp = (1.0 + k) ** (-decay)
    a = rng.standard_normal(max_mode) * amp
    b = rng.standard_normal(max_mode) * amp
    m = float(rng.standard_normal()) if mean_value is None else float(mean_value)
    # irfft samples (1/n)(c_0 + 2 Re sum_k c_k e^{2 pi i k x})
    c = np.zeros(n // 2 + 1, dtype=complex)
    c[0] = n * m
    c[1:max_mode + 1] = (n / 2) * (a - 1j * b)
    return np.fft.irfft(c, n)
