"""Inertia operators on circle fields, realized as real even Fourier multipliers.

An operator is described by an :class:`InertiaSpec` and acts on a field by
multiplying the coefficient of mode k by the symbol value s_{|k|}.  Even,
real symbols make every operator symmetric for the discrete L2 pairing by
construction.  Supported families:

* ``mu_minus_dxx``   -- mean minus second derivative: s_0 = 1, s_k = (2 pi k)^2.
* ``helmholtz``      -- 1 - lam * d_xx: s_k = 1 + lam (2 pi k)^2 (lam = 0 is the identity).
* ``neg_dxx``        -- -d_xx: s_k = (2 pi k)^2 with a kernel on the constants;
                        its inverse is defined on mean-zero fields with the
                        mean-zero gauge.
* ``diagonal``       -- explicit table {|k|: s_k}.

``invert_mu_dxx_integral`` provides a second, independent route to the
inverse of the mean-minus-second-derivative operator through exact nested
running integrals on rfft coefficients, O(n log n); it never divides by the
symbol and is used to cross-check the spectral division.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import spectral
from .spectral import TWO_PI

__all__ = [
    "InertiaSpec",
    "MU_MINUS_DXX",
    "NEG_DXX",
    "IDENTITY",
    "apply",
    "divisors",
    "divide",
    "finite_real",
    "reject_unknown",
    "invert",
    "invert_mu_dxx_integral",
    "check_symmetry",
    "normalize",
]

_KINDS = ("mu_minus_dxx", "helmholtz", "neg_dxx", "diagonal")
# JSON fields read by a kind besides "kind" and "scale"
_KIND_FIELDS = {"helmholtz": ("lam",), "diagonal": ("symbol",)}


@dataclass(frozen=True)
class InertiaSpec:
    """Description of a Fourier-multiplier inertia operator.

    ``scale`` multiplies the whole symbol; it is how 2A-style rescalings are
    represented and what :func:`normalize` adjusts.
    """

    kind: str
    lam: float = 0.0
    symbol: tuple[tuple[int, float], ...] = ()
    scale: float = 1.0

    def __post_init__(self):
        # every value rule lives here, named by its JSON field; numbers are
        # stored as floats and the symbol table sorted by |k|
        if self.kind not in _KINDS:
            raise ValueError(f"inertia.kind: expected one of {_KINDS}, got {self.kind!r}")
        if finite_real(self.scale, "inertia.scale") == 0.0:
            raise ValueError("inertia.scale: must be nonzero")
        object.__setattr__(self, "scale", float(self.scale))
        if self.kind == "helmholtz":
            if finite_real(self.lam, "inertia.lam") < 0.0:
                raise ValueError(f"inertia.lam: must be >= 0, got {self.lam!r}")
            object.__setattr__(self, "lam", float(self.lam))
        if self.kind == "diagonal":
            if not self.symbol:
                raise ValueError("inertia.symbol: required table {|k|: value} for the diagonal kind")
            for k, s in self.symbol:
                if k < 0 or k != int(k):
                    raise ValueError("inertia.symbol: keys must be mode numbers |k|")
                if finite_real(s, f"inertia.symbol.{k}") == 0.0:
                    raise ValueError(f"inertia.symbol.{k}: must be nonzero")
            object.__setattr__(self, "symbol",
                               tuple(sorted((int(k), float(s)) for k, s in self.symbol)))

    @classmethod
    def mu_minus_dxx(cls) -> "InertiaSpec":
        return cls(kind="mu_minus_dxx")

    @classmethod
    def helmholtz(cls, lam: float) -> "InertiaSpec":
        return cls(kind="helmholtz", lam=float(lam))

    @classmethod
    def neg_dxx(cls) -> "InertiaSpec":
        return cls(kind="neg_dxx")

    @classmethod
    def diagonal(cls, symbol: Mapping[int, float]) -> "InertiaSpec":
        return cls(kind="diagonal", symbol=tuple(symbol.items()))

    def _symbol(self, k: np.ndarray) -> np.ndarray:
        # symbol values s_{|k|} for an array of mode numbers, scale included
        k = np.abs(k)
        w = (TWO_PI * k) ** 2
        if self.kind == "mu_minus_dxx":
            base = np.where(k == 0, 1.0, w)
        elif self.kind == "helmholtz":
            base = 1.0 + self.lam * w
        elif self.kind == "neg_dxx":
            base = w
        else:
            table = dict(self.symbol)
            missing = [int(j) for j in np.ravel(k) if int(j) not in table]
            if missing:
                raise ValueError(f"diagonal symbol has no entry for |k| = {missing[0]}")
            base = np.vectorize(table.__getitem__, otypes=[float])(k)
        return self.scale * base

    def symbol_at(self, k: int) -> float:
        """Symbol value s_{|k|}, including the scale factor."""
        return float(self._symbol(np.int64(k)))

    def multipliers(self, n: int) -> np.ndarray:
        """Symbol values s_0 .. s_{n/2} for an n-point grid."""
        return self._symbol(np.arange(n // 2 + 1))

    @property
    def invertible_everywhere(self) -> bool:
        return self.kind != "neg_dxx"

    def describe(self) -> str:
        if self.kind == "mu_minus_dxx":
            text = "mean minus second derivative: s_0 = 1, s_k = (2*pi*k)^2"
        elif self.kind == "helmholtz":
            text = f"1 - {self.lam}*d_xx: s_k = 1 + {self.lam}*(2*pi*k)^2"
        elif self.kind == "neg_dxx":
            text = "-d_xx: s_k = (2*pi*k)^2, kernel on constants"
        else:
            text = "diagonal multiplier " + repr(dict(self.symbol))
        if self.scale != 1.0:
            text = f"{self.scale} * ({text})"
        return text

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "helmholtz":
            out["lam"] = self.lam
        if self.kind == "diagonal":
            out["symbol"] = {str(k): s for k, s in self.symbol}
        if self.scale != 1.0:
            out["scale"] = self.scale
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "InertiaSpec":
        """Build a spec from its JSON form; errors name the offending field."""
        if not isinstance(data, Mapping):
            raise ValueError("inertia: expected an object with a 'kind' entry")
        kind = data.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"inertia.kind: expected one of {_KINDS}, got {kind!r}")
        reject_unknown(data, ("kind", "scale", *_KIND_FIELDS.get(kind, ())), "inertia")
        scale = data.get("scale", 1.0)
        if kind == "helmholtz":
            if "lam" not in data:
                raise ValueError("inertia.lam: required for the helmholtz kind")
            return cls(kind=kind, lam=data["lam"], scale=scale)
        if kind == "diagonal":
            raw = data.get("symbol", {})
            if not isinstance(raw, Mapping):
                raise ValueError("inertia.symbol: required table {|k|: value} for the diagonal kind")
            if not all(str(k).isdecimal() for k in raw):
                raise ValueError("inertia.symbol: keys must be mode numbers |k|")
            return cls(kind=kind, symbol=tuple((int(k), s) for k, s in raw.items()), scale=scale)
        return cls(kind=kind, scale=scale)


def reject_unknown(data: Mapping, fields, name: str) -> None:
    """Raise ValueError naming ``name.key`` for the first key of ``data`` not in ``fields``."""
    unknown = sorted(set(data) - set(fields), key=str)
    if unknown:
        raise ValueError(f"{name}.{unknown[0]}: unknown field")


def finite_real(value, name: str) -> float:
    """A finite real ``value`` as a float; else ValueError naming ``name`` (no bool/str coercion)."""
    # abs(nan) <= max is false; comparing a huge int with a float is exact
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name}: must be a finite real number, got {value!r}")


MU_MINUS_DXX = InertiaSpec.mu_minus_dxx()
NEG_DXX = InertiaSpec.neg_dxx()
IDENTITY = InertiaSpec.helmholtz(0.0)

MEAN_TOL = 1e-10


def apply(spec: InertiaSpec, u: np.ndarray) -> np.ndarray:
    """Apply the operator: coefficient c_k is multiplied by s_{|k|}."""
    u = np.asarray(u, dtype=float)
    s = spec.multipliers(u.size)
    return np.fft.irfft(np.fft.rfft(u) * s, u.size)


def divisors(spec: InertiaSpec, n: int) -> np.ndarray:
    """Symbol values s_0 .. s_{n/2} to divide by, with s_0 = 0 taken as inf.

    Dividing by them solves A u = f on rfft coefficients; where s_0 = 0
    (``neg_dxx``) the mean of f is projected out, so the result takes the
    mean-zero gauge.
    """
    s = spec.multipliers(n)
    s[0] = s[0] or np.inf      # c_0 / inf = 0
    return s


def divide(spec: InertiaSpec, c: np.ndarray) -> np.ndarray:
    """Solve A u = f on rfft coefficients: c (the rfft of f) over :func:`divisors`."""
    return c / divisors(spec, 2 * (np.size(c) - 1))


def invert(spec: InertiaSpec, f: np.ndarray) -> np.ndarray:
    """Solve A u = f by dividing coefficients by the symbol.

    For ``neg_dxx`` the constants span kernel and cokernel: f must have
    zero mean (within 1e-10) and the returned field takes the mean-zero
    gauge.
    """
    f = np.asarray(f, dtype=float)
    if not spec.invertible_everywhere and abs(spectral.mean(f)) > MEAN_TOL:
        raise ValueError(
            "input is outside the operator range: -d_xx requires zero mean, "
            f"got mean {spectral.mean(f):.3e}")
    return np.fft.irfft(divide(spec, np.fft.rfft(f)), f.size)


def normalize(spec: InertiaSpec) -> InertiaSpec:
    """Rescale the symbol so constants map to themselves (s_0 = 1)."""
    if spec.kind == "neg_dxx":
        raise ValueError("cannot normalize: s_0 = 0 (constants are in the kernel)")
    s0 = spec.symbol_at(0)
    return replace(spec, scale=spec.scale / s0)


def check_symmetry(spec: InertiaSpec, n: int = 64, trials: int = 20, seed: int = 0) -> float:
    """Worst normalized L2-symmetry defect |<Au,v> - <u,Av>| over random pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = spectral.random_trig_field(n, n // 3, rng)
        v = spectral.random_trig_field(n, n // 3, rng)
        defect = abs(spectral.inner_l2(apply(spec, u), v) - spectral.inner_l2(u, apply(spec, v)))
        scale = np.sqrt(spectral.inner_l2(u, u) * spectral.inner_l2(v, v))
        worst = max(worst, defect / scale)
    return worst


def invert_mu_dxx_integral(f: np.ndarray) -> np.ndarray:
    """Invert the mean-minus-second-derivative operator by nested integrals.

    Division-free closed form built from running integrals of f:

        (x^2/2 - x/2 + 13/12) I1 + (x - 1/2) I2(1) - I2(x) + I3(1)

    where I1 = I_1(1) is the mean of f and I2, I3 are the second and third
    nested running integrals from zero, all from
    :func:`spectral.running_integrals` in O(n log n).  Exact on trig
    polynomials; independent of :func:`invert`, which divides by the
    symbol instead.
    """
    samples, at_one = spectral.running_integrals(f, 3)
    x = spectral.grid(samples.shape[1])
    poly = 0.5 * x * x - 0.5 * x + 13.0 / 12.0
    return poly * at_one[0] + (x - 0.5) * at_one[1] - samples[1] + at_one[2]
