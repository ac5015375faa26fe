"""Metric-compatibility analyzer for the mu-b family.

Decides, for a given parameter b, whether the mu-b dynamics can arise as
the geodesic flow of a right-invariant metric induced by some regular
(symmetric Fourier-multiplier) inertia operator, and produces numeric
witnesses for the obstructions when it cannot.  The necessary conditions
checked are:

1. *Secular obstruction.*  At b = 0 the per-mode response ODE is resonant;
   every candidate image of a Fourier mode grows linearly in x and cannot
   be periodic, so no operator exists at all.
2. *Multiplier consistency.*  A diagonal candidate must carry the forced
   symbol 2 n^2 / b at wavenumber n; compatibility between modes n and 2n
   pins 24 = 8 (b + 1), i.e. b = 2, and then the forced symbol is exactly
   that of the mean-minus-second-derivative operator.
3. *Off-diagonal obstruction.*  A candidate coupling mode p to another
   mode is only periodic when b/(2 pi p) is a nonzero integer; chasing the
   L2-symmetry of the operator through the coupled pair forces b = -2 p^2,
   and replaying the velocity-form identity on that mode forces the
   coupling coefficient to vanish -- a contradiction.
4. *Residual checks.*  The velocity-form and mu-b right-hand sides must
   coincide for the candidate operator; their sup-norm mismatch on trial
   modes is a direct numeric witness.  All trial modes go through the
   spectral kernel as one stack of fields, in one pass.

Wavenumbers are n = 2 pi k for integer k (period-1 circle).  Integrality
tests factor out 2 pi first and use tolerance 1e-9.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, inertia, spectral
from .inertia import InertiaSpec
from .spectral import TWO_PI

__all__ = [
    "homogeneous_wavenumber",
    "diagonal_symbol",
    "euler_mub_residual",
    "shift_limit_residual",
    "SecularCheck",
    "secular_obstruction",
    "ConsistencyCheck",
    "multiplier_consistency",
    "OffdiagonalProbe",
    "OffdiagonalScan",
    "offdiagonal_obstruction",
    "CheckOutcome",
    "ClassificationReport",
    "classify",
    "json_text",
    "INTEGRALITY_TOL",
    "RESIDUAL_TOL",
]

INTEGRALITY_TOL = 1e-9
RESIDUAL_TOL = 1e-9
SECULAR_TOL = 1e-12


def homogeneous_wavenumber(b: float, k: int) -> float:
    """Wavenumber b/n + n of the homogeneous response at mode k (n = 2 pi k).

    The image of the k-th Fourier mode under a compatible inertia operator
    solves v' - i a v = -2 i n e_n with a = b/n + n; the homogeneous part
    oscillates at this wavenumber, so periodicity requires it to lie in
    2 pi Z.
    """
    if k == 0:
        raise ValueError("mode index must be nonzero")
    n = TWO_PI * k
    return b / n + n


def diagonal_symbol(b: float, k: int) -> float:
    """Forced diagonal symbol 2 n^2 / b at mode k (n = 2 pi k).

    Undefined at b = 0, where the response ODE is resonant and admits no
    periodic solution.
    """
    if k == 0:
        raise ValueError("mode index must be nonzero")
    if abs(b) <= SECULAR_TOL:
        raise ValueError("forced symbol undefined at b = 0 (resonant case)")
    n = TWO_PI * k
    return 2.0 * n * n / b


def euler_mub_residual(spec: InertiaSpec, b: float, u: np.ndarray,
                       dealias: bool = True) -> float | np.ndarray:
    """Sup-norm mismatch of the velocity-form and mu-b right-hand sides.

    Zero (to round-off) exactly when the operator reproduces the mu-b
    dynamics; constants satisfy the identity trivially.  One field gives a
    float; a stack of fields, one per row, gives one sup-norm per row.
    """
    lhs = dynamics.euler_rhs(spec, u, dealias)
    rhs = dynamics.mub_rhs(b, u, dealias)
    sup = np.max(np.abs(lhs - rhs), axis=-1)
    return float(sup) if sup.ndim == 0 else sup


def shift_limit_residual(spec: InertiaSpec, b: float, u: np.ndarray) -> float:
    """Sup-norm mismatch of the constant-shift limits of both dynamics.

    Replacing u by u + constant and letting the constant grow linearizes
    both right-hand sides to A^{-1}(2 u_x + (Au)_x) and the mu-b analogue
    with the mean-minus-second-derivative operator.  Requires a normalized
    operator (unit response on constants).
    """
    if abs(spec.symbol_at(0) - 1.0) > 1e-12:
        raise ValueError("operator must be normalized (unit response on constants); "
                         "apply normalize() first")
    au = inertia.apply(spec, u)
    lu = inertia.apply(inertia.MU_MINUS_DXX, u)
    du = spectral.derivative(u, 1)
    lhs = inertia.invert(spec, 2.0 * du + spectral.derivative(au, 1))
    rhs = inertia.invert(inertia.MU_MINUS_DXX, b * du + spectral.derivative(lu, 1))
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class SecularCheck:
    b: float
    secular: bool
    forced_symbols: dict[int, float] | None   # {k: 2 n^2 / b} when non-resonant


def secular_obstruction(b: float, max_k: int = 8) -> SecularCheck:
    """Detect the resonant case b = 0; otherwise report the forced symbols.

    At b = 0 the homogeneous wavenumber collapses onto the forcing mode and
    every solution of the response ODE grows linearly in x, so no periodic
    operator image exists for any mode.
    """
    if abs(b) <= SECULAR_TOL:
        return SecularCheck(b=b, secular=True, forced_symbols=None)
    return SecularCheck(
        b=b, secular=False,
        forced_symbols={k: diagonal_symbol(b, k) for k in range(1, max_k + 1)})


@dataclass
class ConsistencyCheck:
    b: float
    residual: float             # |12 s_n - (b+1) s_2n| at the reference mode
    normalized_residual: float  # |24 - 8 (b+1)|, mode-independent
    passed: bool


def multiplier_consistency(b: float, k: int = 1) -> ConsistencyCheck:
    """Cross-mode compatibility of the forced diagonal symbols.

    The quadratic term couples mode n to mode 2n; matching coefficients on
    both dynamics requires 12 s_n = (b+1) s_2n.  Substituting the forced
    symbol 2 n^2 / b reduces the gap to (24 - 8 (b+1)) n^2 / b, whose
    mode-independent factor |24 - 8 (b+1)| = 8 |b - 2| vanishes only at
    b = 2, where the forced symbols become exactly n^2.
    """
    normalized = abs(24.0 - 8.0 * (b + 1.0))
    residual = abs(12.0 * diagonal_symbol(b, k) - (b + 1.0) * diagonal_symbol(b, 2 * k))
    return ConsistencyCheck(b=b, residual=residual, normalized_residual=normalized,
                            passed=normalized <= INTEGRALITY_TOL)


# mode-coefficient algebra on sparse {k: coeff} maps (wavenumber n = 2 pi k)

def _madd(*terms):
    out: dict[int, complex] = {}
    for t in terms:
        for k, c in t.items():
            out[k] = out.get(k, 0.0j) + c
    return out


def _mscale(t, a):
    return {k: a * c for k, c in t.items()}


def _mmul(f, g):
    out: dict[int, complex] = {}
    for kf, cf in f.items():
        for kg, cg in g.items():
            out[kf + kg] = out.get(kf + kg, 0.0j) + cf * cg
    return out


def _mdx(f):
    return {k: (1j * TWO_PI * k) * c for k, c in f.items()}


def _m_mu_dxx(f):
    return {k: (1.0 if k == 0 else (TWO_PI * k) ** 2) * c for k, c in f.items()}


def _m_mu_dxx_inv(f):
    return {k: c / (1.0 if k == 0 else (TWO_PI * k) ** 2) for k, c in f.items()}


@dataclass
class OffdiagonalProbe:
    """Outcome of probing one coupled mode p = 2 pi k."""

    k: int
    p: float
    ratio: float                 # b / (2 pi p); must be a nonzero integer
    admissible: bool             # periodicity of the coupled image
    gamma_forced_zero: bool = True
    chain_wavenumber: float | None = None   # homogeneous wavenumber of mode p
    chain_back: float | None = None         # homogeneous wavenumber of the partner mode
    chain_holds: bool = False               # partner maps back onto p (forces b = -2 p^2)
    replay: dict | None = None              # numeric trace of the contradiction


def _replay_contradiction(b: float, k: int) -> dict:
    # hypothesize a unit coupling gamma on mode p = 2 pi k (so the operator
    # sends e_p to gamma e_{-p} + beta_p e_p with the forced beta_p = -1),
    # evaluate both resolved right-hand sides on u = e_p, and read off the
    # coefficient equation on the constant mode
    p = TWO_PI * k
    gamma = 1.0 + 0.0j
    beta_p = diagonal_symbol(b, k)       # equals -1 when b = -2 p^2
    beta_2p = diagonal_symbol(b, 2 * k)  # the partner stays uncoupled
    u = {k: 1.0 + 0.0j}
    au = {-k: gamma, k: beta_p}
    lhs_num = _madd(_mscale(_mmul(au, _mdx(u)), 2.0), _mmul(u, _mdx(au)))
    # invert the hypothesized operator on the span that arises: constants
    # respond with factor 1 (normalized), mode 2p is an eigenvector
    lhs = {}
    for q, c in lhs_num.items():
        if q == 0:
            lhs[q] = c
        elif q == 2 * k:
            lhs[q] = c / beta_2p
        else:
            raise AssertionError(f"unexpected mode {q} in the replay")
    lu = _m_mu_dxx(u)
    rhs = _m_mu_dxx_inv(_madd(_mscale(_mmul(lu, _mdx(u)), b), _mmul(u, _mdx(lu))))
    const_lhs = lhs.get(0, 0.0j)         # equals i p gamma
    const_rhs = rhs.get(0, 0.0j)         # identically zero
    solved_gamma = const_rhs / (1j * p)  # what the coefficient equation allows
    return {
        "p": p,
        "beta_p": beta_p,
        "beta_2p": beta_2p,
        "const_coeff_lhs": complex(const_lhs),
        "const_coeff_rhs": complex(const_rhs),
        "mode2p_coeff_lhs": complex(lhs.get(2 * k, 0.0j)),
        "mode2p_coeff_rhs": complex(rhs.get(2 * k, 0.0j)),
        "hypothesized_gamma": complex(gamma),
        "solved_gamma": complex(solved_gamma),
        "inconsistency": abs(const_lhs - const_rhs),   # = p |gamma| for the unit hypothesis
        "gamma_forced_zero": abs(p * solved_gamma) <= 1e-10 * abs(gamma),
    }


def offdiagonal_obstruction(b: float, max_k: int = 8) -> "OffdiagonalScan":
    """Scan coupled-mode candidates p = 2 pi k, |k| <= max_k, and rule them out.

    A coupling on mode p survives the periodicity test only when b/(2 pi p)
    is a nonzero integer; the symmetry chain then demands that the partner
    mode map back onto p, which pins b = -2 p^2.  For such p the identity
    of the two right-hand sides is replayed on e_p and its constant-mode
    coefficient equation forces the coupling to vanish.
    """
    if abs(b) <= SECULAR_TOL:
        raise ValueError("off-diagonal scan undefined at b = 0 (resonant case)")
    probes = []
    contradiction_at = []
    for k in [j for j in range(-max_k, max_k + 1) if j != 0]:
        p = TWO_PI * k
        ratio = b / (TWO_PI * p)
        j = round(ratio)
        admissible = abs(ratio - j) <= INTEGRALITY_TOL and j != 0
        probe = OffdiagonalProbe(k=k, p=p, ratio=ratio, admissible=admissible)
        if admissible:
            alpha_p = homogeneous_wavenumber(b, k)           # = 2 pi (j + k)
            partner = j + k                                  # integer mode index of the image
            probe.chain_wavenumber = alpha_p
            if partner == 0:
                # image would be the constant mode; symmetry chain cannot close
                probe.chain_holds = False
            else:
                alpha_m = homogeneous_wavenumber(b, partner)
                probe.chain_back = alpha_m
                probe.chain_holds = abs(alpha_m - p) <= INTEGRALITY_TOL * max(1.0, abs(p))
            if probe.chain_holds:
                # closing the chain forces b = -2 p^2; replay the identity there
                probe.replay = _replay_contradiction(b, k)
                probe.gamma_forced_zero = probe.replay["gamma_forced_zero"]
                contradiction_at.append(k)
        probes.append(probe)
    if contradiction_at:
        conclusion = ("coupling admissible only at p = 2*pi*k for k in "
                      f"{contradiction_at}; replayed identity forces the coupling to zero")
    else:
        conclusion = "no admissible off-diagonal mode in scan range"
    return OffdiagonalScan(b=b, max_k=max_k, probes=probes,
                           contradiction_modes=contradiction_at, conclusion=conclusion,
                           all_ruled_out=all(p.gamma_forced_zero for p in probes))


@dataclass
class OffdiagonalScan:
    b: float
    max_k: int
    probes: list[OffdiagonalProbe]
    contradiction_modes: list[int]
    conclusion: str
    all_ruled_out: bool


@dataclass
class CheckOutcome:
    name: str
    passed: bool | None          # None marks a check not applicable at this b
    witness: float | None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "witness": self.witness, "detail": self.detail}


@dataclass
class ClassificationReport:
    b: float
    verdict: str                 # "metric" | "non-metric"
    inertia: dict | None         # symbol description of the unique operator
    reason: str | None           # first failed condition for non-metric
    checks: list[CheckOutcome] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"b": self.b, "verdict": self.verdict, "inertia": self.inertia,
                "reason": self.reason, "checks": [c.to_dict() for c in self.checks]}

    def to_json(self, indent: int = 2) -> str:
        """The text of ``json.dumps(self.to_dict(), indent=indent)``."""
        return json_text(self.to_dict(), " " * indent)


def json_text(value, step: str = "  ", indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=len(step))``.

    Assembled from the C encoder's text for each scalar: json's indenting
    encoder is pure Python and leaves reference cycles behind on every
    call, memory held until the cyclic garbage collector runs.  ``indent``
    is the indentation of the lines after the first, for nesting.
    """
    inner = indent + step
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {json_text(v, step, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        items = (inner + json_text(v, step, inner) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def classify(b: float, max_k: int = 8, trial_modes: int = 6,
             n: int = 64) -> ClassificationReport:
    """Full metric-compatibility report for the mu-b dynamics at parameter b.

    Runs the secular, multiplier-consistency and off-diagonal checks plus
    the direct right-hand-side residual with the mean-minus-second-
    derivative operator on cosine trial modes.  The verdict is "metric"
    exactly when every necessary condition passes, and then the unique
    operator symbol is reported.
    """
    checks: list[CheckOutcome] = []
    sec = secular_obstruction(b, max_k)
    checks.append(CheckOutcome(
        name="secular_obstruction",
        passed=not sec.secular,
        witness=abs(b) / TWO_PI,
        detail=("resonant: every candidate mode image grows linearly in x, "
                "no periodic solution" if sec.secular
                else "non-resonant: periodic particular solutions exist")))

    if sec.secular:
        for name in ("multiplier_consistency", "offdiagonal_obstruction", "rhs_residual"):
            checks.append(CheckOutcome(name=name, passed=None, witness=None,
                                       detail="not applicable in the resonant case"))
        return ClassificationReport(b=b, verdict="non-metric", inertia=None,
                                    reason="secular_obstruction", checks=checks)

    mc = multiplier_consistency(b)
    checks.append(CheckOutcome(
        name="multiplier_consistency",
        passed=mc.passed,
        witness=mc.normalized_residual,
        detail=f"|24 - 8(b+1)| = {mc.normalized_residual:.6g}; "
               f"mode-1 residual {mc.residual:.6g}"))

    od = offdiagonal_obstruction(b, max_k)
    checks.append(CheckOutcome(
        name="offdiagonal_obstruction",
        passed=od.all_ruled_out,
        witness=float(len(od.contradiction_modes)),
        detail=od.conclusion))

    # row k - 1 is cos(2 pi k x), bit for bit trig_field(n, 0, [0]*(k-1) + [1])
    modes = np.arange(1, trial_modes + 1)
    trials = np.cos(np.multiply.outer(TWO_PI * modes, spectral.grid(n)))
    residuals = dict(zip(modes.tolist(),
                         euler_mub_residual(inertia.MU_MINUS_DXX, b, trials).tolist()))
    worst = max(residuals.values())
    checks.append(CheckOutcome(
        name="rhs_residual",
        passed=worst <= RESIDUAL_TOL,
        witness=residuals[1],
        detail=f"sup-norm mismatch on cosine modes 1..{trial_modes}, "
               f"worst {worst:.6g} at mode "
               f"{max(residuals, key=residuals.get)}"))

    metric = all(c.passed for c in checks)
    if metric:
        return ClassificationReport(
            b=b, verdict="metric",
            inertia={"kind": "mu_minus_dxx",
                     "symbol": "s_0 = 1, s_k = (2*pi*k)^2"},
            reason=None, checks=checks)
    reason = next(c.name for c in checks if not c.passed)
    return ClassificationReport(b=b, verdict="non-metric", inertia=None,
                                reason=reason, checks=checks)
