"""Pseudospectral solver and metric-compatibility analyzer for the mu-b
family of equations on the circle diffeomorphism group."""

from .analyzer import (ClassificationReport, classify, diagonal_symbol,
                       euler_mub_residual, homogeneous_wavenumber,
                       multiplier_consistency, offdiagonal_obstruction,
                       secular_obstruction, shift_limit_residual)
from .dynamics import (DiagnosticsRow, FlowSeries, SimulationConfig,
                       SimulationResult, christoffel, covariant_derivative,
                       diagnostics, euler_rhs, flow_defect, lie_bracket,
                       mub_rhs, reconstruct_flow, simulate, step_rk4)
from .inertia import (InertiaSpec, MU_MINUS_DXX, NEG_DXX, IDENTITY, apply,
                      check_symmetry, invert, invert_mu_dxx_integral,
                      normalize)
from .spectral import (derivative, evaluate, grid, inner_l2, inner_mu,
                       inverse_transform, mean, product, random_trig_field,
                       transform, trig_field)

__version__ = "0.1.0"
