import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubflow import inertia as io
from mubflow import spectral as sp

TWO_PI = 2.0 * np.pi

ALL_SPECS = [
    io.MU_MINUS_DXX,
    io.InertiaSpec.helmholtz(0.0),
    io.InertiaSpec.helmholtz(0.5),
    io.InertiaSpec.helmholtz(1.0),
    io.NEG_DXX,
    io.InertiaSpec.diagonal({k: 1.0 + k ** 1.5 for k in range(0, 33)}),
]


# multiplier tables -----------------------------------------------------------

def test_mu_dxx_symbol():
    s = io.MU_MINUS_DXX.multipliers(16)
    k = np.arange(9)
    expected = (TWO_PI * k) ** 2
    expected[0] = 1.0
    assert np.array_equal(s, expected)


def test_helmholtz_symbol():
    lam = 0.5
    s = io.InertiaSpec.helmholtz(lam).multipliers(16)
    k = np.arange(9)
    assert np.allclose(s, 1.0 + lam * (TWO_PI * k) ** 2, rtol=0, atol=0)


def test_neg_dxx_symbol():
    s = io.NEG_DXX.multipliers(16)
    assert s[0] == 0.0
    assert np.array_equal(s[1:], (TWO_PI * np.arange(1, 9)) ** 2)


def test_diagonal_requires_full_table():
    spec = io.InertiaSpec.diagonal({0: 1.0, 1: 2.0})
    with pytest.raises(ValueError, match="no entry"):
        spec.multipliers(16)


def test_diagonal_rejects_zero_entries():
    with pytest.raises(ValueError, match="nonzero"):
        io.InertiaSpec.diagonal({0: 1.0, 1: 0.0})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        io.InertiaSpec(kind="banana")


# apply ------------------------------------------------------------------------

def test_apply_mu_dxx_to_constant():
    out = io.apply(io.MU_MINUS_DXX, np.ones(32))
    assert np.max(np.abs(out - 1.0)) < 1e-14


def test_apply_mu_dxx_to_cosine():
    x = sp.grid(64)
    u = np.cos(TWO_PI * x)
    out = io.apply(io.MU_MINUS_DXX, u)
    assert np.max(np.abs(out - TWO_PI ** 2 * u)) < 1e-11
    assert TWO_PI ** 2 == pytest.approx(39.478, abs=1e-3)


def test_identity_operator():
    rng = np.random.default_rng(0)
    u = sp.random_trig_field(64, 20, rng)
    assert np.max(np.abs(io.apply(io.IDENTITY, u) - u)) < 1e-13


# invert -----------------------------------------------------------------------

def test_invert_constant():
    out = io.invert(io.MU_MINUS_DXX, np.ones(32))
    assert np.max(np.abs(out - 1.0)) < 1e-14


def test_invert_single_mode():
    x = sp.grid(64)
    f = np.sin(2.0 * TWO_PI * x)
    out = io.invert(io.MU_MINUS_DXX, f)
    assert np.max(np.abs(out - f / (2.0 * TWO_PI) ** 2)) < 1e-14


def test_invert_neg_dxx_gauge():
    x = sp.grid(64)
    f = np.cos(TWO_PI * x)
    out = io.invert(io.NEG_DXX, f)
    assert np.max(np.abs(out - f / TWO_PI ** 2)) < 1e-14
    assert sp.mean(out) == pytest.approx(0.0, abs=1e-15)
    # apply-then-invert round trip
    assert np.max(np.abs(io.apply(io.NEG_DXX, out) - f)) < 1e-12


def test_invert_neg_dxx_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="zero mean"):
        io.invert(io.NEG_DXX, np.ones(32))
    with pytest.raises(ValueError, match="zero mean"):
        io.invert(io.NEG_DXX, np.full(32, np.inf))


def test_invert_neg_dxx_mean_tolerance_scales_with_the_field():
    # mean zero, but of size 1e7: its round-off mean -4.66e-10 exceeds 1e-10
    f = sp.trig_field(256, 0.0, [7e6], [1e7, 3e6, 1e6])
    scale = np.max(np.abs(f))
    assert io.MEAN_TOL < abs(sp.mean(f)) <= io.MEAN_TOL * scale
    out = io.invert(io.NEG_DXX, f)
    assert np.max(np.abs(io.apply(io.NEG_DXX, out) - f)) <= 1e-11 * scale
    # a true mean is still rejected at that size
    with pytest.raises(ValueError, match="zero mean"):
        io.invert(io.NEG_DXX, f + 1e-2)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.invertible_everywhere])
def test_apply_invert_round_trip(spec):
    rng = np.random.default_rng(1)
    f = sp.random_trig_field(64, 20, rng)
    back = io.apply(spec, io.invert(spec, f))
    assert np.max(np.abs(back - f)) <= 1e-11


@given(st.integers(0, 2 ** 31 - 1))
@settings(deadline=None, max_examples=25)
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    f = sp.random_trig_field(64, 20, rng)
    back = io.invert(io.MU_MINUS_DXX, io.apply(io.MU_MINUS_DXX, f))
    assert np.max(np.abs(back - f)) <= 1e-11


# the nested-integral inverse ---------------------------------------------------

def test_integral_inverse_of_constant():
    # the polynomial terms cancel: 13/12 - 1/4 + 1/6 = 1
    assert 13.0 / 12.0 - 0.25 + 1.0 / 6.0 == pytest.approx(1.0, abs=1e-15)
    out = io.invert_mu_dxx_integral(np.ones(64))
    assert np.max(np.abs(out - 1.0)) < 1e-13


def test_integral_inverse_of_cosine():
    x = sp.grid(64)
    f = np.cos(TWO_PI * x)
    out = io.invert_mu_dxx_integral(f)
    assert np.max(np.abs(out - f / TWO_PI ** 2)) < 1e-13
    # agrees with the spectral-division route
    assert np.max(np.abs(out - io.invert(io.MU_MINUS_DXX, f))) < 1e-13


def test_integral_inverse_cross_implementation():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        f = sp.random_trig_field(256, 32, rng)
        d = np.max(np.abs(io.invert_mu_dxx_integral(f) - io.invert(io.MU_MINUS_DXX, f)))
        worst = max(worst, float(d))
    assert worst <= 1e-10


def test_integral_inverse_low_resolution():
    rng = np.random.default_rng(3)
    f = sp.random_trig_field(16, 5, rng)
    d = np.max(np.abs(io.invert_mu_dxx_integral(f) - io.invert(io.MU_MINUS_DXX, f)))
    assert d <= 1e-10


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_integral_inverse_with_nyquist_energy(n):
    # random_trig_field stops at n/3; this field carries the Nyquist cosine
    x = sp.grid(n)
    f = 0.7 + np.cos(np.pi * n * x) + 0.3 * np.sin(TWO_PI * x)
    d = np.max(np.abs(io.invert_mu_dxx_integral(f) - io.invert(io.MU_MINUS_DXX, f)))
    assert d <= 1e-12


def test_integral_inverse_memory_is_linear():
    # an n x n phase table would take 33.6 MB at n = 1024
    import tracemalloc
    f = sp.random_trig_field(1024, 32, np.random.default_rng(5))
    tracemalloc.start()
    try:
        io.invert_mu_dxx_integral(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_integral_inverse_result_is_periodic():
    rng = np.random.default_rng(4)
    f = sp.random_trig_field(128, 20, rng)
    out = io.invert_mu_dxx_integral(f)
    c = sp.transform(out)  # would raise on non-finite; check round trip sanity
    assert np.max(np.abs(sp.inverse_transform(c) - out)) < 1e-12


# symmetry / normalization -------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_symmetry_defect_small(spec):
    assert io.check_symmetry(spec, trials=10) <= 1e-12


def test_symmetry_gram_oracle():
    # independent oracle: the Gram matrix <A u_i, u_j> on a random basis is symmetric
    rng = np.random.default_rng(5)
    spec = io.InertiaSpec.diagonal({k: float(rng.uniform(0.5, 3.0)) for k in range(0, 17)})
    basis = [sp.random_trig_field(32, 10, rng) for _ in range(6)]
    gram = np.array([[sp.inner_l2(io.apply(spec, u), v) for v in basis] for u in basis])
    assert np.max(np.abs(gram - gram.T)) <= 1e-12


def test_normalize_scaled_operator():
    doubled = io.InertiaSpec(kind="mu_minus_dxx", scale=2.0)
    assert np.array_equal(io.normalize(doubled).multipliers(16),
                          io.MU_MINUS_DXX.multipliers(16))


def test_normalize_is_idempotent_on_unit_operator():
    assert io.normalize(io.MU_MINUS_DXX) == io.MU_MINUS_DXX


def test_normalize_diagonal():
    spec = io.InertiaSpec.diagonal({0: 4.0, 1: 8.0})
    out = io.normalize(spec)
    assert out.symbol_at(0) == pytest.approx(1.0)
    assert out.symbol_at(1) == pytest.approx(2.0)


def test_normalize_rejects_kernel():
    with pytest.raises(ValueError, match="normalize"):
        io.normalize(io.NEG_DXX)


# metric identities ---------------------------------------------------------------

def test_inner_mu_equals_operator_pairing():
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = sp.random_trig_field(64, 20, rng)
        v = sp.random_trig_field(64, 20, rng)
        lhs = sp.inner_mu(u, v)
        rhs = sp.inner_l2(io.apply(io.MU_MINUS_DXX, u), v)
        assert abs(lhs - rhs) <= 1e-11


def test_positivity():
    rng = np.random.default_rng(7)
    for spec in [io.MU_MINUS_DXX, io.InertiaSpec.helmholtz(0.5)]:
        for _ in range(5):
            u = sp.random_trig_field(64, 20, rng)
            assert sp.inner_l2(io.apply(spec, u), u) > 0.0


# serialization -------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS + [io.InertiaSpec(kind="helmholtz", lam=0.25, scale=3.0)])
def test_dict_round_trip(spec):
    assert io.InertiaSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("bad, match", [
    ({"kind": "nope"}, "kind"),
    ({"kind": "helmholtz"}, "lam"),
    ({"kind": "diagonal"}, "symbol"),
    ("mu_minus_dxx", "kind"),
    ({"kind": "mu_minus_dxx", "scale": 0}, r"^inertia\.scale: "),
    ({"kind": "helmholtz", "lam": -1}, r"^inertia\.lam: "),
    ({"kind": "diagonal", "symbol": {"0": 1, "1": 0}}, r"^inertia\.symbol\.1: .*nonzero"),
    ({"kind": "diagonal", "symbol": {"1": 2.0, "01": 5.0, "0": 1.0}},
     r"^inertia\.symbol\.1: duplicate mode$"),
])
def test_from_dict_names_offending_field(bad, match):
    with pytest.raises(ValueError, match=match):
        io.InertiaSpec.from_dict(bad)
