import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from jsde_lab.analysis import (OmegaTransform, a_sequence, bihari_bound,
                               implied_state_bound, moment_bound,
                               nonconfluence_constants, omega_build, p_alpha,
                               phi_growth, phi_inverse, psi_build,
                               r_inequality_check, reciprocal_mass,
                               w_integral)
from jsde_lab.errors import DomainError, TransformRangeError
from jsde_lab.model import builtin_growth, builtin_modulus, scale_modulus


# ---------------------------------------------------------------------------
# reciprocal integrals and the transform
# ---------------------------------------------------------------------------

def test_reciprocal_mass_identity_closed_form():
    rho = builtin_modulus("identity")
    assert reciprocal_mass(rho, 0.1, 1.0) == pytest.approx(math.log(10.0),
                                                           rel=1e-12)
    assert w_integral(rho, 0.0, 3.0) == pytest.approx(3.0, rel=1e-12)


def test_omega_identity_forward_inverse():
    tr = omega_build(builtin_modulus("identity"), 1.0)
    assert tr.forward(1.0) == pytest.approx(0.0, abs=1e-14)
    assert tr.forward(math.e) == pytest.approx(1.0, rel=1e-12)
    for x in (1e-8, 0.03, 0.7, 1.0):
        assert tr.inverse(tr.forward(x)) == pytest.approx(x, rel=1e-10)
    with pytest.raises(DomainError):
        tr.forward(0.0)
    with pytest.raises(DomainError):
        omega_build(builtin_modulus("identity"), -1.0)


def test_omega_roundtrip_catalog():
    for name in ("neg_x_log_x", "x_log_log", "one_minus_x_pow_x"):
        rho = builtin_modulus(name)
        tr = omega_build(rho, min(rho.domain_hint, 1.0) / 2.0)
        for x in (1e-6, 1e-3, tr.base_point):
            assert tr.inverse(tr.forward(x)) == pytest.approx(x, rel=1e-8), name


def test_omega_base_invariance_of_bihari():
    rho = builtin_modulus("identity")
    vals = [bihari_bound(omega_build(rho, base), 2.0, 1.0, 1.0)
            for base in (0.1, 1.0, 5.0)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    assert vals[2] == pytest.approx(vals[1], rel=1e-10)


def test_bihari_identity_is_gronwall():
    tr = omega_build(builtin_modulus("identity"), 1.0)
    assert bihari_bound(tr, 2.0, 1.0, 1.0) == pytest.approx(2.0 * math.e,
                                                            rel=1e-9)
    # piecewise-constant rate through breakpoints
    def g(s):
        return 3.0 if s < 0.25 else 0.5

    expect = 2.0 * math.exp(3.0 * 0.25 + 0.5 * 0.75)
    got = bihari_bound(tr, 2.0, g, 1.0, g_breakpoints=(0.25,))
    assert got == pytest.approx(expect, rel=1e-9)


def test_bihari_zero_forcing_is_exactly_zero():
    tr = omega_build(builtin_modulus("identity"), 1.0)
    assert bihari_bound(tr, 0.0, 5.0, 1.0) == 0.0
    assert bihari_bound(tr, lambda t: 0.0, 5.0, 1.0) == 0.0


def test_bihari_validation():
    tr = omega_build(builtin_modulus("identity"), 1.0)
    with pytest.raises(DomainError):
        bihari_bound(tr, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        bihari_bound(tr, 1.0, 1.0, -1.0)


@pytest.mark.parametrize("modulus, f, g, t", [
    ("identity", 1.0, math.nan, 1.0),
    ("identity", 1.0, math.inf, 1.0),
    ("identity", math.nan, 1.0, 1.0),
    ("identity", math.inf, 1.0, 1.0),
    ("identity", lambda t: math.nan, 1.0, 1.0),
    ("identity", 1.0, 1.0, math.inf),
    ("identity", 1.0, 1.0, math.nan),
    ("identity", 1.0, 1e300, 1e300),          # g * t overflows
    ("x_log_log", 1.0, 1.0, math.inf),
])
def test_bihari_rejects_non_finite_input(modulus, f, g, t):
    tr = omega_build(builtin_modulus(modulus), 1.0)
    with pytest.raises(DomainError, match="must be finite"):
        bihari_bound(tr, f, g, t)


def test_transform_range_error():
    # table-backed transforms cannot resolve arbitrarily deep negatives
    rho = builtin_modulus("neg_x_log_x")
    tr = omega_build(rho, 0.1)
    with pytest.raises(TransformRangeError):
        tr.inverse(-1e6)
    # while far above the base the inverse extends without error
    assert tr.inverse(1e6) > 1.0


# ---------------------------------------------------------------------------
# phi envelope and moment bound
# ---------------------------------------------------------------------------

def test_phi_constant_envelope_closed_form():
    one = builtin_growth("one")
    for x in (0.0, 0.5, 7.0, 100.0):
        assert phi_growth(one, x) == pytest.approx(1.0 + x, rel=1e-12)


def test_phi_log_envelope_regression():
    # frozen from two independent quadrature routes agreeing to 1e-15
    assert phi_growth(builtin_growth("log"), 10.0) == pytest.approx(
        7.64245547591009, rel=1e-12)


def test_phi_inverse_roundtrip():
    for name in ("one", "log"):
        ups = builtin_growth(name)
        for x in (0.0, 1.0, 42.0):
            assert phi_inverse(ups, phi_growth(ups, x)) == pytest.approx(
                x, rel=1e-9, abs=1e-12)
    with pytest.raises(DomainError):
        phi_inverse(builtin_growth("one"), 0.5)
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            phi_inverse(builtin_growth("one"), y)


def _phi_reference(upsilon, x):
    # adaptive quadrature at its tightest tolerance, split at the kinks and
    # at every decade so that it converges
    cuts = sorted({0.0, x, *(k for k in upsilon.kinks if k < x),
                   *(10.0 ** k for k in range(-12, 17) if 10.0 ** k < x)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(lambda s: 1.0 / (s * float(upsilon(s)) + 1.0), a, b,
                      epsabs=0.0, epsrel=1.2e-14, limit=200)
        total += val
    return math.exp(total)


@pytest.mark.parametrize("name", ["log", "log_loglog"])
def test_phi_matches_tight_quadrature(name):
    ups = builtin_growth(name)
    xs = np.geomspace(1e-12, 1e16, 57)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ref = np.array([_phi_reference(ups, x) for x in xs])
    np.testing.assert_allclose(phi_growth(ups, xs), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["one", "log", "log_loglog"])
def test_phi_batch_entries_equal_scalar_calls_bit_for_bit(name):
    ups = builtin_growth(name)
    xs = np.random.default_rng(5).lognormal(1.0, 3.0, 100)
    xs[::9] = 0.0
    singles = np.array([phi_growth(ups, x) for x in xs])
    for n in (1, 7, 100):
        assert np.array_equal(phi_growth(ups, xs[:n]), singles[:n])
    perm = np.random.default_rng(6).permutation(xs.size)
    assert np.array_equal(phi_growth(ups, xs[perm]), singles[perm])


def test_phi_shapes_and_origin():
    ups = builtin_growth("log")
    assert type(phi_growth(ups, np.float64(2.0))) is float
    assert type(phi_growth(ups, np.array(2.0))) is float
    out = phi_growth(ups, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    assert phi_growth(ups, []).shape == (0,)
    for name in ("one", "log", "log_loglog"):
        assert phi_growth(builtin_growth(name), 0.0) == 1.0


@pytest.mark.parametrize("x", [-1.0, [1.0, 2.0, -1e-300], math.nan, math.inf,
                               [1.0, math.nan], [[0.0], [math.inf]]])
def test_phi_rejects_negative_and_non_finite(x):
    with pytest.raises(DomainError):
        phi_growth(builtin_growth("log"), x)


@pytest.mark.parametrize("name", ["one", "log", "log_loglog"])
def test_phi_stays_monotone_for_large_arguments(name):
    # adaptive quadrature lost the mass at large x: log_loglog gave 3.85 at
    # 1e20, log 0.609 and one 1.797e63 at 1e100
    ups = builtin_growth(name)
    xs = np.geomspace(1e-12, 1e300, 2000)
    phi = phi_growth(ups, xs)
    assert np.all(phi >= 1.0) and np.all(np.diff(phi) >= 0.0)
    if name == "one":
        small = xs <= 1e40
        np.testing.assert_allclose(phi[small], 1.0 + xs[small], rtol=1e-12,
                                   atol=0)


def test_phi_near_the_top_of_float_range():
    # beyond 1e300, 1/(s*log(s) + 1) = 1/(s*log(s)) to far below rounding,
    # so phi grows exactly like log(x) there; s*Upsilon(s) overflows
    top = np.finfo(float).max
    assert phi_growth(builtin_growth("one"), top) == pytest.approx(
        top, rel=1e-11)
    log = builtin_growth("log")
    assert phi_growth(log, top) == pytest.approx(
        phi_growth(log, 1e300) * math.log(top) / math.log(1e300), rel=1e-12)


def test_moment_bound_constant_envelope():
    one = builtin_growth("one")
    assert moment_bound(one, 1.0, 0.0, 1.0, 1.0) == pytest.approx(
        2.0 * math.e, rel=1e-12)
    assert moment_bound(one, 0.0, 0.0, 3.0, 9.0) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        moment_bound(one, -1.0, 0.0, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            moment_bound(one, 1.0, 0.0, bad, 1.0)
        with pytest.raises(DomainError):
            moment_bound(one, bad, 0.0, 1.0, 1.0)


def test_implied_state_bound_monotone():
    one = builtin_growth("one")
    b1 = implied_state_bound(one, 1.0, 0.0, 1.0, 0.5)
    b2 = implied_state_bound(one, 1.0, 0.0, 1.0, 1.0)
    assert 0.0 < b1 < b2


# ---------------------------------------------------------------------------
# a-sequence and the psi family
# ---------------------------------------------------------------------------

def test_a_sequence_identity_closed_form():
    seq = a_sequence(builtin_modulus("identity"), 6)
    expect = [math.exp(-n * (n + 1) / 2.0) for n in range(7)]
    assert np.allclose(seq, expect, rtol=1e-9)
    assert np.all(np.diff(seq) < 0)


def test_a_sequence_scaled_modulus():
    # for c*identity the gaps satisfy ln(a_{n-1}/a_n) = c*n
    seq = a_sequence(scale_modulus(builtin_modulus("identity"), 0.5), 4)
    logs = -np.log(seq)
    assert np.allclose(np.diff(logs), [0.5 * n for n in (1, 2, 3, 4)],
                       rtol=1e-9)


def test_psi_family_basic_properties():
    fam = psi_build(builtin_modulus("identity"), 1)
    lo, hi = fam.support
    assert 0.0 < lo < hi <= 1.0
    r = np.linspace(0.0, lo, 50)
    assert np.allclose(fam.psi(r), 0.0, atol=1e-300)
    r = np.geomspace(lo * 1.01, 2.0, 200)
    psi = fam.psi(r)
    assert np.all(psi <= r + 1e-12)
    assert np.all(np.abs(fam.psi_prime(np.concatenate([-r, r]))) <= 1.0 + 1e-9)
    # above the support, psi(r) = r - mean is a unit-slope line
    big = np.array([1.5, 2.0, 3.0])
    assert np.allclose(np.diff(fam.psi(big)), np.diff(big), rtol=1e-12)
    assert fam.mass_quad() == pytest.approx(1.0, rel=1e-7)
    assert fam.gap_mass_check() == pytest.approx(1.0, rel=1e-8)


def test_psi_envelope_and_monotone_in_n():
    rho = builtin_modulus("identity")
    fams = [psi_build(rho, n) for n in (1, 3)]
    lo1, _ = fams[0].support
    r = np.geomspace(1e-4, 1.0, 100)
    p1, p3 = fams[0].psi(r), fams[1].psi(r)
    assert np.all(p3 >= p1 - 1e-12)
    # psi'' <= 2 / (n rho) on the support interior
    for fam in fams:
        lo, hi = fam.support
        rr = np.geomspace(lo * 1.001, hi * 0.999, 100)
        bound = 2.0 / (fam.n * np.asarray(rho(rr), dtype=float))
        assert np.all(fam.psi_ddot(rr) <= bound + 1e-6)
    with pytest.raises(DomainError):
        psi_build(rho, 0)


# ---------------------------------------------------------------------------
# constants and the remainder inequality
# ---------------------------------------------------------------------------

def test_p_alpha_exact_values():
    assert p_alpha(0.0) == 2.0
    assert p_alpha(1.0) == 8.0
    assert p_alpha(2.0) == 19.0
    with pytest.raises(DomainError):
        p_alpha(-0.5)


def test_nonconfluence_constants_exact():
    c = nonconfluence_constants(1.0, 1.0, 1.0)
    assert (c.K, c.K_prime, c.K1, c.K2) == (3.0, 2.0, 5.0, 7.0)
    c2 = nonconfluence_constants(0.0, 0.5, 2.0)
    assert c2.K == 1.0 and c2.K_prime == 1.0
    assert c2.K1 == 4.0 and c2.K2 == 2.0
    with pytest.raises(DomainError):
        nonconfluence_constants(1.0, 0.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda v: p_alpha(v), "alpha"),
    (lambda v: nonconfluence_constants(v, 0.5, 1.0), "alpha and M"),
    (lambda v: nonconfluence_constants(1.0, v, 1.0), "delta"),
    (lambda v: nonconfluence_constants(1.0, 0.5, v), "alpha and M"),
], ids=["p_alpha", "constants_alpha", "constants_delta", "constants_M"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constants_reject_non_finite_parameters(call, message, value):
    with pytest.raises(DomainError, match=f"^{message} must be"):
        call(value)


def test_r_inequality_admissible_grid():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(0.1, 3.0, 500),
                        -rng.uniform(0.1, 3.0, 500)])
    t = rng.uniform(0.2, 4.0, 1000)          # y = t*x keeps |x+y| >= |x|
    samples = np.column_stack([x, t * x])
    worst = r_inequality_check(1.0, 1.0, samples)
    assert worst <= 1e-12


def test_r_inequality_rejects_inadmissible():
    with pytest.raises(DomainError):
        r_inequality_check(1.0, 1.0, np.array([[1.0, -1.0]]))
    with pytest.raises(DomainError):
        r_inequality_check(1.0, 0.5, np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        r_inequality_check(1.0, 0.5, np.array([1.0, 2.0, 3.0]))
