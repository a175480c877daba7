import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from jsde_lab import model as model_module
from jsde_lab.errors import CatalogError, DomainError
from jsde_lab.analysis import moment_bound, phi_growth
from jsde_lab.exprs import parse_expression
from jsde_lab.integrator import (SchemeConfig, ito_levy_apply, simulate,
                                 simulate_paths)
from jsde_lab.model import (_CDF_TABLE, GAMMA, GROWTH_CATALOG,
                            MODULUS_CATALOG, Band, CoefficientSet,
                            GrowthFunction, MarkMeasure, Modulus,
                            builtin_growth, builtin_modulus, gauss_legendre,
                            in_bands, lebesgue, preset, scale_modulus)
from jsde_lab.noise import derive_path_seed, sample_batch, sample_noise
from jsde_lab.verifier import (MU_EXAMPLE_31, PairGrid, _growth_lhs,
                               check_corollary_conditions, check_growth,
                               check_local_conditions, check_modulus,
                               check_nonconfluence_conditions,
                               designated_sets, reports_to_json)


# ---------------------------------------------------------------------------
# bands and measures
# ---------------------------------------------------------------------------

def test_band_half_open_semantics():
    band = Band(1.0, 2.0)
    assert not band.contains(1.0)
    assert band.contains(2.0)
    assert band.contains(1.5)
    closed = Band(1.0, 2.0, closed_lo=True, closed_hi=False)
    assert closed.contains(1.0) and not closed.contains(2.0)


def test_in_bands_none_is_everything():
    marks = np.array([-5.0, 0.0, 7.0])
    assert in_bands(None, marks).all()
    sel = in_bands((Band(0.0, 1.0), Band(6.0, 8.0)), marks)
    assert sel.tolist() == [False, False, True]


def test_lebesgue_mass_and_integrate():
    nu = lebesgue(-1.0, 1.0)
    assert nu.total_mass == pytest.approx(2.0, rel=1e-12)
    # straddling pieces are split at 0, so the |u| kink is never crossed
    assert len(nu.pieces) == 2
    assert nu.integrate(np.abs) == pytest.approx(1.0, rel=1e-12)
    assert nu.integrate(lambda u: u * u) == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_constant_integrand_is_summed_as_its_expanded_form():
    nu = lebesgue(-1.0, 1.0)
    assert nu.integrate(lambda u: 2.0) == nu.integrate(lambda u: 2.0 + 0 * u)


def test_measure_atoms():
    nu = MarkMeasure(atoms=[(1.0, 0.5), (2.0, 0.25)])
    assert nu.total_mass == pytest.approx(0.75)
    assert nu.integrate(lambda u: u) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        MarkMeasure(atoms=[(1.0, 0.0)])
    with pytest.raises(DomainError):
        MarkMeasure(pieces=[(2.0, 1.0, lambda u: np.ones_like(u))])


@pytest.mark.parametrize("make, message", [
    (lambda: MarkMeasure(atoms=[(math.nan, 1.0)]),
     "atom at nan of weight 1.0 is not finite"),
    (lambda: MarkMeasure(atoms=[(math.inf, 1.0)]),
     "atom at inf of weight 1.0 is not finite"),
    (lambda: MarkMeasure(atoms=[(0.5, math.nan)]),
     "atom at 0.5 of weight nan is not finite"),
    (lambda: MarkMeasure(atoms=[(0.5, math.inf)]),
     "atom at 0.5 of weight inf is not finite"),
    # a non-unit density on (0, inf) read total_mass -1 as a finite mass
    (lambda: MarkMeasure(pieces=[(0.0, math.inf, lambda u: 2.0 + 0 * u)]),
     "density piece [0.0, inf] is not finite"),
    (lambda: MarkMeasure(pieces=[(math.nan, 1.0, lambda u: 1.0 + 0 * u)]),
     "density piece [nan, 1.0] is not finite"),
    (lambda: lebesgue(-math.inf, 1.0),
     "density piece [-inf, 1.0] is not finite"),
    (lambda: Band(math.nan, 1.0), "band (nan, 1.0] has a NaN bound"),
    (lambda: Band(0.0, math.nan), "band (0.0, nan] has a NaN bound"),
], ids=["nan_atom", "inf_atom", "nan_weight", "inf_weight", "inf_piece",
        "nan_piece", "inf_lebesgue", "nan_band_lo", "nan_band_hi"])
def test_measures_and_bands_reject_non_finite_input(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_measure_restriction():
    nu = lebesgue(1.0, 2.0)
    assert nu.restricted(None) is nu
    assert nu.restricted(()).total_mass == 0.0
    half = nu.restricted((Band(1.0, 1.5),))
    assert half.total_mass == pytest.approx(0.5, rel=1e-10)
    assert nu.mass_in((Band(1.0, 1.25),)) == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("nu2, u3, mass", [
    (lebesgue(1.0, 2.0), None, 1.0),
    (lebesgue(1.0, 2.0), (), 0.0),
    (MarkMeasure(atoms=[(1.0, 0.5), (2.0, 0.25)]), Band(1.5, 3.0), 0.25),
], ids=["u3-none", "u3-empty", "u3-band"])
def test_u3_measure_restricts_nu2_to_u3(nu2, u3, mass):
    m = CoefficientSet(b=None, sigma=None, c1=None, c2=None, nu1=None,
                       nu2=nu2, u3=u3)
    restricted = m.u3_measure()
    if u3 is None:
        assert restricted is nu2
    assert restricted.total_mass == pytest.approx(mass, rel=1e-10)


def test_u3_measure_without_nu2_is_none():
    m = CoefficientSet(b=None, sigma=None, c1=None, c2=None, nu1=None,
                       nu2=None, u3=Band(1.5, 3.0))
    assert m.u3_measure() is None


def _unit(u):
    return np.ones_like(np.asarray(u, dtype=float))


def test_total_mass_is_the_quadrature_sum_bit_for_bit():
    nu = MarkMeasure(pieces=[(-1.0, 2.0, _unit)], atoms=[(3.0, 0.25)])
    want = 0.25
    for lo, hi in ((-1.0, 0.0), (0.0, 2.0)):
        want += quad(lambda u: float(np.asarray(_unit(u))), lo, hi,
                     limit=200)[0]
    assert nu.total_mass == want
    half = lebesgue(1.0, 2.0).restricted((Band(1.0, 1.5), Band(1.75, 3.0)))
    want = 0
    for lo, hi in ((1.0, 1.5), (1.75, 2.0)):
        want += quad(lambda u: float(np.asarray(_unit(u))), lo, hi,
                     limit=200)[0]
    assert half.total_mass == want


def test_lebesgue_mass_is_hi_minus_lo_and_equals_quad(monkeypatch):
    rng = np.random.default_rng(5)
    ends = np.sort(rng.uniform(-10.0, 10.0, size=(200, 2)), axis=1)
    want = [quad(lambda u: float(np.asarray(_unit(u))), lo, hi,
                 limit=200)[0] for lo, hi in ends]
    import scipy.integrate
    monkeypatch.setattr(scipy.integrate, "quad", None)
    for (lo, hi), mass in zip(ends, want):
        assert lebesgue(lo, hi).total_mass == mass == hi - lo
    nu = MarkMeasure(pieces=lebesgue(1.0, 2.0).pieces, atoms=[(3.0, 0.25)])
    assert nu.restricted(Band(0.0, 1.5)).total_mass == 0.5
    assert nu.total_mass == 0.25 + 1.0


def test_total_mass_is_computed_once_on_first_read(monkeypatch):
    calls = []
    original = MarkMeasure._quadrature_mass

    def counting(self):
        calls.append(self.label)
        return original(self)

    monkeypatch.setattr(MarkMeasure, "_quadrature_mass", counting)
    nu = lebesgue(1.0, 2.0, label="nu")
    assert calls == []
    first = nu.total_mass
    assert nu.total_mass == first and nu.mass_in(None) == first
    assert nu.is_finite
    assert calls == ["nu"]


def test_a_density_that_does_not_integrate_has_infinite_mass():
    # quad's estimate of this divergent integral read as a mass of -4.0
    nu = MarkMeasure(pieces=[(-1.0, 1.0, lambda u: abs(u) ** -1.5)])
    assert nu.total_mass == math.inf and not nu.is_finite
    # an integrable singularity stays finite
    root = MarkMeasure(pieces=[(-1.0, 1.0, lambda u: abs(u) ** -0.5)])
    assert root.total_mass == pytest.approx(4.0, rel=1e-12)


def test_a_signed_density_is_a_domain_error():
    # u on (-1, 1) read as a mass of 0.0
    with pytest.raises(DomainError, match="negative mass"):
        MarkMeasure(pieces=[(-1.0, 1.0, lambda u: u)]).total_mass


def test_l_star_is_the_old_bracketed_root():
    old = brentq(lambda L: math.log(L) - 1.0 / L, 1.2, 3.0,
                 xtol=1e-15, rtol=8.9e-16)
    assert model_module._L_STAR.hex() == "0x1.c36292591a110p+0"
    assert model_module._L_STAR == old


def test_nodes_and_weights_sum_to_mass():
    nu = MarkMeasure(
        pieces=[(-1.0, 1.0, lambda u: np.ones_like(np.asarray(u)))],
        atoms=[(1.5, 0.5)],
    )
    u, w = nu.nodes_and_weights()
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(nu.total_mass, rel=1e-12)
    u2, w2 = nu.nodes_and_weights()
    assert u2 is u and w2 is w       # cached


@pytest.mark.parametrize("n", [64, 81])
def test_gauss_legendre_rule_is_computed_once_and_read_only(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert gauss_legendre(n)[0] is x and gauss_legendre(n)[1] is w
    assert not x.flags.writeable and not w.flags.writeable


def test_nodes_and_weights_use_the_cached_rule(monkeypatch):
    gauss_legendre(model_module._GL_NODES)
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n))
    u, w = lebesgue(-1.0, 2.0).restricted(Band(-0.5, 1.5)).nodes_and_weights()
    assert calls == []
    assert u.size == 2 * model_module._GL_NODES


def test_measure_sampling_reproducible():
    nu = lebesgue(1.0, 2.0)
    a = nu.sample(np.random.Generator(np.random.Philox(key=[7, 0])), 100)
    b = nu.sample(np.random.Generator(np.random.Philox(key=[7, 0])), 100)
    assert np.array_equal(a, b)
    assert np.all((a > 1.0) & (a <= 2.0))


def _choice_sample(nu, rng, size):
    # the categorical-by-rng.choice sampler that MarkMeasure.sample replaced
    if size == 0:
        return np.zeros(0)
    comp_mass, tables = [], []
    for lo, hi, dens in nu.pieces:
        grid = np.linspace(lo, hi, _CDF_TABLE)
        vals = np.maximum(np.asarray(dens(grid), dtype=float), 0.0)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
        comp_mass.append(cdf[-1])
        tables.append((grid, cdf / cdf[-1] if cdf[-1] > 0 else cdf))
    for u, w in nu.atoms:
        comp_mass.append(w)
        tables.append(u)
    probs = np.asarray(comp_mass, dtype=float)
    probs = probs / probs.sum()
    comp = rng.choice(len(probs), size=size, p=probs)
    out = np.empty(size, dtype=float)
    for k, table in enumerate(tables):
        mask = comp == k
        if not np.any(mask):
            continue
        if isinstance(table, tuple):
            grid, cdf = table
            out[mask] = np.interp(rng.random(int(mask.sum())), cdf, grid)
        else:
            out[mask] = table
    return out


SAMPLED_MEASURES = {
    "one_piece": lambda: lebesgue(1.0, 2.0),
    "piece_split_at_0": lambda: lebesgue(-1.0, 1.0),
    "piece_and_atoms": lambda: MarkMeasure(
        pieces=[(0.5, 3.0, lambda u: np.exp(-np.asarray(u, dtype=float)))],
        atoms=[(-1.0, 0.3), (4.0, 0.2)]),
    "three_atoms": lambda: MarkMeasure(
        atoms=[(-0.5, 0.1), (1.25, 0.6), (2.0, 0.3)]),
    "one_atom": lambda: MarkMeasure(atoms=[(1.5, 0.7)]),
}


@pytest.mark.parametrize("size", [0, 1, 2, 5, 37])
@pytest.mark.parametrize("name", sorted(SAMPLED_MEASURES))
def test_measure_sampling_matches_the_choice_sampler(name, size):
    nu = SAMPLED_MEASURES[name]()
    for key in range(12):
        rng = np.random.Generator(np.random.Philox(key=[key, 1]))
        ref = np.random.Generator(np.random.Philox(key=[key, 1]))
        assert nu.sample(rng, size).tobytes() \
            == _choice_sample(nu, ref, size).tobytes()
        # the stream is left at the same position
        assert rng.random(3).tolist() == ref.random(3).tolist()


# ---------------------------------------------------------------------------
# modulus catalog
# ---------------------------------------------------------------------------

def test_modulus_catalog_names():
    assert set(MODULUS_CATALOG) == {"identity", "neg_x_log_x", "x_log_log",
                                    "one_minus_x_pow_x"}
    with pytest.raises(CatalogError, match="identity"):
        builtin_modulus("lipschitz")


def test_identity_modulus_values():
    rho = builtin_modulus("identity")
    x = np.geomspace(1e-10, 1.0, 11)
    assert np.allclose(rho(x), x)


def test_catalog_positive_nondecreasing_on_hint():
    for name in MODULUS_CATALOG:
        rho = builtin_modulus(name)
        x = np.geomspace(1e-12, min(rho.domain_hint, 1.0), 301)
        vals = np.asarray(rho(x), dtype=float)
        assert np.all(vals > 0), name
        assert np.all(np.diff(vals) >= -1e-15 * vals[1:]), name


def test_scale_and_affine_modulus():
    rho = builtin_modulus("identity")
    assert scale_modulus(rho, 3.0)(0.5) == pytest.approx(1.5)
    with pytest.raises(DomainError):
        scale_modulus(rho, -1.0)
    # a non-finite factor built nan*identity or inf*identity
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            scale_modulus(rho, bad)


# ---------------------------------------------------------------------------
# growth catalog
# ---------------------------------------------------------------------------

def test_growth_catalog_names():
    assert set(GROWTH_CATALOG) == {"one", "log", "log_loglog"}
    with pytest.raises(CatalogError):
        builtin_growth("quadratic")


def test_growth_one_is_constant():
    ups = builtin_growth("one")
    assert np.allclose(ups(np.array([0.0, 5.0, 1e6])), 1.0)


def test_growth_log_values_and_kink():
    ups = builtin_growth("log")
    assert ups(1.0) == pytest.approx(1.0)          # clamped below e
    assert ups(math.e) == pytest.approx(1.0)
    assert ups(math.e ** 2) == pytest.approx(2.0)
    assert ups.kinks == (math.e,)


def test_growth_prime_matches_finite_difference():
    for name in ("log", "log_loglog"):
        ups = builtin_growth(name)
        for x in (15.0, 40.0):
            fd = (float(ups(x + 1e-6)) - float(ups(x - 1e-6))) / 2e-6
            assert float(ups.upsilon_prime(x)) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_names():
    with pytest.raises(CatalogError, match="example_31"):
        preset("example_99")


def test_gamma_normalizes_second_moment():
    nu1 = preset("example_31").nu1
    second = nu1.integrate(lambda u: u * u)
    assert GAMMA ** 2 * second == pytest.approx(1.0, rel=1e-10)


def test_example_31_coefficients():
    m = preset("example_31")
    assert m.label == "example_31"
    assert m.u3 == ()
    assert float(np.asarray(m.b(0.0))) == 0.0
    assert float(np.asarray(m.b(0.5))) == pytest.approx(-0.5 * math.log(0.5))
    assert float(np.asarray(m.b(-0.5))) == pytest.approx(-0.5 * math.log(0.5))
    assert float(np.asarray(m.sigma(4.0))) == pytest.approx(2.0)
    # closed-form compensation drift against direct quadrature
    for xv in (0.25, 1.0, 3.0):
        direct, _ = quad(lambda u: math.sqrt(abs(xv)), -1.0, 1.0)
        assert float(np.asarray(m.c1_mean(xv))) == pytest.approx(direct,
                                                                 rel=1e-10)


def test_example_41_coefficients():
    m = preset("example_41")
    assert m.u3 == ()
    assert float(np.asarray(m.b(2.0))) == pytest.approx(-(8.0 + 2.0 ** (1 / 3)))
    assert float(np.asarray(m.b(-2.0))) == pytest.approx(8.0 + 2.0 ** (1 / 3))
    assert float(np.asarray(m.sigma(3.0))) == pytest.approx(6.0)
    assert float(np.asarray(m.c1(2.0, -0.5))) == pytest.approx(GAMMA * 0.5 * 2.0)
    assert m.nu2.total_mass == pytest.approx(1.0, rel=1e-10)


# each case's value broadcast to its arguments' shape
BROADCAST_VALUES = {
    "constant": np.full((4, 3), 2.0),
    "state-free": np.tile(np.arange(5.0), (3, 1)),
    "mark-free": np.repeat(np.arange(3.0)[:, None], 5, axis=1),
    "scalar": np.array(2.0),
}


@pytest.mark.parametrize("name, fn, args, shape", [
    ("constant", lambda x, u: 2, (np.zeros(3), np.zeros((4, 1))), (1, 1)),
    ("state-free", lambda x, u: u, (np.zeros((3, 1)), np.arange(5.0)),
     (1, 5)),
    ("mark-free", lambda x, u: x, (np.arange(3.0)[:, None], np.ones(5)),
     (3, 1)),
    ("scalar", lambda x, u: x * u, (1.0, 2.0), ()),
])
def test_coefficients_return_floats_shaped_like_their_arguments(
        name, fn, args, shape):
    m = CoefficientSet(b=None, sigma=None, c1=fn, c2=fn, nu1=None,
                       nu2=None, c1_mean=lambda x: 1)
    expected = BROADCAST_VALUES[name]
    for value in (m.c1(*args), m.c2(*args)):
        assert value.dtype == float and value.shape == shape
        assert np.array_equal(np.broadcast_to(value, expected.shape),
                              expected)
    assert m.b is None and m.sigma is None
    x = np.arange(3.0)
    assert m.c1_mean(x).dtype == float and m.c1_mean(x).shape == (3,)
    assert not m.c1_mean(x).flags.writeable


def test_coefficient_values_of_the_right_shape_are_not_copied():
    out = np.arange(4.0)
    m = CoefficientSet(b=lambda x: out, sigma=None, c1=None, c2=None,
                       nu1=None, nu2=None)
    assert m.b(np.zeros(4)) is out


class _Sub(np.ndarray):
    pass


_OWN = np.arange(3.0)


def _saw_plain_float64(x):
    # 1 where the callable was handed a plain float64 ndarray
    return np.full(np.shape(x), float(type(x) is np.ndarray
                                      and x.dtype == np.float64))


# (name, callable, arguments, expected value); the first row is the float64
# fast path, whose value is the callable's own array
WRAPPER_CASES = (
    ("float64 array", lambda x: _OWN, (np.zeros(3),), _OWN),
    ("list", lambda x: 2 * x, ([1, 2, 3],), np.array([2.0, 4.0, 6.0])),
    ("int array", lambda x: x / 3, (np.arange(3),), np.arange(3.0) / 3),
    ("float32 array", lambda x: x / 3, (np.arange(3, dtype=np.float32),),
     np.arange(3.0) / 3),
    ("float32 seen", _saw_plain_float64, (np.zeros(2, dtype=np.float32),),
     np.ones(2)),
    ("0-d array", lambda x: x * x, (np.array(1.5),), np.array(2.25)),
    ("Python float", lambda x: x * x, (1.5,), np.array(2.25)),
    ("subclass seen", _saw_plain_float64, (np.zeros(2).view(_Sub),),
     np.ones(2)),
    ("subclass value", lambda x: np.arange(2.0).view(_Sub), (np.zeros(2),),
     np.arange(2.0)),
    ("int value", lambda x: np.arange(2), (np.zeros(2),), np.arange(2.0)),
    ("wrong-shape value", lambda x: np.ones(1), (np.zeros(3),), np.ones(3)),
    ("two arguments", lambda x, u: x * u, (np.arange(3.0), np.full(3, 2.0)),
     np.arange(3.0) * 2),
    ("two arguments broadcast", lambda x, u: x + u,
     (np.zeros((2, 1)), [1, 2, 3]), np.tile([1.0, 2.0, 3.0], (2, 1))),
    ("two arguments, int array", lambda x, u: x * u,
     (np.arange(3.0), np.arange(3)), np.arange(3.0) ** 2),
    ("two arguments, column and row", lambda x, u: x * u,
     (np.arange(2.0)[:, None], np.arange(3.0)[None, :]),
     np.outer(np.arange(2.0), np.arange(3.0))),
    ("two arguments, subclass seen",
     lambda x, u: _saw_plain_float64(x) * _saw_plain_float64(u),
     (np.zeros(2), np.zeros(2).view(_Sub)), np.ones(2)),
    ("mark-free value", lambda x, u: 2 * x,
     (np.arange(2.0)[:, None], np.zeros((1, 3))), np.array([[0.0], [2.0]])),
)


@pytest.mark.parametrize("name, fn, args, expected", WRAPPER_CASES,
                         ids=[case[0] for case in WRAPPER_CASES])
def test_wrapper_values_by_argument_kind(name, fn, args, expected):
    value = model_module._float_array_valued(fn)(*args)
    assert type(value) is np.ndarray and value.dtype == np.float64
    assert value.shape == expected.shape
    assert value.tobytes() == expected.tobytes()
    assert (value is _OWN) == (name == "float64 array")
    # a one-argument value broadcast to the argument's shape is a read-only
    # view; a two-argument value keeps its length-1 axes
    assert value.flags.writeable == (name != "wrong-shape value")


@pytest.mark.parametrize("shape, args", [
    ((7,), (np.zeros((3, 1)), np.zeros((1, 5)))),
    ((2, 1, 5), (np.zeros((3, 1)), np.zeros((1, 5)))),
    ((3, 5), (np.zeros((3, 1)), np.zeros((3, 1)))),
], ids=["too long", "too many axes", "full where the arguments are not"])
def test_a_two_argument_value_that_does_not_broadcast_raises(shape, args):
    wrapped = model_module._float_array_valued(lambda x, u: np.ones(shape))
    with pytest.raises(ValueError, match="does not broadcast"):
        wrapped(*args)


def test_wrapped_callables_get_float_arrays_and_are_not_rewrapped():
    seen = []

    def one(u):
        seen.append(u)
        return 1

    wrapped = model_module._float_array_valued(one)
    assert wrapped(2).dtype == float and seen[0].dtype == float
    assert model_module._float_array_valued(wrapped) is wrapped
    unit = model_module._unit_density
    nu = lebesgue(0.0, 2.0)
    for measure in (nu, nu.restricted(Band(0.5, 1.0)),
                    MarkMeasure(pieces=nu.pieces)):
        assert measure.pieces[0][2] is unit


def _constant_modulus():
    return Modulus(lambda r: 0.5, 1.0, "const")


CONSTANT_GROWTHS = (GrowthFunction(lambda x: 1, lambda x: 0, "one"),
                    GrowthFunction(lambda x: 2.0, lambda x: 0.0, "two"))
GROWTH_RUNS = {
    "check_growth": lambda g: check_growth(preset("example_41"), g, 10.0),
    "phi_growth": lambda g: phi_growth(g, [0.0, 1.0, 1e6]),
    "moment_bound": lambda g: moment_bound(g, 1.0, 0.0, 1.0, 1.0),
}


def _noise_with_density(dens):
    m = CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.5, c1=None,
                       c2=lambda x, u: u, nu1=None,
                       nu2=MarkMeasure(pieces=[(1.0, 2.0, dens)]))
    return sample_noise(m, 10.0, 2.0 ** -4, 7).events["mark"]


# constant moduli, growth envelopes, mark densities and A26 affine maps:
# each row returns a verdict or a value
CONTRACT_MATRIX = {
    "modulus/check_modulus": lambda: check_modulus(_constant_modulus()),
    "modulus/local_alpha_0": lambda: check_local_conditions(
        preset("example_41"), _constant_modulus(), 0.0, 1.0),
    "modulus/local_alpha_0.5": lambda: check_local_conditions(
        preset("example_41"), _constant_modulus(), 0.5, 1.0),
    "modulus/corollary": lambda: check_corollary_conditions(
        preset("example_41"), _constant_modulus(), _constant_modulus(), 1.0),
    "modulus/scaled": lambda: check_modulus(
        scale_modulus(_constant_modulus(), 2)),
    **{f"growth_{g.label}/{name}": functools.partial(run, g)
       for g in CONSTANT_GROWTHS for name, run in GROWTH_RUNS.items()},
    "density_2.0/sample_noise": lambda: _noise_with_density(lambda u: 2.0),
    "density_1/sample_noise": lambda: _noise_with_density(lambda u: 1),
    "affine_k/nonconfluence": lambda: check_nonconfluence_conditions(
        preset("example_41"), scale_modulus(builtin_modulus("identity"), 5.0),
        0.0, 0.5, affine_k=lambda u: 0.2),
    # a bare callable as the growth envelope, not a GrowthFunction
    "bare_growth/phi_growth": lambda: phi_growth(lambda x: 1.0, 2.0),
    "bare_growth/moment_bound": lambda: moment_bound(
        lambda x: 1.0, 1.0, 0.0, 1.0, 1.0),
    "bare_growth/check_growth": lambda: check_growth(
        preset("example_31"), lambda x: 1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_MATRIX))
def test_constant_callables_never_raise(name):
    result = CONTRACT_MATRIX[name]()
    verdict = getattr(result, "verdict", None)
    assert verdict in (None, "no_violation_found", "violated")
    if verdict is None:
        assert np.all(np.isfinite(result))


def test_c1_mean_quadrature_fallback():
    from jsde_lab.model import CoefficientSet
    m = CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c1=lambda x, u: np.asarray(u, dtype=float) ** 2
        * np.ones_like(np.asarray(x, dtype=float)),
        c2=None, nu1=lebesgue(-1.0, 1.0), nu2=None, label="quadratic-jumps",
    )
    assert float(np.asarray(m.c1_mean(1.0))) == pytest.approx(2.0 / 3.0,
                                                              rel=1e-8)


# a mark-free c1 and its twin expanded over the marks, neither with a closed
# form c1_mean: every consumer of c1 must give the twins the same bits
_XU = ("x", "u")
MARK_FREE_TWINS = {
    "python": (lambda x, u: np.sqrt(np.abs(x)),
               lambda x, u: np.sqrt(np.abs(x)) * np.ones_like(u)),
    "config": (parse_expression("sqrt(abs(x))", _XU),
               parse_expression("sqrt(abs(x)) + 0*u", _XU)),
}


def _twin_model(c1):
    return CoefficientSet(
        b=parse_expression("-x"), sigma=parse_expression("sqrt(abs(x))"),
        c1=c1, c2=parse_expression("u*x", _XU), nu1=lebesgue(-1.0, 1.0),
        nu2=lebesgue(1.0, 2.0), label="mark-free twin")


def _twin_simulate(m):
    h = 2.0 ** -6
    seeds = [derive_path_seed(7, i) for i in range(20)]
    paths = simulate_paths(m, sample_batch(m, 1.0, h, seeds),
                           SchemeConfig(base_step=h), 1.0)
    return np.concatenate([p.states for p in paths])


def _twin_ito(m):
    h = 2.0 ** -6
    noise = sample_noise(m, 1.0, h, 3)
    scheme = SchemeConfig(base_step=h)
    path = simulate(m, noise, scheme, 1.0)
    f = (np.sin, np.cos, lambda x: -np.sin(x))
    return ito_levy_apply(f, path, m, noise, scheme).states


def _twin_a25(m):
    check, params = designated_sets("example_31")["A25"]
    return reports_to_json([check(m, **params)])


def _twin_nonconfluence(m):
    # no affine_k: the separation condition is the sampled pair scan
    grid = PairGrid(anchors=np.linspace(-3.0, 3.0, 21),
                    gaps=np.geomspace(1e-3, 2.0, 33))
    return reports_to_json([check_nonconfluence_conditions(
        m, builtin_modulus("identity"), 0.5, 0.5, grid=grid)])


# (name -> run); each returns an array or a JSON report
TWIN_RUNS = {
    "c1_mean": lambda m: m.c1_mean(np.linspace(-3.0, 3.0, 7)),
    "integrate": lambda m: np.array(
        [m.nu1.integrate(lambda u: m.c1(x, u)) for x in (-3.0, 0.0, 0.7)]),
    "simulate_paths": _twin_simulate,
    "ito_levy_apply": _twin_ito,
    "designated_A25": _twin_a25,
    "check_growth": lambda m: reports_to_json(
        [check_growth(m, builtin_growth("log"), MU_EXAMPLE_31)]),
    "growth_lhs": lambda m: _growth_lhs(m, np.linspace(-10.0, 10.0, 101)),
    "nonconfluence": _twin_nonconfluence,
}


@pytest.mark.parametrize("run", sorted(TWIN_RUNS))
@pytest.mark.parametrize("twin", sorted(MARK_FREE_TWINS))
def test_mark_free_c1_gets_its_expanded_twins_bits(twin, run):
    mark_free, expanded = (TWIN_RUNS[run](_twin_model(c1))
                           for c1 in MARK_FREE_TWINS[twin])
    if isinstance(mark_free, str):
        assert mark_free == expanded
    else:
        assert mark_free.tobytes() == expanded.tobytes()


# a state-free c1 and its twin expanded over the states
STATE_FREE_TWINS = {
    "python": (lambda x, u: u, lambda x, u: u * np.ones_like(x)),
    "config": (parse_expression("u", _XU), parse_expression("u + 0*x", _XU)),
}


@pytest.mark.parametrize("run", sorted(TWIN_RUNS))
@pytest.mark.parametrize("twin", sorted(STATE_FREE_TWINS))
def test_state_free_c1_gets_its_expanded_twins_bits(twin, run):
    state_free, expanded = (TWIN_RUNS[run](_twin_model(c1))
                            for c1 in STATE_FREE_TWINS[twin])
    if isinstance(state_free, str):
        assert state_free == expanded
    else:
        assert state_free.shape == expanded.shape
        assert np.array_equal(state_free, expanded)


@pytest.mark.parametrize("value", [np.sqrt(np.linspace(0.0, 3.0, 7))[:, None],
                                   np.array([0.7]), 0.7])
def test_integrate_expands_a_mark_free_value_to_its_twins_bits(value):
    measure = lebesgue(-1.0, 1.0)
    nodes = measure.nodes_and_weights()[0].size
    expanded = np.broadcast_to(value, np.shape(value)[:-1] + (nodes,)).copy()
    got = measure.integrate(lambda u: value)
    want = measure.integrate(lambda u: expanded)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
