"""Tests for the assumption verifier: certificates on the cataloged presets
and falsification witnesses on deliberately broken models."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from jsde_lab import verifier
from jsde_lab.errors import CatalogError, DomainError, NumericalDomainError
from jsde_lab.exprs import parse_expression
from jsde_lab.model import (
    CoefficientSet,
    GAMMA,
    GROWTH_CATALOG,
    MarkMeasure,
    affine_modulus,
    builtin_growth,
    preset,
    builtin_modulus,
    lebesgue,
    scale_modulus,
)
from jsde_lab.verifier import (
    NO_VIOLATION,
    VIOLATED,
    PairGrid,
    check_corollary_conditions,
    check_growth,
    check_local_conditions,
    check_modulus,
    check_nonconfluence_conditions,
    designated_checks,
    format_report_table,
    growth_ratio_supremum,
    reports_to_json,
)


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _small_grid(lo=-3.0, hi=3.0, gap_max=1.0, interval=None):
    return PairGrid(anchors=np.linspace(lo, hi, 31),
                    gaps=np.geomspace(1e-5, gap_max, 41),
                    interval=interval, label="test grid")


def _pairs(grid, gap_cap=None):
    # every pair of a grid, its chunks concatenated
    xs, ys, _ = zip(*grid.chunks(gap_cap))
    return np.concatenate(xs), np.concatenate(ys)


def _linear_model():
    return CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: 0.5 * np.asarray(x, dtype=float),
        c1=None, c2=None, nu1=None, nu2=None, label="linear",
    )


# ---------------------------------------------------------------------------
# A22 modulus admissibility
# ---------------------------------------------------------------------------

def test_check_modulus_identity_passes():
    rep = check_modulus(builtin_modulus("identity"))
    assert rep.assumption_id == "A22"
    assert rep.verdict == NO_VIOLATION
    assert all(c.verdict == NO_VIOLATION for c in rep.conditions)


def test_check_modulus_sqrt_violated_and_reconfirmed():
    # sqrt has a convergent reciprocal integral at 0+: inadmissible.
    from jsde_lab.model import Modulus
    sqrt = Modulus(lambda r: np.sqrt(np.asarray(r, dtype=float)),
                   domain_hint=np.inf, label="sqrt")
    rep = check_modulus(sqrt)
    assert rep.verdict == VIOLATED
    bad = [c for c in rep.conditions if c.verdict == VIOLATED]
    assert bad
    # at least one violated condition carries an independent reconfirmation
    assert any(c.worst.get("reconfirmed") is True for c in bad
               if c.worst is not None)


# ---------------------------------------------------------------------------
# A23 growth bound
# ---------------------------------------------------------------------------

def test_check_growth_linear_passes():
    rep = check_growth(_linear_model(), builtin_growth("one"), mu=2.0)
    assert rep.assumption_id == "A23"
    assert rep.verdict == NO_VIOLATION


def test_check_growth_cubic_violated_with_witness():
    m = CoefficientSet(
        b=lambda x: np.asarray(x, dtype=float) ** 3,
        sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None, label="cubic",
    )
    rep = check_growth(m, builtin_growth("one"), mu=1.0)
    assert rep.verdict == VIOLATED
    cond = next(c for c in rep.conditions if c.name == "growth_bound")
    assert cond.verdict == VIOLATED
    w = cond.worst
    # witness: 2 x b(x) = 2 x^4 against mu (x^2 + 1), reconfirmed pointwise
    assert w["lhs"] > w["rhs"]
    assert w["reconfirmed"] is True
    assert w["recomputed_lhs"] == pytest.approx(2.0 * w["x"] ** 4, rel=1e-12)


@pytest.mark.parametrize("name", sorted(GROWTH_CATALOG))
def test_growth_decade_increments_equal_the_81_point_loop(name):
    upsilon = builtin_growth(name)
    glx, glw = np.polynomial.legendre.leggauss(81)
    want = []
    for k in range(1, 13):
        a, b = (k - 1) * math.log(10.0), k * math.log(10.0)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = np.exp(mid + half * glx)
        want.append(half * float(np.dot(glw, s / (s * np.asarray(
            upsilon(s), dtype=float) + 1.0))))
    assert verifier._growth_decade_increments(upsilon).tolist() == want


def test_check_growth_rejects_negative_mu():
    with pytest.raises(DomainError):
        check_growth(_linear_model(), builtin_growth("one"), mu=-1.0)


def test_growth_ratio_supremum_linear_drift():
    # b = x, sigma = 0: ratio 2x^2 / (x^2 + 1) peaks at the grid edges.
    m = CoefficientSet(b=lambda x: np.asarray(x, dtype=float),
                       sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None)
    sup = growth_ratio_supremum(m, builtin_growth("one"),
                                anchors=np.linspace(-10, 10, 201))
    # 2x*x / (x^2+1) -> sup 2*100/101 on this grid
    sup_val, sup_arg = sup
    assert sup_val == pytest.approx(200.0 / 101.0, rel=1e-9)
    assert abs(sup_arg) == pytest.approx(10.0)


@pytest.mark.parametrize("anchors", [
    np.zeros(0), np.array([0.0, math.nan]), np.array([math.inf, 1.0]),
    np.array([-math.inf]), np.array(1.0), np.ones((2, 2))])
def test_growth_ratio_supremum_rejects_bad_anchors(anchors):
    # empty anchors raised a raw ValueError from argmax, and non-finite ones
    # a NumericalDomainError, as if the model had failed
    with pytest.raises(DomainError, match="growth ratio anchors"):
        growth_ratio_supremum(preset("example_41"), builtin_growth("one"),
                              anchors=anchors)


def test_growth_lhs_lays_its_anchors_as_rows_of_one_pair():
    base = preset("example_41")
    x_shapes = []

    def c1(x, u):
        x_shapes.append(np.shape(x))
        return base.c1(x, u)

    model = CoefficientSet(b=base.b, sigma=base.sigma, c1=c1, c2=base.c2,
                           nu1=base.nu1, nu2=base.nu2, u3=(),
                           label=base.label, c1_mean=base.c1_mean)
    x = np.linspace(-10.0, 10.0, 3 * verifier._PAIR_BLOCK + 7)
    lhs = verifier._growth_lhs(model, x)
    # consecutive anchors share blocks of 512, each with x as a column
    assert x_shapes == [(512, 1)] * 3 + [(7, 1)]
    # each anchor has the bits of that anchor integrated alone
    alone = np.concatenate([verifier._growth_lhs(base, x[i:i + 1])
                            for i in range(x.size)])
    assert lhs.tobytes() == alone.tobytes()
    ratio = alone / (x ** 2 + 1.0)
    i = int(np.argmax(ratio))
    assert growth_ratio_supremum(model, builtin_growth("one"), anchors=x) \
        == (float(ratio[i]), float(x[i]))


# ---------------------------------------------------------------------------
# A25 corollary conditions
# ---------------------------------------------------------------------------

def test_corollary_anti_monotone_c1_violated():
    # c1 decreasing in the state reverses the monotonicity scan.
    m = CoefficientSet(
        b=_zeros, sigma=_zeros,
        c1=lambda x, u: -np.asarray(x, dtype=float)
        * np.ones_like(np.asarray(u, dtype=float)),
        c2=None, nu1=lebesgue(0.0, 1.0), nu2=None, label="anti-monotone",
    )
    rep = check_corollary_conditions(
        m, builtin_modulus("identity"), builtin_modulus("identity"),
        delta0=1.0, grid=_small_grid(0.1, 2.0, 0.5))
    assert rep.assumption_id == "A25"
    names = {c.name: c.verdict for c in rep.conditions}
    assert names["c1_monotone_in_state"] == VIOLATED


def test_corollary_zero_model_passes():
    m = CoefficientSet(b=_zeros, sigma=_zeros, c1=None, c2=None,
                       nu1=None, nu2=None)
    rep = check_corollary_conditions(
        m, builtin_modulus("identity"), builtin_modulus("identity"),
        delta0=1.0, grid=_small_grid())
    assert rep.verdict == NO_VIOLATION


# ---------------------------------------------------------------------------
# A24 local conditions
# ---------------------------------------------------------------------------

def test_local_alpha_zero_routes_to_lipschitz_set():
    rep = check_local_conditions(
        _linear_model(), scale_modulus(builtin_modulus("identity"), 5.0),
        alpha=0.0, delta0=1.0, grid=_small_grid())
    assert rep.assumption_id == "A24"
    assert rep.verdict == NO_VIOLATION
    assert any("alpha = 0" in n for n in rep.notes)
    # monotonicity scan is excluded on this route
    assert all(c.name != "c1_monotone_in_state" for c in rep.conditions)


def test_local_positive_alpha_super_linear_drift_violated():
    m = CoefficientSet(
        b=lambda x: 8.0 * np.asarray(x, dtype=float) ** 3,
        sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None,
    )
    rep = check_local_conditions(
        m, builtin_modulus("identity"), alpha=1.0, delta0=0.5,
        grid=_small_grid(1.0, 3.0, 0.4))
    assert rep.verdict == VIOLATED


def test_local_validation():
    with pytest.raises(DomainError):
        check_local_conditions(_linear_model(), builtin_modulus("identity"),
                               alpha=-1.0, delta0=1.0)
    with pytest.raises(DomainError):
        check_local_conditions(_linear_model(), builtin_modulus("identity"),
                               alpha=1.0, delta0=0.0)


# ---------------------------------------------------------------------------
# A26 nonconfluence conditions
# ---------------------------------------------------------------------------

def test_nonconfluence_annihilating_jump_violated():
    # c(x, u) = -x collapses x + c(x) to zero: separation fails.
    m = CoefficientSet(
        b=_zeros, sigma=_zeros,
        c1=lambda x, u: -np.asarray(x, dtype=float)
        * np.ones_like(np.asarray(u, dtype=float)),
        c2=None, nu1=lebesgue(-1.0, 1.0), nu2=None, label="annihilating",
    )
    rep = check_nonconfluence_conditions(
        m, builtin_modulus("identity"), alpha=0.0, delta=0.5,
        grid=_small_grid(), affine_k=lambda u: -np.ones_like(
            np.asarray(u, dtype=float)))
    assert rep.assumption_id == "A26"
    names = {c.name: c.verdict for c in rep.conditions}
    assert names["jump_separation"] == VIOLATED


def test_nonconfluence_scaled_mark_passes():
    m = preset("example_41")
    rep = check_nonconfluence_conditions(
        m, scale_modulus(builtin_modulus("identity"), 5.0), alpha=0.0,
        delta=0.5, grid=_small_grid(-5.0, 5.0, 2.0),
        affine_k=lambda u: GAMMA * np.abs(np.asarray(u, dtype=float)))
    assert rep.verdict == NO_VIOLATION


def test_nonconfluence_validation():
    with pytest.raises(DomainError):
        check_nonconfluence_conditions(
            _linear_model(), builtin_modulus("identity"), alpha=1.0,
            delta=0.0)


# checker -> the scalar parameters it validates and valid values for all of
# them; each test row makes one of them non-finite
_SCALAR_CHECKS = {
    "growth": (lambda model, kw: check_growth(
        model, builtin_growth("one"), **kw), dict(mu=1.0)),
    "local": (lambda model, kw: check_local_conditions(
        model, builtin_modulus("identity"), **kw),
        dict(alpha=0.5, delta0=1.0)),
    "corollary": (lambda model, kw: check_corollary_conditions(
        model, builtin_modulus("identity"), builtin_modulus("identity"),
        **kw), dict(delta0=1.0)),
    "nonconfluence": (lambda model, kw: check_nonconfluence_conditions(
        model, builtin_modulus("identity"), **kw),
        dict(alpha=0.5, delta=0.5)),
}


@pytest.mark.parametrize("checker,param,value", [
    (checker, param, value)
    for checker, (_, params) in _SCALAR_CHECKS.items() for param in params
    for value in (math.nan, math.inf, -math.inf)])
def test_checkers_reject_non_finite_parameters(checker, param, value):
    check, params = _SCALAR_CHECKS[checker]
    with pytest.raises(DomainError, match=f"^{param} must be"):
        check(preset("example_41"), dict(params, **{param: value}))


@pytest.mark.parametrize("grid", [
    PairGrid(anchors=np.array([]), gaps=np.array([0.1])),
    PairGrid(anchors=np.array([0.0, 1.0]), gaps=np.array([])),
    PairGrid(anchors=np.array([0.0, 1.0]), gaps=np.array([0.1]),
             interval=(5.0, 6.0)),
], ids=["no_anchors", "no_gaps", "clipped_away"])
def test_pair_grid_without_pairs_is_a_domain_error(grid):
    with pytest.raises(DomainError, match="has no pairs"):
        _pairs(grid)
    model, modulus = preset("example_41"), builtin_modulus("identity")
    with pytest.raises(DomainError, match="has no pairs"):
        check_local_conditions(model, modulus, alpha=0.5, delta0=1.0,
                               grid=grid)
    with pytest.raises(DomainError, match="has no pairs"):
        check_nonconfluence_conditions(model, modulus, alpha=0.5, delta=0.5,
                                       grid=grid)


@pytest.mark.parametrize("anchors, gaps, kind", [
    # inf - 0.1 == inf, so the inf anchor's pairs used to drop out silently
    ([math.inf, 1.0], [0.1], "anchor"),
    ([math.nan, 1.0], [0.1], "anchor"),
    ([0.0, 1.0], [math.nan], "gap"),
    ([0.0, 1.0], [0.1, math.inf], "gap"),
], ids=["inf_anchor", "nan_anchor", "nan_gap", "inf_gap"])
def test_pair_grid_with_a_non_finite_anchor_or_gap_is_a_domain_error(
        anchors, gaps, kind):
    grid = PairGrid(anchors=np.array(anchors), gaps=np.array(gaps))
    message = f"^pair grid \\({grid.describe()}\\) has a non-finite {kind}$"
    with pytest.raises(DomainError, match=message):
        _pairs(grid)
    model = preset("example_41")
    modulus = scale_modulus(builtin_modulus("identity"), 5.0)
    with pytest.raises(DomainError, match=message):
        check_local_conditions(model, modulus, alpha=0.5, delta0=1.0,
                               grid=grid)
    with pytest.raises(DomainError, match=message):
        check_nonconfluence_conditions(model, modulus, alpha=0.0, delta=0.5,
                                       grid=grid)


@pytest.mark.parametrize("grid", [
    PairGrid(anchors=np.array([0.0]), gaps=np.array([0.1])),
    PairGrid(anchors=np.array([0.5, 0.5]), gaps=np.array([0.1, 0.2])),
], ids=["one_anchor", "one_distinct_anchor"])
def test_monotonicity_scan_on_one_anchor_is_a_domain_error(grid):
    # the pairs exist, but the c1 scan compares adjacent anchors
    identity = builtin_modulus("identity")
    with pytest.raises(DomainError, match="has one anchor"):
        check_corollary_conditions(preset("example_31"), identity, identity,
                                   1.0, grid=grid)
    # alpha = 0 runs the same conditions without the scan
    report = check_local_conditions(preset("example_31"), identity, 0.0, 1.0,
                                    grid=grid)
    assert len(report.conditions) == 2


# ---------------------------------------------------------------------------
# designated check lists and report plumbing
# ---------------------------------------------------------------------------

def test_designated_ids_log_drift_preset():
    reports = designated_checks(preset("example_31"))
    assert [r.assumption_id for r in reports] == ["A23", "A25"]
    assert all(r.verdict == NO_VIOLATION for r in reports)


def test_designated_ids_cube_root_preset():
    reports = designated_checks(preset("example_41"))
    assert [r.assumption_id for r in reports] == ["A23", "A24", "A26"]
    assert all(r.verdict == NO_VIOLATION for r in reports)


def test_designated_unknown_model():
    m = _linear_model()
    with pytest.raises(CatalogError):
        designated_checks(m)


def test_reports_json_roundtrip():
    rep = check_modulus(builtin_modulus("identity"))
    data = json.loads(reports_to_json([rep]))
    assert isinstance(data, list) and len(data) == 1
    d = data[0]
    assert d["assumption_id"] == "A22"
    assert d["verdict"] == NO_VIOLATION
    assert [c["name"] for c in d["conditions"]] == [
        c.name for c in rep.conditions]


def test_format_report_table_mentions_ids_and_verdicts():
    m = CoefficientSet(
        b=lambda x: np.asarray(x, dtype=float) ** 3,
        sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None,
    )
    good = check_growth(_linear_model(), builtin_growth("one"), mu=2.0)
    bad = check_growth(m, builtin_growth("one"), mu=1.0)
    table = format_report_table([good, bad])
    assert "A23" in table
    assert NO_VIOLATION in table and VIOLATED in table


def test_affine_modulus_in_local_check():
    # rho(r) = 2 r + 1 is a valid comparison scale for a bounded-slope drift
    m = CoefficientSet(
        b=lambda x: np.tanh(np.asarray(x, dtype=float)),
        sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None,
    )
    rep = check_local_conditions(
        m, affine_modulus(2.0, 1.0, builtin_modulus("identity")), alpha=1.0,
        delta0=1.0,
        grid=_small_grid(-2.0, 2.0, 0.9))
    assert rep.verdict == NO_VIOLATION


# ---------------------------------------------------------------------------
# blocked pair-grid mark integrals
# ---------------------------------------------------------------------------

def _c1_gap(model):
    return lambda xs, ys, u: np.abs(np.asarray(model.c1(xs, u), dtype=float)
                                    - np.asarray(model.c1(ys, u), dtype=float))


_BLOCK = verifier._PAIR_BLOCK


def _blocked(measure, integrand, x, y):
    # rows of one pair each, as the growth bound lays its anchors
    return verifier._mark_integral(measure, integrand, x, y,
                                   np.arange(x.size + 1))


def _chunked(measure, integrand, grid):
    # the grid's pairs chunk by chunk, as the pair conditions evaluate them
    return np.concatenate([
        verifier._mark_integral(measure, integrand, x, y, edges)
        for x, y, edges in grid.chunks()])


@pytest.mark.parametrize("pairs", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 7])
def test_blocked_pair_integral_matches_one_shot(pairs):
    model = preset("example_41")
    rng = np.random.default_rng(pairs)
    x = rng.uniform(-5.0, 5.0, pairs)
    y = x + rng.uniform(-1.0, 1.0, pairs)
    integrand = _c1_gap(model)
    one_shot = model.nu1.integrate(
        lambda u: integrand(x[:, None], y[:, None], u[None, :]))
    blocked = _blocked(model.nu1, integrand, x, y)
    assert blocked.shape == (pairs,)
    # each pair's row is summed on its own, so the blocks keep its bits
    assert blocked.tobytes() == one_shot.tobytes()


def test_blocked_pair_integral_reports_the_first_bad_pair():
    model = preset("example_41")
    x = np.linspace(-3.0, 3.0, 1543)
    y = x + 0.1

    def integrand(xs, ys, u):
        # non-finite only for x > 2, which starts in the third block
        return np.where(xs > 2.0, np.inf, 1.0) * _c1_gap(model)(xs, ys, u)

    u, _ = model.nu1.nodes_and_weights()
    vals = integrand(x[:, None], y[:, None], u[None, :])
    first = int(np.argmax(~np.isfinite(vals).all(axis=1)))
    assert first >= 2 * _BLOCK
    with pytest.raises(NumericalDomainError) as info:
        _blocked(model.nu1, integrand, x, y)
    assert str(info.value) == (
        f"mark integral failed to evaluate at x = {x[first]:g}")
    assert info.value.state == float(x[first])


# grids whose runs of one x value are longer than a block, one pair long,
# and of mixed lengths after clipping
LONG_RUNS = PairGrid(anchors=np.linspace(-3.0, 3.0, 7),
                     gaps=np.geomspace(1e-4, 2.0, 700))
SHORT_RUNS = PairGrid(anchors=np.linspace(-3.0, 3.0, 301),
                      gaps=np.array([0.05]))
CLIPPED_RUNS = PairGrid(anchors=np.linspace(0.01, 0.34, 41),
                        gaps=np.geomspace(1e-4, 0.3, 37), interval=(0.0, 0.35))


def _growth_c1(model):
    # the growth bound's integrand, which reads x only
    return lambda xs, ys, u: np.abs(model.c1(xs, u)) ** 2


def _designated_grid(label, assumption):
    params = verifier.designated_sets(label)[assumption][1]
    return params.get("grid") or PairGrid.default(params["delta0"])


def _grid_rows(grid):
    # the (start, stop) of each row of pairs, and the stops of the chunks
    rows, chunk_stops, offset = [], set(), 0
    for x, _, edges in grid.chunks():
        rows.extend(zip((offset + edges[:-1]).tolist(),
                        (offset + edges[1:]).tolist()))
        offset += x.size
        chunk_stops.add(offset)
    return rows, chunk_stops


def _chunked_pairs(grid):
    # a grid's pairs, their integrals chunk by chunk, and its rows
    return lambda measure, integrand: (*_pairs(grid),
                                       _chunked(measure, integrand, grid),
                                       _grid_rows(grid))


def _blocked_pairs(x, y):
    return lambda measure, integrand: (x, y,
                                       _blocked(measure, integrand, x, y),
                                       None)


def _random_pairs():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5.0, 5.0, 3 * _BLOCK + 7)
    return x, x + rng.uniform(-1.0, 1.0, x.size)


_GROWTH_ANCHORS = np.linspace(-10.0, 10.0, 101)

# (model, integrand, pairs and their integrals) by case
LAYOUT_CASES = {
    "designated_A25_example_31": (
        "example_31", _c1_gap,
        _chunked_pairs(_designated_grid("example_31", "A25"))),
    "designated_A24_example_41": (
        "example_41", _c1_gap,
        _chunked_pairs(_designated_grid("example_41", "A24"))),
    "designated_A26_example_41": (
        "example_41", _c1_gap,
        _chunked_pairs(_designated_grid("example_41", "A26"))),
    "long_runs": ("example_41", _c1_gap, _chunked_pairs(LONG_RUNS)),
    "short_runs": ("example_41", _c1_gap, _chunked_pairs(SHORT_RUNS)),
    "clipped_runs": ("example_31", _c1_gap, _chunked_pairs(CLIPPED_RUNS)),
    "growth_anchors": ("example_31", _growth_c1,
                       _blocked_pairs(_GROWTH_ANCHORS, _GROWTH_ANCHORS)),
    "random_pairs": ("example_41", _c1_gap, _blocked_pairs(*_random_pairs())),
}


def _recording(integrand, blocks):
    def run(xs, ys, u):
        blocks.append((xs.shape, ys.shape[0]))
        return integrand(xs, ys, u)
    return run


def _assert_blocks_are_whole_rows(blocks, rows, chunk_stops):
    # a grid's blocks are whole rows of pairs: consecutive rows of a chunk
    # share a block while their pairs fit in _BLOCK, the x side a per-pair
    # column; a block of one row has its x side on one row, and a longer
    # row is cut into blocks of _BLOCK pairs
    start, k = 0, 0
    for x_shape, pairs in blocks:
        stop = start + pairs
        first = k
        while rows[k][1] < stop:
            k += 1
        if k > first:
            assert rows[first][0] == start and rows[k][1] == stop
            assert x_shape == (pairs, 1)
        else:
            assert x_shape == (1, 1)
            assert rows[k][1] == stop or pairs == _BLOCK
        if rows[k][1] == stop:
            # the next row of the chunk did not fit
            k += 1
            assert (stop in chunk_stops
                    or rows[k][1] - rows[first][0] > _BLOCK)
        start = stop


@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_pair_blocks_follow_the_runs(case):
    label, integrand_of, integrals = LAYOUT_CASES[case]
    model = preset(label)
    integrand = integrand_of(model)
    blocks = []
    x, y, got, grid_rows = integrals(model.nu1, _recording(integrand, blocks))
    assert all(0 < pairs <= _BLOCK for _, pairs in blocks)
    assert sum(pairs for _, pairs in blocks) == x.size
    if grid_rows is None:
        # plain pairs of their own x each
        assert all(x_shape == (pairs, 1) for x_shape, pairs in blocks)
    else:
        _assert_blocks_are_whole_rows(blocks, *grid_rows)
    # each pair has the bits of the pair integrated alone: every pair, or
    # every seventh on the designated grids of 74 064 and 81 002 pairs
    pick = slice(None, None, 7 if x.size > 10_000 else 1)
    alone = np.concatenate([
        model.nu1.integrate(lambda u: integrand(
            np.full((1, 1), xi), np.full((1, 1), yi), u[None, :]))
        for xi, yi in zip(x[pick].tolist(), y[pick].tolist())])
    assert got[pick].tobytes() == alone.tobytes()


_STATE_FREE = parse_expression("u", ("x", "u"))


def _state_free_model():
    # c = u as a config expression gives it: the model broadcasts it to the
    # states as a stride-0 view
    return CoefficientSet(b=lambda x: -x, sigma=_zeros, c1=_STATE_FREE,
                          c2=_STATE_FREE, nu1=lebesgue(-1.0, 1.0),
                          nu2=lebesgue(1.0, 2.0), label="state-free")


def _bare_state_free():
    # the bare expression, one row over any states
    m = _state_free_model()
    return SimpleNamespace(nu1=m.nu1, c1=_STATE_FREE, nu2=m.nu2,
                           c2=_STATE_FREE)


def _fresh_dc_integrand(cfunc, shape):
    # the integrand before the workspace: a fresh difference, then its shape
    def run(xs, ys, u):
        dc = cfunc(xs, u) - cfunc(ys, u)
        return np.abs(dc) if shape is verifier._abs_shape else dc ** 2
    return run


# the designated pair grids and those of tools/output_hashes.py
DC_GRIDS = {
    "designated_A24": lambda: _designated_grid("example_41", "A24"),
    "designated_A25": lambda: _designated_grid("example_31", "A25"),
    "designated_A26": lambda: _designated_grid("example_41", "A26"),
    "long_runs": lambda: LONG_RUNS,
    "short_runs": lambda: SHORT_RUNS,
    "clipped_runs": lambda: CLIPPED_RUNS,
}
DC_MODELS = {
    "example_31": lambda: preset("example_31"),
    "example_41": lambda: preset("example_41"),
    "state_free": _state_free_model,
    "bare_state_free": _bare_state_free,
}


@pytest.mark.parametrize("grid", sorted(DC_GRIDS))
@pytest.mark.parametrize("label", sorted(DC_MODELS))
def test_dc_integral_matches_a_fresh_difference(label, grid):
    model = DC_MODELS[label]()
    chunks = list(DC_GRIDS[grid]().chunks())
    for measure, cfunc in ((model.nu1, model.c1), (model.nu2, model.c2)):
        for shape in (verifier._abs_shape, verifier._square_shape):
            seen = []

            def recording(dc, gap):
                seen.append((dc, gap.shape[0]))
                return shape(dc, gap)

            integral = verifier._dc_integral(measure, cfunc, recording)
            for x, y, edges in chunks:
                got = integral(x, y, edges)
                want = verifier._mark_integral(
                    measure, _fresh_dc_integrand(cfunc, shape), x, y, edges)
                assert np.array_equal(got, want)
            nodes = measure.nodes_and_weights()[0].size
            if label.endswith("state_free"):
                # a state-free difference is one (1, nodes) row, fresh
                # unless its block has one pair and it fills the
                # workspace's first row
                assert all(dc.shape == (1, nodes)
                           and (dc.base is None) == (rows > 1)
                           for dc, rows in seen)
            elif label == "example_31" and cfunc is model.c1:
                # a mark-free difference is a fresh (rows, 1) column
                assert all(dc.shape == (rows, 1) and dc.base is None
                           for dc, rows in seen)
            else:
                # every other difference, with both axes, in every block
                # of every chunk, is in the one workspace
                assert len(seen) > 1 and all(
                    np.may_share_memory(dc, seen[0][0]) for dc, _ in seen)


def test_designated_a25_keeps_the_mark_free_difference_a_column():
    base = preset("example_31")
    expanded = CoefficientSet(
        b=base.b, sigma=base.sigma,
        c1=parse_expression("sqrt(abs(x)) + 0*u", ("x", "u")), c2=base.c2,
        nu1=base.nu1, nu2=base.nu2, u3=(), label="expanded twin",
        c1_mean=base.c1_mean)
    seen = []

    def recording(dc, gap):
        seen.append((dc.shape, gap.shape[0]))
        return verifier._square_shape(dc, gap)

    mark_free = verifier._dc_integral(base.nu1, base.c1, recording)
    twin = verifier._dc_integral(expanded.nu1, expanded.c1,
                                 verifier._square_shape)
    for x, y, edges in _designated_grid("example_31", "A25").chunks():
        assert np.array_equal(mark_free(x, y, edges), twin(x, y, edges))
    # every difference is a (rows, 1) column, none (rows, nodes)
    assert sum(rows for _, rows in seen) == 74_064
    assert all(shape == (rows, 1) for shape, rows in seen)


def test_short_rows_share_a_block(monkeypatch):
    # A26 on 602 one-pair rows: 512 rows in one block, then 90
    check, params = verifier.designated_sets("example_41")["A26"]
    blocks = []

    def recording(dc, gap):
        blocks.append(gap.shape[0])
        return np.abs(dc, out=dc)

    monkeypatch.setattr(verifier, "_abs_shape", recording)
    report = check(preset("example_41"), **dict(params, grid=SHORT_RUNS))
    assert report.verdict == NO_VIOLATION
    # two jump conditions, each integrand called twice
    assert blocks == [512, 90, 512, 90]


def test_designated_corollary_keeps_the_mark_free_c1_a_column():
    base = preset("example_31")
    nodes = base.nu1.nodes_and_weights()[0].size
    y_sides = []

    def c1(x, u):
        value = base.c1(x, u)
        if u.shape == (1, nodes) and x.shape != (1, 1):
            y_sides.append(value.shape)
        return value

    model = CoefficientSet(b=base.b, sigma=base.sigma, c1=c1, c2=base.c2,
                           nu1=base.nu1, nu2=base.nu2, u3=(),
                           label=base.label, c1_mean=base.c1_mean)
    check, params = verifier.designated_sets("example_31")["A25"]
    assert (reports_to_json([check(model, **params)])
            == reports_to_json([check(base, **params)]))
    # each block's y side is a (rows, 1) column
    x, _ = _pairs(params["grid"], gap_cap=params["delta0"])
    assert sum(rows for rows, _ in y_sides) == x.size
    assert all(cols == 1 for _, cols in y_sides)


def test_blocked_pair_integral_reports_a_first_bad_pair_in_a_one_x_block():
    model = preset("example_41")
    x, y = _pairs(LONG_RUNS)

    def integrand(xs, ys, u):
        # non-finite from gap 0.5 up, past the cut of an anchor's run
        return np.where(ys - xs > 0.5, np.inf, 1.0) * _c1_gap(model)(xs, ys, u)

    first = int(np.argmax(y - x > 0.5))
    blocks = []
    with pytest.raises(NumericalDomainError) as info:
        _chunked(model.nu1, _recording(integrand, blocks), LONG_RUNS)
    assert str(info.value) == (
        f"mark integral failed to evaluate at x = {x[first]:g}")
    assert info.value.state == float(x[first])
    # the failing block has one x value and starts before the bad pair
    assert blocks[-1][0] == (1, 1)
    assert sum(rows for _, rows in blocks[:-1]) < first


def test_blocked_pair_integral_lets_a_finite_overflow_through():
    # every value is finite, only their weighted sum overflows
    model = preset("example_41")
    with np.errstate(over="ignore"):
        out = _chunked(
            model.nu1,
            lambda xs, ys, u: np.full((ys.shape[0], u.size), 1e308),
            SHORT_RUNS)
    assert out.size == _pairs(SHORT_RUNS)[0].size
    assert np.all(np.isinf(out))


def test_designated_nonconfluence_evaluates_each_anchor_once():
    base = preset("example_41")
    b_states, c1_rows = [], []

    def b(x):
        b_states.append(x.size)
        return base.b(x)

    def c1(x, u):
        c1_rows.append(x.shape[0])
        return base.c1(x, u)

    model = CoefficientSet(b=b, sigma=base.sigma, c1=c1, c2=base.c2,
                           nu1=base.nu1, nu2=base.nu2, u3=(),
                           label=base.label, c1_mean=base.c1_mean)
    check, params = verifier.designated_sets("example_41")["A26"]
    assert check(model, **params).verdict == NO_VIOLATION
    # 202 anchor runs and 81 002 partner states, not 2 x 81 002
    assert sum(b_states) == 81_204
    # one block per run, its x side on one row
    assert len(c1_rows) == 404
    assert c1_rows[::2] == [1] * 202
    assert sum(c1_rows[1::2]) == 81_002


def test_state_free_jump_coefficient_gives_one_value_per_pair():
    # c2 = u (as a config expression gives it) broadcasts to one row; the
    # worst pair of this grid is not the first
    m = CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float), sigma=_zeros,
        c1=None, nu1=None, c2=parse_expression("u", ("x", "u")),
        nu2=MarkMeasure(atoms=[(1.0, 0.5)]), label="state-free c2",
    )
    grid = PairGrid(anchors=np.array([0.0, 1.0]), gaps=np.array([1.0, 1e-3]))
    rep = check_nonconfluence_conditions(
        m, builtin_modulus("identity"), alpha=0.0, delta=0.5, grid=grid)
    cond = next(c for c in rep.conditions
                if c.name == "large_jump_first_moment")
    assert cond.verdict == NO_VIOLATION
    assert cond.worst["lhs"] == 0.0
    assert cond.worst["gap"] == pytest.approx(1e-3)


def test_state_free_small_jump_coefficient_passes_the_monotonicity_scan():
    # c1 = u (as a config expression gives it) is one row over the anchors
    m = CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float), sigma=_zeros,
        c1=parse_expression("u", ("x", "u")), nu1=lebesgue(-1.0, 1.0),
        c2=None, nu2=None, label="state-free c1",
    )
    grid = _small_grid()
    rep = check_corollary_conditions(m, builtin_modulus("identity"),
                                     builtin_modulus("identity"), 1.0,
                                     grid=grid)
    cond = next(c for c in rep.conditions if c.name == "c1_monotone_in_state")
    assert cond.verdict == NO_VIOLATION
    assert cond.worst["slack"] == 0.0
    assert cond.worst["x_next"] == grid.anchors[1]


@pytest.mark.parametrize("name", ["example_31", "example_41"])
def test_designated_checks_working_memory_stays_small(name):
    # the first example_41 verify in a process imports scipy.integrate; its
    # module objects are not the working arrays measured here
    import scipy.integrate  # noqa: F401
    model = preset(name)
    tracemalloc.start()
    try:
        designated_checks(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# ---------------------------------------------------------------------------
# pair conditions reduced chunk by chunk
# ---------------------------------------------------------------------------

# mark-integral blocks of pairs per chunk: one, three, and the whole grid
# as one chunk
CHUNK_SIZES = [1, 3, 10**9]

_FIVE_ID = scale_modulus(builtin_modulus("identity"), 5.0)


def _designated_report(label, assumption, sampled_separation=False):
    # A26 without affine_k samples its separation condition over pairs
    check, params = verifier.designated_sets(label)[assumption]
    if sampled_separation:
        params = {k: v for k, v in params.items() if k != "affine_k"}
    return lambda: [check(preset(label), **params)]


def _grid_reports(grid):
    # the A24 and A26 checkers on both presets, as tools/output_hashes.py
    # calls them on this grid
    return lambda: [
        check(preset(label), grid=grid, **kw)
        for label in ("example_31", "example_41")
        for check, kw in (
            (check_nonconfluence_conditions,
             dict(modulus=_FIVE_ID, alpha=0.0, delta=0.5)),
            (check_local_conditions,
             dict(modulus=_FIVE_ID, alpha=0.5, delta0=3.0)),
            (check_local_conditions,
             dict(modulus=_FIVE_ID, alpha=0.0, delta0=3.0)))]


CHUNK_CASES = {
    "designated_A24": _designated_report("example_41", "A24"),
    "designated_A25": _designated_report("example_31", "A25"),
    "designated_A26": _designated_report("example_41", "A26"),
    "designated_A26_sampled_separation": _designated_report(
        "example_41", "A26", sampled_separation=True),
    "long_runs": _grid_reports(LONG_RUNS),
    "short_runs": _grid_reports(SHORT_RUNS),
    "clipped_runs": _grid_reports(CLIPPED_RUNS),
}


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_reports_do_not_depend_on_the_chunk_size(case, monkeypatch):
    want = reports_to_json(CHUNK_CASES[case]())
    grid = DC_GRIDS[case.removesuffix("_sampled_separation")]()
    # the block counts, one row of the grid, and one pair on the grids
    # small enough to check a pair at a time
    sizes = [blocks * _BLOCK for blocks in CHUNK_SIZES] + [grid.gaps.size]
    if grid.anchors.size * grid.gaps.size <= 2_000:
        sizes.append(1)
    for pairs in sorted(set(sizes)):
        monkeypatch.setattr(verifier, "_CHUNK_PAIRS", pairs)
        assert reports_to_json(CHUNK_CASES[case]()) == want


def _whole_grid_pairs(grid):
    # the pairs as one array each, built the way the chunks replaced, and
    # each pair's row (one per anchor and direction)
    anchors, gaps = grid.anchors, grid.gaps
    x = np.repeat(anchors, gaps.size)
    d = np.tile(gaps, anchors.size)
    xs = np.concatenate([x, x])
    ys = np.concatenate([x - d, x + d])
    rows = np.repeat(np.arange(2 * anchors.size), gaps.size)
    keep = xs != ys
    if grid.interval is not None:
        lo, hi = grid.interval
        keep &= (xs > lo) & (xs < hi) & (ys > lo) & (ys < hi)
    return xs[keep], ys[keep], rows[keep]


CHUNK_GRIDS = {
    **DC_GRIDS,
    # a repeated anchor makes one run of its rows; an anchor so large that
    # its small gaps vanish loses those pairs
    "repeats_and_lost_gaps": lambda: PairGrid(
        anchors=np.array([-1.0, 0.5, 0.5, 1e12, 2.0]),
        gaps=np.geomspace(1e-6, 0.4, 300)),
}


@pytest.mark.parametrize("blocks", CHUNK_SIZES)
@pytest.mark.parametrize("grid", list(CHUNK_GRIDS))
def test_chunks_are_the_pairs_in_whole_blocks(grid, blocks, monkeypatch):
    pairs = blocks * _BLOCK
    monkeypatch.setattr(verifier, "_CHUNK_PAIRS", pairs)
    grid = CHUNK_GRIDS[grid]()
    want_x, want_y, want_rows = _whole_grid_pairs(grid)
    chunks = list(grid.chunks())
    got_x, got_y = (np.concatenate([c[i] for c in chunks]) for i in (0, 1))
    assert got_x.tobytes() == want_x.tobytes()
    assert got_y.tobytes() == want_y.tobytes()
    # each chunk holds at most `pairs` pairs, its rows each from one row of
    # the grid, which is split only when it does not fit in a chunk
    seen, offset = [], 0
    for x, y, edges in chunks:
        assert edges[0] == 0 and edges[-1] == x.size == y.size <= pairs
        for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist()):
            row = want_rows[offset + start:offset + stop]
            assert row.size and np.all(row == row[0])
            seen.append(row[0])
        offset += x.size
    if pairs >= grid.gaps.size:
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("case", [case for case in CHUNK_CASES
                                  if case.startswith("designated")])
def test_pair_check_working_set_is_bounded(case):
    # about two 512 x 128 mark-integral blocks and a chunk's per-pair
    # arrays, however many pairs the grid has
    run = CHUNK_CASES[case]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _two_failing_jumps(c2_fails):
    # c1 is non-finite from x < -5, which the first pairs reach; c2, when
    # it fails, only from x > 5
    def c1(x, u):
        return np.where(x < -5.0, np.inf, 0.5) * u * x

    def c2(x, u):
        return np.where(c2_fails & (x > 5.0), np.inf, 0.5) * u * x

    return CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.5 * x, c1=c1,
                          c2=c2, nu1=lebesgue(-1.0, 1.0),
                          nu2=lebesgue(1.0, 2.0), label="two failing jumps")


def test_the_first_failing_condition_names_the_error():
    # the first condition (drift plus large jumps, through c2) fails at
    # x = 5.2; the second (diffusion plus small jumps, through c1) would fail
    # at earlier pairs, but runs only after the first has seen every chunk
    identity = builtin_modulus("identity")
    grid = PairGrid.default(1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalDomainError) as info:
            check_corollary_conditions(_two_failing_jumps(True), identity,
                                       identity, 1.0)
        assert str(info.value) == (
            "mark integral failed to evaluate at x = 5.2")
        assert info.value.state == grid.anchors[76] == 5.200000000000001
        with pytest.raises(NumericalDomainError) as info:
            check_corollary_conditions(_two_failing_jumps(False), identity,
                                       identity, 1.0)
        assert str(info.value) == (
            "mark integral failed to evaluate at x = -10")
        assert info.value.state == -10.0


def _example_41_drift_turning(value):
    # the preset with a drift that is `value` past x = 3
    base = preset("example_41")
    return CoefficientSet(
        b=lambda x: np.where(x > 3.0, value, base.b(x)), sigma=base.sigma,
        c1=base.c1, c2=base.c2, nu1=base.nu1, nu2=base.nu2, u3=(),
        label=base.label, c1_mean=base.c1_mean)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_nan_slack_is_a_numerical_domain_error(value):
    # inf - inf is nan as well; (3.1, 3.099999) is the first such pair
    check, params = verifier.designated_sets("example_41")["A26"]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalDomainError) as info:
            check(_example_41_drift_turning(value), **params)
    assert str(info.value) == (
        "condition drift_global has a NaN slack at x = 3.1")
    assert info.value.state == params["grid"].anchors[81]


def test_a_nan_slack_on_whole_arrays_is_a_numerical_domain_error():
    # the one-shot reduction the modulus, growth and scan checks use
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(NumericalDomainError) as info:
        verifier._condition_from_arrays(
            "scan", {"x": x}, np.array([1.0, np.nan, 5.0]), np.zeros(3))
    assert str(info.value) == "condition scan has a NaN slack at x = 1"
    assert info.value.state == 1.0


def test_a_nan_separation_margin_is_a_numerical_domain_error():
    # the dense affine scan's first mark past 0.5 has no margin
    check, params = verifier.designated_sets("example_41")["A26"]
    params = dict(params, affine_k=lambda u: np.where(
        u > 0.5, np.nan, GAMMA * np.abs(u)))
    with pytest.raises(NumericalDomainError) as info:
        check(preset("example_41"), **params)
    assert str(info.value) == (
        "condition jump_separation has a NaN slack at mark = 0.502")
    assert info.value.state is None


@pytest.mark.parametrize("nan_marks, first_nan", [
    (lambda u: u < 1.0, -1.0),      # the small jumps' marks
    (lambda u: u > 1.0, 1.001),     # the large jumps' marks
], ids=["small_source_nan", "large_source_nan"])
def test_a_nan_separation_margin_in_one_source_hides_no_violation(
        nan_marks, first_nan):
    # k = -1 collapses x + c(x, u) to zero, so the other source is violated
    check, params = verifier.designated_sets("example_41")["A26"]
    params = dict(params, affine_k=lambda u: np.where(nan_marks(u), np.nan,
                                                      -1.0))
    with pytest.raises(NumericalDomainError) as info:
        check(preset("example_41"), **params)
    assert str(info.value) == (
        f"condition jump_separation has a NaN slack at mark = {first_nan:g}")


def _sqrt_small_jumps():
    # c1 is NaN at a negative state
    return CoefficientSet(b=lambda x: -x, sigma=_zeros,
                          c1=lambda x, u: np.sqrt(x) * u,
                          nu1=lebesgue(-1.0, 1.0), c2=None, nu2=None,
                          label="sqrt small jumps")


def test_sampled_separation_stays_inside_the_interval():
    # the sampled pairs of the first anchors reach below 0, where c1 is NaN
    rep = check_nonconfluence_conditions(
        _sqrt_small_jumps(), builtin_modulus("identity"), alpha=0.0,
        delta=0.5, grid=CLIPPED_RUNS)
    cond = next(c for c in rep.conditions if c.name == "jump_separation")
    lo, hi = CLIPPED_RUNS.interval
    assert lo < cond.worst["y"] < cond.worst["x"] < hi
    assert cond.verdict == VIOLATED and cond.worst["reconfirmed"]


def test_sampled_separation_without_pairs_in_the_interval():
    # the scan takes every second anchor: here only 0.1, which is outside
    grid = PairGrid(anchors=np.array([0.1, 0.2]), gaps=np.array([0.01]),
                    interval=(0.15, 1.0))
    with pytest.raises(DomainError, match="sampled separation scan no pairs"):
        check_nonconfluence_conditions(
            _sqrt_small_jumps(), builtin_modulus("identity"), alpha=0.0,
            delta=0.5, grid=grid)


def test_a_failing_partner_state_is_named():
    # c1 is infinite only past 5.5; the first pair reaching it is
    # (-4.4, 5.6), so the state whose coefficient failed is its y
    base = preset("example_41")
    failing = CoefficientSet(
        b=base.b, sigma=base.sigma,
        c1=lambda x, u: np.where(x > 5.5, np.inf, 1.0) * u * x,
        c2=base.c2, nu1=base.nu1, nu2=base.nu2, u3=(), label=base.label,
        c1_mean=base.c1_mean)
    check, params = verifier.designated_sets("example_41")["A26"]
    grid = params["grid"]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalDomainError) as info:
            check(failing, **params)
    assert str(info.value) == "mark integral failed to evaluate at x = 5.6"
    assert info.value.state == grid.anchors[6] + grid.gaps[-1]
