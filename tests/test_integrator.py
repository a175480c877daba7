import math

import numpy as np
import pytest

from jsde_lab.analysis import moment_bound
from jsde_lab.errors import DomainError, NumericalDomainError
from jsde_lab.harness import ExperimentConfig, run_uniqueness
from jsde_lab.integrator import (PathResult, SchemeConfig, _first_exits,
                                 _integrate, dump_path_csv, first_exit_time,
                                 ito_levy_apply, simulate, simulate_paths)
from jsde_lab.model import (Band, CoefficientSet, MarkMeasure,
                            builtin_growth, in_bands, lebesgue, preset)
from jsde_lab.noise import (EVENT_DTYPE, LARGE, SMALL, SOURCES, NoiseBatch,
                            derive_path_seed, sample_batch, sample_noise)
from jsde_lab.verifier import growth_ratio_supremum


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _drift_only(b, label="drift-only"):
    return CoefficientSet(b=b, sigma=_zeros, c1=None, c2=None,
                          nu1=None, nu2=None, label=label)


_TWO_STATES = PathResult(np.array([0.0, 0.5]), np.array([1.0, 3.0]), False,
                         None, 0, np.zeros(2, dtype=np.int8))

# (name, call, message): each call raises DomainError matching message; an
# infinite radius stays legal
INVALID_SETTINGS = (
    ("zero step", lambda: SchemeConfig(base_step=0.0), "base_step"),
    ("nan step", lambda: SchemeConfig(base_step=math.nan), "base_step"),
    ("inf step", lambda: SchemeConfig(base_step=math.inf), "base_step"),
    ("negative radius",
     lambda: SchemeConfig(base_step=2.0 ** -4, explosion_radius=-1.0),
     "explosion_radius"),
    ("nan radius",
     lambda: SchemeConfig(base_step=2.0 ** -4, explosion_radius=math.nan),
     "explosion_radius"),
    ("unknown taming",
     lambda: SchemeConfig(base_step=2.0 ** -4, taming="soft"), "taming"),
    ("nan experiment radius",
     lambda: ExperimentConfig(model="example_41", explosion_radius=math.nan),
     "explosion_radius"),
    ("nan exit radius", lambda: first_exit_time(_TWO_STATES, math.nan),
     "radius"),
    # a str reached a raw TypeError, a bool passed as 1, and a truthy "no"
    # switched the U3 filter on
    ("str step", lambda: SchemeConfig(base_step="0.1"), "base_step"),
    ("bool step", lambda: SchemeConfig(base_step=True), "base_step"),
    ("str radius",
     lambda: SchemeConfig(base_step=2.0 ** -4, explosion_radius="3"),
     "explosion_radius"),
    ("bool radius",
     lambda: SchemeConfig(base_step=2.0 ** -4, explosion_radius=True),
     "explosion_radius"),
    ("str restrict_to_u3",
     lambda: SchemeConfig(base_step=2.0 ** -4, restrict_to_u3="no"),
     "restrict_to_u3"),
)


def test_scheme_config_validation():
    for name, call, message in INVALID_SETTINGS:
        with pytest.raises(DomainError, match=message):
            call()
            pytest.fail(f"{name}: no DomainError")
    assert SchemeConfig(2.0 ** -4, explosion_radius=math.inf)
    assert ExperimentConfig(model="example_41", explosion_radius=math.inf)


def test_uniqueness_refuses_a_nan_radius_and_runs_with_an_inf_one():
    config = dict(model="example_41", paths=5,
                  step_ladder=(2 ** -4, 2 ** -5, 2 ** -6))
    with pytest.raises(DomainError, match="explosion_radius"):
        run_uniqueness(ExperimentConfig(explosion_radius=math.nan, **config))
    summary = run_uniqueness(ExperimentConfig(explosion_radius=math.inf,
                                              **config))
    assert [row["n"] for row in summary.ladder] == [5, 5, 5]


def test_zero_model_stays_put():
    model = _drift_only(_zeros, label="zero")
    noise = sample_noise(model, 1.0, 2.0 ** -4, seed=1)
    path = simulate(model, noise, SchemeConfig(base_step=2.0 ** -4), 1.5)
    assert np.all(path.states == 1.5)
    assert not path.exploded


def test_deterministic_euler_recursion():
    model = _drift_only(lambda x: -np.asarray(x, dtype=float))
    h = 2.0 ** -6
    noise = sample_noise(model, 1.0, h, seed=1)
    path = simulate(model, noise, SchemeConfig(base_step=h), 1.0)
    # explicit Euler on dx = -x dt is exactly (1 - h)^k
    assert path.state_at_end() == pytest.approx((1.0 - h) ** 64, rel=1e-13)
    assert abs(path.state_at_end() - math.exp(-1.0)) < h


def test_explosion_detection_and_exit_time():
    model = _drift_only(lambda x: np.asarray(x, dtype=float) ** 3)
    h = 2.0 ** -4
    noise = sample_noise(model, 1.0, h, seed=1)
    path = simulate(model, noise, SchemeConfig(base_step=h,
                                               explosion_radius=100.0), 3.0)
    assert path.exploded
    assert path.exit_time is not None
    assert first_exit_time(path, 100.0) == pytest.approx(path.exit_time)
    # the state is frozen at explosion, not propagated to inf
    assert np.all(np.isfinite(path.states))
    with pytest.raises(DomainError):
        first_exit_time(path, 0.0)


def test_taming_bounds_single_step_drift():
    model = _drift_only(lambda x: -np.asarray(x, dtype=float) ** 3)
    h = 2.0 ** -2
    noise = sample_noise(model, 1.0, h, seed=1)
    wild = simulate(model, noise, SchemeConfig(base_step=h), 3.0)
    tamed = simulate(model, noise, SchemeConfig(base_step=h,
                                                taming="drift_tamed"), 3.0)
    # untamed explicit Euler overshoots 3 -> 3 - 27/4 and oscillates bigger;
    # the tamed per-step drift increment |b|h/(1+|b|h) stays below 1
    assert np.max(np.abs(tamed.states)) <= 3.0
    assert np.max(np.abs(wild.states)) > np.max(np.abs(tamed.states))
    assert abs(tamed.states[1] - tamed.states[0]) < 1.0


def test_compensated_small_jumps():
    # c1 = 1 on an atom of weight 2: continuous drift is -2 per unit time,
    # each event adds +1; terminal = x0 - 2*T + #events, exactly.
    nu1 = MarkMeasure(atoms=[(0.5, 2.0)])
    model = CoefficientSet(
        b=_zeros, sigma=_zeros,
        c1=lambda x, u: np.ones_like(np.asarray(u, dtype=float)
                                     * np.asarray(x, dtype=float)),
        c2=None, nu1=nu1, nu2=None, label="unit-jumps",
    )
    h = 2.0 ** -5
    noise = sample_noise(model, 1.0, h, seed=7)
    path = simulate(model, noise, SchemeConfig(base_step=h), 0.0)
    n_events = len(noise.events_from("small"))
    assert n_events > 0
    assert path.state_at_end() == pytest.approx(-2.0 + n_events, abs=1e-12)


def test_large_jumps_applied_at_event_times():
    nu2 = MarkMeasure(atoms=[(1.5, 3.0)])
    model = CoefficientSet(
        b=_zeros, sigma=_zeros, c1=None, c2=lambda x, u: 0.0 * np.asarray(
            x, dtype=float) + np.asarray(u, dtype=float),
        nu1=None, nu2=nu2, label="atom-jumps",
    )
    h = 2.0 ** -4
    noise = sample_noise(model, 1.0, h, seed=11)
    path = simulate(model, noise, SchemeConfig(base_step=h), 0.0)
    events = noise.events_from("large")
    assert path.state_at_end() == pytest.approx(1.5 * len(events), abs=1e-12)
    if len(events):
        t0 = events["time"][0]
        before = path.states[path.times < t0]
        assert np.allclose(before, 0.0)


def test_restrict_to_u3_drops_outside_events():
    model = preset("example_31")
    # carry the large jumps only on marks in (1, 1.5]
    restricted = CoefficientSet(
        b=model.b, sigma=model.sigma, c1=model.c1, c2=model.c2,
        nu1=model.nu1, nu2=model.nu2, u3=(Band(1.0, 1.5),),
        label="example_31-u3",
    )
    h = 2.0 ** -5
    noise = sample_noise(restricted, 1.0, h, seed=23)
    scheme = SchemeConfig(base_step=h, restrict_to_u3=True)
    full_scheme = SchemeConfig(base_step=h)
    a = simulate(restricted, noise, scheme, 1.0)
    b = simulate(restricted, noise, full_scheme, 1.0)
    marks = noise.events_from("large")["mark"]
    inside = marks[(1.0 < marks) & (marks <= 1.5)]
    outside = marks[marks > 1.5]
    assert len(inside) + len(outside) == len(marks)
    if outside:
        assert not np.array_equal(a.states, b.states)


def test_non_finite_coefficient_raises():
    def log_drift(x):
        with np.errstate(invalid="ignore"):
            return np.log(np.asarray(x, dtype=float))

    model = _drift_only(log_drift)
    h = 2.0 ** -4
    noise = sample_noise(model, 1.0, h, seed=1)
    with pytest.raises(NumericalDomainError):
        simulate(model, noise, SchemeConfig(base_step=h), -1.0)


def test_path_times_match_union_grid():
    model = preset("example_41")
    h = 2.0 ** -5
    noise = sample_noise(model, 1.0, h, seed=3)
    path = simulate(model, noise, SchemeConfig(base_step=h,
                                               taming="drift_tamed"), 1.0)
    assert np.array_equal(path.times, noise.union_times)
    assert len(path.kinds) == len(path.times)
    assert path.realization_seed == noise.seed


def test_ito_identity_function_reproduces_path():
    model = preset("example_41")
    h = 2.0 ** -6
    noise = sample_noise(model, 1.0, h, seed=17)
    scheme = SchemeConfig(base_step=h, taming="drift_tamed")
    path = simulate(model, noise, scheme, 1.0)
    f = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    y = ito_levy_apply(f, path, model, noise, scheme)
    assert np.allclose(y.states, path.states, rtol=1e-10, atol=1e-12)


def test_ito_identity_follows_a_restrict_to_u3_path():
    # the path skips the one large jump (mark 1.82, outside u3); the
    # transform must skip it too
    model = _with_u3(preset("example_31"), (Band(1.0, 1.5),))
    h = 2.0 ** -6
    noise = sample_noise(model, 1.0, h, seed=0)
    assert np.all(noise.events_from(LARGE)["mark"] > 1.5)
    f = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    for restrict in (True, False):
        scheme = SchemeConfig(base_step=h, restrict_to_u3=restrict)
        path = simulate(model, noise, scheme, 1.0)
        y = ito_levy_apply(f, path, model, noise, scheme)
        assert np.array_equal(y.states, path.states)


@pytest.mark.parametrize("size", [0, 2])
def test_ito_needs_a_batch_of_one(size):
    model = preset("example_41")
    scheme = SchemeConfig(base_step=0.25)
    noise = sample_noise(model, 1.0, 0.25, seed=3)
    path = simulate(model, noise, scheme, 1.0)
    batch = sample_batch(model, 1.0, 0.25, [3, 4][:size])
    f = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    with pytest.raises(DomainError, match=f"a batch of {size} rows"):
        ito_levy_apply(f, path, model, batch, scheme)


def test_ito_constant_transform_stays_constant():
    # f = 1 makes every small-jump functional a constant integrand
    model = preset("example_31")
    h = 2.0 ** -6
    noise = sample_noise(model, 1.0, h, seed=0)
    assert len(noise.events_from(SMALL)) > 0
    scheme = SchemeConfig(base_step=h)
    path = simulate(model, noise, scheme, 1.0)
    f = (lambda x: 1.0, lambda x: 0.0, lambda x: 0.0)
    y = ito_levy_apply(f, path, model, noise, scheme)
    assert np.all(y.states == 1.0)


def test_ito_identity_with_constant_coefficients():
    # library callables returning plain floats: the small-jump functionals
    # see c1 as one value per node
    model = CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.5,
                           c1=lambda x, u: 0.1, c2=None,
                           nu1=lebesgue(-1.0, 1.0), nu2=None, label="const")
    h = 2.0 ** -6
    noise = sample_noise(model, 1.0, h, seed=3)
    assert len(noise.events_from(SMALL)) > 0
    scheme = SchemeConfig(base_step=h)
    path = simulate(model, noise, scheme, 1.0)
    f = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    y = ito_levy_apply(f, path, model, noise, scheme)
    assert np.allclose(y.states, path.states, rtol=1e-10, atol=1e-12)


def test_ito_square_converges_on_drift_model():
    model = _drift_only(lambda x: -np.asarray(x, dtype=float))
    f = (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
    sups = []
    for h in (2.0 ** -6, 2.0 ** -7):
        noise = sample_noise(model, 1.0, h, seed=29)
        scheme = SchemeConfig(base_step=h)
        path = simulate(model, noise, scheme, 1.0)
        y = ito_levy_apply(f, path, model, noise, scheme)
        sups.append(float(np.max(np.abs(y.states - path.states ** 2))))
    assert sups[0] < 0.01
    assert sups[1] < 0.6 * sups[0]    # first-order shrink, deterministic


def test_dump_path_csv(tmp_path):
    model = preset("example_31")
    h = 2.0 ** -4
    scheme = SchemeConfig(base_step=h)
    noise = sample_noise(model, 1.0, h, seed=2)
    path = simulate(model, noise, scheme, 1.0)
    target = tmp_path / "path.csv"
    dump_path_csv(path, model, scheme, str(target))
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("# model=example_31 seed=2")
    assert lines[1] == "time,state,event_kind"
    assert len(lines) == 2 + len(path.times)


# ---------------------------------------------------------------------------
# batched paths against the one-path-at-a-time scalar loop
# ---------------------------------------------------------------------------

def _scalar_reference(model, noise, scheme, x0):
    """The jump-adapted Euler loop one path at a time on Python floats:
    ``(times, states, kinds, exploded, exit_time)``."""
    tamed = scheme.taming == "drift_tamed"
    x = float(x0)
    times, states, kinds = [0.0], [x], ["grid"]
    if abs(x) >= scheme.explosion_radius:
        return times, states, ["exit"], True, 0.0
    ut = noise.union_times
    for i in range(len(ut) - 1):
        dt = ut[i + 1] - ut[i]
        b = float(model.b(x))
        comp = float(model.c1_mean(x)) if model.nu1 is not None else 0.0
        b_inc = b * dt / (1.0 + abs(b) * dt) if tamed else b * dt
        x = x + (b_inc - comp * dt) \
            + float(model.sigma(x)) * noise.union_increments[i]
        kind = "grid"
        for time, mark, code in noise.events.tolist():
            if time != ut[i + 1]:
                continue
            if SOURCES[code] == SMALL:
                x = x + float(model.c1(x, mark))
                kind = "small_jump"
            elif not scheme.restrict_to_u3 or in_bands(model.u3, mark):
                x = x + float(model.c2(x, mark))
                kind = "large_jump"
        times.append(float(ut[i + 1]))
        states.append(x)
        if abs(x) >= scheme.explosion_radius:
            kinds.append("exit")
            return times, states, kinds, True, float(ut[i + 1])
        kinds.append(kind)
    return times, states, kinds, False, None


def _with_u3(model, u3):
    return CoefficientSet(b=model.b, sigma=model.sigma, c1=model.c1,
                          c2=model.c2, nu1=model.nu1, nu2=model.nu2, u3=u3,
                          label=f"{model.label}-u3")


def _one_row(base_grid, union_times, union_increments, events, seed):
    """A hand-built noise realization on ``[0, 1]``: a one-row
    :class:`NoiseBatch` with each event at the union step ending at its
    time."""
    times = np.array(events, EVENT_DTYPE)["time"]
    steps = np.searchsorted(np.asarray(union_times)[1:], times)
    return NoiseBatch(1.0, base_grid, [seed], [0, len(union_times)],
                      union_times, union_increments, [0, len(events)],
                      events, steps)


def _hand_built_noise():
    # two events at t = 0.3 (applied in list order) and one on the grid
    # time 0.5; rows are (time, mark, code), code 1 small and 2 large
    events = [(0.3, 0.5, 1), (0.3, 1.5, 2), (0.5, -0.8, 1)]
    union = np.array([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    inc = np.array([0.1, -0.2, 0.05, 0.3, -0.1])
    return _one_row(np.linspace(0.0, 1.0, 5), union, inc, events, seed=99)


def _batch_case(name):
    h = 2.0 ** -5
    seeds = [derive_path_seed(5, i) for i in range(12)]
    if name == "small_radius":
        model, x0 = preset("example_31"), 1.0
        scheme = SchemeConfig(base_step=h, explosion_radius=1.5)
    elif name == "start_beyond_radius":
        model, x0 = preset("example_31"), 5.0
        scheme = SchemeConfig(base_step=h, explosion_radius=3.0)
    elif name == "restrict_to_u3":
        model, x0 = _with_u3(preset("example_31"), (Band(1.0, 1.5),)), 1.0
        scheme = SchemeConfig(base_step=h, restrict_to_u3=True)
    elif name == "tamed":
        model, x0 = preset("example_41"), 1.0
        scheme = SchemeConfig(base_step=h, taming="drift_tamed")
    elif name == "no_nu1":
        model = CoefficientSet(
            b=lambda x: -np.asarray(x, dtype=float), sigma=np.cos,
            c1=None, c2=lambda x, u: np.asarray(u, dtype=float) * x,
            nu1=None, nu2=MarkMeasure(atoms=[(0.5, 2.0), (-0.7, 1.0)]),
            label="no-nu1")
        x0, scheme = 1.0, SchemeConfig(base_step=h)
    else:
        model, x0 = preset("example_41"), 1.0
        scheme = SchemeConfig(base_step=0.25)
        noises = [_hand_built_noise()] + [
            sample_noise(model, 1.0, 0.25, seed) for seed in seeds[:3]]
        return model, noises, scheme, x0
    return model, [sample_noise(model, 1.0, h, s) for s in seeds], scheme, x0


@pytest.mark.parametrize("name", ["small_radius", "start_beyond_radius",
                                  "restrict_to_u3", "tamed", "no_nu1",
                                  "hand_built"])
def test_batch_matches_single_paths_bit_for_bit(name):
    model, noises, scheme, x0 = _batch_case(name)
    batch = simulate_paths(model, noises, scheme, x0)
    assert len(batch) == len(noises)
    for path, noise in zip(batch, noises):
        alone = simulate(model, noise, scheme, x0)
        times, states, kinds, exploded, exit_time = \
            _scalar_reference(model, noise, scheme, x0)
        for other in (alone, path):
            assert np.array_equal(other.times, times)
            assert np.array_equal(other.states, states)
            assert other.kinds == tuple(kinds)
            assert other.exploded is exploded
            assert other.exit_time == exit_time
            assert other.realization_seed == noise.seed
    kinds = {k for path in batch for k in path.kinds}
    expected = {"small_radius": {"exit"}, "start_beyond_radius": {"exit"},
                "restrict_to_u3": {"large_jump", "small_jump"},
                "tamed": {"large_jump", "small_jump"},
                "no_nu1": {"large_jump"},
                "hand_built": {"large_jump", "small_jump"}}[name]
    assert expected <= kinds


def test_restrict_to_u3_case_skips_events():
    model, noises, _, _ = _batch_case("restrict_to_u3")
    marks = [m for n in noises for m in n.events_from(LARGE)["mark"]]
    assert any(m > 1.5 for m in marks) and any(m <= 1.5 for m in marks)


def test_hand_built_events_land_in_order():
    model, noises, scheme, x0 = _batch_case("hand_built")
    path = simulate_paths(model, noises, scheme, x0)[0]
    assert path.times.tolist() == [0.0, 0.25, 0.3, 0.5, 0.75, 1.0]
    assert path.kinds == ("grid", "grid", "large_jump", "small_jump",
                          "grid", "grid")


def test_the_last_jump_at_a_state_names_its_code():
    # rows differ only in the order of their events at t = 0.3; each
    # state there takes the code of the jump applied last
    base = _hand_built_noise()
    orders = ([(0.3, 0.5, 1), (0.3, 1.5, 2)], [(0.3, 1.5, 2), (0.3, 0.5, 1)],
              [(0.3, 1.5, 2), (0.3, 0.5, 1), (0.3, 1.2, 2)])
    noises = [_one_row(base.base_grid, base.union_times,
                       base.union_increments, events, seed=i)
              for i, events in enumerate(orders)]
    model, scheme = preset("example_41"), SchemeConfig(base_step=0.25)
    paths = simulate_paths(model, noises, scheme, 1.0)
    assert [path.kinds[2] for path in paths] == [
        "large_jump", "small_jump", "large_jump"]
    for path, noise in zip(paths, noises):
        times, states, kinds, _, _ = \
            _scalar_reference(model, noise, scheme, 1.0)
        assert path.times.tolist() == times
        assert path.states.tobytes() == np.array(states).tobytes()
        assert path.kinds == tuple(kinds)


# ---------------------------------------------------------------------------
# the chain rule against the one-step-at-a-time scalar loop
# ---------------------------------------------------------------------------

def _ito_reference(f, path, model, noise, scheme):
    """The transform's expansion one step at a time on Python floats, with
    one quadrature per state and the jumps of each step in event order;
    ``f`` is called with float arrays, as the transform calls it."""
    fn, fp, fpp = (lambda x, g=g: g(np.asarray(x, dtype=float)) for g in f)
    tamed = scheme.taming == "drift_tamed"
    ut = noise.union_times
    y = float(fn(path.states[0]))
    ys = [y]
    for i in range(len(path.times) - 1):
        x = float(path.states[i])
        dt = ut[i + 1] - ut[i]
        dw = float(noise.union_increments[i])
        b, sig = float(model.b(x)), float(model.sigma(x))
        for value, name in ((b, "drift b"), (sig, "diffusion sigma")):
            if not math.isfinite(value):
                raise NumericalDomainError(
                    f"{name} is non-finite at state {x!r}", state=x)
        b_eff = b / (1.0 + abs(b) * dt) if tamed else b
        j1 = j2 = 0.0
        if model.nu1 is not None:
            fx = fn(x)
            j2 = model.nu1.integrate(lambda u: fn(x + model.c1(x, u)) - fx)
            j1 = j2 - fp(x) * model.nu1.integrate(lambda u: model.c1(x, u))
        drift = fp(x) * b_eff + 0.5 * sig * sig * fpp(x) + j1 - j2
        y = y + drift * dt + fp(x) * sig * dw
        events = [(mark, SOURCES[code])
                  for time, mark, code in noise.events.tolist()
                  if time == ut[i + 1] and (
                      SOURCES[code] == SMALL or not scheme.restrict_to_u3
                      or in_bands(model.u3, mark))]
        if events:
            comp = float(model.c1_mean(x)) if model.nu1 is not None else 0.0
            b_inc = b * dt / (1.0 + abs(b) * dt) if tamed else b * dt
            xm = x + (b_inc - comp * dt) + sig * dw
            if not (math.isfinite(xm) or math.isfinite(comp)):
                raise NumericalDomainError(
                    f"compensation drift is non-finite at state {x!r}",
                    state=x)
            for mark, source in events:
                c = float((model.c1 if source == SMALL else model.c2)(xm,
                                                                      mark))
                y = y + (float(fn(xm + c)) - float(fn(xm)))
                xm = xm + c
        if not math.isfinite(y):
            raise NumericalDomainError(
                f"transformed state became non-finite at t = {ut[i + 1]:g}",
                state=y)
        ys.append(float(y))
    return np.array(ys)


_SIN = (np.sin, np.cos, lambda x: -np.sin(x))
_SQUARE = (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)


def _ito_case(name):
    """``(f, model, noises, scheme, x0)`` of one chain-rule case."""
    h = 2.0 ** -6
    seeds = [derive_path_seed(11, i) for i in range(4)]
    f, x0, scheme = _SIN, 1.0, SchemeConfig(base_step=h)
    if name.startswith("example_41"):
        model, f = preset("example_41"), _SQUARE
    elif name in ("restrict_to_u3", "u3_unrestricted"):
        model = _with_u3(preset("example_31"), (Band(1.0, 1.5),))
        scheme = SchemeConfig(base_step=h,
                              restrict_to_u3=name == "restrict_to_u3")
    elif name == "no_nu1_constant_f":
        model, _, _, _ = _batch_case("no_nu1")
        f = (lambda x: 2.0, lambda x: 0.0, lambda x: 0.0)
    elif name == "quadrature_c1_mean":
        model = CoefficientSet(
            b=lambda x: -x, sigma=lambda x: np.sqrt(np.abs(x)),
            c1=lambda x, u: np.sqrt(np.abs(x)) * u * u,
            c2=lambda x, u: u * x, nu1=lebesgue(-1.0, 1.0),
            nu2=lebesgue(1.0, 2.0), label="no closed-form c1_mean")
    elif name == "hand_built":
        model, noises, scheme, x0 = _batch_case("hand_built")
        return _SQUARE, model, noises[:1], scheme, x0
    else:
        model = preset("example_31")
        if name == "exploded":
            scheme = SchemeConfig(base_step=h, explosion_radius=1.5)
    if name.endswith("tamed"):
        scheme = SchemeConfig(base_step=h, taming="drift_tamed")
    return f, model, [sample_noise(model, 1.0, h, s) for s in seeds], \
        scheme, x0


ITO_CASES = ("example_31", "example_31_tamed", "example_41",
             "example_41_tamed", "restrict_to_u3", "u3_unrestricted",
             "no_nu1_constant_f", "quadrature_c1_mean", "hand_built",
             "exploded")


@pytest.mark.parametrize("name", ITO_CASES)
def test_ito_matches_the_scalar_loop_bit_for_bit(name):
    f, model, noises, scheme, x0 = _ito_case(name)
    paths = simulate_paths(model, noises, scheme, x0)
    for path, noise in zip(paths, noises):
        y = ito_levy_apply(f, path, model, noise, scheme)
        assert np.array_equal(y.states, _ito_reference(f, path, model, noise,
                                                       scheme))
        assert np.array_equal(y.times, path.times)
        assert (y.exploded, y.exit_time, y.realization_seed) == \
            (path.exploded, path.exit_time, path.realization_seed)
    if name == "exploded":
        assert any(path.exploded for path in paths)
    if name == "hand_built":
        assert paths[0].kinds[2] == "large_jump"


def _failing_transform(name):
    """``(f, path, model, noise, scheme)`` whose transform fails."""
    model = preset("example_41")
    h = 2.0 ** -6
    scheme = SchemeConfig(base_step=h)
    noise = sample_noise(model, 1.0, h, seed=7)
    if name in ("drift_nan_below_zero", "compensation_nan_at_a_jump"):
        if name == "drift_nan_below_zero":
            model = _drift_only(lambda x: np.where(x >= 0, -1.0, np.nan))
        else:
            # no closed-form c1_mean, so the compensation is nan below zero
            model = CoefficientSet(
                b=lambda x: -x, sigma=lambda x: 0.5,
                c1=lambda x, u: np.sqrt(x) * u * u, c2=None,
                nu1=lebesgue(-1.0, 1.0), nu2=None, label="sqrt jumps")
        noise = sample_noise(model, 1.0, h, seed=7)
        states = np.linspace(1.0, -1.0, len(noise.union_times))
        if model.nu1 is not None:
            # one negative state, where a jump lands
            s = noise.event_steps[noise.event_steps > 1][0]
            states = np.where(np.arange(len(states)) == s, -0.5, 1.0)
        path = PathResult(noise.union_times.copy(), states, False, None,
                          noise.seed, np.zeros(len(states), np.int8))
        return _SQUARE, path, model, noise, scheme
    path = simulate(model, noise, scheme, 0.5)
    if name == "blow_up":
        exp = (lambda x: np.exp(400.0 * x), lambda x: 400.0 * np.exp(
            400.0 * x), lambda x: 160000.0 * np.exp(400.0 * x))
        return exp, path, model, noise, scheme
    p = float(path.states[len(path.states) // 2])
    pole = (lambda x: 1.0 / (x - p), lambda x: -1.0 / (x - p) ** 2,
            lambda x: 2.0 / (x - p) ** 3)
    return pole, path, model, noise, scheme


@pytest.mark.parametrize("name, message", [
    ("blow_up", "transformed state"), ("pole", "transformed state"),
    ("drift_nan_below_zero", "drift b"),
    ("compensation_nan_at_a_jump", "compensation drift")])
def test_ito_non_finite_error_is_the_scalar_loops(name, message):
    f, path, model, noise, scheme = _failing_transform(name)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalDomainError) as ref:
            _ito_reference(f, path, model, noise, scheme)
        with pytest.raises(NumericalDomainError) as err:
            ito_levy_apply(f, path, model, noise, scheme)
    assert str(err.value) == str(ref.value)
    assert str(err.value).startswith(message)
    assert repr(float(err.value.state)) == repr(float(ref.value.state))
    assert (err.value.path_index, err.value.seed, err.value.step) == \
        (0, noise.seed, scheme.base_step)
    # each fails mid-path, at a state's time
    assert err.value.t in path.times[2:-1].tolist()
    if "transformed" in str(err.value):
        assert f"t = {err.value.t:g}" in str(err.value)


def test_ito_refuses_a_path_from_other_noise():
    model = preset("example_41")
    h = 2.0 ** -6
    scheme = SchemeConfig(base_step=h)
    fine = sample_noise(model, 1.0, h, seed=5)
    path = simulate(model, fine, scheme, 1.0)
    for noise in (fine.coarsen(2), sample_noise(model, 1.0, h, seed=6)):
        with pytest.raises(DomainError, match="not integrated on this noise"):
            ito_levy_apply(_SQUARE, path, model, noise, scheme)


# ---------------------------------------------------------------------------
# one batch over several resolutions and starts
# ---------------------------------------------------------------------------

def _levels_and_starts():
    """One example_31 realization at h = 2^-7 with its coarsenings to 2^-6
    and 2^-5, each from two starts; from the second start the two finer
    levels pass the radius and the coarsest does not."""
    model = preset("example_31")
    fine = sample_noise(model, 1.0, 2.0 ** -7, derive_path_seed(5, 1))
    noises = [fine, fine.coarsen(2), fine.coarsen(4)] * 2
    schemes = [SchemeConfig(base_step=2.0 ** -k, explosion_radius=3.1)
               for k in (7, 6, 5)] * 2
    return model, noises, schemes, [1.0] * 3 + [2.0] * 3


def test_batch_mixes_levels_and_starts_bit_for_bit():
    model, noises, schemes, x0s = _levels_and_starts()
    batch = simulate_paths(model, noises, schemes, x0s)
    assert len(batch) == len(noises)
    for path, noise, scheme, x0 in zip(batch, noises, schemes, x0s):
        alone = simulate_paths(model, [noise], scheme, x0)[0]
        assert np.array_equal(path.times, alone.times)
        assert np.array_equal(path.states, alone.states)
        assert path.event_codes.dtype == np.int8
        assert path.kinds == alone.kinds
        assert path.exploded is alone.exploded
        assert path.exit_time == alone.exit_time
    assert len({len(path.times) for path in batch}) > 1
    assert [path.exploded for path in batch] == [False] * 3 + [True] * 2 \
        + [False]


def test_shortest_grid_first_with_a_mid_run_exit_bit_for_bit():
    model, noises, schemes, x0s = _levels_and_starts()
    # coarsest level first, so the batch's row order is not longest first
    noises, schemes, x0s = noises[::-1], schemes[::-1], x0s[::-1]
    short, middle, long = (len(noise.union_times) for noise in noises[:3])
    assert short < middle < long
    batch = simulate_paths(model, noises, schemes, x0s)
    assert any(0.0 < (path.exit_time or 0.0) < 1.0 for path in batch)
    for path, noise, scheme, x0 in zip(batch, noises, schemes, x0s):
        times, states, kinds, exploded, exit_time = \
            _scalar_reference(model, noise, scheme, x0)
        for other in (path, simulate(model, noise, scheme, x0)):
            assert other.times.tobytes() == np.array(times).tobytes()
            assert other.states.tobytes() == np.array(states).tobytes()
            assert other.kinds == tuple(kinds)
            assert (other.exploded, other.exit_time) == (exploded, exit_time)
            assert other.realization_seed == noise.seed


def test_two_rows_failing_at_one_step_name_the_lower_index():
    def drift(x):
        # -1 at x >= 0, nan below
        return np.where(x >= 0, -1.0, np.nan)

    model = _drift_only(drift)
    coarse = sample_noise(model, 1.0, 0.25, seed=1)
    fine = sample_noise(model, 1.0, 0.125, seed=2)
    healthy = sample_noise(model, 1.0, 0.125, seed=3)
    schemes = [SchemeConfig(base_step=h) for h in (0.25, 0.125, 0.125)]
    # both failing rows turn negative at step 1 and non-finite at step 2;
    # the coarse one is first in the batch but last in grid length
    x0s = [0.3, 0.2, 5.0]
    with pytest.raises(NumericalDomainError) as batch:
        simulate_paths(model, [coarse, fine, healthy], schemes, x0s)
    with pytest.raises(NumericalDomainError) as alone:
        simulate(model, coarse, schemes[0], x0s[0])
    err, ref = batch.value, alone.value
    assert str(err) == str(ref) and "drift b is non-finite" in str(err)
    assert err.path_index == ref.path_index == 0
    assert (err.seed, err.step, err.t, err.state) == \
        (ref.seed, ref.step, ref.t, ref.state) == (1, 0.25, 0.5, -0.2)


def test_a_constant_non_finite_c2_names_the_first_path_that_jumps():
    # c2 returns one value for every jump of a group
    model = CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.5, c1=None,
                           c2=lambda x, u: np.inf, nu1=None,
                           nu2=lebesgue(1.0, 2.0), label="infinite c2")
    h = 2.0 ** -4
    seeds = [derive_path_seed(5, i) for i in range(6)]
    with pytest.raises(NumericalDomainError) as info:
        simulate_paths(model, sample_batch(model, 1.0, h, seeds),
                       SchemeConfig(base_step=h), np.linspace(0.5, 1.0, 6))
    err = info.value
    assert str(err) == "jump c2 is non-finite at state 0.7758136762731563"
    assert (err.path_index, err.seed, err.step, err.t, err.state) == \
        (2, seeds[2], h, 0.08576092983927253, 0.7758136762731563)


@pytest.mark.parametrize("field, value", [("taming", "drift_tamed"),
                                          ("explosion_radius", 3.0),
                                          ("restrict_to_u3", True)])
def test_batch_rejects_schemes_that_disagree(field, value):
    model, noises, schemes, _ = _levels_and_starts()
    schemes[1] = SchemeConfig(**{"base_step": schemes[1].base_step,
                                 "explosion_radius": 3.1, field: value})
    with pytest.raises(DomainError, match="must agree"):
        simulate_paths(model, noises, schemes, 1.0)


def test_batch_checks_each_grid_against_its_own_scheme():
    model, noises, schemes, _ = _levels_and_starts()
    schemes[2] = schemes[0]
    with pytest.raises(DomainError, match="base_step"):
        simulate_paths(model, noises, schemes, 1.0)
    with pytest.raises(DomainError, match="6 noise"):
        simulate_paths(model, noises, schemes[0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# exit times of a run, read from its arrays
# ---------------------------------------------------------------------------

def _exits_and_paths(model, noises, scheme, x0, radii):
    """``_first_exits`` over one run's arrays, and the run's paths."""
    times, states, cols, ends, *_ = _integrate(model, noises, scheme, x0)
    return (_first_exits(times, states, cols, ends, radii),
            simulate_paths(model, noises, scheme, x0))


def test_first_exits_equal_first_exit_time_per_path_and_radius():
    model = preset("example_31")
    seeds = [derive_path_seed(8, i) for i in range(60)]
    noises = sample_batch(model, 1.0, 2.0 ** -6, seeds)
    radii = (1.5, 2.0, 3.0)
    scheme = SchemeConfig(base_step=2.0 ** -6, explosion_radius=radii[-1])
    # the third path starts beyond every radius and exits at t = 0
    x0 = [1.0, 0.5, 20.0] + [1.0] * 57
    exits, paths = _exits_and_paths(model, noises, scheme, x0, radii)
    # a deterministic path hits the scheme's radius exactly at t = 0.5:
    # 1.5 - 9 * 0.5 = -3.0
    drop = _drift_only(lambda x: np.full_like(x, -9.0))
    hit, hit_path = _exits_and_paths(
        drop, sample_batch(drop, 1.0, 0.5, [1]),
        SchemeConfig(base_step=0.5, explosion_radius=radii[-1]), 1.5, radii)
    assert hit_path[0].states.tolist() == [1.5, -3.0]
    assert hit.tolist() == [[0.0, 0.5, 0.5]]
    assert exits.shape == (len(paths), len(radii))
    for path, row in zip(paths + hit_path, np.vstack([exits, hit]).tolist()):
        for radius, got in zip(radii, row):
            t = first_exit_time(path, radius)
            assert got == (math.inf if t is None else t)
    assert exits[2].tolist() == [0.0, 0.0, 0.0]
    # paths that never exit, exit at the smaller radii only, or reach the
    # scheme's radius later on
    assert np.isinf(exits[:, 0]).any()
    assert (np.isfinite(exits[:, 0]) & np.isinf(exits[:, -1])).any()
    late = exits[:, -1]
    assert np.count_nonzero((late > 0) & (late < math.inf)) > 1


def test_a_batch_runs_as_its_rows_run():
    model = preset("example_41")
    noises = sample_batch(model, 1.0, 2.0 ** -7,
                          [derive_path_seed(9, i) for i in range(30)])
    scheme = SchemeConfig(base_step=2.0 ** -7, taming="drift_tamed",
                          explosion_radius=4.0)
    batch = simulate_paths(model, noises, scheme, 1.0)
    rows = simulate_paths(model, list(noises), scheme, 1.0)
    for a, b in zip(batch, rows):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.event_codes.tobytes() == b.event_codes.tobytes()
        assert (a.exploded, a.exit_time) == (b.exploded, b.exit_time)
    assert any(path.exploded for path in batch)
    with pytest.raises(DomainError, match="base_step"):
        simulate_paths(model, noises, SchemeConfig(base_step=2.0 ** -6), 1.0)


def test_rows_are_views_of_the_runs_arrays():
    model = preset("example_31")
    noises = sample_batch(model, 1.0, 2.0 ** -5,
                          [derive_path_seed(4, i) for i in range(3)])
    rows = simulate_paths(model, noises, SchemeConfig(base_step=2.0 ** -5),
                          [1.0, 0.5, 2.0])
    for field in ("times", "states", "event_codes"):
        first, second = (getattr(row, field) for row in rows[:2])
        assert first.base is not None and first.base is second.base
        # one column each: the rows share a buffer but no element
        assert not np.shares_memory(first, second)


# ---------------------------------------------------------------------------
# a linear model against its exact solution
# ---------------------------------------------------------------------------

def _linear_model(a, s, g, large=True):
    """``b = a x``, ``sigma = s x`` and ``c1 = c2 = g|u| x`` on the presets'
    two measures (``nu2`` left out unless ``large``); ``c1_mean = g x``,
    since the integral of ``|u|`` over ``[-1, 1]`` is 1."""
    def jump(x, u):
        return g * np.abs(u) * x

    return CoefficientSet(
        b=lambda x: a * x, sigma=lambda x: s * x, c1=jump,
        c2=jump if large else None, nu1=lebesgue(-1.0, 1.0),
        nu2=lebesgue(1.0, 2.0) if large else None,
        c1_mean=lambda x: g * x, label="linear")


def _linear_exact(noises, a, s, g, x0):
    """Each row's exact ``X_T`` on its own noise: ``x0 exp((a - g -
    s^2 / 2) T + s W_T)`` times ``1 + g|u|`` for every mark of both
    streams."""
    w = np.array([row.union_increments.sum() for row in noises])
    jumps = np.array([np.prod(1.0 + g * np.abs(row.events["mark"]))
                      for row in noises])
    return x0 * np.exp((a - g - s * s / 2) * noises.horizon + s * w) * jumps


def test_euler_error_to_the_exact_solution_has_order_one_half():
    """The jump-adapted Euler scheme with taming off converges to the
    exact solution at strong order 1/2 (Platen & Bruti-Liberati 2010,
    ch. 6 and 8).  The slope of log mean |X_T^h - X_T| against log h over
    h = 2^-4 .. 2^-10, one batch and its coarsenings, has a standard error
    of about 0.008 (delta method over the paths), so the band around 1/2
    is more than 4 se wide on each side."""
    a, s, g, x0, paths = -0.5, 0.8, 0.3, 1.0, 2000
    model = _linear_model(a, s, g)
    fine = sample_batch(model, 1.0, 2.0 ** -10,
                        [derive_path_seed(27, i) for i in range(paths)])
    ks = (4, 6, 8, 10)
    noises = [fine.coarsen(2 ** (10 - k)) for k in ks]
    schemes = [SchemeConfig(base_step=2.0 ** -k) for k in ks
               for _ in range(paths)]
    ends = [path.state_at_end()
            for path in simulate_paths(model, noises, schemes, x0)]
    errors = np.abs(np.reshape(ends, (len(ks), paths))
                    - _linear_exact(fine, a, s, g, x0))
    means = errors.mean(axis=1)
    assert np.all(np.diff(means) < 0)
    logh = np.log(2.0 ** -np.array(ks))
    w = (logh - logh.mean()) / np.sum((logh - logh.mean()) ** 2)
    slope = float(w @ np.log(means))
    se = math.sqrt(w @ np.cov(errors / means[:, None]) @ w / paths)
    assert 4 * se <= 0.1
    assert 0.4 <= slope <= 0.6, (slope, se, means)


@pytest.mark.parametrize("a", [-0.5, 0.5])
def test_moment_bound_lies_above_the_exact_second_moment(a):
    """Without ``nu2``, ``E X_t^2 = x0^2 exp((2a + s^2 + 2 g^2 / 3) t)``,
    the last term being the integral of ``(g u)^2`` over ``[-1, 1]``.
    The constant envelope has ``phi(x) = 1 + x``, so the Gronwall bound
    with the checker's ``mu`` must lie above ``1 + E X_t^2``."""
    s, g = 0.8, 0.3
    one = builtin_growth("one")
    mu, _ = growth_ratio_supremum(_linear_model(a, s, g, large=False), one)
    for t in (0.25, 0.5, 1.0):
        exact = 1.0 + math.exp((2 * a + s * s + 2 * g * g / 3) * t)
        assert moment_bound(one, mu, 0.0, 1.0, t) >= exact
