"""Tests for the experiment harness: ladder validation, runners on cheap
models, file outputs, budget caps, and the condition prechecks."""

import math

import numpy as np
import pytest

from jsde_lab import harness
from jsde_lab.config import preset
from jsde_lab.errors import (
    AssumptionViolationError,
    DomainError,
    NumericalDomainError,
    ResourceLimitError,
    UsageError,
)
from jsde_lab.harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    run_convergence,
    run_experiment,
    run_explosion,
    run_nonconfluence,
    run_uniqueness,
)
from jsde_lab.analysis import phi_growth
from jsde_lab.integrator import (SchemeConfig, _integrate, first_exit_time,
                                 simulate)
from jsde_lab.model import CoefficientSet, builtin_growth
from jsde_lab.noise import NoiseBatch, derive_path_seed, sample_noise


def _contraction_model():
    """b = -x, no noise: X(t) solves the deterministic decay exactly."""
    return CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c1=None, c2=None, nu1=None, nu2=None, label="contraction",
    )


def _noisy_model(coef=0.3):
    return CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: coef * np.ones_like(np.asarray(x, dtype=float)),
        c1=None, c2=None, nu1=None, nu2=None, label="ou",
    )


def _cfg(model, **kw):
    kw.setdefault("paths", 8)
    kw.setdefault("growth", builtin_growth("one"))
    kw.setdefault("mu", 3.0)
    return ExperimentConfig(model=model, **kw)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_ladders_normalized():
    cfg = ExperimentConfig(model=_contraction_model(),
                           step_ladder=(2.0 ** -6, 2.0 ** -4, 2.0 ** -5),
                           radius_ladder=(50.0, 10.0),
                           epsilon_ladder=(1e-4, 1e-6))
    assert cfg.step_ladder == (2.0 ** -4, 2.0 ** -5, 2.0 ** -6)
    assert cfg.radius_ladder == (10.0, 50.0)
    assert cfg.epsilon_ladder == (1e-6, 1e-4)


@pytest.mark.parametrize("kw", [
    {"paths": 0},
    {"paths": 2.5},
    {"horizon": 0.0},
    {"horizon": float("inf")},
    {"alpha": -1.0},
    {"x0": float("nan")},
    {"y0": float("inf")},
    {"radius_ladder": (10.0, float("inf"))},
    {"budget_cap": 0},
    {"delta": 0.0},
    {"step_ladder": ()},
    {"step_ladder": (0.25, 0.25)},
    # a NaN cap passed `budget_cap < 1` and turned the budget off
    {"budget_cap": float("nan")},
    {"paths": True},
    # a float or bool seed was truncated, so its echo did not replay the run
    {"master_seed": 1.5},
    {"master_seed": True},
    {"y0": "abc"},
    # raw TypeErrors before, and a bool y0 was echoed as true
    {"x0": "abc"},
    {"horizon": "1"},
    {"alpha": None},
    {"delta": "x"},
    {"explosion_radius": "3"},
    {"budget_cap": "5"},
    {"y0": True},
    # a str ladder was read one character at a time, a bool step as 1.0,
    # and the rest reached raw ValueErrors and TypeErrors
    {"radius_ladder": "25"},
    {"step_ladder": (True, 0.5, 0.25)},
    {"radius_ladder": ("x",)},
    {"step_ladder": 5},
    {"step_ladder": None},
    # truthy, so it skipped the precheck and echoed as "false"
    {"skip_checks": "false"},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(DomainError):
        ExperimentConfig(model=_contraction_model(), **kw)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7)])
def test_config_accepts_integer_seeds(seed):
    cfg = ExperimentConfig(model=_contraction_model(), master_seed=seed)
    assert cfg.master_seed == seed


@pytest.mark.parametrize("delta", [float("nan"), float("inf"),
                                   float("-inf")])
def test_config_rejects_non_finite_delta(delta):
    with pytest.raises(DomainError, match="delta must be"):
        ExperimentConfig(model=_contraction_model(), delta=delta)


def test_unknown_experiment_kind():
    with pytest.raises(UsageError, match="unknown experiment kind"):
        run_experiment("diffusion", _cfg(_contraction_model()))


# ---------------------------------------------------------------------------
# explosion
# ---------------------------------------------------------------------------

def test_explosion_contraction_never_exits():
    cfg = _cfg(_contraction_model(), radius_ladder=(2.0, 5.0),
               step_ladder=(2.0 ** -4, 2.0 ** -6), x0=1.0)
    summary = run_explosion(cfg)
    assert summary.kind == "explosion"
    for row in summary.ladder:
        assert row["exceedance_frequency"] == 0.0
    bound_row = summary.extras["bound_row"]
    assert bound_row["satisfied_within_3se"] is True
    assert bound_row["mc_mean"] <= bound_row["bound"]


def test_explosion_frequencies_monotone_in_radius():
    cfg = _cfg(_noisy_model(3.0), paths=64, radius_ladder=(0.5, 1.5, 4.0),
               step_ladder=(2.0 ** -6,), x0=0.0, mu=12.0)
    summary = run_explosion(cfg)
    freqs = [row["exceedance_frequency"] for row in summary.ladder]
    assert freqs == sorted(freqs, reverse=True)
    assert freqs[0] > 0.0


def test_explosion_growth_precheck_blocks_cubic_drift():
    m = CoefficientSet(
        b=lambda x: np.asarray(x, dtype=float) ** 3,
        sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c1=None, c2=None, nu1=None, nu2=None, label="cubic",
    )
    cfg = _cfg(m, paths=2, step_ladder=(2.0 ** -4,))
    with pytest.raises(AssumptionViolationError) as exc:
        run_explosion(cfg)
    assert exc.value.reports
    assert exc.value.reports[0].assumption_id == "A23"

    cfg2 = _cfg(m, paths=2, step_ladder=(2.0 ** -4,), skip_checks=True,
                radius_ladder=(10.0,))
    summary = run_explosion(cfg2)       # runs regardless, may explode
    assert summary.extras["growth_check"] is None


def test_explosion_phi_is_one_batched_call_equal_to_per_path_values(
        monkeypatch):
    # example_31 with its log envelope; the small radii make paths exit
    calls = []

    def counted(upsilon, x):
        calls.append(len(x))
        return phi_growth(upsilon, x)

    monkeypatch.setattr(harness, "phi_growth", counted)
    h = 2.0 ** -6
    cfg = ExperimentConfig(model="example_31", paths=30, step_ladder=(h,),
                           radius_ladder=(1.5, 3.0, 10.0))
    summary = run_explosion(cfg)
    assert calls == [30]

    assert summary.extras["bound_row"]["growth"] == "log"
    growth = builtin_growth("log")
    model = preset("example_31")
    scheme = SchemeConfig(base_step=h, explosion_radius=10.0,
                          taming=summary.extras["taming"])
    exited = 0
    for i, row in enumerate(summary.data_rows):
        noise = sample_noise(model, cfg.horizon, h, row[1])
        path = simulate(model, noise, scheme, cfg.x0)
        exited += path.exploded
        assert row[-1] == phi_growth(growth, path.state_at_end() ** 2), i
        exits = [first_exit_time(path, r) for r in cfg.radius_ladder]
        assert row[2:-1] == [math.inf if t is None else t for t in exits], i
    assert exited > 0


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def test_uniqueness_contraction_slope_near_one():
    cfg = _cfg(_contraction_model(), paths=4,
               step_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6,
                            2.0 ** -8))
    summary = run_uniqueness(cfg)
    assert summary.extras["strictly_decreasing"] is True
    # deterministic Euler: first-order decay, slightly inflated by the
    # finite reference level
    assert 0.9 <= summary.extras["slope"] <= 1.6
    assert summary.ladder[-1]["is_reference"] is True
    assert summary.ladder[-1]["mean_gap_pow_alpha"] == 0.0


def test_uniqueness_requires_nested_ladder():
    cfg = _cfg(_contraction_model(),
               step_ladder=(0.3, 0.11, 2.0 ** -5))
    with pytest.raises(DomainError, match="nested grids"):
        run_uniqueness(cfg)


def test_uniqueness_requires_three_levels_and_positive_alpha():
    with pytest.raises(DomainError, match=">= 3"):
        run_uniqueness(_cfg(_contraction_model(),
                            step_ladder=(2.0 ** -4, 2.0 ** -5)))
    with pytest.raises(DomainError, match="alpha > 0"):
        run_uniqueness(_cfg(_contraction_model(), alpha=0.0))


# ---------------------------------------------------------------------------
# nonconfluence
# ---------------------------------------------------------------------------

def test_nonconfluence_requires_second_start():
    cfg = _cfg(_contraction_model(), step_ladder=(2.0 ** -4,))
    with pytest.raises(UsageError, match="y0"):
        run_nonconfluence(cfg)
    with pytest.raises(DomainError, match="x0 != y0"):
        run_nonconfluence(_cfg(_contraction_model(), x0=1.0, y0=1.0,
                               step_ladder=(2.0 ** -4,)))


def test_nonconfluence_contraction_control():
    # identical noise, linear drift: the gap decays deterministically to
    # (1 - h)^(T/h) ~ exp(-T), never reaching zero
    cfg = _cfg(_contraction_model(), paths=4, x0=0.0, y0=1.0,
               step_ladder=(2.0 ** -8,), modulus="identity", alpha=1.0,
               delta=0.5)
    summary = run_nonconfluence(cfg)
    assert summary.extras["min_distance"] == pytest.approx(np.exp(-1.0),
                                                           abs=1e-2)
    for row in summary.ladder:
        assert row["fraction_below"] == 0.0
    constants = summary.extras["constants"]
    assert constants["K"] == 6.0          # delta^-1 (1 + 2)
    assert constants["K_prime"] == 4.0


def test_nonconfluence_min_distance_equals_the_pairs_run_alone():
    # a radius small enough that some pairs explode, and are excluded
    h = 2.0 ** -5
    cfg = _cfg(_noisy_model(3.0), paths=24, x0=0.0, y0=0.5,
               step_ladder=(h,), explosion_radius=2.0, skip_checks=True)
    summary = run_nonconfluence(cfg)
    model = _noisy_model(3.0)
    scheme = SchemeConfig(base_step=h, explosion_radius=2.0)
    excluded = 0
    for i, seed, got in summary.data_rows:
        noise = sample_noise(model, cfg.horizon, h, seed)
        px = simulate(model, noise, scheme, cfg.x0)
        py = simulate(model, noise, scheme, cfg.y0)
        if px.exploded or py.exploded:
            excluded += 1
            assert math.isnan(got), i
        else:
            assert got == float(np.min(np.abs(px.states - py.states))), i
    assert 0 < excluded < cfg.paths
    assert summary.extras["excluded_exploded_paths"] == excluded


def test_nonconfluence_checks_that_the_starts_share_their_times(monkeypatch):
    def shifted(model, noises, scheme, x0):
        out = _integrate(model, noises, scheme, x0)
        times, cols = out[0], out[2]
        times[1, cols[-1]] += 1e-9      # the last pair's second start
        return out

    monkeypatch.setattr(harness, "_integrate", shifted)
    cfg = _cfg(_noisy_model(), paths=3, x0=0.0, y0=0.5,
               step_ladder=(2.0 ** -4,), skip_checks=True)
    with pytest.raises(AssertionError, match="grids diverged"):
        run_nonconfluence(cfg)


def test_nonconfluence_unknown_model_needs_explicit_modulus():
    cfg = _cfg(_contraction_model(), x0=0.0, y0=1.0,
               step_ladder=(2.0 ** -4,))
    with pytest.raises(UsageError, match="designated"):
        run_nonconfluence(cfg)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_deterministic_first_order():
    cfg = _cfg(_contraction_model(), paths=2,
               step_ladder=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7))
    summary = run_convergence(cfg)
    order = summary.extras["order"]
    # the finite reference (4x finer) inflates the fitted order slightly
    # above the analytic value 1; see the analysis notes
    assert 0.9 <= order["estimate"] <= 1.25
    assert order["ci_low"] <= order["estimate"] <= order["ci_high"]


def test_convergence_exact_branch():
    # zero coefficients: every level reproduces x0 exactly
    m = CoefficientSet(
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c1=None, c2=None, nu1=None, nu2=None, label="frozen",
    )
    cfg = _cfg(m, paths=2,
               step_ladder=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7))
    summary = run_convergence(cfg)
    assert summary.extras["order"]["estimate"] == "exact"


def test_convergence_requires_four_levels():
    with pytest.raises(DomainError, match=">= 4"):
        run_convergence(_cfg(_contraction_model(),
                             step_ladder=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6)))


# ---------------------------------------------------------------------------
# outputs, reproducibility, budget
# ---------------------------------------------------------------------------

def test_written_outputs_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        cfg = _cfg(_noisy_model(), paths=6, step_ladder=(2.0 ** -5,),
                   radius_ladder=(5.0, 25.0), output_dir=out)
        run_explosion(cfg)
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() \
        == (out2 / "summary.json").read_bytes()
    header = (out1 / "data.csv").read_text().splitlines()[0]
    assert header.startswith("path_index,seed,exit_time_R5")


def test_different_seed_changes_data(tmp_path):
    outs = []
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
        out = tmp_path / str(seed)
        cfg = _cfg(_noisy_model(), paths=6, step_ladder=(2.0 ** -5,),
                   master_seed=seed, output_dir=out)
        run_explosion(cfg)
        outs.append((out / "data.csv").read_bytes())
    assert outs[0] != outs[1]


def test_budget_cap_enforced():
    cfg = _cfg(_contraction_model(), paths=100, step_ladder=(2.0 ** -10,),
               budget_cap=1000)
    with pytest.raises(ResourceLimitError, match="exceeds budget_cap"):
        run_explosion(cfg)


@pytest.mark.parametrize("run, kw", [
    (run_explosion, dict(step_ladder=(2.0 ** -5,), radius_ladder=(0.3,),
                         x0=0.0)),
    (run_uniqueness, dict(step_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5))),
    (run_nonconfluence, dict(step_ladder=(2.0 ** -5,), x0=0.0, y0=0.5,
                             skip_checks=True)),
    (run_convergence, dict(step_ladder=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4,
                                        2.0 ** -5))),
])
def test_rows_do_not_depend_on_batch_size(run, kw):
    small = run(_cfg(_noisy_model(), paths=7, **kw))
    large = run(_cfg(_noisy_model(), paths=20, **kw))
    assert small.data_rows == large.data_rows[:7]


def _perturb_coarsening(monkeypatch, row):
    """Every coarsened batch gets +1e-9 on the last union increment of
    ``row``."""
    coarsen = NoiseBatch.coarsen

    def perturbed(self, factor):
        c = coarsen(self, factor)
        inc = c.union_increments.copy()
        inc[c.offsets[row + 1] - row - 2] += 1e-9
        return NoiseBatch(c.horizon, c.base_grid, c.seeds, c.offsets,
                          c.union_times, inc, c.event_offsets, c.events,
                          c.event_steps)

    monkeypatch.setattr(NoiseBatch, "coarsen", perturbed)
    return _cfg(_noisy_model(), paths=3,
                step_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5))


def test_uniqueness_detects_broken_coupling(monkeypatch):
    cfg = _perturb_coarsening(monkeypatch, 2)
    with pytest.raises(AssertionError, match="coupling"):
        run_uniqueness(cfg)


def test_broken_coupling_names_the_row_seed(monkeypatch):
    cfg = _perturb_coarsening(monkeypatch, 1)
    seed = derive_path_seed(cfg.master_seed, 1)
    with pytest.raises(AssertionError,
                       match=f"coupling .* broke for seed {seed} at"):
        run_uniqueness(cfg)


def test_non_finite_path_is_located_and_replays():
    # Euler on dX = sqrt(X) dW from 0.2 steps below 0 on some paths, where
    # sigma turns nan
    def sqrt_sigma(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(x, dtype=float))

    model = CoefficientSet(
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=sqrt_sigma, c1=None, c2=None, nu1=None, nu2=None,
        label="feller")
    h = 2.0 ** -4
    cfg = _cfg(model, paths=20, step_ladder=(h,), x0=0.2,
               radius_ladder=(10.0,), skip_checks=True)
    with pytest.raises(NumericalDomainError) as exc:
        run_explosion(cfg)
    err = exc.value
    assert 0 <= err.path_index < 20
    assert err.seed == derive_path_seed(cfg.master_seed, err.path_index)
    assert err.state < 0 and "diffusion sigma" in str(err)

    noise = sample_noise(model, cfg.horizon, h, err.seed)
    with pytest.raises(NumericalDomainError) as replay:
        simulate(model, noise,
                 SchemeConfig(base_step=h, explosion_radius=10.0), 0.2)
    assert str(replay.value) == str(err)
    assert (replay.value.seed, replay.value.t) == (err.seed, err.t)


@pytest.mark.parametrize("run, kw", [
    (run_explosion, dict(step_ladder=(2.0 ** -5,))),
    (run_uniqueness, dict(step_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5))),
    (run_nonconfluence, dict(step_ladder=(2.0 ** -5,), x0=0.0, y0=0.5,
                             skip_checks=True)),
    (run_convergence, dict(step_ladder=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4,
                                        2.0 ** -5))),
])
def test_each_run_makes_one_simulate_paths_call(monkeypatch, run, kw):
    # the harness integrates through _integrate, simulate_paths' own body
    calls = []

    def counted(model, noises, scheme, x0):
        out = _integrate(model, noises, scheme, x0)
        calls.append(len(out[2]))
        return out

    monkeypatch.setattr(harness, "_integrate", counted)
    run(_cfg(_noisy_model(), paths=5, **kw))
    rows = {run_explosion: 5, run_uniqueness: 15, run_nonconfluence: 10,
            run_convergence: 25}[run]
    assert calls == [rows]


def test_non_finite_ladder_path_is_located_and_replays():
    # the feller model of the test above, on a uniqueness ladder: a failure
    # names the path's index in the run and its level's base step
    def sqrt_sigma(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(x, dtype=float))

    model = CoefficientSet(
        b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=sqrt_sigma, c1=None, c2=None, nu1=None, nu2=None,
        label="feller")
    ladder = (2.0 ** -2, 2.0 ** -3, 2.0 ** -4)
    # with this seed a path of the coarsest level fails first, so its row
    # in the batch is not its path index
    cfg = _cfg(model, paths=20, step_ladder=ladder, x0=0.5, master_seed=3)
    with pytest.raises(NumericalDomainError) as exc:
        run_uniqueness(cfg)
    err = exc.value
    assert 0 <= err.path_index < 20
    assert err.seed == derive_path_seed(cfg.master_seed, err.path_index)
    assert err.step == ladder[0]

    h_ref = ladder[-1]
    noise = sample_noise(model, cfg.horizon, h_ref, err.seed)
    factor = round(err.step / h_ref)
    level = noise if factor == 1 else noise.coarsen(factor)
    with pytest.raises(NumericalDomainError) as replay:
        simulate(model, level, SchemeConfig(base_step=err.step), 0.5)
    assert str(replay.value) == str(err)
    assert (replay.value.seed, replay.value.t, replay.value.step) \
        == (err.seed, err.t, err.step)
