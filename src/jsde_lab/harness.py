"""Monte Carlo experiments over the simulation stack.

Four experiment kinds, all reproducible path-for-path from a master seed
regardless of batch size:

* ``explosion`` — exit-frequency decay across a radius ladder plus a
  moment-bound comparison row against the analysis module.
* ``uniqueness`` — common-noise resolution coupling: each ladder step is
  integrated on a coarsening of one fine noise realization, and the decay of
  the terminal gaps is the uniqueness surrogate (no exact solutions exist,
  so inter-resolution gaps stand in for the gap between two solutions).
* ``nonconfluence`` — two starts driven by identical noise; reports the
  minimum inter-path grid distance and threshold exceedance fractions.
* ``convergence`` — strong-order fit against a reference four times finer
  than the finest ladder level, with a per-path regression interval.

Experiments that exhibit almost-sure statements report frequencies with
standard errors; they are evidence at desk scale, never proofs.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import moment_bound, nonconfluence_constants, phi_growth
from .errors import (AssumptionViolationError, DomainError,
                     NumericalDomainError, ResourceLimitError, UsageError)
from .integrator import SchemeConfig, _first_exits, _integrate, _min_distances
from .model import (DEFAULT_SEED, TAMING_MODES, CoefficientSet,
                    builtin_growth, builtin_modulus, preset)
from .noise import derive_path_seed, sample_batch
from .verifier import (NO_VIOLATION, check_growth,
                       check_nonconfluence_conditions, designated_sets,
                       growth_ratio_supremum)

DEFAULT_BUDGET = 200_000_000

# per-preset experiment default drift taming
PRESET_TAMING = {"example_31": "off", "example_41": "drift_tamed"}


def _sorted_ladder(values, name, descending=False):
    # a string would be read one character at a time, and a bool as 1 or 0
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise DomainError(f"{name} must be a sequence of real numbers")
    values = tuple(values)
    if any(isinstance(v, bool) or not isinstance(v, numbers.Real)
           for v in values):
        raise DomainError(f"{name} entries must be real numbers")
    vals = tuple(float(v) for v in values)
    if not vals:
        raise DomainError(f"{name} must be nonempty")
    if any(not math.isfinite(v) or v <= 0 for v in vals):
        raise DomainError(f"{name} entries must be positive and finite")
    if len(set(vals)) != len(vals):
        raise DomainError(f"{name} entries must be distinct")
    return tuple(sorted(vals, reverse=descending))


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment configuration.

    ``step_ladder`` is normalized coarse-to-fine, ``radius_ladder`` and
    ``epsilon_ladder`` ascending.  Unset entries (``taming``, ``growth``,
    ``mu``, nonconfluence check parameters) resolve to per-preset defaults
    at run time.
    """

    model: object
    horizon: float = 1.0
    step_ladder: tuple = (2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7,
                          2.0 ** -8, 2.0 ** -9)
    paths: int = 1000
    master_seed: int = DEFAULT_SEED
    radius_ladder: tuple = (10.0, 50.0, 250.0)
    epsilon_ladder: tuple = (1e-6, 5e-6, 2.5e-5, 1.25e-4, 6.25e-4)
    alpha: float = 1.0
    x0: float = 1.0
    y0: object = None
    output_dir: object = None
    growth: object = None
    mu: object = None
    taming: object = None
    modulus: object = None
    delta: float = 0.5
    m_bound: object = None
    skip_checks: bool = False
    budget_cap: int = DEFAULT_BUDGET
    explosion_radius: float = 1e6

    def __post_init__(self):
        if type(self.paths) is not int or self.paths < 1:   # not a bool
            raise DomainError("paths must be an integer >= 1")
        # a float or bool seed would be truncated, and its echo not replay
        if isinstance(self.master_seed, bool) \
                or not isinstance(self.master_seed, (int, np.integer)):
            raise DomainError("master_seed must be an integer")
        # a str or None would reach a raw TypeError, and a bool would echo
        # as true or false, which does not replay the run
        for name in ("horizon", "alpha", "x0", "y0", "delta", "budget_cap",
                     "explosion_radius"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real)
                    or name == "y0" and value is None):
                raise DomainError(f"{name} must be a real number")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError("horizon must be positive and finite")
        object.__setattr__(self, "step_ladder", _sorted_ladder(
            self.step_ladder, "step_ladder", descending=True))
        object.__setattr__(self, "radius_ladder", _sorted_ladder(
            self.radius_ladder, "radius_ladder"))
        object.__setattr__(self, "epsilon_ladder", _sorted_ladder(
            self.epsilon_ladder, "epsilon_ladder"))
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise DomainError("alpha must be nonnegative and finite")
        if not math.isfinite(self.x0):
            raise DomainError("x0 must be finite")
        if self.y0 is not None and not math.isfinite(self.y0):
            raise DomainError("y0 must be finite")
        if not self.budget_cap >= 1:
            raise DomainError("budget_cap must be positive")
        if not 0.0 < self.delta < math.inf:
            raise DomainError("delta must be positive and finite")
        if not self.explosion_radius > 0:
            raise DomainError("explosion_radius must be positive")
        # "false" is truthy: it would skip the checks and echo as a string
        if not isinstance(self.skip_checks, bool):
            raise DomainError("skip_checks must be a bool")
        # checked before the run, not after it; a bool would echo as 1.0
        for name in ("mu", "m_bound"):
            value = getattr(self, name)
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Real)
                    or not 0.0 <= value < math.inf):
                raise DomainError(f"{name} must be a nonnegative finite "
                                  "real number")
        if not (self.output_dir is None
                or isinstance(self.output_dir, (str, os.PathLike))):
            raise DomainError("output_dir must be a path")

    def echo(self, model_label):
        out = {
            "model": model_label,
            "horizon": self.horizon,
            "step_ladder": list(self.step_ladder),
            "paths": self.paths,
            "master_seed": self.master_seed,
            "radius_ladder": list(self.radius_ladder),
            "epsilon_ladder": list(self.epsilon_ladder),
            "alpha": self.alpha,
            "x0": self.x0,
            "y0": self.y0,
            "delta": self.delta,
            "skip_checks": self.skip_checks,
            "budget_cap": self.budget_cap,
            "explosion_radius": self.explosion_radius,
        }
        if self.mu is not None:
            out["mu"] = float(self.mu)
        return out


@dataclass
class ExperimentSummary:
    kind: str
    config: dict
    ladder: list
    extras: dict = field(default_factory=dict)
    data_header: tuple = ()
    data_rows: list = field(default_factory=list)

    def to_dict(self):
        out = {"kind": self.kind, "config": self.config,
               "ladder": self.ladder}
        out.update(self.extras)
        return out

    def write(self, output_dir):
        """Write ``summary.json`` and ``data.csv``; returns their paths."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        data_path = out / "data.csv"
        with open(data_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.data_header)
            for row in self.data_rows:
                writer.writerow([_fmt_cell(v) for v in row])
        return summary_path, data_path


def _fmt_cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    n = int(arr.size)
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se, n


def _square(x):
    """``x ** 2`` of a float, ``inf`` past float range."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _resolve_model(spec):
    if isinstance(spec, CoefficientSet):
        return spec
    if isinstance(spec, str):
        return preset(spec)
    raise UsageError("model must be a CoefficientSet or a preset name")


def _resolve_taming(config, model):
    taming = config.taming
    if taming is None:
        taming = PRESET_TAMING.get(model.label, "off")
    if taming not in TAMING_MODES:
        raise UsageError(f"taming must be one of {TAMING_MODES}")
    return taming


def _resolve_growth(config, model):
    """Growth envelope and constant for the explosion pre-check: explicit
    config values win, then the preset's designated A23 set, then a constant
    envelope with the constant calibrated from the checker grid."""
    growth = config.growth
    mu = config.mu
    notes = []
    if growth is None:
        _, params = designated_sets(model.label).get("A23", (None, None))
        if params is not None:
            growth = params["upsilon"]
            if mu is None:
                mu = params["mu"]
        else:
            growth = builtin_growth("one")
            notes.append("no growth envelope configured; using the constant "
                         "envelope")
    elif isinstance(growth, str):
        growth = builtin_growth(growth)
    if mu is None:
        sup, arg = growth_ratio_supremum(model, growth)
        mu = sup * (1.0 + 1e-9) + 1e-12
        notes.append(f"mu calibrated from the checker grid supremum "
                     f"{sup:.12g} at x = {arg:g}")
    return growth, float(mu), notes


def _sample_paths(config, model, base_step):
    """Per-path seeds and a :class:`NoiseBatch` of one realization per
    path, in path order."""
    seeds = [derive_path_seed(config.master_seed, i)
             for i in range(config.paths)]
    return seeds, sample_batch(model, config.horizon, base_step, seeds)


def _scheme(config, h, taming, radius=None):
    return SchemeConfig(base_step=h, taming=taming, explosion_radius=(
        config.explosion_radius if radius is None else radius))


def _coarsening_factors(ladder, h_ref):
    """The integer factor of each ladder step over the reference step."""
    factors = [round(h / h_ref) for h in ladder]
    for h, f in zip(ladder, factors):
        if f < 1 or abs(h - f * h_ref) > 1e-9 * h_ref:
            raise DomainError(
                f"step {h:g} is not an integer multiple of the reference "
                f"step {h_ref:g}; resolution coupling needs nested grids")
    return factors


def _integrate_blocks(config, model, noises, scheme, x0):
    """:func:`_integrate` over blocks of ``config.paths`` rows, one per level
    or start; a failing row is named by its path's index in the run."""
    try:
        return _integrate(model, noises, scheme, x0)
    except NumericalDomainError as err:
        if err.path_index is not None:
            err.path_index %= config.paths
        raise


def _ladder_gaps(config, model, taming, h_ref, factors):
    """Seeds and, per ladder level, every path's terminal gap
    ``|X_T - X_T^ref|`` to its reference path at step ``h_ref`` (nan where
    either exploded).  The paths sample one batch at ``h_ref``; a level
    runs on its coarsening, checked to stay coupled, both per level on the
    batch, and a level at ``h_ref`` itself reuses the reference paths.  All
    levels' batches are integrated in one call."""
    seeds, fine = _sample_paths(config, model, h_ref)
    batches = [fine]
    schemes = [_scheme(config, h_ref, taming)] * config.paths
    for h, f in zip(config.step_ladder, factors):
        if f != 1:
            coarse = fine.coarsen(f)
            _check_coupling(fine, coarse, f)
            batches.append(coarse)
            schemes += [_scheme(config, h, taming)] * config.paths
    *_, finals, exploded = _integrate_blocks(config, model, batches,
                                             schemes, config.x0)
    finals = finals.reshape(-1, config.paths)
    exploded = exploded.reshape(-1, config.paths)
    ref, *coarse_levels = np.where(exploded | exploded[0], math.nan,
                                   np.abs(finals - finals[0])).tolist()
    coarse_levels = iter(coarse_levels)
    return seeds, [ref if f == 1 else next(coarse_levels) for f in factors]


def _check_coupling(fine, coarse, factor):
    """A coarsened batch must carry the fine event stream unchanged and, in
    each row, Brownian increments equal to the fine ones summed in groups
    of ``factor``; the error names the first failing row's seed."""
    sums = fine.brownian_increments.reshape(len(fine), -1, factor).sum(axis=2)
    got = coarse.brownian_increments
    bad = np.ones(len(fine), bool)      # a changed event stream or length
    if coarse.events.tobytes() == fine.events.tobytes() \
            and got.shape == sums.shape:
        bad = ~(np.max(np.abs(got - sums), axis=1, initial=0.0) <= 1e-15)
    if bad.any():
        raise AssertionError(
            f"noise coupling across resolutions broke for seed "
            f"{fine.seeds[np.argmax(bad)]} at coarsening factor {factor}")


def _charge_budget(what, paths, steps_per_path, budget_cap):
    total = paths * steps_per_path
    if total > budget_cap:
        raise ResourceLimitError(
            f"{what}: {paths} paths x {steps_per_path} grid steps "
            f"= {total} exceeds budget_cap {budget_cap}")


def _steps(horizon, h):
    return int(math.ceil(horizon / h - 1e-12))


def _precheck_echo(report, violation):
    """Raise :class:`AssumptionViolationError` with the ``violation`` text
    unless the pre-check found no violation; else echo its verdict."""
    if report.verdict != NO_VIOLATION:
        raise AssumptionViolationError(
            f"{violation}; pass skip_checks=True to run regardless",
            reports=(report,))
    return {"assumption_id": report.assumption_id, "verdict": report.verdict}


def _write_if_configured(summary, config):
    if config.output_dir is not None:
        summary.write(config.output_dir)
    return summary


# ---------------------------------------------------------------------------
# explosion
# ---------------------------------------------------------------------------

def run_explosion(config):
    """Exit frequencies over the radius ladder, with the moment-bound row.

    One simulation per path at the largest radius; exits at the smaller radii
    are read off the stored trajectory, which also enforces per-path
    monotonicity in the radius exactly.
    """
    model = _resolve_model(config.model)
    taming = _resolve_taming(config, model)
    growth, mu, notes = _resolve_growth(config, model)
    h = config.step_ladder[-1]
    _charge_budget("explosion", config.paths, _steps(config.horizon, h),
                   config.budget_cap)

    check_echo = None
    if not config.skip_checks:
        check_echo = _precheck_echo(
            check_growth(model, growth, mu),
            f"growth condition violated for model {model.label!r} with "
            f"envelope {growth.label!r}, mu = {mu:g}")
        check_echo.update(growth=growth.label, mu=mu)

    radii = config.radius_ladder
    scheme = _scheme(config, h, taming, radius=radii[-1])

    seeds, noises = _sample_paths(config, model, h)
    times, states, cols, ends, *_, finals, _ = _integrate_blocks(
        config, model, noises, scheme, config.x0)
    exits = _first_exits(times, states, cols, ends, radii)

    ladder = []
    for j, r in enumerate(radii):
        mean, se, n = _mean_se(np.isfinite(exits[:, j]).astype(float))
        ladder.append({"radius": r, "exceedance_frequency": mean,
                       "se": se, "n": n})

    # per-path monotonicity: exit at a larger radius implies an exit at every
    # smaller radius no later
    broken = np.flatnonzero((exits[:, 1:] < exits[:, :-1]).any(axis=1))
    if broken.size:
        raise AssertionError(
            f"radius monotonicity violated for seed {seeds[broken[0]]}")

    squares = np.array([_square(x) for x in finals.tolist()])
    phis = np.full(len(squares), math.inf)
    finite = np.isfinite(squares)
    phis[finite] = phi_growth(growth, squares[finite])
    phis = phis.tolist()
    phi_mean, phi_se, phi_n = _mean_se(phis)
    if model.nu2 is None or model.u3 is None:
        m_rate = 0.0          # no large jumps, or none handled by interlacing
    else:
        m_rate = model.nu2.total_mass - model.u3_measure().total_mass
    x0_square = _square(config.x0)
    bound = (moment_bound(growth, mu, m_rate, x0_square, config.horizon)
             if math.isfinite(x0_square) else math.inf)
    bound_row = {
        "mc_mean": phi_mean, "mc_se": phi_se, "n": phi_n,
        "bound": bound, "interlaced_rate": m_rate,
        "growth": growth.label, "mu": mu,
        "satisfied_within_3se": (bool(phi_mean <= bound + 3.0 * phi_se)
                                 if math.isfinite(bound)
                                 and math.isfinite(phi_mean) else None),
    }

    header = ["path_index", "seed"] + [f"exit_time_R{r:g}" for r in radii] \
        + ["phi_final"]
    rows = [[i, seed] + path_exits + [phi] for i, (seed, path_exits, phi)
            in enumerate(zip(seeds, exits.tolist(), phis))]

    summary = ExperimentSummary(
        kind="explosion",
        config=config.echo(model.label),
        ladder=ladder,
        extras={"bound_row": bound_row, "step": h, "taming": taming,
                "growth_check": check_echo, "notes": notes},
        data_header=tuple(header),
        data_rows=rows,
    )
    return _write_if_configured(summary, config)


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def run_uniqueness(config):
    """Terminal-gap decay across resolutions under one noise realization
    per path.  The finest ladder level doubles as the reference, so its gap
    is exactly zero; the log-log slope is fitted over the coarser levels."""
    model = _resolve_model(config.model)
    taming = _resolve_taming(config, model)
    if config.alpha <= 0:
        raise DomainError("uniqueness requires alpha > 0")
    ladder = config.step_ladder
    if len(ladder) < 3:
        raise DomainError("uniqueness requires a step ladder with >= 3 "
                          "levels")
    h_ref = ladder[-1]
    factors = _coarsening_factors(ladder, h_ref)
    _charge_budget("uniqueness", config.paths,
                   sum(_steps(config.horizon, h) for h in ladder),
                   config.budget_cap)

    seeds, gaps = _ladder_gaps(config, model, taming, h_ref, factors)
    gaps = [[g ** config.alpha for g in level] for level in gaps]

    ladder_rows = []
    for j, h in enumerate(ladder):
        mean, se, n = _mean_se(gaps[j])
        ladder_rows.append({"step": h, "mean_gap_pow_alpha": mean, "se": se,
                            "n": n, "is_reference": j == len(ladder) - 1})

    fit_h = [row["step"] for row in ladder_rows
             if not row["is_reference"] and row["mean_gap_pow_alpha"] > 0]
    fit_m = [row["mean_gap_pow_alpha"] for row in ladder_rows
             if not row["is_reference"] and row["mean_gap_pow_alpha"] > 0]
    slope = None
    if len(fit_h) >= 2:
        slope = float(np.polyfit(np.log(fit_h), np.log(fit_m), 1)[0])
    means = [row["mean_gap_pow_alpha"] for row in ladder_rows]
    strictly_decreasing = all(a > b for a, b in zip(means, means[1:]))

    header = ["path_index", "seed"] + [f"gap_pow_alpha_h{h:.10g}"
                                       for h in ladder]
    rows = [[i, seed] + [col[i] for col in gaps]
            for i, seed in enumerate(seeds)]

    summary = ExperimentSummary(
        kind="uniqueness",
        config=config.echo(model.label),
        ladder=ladder_rows,
        extras={"slope": slope, "levels_in_fit": len(fit_h),
                "strictly_decreasing": strictly_decreasing,
                "reference_step": h_ref, "taming": taming,
                "coupling": "one realization per path, coarsened per level"},
        data_header=tuple(header),
        data_rows=rows,
    )
    return _write_if_configured(summary, config)


# ---------------------------------------------------------------------------
# nonconfluence
# ---------------------------------------------------------------------------

def _nonconfluence_precheck(config, model):
    """Designated parameters for the presets; explicit config otherwise."""
    modulus = config.modulus
    if isinstance(modulus, str):
        modulus = builtin_modulus(modulus)
    if modulus is not None:
        return check_nonconfluence_conditions(
            model, modulus, alpha=config.alpha, delta=config.delta)
    _, params = designated_sets(model.label).get("A26", (None, None))
    if params is None:
        raise UsageError(
            f"model {model.label!r} has no designated nonconfluence check; "
            "provide modulus=... (with alpha/delta) or set skip_checks=True")
    return check_nonconfluence_conditions(model, **params)


def run_nonconfluence(config):
    """Minimum inter-path distance of two starts under identical noise."""
    model = _resolve_model(config.model)
    taming = _resolve_taming(config, model)
    if config.y0 is None:
        raise UsageError("nonconfluence requires y0 (the second start)")
    y0 = float(config.y0)
    if y0 == config.x0:
        raise DomainError("nonconfluence requires x0 != y0")
    h = config.step_ladder[-1]
    _charge_budget("nonconfluence", config.paths,
                   2 * _steps(config.horizon, h), config.budget_cap)

    check_echo = None
    if not config.skip_checks:
        check_echo = _precheck_echo(
            _nonconfluence_precheck(config, model),
            f"nonconfluence conditions violated for model {model.label!r}")

    scheme = _scheme(config, h, taming)

    seeds, noises = _sample_paths(config, model, h)
    times, states, cols, ends, *_, exploded = _integrate_blocks(
        config, model, [noises, noises], scheme,
        [config.x0] * config.paths + [y0] * config.paths)
    mins = _min_distances(times, states, cols, ends, exploded)
    finite = mins[np.isfinite(mins)]
    excluded = mins.size - finite.size

    ladder_rows = []
    for eps in config.epsilon_ladder:
        hits = (finite < eps).astype(float)
        mean, se, n = _mean_se(hits)
        ladder_rows.append({"epsilon": eps, "fraction_below": mean,
                            "se": se, "n": n})

    m_bound = config.m_bound
    if m_bound is None:
        masses = [m.total_mass for m in (model.nu1, model.nu2)
                  if m is not None and m.is_finite]
        m_bound = max(masses) if masses else 0.0
    constants = nonconfluence_constants(config.alpha, config.delta,
                                        m_bound)._asdict()
    constants.update(alpha=config.alpha, delta=config.delta,
                     m_bound=float(m_bound))

    summary = ExperimentSummary(
        kind="nonconfluence",
        config=config.echo(model.label),
        ladder=ladder_rows,
        extras={"min_distance": (float(np.min(finite)) if finite.size
                                 else float("nan")),
                "initial_gap": abs(config.x0 - y0),
                "excluded_exploded_paths": excluded,
                "constants": constants, "step": h, "taming": taming,
                "condition_check": check_echo,
                "coupling": "one realization per path, shared by both "
                            "starts"},
        data_header=("path_index", "seed", "min_distance"),
        data_rows=[[i, seed, d] for i, (seed, d)
                   in enumerate(zip(seeds, mins.tolist()))],
    )
    return _write_if_configured(summary, config)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def run_convergence(config):
    """Strong-order diagnostic: terminal errors against a reference four
    times finer than the finest ladder level; order estimated per path and
    aggregated with a normal confidence interval."""
    model = _resolve_model(config.model)
    taming = _resolve_taming(config, model)
    ladder = config.step_ladder
    if len(ladder) < 4:
        raise DomainError("convergence requires a step ladder with >= 4 "
                          "levels")
    h_ref = ladder[-1] / 4.0
    factors = _coarsening_factors(ladder, h_ref)
    _charge_budget("convergence", config.paths,
                   _steps(config.horizon, h_ref)
                   + sum(_steps(config.horizon, h) for h in ladder),
                   config.budget_cap)

    seeds, errors = _ladder_gaps(config, model, taming, h_ref, factors)
    per_path = [[col[i] for col in errors] for i in range(config.paths)]

    ladder_rows = []
    for j, h in enumerate(ladder):
        mean, se, n = _mean_se(errors[j])
        ladder_rows.append({"step": h, "mean_error": mean, "se": se, "n": n})

    slopes = []
    log_h = np.log(np.asarray(ladder))
    for path_errors in per_path:
        e = np.asarray(path_errors, dtype=float)
        keep = np.isfinite(e) & (e > 0)
        if int(keep.sum()) >= 2:
            slopes.append(float(np.polyfit(log_h[keep],
                                           np.log(e[keep]), 1)[0]))
    all_zero = bool(np.all(np.asarray(errors) == 0.0))     # False on nan
    if all_zero:
        order = {"estimate": "exact", "n_regressed": 0}
    else:
        mean, se, n = _mean_se(slopes)
        order = {"estimate": mean, "ci_low": mean - 1.96 * se,
                 "ci_high": mean + 1.96 * se, "se": se, "n_regressed": n}

    header = ["path_index", "seed"] + [f"error_h{h:.10g}" for h in ladder]
    rows = [[i, seed] + e for i, (seed, e) in enumerate(zip(seeds, per_path))]

    summary = ExperimentSummary(
        kind="convergence",
        config=config.echo(model.label),
        ladder=ladder_rows,
        extras={"order": order, "reference_step": h_ref, "taming": taming},
        data_header=tuple(header),
        data_rows=rows,
    )
    return _write_if_configured(summary, config)


RUNNERS = {
    "explosion": run_explosion,
    "uniqueness": run_uniqueness,
    "nonconfluence": run_nonconfluence,
    "convergence": run_convergence,
}


def run_experiment(kind, config):
    if kind not in RUNNERS:
        raise UsageError(f"unknown experiment kind {kind!r}; choose from "
                         f"{sorted(RUNNERS)}")
    return RUNNERS[kind](config)
