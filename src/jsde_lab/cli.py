"""Command-line entry point.

Subcommands: ``simulate`` (paths to CSV), ``verify`` (condition checkers),
``bound`` (closed-form inequality values), ``experiment`` (the Monte Carlo
harness).  Exit codes: 0 success, 1 usage/configuration error, 2 a
verification check returned `violated`, 3 numerical domain error.
"""

import argparse
import json
import math
import os
import sys

from .analysis import bihari_bound, moment_bound, omega_build
from .config import (describe_keys, parse_config, resolve_seed)
from .errors import (AssumptionViolationError, CatalogError, DomainError,
                     NumericalDomainError, UsageError)
from .harness import ExperimentConfig, _charge_budget, _steps, run_experiment
from .integrator import SchemeConfig, dump_path_csv, simulate_paths
from .model import builtin_growth, builtin_modulus, scale_modulus
from .noise import derive_path_seed, sample_batch
from .verifier import (NO_VIOLATION, check_corollary_conditions, check_growth,
                       check_local_conditions, check_modulus,
                       check_nonconfluence_conditions, designated_checks,
                       designated_sets, format_report_table, reports_to_json)

CHECK_NAMES = ("designated", "modulus", "growth", "local", "corollary",
               "nonconfluence")

# condition id -> the generic checker used when the model's designated
# parameter set does not already cover the id
ASSUMPTION_CHECKS = {"A22": "modulus", "A23": "growth", "A24": "local",
                     "A25": "corollary", "A26": "nonconfluence"}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_modulus_spec(spec):
    """Read a modulus spec: a catalog name, optionally scaled, e.g.
    ``identity``, ``5*identity``, ``0.5*neg_x_log_x``."""
    text = spec.strip()
    if "*" in text:
        factor, name = text.rsplit("*", 1)
        from .exprs import parse_scalar
        return scale_modulus(builtin_modulus(name.strip()),
                             parse_scalar(factor))
    return builtin_modulus(text)


def _common_flags(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="structured-text config file")
    sub.add_argument("--output-dir", metavar="DIR",
                     help="directory for summary.json / data.csv / dumps")
    sub.add_argument("--seed", type=int, metavar="N",
                     help="master seed (overrides config and JSDE_LAB_SEED)")
    sub.add_argument("--set", action="append", default=[], metavar="K=V",
                     dest="overrides", help="override a config key, "
                     "e.g. --set scheme.h=2^-6 (repeatable)")
    sub.add_argument("--preset", metavar="NAME",
                     help="shortcut for --set model.preset=NAME")


def build_parser():
    parser = _ArgumentParser(
        prog="jsde-lab",
        description=__doc__.splitlines()[0],
        epilog="configuration keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    subs.required = True

    sim = subs.add_parser(
        "simulate", help="integrate sample paths and dump them as CSV")
    _common_flags(sim)
    sim.add_argument("--paths", type=int, default=1, metavar="N",
                     help="number of paths to simulate (default 1)")
    sim.add_argument("--dump-noise", action="store_true",
                     help="also dump each noise realization as CSV")
    sim.set_defaults(func=_cmd_simulate)

    ver = subs.add_parser(
        "verify", help="run condition checkers and report verdicts")
    _common_flags(ver)
    ver.add_argument("--check", action="append", choices=CHECK_NAMES,
                     dest="checks", metavar="NAME",
                     help=f"checker to run ({', '.join(CHECK_NAMES)}); "
                     "repeatable; default: designated")
    ver.add_argument("--assumption", action="append",
                     choices=sorted(ASSUMPTION_CHECKS), dest="assumptions",
                     metavar="ID", help="condition id to check (A22..A26); "
                     "uses the preset's designated parameters when they "
                     "cover the id, the [analysis] keys otherwise")
    ver.set_defaults(func=_cmd_verify)

    bnd = subs.add_parser(
        "bound", help="evaluate closed-form inequality bounds")
    _common_flags(bnd)
    bnd.add_argument("--modulus", metavar="NAME",
                     help="modulus for the nonlinear Gronwall bound")
    bnd.add_argument("--f", type=float, metavar="F",
                     help="constant forcing level")
    bnd.add_argument("--g", type=float, metavar="G",
                     help="constant rate")
    bnd.add_argument("--t", type=float, default=1.0, metavar="T",
                     help="evaluation time (default 1)")
    bnd.add_argument("--growth", metavar="NAME",
                     help="growth envelope for the moment bound")
    bnd.add_argument("--mu", type=float, metavar="MU",
                     help="growth-bound constant")
    bnd.add_argument("--m", type=float, default=0.0, metavar="M",
                     help="restricted large-jump mass (default 0)")
    bnd.add_argument("--x0sq", type=float, default=1.0, metavar="S",
                     help="initial second moment (default 1)")
    bnd.set_defaults(func=_cmd_bound)

    exp = subs.add_parser(
        "experiment", help="run a Monte Carlo experiment")
    _common_flags(exp)
    exp.add_argument("--kind", choices=("explosion", "uniqueness",
                                        "nonconfluence", "convergence"),
                     help="experiment kind (overrides experiment.kind)")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def _load(ns):
    overrides = list(ns.overrides)
    if ns.preset:
        overrides.append(f"model.preset={ns.preset}")
    return parse_config(ns.config, overrides)


def _require_model(cfg):
    model = cfg.model()
    if model is None:
        raise UsageError(
            "no model configured: pass --preset NAME or define [model] "
            "keys in the config"
        )
    return model


def _scheme(cfg):
    return SchemeConfig(
        base_step=cfg["scheme.h"],
        explosion_radius=cfg["scheme.explosion_radius"],
        taming=cfg["scheme.taming"],
        restrict_to_u3=cfg["scheme.restrict_to_u3"],
    )


def _cmd_simulate(ns):
    cfg = _load(ns)
    model = _require_model(cfg)
    seed = resolve_seed(ns.seed, cfg["noise.seed"])
    scheme = _scheme(cfg)
    horizon = cfg["experiment.T"]
    x0 = cfg["experiment.x0"]
    if ns.paths < 1:
        raise UsageError("--paths must be at least 1")
    _charge_budget("simulate", ns.paths, _steps(horizon, scheme.base_step),
                   cfg["experiment.budget_cap"])
    outdir = ns.output_dir
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    seeds = [derive_path_seed(seed, i) for i in range(ns.paths)]
    noises = sample_batch(model, horizon, scheme.base_step, seeds)
    paths = simulate_paths(model, noises, scheme, x0)
    for i, (path_seed, path) in enumerate(zip(seeds, paths)):
        tail = (f"exploded at t={path.exit_time:g}" if path.exploded
                else f"terminal={path.state_at_end():.17g}")
        print(f"path {i}: seed={path_seed} steps={len(path.times) - 1} "
              f"{tail}")
        if outdir:
            dump_path_csv(path, model, scheme,
                          os.path.join(outdir, f"path_{i:04d}.csv"))
            if ns.dump_noise:
                noises[i].dump_csv(os.path.join(outdir, f"noise_{i:04d}.csv"))
    if outdir:
        print(f"wrote {ns.paths} path file(s) to {outdir}")
    return 0


def _analysis_modulus(cfg, key="analysis.modulus"):
    spec = cfg[key]
    if spec is None:
        raise UsageError(f"this check needs {key} in the config")
    return parse_modulus_spec(spec)


def _run_checks(cfg, model, names):
    reports = []
    for name in names:
        if name == "designated":
            reports.extend(designated_checks(model))
        elif name == "modulus":
            reports.append(check_modulus(_analysis_modulus(cfg)))
        elif name == "growth":
            growth_name = cfg["analysis.growth"]
            if growth_name is None:
                raise UsageError("the growth check needs analysis.growth")
            if cfg["analysis.mu"] is None:
                raise UsageError("the growth check needs analysis.mu")
            reports.append(check_growth(model, builtin_growth(growth_name),
                                        cfg["analysis.mu"]))
        elif name == "local":
            reports.append(check_local_conditions(
                model, _analysis_modulus(cfg), cfg["analysis.alpha"],
                cfg["analysis.delta0"]))
        elif name == "corollary":
            rho1 = _analysis_modulus(cfg, "analysis.rho1")
            rho2 = _analysis_modulus(cfg, "analysis.rho2")
            reports.append(check_corollary_conditions(
                model, rho1, rho2, cfg["analysis.delta0"]))
        elif name == "nonconfluence":
            reports.append(check_nonconfluence_conditions(
                model, _analysis_modulus(cfg), cfg["analysis.alpha"],
                cfg["analysis.delta"]))
    return reports


def _assumption_reports(cfg, model, ids):
    designated = designated_sets(model.label)
    reports = []
    for aid in ids:
        if aid in designated:
            check, params = designated[aid]
            reports.append(check(model, **params))
        else:
            reports.extend(_run_checks(cfg, model, [ASSUMPTION_CHECKS[aid]]))
    return reports


def _cmd_verify(ns):
    cfg = _load(ns)
    model = _require_model(cfg)
    reports = []
    if ns.assumptions:
        reports.extend(_assumption_reports(cfg, model, ns.assumptions))
    if ns.checks or not ns.assumptions:
        reports.extend(_run_checks(cfg, model, ns.checks or ["designated"]))
    print(format_report_table(reports))
    payload = reports_to_json(reports)
    print(payload)
    if ns.output_dir:
        os.makedirs(ns.output_dir, exist_ok=True)
        target = os.path.join(ns.output_dir, "report.json")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {target}")
    if any(r.verdict != NO_VIOLATION for r in reports):
        return 2
    return 0


def _cmd_bound(ns):
    if (ns.modulus is None) == (ns.growth is None):
        raise UsageError(
            "bound needs exactly one of --modulus (nonlinear Gronwall) "
            "or --growth (moment bound)"
        )
    if ns.t < 0:
        raise UsageError("--t must be nonnegative")
    if ns.modulus is not None:
        if ns.f is None or ns.g is None:
            raise UsageError("--modulus needs --f and --g")
        modulus = parse_modulus_spec(ns.modulus)
        base = ns.f if 0 < ns.f < math.inf else 1.0
        value = bihari_bound(omega_build(modulus, base), ns.f, ns.g, ns.t)
        print(f"{value:.17g}")
        return 0
    if ns.mu is None:
        raise UsageError("--growth needs --mu")
    upsilon = builtin_growth(ns.growth)
    value = moment_bound(upsilon, ns.mu, ns.m, ns.x0sq, ns.t)
    print(f"{value:.17g}")
    return 0


def _experiment_config(ns, cfg, model):
    seed = resolve_seed(ns.seed, cfg["noise.seed"])
    taming = (cfg["scheme.taming"]
              if cfg.sources["scheme.taming"] != "default" else None)
    growth = cfg["analysis.growth"]
    modulus_spec = cfg["analysis.modulus"]
    return ExperimentConfig(
        model=model,
        horizon=cfg["experiment.T"],
        step_ladder=cfg["experiment.steps"],
        paths=cfg["experiment.N"],
        master_seed=seed,
        radius_ladder=cfg["experiment.radii"],
        epsilon_ladder=cfg["experiment.epsilons"],
        alpha=cfg["experiment.alpha"],
        x0=cfg["experiment.x0"],
        y0=cfg["experiment.y0"],
        output_dir=ns.output_dir,
        growth=builtin_growth(growth) if growth is not None else None,
        mu=cfg["analysis.mu"],
        taming=taming,
        modulus=(parse_modulus_spec(modulus_spec)
                 if modulus_spec is not None else None),
        delta=cfg["experiment.delta"],
        m_bound=cfg["experiment.m_bound"],
        skip_checks=cfg["experiment.skip_checks"],
        budget_cap=cfg["experiment.budget_cap"],
        explosion_radius=cfg["scheme.explosion_radius"],
    )


def _cmd_experiment(ns):
    cfg = _load(ns)
    model = _require_model(cfg)
    kind = ns.kind or cfg["experiment.kind"]
    if kind is None:
        raise UsageError(
            "no experiment kind: pass --kind or set experiment.kind"
        )
    summary = run_experiment(kind, _experiment_config(ns, cfg, model))
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    if ns.output_dir:
        print(f"wrote {os.path.join(ns.output_dir, 'summary.json')} and "
              f"{os.path.join(ns.output_dir, 'data.csv')}")
    return 0


def main(argv=None):
    try:
        parser = build_parser()
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 1
    except NumericalDomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        if exc.path_index is not None:
            step = "" if exc.step is None else f", base step = {exc.step!r}"
            print(f"  path {exc.path_index}, seed {exc.seed}, t = {exc.t!r}, "
                  f"state = {exc.state!r}{step}", file=sys.stderr)
        return 3
    except AssumptionViolationError as exc:
        print(f"condition check failed: {exc}", file=sys.stderr)
        if exc.reports:
            print(format_report_table(exc.reports), file=sys.stderr)
        return 2
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CatalogError as exc:
        # KeyError reprs its message with quotes; unwrap for readability.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
