"""Hash the outputs of a fixed matrix of runs, column by column.

Usage::

    python tools/output_hashes.py [OUT]

The matrix runs all four experiment kinds on both presets (including runs
whose paths exit at small radii), five ``jsde-lab simulate --output-dir``
dumps, each in a temporary directory, then ``jsde-lab verify`` on both
presets, two ``jsde-lab bound`` calls, a ``verify`` of the inline u3
model, a ``verify`` of an inline model that violates every A24..A26
condition (so every witness is reconfirmed through the scalar path), a
``verify --assumption`` on a preset, and a ``simulate`` and one
``experiment`` of each kind on an inline model with a constant ``c1`` and a
state-free ``c2``; last come ``verify --check modulus`` and two ``bound``
calls on each catalog modulus (and a scaled one), ``bound --growth`` and
``verify --check growth`` on each growth envelope, and an explosion run
under the ``log_loglog`` envelope; then an explosion and a nonconfluence
run on the inline u3 model and a one-path ``simulate --dump-noise`` on the
degenerate model; then a ``simulate`` whose grid exceeds the paths x steps
budget, which exits 1 before any output; then a ``simulate`` whose diffusion
turns non-finite, which exits 3 naming the failing path on stderr; last, the
A24 and A26 checkers called on both presets over three pair grids whose
anchors' runs of pairs are longer than a mark-integral block, one pair long,
and clipped to mixed lengths; last, a ``simulate`` and a ``verify --check
corollary`` of an inline model with a mark-free ``c1`` and of its twin
whose ``c1`` is expanded over the marks, whose lines must be equal pairwise;
last, the ``ito_levy_apply`` Y-states on the criterion-10 shape (tamed,
h = 2^-9 and its coarsening by 2, a few seeds) on both presets; last, the
exception type, message and state of the two errors the designated A26
check of ``example_41`` raises on a NaN separation margin and on a jump
coefficient that fails only at a pair's partner state; last, ``verify
--check`` corollary, local and nonconfluence on the degenerate model, whose
constant ``c1`` and state-free ``c2`` return a ``(1, 1)`` and a ``(1, marks)``
value to every mark integral.
It prints one ``name sha256`` line per output:
``summary.json`` whole, ``data.csv`` and every dumped CSV one line per column,
each CLI call's exit code and stdout (stderr for the non-finite run), and each
checker's ``reports_to_json``.  The listing goes to
``OUT`` when given, else to stdout, so that "only this column moved"
between two checkouts is a single ``diff`` of their listings::

    python tools/output_hashes.py new.txt && diff old.txt new.txt

which prints the lines that moved and exits 1 if any did.

The package is imported from the ``src`` directory next to this script.
"""

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# jsde_lab first: it sets the BLAS thread count before numpy loads
from jsde_lab import cli, model, verifier  # noqa: E402
import numpy as np  # noqa: E402
from jsde_lab.errors import NumericalDomainError  # noqa: E402
from jsde_lab.harness import (DEFAULT_SEED, ExperimentConfig,  # noqa: E402
                              run_experiment)
from jsde_lab.integrator import (SchemeConfig, ito_levy_apply,  # noqa: E402
                                 simulate)
from jsde_lab.noise import derive_path_seed, sample_noise  # noqa: E402
from jsde_lab.verifier import (PairGrid, check_local_conditions,  # noqa: E402
                               check_nonconfluence_conditions,
                               reports_to_json)

PRESETS = ("example_31", "example_41")

# (name, kind, keyword arguments); each runs on both presets
EXPERIMENTS = (
    ("explosion_h8", "explosion",
     dict(paths=300, step_ladder=(2.0 ** -8,))),
    ("explosion_exits", "explosion",
     dict(paths=200, step_ladder=(2.0 ** -6,),
          radius_ladder=(1.5, 3.0, 10.0))),
    ("uniqueness", "uniqueness", dict(paths=60)),
    ("uniqueness_exits", "uniqueness", dict(paths=60, explosion_radius=3.0)),
    ("nonconfluence_h8", "nonconfluence",
     dict(paths=100, step_ladder=(2.0 ** -8,), x0=0.0, y0=1.0)),
    ("nonconfluence_exits", "nonconfluence",
     dict(paths=100, step_ladder=(2.0 ** -7,), x0=0.0, y0=1.0,
          explosion_radius=1.5)),
    ("convergence", "convergence", dict(paths=30)),
    ("convergence_exits", "convergence",
     dict(paths=30, explosion_radius=2.5)),
)

U3_MODEL = """[model]
b = -x
sigma = 0.5
c2 = u
nu2 = atoms(1:0.5, 2:0.25)
u3 = 1.5:3

[scheme]
restrict_to_u3 = true
h = 2^-6
"""

# violates all eleven A24..A26 conditions at the small moduli set below, so
# every reconfirmation path runs, the sampled separation scan included
VIOL_MODEL = """[model]
b = x^3
sigma = x
c1 = u*x
nu1 = lebesgue(-1, 1)
c2 = u*x
nu2 = atoms(1:0.5, 2:0.25)
u3 = 1.5:3
"""

# a constant (mark-free) c1 and a state-free c2
DEGENERATE_MODEL = """[model]
b = -x
sigma = 0.5
c1 = 0
nu1 = lebesgue(-1, 1)
c2 = u
nu2 = atoms(0.5:1, 1.5:0.5)
u3 = 1:2

[experiment]
N = 50
y0 = 0
"""

# (name, argv after "simulate"); each writes into its own directory
SIMULATIONS = (
    ("simulate_31_noise", ["--preset", "example_31", "--paths", "3",
                           "--dump-noise"]),
    ("simulate_41_noise", ["--preset", "example_41", "--paths", "3",
                           "--dump-noise", "--set", "scheme.h=2^-6"]),
    ("simulate_exits", ["--preset", "example_31", "--paths", "4",
                        "--set", "scheme.explosion_radius=1.5"]),
    ("simulate_x0_beyond", ["--preset", "example_41", "--paths", "2",
                            "--set", "scheme.explosion_radius=1.5",
                            "--set", "experiment.x0=2"]),
    ("simulate_u3", ["--config", "{u3}", "--paths", "3", "--dump-noise"]),
)

# (name, argv) of CLI calls on the degenerate model, each writing into its
# own directory; listed after the reports
DEGENERATE_RUNS = (
    ("degenerate_simulate", ["simulate", "--paths", "3", "--dump-noise"]),
    ("degenerate_explosion", ["experiment", "--kind", "explosion",
                              "--set", "experiment.skip_checks=true",
                              "--set", "analysis.growth=one",
                              "--set", "analysis.mu=10"]),
    ("degenerate_nonconfluence", ["experiment", "--kind", "nonconfluence",
                                  "--set", "experiment.skip_checks=true"]),
    ("degenerate_uniqueness", ["experiment", "--kind", "uniqueness"]),
    ("degenerate_convergence", ["experiment", "--kind", "convergence"]),
)

# (name, argv) of CLI calls whose exit code and stdout are hashed
REPORTS = (
    ("verify_31", ["verify", "--preset", "example_31"]),
    ("verify_41", ["verify", "--preset", "example_41"]),
    ("bound_moment_log", ["bound", "--growth", "log", "--mu", "1"]),
    ("bound_x_log_log", ["bound", "--modulus", "x_log_log", "--f", "1",
                         "--g", "1"]),
    # pair-grid mark integrals over atoms and a non-empty u3
    ("verify_u3", ["verify", "--config", "{u3}", "--check", "corollary",
                   "--check", "nonconfluence", "--check", "growth",
                   "--set", "analysis.rho1=identity",
                   "--set", "analysis.rho2=identity",
                   "--set", "analysis.modulus=identity",
                   "--set", "analysis.delta0=1", "--set", "analysis.alpha=0",
                   "--set", "analysis.delta=0.5",
                   "--set", "analysis.growth=one", "--set", "analysis.mu=10"]),
    ("verify_violations", ["verify", "--config", "{viol}", "--check", "local",
                           "--check", "corollary", "--check", "nonconfluence",
                           "--set", "analysis.modulus=0.01*identity",
                           "--set", "analysis.rho1=0.01*identity",
                           "--set", "analysis.rho2=0.01*identity",
                           "--set", "analysis.alpha=0.5",
                           "--set", "analysis.delta0=1",
                           "--set", "analysis.delta=0.5"]),
    ("verify_41_assumptions", ["verify", "--preset", "example_41",
                               "--assumption", "A26",
                               "--assumption", "A23"]),
)

# every catalog modulus and growth envelope, listed after the degenerate runs
MODULI = ("identity", "neg_x_log_x", "x_log_log", "one_minus_x_pow_x",
          "0.5*neg_x_log_x")
GROWTHS = (("one", "1"), ("log", "2"), ("log_loglog", "1"))
CATALOG_REPORTS = (
    [(f"verify_modulus_{m}", ["verify", "--preset", "example_31", "--check",
                              "modulus", "--set", f"analysis.modulus={m}"])
     for m in MODULI]
    + [(f"bound_{m}_{fg}", ["bound", "--modulus", m] + args)
       for m in MODULI
       for fg, args in (("f1_g1", ["--f", "1", "--g", "1"]),
                        ("f0.01_g3_t2", ["--f", "0.01", "--g", "3",
                                         "--t", "2"]))]
    + [(f"bound_growth_{g}", ["bound", "--growth", g, "--mu", mu,
                              "--x0sq", "100", "--t", "2"])
       for g, mu in GROWTHS]
    + [(f"verify_growth_{g}_{p}", ["verify", "--preset", p, "--check",
                                   "growth", "--set", f"analysis.growth={g}",
                                   "--set", f"analysis.mu={mu}"])
       for g, mu in GROWTHS for p in PRESETS])
CATALOG_EXPLOSION = ["experiment", "--kind", "explosion", "--preset",
                     "example_31", "--set", "experiment.N=50",
                     "--set", "analysis.growth=log_loglog",
                     "--set", "analysis.mu=3"]

# (name, model, argv) of CLI calls listed last, on the inline models
INLINE_RUNS = (
    ("u3_explosion", "u3", ["experiment", "--kind", "explosion",
                            "--set", "experiment.N=50",
                            "--set", "experiment.skip_checks=true"]),
    ("u3_nonconfluence", "u3", ["experiment", "--kind", "nonconfluence",
                                "--set", "experiment.N=50",
                                "--set", "experiment.y0=0",
                                "--set", "experiment.skip_checks=true"]),
    ("degenerate_simulate_one", "degenerate",
     ["simulate", "--paths", "1", "--dump-noise"]),
)

# (name, argv) of CLI calls refused before any output, listed last
REFUSED = (
    ("simulate_over_budget", ["simulate", "--preset", "example_31",
                              "--set", "scheme.h=1e-12"]),
)

# a diffusion that is nan below zero, so a path fails as non-finite; listed
# last, with its exit code and stderr
NON_FINITE_MODEL = """[model]
b = 0
sigma = sqrt(x)

[scheme]
h = 2^-4

[experiment]
x0 = 0.5
"""
NON_FINITE_RUN = ["simulate", "--paths", "20", "--seed", "3"]

# pair grids whose anchors' runs of pairs are longer than a mark-integral
# block, one pair long, and of mixed lengths after clipping; listed last
PAIR_GRIDS = (
    ("long_runs", PairGrid(anchors=np.linspace(-3.0, 3.0, 7),
                           gaps=np.geomspace(1e-4, 2.0, 700))),
    ("short_runs", PairGrid(anchors=np.linspace(-3.0, 3.0, 301),
                            gaps=np.array([0.05]))),
    ("clipped_runs", PairGrid(anchors=np.linspace(0.01, 0.34, 41),
                              gaps=np.geomspace(1e-4, 0.3, 37),
                              interval=(0.0, 0.35))),
)
_FIVE_ID = model.scale_modulus(model.builtin_modulus("identity"), 5.0)
# (name, checker, keyword arguments); each runs on every preset and grid
PAIR_CHECKS = (
    ("nonconfluence", check_nonconfluence_conditions,
     dict(modulus=_FIVE_ID, alpha=0.0, delta=0.5)),
    ("local_alpha_0.5", check_local_conditions,
     dict(modulus=_FIVE_ID, alpha=0.5, delta0=3.0)),
    ("local_alpha_0", check_local_conditions,
     dict(modulus=_FIVE_ID, alpha=0.0, delta0=3.0)),
)

# an inline model with a mark-free c1 and no closed-form c1_mean, and its
# twin expanded over the marks; listed last, one twin after the other
TWIN_MODEL = """[model]
b = -x
sigma = sqrt(abs(x))
c1 = {c1}
nu1 = lebesgue(-1, 1)
c2 = u*x
nu2 = lebesgue(1, 2)
"""
MARK_FREE_TWINS = (("mark_free", "sqrt(abs(x))"),
                   ("expanded", "sqrt(abs(x)) + 0*u"))
TWIN_SIMULATE = ["simulate", "--paths", "20"]
TWIN_VERIFY = ["verify", "--check", "corollary",
               "--set", "analysis.rho1=identity",
               "--set", "analysis.rho2=identity",
               "--set", "analysis.delta0=0.5"]

# the chain-rule transform of each preset's paths, listed last
TRANSFORMS = {
    "example_31": (np.sin, np.cos, lambda x: -np.sin(x)),
    "example_41": (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0),
}
TRANSFORM_PATHS = 5


def _nan_margin_past_half(u):
    return np.where(u > 0.5, np.nan, model.GAMMA * np.abs(u))


def _infinite_c1_past(state):
    base = model.preset("example_41")
    return model.CoefficientSet(
        b=base.b, sigma=base.sigma,
        c1=lambda x, u: np.where(x > state, np.inf, 1.0) * u * x,
        c2=base.c2, nu1=base.nu1, nu2=base.nu2, u3=(), label=base.label,
        c1_mean=base.c1_mean)


# (name, model, designated A26 keyword arguments replaced) of the checks
# that raise on a non-finite value; listed last
A26_ERRORS = (
    ("nan_separation_margin", model.preset("example_41"),
     dict(affine_k=_nan_margin_past_half)),
    ("failing_partner_state", _infinite_c1_past(5.5), {}),
)


# (name, argv) of verify calls on the degenerate model, listed last
DEGENERATE_CHECKS = tuple(
    (f"degenerate_verify_{check}",
     ["verify", "--check", check, "--set", "analysis.rho1=identity",
      "--set", "analysis.rho2=identity", "--set", "analysis.modulus=identity",
      "--set", "analysis.delta0=1", "--set", "analysis.alpha=0.5",
      "--set", "analysis.delta=0.5"])
    for check in ("corollary", "local", "nonconfluence"))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _csv_lines(name, path):
    """One line per column; comment lines above the header hash as one."""
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    out = []
    if comments:
        out.append(f"{name}:# {_sha(''.join(comments).encode())}")
    header, body = rows[0], rows[1:]
    for j, col in enumerate(header):
        cells = "\n".join(row[j] for row in body)
        out.append(f"{name}:{col} {_sha(cells.encode())}")
    return out


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _dir_lines(name, out_dir):
    lines = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            lines.extend(_csv_lines(f"{name}/{path.name}", path))
        else:
            lines.append(f"{name}/{path.name} {_sha(path.read_bytes())}")
    return lines


def _output_run(name, argv, out_dir, seed=5):
    """Exit code and stdout of one CLI call, then the files it wrote."""
    rc, stdout = _run_cli(argv[:1] + ["--seed", str(seed), "--output-dir",
                                      str(out_dir)] + argv[1:])
    # the stdout names the temporary directory; hash it without that
    stdout = stdout.replace(str(out_dir), "<out>")
    return ([f"{name}/stdout rc={rc} {_sha(stdout.encode())}"]
            + _dir_lines(name, out_dir))


def listing(work):
    lines = []
    for preset in PRESETS:
        for name, kind, kw in EXPERIMENTS:
            run = f"{preset}/{name}"
            out_dir = work / run
            cfg = ExperimentConfig(model=preset, output_dir=out_dir,
                                   skip_checks=True, **kw)
            run_experiment(kind, cfg)
            lines.extend(_dir_lines(run, out_dir))
    u3 = work / "u3.cfg"
    u3.write_text(U3_MODEL)
    viol = work / "viol.cfg"
    viol.write_text(VIOL_MODEL)
    degenerate = work / "degenerate.cfg"
    degenerate.write_text(DEGENERATE_MODEL)
    for name, argv in SIMULATIONS:
        lines.extend(_output_run(
            name, ["simulate"] + [a.format(u3=u3) for a in argv], work / name))
    for name, argv in REPORTS:
        rc, stdout = _run_cli([a.format(u3=u3, viol=viol) for a in argv])
        lines.append(f"{name}/stdout rc={rc} {_sha(stdout.encode())}")
    for name, argv in DEGENERATE_RUNS:
        lines.extend(_output_run(
            name, argv[:1] + ["--config", str(degenerate)] + argv[1:],
            work / name))
    for name, argv in CATALOG_REPORTS:
        rc, stdout = _run_cli(argv)
        lines.append(f"{name}/stdout rc={rc} {_sha(stdout.encode())}")
    lines.extend(_output_run("catalog_explosion", CATALOG_EXPLOSION,
                             work / "catalog_explosion"))
    configs = {"u3": u3, "degenerate": degenerate}
    for name, config, argv in INLINE_RUNS:
        lines.extend(_output_run(
            name, argv[:1] + ["--config", str(configs[config])] + argv[1:],
            work / name))
    for name, argv in REFUSED:
        rc, stdout = _run_cli(argv)
        lines.append(f"{name}/stdout rc={rc} {_sha(stdout.encode())}")
    non_finite = work / "non_finite.cfg"
    non_finite.write_text(NON_FINITE_MODEL)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc, _ = _run_cli(NON_FINITE_RUN[:1] + ["--config", str(non_finite)]
                         + NON_FINITE_RUN[1:])
    lines.append(f"simulate_non_finite/stderr rc={rc} "
                 f"{_sha(stderr.getvalue().encode())}")
    for label in PRESETS:
        for grid_name, grid in PAIR_GRIDS:
            for name, check, kw in PAIR_CHECKS:
                report = check(model.preset(label), grid=grid, **kw)
                lines.append(f"{label}/{grid_name}/{name} "
                             f"{_sha(reports_to_json([report]).encode())}")
    for twin, c1 in MARK_FREE_TWINS:
        config = work / f"{twin}.cfg"
        config.write_text(TWIN_MODEL.format(c1=c1))
        lines.extend(_output_run(
            f"{twin}_twin/simulate",
            TWIN_SIMULATE[:1] + ["--config", str(config)] + TWIN_SIMULATE[1:],
            work / f"{twin}_simulate", seed=7))
        rc, stdout = _run_cli(TWIN_VERIFY[:1] + ["--config", str(config)]
                              + TWIN_VERIFY[1:])
        lines.append(f"{twin}_twin/verify_corollary/stdout rc={rc} "
                     f"{_sha(stdout.encode())}")
    lines.extend(_transform_lines())
    lines.extend(_error_lines())
    for name, argv in DEGENERATE_CHECKS:
        rc, stdout = _run_cli(argv[:1] + ["--config", str(degenerate)]
                              + argv[1:])
        lines.append(f"{name}/stdout rc={rc} {_sha(stdout.encode())}")
    return lines


def _error_lines():
    """Exception type, message and state of each of ``A26_ERRORS``."""
    check, params = verifier.designated_sets("example_41")["A26"]
    lines = []
    for name, mdl, changes in A26_ERRORS:
        try:
            with np.errstate(invalid="ignore"):
                check(mdl, **dict(params, **changes))
        except NumericalDomainError as exc:
            text = f"{type(exc).__name__}: {exc} state={exc.state!r}"
        else:
            text = "no error"
        lines.append(f"example_41/A26/{name} {_sha(text.encode())}")
    return lines


def _transform_lines():
    """The Y-states of ``ito_levy_apply`` per preset and step, as in
    acceptance criterion 10, all paths of one step hashed together."""
    lines = []
    for label in PRESETS:
        m, f = model.preset(label), TRANSFORMS[label]
        ys = {9: [], 8: []}
        for i in range(TRANSFORM_PATHS):
            fine = sample_noise(m, 1.0, 2.0 ** -9,
                                derive_path_seed(DEFAULT_SEED, i))
            for k, noise in ((9, fine), (8, fine.coarsen(2))):
                scheme = SchemeConfig(base_step=2.0 ** -k,
                                      taming="drift_tamed")
                path = simulate(m, noise, scheme, 1.0)
                ys[k].append(ito_levy_apply(f, path, m, noise, scheme).states)
        for k, states in ys.items():
            lines.append(f"{label}/ito_levy_apply/h=2^-{k} "
                         f"{_sha(np.concatenate(states).tobytes())}")
    return lines


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n".join(listing(Path(tmp))) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
