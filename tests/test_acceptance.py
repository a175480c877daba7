"""Acceptance suite.

One test per advertised guarantee.  Every test prints a single
``[criterion NN] PASS/FAIL`` line with the measured quantities before
asserting, so ``pytest -s tests/test_acceptance.py`` gives the full
scoreboard in one screen.  Budgeted criteria also assert their wall-clock
limits.
"""

import math
import time

import numpy as np
import pytest

from jsde_lab.analysis import (
    a_sequence,
    bihari_bound,
    moment_bound,
    nonconfluence_constants,
    omega_build,
    p_alpha,
    phi_growth,
    psi_build,
    r_inequality_check,
)
from jsde_lab.harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    run_experiment,
    run_explosion,
    run_nonconfluence,
    run_uniqueness,
)
from jsde_lab.integrator import SchemeConfig, ito_levy_apply, simulate_paths
from jsde_lab.model import (
    CoefficientSet,
    Modulus,
    builtin_growth,
    builtin_modulus,
    lebesgue,
    preset,
)
from jsde_lab.noise import LARGE, derive_path_seed, sample_noise
from jsde_lab.verifier import (
    NO_VIOLATION,
    VIOLATED,
    PairGrid,
    check_corollary_conditions,
    check_growth,
    check_modulus,
    check_nonconfluence_conditions,
    designated_checks,
    designated_sets,
)

MODULUS_NAMES = ("identity", "neg_x_log_x", "x_log_log", "one_minus_x_pow_x")


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# 1 — the nonlinear Gronwall bound reduces to the classical one
# ---------------------------------------------------------------------------

def test_criterion_01_linear_reduction_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    omega = omega_build(builtin_modulus("identity"), 1.0)
    worst = 0.0
    for case in range(100):
        k = (0.5, 1.0, 2.0)[case % 3]
        nb = int(rng.integers(1, 6))
        bps = np.sort(rng.uniform(0.05, 0.95, nb))
        levels = rng.uniform(0.0, 4.0, nb + 1)

        def g(s, bps=bps, levels=levels):
            return levels[np.searchsorted(bps, s, side="right")]

        edges = np.concatenate([[0.0], bps, [1.0]])
        integral = float(np.sum(np.diff(edges) * levels))
        expected = k * math.exp(integral)
        got = bihari_bound(omega, k, g, 1.0, g_breakpoints=tuple(bps))
        worst = max(worst, abs(got - expected) / expected)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 1.0
    _report(1, ok, f"100 piecewise-constant rates, worst rel err "
                   f"{worst:.3g} (tol 1e-6), {dt:.2f}s (budget 1s)")
    assert worst <= 1e-6
    assert dt < 1.0


# ---------------------------------------------------------------------------
# 2 — zero forcing gives the exact zero bound
# ---------------------------------------------------------------------------

def test_criterion_02_zero_forcing_is_exact_zero():
    values = []
    for name in ("identity", "neg_x_log_x"):
        omega = omega_build(builtin_modulus(name), 1.0)
        values.append(bihari_bound(omega, 0.0, 3.0, 1.0))
        values.append(bihari_bound(omega, lambda t: 0.0, 3.0, 1.0))
    ok = all(v == 0.0 for v in values)
    _report(2, ok, f"zero forcing -> {values} (exact zeros required)")
    assert all(v == 0.0 for v in values)


# ---------------------------------------------------------------------------
# 3 — the smoothing families behave on every cataloged modulus
# ---------------------------------------------------------------------------

def test_criterion_03_smoothing_family_suite():
    t0 = time.perf_counter()
    prime_grid = np.concatenate([-np.geomspace(1e-12, 10.0, 100),
                                 np.geomspace(1e-12, 10.0, 100)])
    common_r = np.geomspace(1e-12, 1.0, 50)
    worst_prime = 0.0
    worst_ddot = -math.inf
    worst_mass = 0.0
    for name in MODULUS_NAMES:
        mod = builtin_modulus(name)
        prev_vals = None
        for n in (1, 5, 20):
            fam = psi_build(mod, n)
            a_n = math.exp(-fam.l_hi) if fam.l_hi < 745 else 0.0

            # vanishes at and below the support edge
            below = np.linspace(0.0, a_n, 50)
            assert np.all(np.asarray(fam.psi(below)) == 0.0)

            # slope bounded by one everywhere
            p = np.abs(np.asarray(fam.psi_prime(prime_grid)))
            worst_prime = max(worst_prime, float(np.max(p)))

            # nondecreasing in the family index at fixed r
            vals = np.asarray(fam.psi(common_r), dtype=float)
            if prev_vals is not None:
                assert np.all(vals >= prev_vals - 1e-12)
            prev_vals = vals

            # curvature envelope on 200 points inside the representable
            # part of the support gap
            ells = np.linspace(fam.l_lo, min(fam.l_hi, 700.0), 202)[1:-1]
            rs = np.exp(-ells)
            dd = np.asarray(fam.psi_ddot(rs), dtype=float)
            with np.errstate(divide="ignore", over="ignore"):
                env = 2.0 / (n * np.asarray(mod.rho(rs), dtype=float))
            slack = dd - env
            assert not np.isnan(slack).any()
            worst_ddot = max(worst_ddot, float(np.max(slack)))

            # the gap carries reciprocal-modulus mass exactly n
            worst_mass = max(worst_mass,
                             abs(fam.gap_mass_check() - n) / n)
    dt = time.perf_counter() - t0
    ok = (worst_prime <= 1.0 + 1e-9 and worst_ddot <= 1e-6
          and worst_mass <= 1e-8 and dt < 30.0)
    _report(3, ok, f"4 moduli x n in (1, 5, 20): max|psi'| "
                   f"{worst_prime:.12g} (tol 1+1e-9), curvature slack "
                   f"{worst_ddot:.3g} (tol 1e-6), gap-mass rel err "
                   f"{worst_mass:.3g} (tol 1e-8), {dt:.2f}s (budget 30s)")
    assert worst_prime <= 1.0 + 1e-9
    assert worst_ddot <= 1e-6
    assert worst_mass <= 1e-8
    assert dt < 30.0


# ---------------------------------------------------------------------------
# 4 — the support sequence has its closed form for the identity modulus
# ---------------------------------------------------------------------------

def test_criterion_04_identity_support_sequence():
    a = a_sequence(builtin_modulus("identity"), 6)
    worst = max(abs(a[n] - math.exp(-n * (n + 1) / 2.0))
                / math.exp(-n * (n + 1) / 2.0) for n in range(7))
    ok = worst <= 1e-9
    _report(4, ok, f"a_n vs exp(-n(n+1)/2) for n <= 6: worst rel err "
                   f"{worst:.3g} (tol 1e-9)")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 5 — the pairwise-comparison constants are exact
# ---------------------------------------------------------------------------

def test_criterion_05_exact_constants():
    ps = (p_alpha(0.0), p_alpha(1.0), p_alpha(2.0))
    c = nonconfluence_constants(1.0, 1.0, 1.0)
    ok = (ps == (2.0, 8.0, 19.0)
          and (c.K, c.K_prime, c.K1, c.K2) == (3.0, 2.0, 5.0, 7.0))
    _report(5, ok, f"p(0,1,2)={ps} (want (2, 8, 19)); "
                   f"(K, K', K1, K2)={(c.K, c.K_prime, c.K1, c.K2)} "
                   "(want (3, 2, 5, 7))")
    assert ps == (2.0, 8.0, 19.0)
    assert (c.K, c.K_prime, c.K1, c.K2) == (3.0, 2.0, 5.0, 7.0)


# ---------------------------------------------------------------------------
# 6 — the Taylor-remainder inequality holds on an admissible grid
# ---------------------------------------------------------------------------

def test_criterion_06_remainder_inequality_grid():
    xs = np.concatenate([np.linspace(-5.0, -0.05, 50),
                         np.linspace(0.05, 5.0, 50)])
    ts = np.linspace(0.2, 4.0, 100)
    x = np.repeat(xs, ts.size)
    y = np.tile(ts, xs.size) * x
    samples = np.column_stack([x, y])
    worst = -math.inf
    for alpha, delta in ((0.5, 0.5), (1.0, 1.0), (2.0, 0.5)):
        worst = max(worst, r_inequality_check(alpha, delta, samples))
    ok = worst <= 1e-12
    _report(6, ok, f"{samples.shape[0]} admissible pairs x 3 (alpha, delta) "
                   f"combos: worst slack {worst:.3g} (tol 1e-12)")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 7 — the constant envelope reproduces its closed forms
# ---------------------------------------------------------------------------

def test_criterion_07_constant_envelope_closed_forms():
    one = builtin_growth("one")
    xs = np.linspace(0.0, 100.0, 201)
    phis = np.array([phi_growth(one, float(x)) for x in xs])
    worst = float(np.max(np.abs(phis - (1.0 + xs)) / (1.0 + xs)))
    bound = moment_bound(one, 1.0, 0.0, 1.0, 1.0)
    bound_err = abs(bound - 2.0 * math.e) / (2.0 * math.e)
    ok = worst <= 1e-9 and bound_err <= 1e-9
    _report(7, ok, f"phi vs 1+x on [0,100]: worst rel err {worst:.3g}; "
                   f"moment bound {bound:.12g} vs 2e rel err "
                   f"{bound_err:.3g} (tol 1e-9)")
    assert worst <= 1e-9
    assert bound_err <= 1e-9


# ---------------------------------------------------------------------------
# 8 — the verifier catches broken inputs and clears the presets
# ---------------------------------------------------------------------------

def _violated_with_reconfirmed(report, name=None):
    for c in report.conditions:
        if c.verdict == VIOLATED and (name is None or c.name == name):
            if c.worst is not None and c.worst.get("reconfirmed") is True:
                return True
    return False


def test_criterion_08_verifier_adversarial_suite():
    t0 = time.perf_counter()
    grid = PairGrid(anchors=np.linspace(-3.0, 3.0, 31),
                    gaps=np.geomspace(1e-5, 1.0, 41), label="adversarial")

    sqrt_mod = Modulus(lambda r: np.sqrt(np.asarray(r, dtype=float)),
                       domain_hint=np.inf, label="sqrt")
    rep_a = check_modulus(sqrt_mod)

    cubic = CoefficientSet(b=lambda x: np.asarray(x, dtype=float) ** 3,
                           sigma=_zeros, c1=None, c2=None, nu1=None,
                           nu2=None, label="cubic")
    rep_b = check_growth(cubic, builtin_growth("one"), mu=1.0)

    anti = CoefficientSet(
        b=_zeros, sigma=_zeros,
        c1=lambda x, u: -np.asarray(x, dtype=float)
        * np.ones_like(np.asarray(u, dtype=float)),
        c2=None, nu1=lebesgue(0.0, 1.0), nu2=None, label="anti-monotone")
    rep_c = check_corollary_conditions(
        anti, builtin_modulus("identity"), builtin_modulus("identity"),
        delta0=1.0, grid=grid)

    annihilating = CoefficientSet(
        b=_zeros, sigma=_zeros,
        c1=lambda x, u: -np.asarray(x, dtype=float)
        * np.ones_like(np.asarray(u, dtype=float)),
        c2=None, nu1=lebesgue(-1.0, 1.0), nu2=None, label="annihilating")
    rep_d = check_nonconfluence_conditions(
        annihilating, builtin_modulus("identity"), alpha=0.0, delta=0.5,
        grid=grid,
        affine_k=lambda u: -np.ones_like(np.asarray(u, dtype=float)))

    adversarial_ok = (
        rep_a.verdict == VIOLATED and _violated_with_reconfirmed(rep_a)
        and rep_b.verdict == VIOLATED
        and _violated_with_reconfirmed(rep_b, "growth_bound")
        and rep_c.verdict == VIOLATED
        and _violated_with_reconfirmed(rep_c, "c1_monotone_in_state")
        and rep_d.verdict == VIOLATED
        and _violated_with_reconfirmed(rep_d, "jump_separation"))

    preset_verdicts = {}
    for name in ("example_31", "example_41"):
        reports = designated_checks(preset(name))
        preset_verdicts[name] = [r.verdict for r in reports]
    presets_ok = all(v == NO_VIOLATION
                     for vs in preset_verdicts.values() for v in vs)

    dt = time.perf_counter() - t0
    ok = adversarial_ok and presets_ok and dt < 60.0
    _report(8, ok, f"4 broken inputs violated with reconfirmed witnesses: "
                   f"{adversarial_ok}; designated preset verdicts "
                   f"{preset_verdicts}; {dt:.2f}s (budget 60s)")
    assert adversarial_ok
    assert presets_ok
    assert dt < 60.0


# ---------------------------------------------------------------------------
# 9 — the noise sampler has the advertised statistics
# ---------------------------------------------------------------------------

def test_criterion_09_noise_statistics():
    model = preset("example_41")
    n_paths = 10_000
    counts = np.empty(n_paths)
    terminal_b = np.empty(n_paths)
    for i in range(n_paths):
        noise = sample_noise(model, 1.0, 2.0 ** -4,
                             derive_path_seed(DEFAULT_SEED, i))
        counts[i] = len(noise.events_from(LARGE))
        terminal_b[i] = float(np.sum(noise.union_increments))
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(n_paths))
    mass = model.nu2.total_mass          # expected events per unit time
    z = abs(mean - mass) / se
    var = float(terminal_b.var(ddof=1))

    a = sample_noise(model, 1.0, 2.0 ** -4, derive_path_seed(DEFAULT_SEED, 3))
    b = sample_noise(model, 1.0, 2.0 ** -4, derive_path_seed(DEFAULT_SEED, 3))
    exact = (np.array_equal(a.union_times, b.union_times)
             and np.array_equal(a.union_increments, b.union_increments)
             and np.array_equal(a.events, b.events))

    ok = z <= 5.0 and abs(var - 1.0) <= 0.1 and exact
    _report(9, ok, f"large-jump count mean {mean:.4f} vs {mass:g} "
                   f"(z={z:.2f}, limit 5); terminal Brownian variance "
                   f"{var:.4f} (10% band around 1); bit-exact resample: "
                   f"{exact}")
    assert z <= 5.0
    assert abs(var - 1.0) <= 0.1
    assert exact


# ---------------------------------------------------------------------------
# 10 — the pathwise chain-rule residual halves with the step
# ---------------------------------------------------------------------------

def test_criterion_10_chain_rule_residual_halves():
    model = preset("example_41")
    f = (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
    sups = {2.0 ** -8: [], 2.0 ** -9: []}
    fine = [sample_noise(model, 1.0, 2.0 ** -9,
                         derive_path_seed(DEFAULT_SEED, i))
            for i in range(100)]
    for h, noises in ((2.0 ** -9, fine),
                      (2.0 ** -8, [noise.coarsen(2) for noise in fine])):
        scheme = SchemeConfig(base_step=h, taming="drift_tamed")
        for path, noise in zip(simulate_paths(model, noises, scheme, 1.0),
                               noises):
            y = ito_levy_apply(f, path, model, noise, scheme)
            sups[h].append(float(np.max(np.abs(y.states
                                               - path.states ** 2))))
    m_coarse = float(np.mean(sups[2.0 ** -8]))
    m_fine = float(np.mean(sups[2.0 ** -9]))
    ratio = m_coarse / m_fine
    ok = 1.4 <= ratio <= 2.6
    _report(10, ok, f"mean sup residual {m_coarse:.4g} (h=2^-8) / "
                    f"{m_fine:.4g} (h=2^-9) = {ratio:.4f} "
                    "(halving window [1.4, 2.6], 100 paths)")
    assert 1.4 <= ratio <= 2.6


# ---------------------------------------------------------------------------
# 11 — exit frequencies fall with the radius and obey the moment bound
# ---------------------------------------------------------------------------

def test_criterion_11_explosion_frequencies_and_bound():
    t0 = time.perf_counter()
    s = run_explosion(ExperimentConfig(model="example_31", paths=10_000,
                                       step_ladder=(2.0 ** -8,), x0=1.0,
                                       radius_ladder=(10.0, 50.0, 250.0)))
    freqs = [row["exceedance_frequency"] for row in s.ladder]
    nonincreasing = all(a >= b for a, b in zip(freqs, freqs[1:]))

    toy = CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c1=None, c2=None, nu1=None, nu2=None, label="toy_ou")
    s2 = run_explosion(ExperimentConfig(model=toy, paths=10_000,
                                        step_ladder=(2.0 ** -8,), x0=1.0,
                                        radius_ladder=(10.0, 50.0, 250.0)))
    row = s2.extras["bound_row"]
    toy_ok = (row["satisfied_within_3se"] is True
              and abs(row["mu"] - 1.0) < 1e-6
              and abs(row["bound"] - 2.0 * math.e) < 1e-6)

    dt = time.perf_counter() - t0
    ok = nonincreasing and freqs[-1] <= 1e-3 and toy_ok and dt < 120.0
    _report(11, ok, f"frequencies {['%.5f' % f for f in freqs]} "
                    f"nonincreasing={nonincreasing}, largest radius "
                    f"{freqs[-1]:.5f} <= 1e-3; control bound row "
                    f"mc={row['mc_mean']:.4f} bound={row['bound']:.4f} "
                    f"within 3 se: {row['satisfied_within_3se']}; "
                    f"{dt:.1f}s (budget 120s)")
    assert nonincreasing
    assert freqs[-1] <= 1e-3
    assert toy_ok
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 12 — resolution coupling: gaps decay, classical rate on a Lipschitz model
# ---------------------------------------------------------------------------

def test_criterion_12_resolution_gap_decay():
    s = run_uniqueness(ExperimentConfig(model="example_31", paths=1000,
                                        x0=1.0, alpha=1.0))
    decreasing = s.extras["strictly_decreasing"]

    lipschitz = CoefficientSet(
        b=lambda x: -np.asarray(x, dtype=float),
        sigma=lambda x: np.asarray(x, dtype=float),
        c1=None, c2=None, nu1=None, nu2=None, label="lipschitz_linear")
    s2 = run_uniqueness(ExperimentConfig(model=lipschitz, paths=1000,
                                         x0=1.0, alpha=2.0))
    slope = s2.extras["slope"]

    ok = decreasing and slope >= 0.8
    _report(12, ok, f"mean terminal gaps strictly decreasing: {decreasing} "
                    f"(fitted slope {s.extras['slope']:.4f}); Lipschitz "
                    f"control slope {slope:.4f} (floor 0.8)")
    assert decreasing
    assert slope >= 0.8


# ---------------------------------------------------------------------------
# 13 — paths started apart stay apart
# ---------------------------------------------------------------------------

def test_criterion_13_paths_stay_apart():
    control = run_nonconfluence(ExperimentConfig(
        model=CoefficientSet(
            b=lambda x: -np.asarray(x, dtype=float),
            sigma=_zeros, c1=None, c2=None, nu1=None, nu2=None,
            label="contraction"),
        paths=8, step_ladder=(2.0 ** -8,), x0=0.0, y0=1.0,
        modulus="identity", alpha=1.0))
    control_gap = control.extras["min_distance"]
    control_ok = abs(control_gap - math.exp(-1.0)) < 1e-2

    s = run_nonconfluence(ExperimentConfig(model="example_41", paths=1000,
                                           step_ladder=(2.0 ** -8,),
                                           x0=0.0, y0=1.0, alpha=0.0))
    row = next(r for r in s.ladder if r["epsilon"] == 1e-6)
    n_below = round(row["fraction_below"] * row["n"])
    ok = control_ok and n_below == 0
    _report(13, ok, f"control min gap {control_gap:.6f} vs e^-1 "
                    f"(diff {abs(control_gap - math.exp(-1.0)):.2e}, "
                    f"tol 1e-2): {control_ok}; cube-root preset "
                    f"{n_below}/{row['n']} paths fell below 1e-6 "
                    f"(min distance {s.extras['min_distance']:.3e}, "
                    "requirement: zero)")
    assert control_ok
    # requirement: no discrete path may approach its twin below 1e-6; the
    # cube-root preset's oscillation band around the absorbing zero state
    # contracts neighboring paths geometrically, so some do
    assert n_below == 0, (
        f"{n_below} of {row['n']} coupled paths fell below the 1e-6 "
        "proximity line; the discrete dynamics near the zero state "
        "contract differences instead of preserving them"
    )


def test_cube_root_merging_grows_as_the_step_refines():
    # refinement evidence on criterion 13: at the criterion's own setting a
    # finer base step puts more coupled paths below 1e-6, so refining the
    # scheme does not remove the merging the criterion forbids
    def n_below(h):
        s = run_nonconfluence(ExperimentConfig(model="example_41", paths=1000,
                                               step_ladder=(h,), x0=0.0,
                                               y0=1.0, alpha=0.0))
        row = next(r for r in s.ladder if r["epsilon"] == 1e-6)
        return round(row["fraction_below"] * row["n"])

    coarse, fine = n_below(2.0 ** -8), n_below(2.0 ** -10)
    assert fine > coarse, (f"paths below 1e-6: {coarse} at h = 2^-8, "
                           f"{fine} at h = 2^-10")


# ---------------------------------------------------------------------------
# 14 — the same configuration reproduces its data byte for byte
# ---------------------------------------------------------------------------

def test_criterion_14_rerun_byte_identity(tmp_path):
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        run_experiment("uniqueness", ExperimentConfig(
            model="example_41", paths=4, x0=1.0, alpha=1.0,
            step_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
            output_dir=out))
        blobs.append(((out / "data.csv").read_bytes(),
                      (out / "summary.json").read_bytes()))
    data_same = blobs[0][0] == blobs[1][0]
    summary_same = blobs[0][1] == blobs[1][1]
    ok = data_same and summary_same
    _report(14, ok, f"two runs of one configuration: data.csv identical "
                    f"{data_same} ({len(blobs[0][0])} bytes), summary.json "
                    f"identical {summary_same}")
    assert data_same
    assert summary_same


# ---------------------------------------------------------------------------
# evidence table — each designated verdict against the Monte Carlo trend it
# predicts.  An Euler trend stands for the exact dynamics only where Euler
# converges, so each row's docstring names the result it leans on.  Rows not
# run here: A25 on example_31 is criterion 12 above; A26 on example_41 waits
# for a sound near-diagonal check, since its count of coupled paths below
# 1e-6 rises as the step refines
# (test_cube_root_merging_grows_as_the_step_refines).
# ---------------------------------------------------------------------------

_EVIDENCE_SEED = 7


def _moment_bound_holds(label, envelope):
    # A23's moment bound against the explosion run's Monte Carlo mean of
    # phi(X_T^2) at two base steps, under the designated envelope and mu
    holds, detail = True, []
    for k in (6, 8):
        s = run_explosion(ExperimentConfig(
            model=label, paths=1000, step_ladder=(2.0 ** -k,),
            master_seed=_EVIDENCE_SEED))
        row = s.extras["bound_row"]
        assert row["growth"] == envelope
        holds &= row["satisfied_within_3se"] is True
        detail.append(f"h=2^-{k}: mc {row['mc_mean']:.3f} +- "
                      f"{row['mc_se']:.3f} vs bound {row['bound']:.2f}")
    return holds, "; ".join(detail)


def _evidence_a23_example_31():
    """A23 growth on example_31 (envelope ``log``): the moment bound holds
    at every step.  Leans on Gyöngy & Rásonyi 2011 (SPA 121): Euler
    converges strongly with a 1/2-Hölder diffusion such as ``sqrt|x|``."""
    return _moment_bound_holds("example_31", "log")


def _evidence_a23_example_41():
    """A23 growth on example_41 (envelope ``one``): the moment bound holds
    at every step.  Leans on Higham, Mao & Stuart 2002 (SIAM J. Numer.
    Anal. 40): Euler converges strongly under locally Lipschitz
    coefficients with bounded moments, which A23 supplies; the cube-root
    drift term, only Hölder at 0, is the case Gyöngy & Rásonyi 2011 add."""
    return _moment_bound_holds("example_41", "one")


def _evidence_a24_example_41():
    """A24 local uniqueness on example_41: the mean terminal gap to the
    finest level falls strictly as the step refines.  Leans on Gyöngy &
    Rásonyi 2011 (SPA 121): Euler converges strongly when the drift is a
    Lipschitz part plus a decreasing Hölder one, like ``-cbrt(x)``."""
    s = run_uniqueness(ExperimentConfig(model="example_41", paths=1000,
                                        master_seed=_EVIDENCE_SEED))
    gaps = [f"{r['mean_gap_pow_alpha']:.4f}" for r in s.ladder]
    return s.extras["strictly_decreasing"], f"mean terminal gaps {gaps}"


# row -> (preset, designated assumption, evidence)
EVIDENCE_ROWS = {
    "A23_example_31": ("example_31", "A23", _evidence_a23_example_31),
    "A23_example_41": ("example_41", "A23", _evidence_a23_example_41),
    "A24_example_41": ("example_41", "A24", _evidence_a24_example_41),
}


@pytest.mark.parametrize("row", sorted(EVIDENCE_ROWS))
def test_evidence_table(row):
    label, assumption, evidence = EVIDENCE_ROWS[row]
    check, params = designated_sets(label)[assumption]
    verdict = check(preset(label), **params).verdict
    agrees, detail = evidence()
    ok = verdict == NO_VIOLATION and agrees
    print(f"[evidence {row}] {'PASS' if ok else 'FAIL'} — designated "
          f"{assumption} {verdict}; {detail}")
    assert verdict == NO_VIOLATION
    assert agrees, detail
