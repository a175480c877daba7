"""End-to-end command-line tests driven in process through ``cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jsde_lab import cli, harness, model, verifier
from jsde_lab.noise import derive_path_seed


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# help and argument plumbing
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "simulate" in out and "verify" in out
    assert "bound" in out and "experiment" in out
    assert "configuration keys:" in out


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_preset_exits_one(capsys):
    assert cli.main(["simulate", "--preset", "example_99"]) == 1
    err = capsys.readouterr().err
    assert "example_99" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_linear_gronwall(capsys):
    rc = cli.main(["bound", "--modulus", "identity",
                   "--f", "2", "--g", "1", "--t", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(2.0 * 2.718281828459045, rel=1e-12)
    assert len(out.replace(".", "").replace("-", "")) >= 15   # 17 sig digits


def test_bound_moment(capsys):
    rc = cli.main(["bound", "--growth", "one", "--mu", "1",
                   "--m", "0", "--x0sq", "1", "--t", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(2.0 * 2.718281828459045, rel=1e-12)


def test_bound_scaled_modulus(capsys):
    # rho = 2 * identity doubles the effective rate
    rc = cli.main(["bound", "--modulus", "2*identity",
                   "--f", "1", "--g", "1", "--t", "1"])
    assert rc == 0
    base = float(capsys.readouterr().out.strip())
    assert base == pytest.approx(7.38905609893065, rel=1e-10)   # e^2


@pytest.mark.parametrize("argv", [
    ["bound"],                                              # neither mode
    ["bound", "--modulus", "identity", "--growth", "one",
     "--f", "1", "--g", "1", "--mu", "1"],                  # both modes
    ["bound", "--modulus", "identity", "--f", "1"],         # missing --g
    ["bound", "--growth", "one"],                           # missing --mu
    ["bound", "--modulus", "identity", "--f", "1", "--g", "1",
     "--t", "-1"],                                          # negative time
])
def test_bound_usage_errors(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("x0sq", ["nan", "inf"])
def test_bound_non_finite_second_moment_exits_one(x0sq, capsys):
    rc = cli.main(["bound", "--growth", "log", "--mu", "1",
                   "--x0sq", x0sq])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "second_moment_x0" in captured.err


@pytest.mark.parametrize("argv", [
    ["--modulus", "identity", "--f", "1", "--g", "nan"],
    ["--modulus", "identity", "--f", "nan", "--g", "1"],
    ["--modulus", "identity", "--f", "inf", "--g", "1"],
    ["--modulus", "identity", "--f", "1", "--g", "1", "--t", "inf"],
    ["--modulus", "x_log_log", "--f", "1", "--g", "1", "--t", "inf"],
])
def test_bound_non_finite_gronwall_input_exits_one(argv, capsys):
    assert cli.main(["bound"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be finite" in captured.err


# ---------------------------------------------------------------------------
# scipy is imported on first use, not with the package
# ---------------------------------------------------------------------------

def _last_line_in_fresh_process(code, **env):
    """The last stdout line of ``code`` run by a fresh interpreter on the
    package sources, with ``env`` over this process's environment (None
    unsets a variable)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for key, value in env.items():
        child.pop(key, None)
        if value is not None:
            child[key] = value
    out = subprocess.run([sys.executable, "-c", code], env=child, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def _scipy_modules_after(code):
    return _last_line_in_fresh_process(
        code + "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")


def test_import_and_model_building_leave_scipy_unloaded():
    code = ("import jsde_lab, jsde_lab.cli\n"
            "from jsde_lab.harness import ExperimentConfig\n"
            "from jsde_lab.model import preset\n"
            "preset('example_31'), preset('example_41')\n"
            "ExperimentConfig(model='example_31')")
    assert _scipy_modules_after(code) == "[]"


def test_moment_bound_leaves_scipy_unloaded():
    code = ("from jsde_lab import cli\n"
            "assert cli.main(['bound', '--growth', 'log', '--mu', '1']) == 0")
    assert _scipy_modules_after(code) == "[]"


def test_atoms_only_witness_reconfirmation_leaves_scipy_unloaded():
    # the Simpson rule of the scalar path is imported only for a density
    code = ("from jsde_lab import cli\n"
            "sets = ['model.b=-x', 'model.sigma=0.5', 'model.c2=x',\n"
            "        'model.nu2=atoms(0.5:1)', 'model.u3=0:2',\n"
            "        'analysis.rho1=identity', 'analysis.rho2=identity']\n"
            "argv = ['verify', '--check', 'corollary']\n"
            "for kv in sets:\n"
            "    argv += ['--set', kv]\n"
            "assert cli.main(argv) == 2")
    assert _scipy_modules_after(code) == "[]"


def test_verify_presets_leave_scipy_unloaded():
    # lebesgue masses are closed-form, so A26's window masses need no quad
    code = ("from jsde_lab import cli\n"
            "for name in ('example_31', 'example_41'):\n"
            "    assert cli.main(['verify', '--preset', name]) == 0")
    assert _scipy_modules_after(code) == "[]"


# ---------------------------------------------------------------------------
# numpy loads with one OpenBLAS thread unless the caller chose a count
# ---------------------------------------------------------------------------

_OPENBLAS_PROBE = ("import os, jsde_lab, jsde_lab.cli\n"
                   "print(os.environ['OPENBLAS_NUM_THREADS'],"
                   " len(os.listdir('/proc/self/task'))"
                   " if os.path.isdir('/proc/self/task') else -1)")


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")])
def test_openblas_thread_count_defaults_to_one_and_keeps_the_callers(
        caller, expected):
    value, _ = _last_line_in_fresh_process(
        _OPENBLAS_PROBE, OPENBLAS_NUM_THREADS=caller).split()
    assert value == expected


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts no worker thread on one CPU, "
                           "and /proc/self/task is Linux's")
def test_package_import_leaves_one_thread():
    # OpenBLAS would start one busy-waiting worker per further CPU
    _, threads = _last_line_in_fresh_process(
        _OPENBLAS_PROBE, OPENBLAS_NUM_THREADS=None).split()
    assert threads == "1"


# ---------------------------------------------------------------------------
# the package loads a module the first time one of its names is read
# ---------------------------------------------------------------------------

def _loaded_after(code):
    """The ``jsde_lab`` submodules loaded in a fresh process after ``code``,
    and whether numpy is."""
    return _last_line_in_fresh_process(
        code + "\nimport sys\n"
        "print(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "             if m.startswith('jsde_lab.')), 'numpy' in sys.modules)")


_VERIFY = ("import contextlib, io\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert jsde_lab.cli.main(['verify', '--preset', {!r}]) == 0")


def test_package_import_loads_no_submodule():
    assert _loaded_after("import jsde_lab") == "[] False"


@pytest.mark.parametrize("preset", ["example_31", "example_41"])
def test_verify_loads_only_the_config_and_checker_modules(preset):
    assert _loaded_after("import jsde_lab.cli\n" + _VERIFY.format(preset)) \
        == "['cli', 'config', 'errors', 'exprs', 'model', 'verifier'] True"


def _experiment_setup(preset, tmp_path, **kw):
    return ("import jsde_lab\n"
            f"config = jsde_lab.ExperimentConfig(\n"
            f"    model=jsde_lab.preset({preset!r}), paths=4,\n"
            f"    output_dir={str(tmp_path)!r}, **{kw!r})")


@pytest.mark.parametrize("workload", ["verify_31", "verify_41", "explosion",
                                      "uniqueness"])
def test_a_first_call_after_set_up_loads_no_module(workload, tmp_path):
    # the benchmark's set-up loads what its timed calls use
    setup, call = {
        "verify_31": ("import jsde_lab.cli", _VERIFY.format("example_31")),
        "verify_41": ("import jsde_lab.cli", _VERIFY.format("example_41")),
        "explosion": (_experiment_setup(
            "example_31", tmp_path, step_ladder=(2.0 ** -6,)),
            "jsde_lab.harness.run_explosion(config)"),
        "uniqueness": (_experiment_setup(
            "example_41", tmp_path, taming="drift_tamed", alpha=1.0,
            step_ladder=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6)),
            "jsde_lab.harness.run_uniqueness(config)"),
    }[workload]
    code = (f"{setup}\nimport sys\nbefore = set(sys.modules)\n{call}\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith('jsde_lab')))")
    assert _last_line_in_fresh_process(code) == "[]"


def test_public_names_resolve():
    # a name deleted from a module but left in the exports fails here, in a
    # fresh process so that every name is read through the lazy lookup
    code = """
import importlib, jsde_lab
names = jsde_lab.__all__
assert names == sorted(set(names))
star = {}
exec("from jsde_lab import *", star)
assert set(star) - {"__builtins__"} == set(names)
for module, exported in jsde_lab._EXPORTS.items():
    defining = importlib.import_module("jsde_lab." + module)
    for name in exported:
        value = getattr(jsde_lab, name)
        assert value is getattr(defining, name) is star[name], name
        assert getattr(value, "__module__", defining.__name__) \\
            == defining.__name__, name
        assert name in dir(jsde_lab), name
for missing in ("no_such_name", "gauss_legendre"):
    try:
        getattr(jsde_lab, missing)
    except AttributeError as exc:
        assert repr(missing) in str(exc)
    else:
        raise AssertionError(missing)
print(len(names))
"""
    assert _last_line_in_fresh_process(code) == "73"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_designated_log_drift(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--preset", "example_31",
                   "--output-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "A23" in stdout and "A25" in stdout
    assert "no_violation_found" in stdout
    data = json.loads((out / "report.json").read_text())
    assert [r["assumption_id"] for r in data] == ["A23", "A25"]


def test_verify_single_assumption_designated(tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--preset", "example_31",
                   "--assumption", "A25", "--output-dir", str(out)])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert [r["assumption_id"] for r in data] == ["A25"]
    assert data[0]["verdict"] == "no_violation_found"


def test_verify_assumption_generic_fallback(tmp_path):
    # A22 is not in the designated set; it falls back to the modulus checker
    # and therefore needs analysis.modulus
    rc = cli.main(["verify", "--preset", "example_31",
                   "--assumption", "A22"])
    assert rc == 1
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--preset", "example_31",
                   "--assumption", "A22",
                   "--set", "analysis.modulus=neg_x_log_x",
                   "--output-dir", str(out)])
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    assert [r["assumption_id"] for r in data] == ["A22"]


def test_verify_violation_exits_two(tmp_path, capsys):
    cfgfile = _write(tmp_path, """
[model]
b = x^3
sigma = 0

[analysis]
growth = one
mu = 1
""")
    rc = cli.main(["verify", "--config", cfgfile, "--check", "growth"])
    assert rc == 2
    assert "violated" in capsys.readouterr().out


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_assumption_runs_only_the_requested_designated_set(
        monkeypatch, capsys):
    local = _count_calls(monkeypatch, verifier, "check_local_conditions")
    nonconf = _count_calls(monkeypatch, verifier,
                           "check_nonconfluence_conditions")
    growth = _count_calls(monkeypatch, verifier, "check_growth")
    rc = cli.main(["verify", "--preset", "example_41", "--assumption", "A23"])
    assert rc == 0
    assert (len(growth), len(local), len(nonconf)) == (1, 0, 0)
    assert "A23:growth_bound" in capsys.readouterr().out
    assert cli.main(["verify", "--preset", "example_41",
                     "--assumption", "A26"]) == 0
    assert (len(growth), len(local), len(nonconf)) == (1, 0, 1)


def test_verify_corollary_with_state_free_c1_exits_zero(tmp_path, capsys):
    cfgfile = _write(tmp_path, """
[model]
b = -x
sigma = 0.5
c1 = u
nu1 = lebesgue(-1, 1)
""")
    rc = cli.main(["verify", "--config", cfgfile, "--check", "corollary",
                   "--set", "analysis.rho1=identity",
                   "--set", "analysis.rho2=identity",
                   "--set", "analysis.delta0=1"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[4].split()[:2] == ["A25:c1_monotone_in_state",
                                   "no_violation_found"]


def test_verify_nan_slack_exits_three(monkeypatch, capsys):
    # example_41 with a drift that is nan past x = 3: its designated A26
    # drift condition has nothing to judge at (3.1, 3.099999)
    base = model.preset_example_41()

    def nan_drift_example_41():
        return model.CoefficientSet(
            b=lambda x: np.where(x > 3.0, np.nan, base.b(x)),
            sigma=base.sigma, c1=base.c1, c2=base.c2, nu1=base.nu1,
            nu2=base.nu2, u3=(), label=base.label, c1_mean=base.c1_mean)

    monkeypatch.setitem(model.PRESET_CATALOG, "example_41",
                        nan_drift_example_41)
    assert cli.main(["verify", "--preset", "example_41",
                     "--assumption", "A26"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical domain error: condition drift_global "
                            "has a NaN slack at x = 3.1\n")


def test_verify_nan_separation_margin_exits_three(monkeypatch, capsys):
    # example_41's designated A26 with a jump factor that is nan past
    # mark 0.5: the separation scan has nothing to judge at 0.502
    designated_sets = cli.designated_sets

    def nan_margin_sets(label):
        sets = designated_sets(label)
        check, params = sets["A26"]
        sets["A26"] = (check, dict(params, affine_k=lambda u: np.where(
            u > 0.5, np.nan, model.GAMMA * np.abs(u))))
        return sets

    monkeypatch.setattr(cli, "designated_sets", nan_margin_sets)
    assert cli.main(["verify", "--preset", "example_41",
                     "--assumption", "A26"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical domain error: condition "
                            "jump_separation has a NaN slack at mark = "
                            "0.502\n")


def test_verify_into_an_unusable_output_dir_exits_before_checking(
        tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "report"
    not_a_dir.write_text("")

    def unreached(model):
        raise AssertionError("checks ran")

    monkeypatch.setattr(cli, "designated_checks", unreached)
    assert cli.main(["verify", "--preset", "example_31",
                     "--output-dir", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 17] File exists")


def test_verify_needs_model(capsys):
    assert cli.main(["verify"]) == 1
    assert "no model configured" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_paths_and_noise(tmp_path, capsys):
    out = tmp_path / "paths"
    rc = cli.main(["simulate", "--preset", "example_41", "--seed", "7",
                   "--paths", "2", "--dump-noise",
                   "--output-dir", str(out),
                   "--set", "scheme.h=2^-5"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "path 0: seed=" in stdout and "path 1: seed=" in stdout
    for name in ("path_0000.csv", "path_0001.csv",
                 "noise_0000.csv", "noise_0001.csv"):
        assert (out / name).exists()
    lines = (out / "path_0000.csv").read_text().splitlines()
    assert lines[0].startswith("# model=example_41")
    assert lines[1].startswith("time,state")


def test_simulate_numerical_domain_error_exits_three(tmp_path, capsys):
    cfgfile = _write(tmp_path, """
[model]
b = ln(x)
sigma = 0

[experiment]
x0 = -1
""")
    rc = cli.main(["simulate", "--config", cfgfile, "--seed", "7"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical domain error" in err
    assert f"path 0, seed {derive_path_seed(7, 0)}, t = 0.0" in err
    assert "base step = 0.00390625" in err


def test_simulate_huge_jump_rate_exits_one(tmp_path, capsys):
    cfgfile = _write(tmp_path, """
[model]
b = -x
sigma = 0.5
c1 = u
nu1 = lebesgue(1, 1e308)
""")
    assert cli.main(["simulate", "--config", cfgfile, "--paths", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: jump measure nu1 ")
    assert "rate x horizon = 1e+308" in err


def test_simulate_event_count_beyond_the_cap_exits_one(tmp_path, capsys):
    # 1e15 expected events: numpy draws the count, but its array would not
    # fit in memory
    cfgfile = _write(tmp_path, """
[model]
b = -x
sigma = 0.5
c1 = u
nu1 = lebesgue(1, 1e15)
""")
    assert cli.main(["simulate", "--config", cfgfile, "--paths", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: jump measure nu1 ")
    assert "rate x horizon = 1e+15 is too large" in err


def test_simulate_malformed_config_exits_one(tmp_path, capsys):
    cfgfile = _write(tmp_path, "[model\nb = x\n")
    assert cli.main(["simulate", "--config", cfgfile]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_simulate_unknown_key_suggestion(tmp_path, capsys):
    cfgfile = _write(tmp_path, "[model]\npreset = example_41\n\n[scheme]\nhh = 2^-4\n")
    assert cli.main(["simulate", "--config", cfgfile]) == 1
    assert "did you mean" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _uniq_args(outdir=None, extra=()):
    argv = ["experiment", "--kind", "uniqueness", "--preset", "example_41",
            "--set", "experiment.N=4",
            "--set", "experiment.steps=2^-3, 2^-4, 2^-5"]
    if outdir is not None:
        argv += ["--output-dir", str(outdir)]
    argv += list(extra)
    return argv


def test_experiment_into_an_unusable_output_dir_exits_before_running(
        tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "uq"
    not_a_dir.write_text("")

    def unreached(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(harness.RUNNERS, "uniqueness", unreached)
    assert cli.main(_uniq_args(not_a_dir)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 17] File exists")


def test_experiment_uniqueness_summary(tmp_path, capsys):
    out = tmp_path / "uq"
    rc = cli.main(_uniq_args(out))
    assert rc == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[:stdout.rindex("}") + 1])
    assert payload["kind"] == "uniqueness"
    assert payload["strictly_decreasing"] is True
    assert (out / "summary.json").exists()
    assert (out / "data.csv").exists()


def test_experiment_rerun_is_byte_identical(tmp_path):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert cli.main(_uniq_args(out)) == 0
        blobs.append(((out / "data.csv").read_bytes(),
                      (out / "summary.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_experiment_precheck_violation_exits_two(tmp_path, capsys):
    # an explicit (growth, mu) pins the bound; without one the harness
    # calibrates an admissible mu and the cubic drift slips through
    cfgfile = _write(tmp_path, """
[model]
b = x^3
sigma = 0

[experiment]
kind = explosion
N = 5

[analysis]
growth = one
mu = 1
""")
    rc = cli.main(["experiment", "--config", cfgfile])
    assert rc == 2
    err = capsys.readouterr().err
    assert "condition check failed" in err
    assert "A23" in err

    rc = cli.main(["experiment", "--config", cfgfile,
                   "--set", "experiment.skip_checks=true",
                   "--set", "experiment.radii=10, 50"])
    assert rc == 0


def test_experiment_budget_cap_exits_one(capsys):
    rc = cli.main(_uniq_args(extra=["--set", "experiment.budget_cap=10"]))
    assert rc == 1
    assert "exceeds budget_cap" in capsys.readouterr().err


def test_simulate_over_budget_exits_one(capsys):
    # 10^12 grid steps: refused before any seed or array is made
    rc = cli.main(["simulate", "--preset", "example_31",
                   "--set", "scheme.h=1e-12"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simulate: 1 paths x")
    assert "exceeds budget_cap" in err


def test_experiment_needs_kind(capsys):
    rc = cli.main(["experiment", "--preset", "example_41"])
    assert rc == 1
    assert "no experiment kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed precedence
# ---------------------------------------------------------------------------

def _first_seed(capsys):
    line = capsys.readouterr().out.splitlines()[0]
    return int(line.split("seed=")[1].split()[0])


def test_seed_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("JSDE_LAB_SEED", "42")
    rc = cli.main(["simulate", "--preset", "example_41",
                   "--set", "scheme.h=2^-3"])
    assert rc == 0
    assert _first_seed(capsys) == derive_path_seed(42, 0)


def test_seed_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("JSDE_LAB_SEED", "42")
    rc = cli.main(["simulate", "--preset", "example_41", "--seed", "7",
                   "--set", "scheme.h=2^-3"])
    assert rc == 0
    assert _first_seed(capsys) == derive_path_seed(7, 0)


def test_seed_config_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("JSDE_LAB_SEED", "42")
    rc = cli.main(["simulate", "--preset", "example_41",
                   "--set", "noise.seed=5", "--set", "scheme.h=2^-3"])
    assert rc == 0
    assert _first_seed(capsys) == derive_path_seed(5, 0)


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("JSDE_LAB_SEED", "not-a-number")
    rc = cli.main(["simulate", "--preset", "example_41",
                   "--set", "scheme.h=2^-3"])
    assert rc == 1
    assert "JSDE_LAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# degenerate inline models: every subcommand exits with a documented code
# ---------------------------------------------------------------------------

# constant, zero, state-free, mark-free, and non-finite at 0
DEGENERATE_COEFFICIENTS = ("2", "0", "u", "x", "1/x")
# name -> (measure, u3 for the c2 slot); 1e15 expected events is beyond the
# event cap, so it is refused before any draw
DEGENERATE_MEASURES = {
    "atoms": ("atoms(0.5:1)", "0:2"),
    "tiny": ("lebesgue(0, 1e-300)", "0:1"),
    "unit": ("lebesgue(-1, 1)", "0:2"),
    "u3_outside": ("atoms(0.5:1)", "5:6"),
    "capped": ("lebesgue(1, 1e15)", "0:2"),
}
DEGENERATE_MODELS = (
    [(f"c1={c},nu1={name}", [f"model.c1={c}", f"model.nu1={nu}"])
     for c in DEGENERATE_COEFFICIENTS
     for name, (nu, _) in DEGENERATE_MEASURES.items()
     if name != "u3_outside"]
    + [(f"c2={c},nu2={name}",
        [f"model.c2={c}", f"model.nu2={nu}", f"model.u3={u3}"])
       for c in DEGENERATE_COEFFICIENTS
       for name, (nu, u3) in DEGENERATE_MEASURES.items()])
DEGENERATE_SETTINGS = (
    "model.b=-x", "model.sigma=0.5",
    "analysis.growth=one", "analysis.mu=10", "analysis.modulus=identity",
    "analysis.rho1=identity", "analysis.rho2=identity",
    "scheme.h=2^-6", "experiment.N=3", "experiment.y0=0",
    "experiment.steps=2^-3, 2^-4, 2^-5, 2^-6")
DEGENERATE_RUNS = (
    [["simulate", "--paths", "2"]]
    + [["verify", "--check", name] for name in cli.CHECK_NAMES]
    + [["experiment", "--kind", kind,
        "--set", f"experiment.skip_checks={skip}"]
       for kind in ("explosion", "nonconfluence") for skip in ("1", "0")]
    + [["experiment", "--kind", kind, "--set", "experiment.skip_checks=1"]
       for kind in ("uniqueness", "convergence")]
    + [["bound", "--growth", "one", "--mu", "10"]])


def _degenerate_argv(run, keys):
    sets = [arg for kv in DEGENERATE_SETTINGS + tuple(keys)
            for arg in ("--set", kv)]
    return run[:1] + sets + run[1:]


@pytest.mark.parametrize("keys", [keys for _, keys in DEGENERATE_MODELS],
                         ids=[label for label, _ in DEGENERATE_MODELS])
def test_degenerate_inline_model_never_raises(keys, capsys):
    bad = []
    for run in DEGENERATE_RUNS:
        try:
            rc = cli.main(_degenerate_argv(run, keys))
        except Exception as exc:    # escaping main prints a traceback
            rc = repr(exc)
        if rc not in (0, 1, 2, 3):
            bad.append((" ".join(run), rc))
        capsys.readouterr()
    assert bad == []


@pytest.mark.parametrize("keys, argv, rc", [
    # a constant c1 used to break the pair-grid mark integral's matmul, in
    # the growth check and in the explosion precheck
    (["model.c1=0", "model.nu1=lebesgue(-1, 1)"],
     ["verify", "--check", "growth"], 0),
    (["model.c1=0", "model.nu1=lebesgue(-1, 1)"],
     ["experiment", "--kind", "explosion"], 0),
    (["model.c1=2", "model.nu1=lebesgue(-1, 1)"],
     ["verify", "--check", "local"], 0),
    # a mark-free c2 over atoms: the drift-plus-jump bound fails near the
    # diagonal, and the witness is reconfirmed on the atom
    (["model.c2=x", "model.nu2=atoms(0.5:1)", "model.u3=0:2"],
     ["verify", "--check", "corollary"], 2),
])
def test_degenerate_model_verdicts(keys, argv, rc, capsys):
    assert cli.main(_degenerate_argv(argv, keys)) == rc
    out = capsys.readouterr().out
    if rc == 2:
        report, = json.loads(out[out.index("\n["):])
        worst = report["worst_witness"]
        assert worst["reconfirmed"] is True


@pytest.mark.parametrize("keys, argv", [
    ([], ["bound", "--growth", "one", "--mu", "1000"]),
    ([], ["bound", "--growth", "one", "--mu", "1", "--t", "1000"]),
    (["analysis.mu=1000", "scheme.h=1", "experiment.steps=1"],
     ["experiment", "--kind", "explosion"]),
    (["experiment.T=800", "scheme.h=1", "experiment.steps=1"],
     ["experiment", "--kind", "explosion"]),
    # an end state (and a start) whose square is past float range
    (["experiment.x0=1e200", "experiment.skip_checks=1"],
     ["experiment", "--kind", "explosion"]),
])
def test_moment_bound_past_float_range_is_vacuous(keys, argv, capsys):
    assert cli.main(_degenerate_argv(argv, keys)) == 0
    out = capsys.readouterr().out
    if argv[0] == "bound":
        assert out == "inf\n"
    else:
        row = json.loads(out)["bound_row"]
        assert row["bound"] == float("inf")
        assert row["satisfied_within_3se"] is None
