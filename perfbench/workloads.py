"""The benchmark's workloads and the checks on their outputs.

Every workload leaves ``threads`` unset, so it measures the default users
get.  Why each was chosen is noted next to the definitions at the end.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

CHECK_PATHS = 2          # data.csv rows recomputed per experiment call


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fmt_cell(v):
    """A data.csv cell as the harness writes it."""
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


class ExperimentWorkload:
    """Repeated ``run_<kind>`` calls on one preset instance; call ``k`` uses
    master seed ``seed * 1_000_000 + k`` and writes its outputs to
    ``workdir``."""

    items = "paths"

    def __init__(self, name, why, kind, preset, paths, taming, **config):
        self.name, self.why, self.kind = name, why, kind
        self.preset_name, self.paths, self.taming = preset, paths, taming
        self.config_kw = config

    @property
    def size(self):
        return f"{self.paths} paths per call"

    def setup(self, jsde_lab, seed, workdir):
        """Build the preset and the config; this is what ``setup_s``
        times."""
        self.lab = jsde_lab
        self.seed = seed
        self.workdir = Path(workdir)
        self.model = jsde_lab.preset(self.preset_name)
        self.config = jsde_lab.ExperimentConfig(
            model=self.model, paths=self.paths, output_dir=str(self.workdir),
            master_seed=self.master_seed(0), **self.config_kw)

    def master_seed(self, k):
        return self.seed * 1_000_000 + k

    def call(self, k):
        """The timed operation; returns the number of items it completed."""
        run = getattr(self.lab.harness, f"run_{self.kind}")
        run(dataclasses.replace(self.config, master_seed=self.master_seed(k)))
        return self.paths

    def check(self, k, recompute=True):
        """Digest the outputs of call ``k`` and, with ``recompute``,
        recompute a seeded sample of its data.csv rows through the public
        scalar API."""
        summary_path = self.workdir / "summary.json"
        data_path = self.workdir / "data.csv"
        summary = json.loads(summary_path.read_text())
        with open(data_path, newline="") as fh:
            rows = list(csv.reader(fh))
        master = self.master_seed(k)
        if (summary.get("kind") != self.kind
                or summary["config"]["paths"] != self.paths
                or summary["config"]["master_seed"] != master
                or summary.get("taming") != self.taming
                or len(rows) != self.paths + 1):
            raise CheckFailed(f"{self.name} call {k}: summary.json or "
                              "data.csv has the wrong shape")
        sample = random.Random(master).sample(range(self.paths), CHECK_PATHS)
        for i in sample if recompute else ():
            expected = [str(i)] + self.recompute_row(master, i)
            if rows[i + 1] != expected:
                raise CheckFailed(
                    f"{self.name} call {k}, path {i}: data.csv row "
                    f"{rows[i + 1]} != recomputed {expected}")
        return {f"call {k} summary.json": sha256_file(summary_path),
                f"call {k} data.csv": sha256_file(data_path)}

    def scheme(self, h, radius):
        return self.lab.SchemeConfig(base_step=h, explosion_radius=radius,
                                     taming=self.taming)

    def recompute_row(self, master, i):
        lab, cfg = self.lab, self.config
        seed = lab.derive_path_seed(master, i)
        if self.kind == "explosion":
            h = cfg.step_ladder[-1]
            noise = lab.sample_noise(self.model, cfg.horizon, h, seed)
            path = lab.simulate(self.model, noise,
                                self.scheme(h, cfg.radius_ladder[-1]), cfg.x0)
            exits = [lab.first_exit_time(path, r) for r in cfg.radius_ladder]
            # the phi_final column uses example_31's growth envelope
            phi = lab.phi_growth(lab.builtin_growth("log"),
                                 path.state_at_end() ** 2)
            return [fmt_cell(seed)] + [
                fmt_cell(math.inf if t is None else t) for t in exits] \
                + [fmt_cell(phi)]
        h_ref = cfg.step_ladder[-1]
        noise = lab.sample_noise(self.model, cfg.horizon, h_ref, seed)
        ref = lab.simulate(self.model, noise,
                           self.scheme(h_ref, cfg.explosion_radius), cfg.x0)
        gaps = []
        for h in cfg.step_ladder:
            factor = round(h / h_ref)
            level = noise if factor == 1 else noise.coarsen(factor)
            p = lab.simulate(self.model, level,
                             self.scheme(h, cfg.explosion_radius), cfg.x0)
            gaps.append(math.nan if p.exploded or ref.exploded else
                        abs(p.state_at_end() - ref.state_at_end())
                        ** cfg.alpha)
        return [fmt_cell(seed)] + [fmt_cell(g) for g in gaps]


class VerifyWorkload:
    """In-process ``jsde-lab verify --preset P`` calls with stdout captured,
    cycling through ``cycle``.  The cycle is 2:1 rather than 1:1: with equal
    shares of a 0.14 s and a 0.39 s call the median of one call falls in the
    gap between the two modes and jumps between them from run to run; with
    two thirds fast calls the median lies inside the example_31 mode and the
    tail inside the example_41 mode."""

    items = "verify calls"
    cycle = ("example_31", "example_31", "example_41")

    def __init__(self, name, why):
        self.name, self.why = name, why
        self.reference = {}

    @property
    def size(self):
        return "one designated verify per call, presets " + \
            ", ".join(self.cycle)

    def setup(self, jsde_lab, seed, workdir):
        import jsde_lab.cli

        self.lab = jsde_lab
        self.argv = {p: ["verify", "--preset", p] for p in set(self.cycle)}

    def preset_of(self, k):
        return self.cycle[k % len(self.cycle)]

    def call(self, k):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.rc = self.lab.cli.main(self.argv[self.preset_of(k)])
        self.stdout = out.getvalue()
        return 1

    def expected(self, preset):
        """Exit code, report table and report JSON recomputed through the
        library, not the CLI."""
        if preset not in self.reference:
            lab = self.lab
            reports = lab.designated_checks(lab.preset(preset))
            rc = 0 if all(r.verdict == lab.NO_VIOLATION for r in reports) \
                else 2
            self.reference[preset] = (rc, lab.format_report_table(reports),
                                      lab.reports_to_json(reports))
        return self.reference[preset]

    def check(self, k, recompute=True):
        """Compare the call's exit code and stdout with the library's; the
        comparison is cheap, so ``recompute`` changes nothing here."""
        preset = self.preset_of(k)
        rc, table, payload = self.expected(preset)
        text = f"{table}\n{payload}\n"
        if (self.rc, self.stdout) != (rc, text):
            raise CheckFailed(
                f"verify --preset {preset} (call {k}) exited {self.rc} and "
                f"printed {len(self.stdout)} bytes; the library gives exit "
                f"{rc} and {len(text)} bytes")
        return {f"verify {preset} JSON": hashlib.sha256(
            payload.encode()).hexdigest()}


# Why these three.  The ``why`` strings are the ones in BENCHMARK.json.
# - explosion_31 is integrator-bound: one noise draw per path, no coarsening,
#   about 94% of path time in the scalar Euler loop, and some paths cut short
#   by exits.
# - uniqueness_41 uses the noise layer differently (one draw at the finest
#   step, then five coarsenings per path) and runs the tamed-drift, cube-root
#   integrator branch at seven resolutions, one of them a repeat of the
#   reference.  A gain on one preset that costs the other shows here.
# - verify_presets does no noise or integrator work: it is the bypass
#   workload, where integrator and noise changes must move nothing.  Its cost
#   sits in verifier, cli and the package import.
WORKLOADS = {w.name: w for w in (
    ExperimentWorkload(
        "explosion_31",
        "run_explosion on example_31, 100 paths per call, h=2^-8, radii "
        "10/50/250, precheck on: integrator-bound, one noise draw per path, "
        "no coarsening; criterion-11 shape",
        "explosion", "example_31", paths=100, taming="off",
        step_ladder=(2.0 ** -8,), radius_ladder=(10.0, 50.0, 250.0)),
    ExperimentWorkload(
        "uniqueness_41",
        "run_uniqueness on example_41, 25 paths per call, ladder 2^-4..2^-9, "
        "alpha=1: one fine noise draw and 5 coarsenings per path, tamed "
        "integrator at 7 steps; criterion-12 shape",
        "uniqueness", "example_41", paths=25, taming="drift_tamed",
        alpha=1.0),
    VerifyWorkload(
        "verify_presets",
        "CLI verify --preset, one call per operation, cycling example_31, "
        "example_31, example_41: no noise or integrator work, so noise and "
        "integrator changes must not move it"),
)}
