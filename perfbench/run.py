"""jsde-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are defined in ``workloads.py``.  The seed fixes every input.

``--trace 0`` times the workload's operation (an experiment call or a
``verify`` call) over and over for ``--seconds`` seconds, at least eleven
times, and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of operations, each untraced and then traced, and reports the
per-layer metrics from the spans; the counts among them repeat exactly for a
seed.  Every operation's output is checked (see ``workloads.py``), and an
operation whose output differs from an earlier one with the same seed
fails.  The last stdout line is the JSON result; a fuller record, with the
machine, the output digests and every call time, goes to
``perfbench/out/``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5         # fresh processes timed for setup_s; median kept
MIN_OPS = 11             # the tail percentile needs ten calls beyond it
TRACE_OPS = {"explosion_31": 6, "uniqueness_41": 6, "verify_presets": 9}
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

TIME_UNITS = ("s", "us")
END_TO_END_UNITS = {"setup_s": "s", "call_p50_s": "s", "call_tail_s": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}


class SetupFailed(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


class SetupProbes:
    """Fresh processes timed from start to the end of set-up, run one at a
    time between operations and spread over the run, so that their median
    covers the same stretch of machine time as the operations do."""

    def __init__(self, name, seed, workdir):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), name,
                     str(seed), str(workdir)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.walls, self.imports = [], []
        self.spent = 0.0          # wall time taken by the probes

    def due(self, fraction):
        """Run the probes that are due once ``fraction`` of the run is
        done; ``fraction >= 1`` runs all that are left."""
        while (len(self.walls) < SETUP_PROBES
               and fraction >= len(self.walls) / SETUP_PROBES):
            self._probe()

    def _probe(self):
        t0 = perf_counter()
        proc = subprocess.Popen(self.argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.spent += perf_counter() - t0
        if proc.returncode != 0 or not line:
            raise SetupFailed(f"set-up probe exited {proc.returncode}")
        self.walls.append(wall)
        self.imports.append(json.loads(line)["import_s"])


def tail(times):
    """``(p, value)``: the highest whole percentile with at least ten
    samples beyond it, by nearest rank."""
    n = len(times)
    if n < MIN_OPS:
        return None, 0.0
    p = 100 * (n - 10) // n
    return p, sorted(times)[max(1, math.ceil(p * n / 100)) - 1]


class Runner:
    """Runs and checks operations, and counts the failed ones."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def op(self, k, recompute=True):
        """Run operation ``k``; its wall time and item count, or
        ``(None, 0)`` when it raised or its output was wrong."""
        self.attempted += 1
        # start every operation from the same collector state, so that a
        # collection owed by an earlier call is not charged to this one
        gc.collect()
        try:
            t0 = perf_counter()
            items = self.workload.call(k)
            dt = perf_counter() - t0
            for name, digest in self.workload.check(k, recompute).items():
                if self.digests.setdefault(name, digest) != digest:
                    raise AssertionError(f"{name} is not byte-identical to "
                                         "an earlier run with the same seed")
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return None, 0
        return dt, items


def machine():
    import numpy
    import scipy

    import jsde_lab

    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "jsde_lab": getattr(jsde_lab, "__version__", None)}


def run_untraced(args, workload, runner, probes):
    times, items = [], 0
    start = perf_counter()

    def elapsed():
        return perf_counter() - start - probes.spent

    k = 0
    while k < MIN_OPS or elapsed() < args.seconds:
        probes.due(elapsed() / args.seconds)
        dt, n = runner.op(k)
        if dt is not None:
            times.append(dt)
            items += n
        k += 1
    probes.due(1.0)
    p, tail_s = tail(times)
    metrics = {
        "setup_s": statistics.median(probes.walls),
        "call_p50_s": statistics.median(times) if times else 0.0,
        "call_tail_s": tail_s,
        "items_per_s": items / sum(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"calls_timed": len(times), "tail_percentile": p,
              "item": workload.items, "call_times_s": times}
    return metrics, detail


def run_traced(workload, runner, probes, spans_path):
    from tracing import Tracer

    n = TRACE_OPS[workload.name]
    tracer = Tracer()
    untraced, traced = [], []
    # each operation runs untraced and then traced, back to back, so that a
    # slow spell of the machine lands on both sides of trace.overhead_s
    for k in range(n):
        probes.due(k / n)
        untraced.append(runner.op(k)[0] or 0.0)
        tracer.install()
        if getattr(workload, "model", None) is not None:
            tracer.instrument_model(workload.model)
        try:
            traced.append(runner.op(k, recompute=False)[0] or 0.0)
        finally:
            tracer.uninstall()
    probes.due(1.0)
    tracer.write_spans(spans_path)
    metrics = dict(tracer.metrics())
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    metrics["setup.import_s"] = (statistics.median(probes.imports), "s")
    detail = {"ops": n, "untraced_s": untraced, "traced_s": traced,
              "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "self_s_by_thread": tracer.self_by_thread()}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jsde_lab" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from the root of a "
              "jsde-lab checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    probes = SetupProbes(args.workload, args.seed, workdir)
    try:
        sys.path.insert(0, str(SRC))
        import jsde_lab

        workload.setup(jsde_lab, args.seed, workdir)
        runner = Runner(workload)
        runner.op(0)        # warm-up, and the reference for byte identity
        if args.trace:
            layer, detail = run_traced(workload, runner, probes,
                                       OUT / f"spans-{tag}.jsonl")
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in layer.items()}
        else:
            e2e, detail = run_untraced(args, workload, runner, probes)
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    # per-layer values are either counts, which repeat exactly for a seed,
    # or times
    kinds = {name: "time" if m["unit"] in TIME_UNITS else "count"
             for name, m in metrics.items()} if args.trace else {}
    record = {
        "workload": args.workload, "why": workload.why, "size": workload.size,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "metrics": metrics, "kinds": kinds,
        "attempted": runner.attempted, "failed": failed,
        "error_rate": failed / runner.attempted,
        "setup_walls_s": probes.walls, "detail": detail,
        "digests": runner.digests, "failures": runner.failures[:5],
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for f in runner.failures[:5]:
        print(f, file=sys.stderr)
    print(f"workload {args.workload} ({workload.size}), seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:12s} "
              f"{kinds.get(name, '')}".rstrip())
    print(f"  {'error_rate':32s} {record['error_rate']:>16.6g} "
          f"failed/attempted ({failed}/{runner.attempted})")
    if not args.trace:
        print(f"  call_tail_s is p{detail['tail_percentile']} of "
              f"{detail['calls_timed']} timed calls; an item is one of the "
              f"{workload.items}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
