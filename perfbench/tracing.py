"""In-memory span tracing of jsde_lab, installed from outside the package.

Spans come from wrapping public functions at the names through which
``jsde_lab.harness``, ``jsde_lab.cli``, ``jsde_lab.config`` and
``jsde_lab.verifier`` call them, plus two methods patched on their classes
(``NoiseRealization.coarsen``, ``ExperimentSummary.write``).  A name that
does not exist is skipped, so a refactor that removes one reports 0 calls
for it instead of breaking the benchmark.

Each span records name, start, end, parent and thread id.  The harness runs
paths on pool threads; a span opened on a thread with no open span of its
own takes the currently open top-level span (an ``experiment`` or ``verify``
call) as its parent.  Scalar coefficient calls are too many to keep as
spans: they are only counted and timed.
"""

import functools
import hashlib
import importlib
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time

# (module attribute holding the bound name, function names) per layer
WRAPPED = {
    "harness": [
        ("jsde_lab.harness", ("run_explosion", "run_uniqueness",
                              "run_nonconfluence", "run_convergence")),
        ("jsde_lab.cli", ("run_experiment",)),
    ],
    "noise": [
        ("jsde_lab.harness", ("sample_noise",)),
        ("jsde_lab.cli", ("sample_noise",)),
    ],
    "integrator": [
        ("jsde_lab.harness", ("simulate", "first_exit_time")),
        ("jsde_lab.cli", ("simulate", "dump_path_csv")),
    ],
    "verifier": [
        ("jsde_lab.harness", ("check_growth", "check_nonconfluence_conditions",
                              "growth_ratio_supremum")),
        ("jsde_lab.cli", ("designated_checks", "check_modulus", "check_growth",
                          "check_local_conditions",
                          "check_corollary_conditions",
                          "check_nonconfluence_conditions",
                          "format_report_table", "reports_to_json")),
    ],
    "analysis": [
        ("jsde_lab.harness", ("moment_bound", "nonconfluence_constants",
                              "phi_growth")),
        ("jsde_lab.cli", ("bihari_bound", "moment_bound", "omega_build")),
        ("jsde_lab.verifier", ("omega_build",)),
    ],
    "cli": [
        ("jsde_lab.cli", ("main", "build_parser", "parse_config")),
    ],
    "model": [
        ("jsde_lab.config", ("preset",)),
    ],
}

COEFFICIENTS = ("b", "sigma", "c1", "c2", "c1_mean")

# verifier entry points that return one report or a list of them
REPORT_CHECKS = ("designated_checks", "check_modulus", "check_growth",
                 "check_local_conditions", "check_corollary_conditions",
                 "check_nonconfluence_conditions")
VERIFIER_CHECKS = REPORT_CHECKS + ("growth_ratio_supremum",)
CLI_PARSE = ("cli.build_parser", "cli.parse_config")

_MISSING = object()


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "cpu")

    def __init__(self, name, parent, tid):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = self.end = self.cpu = 0.0


class Tracer:
    """Collects spans and counts while installed; ``uninstall`` restores
    every patched name."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_states = []
        self._root = None
        self._main_tid = threading.get_ident()
        self._patches = []
        self._seen_paths = set()

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, sites in WRAPPED.items():
            for module_name, names in sites:
                module = importlib.import_module(module_name)
                for fn_name in names:
                    fn = getattr(module, fn_name, None)
                    if fn is None:
                        continue
                    hook = (self._after_check if fn_name in REPORT_CHECKS
                            else getattr(self, f"_after_{fn_name}", None))
                    self._patch(module, fn_name,
                                self._span_wrapper(f"{layer}.{fn_name}", fn,
                                                   hook))
        noise_cls = getattr(importlib.import_module("jsde_lab.noise"),
                            "NoiseRealization", None)
        if noise_cls is not None and hasattr(noise_cls, "coarsen"):
            self._patch(noise_cls, "coarsen", self._span_wrapper(
                "noise.coarsen", noise_cls.coarsen, None))
        summary_cls = getattr(importlib.import_module("jsde_lab.harness"),
                              "ExperimentSummary", None)
        if summary_cls is not None and hasattr(summary_cls, "write"):
            self._patch(summary_cls, "write", self._span_wrapper(
                "harness.write", summary_cls.write, self._after_write))

    def instrument_model(self, model):
        """Count and time the scalar coefficient calls of one model
        instance; the returned model is the same object."""
        for name in COEFFICIENTS:
            fn = getattr(model, name, None)
            if fn is not None:
                self._patch(model, name, self._coeff_wrapper(fn))
        return model

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        # a method found on the class of an instance is shadowed, not
        # replaced, so restoring it means deleting the shadow
        self._patches.append((owner, name,
                              vars(owner).get(name, _MISSING)))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "coeff_calls": 0,
                                   "coeff_cpu": 0.0}
            with self._lock:
                self._thread_states.append(st)
        return st

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._state()["stack"]
            parent = stack[-1] if stack else tracer._root
            span = Span(name, parent, threading.get_ident())
            if parent is None:
                tracer._root = span
            stack.append(span)
            cpu0 = thread_time()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.cpu = thread_time() - cpu0
                stack.pop()
                if parent is None:
                    tracer._root = None
                tracer.spans.append(span)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def _coeff_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                st = tracer._state()
                st["coeff_calls"] += 1
                st["coeff_cpu"] += thread_time() - t0

        return wrapper

    # -- per-call counts ---------------------------------------------------

    def _add(self, **counts):
        with self._lock:
            self.counts.update(counts)

    def _after_sample_noise(self, noise, args, kwargs):
        self._add(sample_events_small=len(noise.events_from("small")),
                  sample_events_large=len(noise.events_from("large")),
                  sample_grid_steps=len(noise.union_times) - 1)

    def _after_simulate(self, path, args, kwargs):
        model, noise, scheme, x0 = args[:4]
        # one integration is a repeat when the same noise, scheme and start
        # were already integrated; the uniqueness reference level is one
        digest = hashlib.blake2b(noise.union_times.tobytes()
                                 + noise.union_increments.tobytes(),
                                 digest_size=16).digest()
        key = (id(model), noise.seed, digest, scheme, float(x0))
        steps = len(path.times) - 1
        with self._lock:
            distinct = key not in self._seen_paths
            self._seen_paths.add(key)
            self.counts.update(steps=steps,
                               distinct_steps=steps if distinct else 0,
                               exploded=int(bool(path.exploded)))

    def _after_preset(self, model, args, kwargs):
        self.instrument_model(model)

    def _after_check(self, reports, args, kwargs):
        reports = reports if isinstance(reports, list) else [reports]
        conditions = [c for r in reports for c in r.conditions]
        self._add(conditions=len(conditions),
                  violations=sum(c.verdict != "no_violation_found"
                                 for c in conditions))

    def _after_write(self, paths, args, kwargs):
        self._add(output_bytes=sum(p.stat().st_size for p in paths))

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Wall self time of every span: its duration minus the part of it
        that its child spans, on any thread, cover.  Returns
        ``{span: seconds}``."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(s, ())):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s] = (s.end - s.start) - covered
        return out

    def metrics(self):
        """Per-layer values as ``{name: (value, unit)}``.  Units ``s`` and
        ``us`` are times, every other unit is a count.  A layer's ``_s`` is
        busy time, the thread CPU time inside its calls: pool threads take
        turns on the interpreter lock, so wall time inside a call on one
        includes waiting for the other, which ``harness.pool_wait_s`` reports
        on its own.  ``self_s`` is wall self time."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        selfs = self.self_times()

        def calls(*names):
            return sum(len(by_name[n]) for n in names)

        def busy(*names):
            return sum(s.cpu for n in names for s in by_name[n])

        def self_of(prefix):
            return sum(v for s, v in selfs.items()
                       if s.name.startswith(prefix))

        c = self.counts
        coeff_calls = sum(st["coeff_calls"] for st in self._thread_states)
        coeff_s = sum(st["coeff_cpu"] for st in self._thread_states)
        pooled = [s for s in self.spans if s.tid != self._main_tid
                  and (s.parent is None or s.parent.tid != s.tid)]
        sim_s = busy("integrator.simulate")
        samples = calls("noise.sample_noise")
        sample_s = busy("noise.sample_noise")
        checks = [f"verifier.{n}" for n in VERIFIER_CHECKS]
        analysis = sorted({n for n in by_name if n.startswith("analysis.")})

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        return {
            "integrator.simulate_calls": (calls("integrator.simulate"),
                                          "count"),
            "integrator.simulate_s": (sim_s, "s"),
            "integrator.steps": (c["steps"], "count"),
            "integrator.us_per_step": (per(sim_s, c["steps"], 1e6), "us"),
            "integrator.exploded_paths": (c["exploded"], "count"),
            "integrator.distinct_step_ratio": (per(c["distinct_steps"],
                                                   c["steps"]),
                                               "count/count"),
            "model.coeff_calls": (coeff_calls, "count"),
            "model.coeff_s": (coeff_s, "s"),
            "noise.sample_calls": (samples, "count"),
            "noise.sample_s": (sample_s, "s"),
            "noise.sample_us_per_path": (per(sample_s, samples, 1e6), "us"),
            "noise.coarsen_calls": (calls("noise.coarsen"), "count"),
            "noise.coarsen_s": (busy("noise.coarsen"), "s"),
            "noise.events_small_per_path": (per(c["sample_events_small"],
                                                samples), "count/path"),
            "noise.events_large_per_path": (per(c["sample_events_large"],
                                                samples), "count/path"),
            "noise.grid_steps_per_path": (per(c["sample_grid_steps"],
                                              samples), "count/path"),
            "verifier.check_calls": (calls(*checks), "count"),
            "verifier.check_s": (busy(*checks), "s"),
            "verifier.conditions": (c["conditions"], "count"),
            "verifier.violations": (c["violations"], "count"),
            "analysis.calls": (calls(*analysis), "count"),
            "analysis.s": (busy(*analysis), "s"),
            "harness.self_s": (self_of("harness.run_"), "s"),
            "harness.write_s": (busy("harness.write"), "s"),
            "harness.pool_wait_s": (sum(s.end - s.start - s.cpu
                                        for s in pooled), "s"),
            "harness.output_bytes": (c["output_bytes"], "bytes"),
            "cli.self_s": (self_of("cli.main"), "s"),
            "cli.parse_s": (busy(*CLI_PARSE), "s"),
        }

    def self_by_thread(self):
        """``{layer: {thread index: self seconds}}``, threads numbered in
        order of their first span."""
        order = {}
        out = defaultdict(lambda: defaultdict(float))
        for s in sorted(self.spans, key=lambda s: s.start):
            order.setdefault(s.tid, len(order))
        for s, v in self.self_times().items():
            out[s.name.split(".", 1)[0]][order[s.tid]] += v
        return {layer: dict(v) for layer, v in out.items()}

    def write_spans(self, path):
        """One JSON object per line: index, name, start, end, parent index,
        thread id and thread CPU seconds."""
        index = {s: i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": index.get(s.parent), "tid": s.tid,
                    "cpu": s.cpu}) + "\n")
