"""Structured-text configuration for models, schemes, and experiments.

A config file is INI-style: ``[section]`` headers over ``key = value``
lines, with ``#``/``;`` comments.  Sections are ``[model]``, ``[noise]``,
``[scheme]``, ``[experiment]``, and ``[analysis]``.  Every numeric value is
parsed by the coefficient-expression grammar, so ``h = 2^-8`` works; list
values are comma-separated.  Unknown sections or keys are rejected with the
nearest valid name; every key can be overridden on the command line with
``--set section.key=value``.
"""

import configparser
import difflib
import os
import re

from .errors import ConfigError, UsageError
from .exprs import parse_expression, parse_scalar
from .harness import DEFAULT_SEED
from .integrator import TAMING_MODES
from .model import Band, CoefficientSet, MarkMeasure, lebesgue, preset

EXPERIMENT_KINDS = ("explosion", "uniqueness", "nonconfluence", "convergence")

# name -> (type tag, default raw text or None, help)
SCHEMA = {
    "model.preset": ("str", None, "built-in model name (example_31, example_41)"),
    "model.label": ("str", None, "display label for an inline model"),
    "model.b": ("expr_x", None, "drift expression in x"),
    "model.sigma": ("expr_x", None, "diffusion expression in x"),
    "model.c1": ("expr_xu", None, "compensated-jump expression in x, u"),
    "model.c2": ("expr_xu", None, "finite-measure jump expression in x, u"),
    "model.nu1": ("measure", None, "small-jump mark measure"),
    "model.nu2": ("measure", None, "large-jump mark measure"),
    "model.u3": ("bands", "empty", "interlacing sub-support: empty, full, or lo:hi list"),
    "noise.seed": ("int", None, "master seed (above env JSDE_LAB_SEED, below --seed)"),
    "scheme.h": ("float", "2^-8", "base time step"),
    "scheme.taming": ("choice:taming", "off", "per-step drift taming mode"),
    "scheme.explosion_radius": ("float", "1e6", "treat |x| >= R as exploded"),
    "scheme.restrict_to_u3": ("bool", "false", "drop finite-measure jumps outside u3"),
    "experiment.kind": ("choice:kind", None, "explosion | uniqueness | nonconfluence | convergence"),
    "experiment.T": ("float", "1", "time horizon"),
    "experiment.N": ("int", "1000", "Monte Carlo path count"),
    "experiment.x0": ("float", "1", "initial state"),
    "experiment.y0": ("float", None, "second initial state (nonconfluence)"),
    "experiment.alpha": ("float", "1", "gap exponent for coupled-path experiments"),
    "experiment.steps": ("floats", "2^-4, 2^-5, 2^-6, 2^-7, 2^-8, 2^-9", "step ladder"),
    "experiment.radii": ("floats", "10, 50, 250", "exceedance radius ladder"),
    "experiment.epsilons": ("floats", "1e-6, 5e-6, 2.5e-5, 1.25e-4, 6.25e-4", "closeness ladder"),
    "experiment.delta": ("float", "0.5", "jump-separation margin for the pre-run check"),
    "experiment.m_bound": ("float", None, "mark-mass constant for the distance constants"),
    "experiment.skip_checks": ("bool", "false", "skip pre-run condition checks"),
    "experiment.budget_cap": ("int", "200000000", "paths x steps budget cap"),
    "analysis.modulus": ("modspec", None, "continuity modulus, e.g. identity or 5*identity"),
    "analysis.rho1": ("modspec", None, "drift-side modulus for the pairwise check"),
    "analysis.rho2": ("modspec", None, "noise-side modulus for the pairwise check"),
    "analysis.growth": ("str", None, "growth envelope name: one, log, log_loglog"),
    "analysis.mu": ("float", None, "growth-bound constant"),
    "analysis.alpha": ("float", "1", "local-condition exponent"),
    "analysis.delta0": ("float", "1", "pair-distance ceiling for local conditions"),
    "analysis.delta": ("float", "0.5", "jump-separation margin"),
}

SECTIONS = tuple(dict.fromkeys(k.split(".", 1)[0] for k in SCHEMA))

_BOOL_STATES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}

_MEASURE_RE = re.compile(r"^\s*(lebesgue|atoms)\s*\((.*)\)\s*$", re.DOTALL)


def _suggest(name, options):
    close = difflib.get_close_matches(name, options, n=1, cutoff=0.4)
    return f"; did you mean {close[0]!r}?" if close else ""


def _parse_measure(text):
    m = _MEASURE_RE.match(text)
    if not m:
        raise ValueError(
            "expected lebesgue(lo, hi) or atoms(u:w, ...)"
        )
    kind, body = m.group(1), m.group(2)
    if kind == "lebesgue":
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError("lebesgue takes exactly two arguments: lo, hi")
        lo, hi = (parse_scalar(p) for p in parts)
        return lebesgue(lo, hi)
    atoms = []
    for chunk in body.split(","):
        if not chunk.strip():
            continue
        if ":" not in chunk:
            raise ValueError(f"atom {chunk.strip()!r} must be written u:w")
        u, w = chunk.split(":", 1)
        atoms.append((parse_scalar(u), parse_scalar(w)))
    if not atoms:
        raise ValueError("atoms(...) needs at least one u:w entry")
    return MarkMeasure(atoms=atoms, label="atoms")


def _parse_bands(text):
    lowered = text.strip().lower()
    if lowered == "empty":
        return ()
    if lowered == "full":
        return None
    bands = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ValueError(f"band {chunk.strip()!r} must be written lo:hi")
        lo, hi = chunk.split(":", 1)
        lo, hi = parse_scalar(lo), parse_scalar(hi)
        if hi <= lo:
            raise ValueError(f"band {chunk.strip()!r} is empty")
        bands.append(Band(lo, hi))
    return tuple(bands)


def _coerce(dotted, raw):
    tag = SCHEMA[dotted][0]
    try:
        if tag == "str":
            return raw.strip()
        if tag == "int":
            try:
                return int(raw.strip())      # exact for large literals
            except ValueError:
                pass
            value = parse_scalar(raw)
            if value != int(value):
                raise ValueError("not an integer")
            return int(value)
        if tag == "float":
            return parse_scalar(raw)
        if tag == "floats":
            parts = [p for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(parse_scalar(p) for p in parts)
        if tag == "bool":
            state = _BOOL_STATES.get(raw.strip().lower())
            if state is None:
                raise ValueError("expected true/false")
            return state
        if tag == "expr_x":
            return parse_expression(raw, variables=("x",))
        if tag == "expr_xu":
            return parse_expression(raw, variables=("x", "u"))
        if tag == "measure":
            return _parse_measure(raw)
        if tag == "bands":
            return _parse_bands(raw)
        if tag == "modspec":
            return raw.strip()
        if tag == "choice:taming":
            value = raw.strip()
            if value not in TAMING_MODES:
                raise ValueError(f"expected one of {', '.join(TAMING_MODES)}")
            return value
        if tag == "choice:kind":
            value = raw.strip()
            if value not in EXPERIMENT_KINDS:
                raise ValueError(f"expected one of {', '.join(EXPERIMENT_KINDS)}")
            return value
        raise AssertionError(f"unhandled schema tag {tag}")
    except UsageError as exc:
        raise ConfigError(f'key "{dotted}": {exc}') from exc
    except ValueError as exc:
        raise ConfigError(
            f'key "{dotted}": cannot read {raw!r} as {tag} ({exc})'
        ) from exc


class ResolvedConfig:
    """All sections resolved: defaults applied, values typed.

    ``values`` maps every schema key to its coerced value; ``model()``
    materializes the coefficient set (preset or inline expressions).
    """

    def __init__(self, values, sources):
        self.values = values
        self.sources = sources

    def __getitem__(self, dotted):
        return self.values[dotted]

    def section(self, name):
        prefix = name + "."
        return {k.split(".", 1)[1]: v for k, v in self.values.items()
                if k.startswith(prefix)}

    def model(self):
        """Build the configured model, or None if no model was configured."""
        m = self.section("model")
        inline_keys = [k for k in ("b", "sigma", "c1", "c2", "nu1", "nu2")
                       if m[k] is not None]
        if m["preset"] is not None:
            if inline_keys:
                raise ConfigError(
                    "model.preset and inline coefficients are mutually "
                    f"exclusive (inline: {', '.join(inline_keys)})"
                )
            return preset(m["preset"])
        if not inline_keys:
            return None
        for required in ("b", "sigma"):
            if m[required] is None:
                raise ConfigError(f"inline model needs model.{required}")
        for cname, nuname in (("c1", "nu1"), ("c2", "nu2")):
            if (m[cname] is None) != (m[nuname] is None):
                raise ConfigError(
                    f"model.{cname} and model.{nuname} must be set together"
                )
        if m["u3"] not in ((), None) and m["nu2"] is None:
            raise ConfigError("model.u3 needs model.nu2")
        return CoefficientSet(
            b=m["b"], sigma=m["sigma"], c1=m["c1"], c2=m["c2"],
            nu1=m["nu1"], nu2=m["nu2"], u3=m["u3"],
            label=m["label"] or "inline",
        )


def _read_file(path):
    parser = configparser.RawConfigParser(
        inline_comment_prefixes=("#", ";"), delimiters=("=",),
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=os.path.basename(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(
            f"{exc.source}, line {exc.lineno}, column 1: key before any "
            f"[section] header"
        ) from exc
    except configparser.ParsingError as exc:
        lineno, line = exc.errors[0]
        col = len(line) - len(line.lstrip()) + 1
        raise ConfigError(
            f"{exc.source}, line {lineno}, column {col}: cannot parse "
            f"{line.strip()!r} (expected key = value)"
        ) from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{exc.source}, line {exc.lineno}: duplicate key "
            f"{exc.option!r} in [{exc.section}]"
        ) from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(
            f"{exc.source}, line {exc.lineno}: duplicate section "
            f"[{exc.section}]"
        ) from exc
    return parser


def _validate_key(dotted):
    if dotted in SCHEMA:
        return
    section = dotted.split(".", 1)[0]
    if section not in SECTIONS:
        raise ConfigError(
            f'unknown section "{section}"'
            f"{_suggest(section, SECTIONS)} (sections: {', '.join(SECTIONS)})"
        )
    options = sorted(k for k in SCHEMA if k.startswith(section + "."))
    raise ConfigError(
        f'unknown key "{dotted}"{_suggest(dotted, sorted(SCHEMA))} '
        f"(keys in [{section}]: "
        f"{', '.join(o.split('.', 1)[1] for o in options)})"
    )


def parse_config(path=None, overrides=()):
    """Resolve a config file plus ``section.key=value`` override strings.

    Either argument may be empty: no file means pure defaults.  Returns a
    :class:`ResolvedConfig`.  Raises :class:`ConfigError` on parse errors,
    unknown keys, or type mismatches.
    """
    raw = {}
    sources = {}
    if path is not None:
        parser = _read_file(path)
        for section in parser.sections():
            for key, value in parser.items(section):
                dotted = f"{section}.{key}"
                _validate_key(dotted)
                raw[dotted] = value
                sources[dotted] = "file"
    for item in overrides:
        if "=" not in item:
            raise ConfigError(
                f"override {item!r} must look like section.key=value"
            )
        dotted, value = item.split("=", 1)
        dotted = dotted.strip()
        if "." not in dotted:
            raise ConfigError(
                f"override key {dotted!r} must be section.key"
            )
        _validate_key(dotted)
        raw[dotted] = value
        sources[dotted] = "override"
    values = {}
    for dotted, (tag, default, _help) in SCHEMA.items():
        if dotted in raw:
            values[dotted] = _coerce(dotted, raw[dotted])
        elif default is not None:
            values[dotted] = _coerce(dotted, default)
            sources[dotted] = "default"
        else:
            values[dotted] = None
            sources[dotted] = "default"
    return ResolvedConfig(values, sources)


def resolve_seed(flag_value, config_value):
    """Seed precedence: --seed flag, config, JSDE_LAB_SEED env, default."""
    if flag_value is not None:
        return int(flag_value)
    if config_value is not None:
        return int(config_value)
    env = os.environ.get("JSDE_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(
                f"JSDE_LAB_SEED must be an integer, got {env!r}"
            ) from exc
    return DEFAULT_SEED


def describe_keys():
    """The key reference printed by --help: one line per schema key."""
    lines = []
    for dotted, (tag, default, help_text) in SCHEMA.items():
        shown = "" if default is None else f" [default: {default}]"
        lines.append(f"  {dotted:28s} {help_text}{shown}")
    return "\n".join(lines)
