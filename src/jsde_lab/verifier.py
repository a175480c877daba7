"""Grid-based falsification checkers for the standing conditions.

Every checker samples a documented grid and returns an
:class:`AssumptionReport` with verdict ``no_violation_found`` or
``violated`` — it can refute a universally-quantified condition on its grid
but never prove one.  Violated verdicts carry the worst witness, re-confirmed
through an independent scalar code path (plain float arithmetic plus Simpson
integration instead of the vectorized Gauss-Legendre evaluation).

Assumption ids:

* ``A22`` — modulus admissibility: positivity, nondecrease, midpoint
  concavity, and the small-argument divergence certificate for the
  reciprocal integral.
* ``A23`` — growth envelope: the one-sided second-moment growth bound
  ``2xb + sigma^2 + int |c1|^2 dnu1 + 2 int_{U3} |c2|^2 dnu2 <=
  mu [x^2 Upsilon(x^2) + 1]`` plus the envelope's own conditions.
* ``A24`` — local one-sided/Hoelder-type conditions with exponent ``alpha``
  on gaps up to ``delta0`` (``alpha = 0`` routes to the Lipschitz-style
  condition set of A25 with the one modulus in both roles).
* ``A25`` — corollary conditions: drift plus large-jump first-moment bound
  against ``rho_1``, diffusion plus small-jump second-moment bound against
  ``rho_2``, and a monotonicity scan of ``c1`` in the state.
* ``A26`` — non-confluence: global gap conditions evaluated through
  ``rho(|x-y|^-alpha)`` and the jump separation requirement
  ``|x - y + c_i(x,u) - c_i(y,u)| > delta |x-y|``.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CatalogError, DomainError, NumericalDomainError
from .model import (GAMMA, Band, _float_array_valued, _gl_panel,
                    builtin_growth, builtin_modulus, scale_modulus)

NO_VIOLATION = "no_violation_found"
VIOLATED = "violated"

DEFAULT_TOLERANCE = 1e-9
DIVERGENCE_RATIO_MIN = 0.9    # per-decade decrement ratio; catalog >= 0.916
GROWTH_RATIO_MIN = 0.75       # growth-(ii) decade increments; catalog >= 0.887
# the states at which the growth bound and its calibrating supremum are read
_GROWTH_ANCHORS = np.linspace(-10.0, 10.0, 101)
_GROWTH_ANCHORS.flags.writeable = False

# frozen designated-check constants (grid suprema of the growth ratios with
# the empty interlacing sub-support; the first is exact, attained at -sqrt(e))
MU_EXAMPLE_31 = (math.e + 3.0 * math.sqrt(math.e)) / (math.e + 1.0)
MU_EXAMPLE_41 = 0.5566420945681

# most pairs per block of the pair-grid mark integrals: a block's (pairs x
# nodes) arrays take half a MB at the presets' 128 nodes; consecutive rows
# of pairs (one anchor, one direction each) share a block while they fit,
# a longer row is cut, so a designated grid of 81 002 pairs makes 202
# blocks of 401 pairs
_PAIR_BLOCK = 512
# most pairs per chunk of a pair condition: each condition is evaluated and
# reduced one chunk of whole rows at a time (a longer row is cut), so its
# per-pair arrays stay at a chunk's length however large the grid
_CHUNK_PAIRS = 4096


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class ConditionResult:
    name: str
    verdict: str
    worst: Optional[dict] = None
    note: Optional[str] = None

    def to_dict(self):
        out = {"name": self.name, "verdict": self.verdict}
        if self.worst is not None:
            out["worst"] = self.worst
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class AssumptionReport:
    assumption_id: str
    verdict: str
    worst_witness: Optional[dict]
    grid_spec: str
    tolerance: float
    conditions: tuple = ()
    notes: tuple = ()

    def to_dict(self):
        return {
            "assumption_id": self.assumption_id,
            "verdict": self.verdict,
            "worst_witness": self.worst_witness,
            "grid_spec": self.grid_spec,
            "tolerance": self.tolerance,
            "conditions": [c.to_dict() for c in self.conditions],
            "notes": list(self.notes),
        }


def _tol_line(rhs):
    """The slack above which a condition counts as violated: absolute plus
    relative to the bound, for verdicts and reconfirmations alike."""
    return DEFAULT_TOLERANCE + DEFAULT_TOLERANCE * np.abs(rhs)


def _beats(slack, worst_slack):
    """Whether a later sample's slack replaces the running worst: a larger
    one does, and a NaN does unless a NaN came first (``np.argmax``'s
    order), so ties go to the earliest sample."""
    return not math.isnan(worst_slack) and (math.isnan(slack)
                                            or slack > worst_slack)


def _fold_worst(worst, inputs, lhs, rhs):
    """The running worst witness after the samples ``lhs <= rhs`` at
    ``inputs``, which come after every sample ``worst`` has seen."""
    lhs = np.asarray(lhs, dtype=float).reshape(-1)
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    slack = lhs - rhs
    i = int(np.argmax(slack))
    if worst is not None and not _beats(slack[i], worst["slack"]):
        return worst
    worst = {k: float(np.asarray(v).reshape(-1)[i]) for k, v in inputs.items()}
    worst.update(lhs=float(lhs[i]), rhs=float(rhs[i]), slack=float(slack[i]))
    return worst


def _condition_from_worst(name, worst, note=None):
    """The verdict on a condition's worst witness; a NaN slack is no
    verdict, so it raises, naming the sample's ``x`` (its mark when it has
    no state)."""
    if math.isnan(worst["slack"]):
        at = "x" if "x" in worst else "mark"
        raise NumericalDomainError(
            f"condition {name} has a NaN slack at {at} = {worst[at]:g}",
            state=worst.get("x"))
    bad = worst["slack"] > _tol_line(worst["rhs"])
    return ConditionResult(name, VIOLATED if bad else NO_VIOLATION,
                           worst=worst, note=note)


def _condition_from_arrays(name, inputs, lhs, rhs, note=None):
    """Reduce vectorized lhs/rhs samples to a ConditionResult (max slack,
    ties to the lowest index)."""
    return _condition_from_worst(name, _fold_worst(None, inputs, lhs, rhs),
                                 note)


def _assemble(assumption_id, conditions, grid_spec, notes=()):
    violated = [c for c in conditions if c.verdict == VIOLATED]
    worst = None
    if violated:
        worst = max(violated, key=lambda c: c.worst["slack"]).worst
    return AssumptionReport(
        assumption_id=assumption_id,
        verdict=VIOLATED if violated else NO_VIOLATION,
        worst_witness=worst,
        grid_spec=grid_spec,
        tolerance=DEFAULT_TOLERANCE,
        conditions=tuple(conditions),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairGrid:
    """Sampling spec for pair conditions: every anchor is paired with
    ``anchor -+ gap`` in both directions; pairs leaving ``interval`` (when
    set, strict) are dropped."""

    anchors: np.ndarray
    gaps: np.ndarray
    interval: Optional[tuple] = None
    label: str = ""

    @staticmethod
    def default(gap_max):
        return PairGrid(
            anchors=np.linspace(-10.0, 10.0, 101),
            gaps=np.geomspace(1e-6, gap_max, 401),
            label=("101 anchors in [-10,10] x 401 log-spaced gaps in "
                   f"[1e-06,{gap_max:g}], both directions"),
        )

    def chunks(self, gap_cap=None):
        """Every pair ``(x, y)``, each anchor minus each gap and then each
        anchor plus each gap, without the pairs that leave ``interval`` or
        have ``x == y``: in that order, as ``(x, y, edges)`` chunks of
        whole rows of pairs, one row per anchor and direction with the
        anchor as every pair's ``x``.  At most ``_CHUNK_PAIRS`` pairs a
        chunk, a longer row cut.  ``edges`` are the chunk's row edges from
        0 to its length.

        The grid's values are checked when this is called; each chunk is
        built when it is read.
        """
        anchors = np.asarray(self.anchors, dtype=float)
        gaps = np.asarray(self.gaps, dtype=float)
        for kind, values in (("anchor", anchors), ("gap", gaps)):
            if not np.all(np.isfinite(values)):
                raise DomainError(
                    f"pair grid ({self.describe()}) has a non-finite {kind}")
        if np.any(gaps <= 0):
            raise DomainError("pair grid contains a non-positive gap")
        if (gap_cap is not None
                and np.max(gaps, initial=0.0) > gap_cap * (1 + 1e-12)):
            raise DomainError(
                f"pair grid gap {gaps.max():g} exceeds the condition's "
                f"admissible range {gap_cap:g}"
            )
        # one row of pairs per anchor and direction, every anchor minus its
        # gaps first
        row_x = np.concatenate([anchors, anchors])
        row_sign = np.repeat([-1.0, 1.0], anchors.size)
        if row_x.size == 0 or gaps.size == 0:
            raise DomainError(f"pair grid ({self.describe()}) has no pairs")
        rows = max(1, _CHUNK_PAIRS // gaps.size)
        width = min(gaps.size, _CHUNK_PAIRS)

        def build():
            empty = True
            for r in range(0, row_x.size, rows):
                x = row_x[r:r + rows, None]
                for g in range(0, gaps.size, width):
                    y = x + row_sign[r:r + rows, None] * gaps[g:g + width]
                    keep = self._keeps(x, y)
                    counts = keep.sum(axis=1)
                    if counts.any():
                        empty = False
                        edges = np.cumsum(counts[counts > 0])
                        yield (np.repeat(x[:, 0], counts), y[keep],
                               np.concatenate(([0], edges)))
            if empty:
                raise DomainError(
                    f"pair grid ({self.describe()}) has no pairs")

        return build()

    def _keeps(self, x, y):
        """Which pairs ``(x, y)`` the grid keeps: those with ``x != y``
        inside ``interval``."""
        keep = x != y
        if self.interval is not None:
            lo, hi = self.interval
            keep &= (x > lo) & (x < hi) & (y > lo) & (y < hi)
        return keep

    def describe(self):
        base = self.label or (f"{len(self.anchors)} anchors x "
                              f"{len(self.gaps)} gaps, both directions")
        if self.interval is not None:
            base += f", clipped to ({self.interval[0]:g},{self.interval[1]:g})"
        return base


def _mark_grid(measure, n=101):
    """Uniform mark scan over the support hull (pieces plus atoms)."""
    los, his = [], []
    for lo, hi, _ in measure.pieces:
        los.append(lo)
        his.append(hi)
    for u, _ in measure.atoms:
        los.append(u)
        his.append(u)
    if not los:
        return np.zeros(0)
    lo, hi = min(los), max(his)
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# measure integrals (vectorized + independent scalar re-evaluation)
# ---------------------------------------------------------------------------

def _per_row(f, x, edges):
    """``f(x)`` for a pointwise ``f`` at a chunk's pairs, evaluated once
    per row of pairs at the row's anchor."""
    return np.repeat(f(x[edges[:-1]]), np.diff(edges))


def _mark_integral(measure, integrand, x, y, edges, cfunc=None):
    """``integral integrand(x_i, y_i, u) dmeasure(u)`` for each pair of a
    chunk, whose rows of pairs are ``edges[k]:edges[k + 1]``, in blocks of
    at most ``_PAIR_BLOCK`` pairs: consecutive whole rows share a block
    while they fit, and a longer row is cut into blocks of its own.

    ``integrand(xs, ys, u)`` receives a block's ``y`` as a ``(pairs, 1)``
    column, its ``x`` as another or, in a block of one row, the anchor as a
    ``(1, 1)`` array, and the marks as a ``(1, nodes)`` row.  It returns an
    array that broadcasts to ``(pairs, nodes)``, as any function of the
    model's coefficient values there does.  :meth:`MarkMeasure.integrate`
    sums each pair's row with its own dot product, so a pair's integral has
    the same bits in any block.  A non-finite integrand raises, naming the
    first failing pair's ``x``, or its ``y`` when the integrand reads the
    coefficient ``cfunc`` and only ``cfunc(y, u)`` is non-finite.
    """
    out = np.zeros(len(x))
    u = np.zeros(0) if measure is None else measure.nodes_and_weights()[0]
    edges = edges.tolist()
    k = a = 0
    while u.size and k < len(edges) - 1:
        # the last row edge within _PAIR_BLOCK pairs of the row's start,
        # past at least one row; a longer row is cut at _PAIR_BLOCK pairs
        end = max(k + 1, bisect.bisect_right(edges, edges[k] + _PAIR_BLOCK)
                  - 1)
        b = min(edges[end], a + _PAIR_BLOCK)
        vals = integrand(x[a:a + 1 if end == k + 1 else b, None],
                         y[a:b, None], u[None, :])
        total = out[a:b] = measure.integrate(lambda _: vals)
        # a non-finite value makes its sum non-finite; overflow alone passes
        if not np.isfinite(total).all() and not np.isfinite(vals).all():
            i = a + int(np.argmax(~np.isfinite(vals).all(axis=1)))
            state = float(x[i])
            if cfunc is not None and _finite_at(cfunc, state, u) \
                    and not _finite_at(cfunc, float(y[i]), u):
                state = float(y[i])
            raise NumericalDomainError(
                f"mark integral failed to evaluate at x = {state:g}",
                state=state)
        if b == edges[end]:
            k = end
        a = b
    return out


def _finite_at(cfunc, state, u):
    """Whether ``cfunc(state, u)`` is finite at every mark."""
    return bool(np.all(np.isfinite(cfunc(np.full((1, 1), state), u[None, :]))))


def _scalar_measure_integral(measure, g):
    """Simpson-on-uniform-nodes integral of ``g`` against the measure —
    deliberately a different quadrature from the Gauss-Legendre fast path."""
    if measure is None:
        return 0.0
    total = 0.0
    for lo, hi, dens in measure.pieces:
        from scipy.integrate import simpson
        us = np.linspace(lo, hi, 4097)
        total += float(simpson(g(us) * dens(us), x=us))
    for u0, w0 in measure.atoms:
        total += w0 * float(g(np.array([u0]))[0])
    return total


def _dc(cfunc, x, y, u, work=None):
    """``c(x, u) - c(y, u)`` on the coefficient's own values: a fresh
    ``(rows, 1)`` column when ``c`` is mark-free, a fresh ``(1, nodes)``
    row when it is state-free.  Only when one side varies along both axes
    is the difference written into ``work[:rows]`` (one row per ``y``),
    so neither a mark-free nor a state-free ``c`` is expanded here."""
    cx, cy = cfunc(x, u), cfunc(y, u)
    if work is not None and work[:len(y)].shape in (cx.shape, cy.shape):
        return np.subtract(cx, cy, out=work[:len(y)])
    return cx - cy


def _dc_integral(measure, cfunc, shape):
    """``(x, y, edges) -> integral shape(c(x_i,u) - c(y_i,u), |x_i - y_i|)
    dmeasure(u)`` for each pair of a chunk, by the blocked Gauss-Legendre
    rule.  A block's difference that varies along both pairs and marks
    goes to one ``(_PAIR_BLOCK x nodes)`` workspace, kept from chunk to
    chunk, which ``shape`` may overwrite; a column or a row is fresh.  A
    fresh difference per block makes the C allocator trim and re-fault the
    heap top on every block in many heap layouts: 68 000 page faults and
    twice the time of an ``example_41`` ``verify``."""
    work = None if measure is None else np.empty(
        (_PAIR_BLOCK, measure.nodes_and_weights()[0].size))

    def integral(x, y, edges):
        return _mark_integral(
            measure, lambda xs, ys, u: shape(_dc(cfunc, xs, ys, u, work),
                                             np.abs(xs - ys)), x, y, edges,
            cfunc)
    return integral


def _scalar_dc_integral(measure, cfunc, shape, x, y):
    """The Simpson twin of :func:`_dc_integral` at one pair of floats."""
    return _scalar_measure_integral(
        measure, lambda u: shape(_dc(cfunc, x, y, u), abs(x - y)))


# integrand shapes of dc = c(x,u) - c(y,u), shared by both quadrature paths;
# dc is a fresh difference or the workspace, so they work in place
def _abs_shape(dc, gap):
    return np.abs(dc, out=dc)


def _square_shape(dc, gap):
    return np.square(dc, out=dc)


def _reconfirm(condition, recompute):
    """Attach an independent re-evaluation of the worst witness."""
    if condition.verdict != VIOLATED or condition.worst is None:
        return condition
    lhs, rhs = recompute(condition.worst)
    condition.worst["reconfirmed"] = bool(lhs - rhs > _tol_line(rhs))
    condition.worst["recomputed_lhs"] = float(lhs)
    condition.worst["recomputed_rhs"] = float(rhs)
    return condition


def _pair_condition(name, grid, gap_cap, terms, recompute):
    """A pair condition ``lhs <= rhs`` over the pairs of ``grid``, reduced
    chunk by chunk to its worst pair: ``terms(x, y, d, edges) -> (lhs,
    rhs)`` on a chunk's pairs, their gaps ``d = |x - y|`` and its row
    edges.  The worst pair is reconfirmed by ``recompute(x, y) -> (lhs,
    rhs)`` on floats."""
    worst = None
    for x, y, edges in grid.chunks(gap_cap):
        d = np.abs(x - y)
        worst = _fold_worst(worst, {"x": x, "y": y, "gap": d},
                            *terms(x, y, d, edges))
    return _reconfirm(_condition_from_worst(name, worst),
                      lambda w: recompute(w["x"], w["y"]))


def _tail_ratio_condition(name, worst, steps, ratio_key, ratio_min,
                          integrand, edges, note):
    """The divergence certificate of a reciprocal integral from its twelve
    decade ``steps``: each is finite and positive, and the last keeps at
    least ``ratio_min`` of the one before.  ``worst`` gets the ratio under
    ``ratio_key`` and the slack.  A violation is reconfirmed from dense
    trapezoid integrals of ``integrand`` over the two decades ``edges``
    (11 and 12), which must both be finite and positive and keep the
    ratio."""
    ratio = steps[-1] / steps[-2] if steps[-2] > 0 else 0.0
    ok = bool(np.all(np.isfinite(steps) & (steps > 0))) and ratio >= ratio_min
    worst.update({ratio_key: float(ratio), "lhs": float(ratio_min - ratio),
                  "rhs": 0.0, "slack": float(ratio_min - ratio)})
    if not ok:
        g = []
        for lo, hi in edges:
            x = np.geomspace(lo, hi, 200001)
            g.append(float(np.trapezoid(integrand(x), x)))
        re_ratio = g[1] / g[0] if g[0] > 0 else 0.0
        worst["reconfirmed"] = bool(
            not all(0 < v < math.inf for v in g) or re_ratio < ratio_min)
        worst["recomputed_ratio"] = float(re_ratio)
    return ConditionResult(name, NO_VIOLATION if ok else VIOLATED,
                           worst=worst, note=note)


# ---------------------------------------------------------------------------
# A22 — modulus admissibility
# ---------------------------------------------------------------------------

def check_modulus(modulus):
    """Positivity, nondecrease, midpoint concavity, and the
    reciprocal-integral divergence certificate."""
    points = np.geomspace(1e-12, 1.0, 601)
    vals = modulus.rho(points)
    conditions = []

    def rho1(t):
        return float(modulus.rho(t))

    conditions.append(_reconfirm(
        _condition_from_arrays(
            "positivity", {"x": points}, -vals, np.zeros_like(vals)),
        lambda w: (-rho1(w["x"]), 0.0)))

    conditions.append(_reconfirm(
        _condition_from_arrays(
            "nondecrease", {"x": points[:-1], "x_next": points[1:]},
            vals[:-1], vals[1:]),
        lambda w: (rho1(w["x"]), rho1(w["x_next"]))))

    sub = points[::6]
    xi, xj = np.meshgrid(sub, sub, indexing="ij")
    xi, xj = xi.reshape(-1), xj.reshape(-1)
    mid = 0.5 * (xi + xj)
    lhs = 0.5 * (modulus.rho(xi) + modulus.rho(xj))
    rhs = modulus.rho(mid)
    conditions.append(_reconfirm(
        _condition_from_arrays(
            "midpoint_concavity", {"x": xi, "y": xj}, lhs, rhs),
        lambda w: (0.5 * (rho1(w["x"]) + rho1(w["y"])),
                   rho1(0.5 * (w["x"] + w["y"])))))

    from .analysis import omega_build
    base = min(modulus.domain_hint, 1.0)
    try:
        om = omega_build(modulus, base)
        decades = om.decade_values()
        conditions.append(_tail_ratio_condition(
            "reciprocal_divergence",
            {"base_point": base,
             "decade_values": [float(v) for v in decades]},
            -np.diff(decades), "decrement_ratio", DIVERGENCE_RATIO_MIN,
            lambda r: 1.0 / modulus.rho(r),
            [(base * 10.0 ** (-k), base * 10.0 ** (-(k - 1)))
             for k in (11, 12)],
            note=("certificate: per-decade decrements of the reciprocal "
                  f"transform stay positive with tail ratio >= "
                  f"{DIVERGENCE_RATIO_MIN}")))
    except DomainError as exc:
        probe = np.geomspace(1e-12, base, 101)
        pv = modulus.rho(probe)
        conditions.append(ConditionResult(
            "reciprocal_divergence", VIOLATED,
            worst={"lhs": 1.0, "rhs": 0.0, "slack": 1.0, "error": str(exc),
                   "reconfirmed": bool(np.min(pv) <= 0
                                       or not np.all(np.isfinite(pv)))},
            note="transform construction failed"))

    grid_spec = (f"{points.size} log-spaced points in "
                 f"[{points.min():g},{points.max():g}]; divergence probed "
                 "over 12 decades below the base point")
    return _assemble("A22", conditions, grid_spec)


# ---------------------------------------------------------------------------
# A23 — growth envelope
# ---------------------------------------------------------------------------

def _growth_lhs(model, x):
    x = np.asarray(x, dtype=float)
    b = model.b(x)
    sig = model.sigma(x)
    for name, arr in (("drift", b), ("diffusion", sig)):
        if not np.all(np.isfinite(arr)):
            i = int(np.argmax(~np.isfinite(arr)))
            raise NumericalDomainError(
                f"{name} evaluation failed at x = {x[i]:g}", state=float(x[i]))
    # each anchor a row of one pair, so anchors share blocks
    rows = np.arange(x.size + 1)
    return (2.0 * x * b + sig ** 2
            + _mark_integral(model.nu1,
                             lambda xs, ys, u: np.abs(model.c1(xs, u)) ** 2,
                             x, x, rows)
            + 2.0 * _mark_integral(
                model.u3_measure(),
                lambda xs, ys, u: np.abs(model.c2(xs, u)) ** 2, x, x, rows))


def _growth_decade_increments(upsilon):
    """``integral ds / (s Upsilon(s) + 1)`` over each decade ``[10^(k-1),
    10^k]``, k = 1..12, as ``integral e^v / (e^v Upsilon(e^v) + 1) dv``."""
    def integrand(v):
        s = np.exp(v)
        return s / (s * upsilon(s) + 1.0)

    return np.asarray([_gl_panel(integrand, (k - 1) * math.log(10.0),
                                 k * math.log(10.0))
                       for k in range(1, 13)])


def check_growth(model, upsilon, mu):
    """One-sided growth bound against ``mu [x^2 Upsilon(x^2) + 1]`` plus the
    envelope's own divergence certificate; the unboundedness condition is
    reported as a note (the constant envelope is itself a cataloged case).
    ``upsilon`` is a :class:`~jsde_lab.model.GrowthFunction` or a bare
    callable (an envelope without kinks)."""
    if not 0.0 <= mu < math.inf:
        raise DomainError("mu must be nonnegative and finite")
    upsilon = _float_array_valued(upsilon)
    anchors = _GROWTH_ANCHORS
    conditions = []
    notes = []

    lhs = _growth_lhs(model, anchors)
    rhs = mu * (anchors ** 2 * upsilon(anchors ** 2) + 1.0)
    cond = _condition_from_arrays(
        "growth_bound", {"x": anchors}, lhs, rhs)

    def recompute(w):
        x = w["x"]
        l = 2.0 * x * float(model.b(x)) + float(model.sigma(x)) ** 2
        l += _scalar_measure_integral(
            model.nu1, lambda u: np.abs(model.c1(x, u)) ** 2)
        l += 2.0 * _scalar_measure_integral(
            model.u3_measure(), lambda u: np.abs(model.c2(x, u)) ** 2)
        r = mu * (x * x * float(upsilon(x * x)) + 1.0)
        return l, r

    conditions.append(_reconfirm(cond, recompute))

    incs = _growth_decade_increments(upsilon)
    conditions.append(_tail_ratio_condition(
        "reciprocal_growth_divergence",
        {"decade_increments": [float(v) for v in incs]},
        incs, "increment_ratio", GROWTH_RATIO_MIN,
        lambda s: 1.0 / (s * upsilon(s) + 1.0),
        [(10.0 ** (k - 1), 10.0 ** k) for k in (11, 12)],
        note=("certificate: decade increments of the reciprocal growth "
              f"integral keep a tail ratio >= {GROWTH_RATIO_MIN}")))

    tail = upsilon(np.geomspace(10.0, 1e9, 17))
    if tail[-1] <= tail[0] * (1.0 + 1e-9):
        notes.append("envelope appears bounded on the sampled tail; the "
                     "constant envelope is an accepted cataloged case, so "
                     "unboundedness is noted, not enforced")

    grid_spec = (f"{anchors.size} anchors in [{anchors.min():g},"
                 f"{anchors.max():g}]; envelope divergence probed over 12 "
                 "decades")
    return _assemble("A23", conditions, grid_spec, notes)


def growth_ratio_supremum(model, upsilon):
    """Grid supremum of LHS/RHS-at-mu=1 — the smallest admissible ``mu`` on
    the growth grid (used to calibrate experiment presets)."""
    upsilon = _float_array_valued(upsilon)
    anchors = _GROWTH_ANCHORS
    lhs = _growth_lhs(model, anchors)
    rhs = anchors ** 2 * upsilon(anchors ** 2) + 1.0
    ratio = lhs / rhs
    i = int(np.argmax(ratio))
    return float(ratio[i]), float(anchors[i])


# ---------------------------------------------------------------------------
# A25 — corollary conditions (also the alpha = 0 route of A24)
# ---------------------------------------------------------------------------

def _corollary_conditions(model, rho1, rho2, delta0, grid,
                          include_monotonicity):
    if not 0.0 < delta0 < math.inf:
        raise DomainError("delta0 must be positive and finite")
    if grid is None:
        grid = PairGrid.default(delta0)
    conditions = []

    u3_measure = model.u3_measure()
    large_jumps = _dc_integral(u3_measure, model.c2, _abs_shape)
    conditions.append(_pair_condition(
        "drift_plus_large_jump_first_moment", grid, delta0,
        lambda x, y, d, edges: (
            (x - y) * (_per_row(model.b, x, edges) - model.b(y))
            + large_jumps(x, y, edges),
            d * rho1.rho(d)),
        lambda xx, yy: (
            (xx - yy) * (float(model.b(xx)) - float(model.b(yy)))
            + _scalar_dc_integral(u3_measure, model.c2, _abs_shape, xx, yy),
            abs(xx - yy) * float(rho1.rho(abs(xx - yy))))))

    small_jumps = _dc_integral(model.nu1, model.c1, _square_shape)
    conditions.append(_pair_condition(
        "diffusion_plus_small_jump_second_moment", grid, delta0,
        lambda x, y, d, edges: (
            (_per_row(model.sigma, x, edges) - model.sigma(y)) ** 2
            + small_jumps(x, y, edges),
            rho2.rho(d)),
        lambda xx, yy: (
            (float(model.sigma(xx)) - float(model.sigma(yy))) ** 2
            + _scalar_dc_integral(model.nu1, model.c1, _square_shape, xx, yy),
            float(rho2.rho(abs(xx - yy))))))

    if include_monotonicity and model.nu1 is not None:
        marks = _mark_grid(model.nu1)
        anchors = np.sort(np.unique(np.asarray(grid.anchors, dtype=float)))
        if anchors.size < 2:
            raise DomainError(f"pair grid ({grid.describe()}) has one anchor; "
                              "the c1 monotonicity scan needs two")
        c = np.broadcast_to(model.c1(anchors[:, None], marks[None, :]),
                            (anchors.size, marks.size))
        lhs = c[:-1, :].reshape(-1)
        rhs = c[1:, :].reshape(-1)
        xi = np.repeat(anchors[:-1], marks.size)
        xj = np.repeat(anchors[1:], marks.size)
        uu = np.tile(marks, anchors.size - 1)
        cond3 = _condition_from_arrays(
            "c1_monotone_in_state", {"x": xi, "x_next": xj, "mark": uu},
            lhs, rhs,
            note="scan: c1(x, u) must be nondecreasing in x for each "
                 "sampled mark")

        def recompute3(w):
            return (float(model.c1(w["x"], w["mark"])),
                    float(model.c1(w["x_next"], w["mark"])))

        conditions.append(_reconfirm(cond3, recompute3))

    return conditions, grid


def check_corollary_conditions(model, rho1, rho2, delta0, grid=None):
    """Drift/large-jump condition against ``rho_1``, diffusion/small-jump
    condition against ``rho_2``, and the c1 monotonicity scan."""
    conditions, grid = _corollary_conditions(
        model, rho1, rho2, delta0, grid, True)
    return _assemble("A25", conditions, grid.describe())


# ---------------------------------------------------------------------------
# A24 — local alpha-indexed conditions
# ---------------------------------------------------------------------------

def check_local_conditions(model, modulus, alpha, delta0, grid=None):
    """Local conditions with exponent ``alpha`` on gaps in ``(0, delta0]``.

    ``alpha = 0`` is routed to the Lipschitz-style condition set (the
    corollary inequalities with the one modulus in both roles, monotonicity
    scan excluded) and reported under this assumption id.
    """
    if not 0.0 < delta0 < math.inf:
        raise DomainError("delta0 must be positive and finite")
    if not 0.0 <= alpha < math.inf:
        raise DomainError("alpha must be nonnegative and finite")
    if alpha == 0:
        conditions, grid = _corollary_conditions(
            model, modulus, modulus, delta0, grid, False)
        return _assemble(
            "A24", conditions, grid.describe(),
            notes=("alpha = 0 routed to the Lipschitz-style condition set "
                   "(one modulus in both roles)",))

    if grid is None:
        grid = PairGrid.default(delta0)

    def scalar_rho(xx, yy):
        return float(modulus.rho(abs(xx - yy) ** alpha))

    conditions = [_pair_condition(
        "drift_or_diffusion_local", grid, delta0,
        lambda x, y, d, edges: (
            np.maximum(
                (x - y) * (_per_row(model.b, x, edges) - model.b(y)),
                (_per_row(model.sigma, x, edges) - model.sigma(y)) ** 2),
            d ** (2.0 - alpha) * modulus.rho(d ** alpha)),
        lambda xx, yy: (
            max((xx - yy) * (float(model.b(xx)) - float(model.b(yy))),
                (float(model.sigma(xx)) - float(model.sigma(yy))) ** 2),
            abs(xx - yy) ** (2.0 - alpha) * scalar_rho(xx, yy)))]

    def shape(dc, gap):
        dc = np.abs(dc)
        return np.maximum(dc ** alpha, gap ** (alpha - 1.0) * dc)

    def jump_condition(name, measure, cfunc):
        jumps = _dc_integral(measure, cfunc, shape)
        return _pair_condition(
            name, grid, delta0,
            lambda x, y, d, edges: (jumps(x, y, edges),
                                    modulus.rho(d ** alpha)),
            lambda xx, yy: (
                _scalar_dc_integral(measure, cfunc, shape, xx, yy),
                scalar_rho(xx, yy)))

    if model.nu1 is not None:
        conditions.append(jump_condition(
            "small_jump_local", model.nu1, model.c1))
    u3_measure = model.u3_measure()
    if u3_measure is not None and u3_measure.total_mass > 0:
        conditions.append(jump_condition(
            "large_jump_local", u3_measure, model.c2))

    return _assemble("A24", conditions, grid.describe())


# ---------------------------------------------------------------------------
# A26 — non-confluence conditions
# ---------------------------------------------------------------------------

def check_nonconfluence_conditions(model, modulus, alpha, delta, grid=None,
                                   affine_k=None):
    """Global gap conditions through ``rho(|x-y|^-alpha)`` plus the jump
    separation requirement.

    The separation condition quantifies over all pairs per mark and is
    checked by sampling (falsification only); for affine jump maps
    ``c(x, u) = k(u) x`` pass ``affine_k`` — the condition then reduces to
    ``|1 + k(u)| > delta`` scanned densely over marks.
    """
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if not 0.0 <= alpha < math.inf:
        raise DomainError("alpha must be nonnegative and finite")
    affine_k = _float_array_valued(affine_k)
    if grid is None:
        grid = PairGrid.default(20.0)

    def rhs(d, power):
        return d ** power * modulus.rho(d ** (-alpha))

    def scalar_rhs(xx, yy, power):
        gap = abs(xx - yy)
        return gap ** power * float(modulus.rho(gap ** (-alpha)))

    conditions = [_pair_condition(
        "drift_global", grid, None,
        lambda x, y, d, edges: (
            (x - y) * (_per_row(model.b, x, edges) - model.b(y)),
            rhs(d, 2.0 + alpha)),
        lambda xx, yy: (
            (xx - yy) * (float(model.b(xx)) - float(model.b(yy))),
            scalar_rhs(xx, yy, 2.0 + alpha)))]

    conditions.append(_pair_condition(
        "diffusion_global", grid, None,
        lambda x, y, d, edges: (
            (_per_row(model.sigma, x, edges) - model.sigma(y)) ** 2,
            rhs(d, 2.0 + alpha)),
        lambda xx, yy: (
            (float(model.sigma(xx)) - float(model.sigma(yy))) ** 2,
            scalar_rhs(xx, yy, 2.0 + alpha))))

    for name, measure, cfunc in (("small_jump_first_moment", model.nu1,
                                  model.c1),
                                 ("large_jump_first_moment", model.nu2,
                                  model.c2)):
        if measure is not None:
            jumps = _dc_integral(measure, cfunc, _abs_shape)
            conditions.append(_pair_condition(
                name, grid, None,
                lambda x, y, d, edges: (jumps(x, y, edges),
                                        rhs(d, 1.0 + alpha)),
                lambda xx, yy: (
                    _scalar_dc_integral(measure, cfunc, _abs_shape, xx, yy),
                    scalar_rhs(xx, yy, 1.0 + alpha))))

    conditions.append(_separation_condition(model, delta, grid, affine_k))

    return _assemble("A26", conditions, grid.describe())


def _window_mass(measure, u):
    if measure is None:
        return 0.0
    hull = _mark_grid(measure, 2)
    if hull.size == 0:
        return 0.0
    w = max((hull.max() - hull.min()) * 1e-3, 1e-12)
    return float(measure.mass_in((Band(u - w, u + w,
                                       closed_lo=True, closed_hi=True),)))


def _separation_condition(model, delta, grid, affine_k):
    sources = [("small", model.nu1, model.c1), ("large", model.nu2, model.c2)]
    worst = None
    for tag, measure, cfunc in sources:
        if measure is None:
            continue
        if affine_k is not None:
            marks = _mark_grid(measure, 1001)
            margin = np.abs(1.0 + affine_k(marks))
            lhs = delta - margin          # violated when >= 0 (margin <= delta)
            i = int(np.argmax(lhs))
            cand = {"mark": float(marks[i]), "source": tag,
                    "lhs": float(lhs[i]), "rhs": 0.0, "slack": float(lhs[i]),
                    "factor": float(margin[i]),
                    "mark_window_mass": _window_mass(measure, float(marks[i]))}
        else:
            marks = _mark_grid(measure, 101)
            xs = np.asarray(grid.anchors, dtype=float)[::2]
            gaps = np.asarray(grid.gaps, dtype=float)[::8]
            # whole anchors per chunk, its (pairs x marks) arrays about a
            # pair chunk's length
            step = max(1, _CHUNK_PAIRS // max(gaps.size * marks.size, 1))
            top = None
            for a in range(0, xs.size, step):
                x = np.repeat(xs[a:a + step], gaps.size)
                y = x - np.tile(gaps, xs[a:a + step].size)
                keep = grid._keeps(x, y)
                if not keep.any():
                    continue
                x, y = x[keep], y[keep]
                moved = np.abs((x - y)[:, None] + cfunc(x[:, None], marks)
                               - cfunc(y[:, None], marks))
                lhs = np.broadcast_to(delta * np.abs(x - y)[:, None] - moved,
                                      (x.size, marks.size))
                pi, mi = divmod(int(np.argmax(lhs)), marks.size)
                if top is None or _beats(lhs[pi, mi], top[0]):
                    top = (float(lhs[pi, mi]), float(x[pi]), float(y[pi]),
                           float(marks[mi]))
            if top is None:
                raise DomainError(f"pair grid ({grid.describe()}) leaves the "
                                  "sampled separation scan no pairs")
            slack, x_top, y_top, mark = top
            cand = {"mark": mark, "source": tag, "x": x_top, "y": y_top,
                    "lhs": slack, "rhs": 0.0, "slack": slack,
                    "mark_window_mass": _window_mass(measure, mark)}
        if worst is None or _beats(cand["slack"], worst["slack"]):
            worst = cand
    if worst is None:
        return ConditionResult("jump_separation", NO_VIOLATION,
                               note="no jump measures present")
    note = ("separation is falsification-only: a bad mark is reported with "
            "the measure mass in a small window around it")
    if affine_k is not None:
        note = ("affine shortcut: |1 + k(u)| > delta scanned over a dense "
                "mark grid; " + note)
    cond = _condition_from_worst("jump_separation", worst, note)
    if cond.verdict == VIOLATED:
        if affine_k is not None:
            cond.worst["reconfirmed"] = bool(
                delta - abs(1.0 + float(affine_k(worst["mark"])))
                > _tol_line(0.0))
        else:
            mdl = dict((t, c) for t, _, c in sources)[worst["source"]]
            xx, yy, uu = worst["x"], worst["y"], worst["mark"]
            moved = abs(xx - yy + float(mdl(xx, uu)) - float(mdl(yy, uu)))
            cond.worst["reconfirmed"] = bool(
                delta * abs(xx - yy) - moved > _tol_line(0.0))
    return cond


# ---------------------------------------------------------------------------
# designated preset checks
# ---------------------------------------------------------------------------

def designated_sets(label):
    """The designated parameter sets of the preset named ``label``:
    assumption id -> ``(checker, keyword arguments)``, in report order;
    empty for a model that has none."""
    inv_e = 1.0 / math.e
    five_id = scale_modulus(builtin_modulus("identity"), 5.0)
    table = {
        "example_31": {
            "A23": (check_growth, dict(upsilon=builtin_growth("log"),
                                       mu=MU_EXAMPLE_31)),
            "A25": (check_corollary_conditions, dict(
                rho1=builtin_modulus("neg_x_log_x"),
                rho2=scale_modulus(builtin_modulus("identity"), 3.0),
                delta0=inv_e,
                grid=PairGrid(
                    anchors=np.linspace(1e-6, inv_e - 1e-6, 101),
                    gaps=np.geomspace(1e-6, inv_e - 2e-6, 401),
                    interval=(0.0, inv_e),
                    label="101 anchors x 401 log-spaced gaps, both "
                          "directions"))),
        },
        "example_41": {
            "A23": (check_growth, dict(upsilon=builtin_growth("one"),
                                       mu=MU_EXAMPLE_41)),
            "A24": (check_local_conditions, dict(
                modulus=five_id, alpha=0.0, delta0=1.0)),
            "A26": (check_nonconfluence_conditions, dict(
                modulus=five_id, alpha=0.0, delta=0.5,
                grid=PairGrid(
                    anchors=np.linspace(-5.0, 5.0, 101),
                    gaps=np.geomspace(1e-6, 10.0, 401),
                    label="101 anchors in [-5,5] x 401 log-spaced gaps, "
                          "both directions"),
                affine_k=lambda u: GAMMA * np.abs(u))),
        },
    }
    return table.get(label, {})


def designated_checks(model):
    """The frozen per-preset condition sets.

    * ``example_31`` — growth bound with the logarithmic envelope at
      ``mu = (e + 3 sqrt(e)) / (e + 1)`` (the exact supremum, attained at
      ``-sqrt(e)``), plus the corollary conditions with ``rho_1`` the
      (-x ln x)-modulus (the drift's own increment bound) and ``rho_2`` three
      times the identity, on pairs inside ``(0, 1/e)``.
    * ``example_41`` — growth bound with the constant envelope at the frozen
      supremum, the alpha = 0 local route, and the non-confluence set at
      ``alpha = 0, delta = 0.5`` with the affine separation shortcut.
    """
    sets = designated_sets(model.label)
    if not sets:
        raise CatalogError(
            f"no designated checks for model {model.label!r}; known: "
            "['example_31', 'example_41']")
    return [check(model, **params) for check, params in sets.values()]


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------

def reports_to_json(reports):
    return json.dumps([r.to_dict() for r in reports], indent=2)


def format_report_table(reports):
    """condition -> verdict -> worst slack, one row per checked condition."""
    rows = [("condition", "verdict", "worst slack")]
    for rep in reports:
        for cond in rep.conditions:
            slack = ("" if cond.worst is None
                     else f"{cond.worst['slack']:.6g}")
            rows.append((f"{rep.assumption_id}:{cond.name}", cond.verdict,
                         slack))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
