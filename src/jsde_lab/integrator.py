"""Jump-adapted Euler scheme with optional drift taming and explosion capture.

The path is advanced on the union of the base grid with the event times.  At
an event time the continuous Euler step is applied first (that value is the
left limit) and the jump increment lands on top of it.  The compensated
small-jump stream contributes its compensation as an explicit drift
``-integral c1(x, u) nu1(du)`` per step; taming, when on, replaces the raw
drift increment ``b(x) dt`` by ``b(x) dt / (1 + |b(x)| dt)`` and touches
nothing else.  Explosion is operationalized as the first recorded state with
``|X| >= R``; the path is truncated there.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalDomainError
from .model import _float_array_valued, in_bands
from .noise import LARGE, SMALL, SOURCES, NoiseBatch

TAMING_MODES = ("off", "drift_tamed")


@dataclass(frozen=True)
class SchemeConfig:
    base_step: float
    explosion_radius: float = 1e6
    taming: str = "off"
    restrict_to_u3: bool = False

    def __post_init__(self):
        # a str would reach a raw TypeError, a bool pass as 1 or 0, and a
        # truthy "no" switch the U3 filter on
        for name in ("base_step", "explosion_radius"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number")
        if not isinstance(self.restrict_to_u3, bool):
            raise DomainError("restrict_to_u3 must be a bool")
        if not 0 < self.base_step < math.inf:
            raise DomainError("base_step must be positive and finite")
        if not self.explosion_radius > 0:
            raise DomainError("explosion_radius must be positive")
        if self.taming not in TAMING_MODES:
            raise DomainError(
                f"taming must be one of {TAMING_MODES}, got {self.taming!r}"
            )


# ``PathResult.event_codes`` values, by code; a jump's code is its event's
KIND_NAMES = ("grid", "small_jump", "large_jump", "exit")
SMALL_CODE = SOURCES.index(SMALL)
LARGE_CODE = SOURCES.index(LARGE)


@dataclass(frozen=True)
class PathResult:
    """One integrated path.  ``event_codes[i]`` says what made state ``i``:
    an index into :data:`KIND_NAMES` (the last jump applied there, or
    ``exit`` where the path ends beyond the radius).  From a batch, the
    arrays are strided views that keep the batch's arrays alive."""

    times: np.ndarray
    states: np.ndarray
    exploded: bool
    exit_time: Optional[float]
    realization_seed: int
    event_codes: np.ndarray

    @property
    def kinds(self):
        """The event kind of each state, as names."""
        return tuple(np.take(KIND_NAMES, self.event_codes).tolist())

    def state_at_end(self):
        return float(self.states[-1])


def _coeff(value, x, name, where=None):
    """``value``, a coefficient's floats at the states ``x``; a non-finite
    entry raises.  ``where = (rows, times, seeds, steps)`` locates entry
    ``i`` as batch row ``rows[i]`` at time ``times[rows[i]]``."""
    if np.isfinite(value).all():
        return value
    bad = np.flatnonzero(~np.isfinite(value))
    state = float(np.ravel(x)[bad[0]])
    located = {}
    if where is not None:
        rows, times, seeds, steps = where
        p = int(rows[bad[0]])
        located = dict(path_index=p, seed=seeds[p], step=steps[p],
                       t=float(times[p]))
    raise NumericalDomainError(f"{name} is non-finite at state {state!r}",
                               state=state, **located)


def _continuous_step(x, dt, dw, model, tamed, where=None, check=True):
    """One Euler advance over a jump-free interval; returns the new state.

    A non-finite coefficient always makes the new state non-finite (``dt``
    is positive, and ``inf * 0`` is nan), so with ``check`` the coefficients
    are checked, in the order b, sigma, compensation, only when it is.
    """
    b = model.b(x)
    sig = model.sigma(x)
    comp = model.c1_mean(x) if model.nu1 is not None else 0.0
    b_inc = b * dt / (1.0 + np.abs(b) * dt) if tamed else b * dt
    x_new = x + (b_inc - comp * dt) + sig * dw
    if check and np.count_nonzero(~np.isfinite(x_new)):
        _coeff(b, x, "drift b", where)
        _coeff(sig, x, "diffusion sigma", where)
        _coeff(comp, x, "compensation drift", where)
    return x_new


def _batches(noises):
    """``noises`` as a list of :class:`NoiseBatch`: a batch or a sequence
    of them."""
    return [noises] if isinstance(noises, NoiseBatch) else list(noises)


def _joined(batches, field):
    """The ``field`` arrays of ``batches``, laid end to end."""
    return np.concatenate([getattr(batch, field) for batch in batches])


def _event_layers(batches, u3, restrict_to_u3, rows=None):
    """The jumps the scheme applies to the rows of ``batches``, in order, as
    ``{s: [(paths, marks, code), ...]}``, and the last at each step of each
    path as ``(steps, paths, codes)``; row ``i`` is path ``rows[i]`` or ``i``.

    An event lands at the end of its step ``s``.  A step's groups hold each
    path's first event there, then each path's second, and so on, in
    ``events`` order, so applying them in turn keeps that order; the events
    of one group share a ``code``.
    """
    events, steps = _joined(batches, "events"), _joined(batches, "event_steps")
    counts = np.concatenate([np.diff(b.event_offsets) for b in batches])
    n = len(counts)
    paths = np.repeat(np.arange(n) if rows is None else rows, counts)
    if restrict_to_u3:
        keep = (events["code"] == SMALL_CODE) | in_bands(u3, events["mark"])
        events, paths, steps = events[keep], paths[keep], steps[keep]
    # rank each event among its path's earlier events at the same step
    key = steps * n + paths
    order = np.argsort(key, kind="stable")
    ranks = np.arange(len(key)) - np.searchsorted(key[order], key[order])
    ends = order[np.diff(key[order], append=-1) != 0]
    last = (steps[ends], paths[ends], events["code"][ends])
    codes = events["code"][order]
    by_group = np.lexsort((codes, ranks, steps[order]))
    order, ranks, codes = order[by_group], ranks[by_group], codes[by_group]
    steps, paths, marks = steps[order], paths[order], events["mark"][order]
    cuts = np.flatnonzero(np.diff(steps) | np.diff(ranks) | np.diff(codes))
    bounds = [0, *(cuts + 1).tolist(), len(order)] if order.size else [0]
    steps, codes = steps.tolist(), codes.tolist()
    layers = {}
    for a, b in zip(bounds, bounds[1:]):
        layers.setdefault(steps[a], []).append(
            (paths[a:b], marks[a:b], codes[a]))
    return layers, last


def _per_noise(value, n):
    """``value`` given once, or once per noise, as a list of ``n``."""
    if isinstance(value, SchemeConfig) or np.ndim(value) == 0:
        return [value] * n
    value = list(value)
    if len(value) != n:
        raise DomainError(f"got {len(value)} values for {n} noise "
                          "realizations")
    return value


def simulate_paths(model, noises, scheme, x0):
    """Run the scheme over each noise realization.

    ``noises`` is a :class:`NoiseBatch` or a sequence of them, whose rows
    run in order; one realization is a batch of one.
    ``scheme`` and the initial state ``x0`` are given once or once per row.
    Each batch's base grid must match its rows' schemes' ``base_step``, so
    one call can mix a batch with its coarsenings; the schemes must agree
    in taming, radius and ``restrict_to_u3``.

    All paths advance together, one step index at a time, the longest
    jump-adapted grid first: until a path exits, the running paths are a
    prefix, read and written as views, and then they are gathered by index.
    Returns one :class:`PathResult` per realization, in order, each the same
    to the bit as the realization run alone.  A step is checked once, at its
    end, where a non-finite state fails the radius test; such a step is
    replayed with every coefficient checked, paths in input order, to raise
    :class:`NumericalDomainError` with ``path_index`` (the position in
    ``noises``), that path's ``seed`` and base ``step``, ``t`` and ``state``.
    A path's arrays view its column of the run's step-major arrays, without
    a copy: they are strided, and one kept path keeps the run's arrays alive.
    """
    run = _integrate(model, noises, scheme, x0)
    if run is None:
        return []
    times, states, cols, ends, seeds, (steps, at, last), _, exploded = run
    # a state's code: its last jump's, or "exit" where its path ends outside
    codes = np.zeros(states.shape, dtype=np.int8)
    codes[steps + 1, at] = last
    codes[ends[exploded], cols[exploded]] = 3
    return [PathResult(times[:end + 1, p], states[:end + 1, p], out,
                       float(times[end, p]) if out else None, seed,
                       codes[:end + 1, p])
            for p, end, out, seed in zip(cols.tolist(), ends.tolist(),
                                         exploded.tolist(), seeds)]


def _integrate(model, noises, scheme, x0):
    """The run of :func:`simulate_paths`, or None for no rows, as ``(times,
    states, cols, ends, seeds, last_jumps, finals, exploded)``: step-major
    ``times`` and ``states``, one column per row, to read up to the row's
    last step (the slots past it may never be written); per input row, its
    column, last step, seed, last state and whether it exploded; and each
    state's last jump, as ``(steps, cols, codes)``."""
    batches = _batches(noises)
    n = sum(len(batch) for batch in batches)
    schemes = _per_noise(scheme, n)
    x0 = np.array(_per_noise(x0, n), dtype=float)
    rows = [batch for batch in batches for _ in batch.seeds]
    for batch, h in {(b, sch.base_step) for b, sch in zip(rows, schemes)}:
        steps = np.diff(batch.base_grid)[:-1]
        if steps.size and np.max(np.abs(steps - h)) > 1e-9 * h:
            raise DomainError(
                "scheme base_step does not match the noise base grid"
            )
    if not n:
        return None
    shared = {(sch.taming, sch.explosion_radius, sch.restrict_to_u3)
              for sch in schemes}
    if len(shared) > 1:
        raise DomainError("the schemes of one batch must agree in taming, "
                          "explosion_radius and restrict_to_u3")
    scheme = schemes[0]
    radius = scheme.explosion_radius
    tamed = scheme.taming == "drift_tamed"
    seeds = [seed for batch in batches for seed in batch.seeds]
    base_steps = [sch.base_step for sch in schemes]
    sizes = np.concatenate([np.diff(b.offsets) for b in batches])
    # column j holds input row order[j], the longest grid first
    order = np.argsort(-sizes, kind="stable")
    rank = np.argsort(order)
    lengths = sizes[order] - 1
    m = int(lengths[0])
    # step-major, one step of every path to a contiguous row; the slots past
    # a path's grid end are never touched.  ``at``: each union entry's slot
    times, dws = np.empty((m + 1, n)), np.empty((m, n))
    at = np.repeat(rank - (np.cumsum(sizes) - sizes) * n, sizes)
    at += np.arange(0, len(at) * n, n)
    times.ravel()[at] = _joined(batches, "union_times")
    dws.ravel()[np.delete(at, np.cumsum(sizes) - 1)] = _joined(
        batches, "union_increments")
    del at
    layers, (at_step, at_path, last) = _event_layers(
        batches, model.u3, scheme.restrict_to_u3, rank)
    states = np.empty((m + 1, n))
    states[0] = x0[order]
    exploded = np.abs(states[0]) >= radius
    ends = np.where(exploded, 0, lengths)
    grid_ends = set(lengths.tolist())
    # ``live`` is None while the running paths are the prefix [:running[s]]
    running = np.searchsorted(-lengths, -np.arange(m)).tolist()
    live = np.flatnonzero(~exploded) if exploded.any() else None
    jumps = {SMALL_CODE: (model.c1, "jump c1"),
             LARGE_CODE: (model.c2, "jump c2")}

    def step(s, cols, groups, check=False):
        """Advance ``cols`` over step ``s``; ``check`` checks every value."""
        def where(t, cols):
            return check and (order[cols], times[t, rank], seeds, base_steps)
        start, row = states[s, cols], states[s + 1]
        row[cols] = _continuous_step(
            start, times[s + 1, cols] - times[s, cols], dws[s, cols], model,
            tamed, where(s, cols), check)
        for paths, marks, code in groups:
            fn, name = jumps[code]
            xr = row[paths]
            jump = fn(xr, marks)
            row[paths] = xr + (_coeff(jump, xr, name, where(s + 1, paths))
                               if check else jump)
        xs = row[cols]
        if check:
            _coeff(xs, start, "the state after a step", where(s + 1, cols))
        return xs

    for s in range(m):
        groups = layers.get(s, ())
        if live is None:
            cols = slice(running[s])
        else:
            if s in grid_ends:
                live = live[lengths[live] > s]
            if not live.size:
                break
            cols = live
            groups = [(p[keep], mk[keep], code) for p, mk, code in groups
                      for keep in (~exploded[p],) if keep.any()]
        xs = step(s, cols, groups)
        inside = np.abs(xs) < radius            # False on nan too
        if np.count_nonzero(inside) == len(xs):
            continue
        live = np.arange(running[s]) if live is None else live
        if not np.isfinite(xs[~inside]).all():
            # replay the step, checked, to name the first failing path
            step(s, live[np.argsort(order[live])],
                 [(p[i], mk[i], code) for p, mk, code in groups
                  for i in (np.argsort(order[p]),)], check=True)
        exploded[live[~inside]] = True
        ends[live[~inside]] = s + 1
        live = live[inside]

    return (times, states, rank, ends[rank], seeds, (at_step, at_path, last),
            states[ends[rank], rank], exploded[rank])


def simulate(model, noise, scheme, x0):
    """Run the scheme over one noise realization from initial state ``x0``:
    :func:`simulate_paths` on a batch of one."""
    return simulate_paths(model, noise, scheme, x0)[0]


def first_exit_time(path, radius):
    """Earliest recorded time with ``|state| >= radius`` (or None)."""
    if not radius > 0:
        raise DomainError("radius must be positive")
    hits = np.flatnonzero(np.abs(path.states) >= radius)
    return float(path.times[hits[0]]) if hits.size else None


def _first_exits(times, states, cols, ends, radii):
    """Each row's :func:`first_exit_time` at each positive radius, ``inf``
    where it has none, read from :func:`_integrate`'s arrays."""
    written = np.arange(len(states))[:, None] <= ends[np.argsort(cols)]
    size = np.abs(states, where=written, out=np.zeros(states.shape))
    hits = size[:, :, None] >= np.asarray(radii)
    first = hits.argmax(axis=0)
    exits = np.where(hits.any(axis=0),
                     times[first, np.arange(len(cols))[:, None]], math.inf)
    return exits[cols]


def _min_distances(times, states, cols, ends, exploded):
    """Per row of the first half, the least ``|X - Y|`` to its partner in
    the second over their written steps (nan where either exploded), read
    from :func:`_integrate`'s arrays; partners must share their times."""
    (a, b), (end_a, end_b) = np.split(cols, 2), np.split(ends, 2)
    inside = ~np.logical_or(*np.split(exploded, 2))
    both = np.arange(len(states))[:, None] <= np.where(
        inside, np.minimum(end_a, end_b), -1)
    if not ((end_a == end_b)[inside].all() and np.equal(
            times[:, a], times[:, b], where=both,
            out=np.ones(both.shape, bool)).all()):
        raise AssertionError("common-noise grids diverged between the "
                             "two starts")
    # one gathered start at a time, and no arithmetic on unwritten slots
    gaps = states[:, a]
    np.subtract(gaps, states[:, b], out=gaps, where=both)
    gaps[~both] = math.nan
    return np.fmin.reduce(np.abs(gaps, out=gaps), axis=0)


def ito_levy_apply(f, path, model, noise, scheme):
    """March the transformed process ``Y = f(X)`` term-by-term.

    ``f`` is a triple ``(f, f', f'')`` of callables of the state, called
    with float arrays and wrapped like every coefficient.  ``noise`` must be
    a batch of one and ``path`` integrated on it, else :class:`DomainError`.
    Each step adds, in turn: the drift ``f'b + (1/2) sigma^2 f'' +
    integral{f(x+c1)-f(x)-f'c1} dnu1 - integral{f(x+c1)-f(x)} dnu1`` (the
    last term compensates the small jumps) times ``dt``, ``f' sigma dW``,
    and ``f(x- + c) - f(x-)`` for each jump ``scheme`` applied, from the
    left limit ``x-`` that its continuous update gives.  A non-finite value
    raises :class:`NumericalDomainError` with the ``seed``, ``step`` and
    ``t``.
    """
    fn, fp, fpp = map(_float_array_valued, f)
    n = len(path.times)
    if path.realization_seed != noise.seed \
            or not np.array_equal(path.times, noise.union_times[:n]):
        raise DomainError("the path was not integrated on this noise")
    tamed = scheme.taming == "drift_tamed"
    x, dt = path.states[:-1], np.diff(path.times)
    dw = noise.union_increments[:n - 1]
    b, sig, fpx = model.b(x), model.sigma(x), fp(x)
    b_eff = b / (1.0 + np.abs(b) * dt) if tamed else b
    j1 = j2 = 0.0
    if model.nu1 is not None:
        xs = x[:, None]
        c1 = model.c1(xs, model.nu1.nodes_and_weights()[0])
        j2 = model.nu1.integrate(lambda u: fn(xs + c1) - fn(xs))
        j1 = j2 - fpx * model.nu1.integrate(lambda u: c1)
    drift = fpx * b_eff + 0.5 * sig * sig * fpp(x) + j1 - j2
    layers, _ = _event_layers(_batches(noise), model.u3, scheme.restrict_to_u3)
    events = [(s, mark, code) for s, groups in layers.items() if s < n - 1
              for _, (mark,), code in groups]
    steps = np.array([s for s, _, _ in events], dtype=np.intp)
    at = np.unique(steps)
    xm = _continuous_step(x[at], dt[at], dw[at], model, tamed, check=False)
    jumps = []
    for j, (_, mark, code) in zip(at.searchsorted(steps), events):
        c = (model.c1 if code == SMALL_CODE else model.c2)(xm[j], mark)
        jumps.append(fn(xm[j] + c) - fn(xm[j]))
        xm[j] = xm[j] + c
    # y0, then each step's drift, diffusion and jumps, as one running sum
    pairs = np.stack([drift * dt, fpx * sig * dw], axis=1).ravel()
    ys = np.add.accumulate(np.r_[fn(path.states[0]),
                                 np.insert(pairs, 2 * steps + 2, jumps)])
    k = np.arange(n - 1)
    ys = ys[np.r_[0, 2 * k + 2 + steps.searchsorted(k, "right")]]
    bad = np.flatnonzero(~np.isfinite(np.c_[b, sig, ys[1:]]).all(axis=1))
    if bad.size:
        # replay the first failing step, checked in the order of its terms
        i, t = bad[0], float(path.times[bad[0] + 1])
        where = ([0], [path.times[i]], [noise.seed], [scheme.base_step])
        _coeff(b[i:i + 1], x[i:i + 1], "drift b", where)
        _coeff(sig[i:i + 1], x[i:i + 1], "diffusion sigma", where)
        if i in at:
            _continuous_step(x[i], dt[i], dw[i], model, tamed, where)
        raise NumericalDomainError(
            f"transformed state became non-finite at t = {t:g}",
            state=float(ys[i + 1]), path_index=0, seed=noise.seed, t=t,
            step=scheme.base_step)
    return PathResult(path.times, ys, path.exploded, path.exit_time,
                      path.realization_seed, path.event_codes)


def dump_path_csv(path, model, scheme, filepath):
    """Path dump: metadata line, then (time, state, event_kind) rows."""
    with open(filepath, "w", newline="") as fh:
        fh.write(f"# model={model.label} seed={path.realization_seed} "
                 f"h={scheme.base_step:.17g} R={scheme.explosion_radius:.17g}\n")
        w = csv.writer(fh)
        w.writerow(["time", "state", "event_kind"])
        for t, s, k in zip(path.times, path.states, path.kinds):
            w.writerow([f"{t:.17g}", f"{s:.17g}", k])
