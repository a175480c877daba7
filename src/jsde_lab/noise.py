"""Reproducible driving noise: Brownian increments plus marked jump events.

A realization is a pure record of random draws — Brownian increments on the
union of the base grid with the jump times, and the two marked event streams
as one array of ``(time, mark, code)`` rows: ``code`` 1 for compensated
small jumps, 2 for interlaced large jumps.  All randomness comes from a
counter-based generator keyed by ``(seed, stream)``:

* stream 0 — Brownian increments,
* stream 1 — small-jump (compensated) events,
* stream 2 — large-jump events.

Enlarging one stream never perturbs the others, which is what coupling and
refinement studies need.  Multi-resolution coupling goes through
:meth:`NoiseBatch.coarsen`: sample once at the finest step, then aggregate
increments upward, one pass over the batch per level (the experiments check
each level's coupling once on the batch too), so every resolution rides the
same Brownian path.

:func:`sample_batch` draws the noise of many paths as one
:class:`NoiseBatch` of ragged arrays: each row draws from its own keys, and
the work after the draws runs on all rows at once.  One realization is a
batch of one: ``batch[i]`` is row ``i`` as a batch of one viewing the
batch's arrays, and :func:`sample_noise` is the batch of one seed.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import threading

import numpy as np

from .errors import DomainError
from .model import Band

SMALL = "small"
LARGE = "large"
SOURCES = (None, SMALL, LARGE)
EVENT_DTYPE = np.dtype([("time", "f8"), ("mark", "f8"), ("code", "i1")])
# largest rate x horizon one event stream may draw: far above a desk-scale
# run, and its event array (17 bytes per event) stays at a few hundred MB
MAX_EXPECTED_EVENTS = 1e7

_MASK64 = (1 << 64) - 1
_local = threading.local()


def splitmix64(z):
    """One step of the splitmix64 mixer (public-domain finalizer)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_path_seed(master_seed, path_index):
    """Per-path seed: master XOR the hashed path index.

    Documented splitting rule so parallel runs are independent of
    scheduling order.
    """
    return (int(master_seed) & _MASK64) ^ splitmix64(int(path_index) + 1)


def _stream(seed, stream):
    """This thread's one generator, reset to the Philox key ``(seed, stream)``
    with counter 0 and an empty buffer, as a new generator starts.  It is
    valid only until the next ``_stream`` call in the same thread."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0, "state": {
            "counter": (0, 0, 0, 0), "key": (int(seed) & _MASK64, stream)}}
    return rng


class NoiseBatch:
    """The noise of several paths on one base grid, as read-only ragged
    arrays; made by :func:`sample_batch` and :meth:`coarsen`.  One noise
    realization is a batch of one.

    Row ``i`` is the realization of ``seeds[i]``: its union times (the base
    grid and its event times) are ``union_times[offsets[i]:offsets[i + 1]]``,
    its union increments ``union_increments[offsets[i] - i:offsets[i + 1] -
    i - 1]`` (one fewer per row), its events
    ``events[event_offsets[i]:event_offsets[i + 1]]`` and their steps
    ``event_steps`` likewise.  A row applies its events in order: event
    ``j`` lands at the end of its step ``event_steps[j]``, a union time in
    ``(0, T]``.  The arrays are read-only copies unless already sealed (see
    :func:`_frozen`), so the sums stay valid.  ``batch[i]`` is row ``i`` as
    a batch of one viewing these arrays, without a copy.
    """

    def __init__(self, horizon, base_grid, seeds, offsets, union_times,
                 union_increments, event_offsets, events, event_steps):
        self.horizon = float(horizon)
        self.base_grid = _frozen(base_grid)
        self.seeds = tuple(int(seed) for seed in seeds)
        self.offsets = _frozen(offsets, np.intp)
        self.union_times = _frozen(union_times)
        self.union_increments = _frozen(union_increments)
        self.event_offsets = _frozen(event_offsets, np.intp)
        self.events = _frozen(events, EVENT_DTYPE)
        self.event_steps = _frozen(event_steps, np.intp)
        rows = np.repeat(np.arange(len(self)), np.diff(self.event_offsets))
        at = self.offsets[rows] + self.event_steps + 1
        lands = ((self.event_steps >= 0) & (at < self.offsets[rows + 1])
                 & (self.union_times.take(at, mode="clip")
                    == self.events["time"]))
        if not lands.all():
            raise DomainError("an event time is not a union time in (0, T]")

    def __len__(self):
        return len(self.seeds)

    @property
    def seed(self):
        """The seed of a batch of one; other sizes raise DomainError."""
        if len(self) != 1:
            raise DomainError(f"a batch of {len(self)} rows has no single "
                              "seed")
        return self.seeds[0]

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        if len(self) == 1:
            return self
        a, b = self.offsets[i:i + 2].tolist()
        e, f = self.event_offsets[i:i + 2].tolist()
        return NoiseBatch(
            self.horizon, self.base_grid, [self.seeds[i]], [0, b - a],
            self.union_times[a:b], self.union_increments[a - i:b - i - 1],
            [0, f - e], self.events[e:f], self.event_steps[e:f])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def events_from(self, source):
        """The rows of ``events`` from ``source``, in order."""
        return self.events[self.events["code"] == SOURCES.index(source)]

    @functools.cached_property
    def _motion(self):
        """Each row's Brownian motion at its union times, laid out as
        ``union_times``: ``0``, then the row's own ``cumsum`` to the bit."""
        lengths = np.diff(self.offsets)
        inside = np.arange(lengths.max(initial=1)) < lengths[:, None]
        w = np.zeros(inside.shape)
        w[:, 1:][inside[:, 1:]] = self.union_increments
        np.cumsum(w[:, 1:], axis=1, out=w[:, 1:])
        return w[inside]

    @functools.cached_property
    def _grid_at(self):
        """Where each row's base-grid times sit in ``union_times``, as a
        ``(rows, grid)`` array."""
        grid, t = self.base_grid, self.union_times
        at = np.flatnonzero(grid.take(grid.searchsorted(t), mode="clip") == t)
        if at.size != len(self) * len(grid):
            raise DomainError("a row's union times miss a base-grid time")
        return at.reshape(len(self), len(grid))

    @functools.cached_property
    def brownian_increments(self):
        """Each row's increments per base-grid step, ``(rows, steps)``."""
        return _frozen(np.diff(self._motion[self._grid_at], axis=1))

    def coarsen(self, factor):
        """The same noise on a base grid thinned by ``factor``, all rows at
        once: the events (the same array), and the Brownian increments
        between the coarse grid and event times, so every resolution shares
        one Brownian motion.  Row ``i`` is the same to the bit in any
        batch."""
        factor = int(factor)
        m = len(self.base_grid) - 1
        if factor < 1 or m % factor != 0:
            raise DomainError(
                f"coarsening factor {factor} does not divide the "
                f"{m}-step base grid"
            )
        rows = np.repeat(np.arange(len(self)), np.diff(self.event_offsets))
        events_at = self.offsets[rows] + self.event_steps + 1
        keep = np.zeros(len(self.union_times), bool)
        keep[self._grid_at[:, ::factor]] = True
        keep[events_at] = True
        at = np.flatnonzero(keep)
        # kept entries before each row, and before each event
        offsets = at.searchsorted(self.offsets)
        steps = at.searchsorted(events_at) - offsets[rows] - 1
        increments = np.delete(np.diff(self._motion[at]), offsets[1:-1] - 1)
        return NoiseBatch(self.horizon, self.base_grid[::factor], self.seeds,
                          offsets, self.union_times[at], increments,
                          self.event_offsets, self.events, steps)

    def dump_csv(self, path):
        """Debug/replay dump of a batch of one: (time, kind, value) —
        per-base-step Brownian increments tagged by their step's right
        endpoint, then the events."""
        self.seed                       # one row, else a DomainError
        times = np.concatenate([self.base_grid[1:], self.events["time"]])
        kinds = ["brownian_increment"] * (len(self.base_grid) - 1) + [
            f"{SOURCES[c]}_jump" for c in self.events["code"]]
        values = np.concatenate([self.brownian_increments[0],
                                 self.events["mark"]])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "kind", "value"])
            for i in np.argsort(times, kind="stable"):
                w.writerow([f"{times[i]:.17g}", kinds[i], f"{values[i]:.17g}"])


def _sealed(arr):
    """Read-only, and no writable array reaches its memory through a base."""
    return (isinstance(arr, np.ndarray) and not arr.flags.writeable
            and (arr.flags.owndata or _sealed(arr.base)))


def _frozen(values, dtype=float):
    """``values`` as a read-only array; a sealed one of ``dtype`` is kept."""
    if _sealed(values) and values.dtype == dtype:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@functools.lru_cache
def _base_grid(horizon, base_step):
    n = int(math.ceil(horizon / base_step - 1e-12))
    grid = np.arange(n + 1, dtype=float) * base_step
    grid[-1] = horizon
    if n >= 2 and grid[-1] <= grid[-2]:
        grid = np.delete(grid, -2)
    return _frozen(grid)


def _draw_events(measure, horizon, seeds, code):
    """Stream ``code`` of each seed's row: the events, grouped by row and
    sorted by time within one, and the row of each.

    A row draws from its own key ``(seed, code)``: a Poisson count ``k``,
    then ``3 k`` uniforms in one call, read in the order of a one-path draw:
    ``k`` times, ``k`` component choices, then one uniform per mark on a
    density piece (:meth:`~jsde_lab.model.MarkMeasure.marks`).  The stream
    draws nothing more, so the uniforms left over are never read.
    """
    if measure is None or measure.total_mass == 0.0 or not seeds:
        return np.empty(0, EVENT_DTYPE), np.empty(0, np.intp)
    lam = measure.total_mass * horizon
    counts = np.empty(len(seeds), np.intp)
    draws = []
    try:
        if not lam <= MAX_EXPECTED_EVENTS:
            raise ValueError(f"above the cap of {MAX_EXPECTED_EVENTS:g} "
                             "expected events per stream")
        for i, seed in enumerate(seeds):
            rng = _stream(seed, code)
            counts[i] = k = rng.poisson(lam)
            draws.append(rng.random(3 * k))
    except ValueError as exc:
        raise DomainError(
            f"jump measure nu{code} ({measure.label}): rate x horizon = "
            f"{lam:g} is too large for a Poisson event count ({exc})"
        ) from exc
    uniforms = np.concatenate(draws)
    rows = np.repeat(np.arange(len(seeds)), counts)
    first = np.cumsum(counts) - counts          # each row's first event
    at = np.arange(len(rows)) + 2 * first[rows]     # its time's uniform
    times = uniforms[at]
    times = times[np.lexsort((times, rows))] * horizon
    events = np.empty(len(rows), EVENT_DTYPE)
    events["time"] = np.maximum(times, np.nextafter(0.0, 1.0))
    events["mark"] = measure.marks(
        measure.components(uniforms[at + counts[rows]]), rows, uniforms,
        3 * first + 2 * counts)
    events["code"] = code
    return events, rows


def sample_batch(model, horizon, base_step, seeds):
    """Draw one noise realization per seed, as a :class:`NoiseBatch`.

    Event counts are Poisson with rate (total mass x horizon); marks come
    from the normalized measure (inverse-CDF for density pieces, categorical
    for atoms); Brownian increments are centered Gaussians with variance
    equal to the step width.  Row ``i`` is a deterministic function of
    ``seeds[i]`` through its per-stream counters, the same to the bit in
    any batch: the draws are made row by row, and everything after them
    works on each row's own entries.  A rate x horizon above
    ``MAX_EXPECTED_EVENTS`` or numpy's Poisson limit is a
    :class:`DomainError`.
    """
    horizon = float(horizon)
    base_step = float(base_step)
    if not 0 < horizon < math.inf:
        raise DomainError("horizon must be positive and finite")
    if not 0 < base_step <= horizon:
        raise DomainError("need 0 < base_step <= horizon")
    nu1, nu2 = model.nu1, model.nu2
    if nu1 is not None and not nu1.is_finite:
        raise DomainError(
            "small-jump measure has infinite mass; apply truncate_small_jumps "
            "before sampling"
        )
    if nu2 is not None and not nu2.is_finite:
        restricted = model.u3_measure()
        if not restricted.is_finite:
            raise DomainError("large-jump measure has infinite mass even "
                              "restricted to the interlacing sub-support")
        nu2 = restricted
    seeds = tuple(int(seed) for seed in seeds)
    n = len(seeds)

    small, small_rows = _draw_events(nu1, horizon, seeds, 1)
    large, large_rows = _draw_events(nu2, horizon, seeds, 2)
    events = np.concatenate([small, large], dtype=EVENT_DTYPE)
    rows = np.concatenate([small_rows, large_rows])
    # by row, then time; the stable sort keeps a small jump before a large
    # one at equal times
    order = np.lexsort((events["time"], rows))
    events, rows = events[order], rows[order]
    event_offsets = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=event_offsets[1:])

    # a row's union times: the base grid, and each event time off it once
    grid = _base_grid(horizon, base_step)
    t = events["time"]
    below = grid.searchsorted(t)                # base-grid times below t
    on_grid = grid.take(below, mode="clip") == t
    new = ~on_grid
    new[1:] &= (t[1:] != t[:-1]) | (rows[1:] != rows[:-1])
    added = np.bincount(rows[new], minlength=n)
    offsets = np.zeros(n + 1, np.intp)
    np.cumsum(len(grid) + added, out=offsets[1:])
    # an event's union index: the base-grid and new times below it
    index = below + np.cumsum(new) - (np.cumsum(added) - added)[rows]
    index[~on_grid] -= 1                        # the count included it
    at = offsets[rows] + index
    union = np.empty(offsets[-1])
    union[at[new]] = t[new]
    from_grid = np.ones(len(union), bool)
    from_grid[at[new]] = False
    union[from_grid] = np.tile(grid, n)

    # drop the differences across row ends
    dts = np.delete(np.diff(union), offsets[1:-1] - 1)
    increments = np.empty(len(dts))
    starts = (offsets - np.arange(n + 1)).tolist()
    for seed, a, b in zip(seeds, starts, starts[1:]):
        _stream(seed, 0).standard_normal(out=increments[a:b])
    increments *= np.sqrt(dts)

    arrays = (offsets, union, increments, event_offsets, events, index - 1)
    for arr in arrays:
        arr.setflags(write=False)       # sealed: the batch keeps, not copies
    return NoiseBatch(horizon, grid, seeds, *arrays)


def sample_noise(model, horizon, base_step, seed):
    """Draw one noise realization for a model: :func:`sample_batch` of
    ``seed`` alone, a batch of one."""
    return sample_batch(model, horizon, base_step, [seed])


def truncate_small_jumps(model_measure, epsilon):
    """Restrict a mark measure to ``|u| >= epsilon``.

    Returns ``(measure, compensator_rate)``.  ``epsilon = 0`` keeps a finite
    measure unchanged (no truncation needed); negative or non-finite
    thresholds are domain errors, and so is a retained mass that is still
    infinite.
    """
    epsilon = float(epsilon)
    if not 0 <= epsilon < math.inf:
        raise DomainError("truncation threshold must be nonnegative and "
                          "finite")
    if epsilon == 0.0:
        if not model_measure.is_finite:
            raise DomainError("retained mass is infinite at epsilon = 0; "
                              "choose a positive threshold")
        return model_measure, model_measure.total_mass
    bands = (Band(-math.inf, -epsilon, closed_lo=False, closed_hi=True),
             Band(epsilon, math.inf, closed_lo=True, closed_hi=False))
    kept = model_measure.restricted(bands)
    if not kept.is_finite:
        raise DomainError(
            f"retained mass is still infinite at epsilon = {epsilon:g}"
        )
    return kept, kept.total_mass
