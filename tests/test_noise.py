import math
import re
import sys
import threading

import numpy as np
import pytest

from jsde_lab import noise as noise_module
from jsde_lab.errors import DomainError
from jsde_lab.model import Band, CoefficientSet, MarkMeasure, lebesgue, preset
from jsde_lab.noise import (EVENT_DTYPE, LARGE, SMALL, NoiseBatch,
                            derive_path_seed, sample_noise,
                            truncate_small_jumps)


def _one_row(base_grid, union_times, union_increments, events, seed=1):
    """A hand-built noise realization on ``[0, 1]``: a one-row
    :class:`NoiseBatch` with each event at the union step ending at its
    time."""
    times = np.array(events, EVENT_DTYPE)["time"]
    steps = np.searchsorted(np.asarray(union_times)[1:], times)
    return NoiseBatch(1.0, base_grid, [seed], [0, len(union_times)],
                      union_times, union_increments, [0, len(events)],
                      events, steps)


def test_derive_path_seed_distinct_and_stable():
    seeds = [derive_path_seed(1729, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [derive_path_seed(1729, i) for i in range(200)]
    assert derive_path_seed(1729, 0) != derive_path_seed(1730, 0)


def test_sample_noise_grid_structure():
    model = preset("example_31")
    noise = sample_noise(model, 1.0, 2.0 ** -4, seed=5)
    assert noise.base_grid[0] == 0.0
    assert noise.base_grid[-1] == pytest.approx(1.0)
    assert len(noise.base_grid) == 17
    # union grid = base grid plus every event time, strictly sorted
    assert np.all(np.diff(noise.union_times) > 0)
    assert set(np.round(noise.base_grid, 12)) <= set(np.round(noise.union_times, 12))
    for t in noise.events["time"]:
        assert 0.0 < t <= 1.0
        assert np.isclose(noise.union_times, t).any()
    assert len(noise.union_increments) == len(noise.union_times) - 1


def test_sample_noise_reproducible():
    model = preset("example_31")
    a = sample_noise(model, 1.0, 2.0 ** -4, seed=5)
    b = sample_noise(model, 1.0, 2.0 ** -4, seed=5)
    assert np.array_equal(a.union_increments, b.union_increments)
    assert np.array_equal(a.events, b.events)
    c = sample_noise(model, 1.0, 2.0 ** -4, seed=6)
    assert not np.array_equal(a.union_increments, c.union_increments)


def _fresh_stream(seed, stream):
    # a newly built generator per stream, as in a fresh process
    key = np.array([int(seed) & ((1 << 64) - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("name", ["example_31", "example_41"])
def test_interleaved_sampling_equals_fresh_generators(name, monkeypatch):
    model = preset(name)
    seed_a, seed_b = derive_path_seed(3, 0), derive_path_seed(3, 1)
    reused = [sample_noise(model, 1.0, 2.0 ** -6, s)
              for s in (seed_a, seed_b, seed_a)]
    monkeypatch.setattr(noise_module, "_stream", _fresh_stream)
    for got, seed in zip(reused, (seed_a, seed_b, seed_a)):
        fresh = sample_noise(model, 1.0, 2.0 ** -6, seed)
        assert len(fresh.events) > 0
        assert got.union_increments.tobytes() \
            == fresh.union_increments.tobytes()
        assert got.events.tobytes() == fresh.events.tobytes()


def test_sampling_from_two_threads_equals_serial_sampling():
    model = preset("example_41")
    seeds = [derive_path_seed(11, i) for i in range(20)]

    def draw(seed):
        n = sample_noise(model, 1.0, 2.0 ** -6, seed)
        return n.union_increments.tobytes(), n.events.tobytes()

    serial = [draw(s) for s in seeds]
    start = threading.Barrier(2, timeout=30)
    results = [None, None]

    def worker(slot):
        start.wait()
        results[slot] = [draw(s) for s in seeds]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # switch threads between draws
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial, serial]


def test_a_stream_is_not_reset_by_another_threads_stream():
    """``_stream`` reuses one generator per thread, not per process: a
    generator handed out in this thread draws what a fresh ``Philox`` keyed
    ``(seed, stream)`` draws, even after another thread asked for its own
    stream and drew from it."""
    seed = derive_path_seed(11, 0)
    rng = noise_module._stream(seed, 1)
    head = rng.random(3)
    other = threading.Thread(
        target=lambda: noise_module._stream(derive_path_seed(11, 1),
                                            2).random(5))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    fresh = _fresh_stream(seed, 1).random(6)
    assert np.concatenate([head, rng.random(3)]).tobytes() == fresh.tobytes()


def test_nearby_seeds_give_distinct_streams():
    # Regression: derived seeds live above 2**63, and building the
    # generator key from a plain int list went through float64, which
    # rounded away the low bits and made e.g. masters 7 and 42 sample
    # identical noise for path 0.
    model = preset("example_31")
    for master_a, master_b in [(7, 42), (0, 1), (1728, 1729)]:
        a = sample_noise(model, 1.0, 2.0 ** -4,
                         seed=derive_path_seed(master_a, 0))
        b = sample_noise(model, 1.0, 2.0 ** -4,
                         seed=derive_path_seed(master_b, 0))
        assert not np.array_equal(a.union_increments[:4], b.union_increments[:4])


def test_event_streams_and_marks():
    model = preset("example_31")
    noise = sample_noise(model, 1.0, 2.0 ** -4, seed=12)
    small = noise.events_from(SMALL)
    large = noise.events_from(LARGE)
    assert len(small) + len(large) == len(noise.events)
    for mark in small["mark"]:
        assert -1.0 <= mark <= 1.0
    for mark in large["mark"]:
        assert 1.0 < mark <= 2.0


def test_brownian_increments_per_base_step():
    model = preset("example_41")
    noise = sample_noise(model, 1.0, 2.0 ** -5, seed=3)
    binc = noise.brownian_increments
    assert binc.shape == (1, 32)
    assert binc.sum() == pytest.approx(noise.union_increments.sum())


def test_coarsen_aggregates_exactly():
    model = preset("example_41")
    fine = sample_noise(model, 1.0, 2.0 ** -6, seed=9)
    coarse = fine.coarsen(4)
    assert coarse.seed == fine.seed
    assert len(coarse.base_grid) == 17
    assert np.array_equal(coarse.events, fine.events)
    fsum = fine.brownian_increments.reshape(16, 4).sum(axis=1)
    assert np.allclose(coarse.brownian_increments, fsum, atol=1e-15)
    with pytest.raises(DomainError):
        fine.coarsen(5)
    with pytest.raises(DomainError):
        fine.coarsen(0)


def test_coarsen_identity_factor():
    model = preset("example_31")
    fine = sample_noise(model, 1.0, 2.0 ** -4, seed=2)
    same = fine.coarsen(1)
    assert np.array_equal(same.base_grid, fine.base_grid)
    assert np.allclose(same.union_increments, fine.union_increments)


def test_truncate_small_jumps():
    nu = lebesgue(-1.0, 1.0)
    cut, rate = truncate_small_jumps(nu, 0.5)
    assert rate == pytest.approx(1.0, rel=1e-10)
    assert cut.total_mass == pytest.approx(1.0, rel=1e-10)
    assert cut.mass_in((Band(-0.5, 0.5, closed_lo=True),)) == pytest.approx(
        0.0, abs=1e-12)
    same, full = truncate_small_jumps(nu, 0.0)
    assert same is nu and full == pytest.approx(2.0)
    # a NaN threshold used to keep every piece twice, at rate 4 for mass 2
    for epsilon in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="nonnegative and finite"):
            truncate_small_jumps(nu, epsilon)


def test_dump_csv(tmp_path):
    model = preset("example_31")
    noise = sample_noise(model, 1.0, 2.0 ** -4, seed=8)
    target = tmp_path / "noise.csv"
    noise.dump_csv(str(target))
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "time,kind,value"
    assert len(lines) == 1 + 16 + len(noise.events)


@pytest.mark.parametrize("size", [0, 2])
def test_only_a_batch_of_one_has_a_seed_and_dumps(size, tmp_path):
    batch = noise_module.sample_batch(preset("example_31"), 1.0, 0.25,
                                      [3, 4][:size])
    target = tmp_path / "noise.csv"
    with pytest.raises(DomainError, match=f"a batch of {size} rows"):
        batch.seed
    with pytest.raises(DomainError, match=f"a batch of {size} rows"):
        batch.dump_csv(str(target))
    assert not target.exists()


def test_a_realization_is_its_own_only_row():
    noise = sample_noise(preset("example_31"), 1.0, 2.0 ** -4, seed=5)
    assert len(noise) == 1 and noise.seeds == (5,) and noise.seed == 5
    assert noise[0] is noise and noise[-1] is noise
    assert list(noise) == [noise]
    with pytest.raises(IndexError):
        noise[1]


def _on_grid_noise(events):
    # base grid 0, 0.5, 1 with one union time added at 0.25
    return _one_row([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0],
                    [0.1, 0.2, -0.3], events)


def test_dump_csv_puts_the_brownian_row_first_at_a_grid_time(tmp_path):
    # a large jump exactly on the grid time 0.5 follows that step's
    # Brownian row; events keep their own order
    noise = _on_grid_noise([(0.25, 0.7, 1), (0.5, 1.5, 2), (0.5, -0.4, 1)])
    target = tmp_path / "noise.csv"
    noise.dump_csv(str(target))
    rows = [line.split(",") for line in
            target.read_text().strip().splitlines()[1:]]
    assert [(float(t), kind) for t, kind, _ in rows] == [
        (0.25, "small_jump"), (0.5, "brownian_increment"),
        (0.5, "large_jump"), (0.5, "small_jump"),
        (1.0, "brownian_increment")]
    assert [float(v) for _, _, v in rows] == pytest.approx(
        [0.7, 0.3, 1.5, -0.4, -0.3])


@pytest.mark.parametrize("time", [0.0, 0.3, 1.5, -0.25])
def test_event_off_the_union_grid_is_rejected(time):
    with pytest.raises(DomainError, match="union time"):
        _on_grid_noise([(time, 0.5, 1)])


def test_invalid_sampling_arguments():
    model = preset("example_31")
    with pytest.raises(DomainError):
        sample_noise(model, -1.0, 2.0 ** -4, seed=1)
    with pytest.raises(DomainError):
        sample_noise(model, 1.0, 0.0, seed=1)


@pytest.mark.parametrize("jumps", [True, False])
@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_a_non_finite_horizon_is_a_domain_error(horizon, jumps):
    model = preset("example_31") if jumps else CoefficientSet(
        b=lambda x: -x, sigma=lambda x: 0.0 * x, c1=None, c2=None,
        nu1=None, nu2=None)
    message = "horizon must be positive and finite"
    with pytest.raises(DomainError, match=message):
        noise_module.sample_batch(model, horizon, 0.25, [1, 2])
    with pytest.raises(DomainError, match=message):
        sample_noise(model, horizon, 0.25, seed=1)


def test_realization_arrays_are_read_only_and_sums_cached():
    noise = sample_noise(preset("example_31"), 1.0, 2.0 ** -4, seed=5)
    for arr in (noise.base_grid, noise.union_times, noise.union_increments,
                noise.brownian_increments, noise.events):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert noise.brownian_increments is noise.brownian_increments
    assert noise.brownian_increments.sum() \
        == pytest.approx(noise.union_increments.sum(), abs=1e-14)
    inc = np.zeros(2)
    _one_row([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], inc, [])
    inc[0] = 1.0                       # the caller's array stays writable


def test_realization_copies_inputs_a_writable_array_can_reach():
    inc = np.array([0.25, 0.5])
    view = inc[:]
    view.setflags(write=False)          # read-only, but inc still writes it
    for given in (inc, view):
        noise = _one_row([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], given, [])
        cached = noise.brownian_increments
        inc[:] = [5.0, 6.0]
        assert noise.union_increments.tolist() == [0.25, 0.5]
        assert noise.brownian_increments is cached
        assert cached.tolist() == [[0.25, 0.5]]
        inc[:] = [0.25, 0.5]


def test_coarsen_keeps_the_sealed_event_array():
    fine = sample_noise(preset("example_41"), 1.0, 2.0 ** -6, seed=9)
    assert fine.coarsen(4).events is fine.events
    assert fine.coarsen(1).events is fine.events


@pytest.mark.parametrize("nu1, nu2, horizon, name, lam", [
    (lebesgue(1.0, 1e308), None, 1.0, "nu1", "1e+308"),
    (None, MarkMeasure(atoms=[(1.0, 1e300)]), 1e10, "nu2", "inf"),
])
def test_rate_beyond_a_poisson_count_is_a_domain_error(nu1, nu2, horizon,
                                                        name, lam):
    model = CoefficientSet(
        b=lambda x: -x, sigma=lambda x: 0.0 * x,
        c1=None if nu1 is None else (lambda x, u: u), nu1=nu1,
        c2=None if nu2 is None else (lambda x, u: u), nu2=nu2)
    with pytest.raises(DomainError,
                       match=rf"{name} .*= {re.escape(lam)} is too large"):
        sample_noise(model, horizon, horizon, seed=3)


def test_event_count_beyond_the_cap_is_a_domain_error():
    # numpy can draw a count this large; the event array could not be held
    cap = noise_module.MAX_EXPECTED_EVENTS
    model = CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.0 * x,
                           c1=lambda x, u: u, nu1=lebesgue(1.0, 1.0 + 2 * cap),
                           c2=None, nu2=None)
    with pytest.raises(DomainError, match=r"nu1 .*= 2e\+07 is too large"):
        sample_noise(model, 1.0, 1.0, seed=3)


def test_event_cap_admits_a_rate_at_the_cap(monkeypatch):
    monkeypatch.setattr(noise_module, "MAX_EXPECTED_EVENTS", 50.0)
    model = CoefficientSet(b=lambda x: -x, sigma=lambda x: 0.0 * x,
                           c1=lambda x, u: u, nu1=lebesgue(0.0, 50.0),
                           c2=None, nu2=None)
    assert len(sample_noise(model, 1.0, 1.0, seed=3).events) > 0
    with pytest.raises(DomainError, match="above the cap of 50 expected"):
        sample_noise(model, 1.5, 1.5, seed=3)


# ---------------------------------------------------------------------------
# batches of paths
# ---------------------------------------------------------------------------

def _inline(nu1=None, nu2=None, u3=None):
    return CoefficientSet(
        b=lambda x: -x, sigma=lambda x: 0.5,
        c1=None if nu1 is None else (lambda x, u: u), nu1=nu1,
        c2=None if nu2 is None else (lambda x, u: u), nu2=nu2, u3=u3)


# (model, horizon, base step) per case
BATCH_CASES = {
    **{f"{name}_h{k}": (lambda name=name: preset(name), 1.0, 2.0 ** -k)
       for name in ("example_31", "example_41") for k in (8, 9)},
    "atoms_only_nu2": (lambda: _inline(
        nu2=MarkMeasure(atoms=[(0.5, 1.5), (1.5, 2.5)])), 2.0, 2.0 ** -5),
    "density_and_atoms": (lambda: _inline(
        nu1=lebesgue(-1.0, 1.0), nu2=MarkMeasure(
            pieces=[(0.5, 3.0, lambda u: np.exp(-u))],
            atoms=[(-1.0, 0.3), (4.0, 0.2)])), 3.0, 2.0 ** -4),
    "no_nu1": (lambda: _inline(nu2=lebesgue(1.0, 2.0)), 1.0, 2.0 ** -6),
    "zero_mass": (lambda: _inline(nu1=MarkMeasure(label="empty"),
                                  nu2=lebesgue(1.0, 2.0)), 1.0, 2.0 ** -6),
    "infinite_nu2_on_u3": (lambda: _inline(
        nu2=MarkMeasure(pieces=[(1.0, 3.0, lambda u: 1.0)],
                        atoms=[(0.1, 2.0), (2.5, 0.5)], total_mass=math.inf),
        u3=Band(1.5, 3.0)), 2.0, 2.0 ** -5),
}


def _reference_noise(model, horizon, base_step, seed):
    """One path's noise drawn as the one-path sampler did it: the draws of
    each stream in order, then a sort, ``np.unique`` and ``np.diff``."""
    grid = noise_module._base_grid(horizon, base_step)
    nu2 = model.nu2
    if nu2 is not None and not nu2.is_finite:
        nu2 = model.u3_measure()
    events = []
    for code, measure in ((1, model.nu1), (2, nu2)):
        if measure is None or measure.total_mass == 0.0:
            continue
        rng = noise_module._stream(seed, code)
        count = int(rng.poisson(measure.total_mass * horizon))
        times = np.sort(rng.random(count)) * horizon
        drawn = np.empty(count, EVENT_DTYPE)
        drawn["time"] = np.maximum(times, np.nextafter(0.0, 1.0))
        drawn["mark"] = measure.sample(rng, count)
        drawn["code"] = code
        events.append(drawn)
    events = np.concatenate([np.empty(0, EVENT_DTYPE)] + events)
    events = events[events["time"].argsort(kind="stable")]
    union = np.unique(np.concatenate([grid, events["time"]]))
    rng = noise_module._stream(seed, 0)
    dw = rng.standard_normal(len(union) - 1) * np.sqrt(np.diff(union))
    return union, dw, events


def _same_noise(a, b):
    return (a.union_times.tobytes() == b.union_times.tobytes()
            and a.union_increments.tobytes() == b.union_increments.tobytes()
            and a.events.tobytes() == b.events.tobytes())


@pytest.mark.parametrize("size", [1, 7, 20])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_rows_equal_single_draws_bit_for_bit(case, size):
    make, horizon, step = BATCH_CASES[case]
    model = make()
    seeds = [derive_path_seed(size, i) for i in range(size)]
    batch = noise_module.sample_batch(model, horizon, step, seeds)
    assert len(batch) == size and batch.seeds == tuple(seeds)
    for seed, row in zip(seeds, batch):
        alone = sample_noise(model, horizon, step, seed)
        assert _same_noise(row, alone)
        union, dw, events = _reference_noise(model, horizon, step, seed)
        assert row.union_times.tobytes() == union.tobytes()
        assert row.union_increments.tobytes() == dw.tobytes()
        assert row.events.tobytes() == events.tobytes()
        assert row.seed == seed and row.base_grid is batch.base_grid


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_cases_draw_what_they_name(case):
    make, horizon, step = BATCH_CASES[case]
    seeds = [derive_path_seed(20, i) for i in range(20)]
    events = noise_module.sample_batch(make(), horizon, step, seeds).events
    small = events[events["code"] == 1]
    large = events[events["code"] == 2]
    assert len(large) > 0
    if case in ("no_nu1", "zero_mass", "atoms_only_nu2",
                "infinite_nu2_on_u3"):
        assert len(small) == 0
    else:
        assert len(small) > 0
    if case == "atoms_only_nu2":
        assert set(large["mark"].tolist()) == {0.5, 1.5}
    if case == "density_and_atoms":
        assert {-1.0, 4.0} <= set(large["mark"].tolist())
        assert ((large["mark"] > 0.5) & (large["mark"] < 3.0)).any()
    if case == "infinite_nu2_on_u3":
        assert (large["mark"] > 1.5).all() and 2.5 in large["mark"]


class _LatticeStream:
    """A stand-in generator whose uniforms sit on the lattice k/8, so event
    times fall on base-grid times, on each other and (at k = 0) on 0."""

    def __init__(self, seed, stream):
        self.rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, stream], dtype=np.uint64)))

    def poisson(self, lam):
        return 6

    def random(self, size):
        return self.rng.integers(0, 8, size) / 8.0

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.rng.standard_normal(size)
        out[:] = self.rng.standard_normal(len(out))
        return out


@pytest.mark.parametrize("step", [0.25, 0.375])
def test_batch_merges_times_on_the_grid_and_on_each_other(step, monkeypatch):
    monkeypatch.setattr(noise_module, "_stream", _LatticeStream)
    model = _inline(nu1=lebesgue(-1.0, 1.0), nu2=MarkMeasure(
        pieces=[(1.0, 2.0, lambda u: 1.0)], atoms=[(3.0, 1.0)]))
    seeds = list(range(12))
    batch = noise_module.sample_batch(model, 1.0, step, seeds)
    for seed, row in zip(seeds, batch):
        union, dw, events = _reference_noise(model, 1.0, step, seed)
        assert row.union_times.tobytes() == union.tobytes()
        assert row.union_increments.tobytes() == dw.tobytes()
        assert row.events.tobytes() == events.tobytes()
        t = row.events["time"]
        assert row.union_times[row.event_steps + 1].tolist() == t.tolist()
    times = batch.events["time"]
    assert np.isin(times, noise_module._base_grid(1.0, step)).any()
    assert (times == np.nextafter(0.0, 1.0)).any()


def test_batch_rows_are_read_only_views_of_the_batch():
    batch = noise_module.sample_batch(preset("example_31"), 1.0, 2.0 ** -6,
                                      [derive_path_seed(2, i)
                                       for i in range(5)])
    for name in ("offsets", "union_times", "union_increments",
                 "event_offsets", "events", "event_steps"):
        assert not getattr(batch, name).flags.writeable
    for i in (0, 3, -1):
        row = batch[i]
        for name in ("union_times", "union_increments", "events",
                     "event_steps"):
            arr = getattr(row, name)
            assert not arr.flags.writeable
            assert np.shares_memory(arr, getattr(batch, name))
        assert row.base_grid is batch.base_grid
        assert row.coarsen(2).events is row.events
    with pytest.raises(IndexError):
        batch[5]
    assert _same_noise(batch[-1], batch[4])


def test_batch_checks_where_each_event_lands():
    batch = noise_module.sample_batch(preset("example_31"), 1.0, 2.0 ** -4,
                                      [1, 2])
    fields = dict(vars(batch))
    steps = batch.event_steps.copy()
    steps[-1] += 1
    fields["event_steps"] = steps
    with pytest.raises(DomainError, match="union time"):
        noise_module.NoiseBatch(**fields)


def test_empty_batch():
    batch = noise_module.sample_batch(preset("example_31"), 1.0, 0.25, [])
    assert len(batch) == 0 and list(batch) == []
    assert batch.union_times.size == batch.events.size == 0


# ---------------------------------------------------------------------------
# coarsening a batch
# ---------------------------------------------------------------------------

def _reference_coarsen(row, factor):
    """One row coarsened as the one-path code did it: ``np.unique`` of the
    coarse grid and the event times, ``searchsorted`` into the row's union
    times and differences of its ``cumsum``."""
    grid = row.base_grid[::factor]
    union = np.unique(np.concatenate([grid, row.events["time"]]))
    motion = np.concatenate([[0.0], np.cumsum(row.union_increments)])
    dw = np.diff(motion[np.searchsorted(row.union_times, union)])
    steps = union[1:].searchsorted(row.events["time"])
    return grid, union, dw, steps


def _reference_brownian(row):
    motion = np.concatenate([[0.0], np.cumsum(row.union_increments)])
    return np.diff(motion[np.searchsorted(row.union_times, row.base_grid)])


class _LatticeStreamToT(_LatticeStream):
    """The lattice stand-in with event times on ``k/8`` for ``k = 1..8``,
    so that some land on the horizon ``T = 1``."""

    def random(self, size):
        u = super().random(size)
        u[:size // 3] = self.rng.integers(1, 9, size // 3) / 8.0
        return u


def _lattice():
    return _inline(nu1=lebesgue(-1.0, 1.0), nu2=MarkMeasure(
        pieces=[(1.0, 2.0, lambda u: 1.0)], atoms=[(3.0, 1.0)]))


# (model, horizon, base step, stand-in generator or None, factors)
COARSEN_CASES = {
    "example_41_h9": (lambda: preset("example_41"), 1.0, 2.0 ** -9, None,
                      (1, 2, 4, 8, 16, 32)),
    "example_31_h9": (lambda: preset("example_31"), 1.0, 2.0 ** -9, None,
                      (1, 2, 4, 8, 16, 32)),
    "no_events": (_inline, 1.0, 2.0 ** -6, None, (1, 2, 4, 64)),
    # about 60% of rows draw no large jump, and none draws a small one
    "some_rows_without_events": (lambda: _inline(nu2=lebesgue(1.0, 1.5)),
                                 1.0, 2.0 ** -6, None, (1, 2, 4, 32)),
    "atoms_only_nu2": (BATCH_CASES["atoms_only_nu2"][0], 2.0, 2.0 ** -5,
                       None, (1, 2, 4, 8, 16, 32)),
    "lattice": (_lattice, 1.0, 0.125, _LatticeStreamToT, (1, 2, 4, 8)),
    "lattice_short_last_step": (_lattice, 1.0, 0.375, _LatticeStream,
                                (1, 3)),
}


def _coarsen_batch(case, size, monkeypatch):
    make, horizon, step, stream, factors = COARSEN_CASES[case]
    if stream is not None:
        monkeypatch.setattr(noise_module, "_stream", stream)
    seeds = [derive_path_seed(41, i) for i in range(size)]
    return noise_module.sample_batch(make(), horizon, step, seeds), factors


@pytest.mark.parametrize("size", [1, 7, 25])
@pytest.mark.parametrize("case", sorted(COARSEN_CASES))
def test_batch_coarsening_equals_the_one_path_reference(case, size,
                                                        monkeypatch):
    batch, factors = _coarsen_batch(case, size, monkeypatch)
    for row, brownian in zip(batch, batch.brownian_increments):
        assert brownian.tobytes() == _reference_brownian(row).tobytes()
    for factor in factors:
        coarse = batch.coarsen(factor)
        assert coarse.events is batch.events
        assert coarse.event_offsets is batch.event_offsets
        assert coarse.seeds == batch.seeds
        for row, got in zip(batch, coarse):
            grid, union, dw, steps = _reference_coarsen(row, factor)
            assert got.base_grid.tobytes() == grid.tobytes()
            assert got.union_times.tobytes() == union.tobytes()
            assert got.union_increments.tobytes() == dw.tobytes()
            assert got.event_steps.tolist() == steps.tolist()
            assert got.events.tobytes() == row.events.tobytes()
            alone = row.coarsen(factor)
            assert _same_noise(alone, got)
            assert alone.event_steps.tolist() == steps.tolist()


@pytest.mark.parametrize("case", sorted(COARSEN_CASES))
def test_batch_cases_place_events_where_they_name(case, monkeypatch):
    batch, factors = _coarsen_batch(case, 25, monkeypatch)
    counts = np.diff(batch.event_offsets)
    times = batch.events["time"]
    fine = np.isin(times, batch.base_grid)
    coarse = np.isin(times, batch.base_grid[::factors[-1]])
    if case == "no_events":
        assert not counts.any()
    elif case == "some_rows_without_events":
        assert (counts == 0).any() and counts.any()
    elif case == "lattice":
        # on coarse points, on fine-only points, on each other and at T
        assert coarse.any() and (fine & ~coarse).any()
        assert (times == 1.0).any()
        assert (np.diff(times) == 0).any()
    elif case == "atoms_only_nu2":
        assert set(batch.events["mark"].tolist()) == {0.5, 1.5}


@pytest.mark.parametrize("case", ["example_41_h9", "lattice"])
def test_a_coarsened_row_is_the_same_in_any_batch(case, monkeypatch):
    rows = {}
    for size in (1, 7, 25):
        batch, factors = _coarsen_batch(case, size, monkeypatch)
        for factor in factors:
            rows.setdefault(factor, []).append(batch.coarsen(factor)[0])
    for first, *others in rows.values():
        for row in others:
            assert _same_noise(first, row)
            assert first.event_steps.tolist() == row.event_steps.tolist()


def test_batch_coarsening_rejects_a_factor_off_the_grid():
    batch = noise_module.sample_batch(preset("example_41"), 1.0, 2.0 ** -9,
                                      [1, 2, 3])
    for factor in (3, 0, 1024):
        with pytest.raises(DomainError, match=(
                f"^coarsening factor {factor} does not divide the 512-step "
                "base grid$")):
            batch.coarsen(factor)
        with pytest.raises(DomainError, match="does not divide"):
            batch[1].coarsen(factor)


def test_empty_batch_coarsens_to_an_empty_batch():
    batch = noise_module.sample_batch(preset("example_31"), 1.0, 0.25, [])
    coarse = batch.coarsen(2)
    assert len(coarse) == 0 and coarse.union_times.size == 0
    assert coarse.base_grid.tolist() == [0.0, 0.5, 1.0]
    assert batch.brownian_increments.shape == (0, 4)


def test_union_without_a_grid_time_is_a_domain_error():
    noise = _one_row([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.1, 0.2],
                     [(0.25, 0.7, 1)])
    with pytest.raises(DomainError, match="miss a base-grid time"):
        noise.brownian_increments
    with pytest.raises(DomainError, match="miss a base-grid time"):
        noise.coarsen(2)
