"""Model data for one-dimensional jump SDEs.

A model instance is a :class:`CoefficientSet`: drift ``b``, diffusion
``sigma``, a compensated small-jump coefficient ``c1`` with mark measure
``nu1``, and an uncompensated large-jump coefficient ``c2`` with finite mark
measure ``nu2`` (optionally restricted to a sub-band ``u3``).

The module also carries two catalogs used throughout the laboratory:

* concavity moduli ``rho`` (nondecreasing, concave, vanishing at 0, with a
  divergent integral of ``1/rho`` at 0), used by the pathwise-uniqueness
  machinery, and
* growth envelopes ``Upsilon`` (nondecreasing, >= 1), used by the moment
  bound.

Every callable evaluated here (coefficients, a modulus's ``rho`` and
``log_weight``, a growth envelope's ``upsilon`` and ``upsilon_prime``, mark
densities) is wrapped by ``_float_array_valued``: it gets float arrays and
returns a float array, even a constant: shaped like a single argument, and
with each axis full or of length 1 for a jump coefficient ``c(x, u)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError, DomainError

__all__ = [
    "Band",
    "MarkMeasure",
    "CoefficientSet",
    "Modulus",
    "GrowthFunction",
    "builtin_modulus",
    "builtin_growth",
    "scale_modulus",
    "preset_example_31",
    "preset_example_41",
    "preset",
    "MODULUS_CATALOG",
    "GROWTH_CATALOG",
    "PRESET_CATALOG",
    "GAMMA",
]

# shared with `config`, which loads neither the harness nor the integrator
DEFAULT_SEED = 1729
TAMING_MODES = ("off", "drift_tamed")

_GL_NODES = 64
_CDF_TABLE = 4097


@functools.cache
def gauss_legendre(n):
    """The ``n``-point Gauss-Legendre rule on ``[-1, 1]`` as read-only
    ``(nodes, weights)``, computed once per process."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# the 81-point rule of the one-panel integrals of `analysis` and `verifier`
_GLX, _GLW = gauss_legendre(81)


def _gl_panel(fn, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GLW, np.asarray(fn(mid + half * _GLX), dtype=float)))


def _float_array_valued(fn):
    """``fn`` called with its arguments as float arrays and returning a float
    array: shaped like a single argument (a value of another shape is
    broadcast, a read-only view), or with two arguments' broadcast number
    of axes, each full or of length 1 (a mark-free coefficient stays a
    ``(states, 1)`` column).  A value that does not broadcast to the
    arguments' shape raises ``ValueError``; one of the right dtype and
    shape is returned as is.  None stays None, and a callable already
    wrapped comes back unchanged."""
    if fn is None or getattr(fn, "_float_array_valued", False):
        return fn

    @functools.wraps(fn)
    def call(*args):
        if len(args) != 1 or type(args[0]) is not np.ndarray \
                or args[0].dtype != np.float64:
            if not (len(args) == 2
                    and type(args[0]) is type(args[1]) is np.ndarray
                    and args[0].dtype == args[1].dtype == np.float64):
                args = [np.asarray(a, dtype=float) for a in args]
        value = np.asarray(fn(*args), dtype=float)
        shape = args[0].shape if len(args) == 1 else np.broadcast(*args).shape
        if value.shape == shape:
            return value
        if len(args) == 1:
            return np.broadcast_to(value, shape)
        if value.ndim > len(shape) or any(n not in (1, m) for n, m in zip(
                value.shape[::-1], shape[::-1])):
            raise ValueError(f"a value of shape {value.shape} does not "
                             f"broadcast to the arguments' shape {shape}")
        return value[(None,) * (len(shape) - value.ndim)]
    call._float_array_valued = True
    return call


# ---------------------------------------------------------------------------
# mark measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """Half-open-by-default interval of marks, ``lo < u <= hi``; a bound
    may be infinite, not NaN."""

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = True

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError(f"band ({self.lo}, {self.hi}] has a NaN bound")

    def contains(self, u):
        u = np.asarray(u)
        left = (u >= self.lo) if self.closed_lo else (u > self.lo)
        right = (u <= self.hi) if self.closed_hi else (u < self.hi)
        return left & right


def _as_bands(u3):
    if u3 is None:
        return None
    if isinstance(u3, Band):
        return (u3,)
    return tuple(u3)


def in_bands(u3, marks):
    """Vectorized membership of marks in a band set (None = everything)."""
    marks = np.asarray(marks, dtype=float)
    if u3 is None:
        return np.ones(marks.shape, dtype=bool)
    out = np.zeros(marks.shape, dtype=bool)
    for band in _as_bands(u3):
        out |= band.contains(marks)
    return out


class MarkMeasure:
    """A finite or infinite measure on real marks.

    Supported forms: a list of density pieces ``(lo, hi, d)`` on finite
    bounds with ``d`` a nonnegative density (any callable of the mark,
    wrapped to return float arrays shaped like its argument), and/or a list
    of atoms ``(u, w)`` with finite ``u`` and weights ``0 < w < inf``.
    Pieces straddling 0 are split there so piecewise quadrature never
    integrates across the ``|u|`` kink.  ``total_mass`` is computed on its
    first read (and kept): ``hi - lo`` for a :func:`lebesgue` piece,
    adaptive quadrature for other densities.  A piece whose quadrature does
    not converge (a density that does not integrate, such as ``|u|^-1.5``
    at 0) has infinite mass, and a converged negative piece is a
    :class:`DomainError`.
    """

    def __init__(self, pieces=(), atoms=(), label=""):
        split = []
        for lo, hi, dens in pieces:
            lo, hi = float(lo), float(hi)
            dens = _float_array_valued(dens)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"density piece [{lo}, {hi}] is not finite")
            if hi <= lo:
                raise DomainError(f"empty density piece [{lo}, {hi}]")
            if lo < 0.0 < hi:
                split.append((lo, 0.0, dens))
                split.append((0.0, hi, dens))
            else:
                split.append((lo, hi, dens))
        self.pieces = tuple(split)
        self.atoms = tuple((float(u), float(w)) for u, w in atoms)
        for u, w in self.atoms:
            if not (math.isfinite(u) and math.isfinite(w)):
                raise DomainError(f"atom at {u} of weight {w} is not finite")
            if w <= 0.0:
                raise DomainError(f"atom at {u} has non-positive weight {w}")
        self.label = label
        self._nw = None

    @functools.cached_property
    def total_mass(self):
        return float(self._quadrature_mass())

    def _quadrature_mass(self):
        m = sum(w for _, w in self.atoms)
        for lo, hi, dens in self.pieces:
            if dens is _unit_density:
                # equal to the adaptive quadrature of 1 bit for bit
                m += hi - lo
                continue
            from scipy.integrate import quad
            val, _, _, *warning = quad(lambda u: float(dens(u)), lo, hi,
                                       limit=200, full_output=1)
            if not warning and val < 0.0:
                raise DomainError(f"density piece [{lo}, {hi}] of "
                                  f"{self.label!r} has negative mass {val:g}")
            m += math.inf if warning else val
        return m

    @property
    def is_finite(self):
        return math.isfinite(self.total_mass)

    def nodes_and_weights(self):
        """Quadrature atoms: ``integral g dnu ~= sum w_i g(u_i)``.

        Gauss-Legendre nodes per density piece (weights folded with the
        density values), plus the exact atoms.
        """
        if self._nw is None:
            xs, ws = [], []
            gl_x, gl_w = gauss_legendre(_GL_NODES)
            for lo, hi, dens in self.pieces:
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                u = mid + half * gl_x
                xs.append(u)
                ws.append(half * gl_w * dens(u))
            for u, w in self.atoms:
                xs.append(np.array([u]))
                ws.append(np.array([w]))
            if xs:
                self._nw = (np.concatenate(xs), np.concatenate(ws))
            else:
                self._nw = (np.zeros(0), np.zeros(0))
        return self._nw

    def integrate(self, g):
        """Integrate a vectorized function of the mark against the measure.

        ``g(u)`` may return ``(..., nodes)``: each row sums with its own dot
        product, so its bits do not depend on the row count (a gemv's do).
        A 1-D result is a float and no nodes give zeros.  A value constant
        along the marks may come as a ``(..., 1)`` column, or a constant:
        it is expanded over the nodes only here, just before the dot, and
        sums to its expanded twin's bits."""
        u, w = self.nodes_and_weights()
        vals = g(u)
        if np.shape(vals)[-1:] != u.shape:
            # a value constant along the marks is expanded into one fresh
            # contiguous array, so each row sums as its expanded twin
            full = np.empty(np.shape(vals)[:-1] + u.shape)
            full[...] = vals
            vals = full
        else:
            vals = np.ascontiguousarray(vals, float)
        sums = (vals[..., None, :] @ w)[..., 0]
        return float(sums) if sums.ndim == 0 else sums

    def restricted(self, bands):
        """Measure restricted to a band set (used for sub-support masses)."""
        if bands is None:
            return self
        bands = _as_bands(bands)
        pieces, atoms = [], []
        for lo, hi, dens in self.pieces:
            for band in bands:
                a, b = max(lo, band.lo), min(hi, band.hi)
                if b > a:
                    pieces.append((a, b, dens))
        for u, w in self.atoms:
            if bool(in_bands(bands, u)):
                atoms.append((u, w))
        return MarkMeasure(pieces, atoms, label=f"{self.label}|restricted")

    def mass_in(self, bands):
        if bands is None:
            return self.total_mass
        return self.restricted(bands).total_mass

    @functools.cached_property
    def _sampler(self):
        # categorical over (pieces..., atoms...) by mass, inverse-CDF within
        # a piece via a tabulated normalized CDF
        comp_mass, tables = [], []
        for lo, hi, dens in self.pieces:
            grid = np.linspace(lo, hi, _CDF_TABLE)
            vals = np.maximum(dens(grid), 0.0)
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
            comp_mass.append(cdf[-1])
            tables.append((grid, cdf / cdf[-1] if cdf[-1] > 0 else cdf))
        for u, w in self.atoms:
            comp_mass.append(w)
            tables.append(u)
        comp_mass = np.asarray(comp_mass, dtype=float)
        # the component CDF exactly as Generator.choice(p=...) builds it
        comp_cdf = (comp_mass / comp_mass.sum()).cumsum()
        comp_cdf /= comp_cdf[-1]
        return comp_cdf, tables

    def sample(self, rng, size):
        """Draw ``size`` marks from the normalized measure: ``size``
        component uniforms, then one uniform per mark on a density piece
        (see :meth:`marks`)."""
        if not self.is_finite:
            raise DomainError(
                "cannot sample marks from an infinite measure; apply "
                "truncate_small_jumps first"
            )
        if size == 0:
            return np.zeros(0)
        comp = self.components(rng.random(size))
        on_pieces = int(np.count_nonzero(comp < len(self.pieces)))
        return self.marks(comp, np.zeros(size, np.intp),
                          rng.random(on_pieces), [0])

    def components(self, uniforms):
        """The component of each mark from its uniform, as
        ``Generator.choice`` picks it: an index into the pieces, then the
        atoms, with probabilities proportional to their masses."""
        return self._sampler[0].searchsorted(uniforms, side="right")

    def marks(self, comp, rows, uniforms, starts):
        """The marks of components ``comp``, from uniforms drawn beforehand.

        Mark ``i`` belongs to draw ``rows[i]`` (ascending).  A draw's marks
        on density pieces take the uniforms from ``uniforms[starts[row]]``
        on in turn, ordered by component and then by position, through the
        piece's tabulated inverse CDF; a mark on an atom is the atom, and
        takes no uniform.
        """
        tables = self._sampler[1]
        on_pieces = np.flatnonzero(comp < len(self.pieces))
        on_pieces = on_pieces[np.lexsort((comp[on_pieces], rows[on_pieces]))]
        r = rows[on_pieces]
        u = np.empty(len(comp))
        u[on_pieces] = uniforms[np.asarray(starts)[r] + np.arange(len(r))
                                - r.searchsorted(r)]
        out = np.empty(len(comp))
        for k, table in enumerate(tables):
            sel = comp == k
            if isinstance(table, tuple):
                grid, cdf = table
                out[sel] = np.interp(u[sel], cdf, grid)
            else:
                out[sel] = table
        return out


@_float_array_valued
def _unit_density(u):
    return 1.0


def lebesgue(lo, hi, label=""):
    return MarkMeasure(pieces=[(lo, hi, _unit_density)],
                       label=label or f"lebesgue[{lo},{hi}]")


# ---------------------------------------------------------------------------
# concavity moduli
# ---------------------------------------------------------------------------

class Modulus:
    """Nondecreasing nonnegative modulus ``rho`` on ``[0, inf)``.

    ``domain_hint`` is the upper edge of the interval on which the closed
    form is the natural one; beyond it the catalog entries continue with the
    constant value at the edge (which preserves nondecrease and concavity).

    ``log_weight(ell)`` evaluates ``exp(-ell) / rho(exp(-ell))`` stably even
    where ``exp(-ell)`` underflows; it is the integrand of ``ds / rho(s)``
    after the substitution ``s = exp(-ell)`` and is what makes the deep
    small-argument machinery (a-sequence, psi-family) workable far below
    float range.
    """

    def __init__(self, rho, domain_hint, label, closed_form_omega=None,
                 log_weight=None, log_weight_breaks=()):
        self.rho = _float_array_valued(rho)
        self.domain_hint = float(domain_hint)
        self.label = label
        self.closed_form_omega = closed_form_omega
        self.log_weight = _float_array_valued(
            self._rho_log_weight if log_weight is None else log_weight)
        self.log_weight_breaks = tuple(log_weight_breaks)

    def __call__(self, x):
        return self.rho(x)

    def __repr__(self):
        return f"Modulus({self.label!r})"

    def _rho_log_weight(self, ell):
        # log_weight straight from rho, for a modulus given without one
        x = np.exp(-ell)
        if np.any(x == 0.0):
            raise DomainError(
                f"modulus {self.label!r} has no stable log-domain form and "
                f"exp(-ell) underflows at ell={float(np.max(ell)):g}"
            )
        return x / self.rho(x)


def scale_modulus(modulus, c):
    """``c * rho`` — still a valid modulus for ``c > 0``."""
    c = float(c)
    if not 0 < c < math.inf:
        raise DomainError("modulus scale must be positive and finite")
    cf = None
    if modulus.closed_form_omega is not None:
        fwd, inv = modulus.closed_form_omega
        cf = (lambda t, tb: fwd(t, tb) / c, lambda y, tb: inv(c * y, tb))
    return Modulus(
        rho=lambda x, _m=modulus, _c=c: _c * _m.rho(x),
        domain_hint=modulus.domain_hint,
        label=f"{c:g}*{modulus.label}",
        closed_form_omega=cf,
        log_weight=lambda ell, _m=modulus, _c=c: _m.log_weight(ell) / _c,
        log_weight_breaks=modulus.log_weight_breaks,
    )


def _identity_modulus():
    def rho(x):
        return x + 0.0

    def _inv(y, tb):
        with np.errstate(over="ignore"):
            return tb * np.exp(y)

    cf = (lambda t, tb: np.log(t / tb), _inv)
    return Modulus(rho, domain_hint=math.inf, label="identity",
                   closed_form_omega=cf, log_weight=lambda ell: 1.0)


def _neg_x_log_x_modulus():
    edge = 1.0 / math.e          # argmax of -x ln x
    peak = 1.0 / math.e

    def rho(x):
        out = np.full(x.shape, peak)
        inner = (x > 0) & (x <= edge)
        xv = np.where(inner, x, 0.5)
        out = np.where(inner, -xv * np.log(xv), out)
        return np.where(x <= 0, 0.0, out)

    def w(ell):
        safe = np.maximum(ell, 1.0)
        return np.where(ell >= 1.0, 1.0 / safe, np.exp(1.0 - ell) * (ell < 1.0))

    return Modulus(rho, domain_hint=edge, label="neg_x_log_x", log_weight=w,
                   log_weight_breaks=(1.0,))


def _solve_l_star():
    # argmax of x*ln(ln(1/x)) sits where ln(L) = 1/L, L = ln(1/x).  Newton
    # from L = 2 ends in a cycle of adjacent floats; keep the least residual.
    def f(L):
        return math.log(L) - 1.0 / L

    L, seen = 2.0, set()
    while L not in seen:
        seen.add(L)
        L -= f(L) / (1.0 / L + 1.0 / (L * L))
    return min(seen, key=lambda v: abs(f(v)))


_L_STAR = _solve_l_star()
_X_STAR = math.exp(-_L_STAR)
_X_STAR_VALUE = _X_STAR / _L_STAR      # x* * ln(L*) with ln(L*) = 1/L*


def _x_log_log_modulus():
    def rho(x):
        out = np.full(x.shape, _X_STAR_VALUE)
        inner = (x > 0) & (x <= _X_STAR)
        xv = np.where(inner, x, 0.5 * _X_STAR)
        out = np.where(inner, xv * np.log(np.log(1.0 / xv)), out)
        return np.where(x <= 0, 0.0, out)

    def w(ell):
        safe = np.maximum(ell, _L_STAR)
        inner = 1.0 / (np.log(safe))
        outer = np.exp(-np.minimum(ell, 700.0)) / _X_STAR_VALUE
        return np.where(ell >= _L_STAR, inner, outer)

    return Modulus(rho, domain_hint=_X_STAR, label="x_log_log", log_weight=w,
                   log_weight_breaks=(_L_STAR,))


def _one_minus_x_pow_x_modulus():
    edge = 1.0 / math.e          # argmax of 1 - x^x
    peak = 1.0 - math.exp(-1.0 / math.e)

    def rho(x):
        out = np.full(x.shape, peak)
        inner = (x > 0) & (x <= edge)
        xv = np.where(inner, x, 0.5)
        out = np.where(inner, -np.expm1(xv * np.log(xv)), out)
        return np.where(x <= 0, 0.0, out)

    def w(ell):
        # exp(-ell) / (1 - exp(-t)) with t = ell*exp(-ell); for tiny t the
        # ratio collapses to 1/ell exactly at double precision
        outer = np.exp(-np.minimum(ell, 700.0)) / peak
        safe = np.maximum(ell, 1.0)
        t = safe * np.exp(-safe)
        small = t < 1e-12
        denom = np.where(small, 1.0, -np.expm1(-t))
        inner = np.where(small, 1.0 / safe, np.exp(-safe) / denom)
        return np.where(ell >= 1.0, inner, outer)

    return Modulus(rho, domain_hint=edge, label="one_minus_x_pow_x", log_weight=w,
                   log_weight_breaks=(1.0,))


MODULUS_CATALOG = {
    "identity": _identity_modulus,
    "neg_x_log_x": _neg_x_log_x_modulus,
    "x_log_log": _x_log_log_modulus,
    "one_minus_x_pow_x": _one_minus_x_pow_x_modulus,
}


def builtin_modulus(name):
    """Look up a modulus by catalog key.

    Keys: ``identity`` (rho(x) = x), ``neg_x_log_x`` (-x ln x up to 1/e),
    ``x_log_log`` (x ln(-ln x) up to its argmax), ``one_minus_x_pow_x``
    (1 - x^x up to 1/e).  Bounded entries continue rightwards with their
    edge value.
    """
    try:
        return MODULUS_CATALOG[name]()
    except KeyError:
        raise CatalogError(
            f"unknown modulus {name!r}; valid keys: {sorted(MODULUS_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# growth envelopes
# ---------------------------------------------------------------------------

class GrowthFunction:
    """Nondecreasing envelope ``Upsilon >= 1`` with an explicit derivative.

    ``kinks`` lists points where the piecewise definition switches; finite
    difference checks exclude them.
    """

    # calls return ``upsilon``'s float arrays, so the envelope is not wrapped
    # again where a bare callable would be
    _float_array_valued = True

    def __init__(self, upsilon, upsilon_prime, label, kinks=()):
        self.upsilon = _float_array_valued(upsilon)
        self.upsilon_prime = _float_array_valued(upsilon_prime)
        self.label = label
        self.kinks = tuple(kinks)

    def __call__(self, x):
        return self.upsilon(x)

    def __repr__(self):
        return f"GrowthFunction({self.label!r})"


def _growth_one():
    return GrowthFunction(lambda x: 1.0, lambda x: 0.0, label="one")


def _growth_log():
    e = math.e

    def ups(x):
        return np.where(x <= e, 1.0, np.log(np.maximum(x, e)))

    def dups(x):
        return np.where(x <= e, 0.0, 1.0 / np.maximum(x, e))

    return GrowthFunction(ups, dups, label="log", kinks=(e,))


def _growth_log_loglog():
    e2 = math.e ** 2
    floor = 2.0 * math.log(2.0)      # value at x = e^2

    def ups(x):
        xs = np.maximum(x, e2)
        return np.where(x <= e2, floor, np.log(xs) * np.log(np.log(xs)))

    def dups(x):
        xs = np.maximum(x, e2)
        return np.where(x <= e2, 0.0, (np.log(np.log(xs)) + 1.0) / xs)

    return GrowthFunction(ups, dups, label="log_loglog", kinks=(e2,))


GROWTH_CATALOG = {
    "one": _growth_one,
    "log": _growth_log,
    "log_loglog": _growth_log_loglog,
}


def builtin_growth(name):
    """Look up a growth envelope by catalog key: ``one``, ``log``,
    ``log_loglog``.  The two unbounded entries are constant left of the point
    where their natural form reaches 1 (``e`` and ``e^2``)."""
    try:
        return GROWTH_CATALOG[name]()
    except KeyError:
        raise CatalogError(
            f"unknown growth function {name!r}; valid keys: {sorted(GROWTH_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# coefficient sets and presets
# ---------------------------------------------------------------------------

class CoefficientSet:
    """One jump-SDE model: drift, diffusion, jump coefficients, mark measures.

    Every coefficient returns a float array, whatever the callable given
    returns: ``b`` and ``sigma`` shaped like the state, ``c1`` and ``c2``
    with each axis full or of length 1, so a constant, a state-free
    (``c = u``) or a mark-free (``c = g(x)``) coefficient is fine.

    Parameters
    ----------
    b, sigma : vectorized callables of the state.
    c1, c2 : vectorized callables ``(state, mark) -> jump size``; ``c1`` is
        driven by the compensated measure ``nu1``, ``c2`` by the finite
        measure ``nu2``.
    nu1, nu2 : MarkMeasure.
    u3 : optional band (or tuple of bands) restricting ``nu2``; the mass
        outside must be finite, which is automatic here since ``nu2`` itself
        is finite.
    c1_mean : optional closed form of the compensation drift
        ``x -> integral c1(x, u) nu1(du)``; computed by quadrature when
        absent.
    """

    def __init__(self, b, sigma, c1, c2, nu1, nu2, u3=None, label="",
                 c1_mean=None):
        self.b = _float_array_valued(b)
        self.sigma = _float_array_valued(sigma)
        self.c1 = _float_array_valued(c1)
        self.c2 = _float_array_valued(c2)
        self.nu1 = nu1
        self.nu2 = nu2
        self.u3 = _as_bands(u3)
        self.label = label
        self._c1_mean = _float_array_valued(c1_mean)

    def __repr__(self):
        return f"CoefficientSet({self.label!r})"

    def c1_mean(self, x):
        """Compensation drift: the nu1-average jump size at state ``x``."""
        if self._c1_mean is not None:
            return self._c1_mean(x)
        x = np.asarray(x, dtype=float)[..., None]
        mean = self.nu1.integrate(lambda u: self.c1(x, u))
        # a state-free c1 sums once, for every state
        return mean if np.shape(mean) == x.shape[:-1] else \
            np.broadcast_to(mean, x.shape[:-1])

    def u3_measure(self):
        """``nu2`` restricted to the interlacing sub-support ``u3`` (``nu2``
        itself when ``u3`` is None); None when there is no ``nu2``."""
        return None if self.nu2 is None else self.nu2.restricted(self.u3)


GAMMA = math.sqrt(1.5)    # makes gamma^2 * second moment of lebesgue[-1,1] = 1


def preset_example_31():
    """Built-in model: logarithmic drift with square-root noise.

    Drift ``-|x| ln|x|`` (0 at 0), diffusion ``sqrt|x|``, small jumps of size
    ``sqrt|x|`` on marks ``|u| <= 1`` (unit Lebesgue density, compensated),
    and multiplicative large jumps ``gamma |u| x`` on marks in ``(1, 2]``
    (unit density, mass 1).  ``gamma = sqrt(3/2)`` normalizes the second
    moment of the small-jump coefficient family.

    The interlacing sub-support is empty: the large-jump measure is finite,
    so every large jump is handled by interlacing and the reduced equation
    carries none.  (A linear-in-gap large-jump term inside the local
    conditions would otherwise defeat every admissible modulus.)
    """
    def b(x):
        ax = np.abs(x)
        safe = np.where(ax > 0, ax, 1.0)
        return np.where(ax > 0, -ax * np.log(safe), 0.0)

    def sigma(x):
        return np.sqrt(np.abs(x))

    def c1(x, u):
        return np.sqrt(np.abs(x))

    def c2(x, u):
        return GAMMA * np.abs(u) * x

    return CoefficientSet(
        b=b, sigma=sigma, c1=c1, c2=c2,
        nu1=lebesgue(-1.0, 1.0, label="nu1:unit[-1,1]"),
        nu2=lebesgue(1.0, 2.0, label="nu2:unit(1,2]"),
        u3=(),
        label="example_31",
        c1_mean=lambda x: 2.0 * np.sqrt(np.abs(x)),
    )


def preset_example_41():
    """Built-in model: cubic-plus-cube-root dissipative drift, linear noise.

    Drift ``-(x^3 + cbrt(x))`` (real signed cube root), diffusion ``2x``, and
    multiplicative jumps ``gamma |u| x`` driven by both measures: compensated
    on marks ``|u| <= 1``, uncompensated on ``(1, 2]``.  The interlacing
    sub-support is empty, as in the sibling preset.
    """
    def b(x):
        return -(x ** 3 + np.cbrt(x))

    def sigma(x):
        return 2.0 * x

    def cj(x, u):
        return GAMMA * np.abs(u) * x

    return CoefficientSet(
        b=b, sigma=sigma, c1=cj, c2=cj,
        nu1=lebesgue(-1.0, 1.0, label="nu1:unit[-1,1]"),
        nu2=lebesgue(1.0, 2.0, label="nu2:unit(1,2]"),
        u3=(),
        label="example_41",
        c1_mean=lambda x: GAMMA * x,
    )


PRESET_CATALOG = {
    "example_31": preset_example_31,
    "example_41": preset_example_41,
}


def preset(name):
    """Look up a built-in model by name."""
    try:
        return PRESET_CATALOG[name]()
    except KeyError:
        raise CatalogError(
            f"unknown preset {name!r}; valid keys: {sorted(PRESET_CATALOG)}"
        ) from None
