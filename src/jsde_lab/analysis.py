"""Analytic machinery built on the concavity moduli.

This module turns the moduli into numerical objects:

* :class:`OmegaTransform` — the base-pointed antiderivative of ``1/rho`` and
  its inverse, the engine behind the nonlinear Gronwall bound
  (:func:`bihari_bound`).
* :func:`phi_growth` / :func:`moment_bound` — the concave envelope
  ``phi(x) = exp(integral_0^x ds/(s*Upsilon(s)+1))`` and the second-moment
  bound ``phi(E[x0^2]) * exp(mu*(M+1)*t)``.  ``phi_growth`` takes a scalar
  or an array; the exponent is an 81-point Gauss-Legendre sum on geometric
  panels split at ``Upsilon``'s kinks (about 1e-14 relative for moderate
  arguments), and a negative or non-finite argument is a ``DomainError``.
* :func:`a_sequence` / :func:`psi_build` — the vanishing support sequence
  ``a_n`` (each gap carrying reciprocal-modulus mass ``n``) and the smooth
  even approximations ``psi_n`` of ``|r|`` whose second derivative is capped
  by ``2/(n*rho)``.
* :func:`p_alpha`, :func:`nonconfluence_constants`,
  :func:`r_inequality_check` — the explicit constants and the Taylor-remainder
  inequality for ``R(x) = |x|^(-alpha)`` used by the non-confluence analysis.

Everything small-argument runs in the log domain ``ell = -ln r``: the
sequence ``a_n`` reaches values like ``exp(-e^90)`` for the slowly-varying
moduli, far below float range, so ``ell`` is the native coordinate and
``a_n = exp(-ell_n)`` is only materialized on demand.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, TransformRangeError
from .model import _GLW, _GLX, _float_array_valued, _gl_panel

__all__ = [
    "OmegaTransform",
    "omega_build",
    "bihari_bound",
    "phi_growth",
    "moment_bound",
    "a_sequence",
    "a_sequence_log",
    "PsiFamily",
    "psi_build",
    "p_alpha",
    "NonconfluenceConstants",
    "nonconfluence_constants",
    "r_inequality_check",
]

_ELL_CAP = 1e280          # expansion cap: beyond this the integral is deemed bounded


def _w_segments(breaks, l_lo, l_hi):
    """Panels of ``[l_lo, l_hi]``: split at the interior ``breaks``, then
    into geometric panels ``cur -> min(q, max(8*cur, cur + 8))``."""
    pts = [l_lo] + sorted(b for b in breaks if l_lo < b < l_hi) + [l_hi]
    for p, q in zip(pts[:-1], pts[1:]):
        cur = p
        while cur < q:
            nxt = min(q, max(cur * 8.0, cur + 8.0))
            yield cur, nxt
            cur = nxt


def w_integral(modulus, l_lo, l_hi):
    """``integral of exp(-l)/rho(exp(-l)) dl`` over ``[l_lo, l_hi]``.

    Equals ``integral dr/rho(r)`` over ``[exp(-l_hi), exp(-l_lo)]`` — the
    reciprocal-modulus mass of that interval — but is computable when the
    ``r`` endpoints underflow.
    """
    if l_hi < l_lo:
        return -w_integral(modulus, l_hi, l_lo)
    w = modulus.log_weight
    return sum(_gl_panel(w, a, b)
               for a, b in _w_segments(modulus.log_weight_breaks, l_lo, l_hi))


# ---------------------------------------------------------------------------
# Omega transform and the nonlinear Gronwall bound
# ---------------------------------------------------------------------------

class OmegaTransform:
    """Base-pointed antiderivative of ``1/rho`` with a numeric inverse.

    ``forward(t) = integral_{base}^{t} ds/rho(s)`` is strictly increasing;
    for moduli whose reciprocal integral diverges at 0 it decreases without
    bound as ``t -> 0``.  The transform is built around a positive
    ``base_point`` because the raw integral from 0 is infinite exactly in the
    divergent case; every downstream bound is invariant under the choice of
    base.
    """

    def __init__(self, modulus, base_point):
        base_point = float(base_point)
        if base_point <= 0:
            raise DomainError("base_point must be positive")
        probe = np.geomspace(base_point * 1e-12, base_point, 64)
        vals = modulus.rho(probe)
        if np.any(vals <= 0.0):
            bad = float(probe[np.argmax(vals <= 0.0)])
            raise DomainError(
                f"modulus {modulus.label!r} is non-positive near {bad:g}; "
                "the reciprocal transform is undefined"
            )
        self.modulus = modulus
        self.base_point = base_point
        self._lb = -math.log(base_point)
        self._cf = modulus.closed_form_omega

    def forward(self, t):
        t = float(t)
        if t <= 0:
            raise DomainError("forward() needs t > 0")
        if self._cf is not None:
            return float(self._cf[0](t, self.base_point))
        return self._g(-math.log(t))

    def _g(self, ell):
        return w_integral(self.modulus, ell, self._lb)

    def inverse(self, y):
        y = float(y)
        if self._cf is not None:
            return float(self._cf[1](y, self.base_point))
        if y == 0.0:
            return self.base_point
        lo, hi = self._lb, self._lb
        step = 1.0
        if y > 0:
            while self._g(lo) < y:
                lo -= step
                step *= 2.0
                if lo < -_ELL_CAP:
                    raise TransformRangeError(
                        f"inverse({y:g}) is beyond the transform's range; "
                        "build with a larger table range"
                    )
        else:
            while self._g(hi) > y:
                hi += step
                step *= 2.0
                if hi > _ELL_CAP:
                    raise TransformRangeError(
                        f"inverse({y:g}) is beyond the transform's range "
                        "(the reciprocal integral appears bounded); build "
                        "with a larger table range"
                    )
        if lo == hi:
            return self.base_point
        from scipy.optimize import brentq
        ell = brentq(lambda l: self._g(l) - y, lo, hi, rtol=1e-15, maxiter=200)
        return math.exp(-ell)

    def decade_values(self):
        """``forward(base * 10^-k)`` for k = 0..12 — the divergence probe."""
        return np.array([self.forward(self.base_point * 10.0 ** (-k))
                         for k in range(13)])


def omega_build(modulus, base_point):
    """Build the reciprocal-modulus transform anchored at ``base_point``."""
    return OmegaTransform(modulus, base_point)


def bihari_bound(transform, f, g, t, g_breakpoints=()):
    """Nonlinear Gronwall bound ``Omega^-1( Omega(f(t)) + integral_0^t g )``.

    ``f`` is the nondecreasing forcing level (scalar or callable of time),
    ``g`` the nonnegative rate (scalar or callable).  When ``f(t)`` is zero
    the comparison function degenerates and the bound is exactly 0.
    """
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise DomainError("t must be finite and nonnegative")
    ft = float(f(t)) if callable(f) else float(f)
    if not 0.0 <= ft < math.inf:
        raise DomainError("f(t) must be finite and nonnegative")
    if ft == 0.0:
        return 0.0
    if callable(g):
        from scipy.integrate import quad
        pts = [p for p in g_breakpoints if 0 < p < t] or None
        gi, _ = quad(lambda s: float(np.asarray(g(s))), 0.0, t,
                     points=pts, limit=200)
    else:
        gi = float(g) * t
    if not math.isfinite(gi):
        raise DomainError("the integral of g over [0, t] must be finite")
    return transform.inverse(transform.forward(ft) + gi)


# ---------------------------------------------------------------------------
# phi envelope and the second-moment bound
# ---------------------------------------------------------------------------

def _phi_exponent(upsilon, x):
    """``integral_0^x ds / (s*Upsilon(s) + 1)`` for each entry of the 1-D
    array ``x``, by the 81-point Gauss-Legendre rule on the panels of
    :func:`_w_segments` split at ``upsilon.kinks``.

    All panels of all entries go through one ``upsilon`` call.  Each panel is
    reduced within its own row and each entry's panels are added in panel
    order, so an entry's value does not depend on the rest of the batch.
    """
    kinks = getattr(upsilon, "kinks", ())
    panels = [list(_w_segments(kinks, 0.0, xi)) for xi in x.tolist()]
    counts = np.array([len(p) for p in panels])
    ends = np.array([ab for p in panels for ab in p]).reshape(-1, 2)
    mid = 0.5 * ends[:, :1] + 0.5 * ends[:, 1:]
    half = 0.5 * ends[:, 1:] - 0.5 * ends[:, :1]
    s = mid + half * _GLX
    u = upsilon(s)
    with np.errstate(over="ignore"):
        f = 1.0 / (s * u + 1.0)
    # near the top of float range s*u overflows; 1/(s*u) is the value there
    top = f == 0.0
    f[top] = 1.0 / s[top] / u[top]
    vals = half[:, 0] * (f * _GLW).sum(axis=1)
    # (entry, panel) table padded with exact zeros; cumsum adds left to right
    table = np.zeros((x.size, max(1, counts.max(initial=0))))
    table[np.arange(table.shape[1]) < counts[:, None]] = vals
    return np.cumsum(table, axis=1)[:, -1]


def phi_growth(upsilon, x):
    """``phi(x) = exp(integral_0^x ds / (s*Upsilon(s) + 1))``; phi(0) = 1.

    ``x`` is a scalar (returns a float) or array-like (returns an array of
    the same shape); an entry's value is the same bits whatever batch it is
    in.  The exponent is an 81-point Gauss-Legendre sum over ``[0, x]`` split
    at ``upsilon.kinks`` and then into geometric panels; phi is accurate to
    about 1e-14 relative for moderate ``x``, the error growing with the
    number of panels (about 3e-13 at ``x = 1e40`` for the constant
    envelope).  A negative or non-finite entry is a :class:`DomainError`.
    ``upsilon`` is a :class:`~jsde_lab.model.GrowthFunction` or a bare
    callable, taken as an envelope without kinks.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs < math.inf)):
        raise DomainError("phi is defined on finite x >= 0")
    phi = np.exp(_phi_exponent(_float_array_valued(upsilon),
                               xs.ravel())).reshape(xs.shape)
    return float(phi) if phi.ndim == 0 else phi


def moment_bound(upsilon, mu, M, second_moment_x0, t):
    """Growth bound on the phi-transformed second moment at time ``t``:
    ``phi(E[x0^2]) * exp(mu * (M + 1) * t)``.

    ``mu`` is the growth-condition constant and ``M`` bounds the restricted
    large-jump mass.  A bound past float range is ``inf``: vacuous, not an
    error.
    """
    for name, v in (("mu", mu), ("M", M),
                    ("second_moment_x0", second_moment_x0), ("t", t)):
        if not 0.0 <= v < math.inf:
            raise DomainError(f"{name} must be finite and nonnegative")
    try:
        growth = math.exp(mu * (M + 1.0) * t)
    except OverflowError:
        return math.inf
    return phi_growth(upsilon, second_moment_x0) * growth


# ---------------------------------------------------------------------------
# a-sequence and psi smoothing family
# ---------------------------------------------------------------------------

def a_sequence_log(modulus, n_max):
    """The sequence in the log domain: ``ell_n = -ln a_n`` with
    ``integral_{ell_{n-1}}^{ell_n} W = n`` (W the log-domain reciprocal
    weight).  ``ell_0 = 0``."""
    from scipy.optimize import brentq
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    ells = [0.0]
    for n in range(1, n_max + 1):
        prev = ells[-1]
        width = 1.0
        hi = prev + width
        while w_integral(modulus, prev, hi) < n:
            width *= 4.0
            hi = prev + width
            if hi > _ELL_CAP:
                raise DomainError(
                    f"modulus {modulus.label!r}: reciprocal-modulus mass near 0 "
                    f"saturates below {n}; the sequence needs a modulus whose "
                    "reciprocal integral diverges (see check_modulus)"
                )
        root = brentq(lambda l: w_integral(modulus, prev, l) - n,
                      prev, hi, rtol=1e-15, maxiter=300)
        ells.append(float(root))
    return np.asarray(ells)


def a_sequence(modulus, n_max):
    """Strictly decreasing ``1 = a_0 > a_1 > ... > a_{n_max}``; each gap
    ``(a_n, a_{n-1})`` carries reciprocal-modulus mass exactly ``n``.

    Values may underflow to 0.0 for slowly-varying moduli at moderate ``n``;
    :func:`a_sequence_log` is the lossless representation.
    """
    return np.exp(-a_sequence_log(modulus, n_max))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


class PsiFamily:
    """Smooth even approximation of ``|r|`` vanishing on ``[0, a_n]``.

    ``psi_n(r) = E[(|r| - U)^+]`` for a random ``U`` on ``(a_n, a_{n-1})``
    with density ``rho_n <= 2/(n*rho)``; then ``psi' in [0, 1]``,
    ``psi'' = rho_n``, ``psi_n <= |r|``, and the families increase to ``|r|``
    with ``n``.  The density is carried in the log domain as
    ``q(ell) = lam * (2/n) * W(ell) * s(ell)`` with a smooth cutoff ``s`` and
    normalization ``lam <= 1``, so deep-underflow supports still work.
    """

    def __init__(self, modulus, n):
        if n < 1:
            raise DomainError("psi index must be >= 1")
        self.modulus = modulus
        self.n = int(n)
        self.ell_seq = a_sequence_log(modulus, self.n)
        self.l_lo = float(self.ell_seq[-2])    # ell at a_{n-1}
        self.l_hi = float(self.ell_seq[-1])    # ell at a_n
        self._tau_lo = math.log1p(self.l_lo)
        self._tau_hi = math.log1p(self.l_hi)
        self._build_cutoff()
        self._build_tables()

    # -- construction -----------------------------------------------------

    def _cutoff(self, ell):
        tau = np.log1p(np.asarray(ell, dtype=float))
        w = self._ramp_tau
        up = _smoothstep((tau - self._tau_lo) / w)
        down = _smoothstep((self._tau_hi - tau) / w)
        inside = (tau > self._tau_lo) & (tau < self._tau_hi)
        return np.where(inside, up * down, 0.0)

    def _q_raw(self, ell):
        # envelope (2/n) * W times cutoff; lam multiplies afterwards
        return (2.0 / self.n) * self.modulus.log_weight(ell) * self._cutoff(ell)

    def _raw_mass(self):
        return sum(_gl_panel(self._q_raw, a, b)
                   for a, b in _w_segments(self.modulus.log_weight_breaks,
                                           self.l_lo, self.l_hi))

    def _build_cutoff(self):
        span = self._tau_hi - self._tau_lo
        frac = 0.2
        while True:
            self._ramp_tau = frac * span
            mass = self._raw_mass()
            if mass >= 1.1 or frac < 1e-7:
                break
            frac *= 0.5
        if mass < 1.0:
            raise DomainError(
                f"cutoff mass {mass:g} < 1 for {self.modulus.label!r}, n={self.n}; "
                "the reciprocal envelope is too thin"
            )
        self.lam = 1.0  # final value set from the table mass in _build_tables

    def q(self, ell):
        """Log-domain density: ``rho_n(exp(-ell)) * exp(-ell)``."""
        return self.lam * self._q_raw(ell)

    def _build_tables(self):
        # tail-cumulative tables of mass (T0) and first moment (T1) on a
        # hybrid tau grid: global resolution plus dense ramps
        tau_glob = np.linspace(self._tau_lo, self._tau_hi, 1 << 16 | 1)
        w = self._ramp_tau
        tau_lramp = np.linspace(self._tau_lo, min(self._tau_lo + w, self._tau_hi), (1 << 13) | 1)
        tau_rramp = np.linspace(max(self._tau_hi - w, self._tau_lo), self._tau_hi, (1 << 13) | 1)
        tau = np.unique(np.concatenate([tau_glob, tau_lramp, tau_rramp]))
        ell = np.expm1(tau)
        qv = self._q_raw(ell)
        r = np.exp(-np.minimum(ell, 745.0)) * (ell < 745.0)
        seg0 = 0.5 * (qv[1:] + qv[:-1]) * np.diff(ell)
        seg1 = 0.5 * (qv[1:] * r[1:] + qv[:-1] * r[:-1]) * np.diff(ell)
        t0 = np.concatenate([np.cumsum(seg0[::-1])[::-1], [0.0]])
        t1 = np.concatenate([np.cumsum(seg1[::-1])[::-1], [0.0]])
        # normalize off the table itself so the tail-mass table tops out at
        # exactly 1.0 (psi' interpolates it and must stay in [0, 1])
        self.lam = 1.0 / float(t0[0])
        self._ell_nodes = ell
        self._t0 = self.lam * t0      # tail mass from node to l_hi
        self._t1 = self.lam * t1      # tail first moment (in r units)
        self.mean = float(self._t1[0])

    # -- derived quantities ------------------------------------------------

    @property
    def support(self):
        """(a_n, a_{n-1}) as floats (either may underflow to 0)."""
        return math.exp(-self.l_hi) if self.l_hi < 745 else 0.0, \
            math.exp(-self.l_lo) if self.l_lo < 745 else 0.0

    def _tail_interp(self, ell, table):
        return np.interp(ell, self._ell_nodes, table,
                         left=table[0], right=0.0)

    def psi(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        pos = r > 0
        ell = np.full_like(r, np.inf)
        ell[pos] = -np.log(r[pos])
        above = ell <= self.l_lo            # r >= a_{n-1}
        out = np.where(above, r - self.mean, out)
        mid = (~above) & (ell < self.l_hi)
        if np.any(mid):
            t0 = self._tail_interp(ell[mid], self._t0)
            t1 = self._tail_interp(ell[mid], self._t1)
            out[mid] = np.maximum(r[mid] * t0 - t1, 0.0)
        return out if out.shape else float(out)

    def psi_prime(self, r):
        """First derivative ``psi_n'``, odd in ``r``; it checks the statement
        ``0 <= psi_n' <= 1`` for ``r >= 0``."""
        r = np.asarray(r, dtype=float)
        sign = np.sign(r)
        ra = np.abs(r)
        out = np.zeros_like(ra)
        pos = ra > 0
        ell = np.full_like(ra, np.inf)
        ell[pos] = -np.log(ra[pos])
        out = np.where(ell <= self.l_lo, 1.0, out)
        mid = (ell > self.l_lo) & (ell < self.l_hi)
        if np.any(mid):
            out[mid] = self._tail_interp(ell[mid], self._t0)
        out = sign * out
        return out if out.shape else float(out)

    def psi_ddot(self, r):
        """Second derivative ``rho_n(|r|)``; it checks the statement
        ``psi_n'' <= 2/(n rho)``, and overflows to ``inf`` when the support
        sits below float range."""
        ra = np.abs(np.asarray(r, dtype=float))
        out = np.zeros_like(ra)
        pos = ra > 0
        ell = np.full_like(ra, np.inf)
        ell[pos] = -np.log(ra[pos])
        mid = (ell > self.l_lo) & (ell < self.l_hi)
        if np.any(mid):
            with np.errstate(over="ignore"):
                out[mid] = self.q(ell[mid]) * np.exp(np.minimum(ell[mid], 745.0))
        return out if out.shape else float(out)

    def mass_quad(self):
        """Independent adaptive re-integration of the density: checks that
        the ``psi_n''`` mass is 1."""
        from scipy.integrate import quad
        total = 0.0
        for a, b in _w_segments(self.modulus.log_weight_breaks,
                                self.l_lo, self.l_hi):
            val, _ = quad(lambda l: float(self.q(l)), a, b, limit=200)
            total += val
        return total

    def gap_mass_check(self):
        """Reciprocal-modulus mass of (a_n, a_{n-1}) by dense trapezoid in the
        tau domain, on 200001 nodes — an independent check of
        ``integral_{a_n}^{a_{n-1}} dr/rho = n``."""
        tau = np.linspace(self._tau_lo, self._tau_hi, 200001)
        ell = np.expm1(tau)
        wv = self.modulus.log_weight(ell)
        return float(np.trapezoid(wv * (1.0 + ell), tau))


def psi_build(modulus, n):
    """Build the n-th smoothing family for a modulus."""
    return PsiFamily(modulus, n)


# ---------------------------------------------------------------------------
# non-confluence constants and the R-inequality
# ---------------------------------------------------------------------------

def p_alpha(alpha):
    """Moment-order constant ``|a(a-1)|/2 + |a| + a(2^a + 3) + 2``."""
    if not 0.0 <= alpha < math.inf:
        raise DomainError("alpha must be nonnegative and finite")
    a = float(alpha)
    return 0.5 * abs(a * (a - 1.0)) + abs(a) + a * (2.0 ** a + 3.0) + 2.0


NonconfluenceConstants = namedtuple("NonconfluenceConstants",
                                    ["K", "K_prime", "K1", "K2"])


def nonconfluence_constants(alpha, delta, M):
    """Explicit constants for the separation analysis at exponent ``alpha``
    and jump-separation factor ``delta``; ``M`` bounds the restricted
    large-jump mass."""
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if not (0.0 <= alpha < math.inf and 0.0 <= M < math.inf):
        raise DomainError("alpha and M must be nonnegative and finite")
    K = delta ** (-alpha) * (1.0 + 2.0 * alpha)
    Kp = delta ** (-alpha) * (1.0 + alpha)
    K1 = M * (K + Kp)
    K2 = alpha + 0.5 * alpha * (alpha + 1.0) + K + Kp
    return NonconfluenceConstants(K, Kp, K1, K2)


def r_inequality_check(alpha, delta, samples):
    """Worst slack of the Taylor-remainder inequality for ``R(x)=|x|^-alpha``.

    For admissible pairs (x nonzero, ``|x+y| >= delta*|x|``) the increment
    ``R(x+y) - R(x) - R'(x) y`` must stay below
    ``K (|x|^alpha + |x|^(alpha-1) |y|) / |x|^(2 alpha)``.
    Returns ``max(LHS - RHS)`` over the samples (nonpositive when the
    inequality holds).
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("samples must be an (m, 2) array of (x, y) pairs")
    x, y = arr[:, 0], arr[:, 1]
    if np.any(x == 0.0):
        raise DomainError("inadmissible sample: x = 0")
    bad = np.abs(x + y) < delta * np.abs(x)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"inadmissible sample (x={x[i]:g}, y={y[i]:g}): "
            f"|x+y| < delta*|x| with delta={delta:g}"
        )
    a = float(alpha)
    K = nonconfluence_constants(a, delta, 0.0).K
    if a == 0.0:
        lhs = np.zeros_like(x)
    else:
        r0 = np.abs(x) ** (-a)
        r1 = np.abs(x + y) ** (-a)
        dr = -a * np.abs(x) ** (-a - 1.0) * np.sign(x)
        lhs = r1 - r0 - dr * y
    rhs = K * (np.abs(x) ** a + np.abs(x) ** (a - 1.0) * np.abs(y)) / np.abs(x) ** (2.0 * a)
    return float(np.max(lhs - rhs))
