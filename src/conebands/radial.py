"""Radial problem: periodic profile, transfer matrices, Floquet eigenvalues.

One period of the profile rho(tau), parametrized from a cut placed in the
middle of the outer cylinder (so rho(0) = rho(T) = 1):

    half cylinder | cone down (1 -> eps) | handle (eps) | cone up | half cyl

A scalar channel with section sigma satisfies, in the unitarily flattened
picture, the Hill equation

    -sigma'' + V(tau) sigma = lambda sigma

with V = gamma (gamma + 1) / rho^2 on cones (gamma = channel.gammas[0]),
V = mu^2 / rho^2 on flat parts (mu^2 = channel.mu2), and at every slope
break of rho the derivative jumps by

    sigma'(+) = sigma'(-) + (slope_- - slope_+) / rho * w sigma,

w = channel.interface_weights[0].  On the left (descending) cone the
traversal runs against the cone's own radial coordinate; in global
coordinates that conjugates the ascending-cone propagator by the flip
K = diag(1, -1) of (sigma, sigma').

Floquet eigenvalues at quasimomentum theta are the lambda with
tr M = 2 cos theta for the period monodromy M.  The spectrum of an H5 pair
is the disjoint union of those of its two scalar Hodge partners
(channels.pair_partners), so the pair is solved as those two channels, or
once when the two are the same scalar problem.

The cone's Frobenius recurrences do not involve lambda: lambda enters only
through z = lambda t^2.  A root scan therefore builds one lambda-free
coefficient table per channel (cone_basis, valid up to lam_max t_max^2) and
evaluates the monodromy for the whole lambda grid at once, as (G, 2, 2)
arrays with one log scale per point, so deep spectral gaps (huge hyperbolic
growth) never overflow.  Root polishing is one batched bracket solve per
scalar problem: every sign-change bracket of every theta goes through the
same batched code and the same table in one elementwise call.  The
evaluator is elementwise, so a polished value at a grid node equals the
scanned one bit for bit.  The cone evaluation checks the
numerical Wronskian of every point and raises NumericalError once the series
has lost its digits (lambda t^2 beyond about 400).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.optimize.elementwise import find_root

from .channels import Channel, pair_partners

# lambda grid resolution for root scans: one batched monodromy evaluation of
# SCAN_STEPS + 1 points per scalar problem, then one batched bracket solve per
# scalar problem on the same coefficient table
SCAN_STEPS = 2000
# absolute tolerance of a polished or dip-minimised Floquet root
ROOT_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical invariant failed (overflow, residual, non-convergence)."""


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True)
class Segment:
    kind: str  # cylinder | handle | cone_up | cone_down | corner
    tau0: float
    tau1: float
    rho_start: float
    slope_in: float
    slope_out: float
    corner_tau: float = math.nan
    corner_rho: float = math.nan
    delta: float = math.nan

    @property
    def length(self) -> float:
        return self.tau1 - self.tau0

    def rho(self, tau):
        """Radius at tau, a float or an array of points in [tau0, tau1]."""
        if self.kind == "corner":
            sm, sp, d = self.slope_in, self.slope_out, self.delta
            x = tau - self.corner_tau
            return (
                self.corner_rho
                + 0.5 * (sm + sp) * x
                + (sp - sm) / (4.0 * d) * x * x
                + (sp - sm) * d / 4.0
            )
        return self.rho_start + self.slope_in * (tau - self.tau0)

    def rho_prime(self, tau):
        if self.kind == "corner":
            sm, sp, d = self.slope_in, self.slope_out, self.delta
            return 0.5 * (sm + sp) + (sp - sm) * (tau - self.corner_tau) / (2.0 * d)
        return self.slope_in


@dataclass
class Profile:
    eps: float
    L: float
    l_out: float
    eta: float
    T: float
    segments: list[Segment] = field(default_factory=list)

    def rho(self, tau):
        """Radius at tau (a float or an array), periodic in T."""
        return self._pointwise(tau, Segment.rho)

    def rho_prime(self, tau):
        """Slope of rho at tau (a float or an array), periodic in T."""
        return self._pointwise(tau, Segment.rho_prime)

    def _pointwise(self, tau, fn):
        """fn(segment, tau) on the segment holding each tau, evaluated
        segment by segment; at a junction (within 1e-12) the earlier
        segment. A float tau gives a float."""
        tau = np.asarray(tau, dtype=float) % self.T
        ends = np.array([seg.tau1 for seg in self.segments]) + 1e-12
        idx = np.minimum(np.searchsorted(ends, tau), len(self.segments) - 1)
        out = np.empty(tau.shape)
        for i, seg in enumerate(self.segments):
            sel = idx == i
            out[sel] = fn(seg, tau[sel])
        return out[()]


def make_profile(eps: float, L: float, l_out: float, eta: float = 0.0) -> Profile:
    """Cone-handle profile with period T = L + 2(1-eps) + l_out.

    eta > 0 rounds every slope break by a C^1 quadratic patch of half-width
    min(2 * rho_corner * eta, room), which keeps |log(rho_eta / rho)| <= eta/2
    pointwise, i.e. the smoothed metric stays within [e^-eta, e^eta] of the
    piecewise one.
    """
    eps, L, l_out, eta = float(eps), float(L), float(l_out), float(eta)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in ]0, 1], got {eps}")
    if L < 0 or l_out < 0:
        raise ValueError("segment lengths must be nonnegative")
    if eta < 0 or eta >= 1:
        raise ValueError(f"eta must lie in [0, 1[, got {eta}")
    T = L + 2.0 * (1.0 - eps) + l_out
    if T <= 0:
        raise ValueError("degenerate profile: period T = 0")

    has_cones = eps < 1.0
    half = 0.5 * l_out
    raw: list[tuple[str, float, float, float, float]] = []  # kind, tau0, tau1, slope, rho(tau0)
    tau = 0.0
    for kind, length, slope, rho0 in (
        ("cylinder", half, 0.0, 1.0),
        ("cone_down", 1.0 - eps, -1.0, 1.0),
        ("handle", L, 0.0, eps),
        ("cone_up", 1.0 - eps, 1.0, eps),
        ("cylinder", half, 0.0, 1.0),
    ):
        if length > 0:
            raw.append((kind, tau, tau + length, slope, rho0))
            tau += length
    assert abs(tau - T) < 1e-12

    if eta == 0.0:
        segments = [Segment(kind, a, b, r0, s, s) for kind, a, b, s, r0 in raw]
        return Profile(eps, L, l_out, eta, T, segments)

    # corner roundings
    if has_cones and (L == 0.0 or l_out == 0.0):
        raise ValueError(
            "eta > 0 needs positive handle and outer-cylinder lengths, otherwise "
            "adjacent smoothing regions overlap"
        )
    corners = []  # (tau_c, rho_c, s_minus, s_plus, delta)
    for i in range(len(raw) - 1):
        _, a0, b0, s0, r0 = raw[i]
        _, a1, b1, s1, _ = raw[i + 1]
        if s0 == s1:
            continue
        rho_c = r0 + s0 * (b0 - a0)
        room = 0.5 * min(b0 - a0, b1 - a1)
        delta = min(2.0 * rho_c * eta, room)
        if delta <= 0:
            raise ValueError("no room to smooth a corner; reduce eta")
        corners.append((b0, rho_c, s0, s1, delta))

    segments = []
    cursor = 0.0
    ci = 0
    for kind, a, b, s, r0 in raw:
        a_eff = max(a, cursor)
        b_eff = b
        next_corner_here = ci < len(corners) and abs(corners[ci][0] - b) < 1e-12
        if next_corner_here:
            b_eff = corners[ci][0] - corners[ci][4]
        if b_eff > a_eff + 1e-15:
            segments.append(Segment(kind, a_eff, b_eff, r0 + s * (a_eff - a), s, s))
        if next_corner_here:
            tc, rc, sm, sp, d = corners[ci]
            segments.append(
                Segment("corner", tc - d, tc + d, math.nan, sm, sp,
                        corner_tau=tc, corner_rho=rc, delta=d)
            )
            cursor = tc + d
            ci += 1
    return Profile(eps, L, l_out, eta, T, segments)


# ---------------------------------------------------------------------------
# flat segments


def _put(P: np.ndarray, mask: np.ndarray, a, b, c, d) -> None:
    P[mask, 0, 0], P[mask, 0, 1], P[mask, 1, 0], P[mask, 1, 1] = a, b, c, d


def _flat_propagators(mass2: float, lam: np.ndarray, ell: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices of -u'' + mass2 u = lam u over a length-ell flat
    piece, acting on (u, u'), for every lam: (G, 2, 2) matrices and (G,) log
    scales, the propagator being matrix * exp(logscale).  Exact free, trig,
    hyperbolic and scaled-hyperbolic forms, picked per point; det = 1."""
    w2 = lam - mass2
    P = np.empty(lam.shape + (2, 2))
    logs = np.zeros(lam.shape)
    # free limit; the trig corrections are below double rounding here
    free = np.abs(w2) * (ell * ell) < 1e-14
    osc = ~free & (w2 > 0)
    k = np.sqrt(np.maximum(-w2, 0.0))
    big = ~free & (k * ell > 30.0)
    hyp = ~(free | osc | big)
    if free.any():
        _put(P, free, 1.0, ell, -w2[free] * ell, 1.0)
    if osc.any():
        w = np.sqrt(w2[osc])
        c, s = np.cos(w * ell), np.sin(w * ell)
        _put(P, osc, c, s / w, -w * s, c)
    if hyp.any():
        kh = k[hyp]
        c, s = np.cosh(kh * ell), np.sinh(kh * ell)
        _put(P, hyp, c, s / kh, kh * s, c)
    if big.any():
        kb = k[big]
        q = np.exp(-2.0 * kb * ell)
        _put(P, big, 1.0 + q, (1.0 - q) / kb, kb * (1.0 - q), 1.0 + q)
        logs[big] = kb * ell - math.log(2.0)
    return P, logs


# ---------------------------------------------------------------------------
# Frobenius table on the cone

SERIES_RTOL = 1e-16  # a series stops once its last term at z_max is this small
WRONSKIAN_RTOL = 1e-6  # largest relative Wronskian residual a cone evaluation accepts


@dataclass
class ConeSeries:
    """Fundamental pair of -u'' + gamma(gamma+1)/t^2 u = lam u as a table of
    lambda-free Frobenius coefficients, valid wherever |lam| t^2 <= z_max.

    With z = lam t^2,
        f(t) = t^{gamma+1} F(z)                              (regular branch)
        g(t) = t^{-gamma} (G(z) + a_z log(t) z^m F(z))       (singular branch)
    where F = sum f_coef[j] z^j and G = sum g_coef[j] z^j, F(0) = G(0) = 1.
    The log term is present exactly when m = gamma + 1/2 is a nonnegative
    integer (is_log).  Wronskian f g' - f' g = -(2 gamma + 1), or +1 when
    gamma = -1/2.
    """

    gamma: float
    z_max: float
    is_log: bool
    m: int
    a_z: float
    f_coef: np.ndarray
    g_coef: np.ndarray
    wronskian: float
    # Horner rows (F, F', G, G') by degree, highest first
    rows: np.ndarray = field(repr=False)

    def state(self, lam: np.ndarray, radii) -> np.ndarray:
        """State matrices [[f, g], [f', g']] at each radius for every lam,
        shape (len(radii), len(lam), 2, 2).

        One Horner pass evaluates F, F', G and G' for all points at once.
        Raises NumericalError where the Wronskian f g' - f' g strays from
        its constant by more than WRONSKIAN_RTOL relative: the series has lost
        its digits to cancellation there (lam t^2 too large).
        """
        lam = np.asarray(lam, dtype=float)
        t = np.asarray(radii, dtype=float)
        if not np.all(t > 0.0):
            raise ValueError("cone radii must be positive")
        z = (t * t)[:, None] * lam[None, :]
        if np.max(np.abs(z), initial=0.0) > self.z_max * (1.0 + 1e-12):
            raise ValueError(f"lam t^2 up to {np.max(np.abs(z)):.6g} leaves the table "
                             f"window z_max = {self.z_max:.6g}")
        acc = np.zeros(z.shape + (4,))
        zc = z[..., None]
        for row in self.rows:
            acc *= zc
            acc += row
        F, dF, G, dG = np.moveaxis(acc, -1, 0)
        gam = self.gamma
        A = (gam + 1.0) * F + 2.0 * z * dF  # t^-gamma f'
        B = -gam * G + 2.0 * z * dG  # t^(gamma+1) g' without the log term
        if self.is_log:
            L = self.a_z * z**self.m
            log_t = np.log(t)[:, None]
            G = G + log_t * L * F
            B = B + L * (log_t * A + F)
        W = self.wronskian
        residual = np.abs(F * B - A * G - W) / abs(W)
        if not np.all(residual <= WRONSKIAN_RTOL):
            raise NumericalError(
                f"cone series lost accuracy: Wronskian residual {np.nanmax(residual):.3g} "
                f"> {WRONSKIAN_RTOL:g} at gamma = {gam}, |lam| t^2 up to {np.max(np.abs(z)):.6g}"
            )
        tc = t[:, None]
        S = np.empty(z.shape + (2, 2))
        S[..., 0, 0] = tc ** (gam + 1.0) * F
        S[..., 1, 0] = tc**gam * A
        S[..., 0, 1] = tc ** (-gam) * G
        S[..., 1, 1] = tc ** (-gam - 1.0) * B
        return S


def cone_basis(gamma: float, z_max: float) -> ConeSeries:
    """Frobenius table for every lam and t with |lam| t^2 <= z_max.

    No recurrence involves lam, so one table serves a whole lambda scan and
    the root polish on it.  Each series runs until its last term at z_max is
    below SERIES_RTOL of its largest one.  gamma within 1e-9 of a
    half-integer >= -1/2 is snapped to it (the resonant recurrence is
    singular there).
    """
    gamma, z_max = float(gamma), float(z_max)
    if gamma < -0.5 - 1e-12:
        raise ValueError(f"gamma must be >= -1/2, got {gamma}")
    if not 0.0 <= z_max < math.inf:
        raise ValueError(f"z_max must be finite and nonnegative, got {z_max}")
    m_near = round(gamma + 0.5)
    is_log = m_near >= 0 and abs(gamma + 0.5 - m_near) <= 1e-9
    if is_log:
        gamma = m_near - 0.5

    def grow(coefs: list[float], step, stop: int, min_j: int = 4) -> bool:
        """Append step(j) for j = len(coefs), ..., stop - 1 until the tail
        test passes at some j >= min_j; False if it never does."""
        try:
            scale = max(abs(c) * z_max**k for k, c in enumerate(coefs))
            for j in range(len(coefs), stop):
                coefs.append(step(j))
                tail = abs(coefs[-1]) * z_max**j
                scale = max(scale, tail)
                if j >= min_j and (tail <= SERIES_RTOL * max(scale, 1e-300) or tail == 0.0):
                    return True
        except OverflowError:
            raise NumericalError(f"cone series overflows double precision at gamma = "
                                 f"{gamma}, z_max = {z_max:.6g}") from None
        return False

    # regular branch
    f = [1.0]
    if not grow(f, lambda j: -f[-1] / (2.0 * j * (2.0 * gamma + 1.0 + 2.0 * j)), 402):
        raise NumericalError("cone series did not converge (regular branch)")

    def f_at(j: int) -> float:
        return f[j] if j < len(f) else 0.0

    # singular branch
    m, a_z = 0, 0.0
    g = [1.0]
    if not is_log:
        if not grow(g, lambda j: g[-1] / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)), 402):
            raise NumericalError("cone series did not converge (singular branch)")
        wron = -(2.0 * gamma + 1.0)
    elif m_near == 0:
        a_z = 1.0
        grow(g, lambda j: -(g[-1] + 4.0 * j * f_at(j)) / (4.0 * j * j), len(f) + 4,
             min_j=max(4, len(f)))
        wron = 1.0
    else:
        m = m_near
        for j in range(1, m):
            g.append(g[-1] / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)))
        a_z = -g[m - 1] / (2.0 * m)
        g.append(0.0)  # gauge: no t^{gamma+1} admixture in G
        grow(g, lambda j: (g[-1] + a_z * (2.0 * m + 4.0 * (j - m)) * f_at(j - m))
             / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)),
             m + len(f) + 4, min_j=max(4, m + len(f)))
        wron = -(2.0 * gamma + 1.0)

    f_coef, g_coef = np.array(f), np.array(g)
    cols = np.zeros((max(len(f), len(g)), 4))
    cols[: len(f), 0] = f_coef
    cols[: len(f) - 1, 1] = np.arange(1, len(f)) * f_coef[1:]
    cols[: len(g), 2] = g_coef
    cols[: len(g) - 1, 3] = np.arange(1, len(g)) * g_coef[1:]
    return ConeSeries(gamma=gamma, z_max=z_max, is_log=is_log, m=m, a_z=a_z,
                      f_coef=f_coef, g_coef=g_coef, wronskian=wron,
                      rows=cols[::-1].copy())


# ---------------------------------------------------------------------------
# batched transfer matrices


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pointwise product of two stacks of 2x2 matrices, in elementwise
    float arithmetic, so a point's product does not depend on the stack."""
    return A[..., :, :1] * B[..., :1, :] + A[..., :, 1:] * B[..., 1:, :]


def _transfer(S0: np.ndarray, S1: np.ndarray, wronskian: float) -> np.ndarray:
    """Propagators S1 S0^-1 between two states of one fundamental pair; the
    inverse comes from the constant Wronskian determinant det S0 = W."""
    inv0 = np.empty_like(S0)
    inv0[..., 0, 0], inv0[..., 0, 1] = S0[..., 1, 1], -S0[..., 0, 1]
    inv0[..., 1, 0], inv0[..., 1, 1] = -S0[..., 1, 0], S0[..., 0, 0]
    return _mul(S1, inv0 / wronskian)


# ---------------------------------------------------------------------------
# monodromy


class _PeriodMap:
    """Period monodromy of a scalar channel for every lam with
    |lam| <= lam_bound, starting at the mid-cylinder cut.

    The cones' Frobenius table is built once, here; a call evaluates the
    ordered product of segment propagators and junction jumps for a whole
    array of lam as (G, 2, 2) arrays.  After each factor every point is
    divided by its largest entry and the log of that entry is added to the
    point's log scale.  A single lam is a length-one call of the same
    elementwise arithmetic, so it reproduces a grid value bit for bit.
    Piecewise profiles only: a smoothed corner segment is refused.
    """

    def __init__(self, channel: Channel, profile: Profile, lam_bound: float):
        if channel.kind == "H5":
            raise ValueError("transfer matrices are scalar; solve an H5 pair through "
                             "channels.pair_partners")
        w = float(channel.interface_weights[0])
        segs = profile.segments
        self.radii: list[float] = []
        self.steps: list[tuple] = []  # ("flat", mass2, ell) | ("cone", i0, i1, flip) | ("jump", k)
        for i, seg in enumerate(segs):
            r0, r1 = seg.rho(seg.tau0), seg.rho(seg.tau1)
            if seg.kind in ("cylinder", "handle"):
                self.steps.append(("flat", float(channel.mu2) / (r0 * r0), seg.length))
            elif seg.kind in ("cone_up", "cone_down"):
                self.radii += [r for r in (r0, r1) if r not in self.radii]
                # the descending cone runs against its radial coordinate:
                # conjugating by the flip diag(1, -1) negates the off-diagonal
                self.steps.append(("cone", self.radii.index(r0), self.radii.index(r1),
                                   seg.kind == "cone_down"))
            else:
                raise ValueError(f"monodromy cannot cross segment kind {seg.kind!r}")
            dslope = seg.slope_out - segs[(i + 1) % len(segs)].slope_in
            if dslope != 0.0:
                self.steps.append(("jump", dslope / r1 * w))
        self.table = (cone_basis(channel.gammas[0], float(lam_bound) * max(self.radii) ** 2)
                      if self.radii else None)

    def __call__(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled monodromies (G, 2, 2) and their log scales (G,)."""
        lam = np.asarray(lam, dtype=float)
        S = self.table.state(lam, self.radii) if self.table is not None else None
        M = np.zeros(lam.shape + (2, 2))
        M[..., 0, 0] = M[..., 1, 1] = 1.0
        logs = np.zeros(lam.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for step in self.steps:
                if step[0] == "jump":
                    M[..., 1, :] += step[1] * M[..., 0, :]
                else:
                    if step[0] == "flat":
                        P, s = _flat_propagators(step[1], lam, step[2])
                        logs += s
                    else:
                        P = _transfer(S[step[1]], S[step[2]], self.table.wronskian)
                        if step[3]:
                            P[..., 0, 1] *= -1.0
                            P[..., 1, 0] *= -1.0
                    M = _mul(P, M)
                scale = np.abs(M).max(axis=(-2, -1))
                M /= scale[..., None, None]
                logs += np.log(scale)
        if not (np.isfinite(M).all() and np.isfinite(logs).all()):
            raise NumericalError("degenerate transfer matrix (zero or non-finite)")
        return M, logs

    def trace(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tr Mhat, logscale) of the monodromies at every lam."""
        M, logs = self(lam)
        return M[..., 0, 0] + M[..., 1, 1], logs


# ---------------------------------------------------------------------------
# Floquet root finding


def _floquet_F(tr: np.ndarray, logs: np.ndarray,
               y: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled characteristic function tr M - y whose zeros are Floquet
    eigenvalues, and the noise scale for tangency decisions, from the scaled
    traces and log scales of the monodromies; y is one target or one per
    point."""
    e1 = np.where(logs < 690.0, np.exp(-logs), 0.0)
    F = tr - y * e1
    noise = 1e-11 * (np.abs(tr) + abs(y) * e1) + 1e-13
    return F, noise


def _hill_data(channel: Channel) -> tuple:
    """Everything the scalar Hill problem of a channel depends on: the key
    (mu^2, gamma, w) of the problem."""
    return (channel.mu2, channel.gammas, channel.interface_weights)


def _scalar_problems(channel: Channel) -> list[tuple[Channel, int]]:
    """The distinct scalar problems of a channel, each with its number of
    copies.  An H5 pair is its two Hodge partners, which are one problem
    twice for n odd and p = (n+1)/2."""
    if channel.kind != "H5":
        return [(channel, 1)]
    h4, h3 = pair_partners(channel)
    if _hill_data(h4) == _hill_data(h3):
        return [(h4, 2)]
    return [(h4, 1), (h3, 1)]


def _floquet_roots(channel: Channel, thetas: tuple[float, ...], profile: Profile,
                   lam_max: float) -> list[list[float]]:
    """Floquet roots of a scalar channel at each theta, from one batched
    evaluation of the monodromy trace over the lambda grid (the trace does
    not depend on theta).  The brackets of every theta are polished together
    in one solve on the same table.  Raises when a root violates the
    channel's lower bound mu^2."""
    period = _PeriodMap(channel, profile, lam_max)
    grid = np.linspace(0.0, float(lam_max), SCAN_STEPS + 1)
    tr, logs = period.trace(grid)
    out: list[list[float]] = []
    brackets: list[tuple[float, float, float, int]] = []  # lo, hi, 2 cos theta, theta index
    for k, theta in enumerate(thetas):
        y = 2.0 * math.cos(theta)
        Fs, noises = _floquet_F(tr, logs, y)
        roots, cells, dips = _roots_on_grid(grid, Fs, noises)
        brackets += [(lo, hi, y, k) for lo, hi in cells]
        for i in dips:
            double, pair = _resolve_dip(period, y, float(grid[i - 1]), float(grid[i + 1]),
                                        math.copysign(1.0, Fs[i]))
            roots += double
            brackets += [(lo, hi, y, k) for lo, hi in pair]
        out.append(roots)
    if brackets:
        lo, hi, ys, owner = (np.array(col) for col in zip(*brackets))
        for k, x in zip(owner, _polish(period, lo, hi, ys)):
            out[k].append(float(x))
    guard = float(channel.mu2) - 1e-6
    for roots in out:
        roots.sort()
        for r in roots:
            if r < guard:
                raise NumericalError(
                    f"eigenvalue {r} violates the channel lower bound "
                    f"{float(channel.mu2)}; pruning rule unsound here"
                )
    return out


def floquet_eigenvalues(channel: Channel, theta: float, profile: Profile,
                        lam_max: float) -> list[float]:
    """All lambda in [0, lam_max] whose Floquet multiplier is e^{i theta},
    sorted, repeated per intrinsic multiplicity.  Channel.mult is not
    applied here.  An H5 pair returns the union of its partners' roots."""
    roots: list[float] = []
    for part, copies in _scalar_problems(channel):
        roots += copies * _floquet_roots(part, (theta,), profile, lam_max)[0]
    return sorted(roots)


def _roots_on_grid(grid: np.ndarray, Fs: np.ndarray,
                   noises: np.ndarray) -> tuple[list[float], list[tuple[float, float]], np.ndarray]:
    """Read the sampled characteristic function Fs on the lambda grid.

    Returns the roots taken straight from the grid, the sign-change cells
    to polish and the dip candidates.  A maximal run of zeroish samples
    (|F| <= noise) gives its centre: once where it touches an end of the
    window or F changes sign across it, twice (a tangency) where it does
    not; a run covering the whole window gives nothing.  A cell
    (grid[i], grid[i+1]) of two non-zeroish samples of opposite sign is a
    bracket.  A dip is an index i whose three samples i-1, i, i+1 are
    non-zeroish and of one sign, with |F| smallest in the middle; two
    crossings or a tangency may hide in [grid[i-1], grid[i+1]] there.
    """
    zeroish = np.abs(Fs) <= noises
    edge = np.diff(np.concatenate(([False], zeroish, [False])).astype(np.int8))
    start, end = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) - 1
    # a one-sample run's centre is that sample exactly: 0.5 * (x + x) == x
    center = 0.5 * (grid[start] + grid[end])
    first, last = start == 0, end == len(grid) - 1
    inner = ~(first | last)
    crosses = np.zeros(len(start), dtype=bool)
    crosses[inner] = Fs[start[inner] - 1] * Fs[end[inner] + 1] < 0
    copies = np.where(first & last, 0, np.where(inner & ~crosses, 2, 1))
    roots = np.repeat(center, copies).tolist()

    live = ~zeroish
    cell = live[:-1] & live[1:] & (Fs[:-1] * Fs[1:] < 0)
    cells = list(zip(grid[:-1][cell].tolist(), grid[1:][cell].tolist()))

    neg, mag = np.signbit(Fs), np.abs(Fs)
    dip = (live[:-2] & live[1:-1] & live[2:]
           & (neg[:-2] == neg[1:-1]) & (neg[2:] == neg[1:-1])
           & (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))
    return roots, cells, np.flatnonzero(dip) + 1


def _resolve_dip(period: _PeriodMap, y: float, lo: float, hi: float,
                 s0: float) -> tuple[list[float], list[tuple[float, float]]]:
    """Minimise s0 F over [lo, hi], where the sampled s0 F dips toward zero.

    Returns a double root at the minimiser when the minimum lies within
    the noise, the two brackets (lo, x*) and (x*, hi) when F crosses zero
    there, and nothing otherwise."""

    def F_noise(x: float) -> tuple[float, float]:
        F, noise = _floquet_F(*period.trace(np.array([x])), y)
        return float(F[0]), float(noise[0])

    res = minimize_scalar(lambda x: s0 * F_noise(x)[0], bounds=(lo, hi), method="bounded",
                          options={"xatol": ROOT_TOL})
    xstar = float(res.x)
    fstar = float(res.fun)  # = s0 * F(xstar), negative iff F crossed zero
    _, noise_star = F_noise(xstar)
    if fstar < -noise_star:
        return [], [(lo, xstar), (xstar, hi)]
    if fstar <= noise_star:
        return [xstar, xstar], []
    return [], []


def _polish(period: _PeriodMap, lo: np.ndarray, hi: np.ndarray,
            y: np.ndarray) -> np.ndarray:
    """The root of tr M = y[k] inside every bracket [lo[k], hi[k]], all in
    one elementwise Chandrupatla solve on the scan's table.  Raises
    NumericalError unless every bracket converges."""

    def F(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _floquet_F(*period.trace(x), y)[0]

    res = find_root(F, (lo, hi), args=(y,),
                    tolerances={"xatol": ROOT_TOL, "xrtol": 4 * np.finfo(float).eps})
    bad = np.flatnonzero(res.status != 0)
    if bad.size:
        k = bad[0]
        raise NumericalError(f"root polish ended with status {int(res.status[k])} on the "
                             f"bracket [{float(lo[k])!r}, {float(hi[k])!r}] of "
                             f"tr M = {float(y[k])!r}")
    return res.x


@dataclass
class BandEdges:
    """Closed bands [lo, hi] of one channel below lam_max, sorted by
    (hi, lo).  truncated marks bands cut off at lam_max; they come last (an
    H5 pair can have one per partner)."""

    channel: Channel
    bands: list[tuple[float, float]]
    truncated: bool


def band_edges(channel: Channel, profile: Profile, lam_max: float) -> BandEdges:
    """Band intervals of a channel by the Hill pairing.

    The sorted periodic (theta = 0) and antiperiodic (theta = pi) eigenvalues
    of a scalar channel interlace, so consecutive entries of the merged list
    are the band edges (Magnus-Winkler, Hill's Equation).  An odd count
    leaves a last band cut at lam_max.  An H5 pair returns the bands of its
    two scalar partners together; partners that are one problem are solved
    once and their bands listed twice.
    """
    bands: list[tuple[float, float]] = []
    truncated = False
    for part, copies in _scalar_problems(channel):
        r0, r1 = _floquet_roots(part, (0.0, math.pi), profile, lam_max)
        edges = sorted(r0 + r1)
        part_bands = [(edges[k], edges[k + 1]) for k in range(0, len(edges) - 1, 2)]
        if len(edges) % 2 == 1:
            part_bands.append((edges[-1], float(lam_max)))
            truncated = True
        bands += copies * part_bands
    bands.sort(key=lambda band: (band[1], band[0]))
    return BandEdges(channel, bands, truncated)
