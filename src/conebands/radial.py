"""Radial problem: periodic profile, transfer matrices, Floquet eigenvalues.

One period of the profile rho(tau), parametrized from a cut placed in the
middle of the outer cylinder (so rho(0) = rho(T) = 1):

    half cylinder | cone down (1 -> eps) | handle (eps) | cone up | half cyl

A scalar channel with section sigma satisfies, in the unitarily flattened
picture, the Hill equation

    -sigma'' + V(tau) sigma = lambda sigma

with V = c / rho^2 on cones (c = channel.cone_potential), V = mu^2 / rho^2
on flat parts, and at every slope break of rho the derivative jumps by

    sigma'(+) = sigma'(-) + (slope_- - slope_+) / rho * w sigma,

w = channel.interface_weights[0].  On the left (descending) cone the
traversal runs against the cone's own radial coordinate; in global
coordinates that conjugates the ascending-cone propagator by the flip
K = diag(1, -1) of (sigma, sigma').

Floquet eigenvalues at quasimomentum theta are the lambda with
tr M = 2 cos theta for the period monodromy M.  The spectrum of an H5 pair
is the disjoint union of those of its two scalar Hodge partners
(channels.pair_partners), so the pair is solved as those two channels.
Monodromies are accumulated with an explicit log scale so deep spectral
gaps (huge hyperbolic growth) never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .channels import Channel, pair_partners

SCAN_STEPS = 2000  # lambda grid resolution for root scans


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

    def rho(self, tau: float) -> float:
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

    def rho_prime(self, tau: float) -> float:
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

    def _segment_at(self, tau: float) -> Segment:
        tau = tau % self.T
        for seg in self.segments:
            if seg.tau0 - 1e-12 <= tau <= seg.tau1 + 1e-12:
                return seg
        return self.segments[-1]

    def rho(self, tau: float) -> float:
        return self._segment_at(tau).rho(tau % self.T)

    def rho_prime(self, tau: float) -> float:
        return self._segment_at(tau).rho_prime(tau % self.T)


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
# scaled matrices


@dataclass
class ScaledMatrix:
    """matrix * exp(logscale), with the stored matrix kept at O(1) entries."""

    mat: np.ndarray
    logscale: float = 0.0

    @staticmethod
    def of(mat: np.ndarray, logscale: float = 0.0) -> "ScaledMatrix":
        m = np.asarray(mat, dtype=float)
        s = float(np.max(np.abs(m)))
        if s == 0.0 or not math.isfinite(s):
            raise NumericalError("degenerate transfer matrix (zero or non-finite)")
        return ScaledMatrix(m / s, logscale + math.log(s))

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return ScaledMatrix.of(self.mat @ other.mat, self.logscale + other.logscale)

    def dense(self) -> np.ndarray:
        if self.logscale > 600.0:
            raise NumericalError("transfer matrix overflows double precision")
        return self.mat * math.exp(self.logscale)


def det_residual(sm: ScaledMatrix) -> float:
    """|log det M| of the physical matrix; 0 for a unimodular transfer map."""
    sign, logdet = np.linalg.slogdet(sm.mat)
    if sign <= 0:
        return math.inf
    n = sm.mat.shape[0]
    return abs(logdet + n * sm.logscale)


def symplectic_residual(sm: ScaledMatrix) -> float:
    """Absolute residual of Mhat^T J Mhat = e^{-2 logscale} J; the stored
    matrix has O(1) entries, so this is scale-free."""
    n = sm.mat.shape[0] // 2
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    lhs = sm.mat.T @ J @ sm.mat
    target = math.exp(-2.0 * sm.logscale) if sm.logscale < 300.0 else 0.0
    return float(np.max(np.abs(lhs - target * J)))


# ---------------------------------------------------------------------------
# elementary propagators


def segment_propagator(mass2: float, lam: float, ell: float) -> np.ndarray:
    """Transfer matrix of -u'' + mass2 u = lam u over a length-ell flat piece,
    acting on (u, u').  Exact trig/hyperbolic/polynomial forms, det = 1."""
    mass2, lam, ell = float(mass2), float(lam), float(ell)
    if ell < 0:
        raise ValueError("segment length must be nonnegative")
    if ell == 0.0:
        return np.eye(2)
    w2 = lam - mass2
    if abs(w2) * ell * ell < 1e-14:
        # free limit; the trig corrections are below double rounding here
        return np.array([[1.0, ell], [-w2 * ell, 1.0]])
    if w2 > 0:
        w = math.sqrt(w2)
        c, s = math.cos(w * ell), math.sin(w * ell)
        return np.array([[c, s / w], [-w * s, c]])
    k = math.sqrt(-w2)
    if k * ell > 350.0:
        raise NumericalError(
            f"hyperbolic segment overflow (kappa*ell = {k * ell:.1f}); "
            "use the scaled variant"
        )
    c, s = math.cosh(k * ell), math.sinh(k * ell)
    return np.array([[c, s / k], [k * s, c]])


def _segment_propagator_scaled(mass2: float, lam: float, ell: float) -> ScaledMatrix:
    w2 = float(lam) - float(mass2)
    if ell == 0.0:
        return ScaledMatrix(np.eye(2), 0.0)
    if w2 >= 0 or math.sqrt(-w2) * ell <= 30.0:
        return ScaledMatrix.of(segment_propagator(mass2, lam, ell))
    k = math.sqrt(-w2)
    q = math.exp(-2.0 * k * ell)
    mat = np.array([[1.0 + q, (1.0 - q) / k], [k * (1.0 - q), 1.0 + q]])
    return ScaledMatrix.of(mat, k * ell - math.log(2.0))


# ---------------------------------------------------------------------------
# Frobenius basis on the cone


@dataclass
class ConeSolutionBasis:
    """Fundamental pair of -u'' + gamma(gamma+1)/t^2 u = lam u on ]0, t_max].

    f(t) = t^{gamma+1} F(lam t^2) is the regular branch, F(0) = 1.
    g(t) = a log(t) f(t) + t^{-gamma} G(lam t^2) is the singular branch,
    G(0) = 1; the log coefficient a is nonzero exactly when
    gamma + 1/2 is a nonnegative integer.
    Wronskian f g' - f' g = -(2 gamma + 1), or +1 when gamma = -1/2.
    """

    gamma: float
    lam: float
    t_max: float
    is_log: bool
    a_log: float
    f_coef: np.ndarray
    g_coef: np.ndarray
    wronskian: float

    def _poly(self, coef: np.ndarray, z: float) -> float:
        acc = 0.0
        for c in coef[::-1]:
            acc = acc * z + c
        return acc

    def _dpoly(self, coef: np.ndarray, z: float) -> float:
        acc = 0.0
        for j in range(len(coef) - 1, 0, -1):
            acc = acc * z + j * coef[j]
        return acc

    def f(self, t: float) -> float:
        z = self.lam * t * t
        return t ** (self.gamma + 1.0) * self._poly(self.f_coef, z)

    def df(self, t: float) -> float:
        z = self.lam * t * t
        F = self._poly(self.f_coef, z)
        dF = self._dpoly(self.f_coef, z)
        return t**self.gamma * ((self.gamma + 1.0) * F + 2.0 * z * dF)

    def g(self, t: float) -> float:
        z = self.lam * t * t
        G = self._poly(self.g_coef, z)
        out = t ** (-self.gamma) * G
        if self.is_log and self.a_log != 0.0:
            out += self.a_log * math.log(t) * self.f(t)
        return out

    def dg(self, t: float) -> float:
        z = self.lam * t * t
        G = self._poly(self.g_coef, z)
        dG = self._dpoly(self.g_coef, z)
        out = t ** (-self.gamma - 1.0) * (-self.gamma * G + 2.0 * z * dG)
        if self.is_log and self.a_log != 0.0:
            out += self.a_log * (math.log(t) * self.df(t) + self.f(t) / t)
        return out

    def state_matrix(self, t: float) -> np.ndarray:
        return np.array([[self.f(t), self.g(t)], [self.df(t), self.dg(t)]])


def cone_basis(gamma: float, lam: float, t_max: float = 1.0) -> ConeSolutionBasis:
    """Frobenius fundamental pair; series truncated below 1e-15 relative at
    |lam| t_max^2.  gamma within 1e-9 of a half-integer >= -1/2 is snapped to
    it (the resonant recurrence is singular there)."""
    gamma, lam, t_max = float(gamma), float(lam), float(t_max)
    if gamma < -0.5 - 1e-12:
        raise ValueError(f"gamma must be >= -1/2, got {gamma}")
    if not 0.0 < t_max <= 1.0 + 1e-12:
        raise ValueError("t_max must lie in ]0, 1]")
    m_near = round(gamma + 0.5)
    is_log = m_near >= 0 and abs(gamma + 0.5 - m_near) <= 1e-9
    if is_log:
        gamma = m_near - 0.5
    z_max = abs(lam) * t_max * t_max

    def converged(coefs: list[float], j: int) -> bool:
        if j < 4:
            return False
        scale = max(abs(c) * z_max**k for k, c in enumerate(coefs))
        tail = abs(coefs[-1]) * z_max ** (len(coefs) - 1)
        return tail <= 1e-16 * max(scale, 1e-300) or tail == 0.0

    # regular branch
    f = [1.0]
    j = 1
    while True:
        f.append(-f[-1] / (2.0 * j * (2.0 * gamma + 1.0 + 2.0 * j)))
        if converged(f, j) or j > 400:
            break
        j += 1
    if j > 400:
        raise NumericalError("cone series did not converge (regular branch)")

    # singular branch
    a_log = 0.0
    if not is_log:
        g = [1.0]
        j = 1
        while True:
            g.append(g[-1] / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)))
            if converged(g, j) or j > 400:
                break
            j += 1
        wron = -(2.0 * gamma + 1.0)
    else:
        m = m_near
        g = [1.0]
        if m == 0:
            a_log = 1.0
            for j in range(1, len(f) + 4):
                fj = f[j] if j < len(f) else 0.0
                g.append(-(g[-1] + 4.0 * j * fj) / (4.0 * j * j))
                if converged(g, j) and j >= len(f):
                    break
            wron = 1.0
        else:
            for j in range(1, m):
                g.append(g[-1] / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)))
            a_z = -g[m - 1] / (2.0 * m)
            a_log = a_z * lam**m
            g.append(0.0)  # gauge: no t^{gamma+1} admixture in G
            for j in range(m + 1, m + len(f) + 4):
                fj = f[j - m] if j - m < len(f) else 0.0
                num = g[-1] + a_z * (2.0 * m + 4.0 * (j - m)) * fj
                g.append(num / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)))
                if converged(g, j) and j - m >= len(f):
                    break
            wron = -(2.0 * gamma + 1.0)

    return ConeSolutionBasis(
        gamma=gamma,
        lam=lam,
        t_max=t_max,
        is_log=is_log,
        a_log=a_log,
        f_coef=np.array(f),
        g_coef=np.array(g),
        wronskian=wron,
    )


# ---------------------------------------------------------------------------
# cone propagator


def _require_scalar(channel: Channel) -> None:
    if channel.kind == "H5":
        raise ValueError("transfer matrices are scalar; solve an H5 pair through "
                         "channels.pair_partners")


def _scalar_cone_propagator(channel: Channel, lam: float, t_from: float,
                            t_to: float) -> np.ndarray:
    basis = cone_basis(channel.gammas[0], lam, t_max=max(t_from, t_to))
    M1 = basis.state_matrix(t_to)
    M0 = basis.state_matrix(t_from)
    W = basis.wronskian
    # inv(M0) via the constant Wronskian determinant: det state_matrix = W
    inv0 = np.array([[M0[1, 1], -M0[0, 1]], [-M0[1, 0], M0[0, 0]]]) / W
    return M1 @ inv0


def cone_propagator(channel: Channel, lam: float, t0: float, t1: float,
                    method: str = "series") -> np.ndarray:
    """Transfer matrix of a scalar channel across the ascending cone from
    radius t0 to t1, state (sigma, dsigma/dt).  method='rk' integrates the
    ODE instead (cross-check)."""
    _require_scalar(channel)
    if not (0.0 < t0 <= t1 <= 1.0 + 1e-12):
        raise ValueError(f"need 0 < t0 <= t1 <= 1, got ({t0}, {t1})")
    if t0 == t1:
        return np.eye(2)
    if method == "rk":
        return _cone_propagator_rk(channel, lam, t0, t1)
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    return _scalar_cone_propagator(channel, lam, t0, t1)


def _cone_propagator_rk(channel: Channel, lam: float, t0: float, t1: float) -> np.ndarray:
    c = float(channel.cone_potential[0])

    def rhs(t, y):
        return [y[1], (c / (t * t) - lam) * y[0]]

    cols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (t0, t1), y0, rtol=1e-11, atol=1e-13, method="RK45")
        if not sol.success:
            raise NumericalError(f"RK cross-check failed: {sol.message}")
        cols.append(sol.y[:, -1])
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# junctions and monodromy

# Global-frame conjugation for traversing a cone against its radial
# coordinate: the value keeps its sign, the derivative flips.
_FLIP = np.diag([1.0, -1.0])


def _junction_matrix(channel: Channel, dslope: float, rho_j: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [dslope / rho_j * float(channel.interface_weights[0]), 1.0]])


def _segment_prop(channel: Channel, seg: Segment, lam: float) -> ScaledMatrix:
    if seg.kind in ("cylinder", "handle"):
        rho = seg.rho(seg.tau0)
        return _segment_propagator_scaled(float(channel.handle_mass) / (rho * rho), lam,
                                          seg.length)
    if seg.kind == "cone_up":
        t0, t1 = seg.rho(seg.tau0), seg.rho(seg.tau1)
        return ScaledMatrix.of(_scalar_cone_propagator(channel, lam, t0, t1))
    if seg.kind == "cone_down":
        t_hi, t_lo = seg.rho(seg.tau0), seg.rho(seg.tau1)
        P = _scalar_cone_propagator(channel, lam, t_hi, t_lo)  # runs 1 -> eps
        return ScaledMatrix.of(_FLIP @ P @ _FLIP)
    raise ValueError(f"monodromy cannot cross segment kind {seg.kind!r}")


def monodromy(channel: Channel, lam: float, profile: Profile) -> ScaledMatrix:
    """Ordered product of segment propagators and junction jumps over one
    period, starting at the mid-cylinder cut.  Scalar channels and piecewise
    profiles only."""
    _require_scalar(channel)
    if profile.eta != 0.0:
        raise ValueError("monodromy needs a piecewise profile (eta = 0)")
    segs = profile.segments
    M = ScaledMatrix(np.eye(2), 0.0)
    for i, seg in enumerate(segs):
        M = _segment_prop(channel, seg, lam) @ M
        nxt = segs[(i + 1) % len(segs)]
        dslope = seg.slope_out - nxt.slope_in
        if dslope != 0.0:
            rho_j = seg.rho(seg.tau1)
            M = ScaledMatrix.of(_junction_matrix(channel, dslope, rho_j)) @ M
    return M


# ---------------------------------------------------------------------------
# Floquet root finding


def _invariants(channel: Channel, lam: float, profile: Profile) -> tuple[float, float]:
    """(tr_hat, logscale) of the monodromy at lam."""
    M = monodromy(channel, lam, profile)
    return float(np.trace(M.mat)), M.logscale


def _floquet_F(channel: Channel, lam: float, profile: Profile, y: float,
               inv: Optional[tuple] = None) -> tuple[float, float]:
    """Scaled characteristic function tr M - y whose zeros are Floquet
    eigenvalues, and the noise scale for tangency decisions."""
    c1, s = inv if inv is not None else _invariants(channel, lam, profile)
    e1 = math.exp(-s) if s < 690 else 0.0
    F = c1 - y * e1
    noise = 1e-11 * (abs(c1) + abs(y) * e1) + 1e-13
    return F, noise


def _scalar_parts(channel: Channel) -> tuple[Channel, ...]:
    return pair_partners(channel) if channel.kind == "H5" else (channel,)


def _floquet_roots(channel: Channel, thetas: tuple[float, ...], profile: Profile,
                   lam_max: float, tol: float) -> list[list[float]]:
    """Floquet roots of a scalar channel at each theta, from one scan of the
    monodromy trace over the lambda grid (the trace does not depend on
    theta).  Raises when a root violates the channel's lower bound."""
    grid = np.linspace(0.0, float(lam_max), SCAN_STEPS + 1)
    invs = [_invariants(channel, x, profile) for x in grid]
    guard = channel.prune_bound - 1e-6
    out = []
    for theta in thetas:
        roots = _roots_on_grid(channel, theta, profile, tol, grid, invs)
        for r in roots:
            if r < guard:
                raise NumericalError(
                    f"eigenvalue {r} violates the channel lower bound "
                    f"{channel.prune_bound}; pruning rule unsound here"
                )
        out.append(roots)
    return out


def floquet_eigenvalues(channel: Channel, theta: float, profile: Profile,
                        lam_max: float, tol: float = 1e-10) -> list[float]:
    """All lambda in [0, lam_max] whose Floquet multiplier is e^{i theta},
    sorted, repeated per intrinsic multiplicity.  Channel.mult is not
    applied here.  An H5 pair returns the union of its partners' roots."""
    return sorted(r for part in _scalar_parts(channel)
                  for r in _floquet_roots(part, (theta,), profile, lam_max, tol)[0])


def _roots_on_grid(channel: Channel, theta: float, profile: Profile, tol: float,
                   grid: np.ndarray, invs: list) -> list[float]:
    y = 2.0 * math.cos(theta)

    Fs = np.empty(len(grid))
    noises = np.empty(len(grid))
    for i, inv in enumerate(invs):
        Fs[i], noises[i] = _floquet_F(channel, grid[i], profile, y, inv)

    def F_at(x: float) -> float:
        return _floquet_F(channel, x, profile, y)[0]

    roots: list[float] = []

    def bisect(a: float, b: float) -> float:
        return float(brentq(F_at, a, b, xtol=tol, maxiter=200))

    zeroish = np.abs(Fs) <= noises
    i = 0
    ng = len(grid)
    while i < ng:
        if zeroish[i]:
            j = i
            while j + 1 < ng and zeroish[j + 1]:
                j += 1
            left = i - 1
            right = j + 1
            center = 0.5 * (grid[i] + grid[j])
            if left < 0 and right < ng:
                roots.append(float(grid[i]) if i == j else center)
            elif right >= ng and left >= 0:
                roots.append(float(grid[j]) if i == j else center)
            elif left >= 0 and right < ng:
                if Fs[left] * Fs[right] < 0:
                    roots.append(center)
                else:
                    roots.extend([center, center])  # tangency through zero
            i = j + 1
            continue
        if i + 1 < ng and not zeroish[i + 1] and Fs[i] * Fs[i + 1] < 0:
            roots.append(bisect(float(grid[i]), float(grid[i + 1])))
        i += 1

    # interior extrema dipping toward zero: resolve narrow pairs / tangencies
    for i in range(1, ng - 1):
        if zeroish[i - 1] or zeroish[i] or zeroish[i + 1]:
            continue
        s0 = math.copysign(1.0, Fs[i])
        if math.copysign(1.0, Fs[i - 1]) != s0 or math.copysign(1.0, Fs[i + 1]) != s0:
            continue
        y1, y2, y3 = s0 * Fs[i - 1], s0 * Fs[i], s0 * Fs[i + 1]
        if not (y2 < y1 and y2 < y3):
            continue
        # parabolic depth estimate; a shallow dip cannot host a double root
        a_fit = 0.5 * (y1 + y3) - y2
        b_fit = 0.5 * (y3 - y1)
        vertex = y2 - b_fit * b_fit / (4.0 * a_fit) if a_fit > 0 else y2
        if vertex > 1e-2 * 0.5 * (y1 + y3):
            continue
        res = minimize_scalar(
            lambda x: s0 * F_at(x),
            bounds=(float(grid[i - 1]), float(grid[i + 1])),
            method="bounded",
            options={"xatol": max(tol, 1e-12)},
        )
        xstar = float(res.x)
        fstar = float(res.fun)  # = s0 * F(xstar), negative iff F crossed zero
        _, noise_star = _floquet_F(channel, xstar, profile, y)
        if fstar < -noise_star:
            # two genuine crossings hiding inside one grid cell
            roots.append(bisect(float(grid[i - 1]), xstar))
            roots.append(bisect(xstar, float(grid[i + 1])))
        elif fstar <= noise_star:
            roots.extend([xstar, xstar])
    roots.sort()
    return roots


@dataclass
class BandEdges:
    """Closed bands [lo, hi] of one channel below lam_max, sorted by
    (hi, lo).  truncated marks bands cut off at lam_max; they come last (an
    H5 pair can have one per partner)."""

    channel: Channel
    bands: list[tuple[float, float]]
    truncated: bool


def band_edges(channel: Channel, profile: Profile, lam_max: float,
               tol: float = 1e-10) -> BandEdges:
    """Band intervals of a channel by the Hill pairing.

    The sorted periodic (theta = 0) and antiperiodic (theta = pi) eigenvalues
    of a scalar channel interlace, so consecutive entries of the merged list
    are the band edges (Magnus-Winkler, Hill's Equation).  An odd count
    leaves a last band cut at lam_max.  An H5 pair returns the bands of its
    two scalar partners together.
    """
    bands: list[tuple[float, float]] = []
    truncated = False
    for part in _scalar_parts(channel):
        r0, r1 = _floquet_roots(part, (0.0, math.pi), profile, lam_max, tol)
        edges = sorted(r0 + r1)
        bands += [(edges[k], edges[k + 1]) for k in range(0, len(edges) - 1, 2)]
        if len(edges) % 2 == 1:
            bands.append((edges[-1], float(lam_max)))
            truncated = True
    bands.sort(key=lambda band: (band[1], band[0]))
    return BandEdges(channel, bands, truncated)
