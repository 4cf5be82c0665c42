"""Radial problem: periodic profile, half-period map, Floquet eigenvalues.

One period of the profile rho(tau), parametrized from a cut placed in the
middle of the outer cylinder (so rho(0) = rho(T) = 1):

    half cylinder | cone down (1 -> eps) | handle (eps) | cone up | half cyl

Profile holds only make_profile's four parameters (eps, L, l_out, eta).  rho
is a closed form in the distance s = |tau - T/2| from the handle centre, and
Profile.pieces lists the flat, cone and rounded-corner pieces of the half
period from the cut to the handle centre, on which the oracle plans its grids.

A scalar channel with section sigma satisfies, in the unitarily flattened
picture, the Hill equation

    -sigma'' + V(tau) sigma = lambda sigma

with V = mu^2 / rho^2 on flat parts, at every slope break of rho the
derivative jump

    sigma'(+) = sigma'(-) + (slope_- - slope_+) / rho * w sigma,

and V = gamma (gamma + 1) / rho^2 on cones, where gamma = tip_exponent(mu^2,
w) is the cone's indicial exponent (Cheeger, J. Diff. Geom. 1983).  The key
(mu^2, w) fixes the problem, and a channel is read only as its keys
(channels.scalar_parts).  band_edges and floquet_eigenvalues read one solve
per channel, _bands, which lists the bands of all its scalar problems.

Floquet eigenvalues at quasimomentum theta are the lambda with
tr M = 2 cos theta for the period monodromy M.  The profile, and with it
the equation, is mirror symmetric about the handle centre.  Let
A = [[a, b], [c, d]] carry (sigma, sigma') from the handle centre to the
cut: the half handle, the jump -w/eps, the cone from eps to 1, the jump +w
and the half cylinder.  The descending half is then K A^-1 K with
K = diag(1, -1), so M = A K A^-1 K and, since det A = 1,

    tr M - 2 = 4 b c,        tr M + 2 = 4 a d.

The periodic (theta = 0) eigenvalues are the zeros of b and c, the
antiperiodic (theta = pi) ones the zeros of a and d: the Dirichlet and
Neumann spectra of the half period (Magnus-Winkler, Hill's Equation, 1966).
Each entry's zeros are a Sturm-Liouville spectrum with separated boundary
conditions, so every zero is simple and shows as a sign change of its own
entry, and the two edges of any gap lie in different entries.  Changing
one boundary condition interlaces two of these spectra, which certifies
the counts.  The merged zeros are the band edges; inside a band tr M runs
monotonically between -2 and 2, so at every theta, 0 and pi included, the
band holds one Floquet eigenvalue.  It is the zero of b c + sin^2(theta/2),
or of the equal a d - cos^2(theta/2) when cos^2(theta/2) is the smaller, so
that near pi the constant does not swamp b c.  Both are polished in the
map's scaled entries, with the constant times e^{-2l} for the log scale l,
so they cannot overflow.

The spectrum of an H5 pair is the disjoint union of those of its two
scalar Hodge partners (channels.scalar_parts).  Their weights sum to -1,
so (w + 1/2)^2 and with it gamma are the same for both: the half handle,
the cone and the half cylinder are shared, and only the jumps -w/eps and
+w differ.  So a channel is one solve, of all its distinct weights at
once: a scalar channel has one, a pair two, and a pair whose partners have
one key (n odd, p = (n+1)/2) one, whose bands the solve lists twice.

The cone's Frobenius recurrence does not involve lambda: lambda enters only
through z = lambda t^2.  Its singular branch is one formula for every tip
exponent: with nu = gamma + 1/2 = m + delta and m = round(nu), the plain
series' pole 1 / delta at z^m is subtracted as for Bessel's Y_m, so no
coefficient divides by delta, a cone near resonance keeps its digits, and
resonance itself is delta = 0, where the branch carries log t
(ConeSeries, cone_basis).  A root scan therefore builds one lambda-free
coefficient table per channel (cone_basis, valid up to lam_max) and
evaluates A for the whole lambda grid and each of the K weights at once,
as (2, 2, K, G) arrays with one log scale per point and weight, so deep
spectral gaps (huge hyperbolic growth) never overflow.  lambda is the
last, contiguous axis of every batched array (the Horner accumulator is
(4, radii, G), the cone states (2, 2, radii, G)), so each elementwise step
is one long loop over the grid.  The zeros of all four entries of every
weight are then polished in one batched Chandrupatla iteration on the
same table, in plain numpy.  The evaluator is elementwise, so a value at a
grid node equals the scanned one bit for bit, the scanned values at
bracket ends are reused, and each weight's values are the ones it has
solved alone.  A map call costs about as much for one point as for a few
dozen, so the polish spends points to save steps: its first step
interpolates through each cell's scanned outer neighbour, and every step
evaluates with each iterate x the two closing points x -/+ tol/2, which end
the bracket in the step that comes within tol/2 of its sign change.  Each
root is still an end of a bracket narrower than ROOT_TOL + 4 eps |x|
across which the computed entry changes sign.  The cone evaluation checks
the numerical Wronskian of every point and raises NumericalError once the
series has lost its digits (lambda t^2 beyond about 400).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .channels import Channel, _real, check_lam_max, scalar_parts

# lambda grid resolution for root scans: one batched evaluation of the
# half-period map at SCAN_STEPS + 1 points per channel, then one batched
# bracket polish per channel on the same coefficient table
SCAN_STEPS = 2000
# absolute tolerance of a polished Floquet root
ROOT_TOL = 1e-10
# steps after which the polish gives up on a bracket (bisection from the
# whole window to ROOT_TOL takes about 42)
POLISH_STEPS = 200
# narrowest half-width of a rounded corner that make_profile accepts, in
# units in the last place of the period T
MIN_CORNER_ULPS = 16


class NumericalError(RuntimeError):
    """A numerical invariant failed (overflow, residual, non-convergence)."""


def check_theta(theta) -> None:
    """ValueError unless the quasimomentum theta is a finite real number
    (not a bool, a numpy bool or a string)."""
    if not math.isfinite(_real(theta)):
        raise ValueError(f"theta must be finite, got {theta!r}")


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True)
class Profile:
    """One period of the cone-handle profile rho; make_profile checks the
    parameters and builds it.

    rho is mirror symmetric about the handle centre tau = T/2.  In the
    distance s = |tau - T/2| from it, the piecewise profile is

        rho = min(eps + max(s - L/2, 0), 1):

    the handle (rho = eps) out to s = L/2, the cone of slope 1 out to
    s = L/2 + 1 - eps and the outer cylinder (rho = 1) out to the cut at
    s = T/2, with T = L + 2 (1 - eps) + l_out.  eta > 0 rounds both slope
    breaks s_c by the C^1 patch (jump / 4 delta) max(delta - |s - s_c|, 0)^2,
    with jump +1 at the handle and -1 at the cylinder and half-width
    delta = min(2 rho_c eta, room).  The room is half the shorter of the two
    pieces the break joins, the half cylinder being l_out / 2.  pieces()
    lists the half period from the cut to the handle centre; the other half
    is its mirror image.
    """

    eps: float
    L: float
    l_out: float
    eta: float

    @property
    def T(self) -> float:
        return self.L + 2.0 * (1.0 - self.eps) + self.l_out

    def _breaks(self) -> tuple[tuple[float, float, float], ...]:
        """(s_c, jump, delta) of the two slope breaks in s, handle side
        first; delta = 0 leaves a break sharp."""
        c = 1.0 - self.eps
        return ((0.5 * self.L, 1.0, min(2.0 * self.eps * self.eta, 0.5 * min(self.L, c))),
                (0.5 * self.L + c, -1.0, min(2.0 * self.eta, 0.5 * min(c, 0.5 * self.l_out))))

    def rho(self, tau):
        """Radius at tau (a float or an array), periodic in T."""
        s = np.abs(np.asarray(tau, dtype=float) % self.T - 0.5 * self.T)
        r = np.minimum(self.eps + np.maximum(s - 0.5 * self.L, 0.0), 1.0)
        for s_c, jump, d in self._breaks():
            if d > 0.0:
                r = r + 0.25 * jump * d * np.maximum(1.0 - np.abs(s - s_c) / d, 0.0) ** 2
        return r[()]

    def rho_prime(self, tau):
        """Slope of rho at tau (a float or an array), periodic in T.  At a
        sharp slope break it is the mean of the two one-sided slopes."""
        u = np.asarray(tau, dtype=float) % self.T - 0.5 * self.T
        s = np.abs(u)
        slope = 0.0  # d rho / d s
        for s_c, jump, d in self._breaks():
            x = s - s_c
            # a sharp break is the limit delta -> 0 of the patch's slope
            step = np.sign(x) if d == 0.0 else np.clip(x / d, -1.0, 1.0)
            slope = slope + 0.5 * jump * (1.0 + step)
        # the cut s = T/2 is a mirror point as well: the mean slope there is 0
        return (np.sign(u) * (s < 0.5 * self.T) * slope)[()]

    def pieces(self) -> list[tuple[float, float, float]]:
        """(tau0, tau1, slope) of each piece of the half period, in order
        from the cut at 0 to the handle centre, whose knot is T/2 exactly:
        slope 0 on a flat piece, -1 on the cone and nan on a rounded
        corner.  The other half is the mirror image under tau -> T - tau.
        Pieces of length zero are left out."""
        (_, _, d_in), (_, _, d_out) = self._breaks()
        layout = [(0.5 * self.l_out - d_out, 0.0), (2.0 * d_out, math.nan),
                  (1.0 - self.eps - d_in - d_out, -1.0), (2.0 * d_in, math.nan),
                  (0.5 * self.L - d_in, 0.0)]
        layout = [(length, slope) for length, slope in layout if length > 0.0]
        knots = list(accumulate((length for length, _ in layout), initial=0.0))
        knots[-1] = 0.5 * self.T
        return [(a, b, slope) for a, b, (_, slope) in zip(knots, knots[1:], layout)]


def make_profile(eps: float, L: float, l_out: float, eta: float = 0.0) -> Profile:
    """Cone-handle profile with handle radius eps, handle length L, outer
    cylinder length l_out and period T = L + 2(1-eps) + l_out.

    eta > 0 rounds every slope break by a C^1 quadratic patch of half-width
    min(2 * rho_corner * eta, room), which keeps |log(rho_eta / rho)| <= eta/2
    pointwise, i.e. the smoothed metric stays within [e^-eta, e^eta] of the
    piecewise one.  Raises ValueError, naming the parameter, unless all
    four are real numbers in the double range (not bools, numpy bools or
    strings), 0 < eps <= 1, L and l_out are finite and >= 0, 0 <= eta < 1
    and T is finite and positive, and when eta > 0 rounds a cone whose
    handle or outer cylinder has length 0 or a corner narrower than
    MIN_CORNER_ULPS ulps of T, whose grid steps would round to zero.
    """
    given = {"eps": eps, "L": L, "l_out": l_out, "eta": eta}
    # a parameter that is not a real number, or beyond the double range,
    # reads as NaN, which every range test below refuses, and the message
    # shows it as given
    eps, L, l_out, eta = map(_real, given.values())
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in ]0, 1], got {given['eps']!r}")
    for name, length in (("L", L), ("l_out", l_out)):
        if not 0.0 <= length < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {given[name]!r}")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1[, got {given['eta']!r}")
    profile = Profile(eps, L, l_out, eta)
    if not 0.0 < profile.T < math.inf:
        raise ValueError(f"period T must be finite and positive, got {profile.T!r}")
    if eta > 0.0 and eps < 1.0 and not (L > 0.0 and l_out > 0.0):
        raise ValueError(
            "eta > 0 needs positive handle and outer-cylinder lengths, otherwise "
            "adjacent smoothing regions overlap"
        )
    for _, _, delta in profile._breaks():
        if 0.0 < delta < MIN_CORNER_ULPS * math.ulp(profile.T):
            raise ValueError(f"eta = {eta!r} rounds a corner to half-width {delta!r}, "
                             f"below {MIN_CORNER_ULPS} ulps of the period T = {profile.T!r}")
    return profile


# ---------------------------------------------------------------------------
# flat pieces


def _put(P: np.ndarray, mask: np.ndarray, a, b, c, d) -> None:
    P[0, 0, mask], P[0, 1, mask], P[1, 0, mask], P[1, 1, mask] = a, b, c, d


def _flat_propagators(mass2: float, lam: np.ndarray, ell: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices of -u'' + mass2 u = lam u over a length-ell flat
    piece, acting on (u, u'), for every lam: (2, 2, G) matrices and (G,) log
    scales, the propagator being matrix * exp(logscale).  Exact free, trig
    and hyperbolic forms, picked per point; det = 1.  The hyperbolic form is
    scaled by e^{k ell} / 2, in q = 1 - e^{-2 k ell} by expm1, so that it
    neither overflows nor cancels."""
    w2 = lam - mass2
    P = np.empty((2, 2) + lam.shape)
    logs = np.zeros(lam.shape)
    # free limit; the trig corrections are below double rounding here
    free = np.abs(w2) * (ell * ell) < 1e-14
    osc = ~free & (w2 > 0)
    hyp = ~(free | osc)
    if free.any():
        _put(P, free, 1.0, ell, -w2[free] * ell, 1.0)
    if osc.any():
        w = np.sqrt(w2[osc])
        c, s = np.cos(w * ell), np.sin(w * ell)
        _put(P, osc, c, s / w, -w * s, c)
    if hyp.any():
        k = np.sqrt(-w2[hyp])
        q = -np.expm1(-2.0 * k * ell)
        _put(P, hyp, 2.0 - q, q / k, k * q, 2.0 - q)
        logs[hyp] = k * ell - math.log(2.0)
    return P, logs


# ---------------------------------------------------------------------------
# Frobenius table on the cone

SERIES_RTOL = 1e-16  # a series stops once its last term at z_max is this small
WRONSKIAN_RTOL = 1e-6  # largest relative Wronskian residual a cone evaluation accepts


def tip_exponent(mu2, w) -> float:
    """Tip exponent gamma = -1/2 + sqrt(mu^2 + (w + 1/2)^2) >= -1/2 of the
    scalar Hill problem (mu^2, w): on a cone of radius t its potential is
    gamma (gamma + 1) / t^2, with indicial exponents gamma + 1 (regular)
    and -gamma (singular)."""
    b = float(w) + 0.5
    return -0.5 + math.sqrt(float(mu2) + b * b)


@dataclass
class ConeSeries:
    """Fundamental pair of -u'' + gamma(gamma+1)/t^2 u = lam u as a table of
    lambda-free Frobenius coefficients, valid wherever |lam| t^2 <= z_max.

    Let nu = gamma + 1/2 = m + delta with m = round(nu), so |delta| <= 1/2,
    and h(t) = (t^{2 delta} - 1) / (2 delta), which is log t at delta = 0.
    With z = lam t^2,
        f(t) = t^{gamma+1} F(z)                              (regular branch)
        g(t) = t^{-gamma} (G(z) + a_z z^m h(t) F(z))         (singular branch)
    where F = sum f_coef[j] z^j with F(0) = 1 and G = sum g_coef[j] z^j.
    The plain singular series g0 = t^{-gamma} sum g0_j z^j, g0_0 = 1, has
    the pole g0_m = P / delta.  For m >= 1, g = g0 - (P / delta) lam^m f,
    the pole subtracted as for Bessel's Y_m (Watson, Bessel Functions,
    3.52; DLMF 10.8.1), with Wronskian f g' - f' g = -(2 gamma + 1).  For
    m = 0, g = (f - g0) / (2 delta), with Wronskian +1.  Both are
    continuous in delta and are the log branch at delta = 0.
    """

    gamma: float
    z_max: float
    m: int
    delta: float
    a_z: float
    f_coef: np.ndarray
    g_coef: np.ndarray
    wronskian: float
    # Horner rows (F, F', G, G') by degree, highest first
    rows: np.ndarray = field(repr=False)

    def state(self, lam: np.ndarray, radii) -> np.ndarray:
        """State matrices [[f, g], [f', g']] at each radius for every lam,
        shape (2, 2, len(radii), len(lam)).

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
        acc = np.zeros((4,) + z.shape)
        for row in self.rows[:, :, None, None]:
            acc *= z
            acc += row
        F, dF, G, dG = acc
        gam = self.gamma
        A = (gam + 1.0) * F + 2.0 * z * dF  # t^-gamma f'
        B = -gam * G + 2.0 * z * dG  # t^(gamma+1) g' without the h term
        # h = log t expm1(x) / x with x = 2 delta log t; t h' = 1 + 2 delta h
        log_t = np.log(t)
        x = 2.0 * self.delta * log_t
        h = (log_t * np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0))[:, None]
        L = self.a_z * z**self.m
        G = G + h * L * F
        B = B + L * (h * A + F)
        W = self.wronskian
        residual = np.abs(F * B - A * G - W) / abs(W)
        if not np.all(residual <= WRONSKIAN_RTOL):
            raise NumericalError(
                f"cone series lost accuracy: Wronskian residual {np.nanmax(residual):.3g} "
                f"> {WRONSKIAN_RTOL:g} at gamma = {gam}, |lam| t^2 up to {np.max(np.abs(z)):.6g}"
            )
        tc = t[:, None]
        S = np.empty((2, 2) + z.shape)
        S[0, 0] = tc ** (gam + 1.0) * F
        S[1, 0] = tc**gam * A
        S[0, 1] = tc ** (-gam) * G
        S[1, 1] = tc ** (-gam - 1.0) * B
        return S


def cone_basis(gamma: float, z_max: float) -> ConeSeries:
    """Frobenius table for every lam and t with |lam| t^2 <= z_max.

    No recurrence involves lam, so one table serves a whole lambda scan and
    the root polish on it.  With nu = gamma + 1/2 = m + delta as in
    ConeSeries, f_j = -f_{j-1} / (2j (2 gamma + 1 + 2j)), and G is
    - g0_j = g0_{j-1} / (2j (2 gamma + 1 - 2j)), g0_0 = 1, for j < m;
    - 0 at j = m;
    - P d_k at j = m + k, with d_0 = 0 and d_k = alpha_k (d_{k-1} + f_{k-1}
      (m + 2k) / (k (m + k + delta))), alpha_k = -1 / (4 (m + k)(k - delta)),
    with P = g0_{m-1} / (4m), or -1/2 when m = 0, and a_z = -2P.  No step
    divides by delta, so resonance is delta = 0 and needs no case of its
    own.  A series stops once its last term at z_max is below SERIES_RTOL of
    its largest one, and raises NumericalError if it never does.  Raises
    ValueError unless gamma is finite and >= -1/2 and z_max finite and >= 0.
    """
    gamma, z_max = float(gamma), float(z_max)
    if not -0.5 - 1e-12 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= -1/2, got {gamma}")
    if not 0.0 <= z_max < math.inf:
        raise ValueError(f"z_max must be finite and nonnegative, got {z_max}")
    m = round(gamma + 0.5)
    delta = gamma + 0.5 - m

    def grow(coefs: list[float], step, branch: str) -> None:
        """Append step(j), the coefficient of z^j, for j = len(coefs) on
        until, from j = 4 on, its term at z_max passes the tail test;
        NumericalError if 400 steps never do."""
        try:
            scale = max([1.0] + [abs(c) * z_max**j for j, c in enumerate(coefs)])
            for j in range(len(coefs), len(coefs) + 401):
                coefs.append(step(j))
                tail = abs(coefs[-1]) * z_max**j
                scale = max(scale, tail)
                if j >= 4 and tail <= SERIES_RTOL * scale:
                    return
        except OverflowError:
            raise NumericalError(f"cone series overflows double precision at gamma = "
                                 f"{gamma}, z_max = {z_max:.6g}") from None
        raise NumericalError(f"cone series did not converge ({branch} branch) at gamma = "
                             f"{gamma}, z_max = {z_max:.6g}")

    f = [1.0]
    grow(f, lambda j: -f[-1] / (2.0 * j * (2.0 * gamma + 1.0 + 2.0 * j)), "regular")
    g = [1.0]
    for j in range(1, m):
        g.append(g[-1] / (2.0 * j * (2.0 * gamma + 1.0 - 2.0 * j)))
    p, wron = (g[-1] / (4.0 * m), -(2.0 * gamma + 1.0)) if m else (-0.5, 1.0)
    g[m:] = [0.0]

    def g_step(j: int) -> float:
        k = j - m  # P d_k, from f_{k-1} while f's table lasts
        forcing = p * (m + 2.0 * k) / (k * (m + k + delta)) * f[k - 1] if k <= len(f) else 0.0
        return (g[-1] + forcing) / (-4.0 * j * (k - delta))

    grow(g, g_step, "singular")

    f_coef, g_coef = np.array(f), np.array(g)
    cols = np.zeros((max(len(f), len(g)), 4))
    cols[: len(f), 0] = f_coef
    cols[: len(f) - 1, 1] = np.arange(1, len(f)) * f_coef[1:]
    cols[: len(g), 2] = g_coef
    cols[: len(g) - 1, 3] = np.arange(1, len(g)) * g_coef[1:]
    return ConeSeries(gamma=gamma, z_max=z_max, m=m, delta=delta, a_z=-2.0 * p,
                      f_coef=f_coef, g_coef=g_coef, wronskian=wron,
                      rows=cols[::-1].copy())


# ---------------------------------------------------------------------------
# batched transfer matrices


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pointwise product of two stacks (2, 2, ...) of 2x2 matrices, in
    elementwise float arithmetic, so a point's product does not depend on
    the stack."""
    return A[:, :1] * B[:1] + A[:, 1:] * B[1:]


def _transfer(S0: np.ndarray, S1: np.ndarray, wronskian: float) -> np.ndarray:
    """Propagators S1 S0^-1 between two states of one fundamental pair; the
    inverse comes from the constant Wronskian determinant det S0 = W."""
    inv0 = np.empty_like(S0)
    inv0[0, 0], inv0[0, 1] = S0[1, 1], -S0[0, 1]
    inv0[1, 0], inv0[1, 1] = -S0[1, 0], S0[0, 0]
    return _mul(S1, inv0 / wronskian)


# ---------------------------------------------------------------------------
# half-period map


class _HalfPeriod:
    """Half-period maps A of the scalar Hill problems (mu2, w) of one
    channel, one per interface weight w, from the handle centre to the
    mid-cylinder cut, for every lam with |lam| <= lam_bound.

    The weights must share the tip exponent: equal, or summing to -1 as an
    H5 pair's two Hodge partners do.  Then the half handle, the cone and
    the half cylinder are the same for all of them, and only the jumps -w/eps
    and +w differ.  The cone's Frobenius table is built once, here, and
    evaluated at the profile's own radii eps and 1.  A call evaluates the
    product of the half handle, the jump -w/eps, the cone, the jump +w and
    the half cylinder for a whole array of lam as (2, 2, K, G) arrays for
    K weights, each point divided by its largest entry, whose log is the
    point's log scale.  A single lam is a length-one call of the same
    elementwise arithmetic, so it reproduces a grid value bit for bit, and
    each weight's map is the one it has alone.  Piecewise profiles only: a
    smoothed corner is refused.  Raises ValueError for weights whose tip
    exponents differ.
    """

    def __init__(self, mu2, weights, profile: Profile, lam_bound: float):
        if profile.eta > 0.0 and profile.eps < 1.0:
            raise ValueError("the half-period map needs a piecewise profile; eta > 0 "
                             "rounds every corner")
        w0 = weights[0]
        if any(w != w0 and w + w0 != -1 for w in weights):
            raise ValueError(f"interface weights {[str(w) for w in weights]} have different "
                             "tip exponents: each must equal the first or sum with it to -1")
        mu2, eps = float(mu2), profile.eps
        self.handle = (mu2 / (eps * eps), 0.5 * profile.L)
        self.cylinder = (mu2, 0.5 * profile.l_out)
        w = np.array([float(w) for w in weights])[:, None]
        # the jumps -w/eps at the handle and +w at the cylinder, a row per weight
        self.eps, self.jumps = eps, (w / eps, w)
        # no cone and no slope break on a flat circle
        self.table = cone_basis(tip_exponent(mu2, w0), float(lam_bound)) if eps < 1.0 else None

    def __call__(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled maps (2, 2, K, G) and their log scales (K, G)."""
        lam = np.asarray(lam, dtype=float)
        H, logs = _flat_propagators(self.handle[0], lam, self.handle[1])
        handle_jump, cylinder_jump = self.jumps
        A = H[:, :, None].repeat(len(cylinder_jump), axis=2)
        if self.table is not None:
            A[1] -= handle_jump * A[0]
            S = self.table.state(lam, (self.eps, 1.0))
            A = _mul(_transfer(S[:, :, 0], S[:, :, 1], self.table.wronskian)[:, :, None], A)
            A[1] += cylinder_jump * A[0]
        P, s = _flat_propagators(self.cylinder[0], lam, self.cylinder[1])
        A = _mul(P[:, :, None], A)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.abs(A).max(axis=(0, 1))
            A /= scale
            logs = logs + s + np.log(scale)
        if not (np.isfinite(A).all() and np.isfinite(logs).all()):
            raise NumericalError("degenerate transfer matrix (zero or non-finite)")
        return A, logs


# ---------------------------------------------------------------------------
# Floquet root finding


def _roots_on_grid(F: np.ndarray) -> tuple[tuple, tuple]:
    """Read the sampled values F (k, G) of k functions with simple zeros on
    the lambda grid, one function a row: the index arrays (row, node) where
    F vanishes, and (row, cell) where F changes sign over the cell (grid[i],
    grid[i+1])."""
    s = np.sign(F)
    return np.nonzero(s == 0.0), np.nonzero(s[:, :-1] * s[:, 1:] < 0.0)


def _certify(roots: list[list[float]], mu2, w, lam_max: float) -> None:
    """Check the zeros of a, b, c, d of the scalar problem (mu^2, w): none
    lies below the channel lower bound mu^2, and they interlace as
    Sturm-Liouville spectra that differ in one boundary condition: Neumann
    before Dirichlet at the cut (c/a, d/b) and at the handle centre (c/d,
    a/b).  Each pair alternates strictly from the bottom, starting with the
    first list, which has 0 or 1 more zeros in [0, lam_max].

    Consecutive zeros of a pair are the two edges of a band.  In an
    exponentially thin band they may come out in either order, by up to the
    accuracy of the map: ROOT_TOL from the polish and WRONSKIAN_RTOL
    relative from the cone series.  Raises NumericalError naming (mu^2, w)
    and the lowest zero below the bound, or the pair and the interval where
    the interlacing fails: a zero was missed or invented there."""
    def refuse(why: str):
        raise NumericalError(f"scalar problem (mu^2, w) = ({mu2}, {w}): {why}")

    low = [r for col in roots for r in col if r < float(mu2) - 1e-6]
    if low:
        refuse(f"eigenvalue {min(low)} violates the channel lower bound {float(mu2)}; "
               f"pruning rule unsound here")
    for first, second in ("ca", "db", "cd", "ab"):
        x, y = roots["abcd".index(first)], roots["abcd".index(second)]
        if not 0 <= len(x) - len(y) <= 1:
            refuse(f"count certificate: {len(x)} zeros of {first} against {len(y)} of "
                   f"{second} on [0, {float(lam_max)!r}]")
        z = np.empty(len(x) + len(y))
        z[0::2], z[1::2] = x, y
        bad = np.flatnonzero(np.diff(z) < -(ROOT_TOL + WRONSKIAN_RTOL * z[1:]))
        if bad.size:
            k = bad[0]
            refuse(f"count certificate: the zeros of {first} and {second} do not alternate "
                   f"on [{float(z[k + 1])!r}, {float(z[k])!r}]")


def _bands(channel: Channel, profile: Profile,
           lam_max: float) -> tuple[_HalfPeriod, list[tuple[int, tuple, tuple]]]:
    """The half-period map of a channel's scalar Hill problems (mu^2, w)
    and their bands in [0, lam_max], each as (k, (lo, s), (hi, t)) with k
    the map's weight row.  The keys are the channel's scalar_parts: one for
    a scalar channel, its two Hodge partners' for an H5 pair, and partners
    with one key list every band twice.  An
    edge (x, s) has s = 1 when periodic (a zero of b or c), -1 when
    antiperiodic (of a or d) and 0 at the cut at lam_max that ends an odd
    count.

    One batched evaluation over the lambda grid gives the signs of all four
    entries of every weight; a node where an entry vanishes is one of its
    zeros, and every cell over which an entry changes sign is polished, all
    of them together on the same table, each end keeping its scanned value.
    The scanned outer neighbour grid[cell - 1] is the third point of a
    cell's first polish step, which then interpolates where Chandrupatla's
    test admits it; cell 0 has none, and the mu^2 = 0 node of c, pinned to
    0, is none, so those bisect first.
    A weight's sorted edges pair up into bands; a gap narrower than two
    polished zeros resolve is closed: its edges, both periodic or both
    antiperiodic, are one double eigenvalue.  Raises NumericalError naming
    (mu^2, w) when _certify refuses its zeros."""
    keys = scalar_parts(channel)
    mu2, weights = keys[0][0], [w for _, w in keys]
    distinct = list(dict.fromkeys(weights))
    K = len(distinct)
    half = _HalfPeriod(mu2, distinct, profile, lam_max)
    # at lam_max = 0 the grid is the one node 0: repeated nodes would each
    # count a zero there
    grid = np.linspace(0.0, float(lam_max), SCAN_STEPS + 1 if lam_max > 0 else 1)
    F = half(grid)[0].reshape(4 * K, -1)  # row e K + k: entry e of a, b, c, d, weight k
    # the scanned outer neighbour (grid[cell - 1], F there) of every cell
    # seeds its polish; cell 0 has none
    outer = np.hstack((np.full((4 * K, 1), np.nan), F[:, :-1]))
    if mu2 == 0:
        # the form's kernel rho^-w is even and periodic: lambda = 0 is
        # exactly the bottom of the spectrum, a zero of c, whatever the
        # sampled sign; that sample is rounding about an exact zero and
        # seeds no polish
        F[2 * K:3 * K, 0] = 0.0
        outer[2 * K:3 * K, 1:2] = np.nan  # a slice: lam_max = 0 has no cell 1
    (at, node), (of, cell) = _roots_on_grid(F)

    def entry(x, j):
        return half(x)[0].reshape(4 * K, -1)[of[j], np.arange(x.size)]

    x = _polish(entry, grid[cell], grid[cell + 1], F[of, cell], F[of, cell + 1],
                np.append(np.nan, grid)[cell], outer[of, cell])
    own = []
    for k, w in enumerate(distinct):
        a, b, c, d = zeros = [sorted(grid[node[at == r]].tolist() + x[of == r].tolist())
                              for r in range(k, 4 * K, K)]
        _certify(zeros, mu2, w, lam_max)
        edges = sorted([(r, 1) for r in b + c] + [(r, -1) for r in a + d])
        for i in range(2, len(edges), 2):
            if edges[i][0] - edges[i - 1][0] < 2.0 * ROOT_TOL:
                edges[i] = (edges[i - 1][0], edges[i][1])
        if len(edges) % 2:
            edges.append((float(lam_max), 0))
        own.append(list(zip(edges[0::2], edges[1::2])))
    return half, [(k, lo, hi) for k in map(distinct.index, weights) for lo, hi in own[k]]


def floquet_eigenvalues(channel: Channel, theta: float, profile: Profile,
                        lam_max: float) -> list[float]:
    """All lambda in [0, lam_max] whose Floquet multiplier is e^{i theta},
    sorted, repeated per intrinsic multiplicity.  The channel's
    multiplicity is not applied here.  An H5 pair returns the union of its partners' roots.

    The channel is one solve, _bands, then one polish of one bracket per
    listed band, so a band listed twice gives its root twice.  Each band
    holds one root, the zero of b c + sin^2(theta/2) = a d - cos^2(theta/2),
    polished in the form whose constant is smaller.  The map is scaled by
    e^l, so the polished form is b c + sin^2(theta/2) e^{-2l} or
    a d - cos^2(theta/2) e^{-2l} in its scaled entries, which has the same
    zeros and cannot overflow.  At a periodic edge it is sin^2(theta/2)
    e^{-2l}, at an antiperiodic one -cos^2(theta/2) e^{-2l}, with l from one
    map call at all band ends, so at theta = 0 and pi the root is a band
    edge; a band cut at lam_max holds none when its value there has the
    lower edge's sign.  Raises ValueError for a non-finite theta or a
    lam_max that is not finite and >= 0."""
    check_theta(theta)
    lam_max = check_lam_max(lam_max)
    phi = math.remainder(theta, 2.0 * math.pi)
    # each computed where it is small: s2 is exactly 0 at theta = 0, c2 at pi
    s2, c2 = math.sin(0.5 * phi) ** 2, math.sin(0.5 * (math.pi - abs(phi))) ** 2
    half, bands = _bands(channel, profile, lam_max)

    def value(x, k):
        """The polished form at x[i] for weight k[i], and e^{-2l} there."""
        A, logs = half(x)
        i = np.arange(x.size)
        A, decay = A[:, :, k, i], np.exp(-2.0 * logs[k, i])
        if s2 <= c2:
            return A[0, 1] * A[1, 0] + s2 * decay, decay
        return A[0, 0] * A[1, 1] - c2 * decay, decay

    # columns (k, lo, hi, s, t): each band's weight row, ends and edge kinds
    k, lo, hi, s, t = np.array([(k, lo, hi, s, t) for k, (lo, s), (hi, t) in bands]
                               ).reshape(-1, 5).T
    k = k.astype(int)
    v, decay = value(np.concatenate((lo, hi)), np.concatenate((k, k)))
    kind = np.concatenate((s, t))
    f = np.where(kind == 0, v, np.where(kind > 0, s2, -c2) * decay).reshape(2, -1)
    keep = f[0] * f[1] <= 0.0
    of = k[keep]
    return sorted(_polish(lambda x, j: value(x, of[j])[0], lo[keep], hi[keep],
                          *f[:, keep]).tolist())


def _polish(F, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
            f_hi: np.ndarray, x3=None, f3=None) -> np.ndarray:
    """The zero of F(., k) inside every bracket [lo[k], hi[k]], by one
    vectorised Chandrupatla iteration (Adv. Eng. Software 28, 1997).

    F(x, k) evaluates bracket k[i] at x[i] for an index array k of open
    brackets; f_lo and f_hi are F at the bracket ends.  x3 and f3, when
    given, are a third sample of F beyond lo, with f3 NaN where there is
    none: the first step then interpolates through the three points where
    Chandrupatla's test admits it, and bisects elsewhere and without them.
    Each step evaluates, in one call, the iterate x of every open bracket
    and its two closing points x -/+ tol/2 that lie inside the bracket.  A
    closing point where F vanishes or has the sign opposite to F(x) makes
    [x, that point] the bracket, which is then narrower than tol; otherwise
    x alone updates the bracket.  A bracket closes once F vanishes at an end
    or its width is below tol = ROOT_TOL + 4 eps |x|, and returns the end
    with the smaller |F|: an end of a bracket narrower than tol across which
    F changes sign.  Raises NumericalError on a bracket without a sign
    change, on a NaN F and when a bracket is still open after POLISH_STEPS
    steps."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def refuse(k: int, why: str):
        raise NumericalError(f"root polish {why} on the bracket "
                             f"[{float(lo[k])!r}, {float(hi[k])!r}]")

    live = np.arange(lo.size)
    x1, x2, f1, f2 = lo, hi, np.asarray(f_lo, dtype=float), np.asarray(f_hi, dtype=float)
    for bad, why in ((np.isnan(f1) | np.isnan(f2), "met a NaN F"),
                     (np.sign(f1) * np.sign(f2) > 0, "found no sign change")):
        if bad.any():
            refuse(np.flatnonzero(bad)[0], why)
    # without a third point the first step bisects
    x3, f3 = (np.full(lo.size, np.nan) if v is None else np.asarray(v, dtype=float)
              for v in (x3, f3))
    root = np.empty(lo.size)
    for _ in range(POLISH_STEPS):
        smaller = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(smaller, x1, x2), np.where(smaller, f1, f2)
        dx = np.abs(x2 - x1)
        tol = ROOT_TOL + 4.0 * np.finfo(float).eps * np.abs(xm)
        done = (fm == 0.0) | (dx < tol)
        root[live[done]] = xm[done]
        if done.all():
            return root
        keep = ~done
        live, x1, x2, x3, f1, f2, f3, dx, tol = (
            v[keep] for v in (live, x1, x2, x3, f1, f2, f3, dx, tol))
        # inverse quadratic interpolation through the last three points
        # where Chandrupatla's test says it stays inside, else bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * tol / dx
        x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        # the closing points (2, n) inside the bracket; an end's value is known
        xc = np.stack((x - 0.5 * tol, x + 0.5 * tol))
        inside = (np.minimum(x1, x2) < xc) & (xc < np.maximum(x1, x2))
        at = np.concatenate((live, np.broadcast_to(live, xc.shape)[inside]))
        values = F(np.concatenate((x, xc[inside])), at)
        if np.isnan(values).any():
            refuse(at[np.flatnonzero(np.isnan(values))[0]], "met a NaN F")
        f = values[:x.size]
        # an unevaluated closing point reads F(x): it never closes
        fc = np.broadcast_to(f, xc.shape).copy()
        fc[inside] = values[x.size:]
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        # a closing point across the zero from x (the first, if both are):
        # [x, it] is the bracket
        across = np.sign(fc) != np.sign(f)
        side = across.argmax(axis=0), np.arange(x.size)
        closes = across.any(axis=0)
        x2, f2 = np.where(closes, xc[side], x2), np.where(closes, fc[side], f2)
    refuse(live[0], f"is still open after {POLISH_STEPS} steps")


@dataclass
class BandEdges:
    """Closed bands [lo, hi] of one channel below lam_max, sorted by
    (hi, lo).  truncated marks bands cut off at lam_max; they come last (an
    H5 pair can have one per partner)."""

    bands: list[tuple[float, float]]
    truncated: bool


def band_edges(channel: Channel, profile: Profile, lam_max: float) -> BandEdges:
    """Band intervals of a channel by the Hill pairing.

    The sorted periodic (zeros of b and c) and antiperiodic (zeros of a and
    d) eigenvalues of a scalar channel interlace, so consecutive entries of
    the merged list are the band edges (Magnus-Winkler, Hill's Equation):
    a gap narrower than 2 ROOT_TOL is closed and an odd count leaves a last
    band cut at lam_max.  The channel is one solve, _bands, whose listed
    bands are sorted here; an H5 pair's are those of its two scalar
    partners, twice over when the partners are one key (mu^2, w).  Raises
    ValueError for a lam_max that is not finite and >= 0.
    """
    lam_max = check_lam_max(lam_max)
    bands = _bands(channel, profile, lam_max)[1]
    return BandEdges(sorted([(lo, hi) for _, (lo, _), (hi, _) in bands],
                            key=lambda band: (band[1], band[0])),
                     any(t == 0 for _, _, (_, t) in bands))
