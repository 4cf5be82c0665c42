"""Radial machinery: profile, cone basis, propagators, monodromy, Floquet.

The cone series is checked against closed Bessel forms,
    f_gamma(t) = Gamma(nu+1) (2/sqrt(lam))^nu sqrt(t) J_nu(sqrt(lam) t)
    g_gamma(t) = Gamma(1-nu) (sqrt(lam)/2)^nu sqrt(t) J_{-nu}(sqrt(lam) t)
with nu = gamma + 1/2 (non-resonant gamma), and the half-period map and
the monodromy M = A K A^-1 K it gives against a direct Runge-Kutta
integration of the global-frame system over the half and the whole period.
"""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma as gamma_fn
from scipy.special import jv, yv

from conebands import radial
from conebands.channels import Channel, enumerate_channels, scalar_parts
from conebands.oracle import assemble, oracle_eigenvalues
from conebands.radial import (
    SCAN_STEPS,
    BandEdges,
    NumericalError,
    band_edges,
    cone_basis,
    floquet_eigenvalues,
    make_profile,
    tip_exponent,
)
from conebands.transversal import build_flat_torus_spectrum
from free_circle import free_circle_eigs
from pair_form import part_channels
from whole_period import period_pieces

CIRCLE = build_flat_torus_spectrum([2 * math.pi], 11)
# the circle-high benchmark census: circle of length 2 pi / 3 at p = 0 up to
# lambda = 400, with mu^2 = 9 k^2 and cone exponents gamma = 3k - 1/2
CIRCLE_HIGH = enumerate_channels(build_flat_torus_spectrum([2 * math.pi / 3], 400.0), 0, 400.0)
TORUS_P1_SPECTRUM = build_flat_torus_spectrum([2 * math.pi, 2 * math.pi], 8.25)


# ---------------------------------------------------------------------------
# profile


def slopes(prof):
    """The slope of each piece of a profile's period, nan on a rounded
    corner."""
    return [slope for _, _, slope in period_pieces(prof)]


def piecewise_rho(eps, L, l_out, eta, tau):
    """Reference (rho, rho') at one tau in [0, T] from the piecewise layout:
    half cylinder, cone down, handle, cone up, half cylinder, laid out from
    tau = 0, each slope break rounded by its quadratic corner patch.  The
    first piece holding tau wins."""
    c = 1.0 - eps
    layout = [(0.5 * l_out, 0.0, 1.0), (c, -1.0, 1.0), (L, 0.0, eps), (c, 1.0, eps),
              (0.5 * l_out, 0.0, 1.0)]  # (length, slope, rho at start)
    corners = []  # (tau_c, rho_c, slope before, slope after, delta)
    if eta > 0.0 and eps < 1.0:
        t = 0.0
        for (l0, s0, r0), (l1, s1, _) in zip(layout, layout[1:]):
            t += l0
            room = 0.5 * min(l0, l1)
            corners.append((t, r0 + s0 * l0, s0, s1, min(2.0 * (r0 + s0 * l0) * eta, room)))
    for tc, rc, sm, sp, d in corners:
        x = tau - tc
        if abs(x) <= d:
            return (rc + 0.5 * (sm + sp) * x + (sp - sm) / (4.0 * d) * x * x + (sp - sm) * d / 4.0,
                    0.5 * (sm + sp) + (sp - sm) * x / (2.0 * d))
    t = 0.0
    for length, slope, r0 in layout[:-1]:
        if tau <= t + length:
            return r0 + slope * (tau - t), slope
        t += length
    return 1.0, 0.0


class TestMakeProfile:
    def test_standard_layout(self):
        prof = make_profile(0.2, math.pi, 1.0)
        assert prof.T == pytest.approx(math.pi + 2 * 0.8 + 1.0, abs=1e-14)
        assert slopes(prof) == [0.0, -1.0, 0.0, 1.0, 0.0]
        # the half period's pieces tile [0, T/2], and with their mirror image [0, T]
        half = prof.pieces()
        assert half[0][0] == 0.0 and half[-1][1] == 0.5 * prof.T
        assert all(p[1] == q[0] for p, q in zip(half, half[1:]))
        pieces = period_pieces(prof)
        assert pieces[0][0] == 0.0 and pieces[-1][1] == prof.T
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        assert [b - a for a, b, _ in pieces] == pytest.approx([0.5, 0.8, math.pi, 0.8, 0.5])
        assert prof.rho(0.0) == pytest.approx(1.0)
        assert prof.rho(prof.T) == pytest.approx(1.0)
        # handle midpoint sits at depth eps
        mid = 0.5 + 0.8 + 0.5 * math.pi
        assert prof.rho(mid) == pytest.approx(0.2, abs=1e-14)
        assert prof.rho_prime(mid) == 0.0
        assert prof.rho_prime(0.7) == -1.0  # inside the descending cone

    def test_no_outer_cylinder_cuts_at_cone_junction(self):
        prof = make_profile(0.3, 1.5, 0.0)
        assert slopes(prof) == [-1.0, 0.0, 1.0]
        assert prof.rho(0.0) == pytest.approx(1.0)

    def test_flat_circle(self):
        prof = make_profile(1.0, 2.0, 1.0)
        assert prof.T == pytest.approx(3.0)
        assert slopes(prof) == [0.0, 0.0, 0.0]
        assert prof.rho(1.7) == pytest.approx(1.0)

    def test_profile_is_its_four_parameters(self):
        prof = make_profile(0.2, 1.0, 0.8, eta=0.02)
        assert [f.name for f in dataclasses.fields(prof)] == ["eps", "L", "l_out", "eta"]
        assert (prof.eps, prof.L, prof.l_out, prof.eta) == (0.2, 1.0, 0.8, 0.02)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prof.eps = 0.3

    def test_input_errors(self):
        with pytest.raises(ValueError):
            make_profile(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_profile(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_profile(1.0, 0.0, 0.0)  # period zero
        with pytest.raises(ValueError):
            make_profile(0.5, 1.0, -0.1)
        with pytest.raises(ValueError):
            make_profile(0.5, 1.0, 1.0, eta=-0.01)
        with pytest.raises(ValueError):
            make_profile(0.5, 1.0, 1.0, eta=1.0)

    @pytest.mark.parametrize("params,name", [
        ((math.nan, 1.0, 0.8), "eps"),
        ((math.inf, 1.0, 0.8), "eps"),
        ((0.2, math.nan, 0.8), "L"),
        ((0.2, math.inf, 0.8), "L"),
        ((0.2, 1.0, math.nan), "l_out"),
        ((0.2, 1.0, math.inf), "l_out"),
        ((0.2, 1.0, 0.8, math.nan), "eta"),
        ((0.2, 1.0, 0.8, math.inf), "eta"),
        ((0.2, 1e308, 1e308), "period T"),
        ((10**400, 1.0, 0.8), "eps"),
        ((0.2, 10**400, 0.8), "L"),
        ((0.2, 1.0, 10**400), "l_out"),
        ((0.2, 1.0, 0.8, 10**400), "eta"),
    ], ids=["eps-nan", "eps-inf", "L-nan", "L-inf", "l_out-nan", "l_out-inf", "eta-nan",
            "eta-inf", "T-overflow", "eps-huge-int", "L-huge-int", "l_out-huge-int",
            "eta-huge-int"])
    def test_non_finite_input_is_refused_by_name(self, params, name):
        # eta = nan once gave corners with NaN bounds and eta = 0 bands from
        # band_edges; a non-finite length or period a bare AssertionError,
        # and an int beyond the double range an OverflowError
        with pytest.raises(ValueError, match=rf"^{name} must"):
            make_profile(*params)

    @pytest.mark.parametrize("value", [True, np.True_, "0.2"], ids=["True", "np.True_", "str"])
    @pytest.mark.parametrize("index,name", [(0, "eps"), (1, "L"), (2, "l_out"), (3, "eta")])
    def test_bool_and_string_parameters_are_refused(self, index, name, value):
        # each was read by float(): True as 1.0 and "0.2" as 0.2
        params = [0.2, 1.0, 0.8, 0.0]
        params[index] = value
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {value!r}$"):
            make_profile(*params)

    def test_eta_needs_room(self):
        # the room rule keeps corners apart; next to a piece of length 0 the
        # corner's half-width is 0, so eta would leave it sharp
        assert radial.Profile(0.2, 0.0, 0.8, 0.1)._breaks()[0][2] == 0.0
        why = "the corner next to a piece of length 0 gets half-width 0 and would stay sharp"
        with pytest.raises(ValueError, match=why):
            make_profile(0.2, 0.0, 0.8, eta=0.1)
        with pytest.raises(ValueError, match=why):
            make_profile(0.5, 0.0, 1.0, eta=0.02)
        with pytest.raises(ValueError, match=why):
            make_profile(0.5, 1.0, 0.0, eta=0.02)
        # no corners at eps = 1, so eta is harmless there
        make_profile(1.0, 1.0, 0.0, eta=0.02)

    @pytest.mark.parametrize("eta", [1e-17, 1e-320])
    def test_corner_below_a_few_ulps_of_T_is_refused(self, eta):
        # such a corner once failed in the oracle with "non-positive grid
        # step", and at 1e-320 rho's division by the half-width overflowed
        with pytest.raises(ValueError, match=rf"^eta = {eta!r} rounds a corner"):
            make_profile(0.2, 1.0, 0.8, eta)

    def test_smoothed_profile_is_c1_and_close(self):
        eps, eta = 0.2, 0.02
        sharp = make_profile(eps, 1.0, 0.8)
        smooth = make_profile(eps, 1.0, 0.8, eta=eta)
        assert smooth.rho(0.0) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(slopes(smooth), [0.0, math.nan, -1.0, math.nan, 0.0,
                                                       math.nan, 1.0, math.nan, 0.0])
        corners = [(a, b) for a, b, slope in period_pieces(smooth) if math.isnan(slope)]
        for a, b in corners:
            for edge, kick in ((a, -1e-9), (b, +1e-9)):
                assert smooth.rho(edge) == pytest.approx(smooth.rho(edge + kick), abs=1e-7)
                assert smooth.rho_prime(edge) == pytest.approx(
                    smooth.rho_prime(edge + kick), abs=1e-6
                )
        # uniform closeness: |log(rho_eta / rho)| <= eta / 2
        taus = np.linspace(0.0, smooth.T, 4001)
        logdev = [
            abs(math.log(smooth.rho(t) / sharp.rho(t))) for t in taus
        ]
        assert max(logdev) <= eta / 2 + 1e-12
        # and the bound is actually attained at the corners (deviation delta/4)
        assert max(logdev) >= eta / 8

    def test_smoothing_windows_stay_local(self):
        eps, eta = 0.2, 0.02
        sharp = make_profile(eps, 1.0, 0.8)
        smooth = make_profile(eps, 1.0, 0.8, eta=eta)
        # corners sit at 0.4, 1.2, 2.2, 3.0 with windows of width <= 0.04
        for tau in (0.2, 0.7, 1.7, 2.5, 3.2):
            assert smooth.rho(tau) == pytest.approx(sharp.rho(tau), abs=1e-14)

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_radius_matches_a_piecewise_reference(self, eta):
        prof = make_profile(0.2, 1.0, 0.8, eta=eta)
        knots = [a for a, _, _ in period_pieces(prof)] + [prof.T]
        taus = np.concatenate([np.linspace(0.0, prof.T, 997), knots])
        want = np.array([piecewise_rho(0.2, 1.0, 0.8, eta, t) for t in taus])
        np.testing.assert_allclose(prof.rho(taus), want[:, 0], rtol=0, atol=1e-15)
        # the slope away from sharp breaks, which piecewise_rho takes one-sided;
        # in a corner it is (tau - tau_c) / (2 delta), which magnifies the
        # rounding of tau by 1 / (2 delta) = 62
        away = np.min(np.abs(taus[:, None] - np.array(knots)[None, :]), axis=1) > 1e-9
        away |= eta > 0.0
        np.testing.assert_allclose(prof.rho_prime(taus[away]), want[away, 1], rtol=0,
                                   atol=1e-15 if eta == 0.0 else 1e-13)

    @pytest.mark.parametrize("params", [(0.25, 1.0, 0.5, 0.0), (0.25, 1.0, 0.5, 0.02),
                                        (0.25, 1.0, 0.5, 0.05), (0.3, 1.0, 0.8, 0.02),
                                        (0.3, 1.0, 0.8, 0.05)])
    def test_slope_matches_a_central_difference(self, params):
        # at 2000 points and at every break centre.  A sharp break's central
        # difference is the mean of its two slopes, and only a tau exactly on
        # the break has that slope: (0.25, 1, 0.5) puts the centres on
        # exact doubles
        prof = make_profile(*params)
        eps, L = params[:2]
        T, h = prof.T, 1e-8
        centres = [0.5 * T + sign * s for sign in (-1, 1) for s in (0.5 * L, 0.5 * L + 1 - eps)]
        taus = np.concatenate([np.linspace(0.0, T, 2000), centres])
        diff = (prof.rho(taus + h) - prof.rho(taus - h)) / (2.0 * h)
        np.testing.assert_allclose(prof.rho_prime(taus), diff, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("eta", [0.0, 0.05])
    def test_slope_at_a_break_is_the_mean_of_its_two_slopes(self, eta):
        # the breaks of (0.25, 1, 0.5) sit at tau = 0.25, 1, 2 and 2.75
        prof = make_profile(0.25, 1.0, 0.5, eta=eta)
        assert prof.rho_prime(np.array([0.25, 1.0, 2.0, 2.75])).tolist() == [-0.5, -0.5, 0.5, 0.5]
        # a handle of length 0 breaks at its centre, a cylinder of length 0 at the cut
        assert make_profile(0.25, 0.0, 0.5).rho_prime(1.0) == 0.0
        no_cylinder = make_profile(0.25, 1.0, 0.0)
        assert no_cylinder.rho_prime(np.array([0.0, no_cylinder.T])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# flat segments


def flat(mass2, lam, ell):
    """One point of the batched flat-piece propagators, unscaled."""
    P, logs = radial._flat_propagators(mass2, np.array([float(lam)]), ell)
    return P[..., 0] * math.exp(logs[0])


class TestSegmentPropagator:
    def test_free_segment(self):
        np.testing.assert_allclose(
            flat(0.0, 0.0, 2.5), [[1.0, 2.5], [0.0, 1.0]], atol=1e-15
        )

    @pytest.mark.parametrize("kl", [1e-6, 1.0, 30.0 - 1e-9, 30.0 + 1e-9, 40.0])
    def test_hyperbolic_anchor(self, kl):
        # one scaled form at every k ell: q = 1 - exp(-2 k ell) by expm1
        # keeps small k ell exact, the log scale keeps large k ell finite
        kappa = 4.0
        P, logs = radial._flat_propagators(kappa**2 + 2.0, np.array([2.0]), kl / kappa)
        c, s = math.cosh(kl), math.sinh(kl)
        want = np.array([[c, s / kappa], [kappa * s, c]]) * math.exp(-logs[0])
        np.testing.assert_allclose(P[..., 0], want, rtol=1e-14)
        assert logs[0] == pytest.approx(kl - math.log(2.0), rel=1e-15)

    def test_oscillatory_anchor(self):
        P = flat(0.0, 4.0, math.pi / 2)
        np.testing.assert_allclose(P, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)

    def test_determinant_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            mass2 = rng.uniform(0.0, 9.0)
            lam = rng.uniform(0.0, 12.0)
            ell = rng.uniform(0.0, 4.0)
            P = flat(mass2, lam, ell)
            scale = float(np.max(np.abs(P))) ** 2
            assert np.linalg.det(P) == pytest.approx(1.0, abs=1e-13 * max(1.0, scale))

    def test_crossover_continuity(self):
        left = flat(1.0, 1.0 - 1e-9, 1.3)
        mid = flat(1.0, 1.0, 1.3)
        right = flat(1.0, 1.0 + 1e-9, 1.3)
        np.testing.assert_allclose(left, mid, atol=1e-8)
        np.testing.assert_allclose(right, mid, atol=1e-8)

    # mass2 = 1, ell = 0.5: (u, u') entries (cos, sin(w ell)/w, -w sin) for
    # w^2 = lam - 1 >= 0, (cosh, sinh(k ell)/k, k sinh) for k^2 = 1 - lam,
    # by mpmath at 40 digits at the exact double lam - 1 (3.597122599785507e-14,
    # 3.9968028886505635e-15, 0 and -3.597122599785507e-14)
    @pytest.mark.parametrize("x,want", [
        (9e-15, (0.999999999999995503597, 0.499999999999999250599, -1.7985612998927508998e-14)),
        (1e-15, (0.9999999999999995004, 0.499999999999999916733, -1.99840144432528143996e-15)),
        (0.0, (1.0, 0.5, 0.0)),
        (-9e-15, (1.0000000000000044964, 0.500000000000000749401, 1.79856129989275629117e-14)),
    ])
    def test_near_the_mass_matches_mpmath(self, x, want):
        # (lam - 1) ell^2 = x: the trigonometric and hyperbolic forms keep
        # every entry within 5e-16 right down to lam = mass2, so that point
        # needs no form of its own
        diag, off, low = want
        got = flat(1.0, 1.0 + x / 0.25, 0.5)
        for g, ref in zip(got.ravel(), (diag, off, low, diag)):
            assert abs(g - ref) <= 5e-16 * abs(ref), (g, ref)


# ---------------------------------------------------------------------------
# cone basis


def bessel_f(gamma, lam, t):
    nu = gamma + 0.5
    return gamma_fn(nu + 1) * (2 / math.sqrt(lam)) ** nu * math.sqrt(t) * jv(nu, math.sqrt(lam) * t)


def bessel_g(gamma, lam, t):
    """The plain singular series t^-gamma (1 + O(z)), nu = gamma + 1/2 not
    an integer."""
    nu = gamma + 0.5
    return gamma_fn(1 - nu) * (math.sqrt(lam) / 2) ** nu * math.sqrt(t) * jv(-nu, math.sqrt(lam) * t)


def subtracted_g(gamma, lam, t):
    """The cone table's singular branch off resonance, from closed Bessel
    forms.  With m = round(nu): g - P lam^m f for m >= 1, P = prod_{j <= m}
    1 / (4j (nu - j)) being the coefficient of z^m in g; (f - g) / (2 nu)
    for m = 0."""
    nu = gamma + 0.5
    m = round(nu)
    if m == 0:
        return (bessel_f(gamma, lam, t) - bessel_g(gamma, lam, t)) / (2 * nu)
    P = math.prod(1 / (4 * j * (nu - j)) for j in range(1, m + 1))
    return bessel_g(gamma, lam, t) - P * lam**m * bessel_f(gamma, lam, t)


def basis_at(table, lam, t):
    """(f, f', g, g') of a cone table's fundamental pair at one (lam, t)."""
    S = table.state(np.array([lam]), (t,))[..., 0, 0]
    return S[0, 0], S[1, 0], S[0, 1], S[1, 1]


def wronskian_residual(table, t, n=20000):
    """Largest relative Wronskian residual of a cone table at radius t over
    n points 0 < lam t^2 <= z_max."""
    z = np.linspace(0.0, table.z_max, n + 1)[1:]
    S = table.state(z / (t * t), (t,))[:, :, 0]
    det = S[0, 0] * S[1, 1] - S[1, 0] * S[0, 1]
    return float(np.max(np.abs(det - table.wronskian))) / abs(table.wronskian)


class TestConeBasis:
    def test_lambda_zero_closed_forms(self):
        b = cone_basis(0.7, 0.0)
        for t in (0.1, 0.45, 1.0):
            f, df, g, dg = basis_at(b, 0.0, t)
            assert f == pytest.approx(t**1.7, rel=1e-14)
            assert df == pytest.approx(1.7 * t**0.7, rel=1e-14)
            assert g == pytest.approx(t**-0.7, rel=1e-14)
            assert dg == pytest.approx(-0.7 * t**-1.7, rel=1e-14)
        assert b.wronskian == pytest.approx(-2.4)

    def test_half_bound_state_log_at_lambda_zero(self):
        # nu = 0: the pair is sqrt(t) and sqrt(t) log t
        b = cone_basis(-0.5, 0.0)
        assert (b.m, b.delta, b.a_z) == (0, 0.0, 1.0)
        for t in (0.2, 0.8):
            f, _, g, _ = basis_at(b, 0.0, t)
            assert f == pytest.approx(math.sqrt(t), rel=1e-14)
            assert g == pytest.approx(math.sqrt(t) * math.log(t), rel=1e-13)
        assert b.wronskian == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma", [-0.3, 0.3, 1.0, 2.7])
    @pytest.mark.parametrize("lam", [2.5, 9.0])
    def test_bessel_oracle(self, gamma, lam):
        # off resonance g is the plain series less the multiple of f that
        # carries its coefficient of z^m, m = round(nu); gamma = 1 has
        # nu = 3/2 at the edge of its m = 2
        b = cone_basis(gamma, 9.0)  # one table serves both lam
        assert b.m == round(gamma + 0.5)
        for t in (0.3, 0.9):
            f, _, g, _ = basis_at(b, lam, t)
            assert f == pytest.approx(bessel_f(gamma, lam, t), rel=1e-11)
            assert g == pytest.approx(subtracted_g(gamma, lam, t), rel=1e-11)
        h = 1e-6
        for t in (0.5,):
            _, df, _, dg = basis_at(b, lam, t)
            fd = (bessel_f(gamma, lam, t + h) - bessel_f(gamma, lam, t - h)) / (2 * h)
            assert df == pytest.approx(fd, rel=1e-8)
            gd = (subtracted_g(gamma, lam, t + h) - subtracted_g(gamma, lam, t - h)) / (2 * h)
            assert dg == pytest.approx(gd, rel=1e-8)

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("lam", [2.5, 30.0])
    def test_bessel_y_at_integer_nu(self, m, lam):
        # at nu = m the table's g is K sqrt(t) Y_m(sqrt(lam) t) plus a
        # multiple c of f, K fixed by g ~ t^-gamma at the tip (pi / 2 at
        # m = 0, where g ~ sqrt(t) log t); c is read at t = 1
        gamma = m - 0.5
        b = cone_basis(gamma, lam)
        assert b.delta == 0.0
        K = math.pi / 2 if m == 0 else -math.pi * (math.sqrt(lam) / 2) ** m / math.factorial(m - 1)

        def y_part(t):
            return K * math.sqrt(t) * yv(m, math.sqrt(lam) * t)

        f, _, g, _ = basis_at(b, lam, 1.0)
        c = (g - y_part(1.0)) / f
        for t in (0.2, 0.5, 0.9):
            f, _, g, _ = basis_at(b, lam, t)
            assert f == pytest.approx(bessel_f(gamma, lam, t), rel=1e-11)
            assert g == pytest.approx(y_part(t) + c * f, rel=1e-11)

    @pytest.mark.parametrize("gamma,lam", [(0.5, 3.0), (1.5, 2.5), (-0.5, 3.0), (2.5, 7.0),
                                           (4.5, 300.0), (8.5, 300.0)])
    def test_log_branch_solves_ode(self, gamma, lam):
        b = cone_basis(gamma, lam)
        assert b.delta == 0.0
        assert b.a_z != 0.0
        h = 1e-4
        for t in (0.3, 0.7):
            for branch in (0, 2):  # f, g

                def u(x):
                    return basis_at(b, lam, x)[branch]

                d2 = (u(t + h) - 2 * u(t) + u(t - h)) / (h * h)
                residual = -d2 + gamma * (gamma + 1) / (t * t) * u(t) - lam * u(t)
                scale = max(abs(u(t)), 1.0) * max(lam, gamma * (gamma + 1) + 2) / (t * t)
                assert abs(residual) <= 1e-5 * scale

    def test_wronskian_random(self):
        rng = np.random.default_rng(1442)
        for _ in range(40):
            gamma = rng.uniform(-0.5, 4.0)
            lam = rng.uniform(0.0, 12.0)
            t = rng.uniform(0.05, 1.0)
            b = cone_basis(gamma, 12.0)
            f, df, g, dg = basis_at(b, lam, t)
            w = f * dg - df * g
            assert w == pytest.approx(b.wronskian, rel=1e-10, abs=1e-12)

    def test_near_half_integer_is_continuous(self):
        # no snap: gamma 3e-10 off a half-integer keeps its own value, and
        # its pair moves from the resonant one by O(3e-10)
        exact = cone_basis(0.5, 4.0)
        near = cone_basis(0.5 + 3e-10, 4.0)
        assert near.gamma == 0.5 + 3e-10 and near.m == exact.m == 1
        assert near.delta == pytest.approx(3e-10, rel=1e-6)
        for t in (0.2, 0.9):
            np.testing.assert_allclose(basis_at(near, 4.0, t), basis_at(exact, 4.0, t),
                                       rtol=1e-8)

    @pytest.mark.parametrize("z_max", [49.0, 390.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 8, 18])
    def test_near_resonant_tables_keep_their_digits(self, m, z_max):
        # a pole-subtracted g loses no digits near resonance: every
        # nu = m + delta evaluates without refusal, its Wronskian residual
        # within 4 times the one at delta = 1/4 (the spread of rounding
        # over the grid); the plain series refused 0 < |delta| <= 1e-3 at
        # z_max = 390
        deltas = [0.0, 1e-12, 2e-9, 1e-8, 1e-6, 1e-4, 1e-3, 0.1]
        deltas += [] if m == 0 else [-d for d in deltas[1:]]
        ref = wronskian_residual(cone_basis(m - 0.25, z_max), 0.2)
        for delta in deltas:
            residual = wronskian_residual(cone_basis(m - 0.5 + delta, z_max), 0.2)
            assert residual <= 4.0 * ref, (delta, residual, ref)

    @pytest.mark.parametrize("gamma", [0.3, 2.5])
    def test_window_table_matches_point_tables(self, gamma):
        # the lam = 400 scan table evaluated at small lam agrees with the
        # table truncated for that lam alone
        wide = cone_basis(gamma, 400.0)
        lams = np.array([0.0, 0.7, 3.1, 9.0])
        S_wide = wide.state(lams, (0.2, 1.0))
        for k, lam in enumerate(lams):
            S_one = cone_basis(gamma, lam).state(np.array([lam]), (0.2, 1.0))[..., 0]
            np.testing.assert_allclose(S_wide[..., k], S_one, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("gamma", [-0.5, 0.618, 2.5])
    def test_tail_test_stops_where_the_quadratic_scan_did(self, gamma):
        # reference: rescan every term on every step, first j >= 4 whose
        # term at z_max is below 1e-16 of the largest one
        z_max = 400.0
        f = [1.0]
        while True:
            j = len(f)
            f.append(-f[-1] / (2.0 * j * (2.0 * gamma + 1.0 + 2.0 * j)))
            terms = [abs(c) * z_max**k for k, c in enumerate(f)]
            if j >= 4 and terms[-1] <= 1e-16 * max(terms):
                break
        b = cone_basis(gamma, z_max)
        assert len(b.f_coef) == len(f)
        np.testing.assert_array_equal(b.f_coef, f)

    @pytest.mark.parametrize("gamma", [-0.5, 0.618, 1.0, 2.5, 8.5, 17.5])
    def test_wronskian_guard_refuses_large_lambda(self, gamma):
        # the series keeps about 1e-8 of the Wronskian at lam t^2 = 400 and
        # loses it all by 2000; the evaluation must raise, not return noise
        b = cone_basis(gamma, 2000.0)
        b.state(np.array([400.0]), (0.19, 1.0))
        with pytest.raises(NumericalError, match="Wronskian"):
            b.state(np.array([2000.0]), (0.19, 1.0))
        if gamma == -0.5:
            with pytest.raises(NumericalError, match="Wronskian"):
                b.state(np.array([800.0]), (0.19, 1.0))

    def test_errors(self):
        with pytest.raises(ValueError):
            cone_basis(-0.6, 1.0)
        for gamma in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"gamma must be finite and >= -1/2, got {gamma}"):
                cone_basis(gamma, 1.0)
        with pytest.raises(ValueError):
            cone_basis(0.5, -1.0)
        # read as make_profile reads its parameters: no bools or strings,
        # and a number beyond the double range is a ValueError
        for gamma in (True, np.True_, "0.5", 10**400):
            with pytest.raises(ValueError, match=rf"^gamma must be finite and >= -1/2, got {gamma!r}$"):
                cone_basis(gamma, 1.0)
        for z_max in (True, np.True_, "1.0", 10**400):
            with pytest.raises(ValueError, match=rf"^z_max must be finite and nonnegative, got {z_max!r}$"):
                cone_basis(0.5, z_max)
        b = cone_basis(0.5, 1.0)
        with pytest.raises(ValueError):
            b.state(np.array([1.0]), (0.0,))
        with pytest.raises(ValueError, match="window"):
            b.state(np.array([1.5]), (1.0,))

    @pytest.mark.parametrize("gamma,z_max", [(17.5, 5000.0), (30.2, 4000.0)])
    def test_table_overflow_raises_numerical_error(self, gamma, z_max):
        # the tail test's z_max^j leaves double range before the series
        # converges; that must be a NumericalError, not a bare OverflowError
        with pytest.raises(NumericalError, match="overflows"):
            cone_basis(gamma, z_max)

    def test_band_edges_beyond_the_table_raise_numerical_error(self):
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H4" and float(c.mu2) == 324.0)
        with pytest.raises(NumericalError, match="overflows"):
            band_edges(ch, make_profile(0.2, 1.0, 0.8), 5000.0)


class TestNearResonantCones:
    """Tip exponents near a half-integer, where the plain singular series
    carried the pole 1 / delta, delta = nu - round(nu)."""

    @pytest.mark.parametrize("lam_max", [40.0, 100.0])
    def test_edges_continue_linearly_through_resonance(self, lam_max):
        # H4 on the circle at mu = 2 + delta has nu = mu: its edges lie
        # within 1e-10 of the line through delta = 0 and +-1e-6.  The plain
        # series was 8.9e-9 off at 1e-8 and lam_max 40, and refused every
        # delta here at lam_max 100
        prof = make_profile(0.2, 1.0, 0.8)

        def edges(delta):
            ch = Channel("H4", 1, 0, (2.0 + delta) ** 2, 2)
            return np.array(band_edges(ch, prof, lam_max).bands).ravel()

        at0, up, down = edges(0.0), edges(1e-6), edges(-1e-6)
        slope = (up - down) / 2e-6
        for delta in (2e-9, -2e-9, 1e-8, -1e-8, 1e-7, -1e-7):
            got = edges(delta)
            assert len(got) == len(at0)
            assert np.max(np.abs(got - (at0 + delta * slope))) <= 1e-10, delta

    @pytest.mark.parametrize("p", [0, 1])
    def test_circles_near_side_pi_count_like_side_pi(self, p):
        # every level of a circle of side near pi has nu within 2.2e-7 k of
        # an even integer 2k; the plain series refused 8 or 9 of its
        # channels at lam_max 390
        prof = make_profile(0.2, 1.0, 0.8)

        def counts(side):
            ts = build_flat_torus_spectrum([side], 390.0)
            return [len(band_edges(ch, prof, 390.0).bands)
                    for ch in enumerate_channels(ts, p, 390.0)]

        want = counts(math.pi)
        assert sum(want) == (106, 212)[p]
        for side in (math.pi * (1 + 1e-7), math.pi * (1 + 2e-7), 3.141593):
            assert counts(side) == want, side


# ---------------------------------------------------------------------------
# cone propagator


def h5_channel(eps_section=CIRCLE, p=1, mu2=1):
    chans = enumerate_channels(eps_section, p, 10.0)
    return next(c for c in chans if c.kind == "H5" and float(c.mu2) == mu2)


def key(channel):
    """The key (mu^2, w) of a scalar channel's Hill problem."""
    (only,) = scalar_parts(channel)
    return only


def partner_weights(channel):
    """The distinct interface weights of a channel's scalar Hill problems in
    first-seen order: its own, or its two Hodge partners' for an H5 pair."""
    return tuple(dict.fromkeys(w for _, w in scalar_parts(channel)))


def single_map(mu2, w, profile, lam_bound):
    """The half-period map of the one scalar Hill problem (mu2, w): a
    callable giving (2, 2, G) maps and (G,) log scales."""
    half = radial._HalfPeriod(mu2, (w,), profile, lam_bound)

    def call(lam):
        A, logs = half(lam)
        return A[:, :, 0], logs[0]

    return call


def gamma_of(channel):
    """Tip exponent of a scalar channel."""
    return tip_exponent(*key(channel))


def cone_transfer(channel, lam, t0, t1):
    """Transfer matrix of a scalar channel across the ascending cone from
    radius t0 to t1, state (sigma, dsigma/dt), from a table cut at lam t1^2."""
    table = cone_basis(gamma_of(channel), abs(lam) * t1 * t1)
    S = table.state(np.array([float(lam)]), (t0, t1))
    return radial._transfer(S[:, :, 0], S[:, :, 1], table.wronskian)[..., 0]


def rk_cone_propagator(channel, lam, t0, t1):
    """Independent cone transfer matrix: Runge-Kutta on
    -u'' + c/t^2 u = lam u from t0 to t1, c = gamma (gamma + 1)."""
    g = gamma_of(channel)
    c = g * (g + 1.0)

    def rhs(t, y):
        return [y[1], (c / (t * t) - lam) * y[0]]

    cols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (t0, t1), y0, rtol=1e-11, atol=1e-13, method="RK45")
        assert sol.success
        cols.append(sol.y[:, -1])
    return np.column_stack(cols)


class TestConePropagator:
    def test_identity_and_flow(self):
        ch = enumerate_channels(CIRCLE, 0, 10.0)[0]
        assert np.allclose(cone_transfer(ch, 3.0, 0.4, 0.4), np.eye(2))
        P_ac = cone_transfer(ch, 5.0, 0.1, 1.0)
        P_ab = cone_transfer(ch, 5.0, 0.1, 0.5)
        P_bc = cone_transfer(ch, 5.0, 0.5, 1.0)
        np.testing.assert_allclose(P_bc @ P_ab, P_ac, rtol=1e-12, atol=1e-12)

    def test_determinant_one(self):
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0)
                  if c.kind == "H4" and float(c.mu2) == 1.0)
        P = cone_transfer(ch, 4.0, 0.2, 1.0)
        assert np.linalg.det(P) == pytest.approx(1.0, rel=1e-12)

    def test_series_vs_rk_scalar(self):
        chans = enumerate_channels(CIRCLE, 0, 10.0)
        ch = next(c for c in chans if c.kind == "H4" and float(c.mu2) == 1.0)
        P_series = cone_transfer(ch, 5.0, 0.05, 1.0)
        P_rk = rk_cone_propagator(ch, 5.0, 0.05, 1.0)
        np.testing.assert_allclose(P_series, P_rk, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("mu2", [0.0, 9.0, 324.0])
    def test_series_vs_rk_at_lambda_400(self, mu2):
        ch = next(c for c in CIRCLE_HIGH if float(c.mu2) == mu2)
        P_series = cone_transfer(ch, 400.0, 0.2, 1.0)
        P_rk = rk_cone_propagator(ch, 400.0, 0.2, 1.0)
        np.testing.assert_allclose(P_series, P_rk, rtol=1e-7,
                                   atol=1e-7 * np.max(np.abs(P_rk)))


# ---------------------------------------------------------------------------
# monodromy


def rk_monodromy(channel, profile, lam):
    """Independent monodromy of a scalar channel: Runge-Kutta across each
    piece of the global second-order equation, with the mass mu^2 where the
    slope is 0 and the cone potential gamma (gamma + 1) where it is +-1, plus
    explicit derivative jumps where consecutive slopes differ."""
    g = gamma_of(channel)
    c = g * (g + 1.0)
    w = float(key(channel)[1])
    M = np.eye(2)
    pieces = period_pieces(profile)
    for i, (a, b, slope) in enumerate(pieces):
        V = float(channel.mu2) if slope == 0.0 else c

        def rhs(tau, y, V=V):
            return [y[1], (V / profile.rho(tau) ** 2 - lam) * y[0]]

        cols = []
        for y0 in ([1.0, 0.0], [0.0, 1.0]):
            sol = solve_ivp(rhs, (a, b), y0, rtol=1e-12, atol=1e-13)
            assert sol.success
            cols.append(sol.y[:, -1])
        M = np.column_stack(cols) @ M
        dslope = slope - pieces[(i + 1) % len(pieces)][2]
        if dslope != 0.0:
            M = np.array([[1.0, 0.0], [dslope / profile.rho(b) * w, 1.0]]) @ M
    return M


def half_map(channel, lam, profile):
    """Scaled half-period map (A, logscale) at one lam, the true one being
    A exp(logscale): a length-one call of the batched evaluation, from a
    table cut at |lam|."""
    A, logs = single_map(*key(channel), profile, abs(lam))(np.array([float(lam)]))
    return A[..., 0], float(logs[0])


def monodromy(channel, lam, profile):
    """Scaled monodromy (M, logscale) at one lam: M = A K A^-1 K with
    K = diag(1, -1), where K A^-1 K = [[d, b], [c, a]] since det A = 1.
    A cut on a cone junction (l_out = 0) has the jump 2w; the two halves
    take w each, while rk_monodromy takes it whole at the end of the
    period, so M is returned in that frame, J(w) M J(-w)."""
    A, logscale = half_map(channel, lam, profile)
    (a, b), (c, d) = A
    M = A @ np.array([[d, b], [c, a]])
    if profile.l_out == 0.0 and profile.eps < 1.0:
        w = float(key(channel)[1])
        M = np.array([[1.0, 0.0], [w, 1.0]]) @ M @ np.array([[1.0, 0.0], [-w, 1.0]])
    return M, 2.0 * logscale


def dense_monodromy(channel, lam, profile):
    M, logscale = monodromy(channel, lam, profile)
    return M * math.exp(logscale)


def rk_half_map(channel, profile, lam):
    """Independent half-period map: Runge-Kutta from the handle centre T/2
    to the cut T across the pieces, with the derivative jump of every
    slope break in between and half the jump of a break at either end (the
    mirror half takes the other half)."""
    g = gamma_of(channel)
    c = g * (g + 1.0)
    w = float(key(channel)[1])
    pieces = period_pieces(profile)
    centre = 0.5 * profile.T

    def jump(i, share=1.0):
        _, b, slope = pieces[i]
        k = share * (slope - pieces[(i + 1) % len(pieces)][2]) / profile.rho(b) * w
        return np.array([[1.0, 0.0], [k, 1.0]])

    A = np.eye(2)
    for i, (a, b, slope) in enumerate(pieces):
        if b < centre + 1e-12:
            if b > centre - 1e-12:
                A = jump(i, 0.5) @ A  # a break at the centre (L = 0)
            continue
        V = float(channel.mu2) if slope == 0.0 else c

        def rhs(tau, y, V=V):
            return [y[1], (V / profile.rho(tau) ** 2 - lam) * y[0]]

        cols = []
        for y0 in ([1.0, 0.0], [0.0, 1.0]):
            sol = solve_ivp(rhs, (max(a, centre), b), y0, rtol=1e-12, atol=1e-13)
            assert sol.success
            cols.append(sol.y[:, -1])
        A = jump(i, 0.5 if i == len(pieces) - 1 else 1.0) @ np.column_stack(cols) @ A
    return A


def reflection_channel(p):
    """A circle channel with interface weight w = -1/2 (H4, p = 0) or w = 1
    (H1, p = 1)."""
    kind, mu2 = ("H4", 1.0) if p == 0 else ("H1", 0.0)
    return next(c for c in enumerate_channels(CIRCLE, p, 10.0)
                if c.kind == kind and float(c.mu2) == mu2)


class TestReflection:
    # w != 0 at both ends of each cone, a cut at a cone junction (l_out = 0),
    # a centre at a cone junction (L = 0) and the flat circle (eps = 1)
    PROFILES = [(0.3, 1.0, 0.8), (0.25, 1.2, 0.0), (0.3, 0.0, 0.8), (1.0, 2.0, 1.0)]

    @pytest.mark.parametrize("params", PROFILES)
    @pytest.mark.parametrize("p", [0, 1])
    def test_half_map_against_rk(self, params, p):
        ch, prof = reflection_channel(p), make_profile(*params)
        for lam in (2.0, 6.5):
            A, logscale = half_map(ch, lam, prof)
            A_rk = rk_half_map(ch, prof, lam)
            np.testing.assert_allclose(A * math.exp(logscale), A_rk, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("params", PROFILES)
    @pytest.mark.parametrize("p", [0, 1])
    def test_trace_is_twice_ad_plus_bc(self, params, p):
        # tr M = 2 (a d + b c), so tr M - 2 = 4 b c and tr M + 2 = 4 a d
        ch, prof = reflection_channel(p), make_profile(*params)
        for lam in (2.0, 6.5):
            A, logscale = half_map(ch, lam, prof)
            (a, b), (c, d) = A * math.exp(logscale)
            assert a * d - b * c == pytest.approx(1.0, abs=1e-12)
            tr_rk = np.trace(rk_monodromy(ch, prof, lam))
            assert 2.0 * (a * d + b * c) == pytest.approx(tr_rk, rel=1e-8, abs=1e-8)


class TestMonodromy:
    def test_flat_circle_trace(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        for lam in (0.7, 2.3, 9.1):
            M, logscale = monodromy(ch, lam, prof)
            tr = np.trace(M) * math.exp(logscale)
            assert tr == pytest.approx(2 * math.cos(math.sqrt(lam) * 3.0), abs=1e-10)

    def test_invariants(self):
        prof = make_profile(0.3, 1.0, 0.8)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if float(c.mu2) == 1.0)
        M, logscale = monodromy(ch, 4.7, prof)
        # det M = 1; for a 2x2 matrix that is also M^T J M = J
        sign, logdet = np.linalg.slogdet(M)
        assert sign > 0
        assert abs(logdet + 2.0 * logscale) <= 1e-10

    @pytest.mark.parametrize("l_out", [0.8, 0.0])
    def test_scalar_against_rk(self, l_out):
        prof = make_profile(0.3, 1.0, l_out)
        chans = enumerate_channels(CIRCLE, 0, 10.0)
        ch = next(c for c in chans if c.kind == "H4" and float(c.mu2) == 1.0)
        for lam in (2.0, 6.5):
            M = dense_monodromy(ch, lam, prof)
            M_rk = rk_monodromy(ch, prof, lam)
            np.testing.assert_allclose(M, M_rk, rtol=1e-8, atol=1e-8)

    def test_harmonic_scalar_against_rk(self):
        # w != 0 harmonic channel exercises the junction jumps at both signs
        prof = make_profile(0.25, 1.2, 0.6)
        ch = next(c for c in enumerate_channels(CIRCLE, 1, 10.0) if c.kind == "H1")
        for lam in (1.1, 5.2):
            M = dense_monodromy(ch, lam, prof)
            M_rk = rk_monodromy(ch, prof, lam)
            np.testing.assert_allclose(M, M_rk, rtol=1e-8, atol=1e-8)

    def test_kernel_at_lambda_zero(self):
        # theta = 0 keeps the harmonic form: monodromy fixes a vector
        prof = make_profile(0.2, math.pi, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        M, logscale = monodromy(ch, 0.0, prof)
        tr = np.trace(M) * math.exp(logscale)
        assert tr == pytest.approx(2.0, abs=1e-11)

    def test_requires_piecewise(self):
        prof = make_profile(0.3, 1.0, 0.8, eta=0.01)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        with pytest.raises(ValueError, match="corner"):
            monodromy(ch, 1.0, prof)

    @pytest.mark.parametrize("p,l_out", [(0, 0.8), (0, 0.0), (1, 0.8)])
    def test_batched_trace_matches_one_point(self, p, l_out):
        # the scan's table is truncated for lam_max, a one-point map's for
        # its own lam; up to 50 the maps agree to 1e-12 of the scale
        prof = make_profile(0.3, 1.0, l_out)
        grid = np.linspace(0.0, 50.0, 101)
        for ch in enumerate_channels(build_flat_torus_spectrum([2 * math.pi], 50.0), p, 50.0):
            if ch.kind == "H5":
                continue
            A, logs = single_map(*key(ch), prof, 50.0)(grid)
            for lam, A_b, s_b in zip(grid, np.moveaxis(A, -1, 0), logs):
                A_1, logscale = half_map(ch, lam, prof)
                assert np.max(np.abs(A_b * math.exp(s_b) - A_1 * math.exp(logscale))) <= (
                    1e-12 * max(1.0, math.exp(logscale)))

    def test_refuses_lambda_beyond_the_series(self):
        prof = make_profile(0.2, 1.0, 0.8)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        monodromy(ch, 400.0, prof)
        with pytest.raises(NumericalError, match="Wronskian"):
            monodromy(ch, 2000.0, prof)


class TestBatchedScan:
    @pytest.mark.parametrize("kind,mu2", [("H2", 0.0), ("H4", 324.0)])
    def test_polish_point_equals_grid_bitwise(self, kind, mu2):
        # root polishing evaluates single points through the scan's table and
        # arithmetic, so at a grid node it must reproduce the scanned value
        ch = next(c for c in CIRCLE_HIGH if c.kind == kind and float(c.mu2) == mu2)
        half = single_map(*key(ch), make_profile(0.2, 1.0, 0.8), 400.0)
        grid = np.linspace(0.0, 400.0, SCAN_STEPS + 1)
        A, logs = half(grid)
        for k, lam in enumerate(grid):
            A1, logs1 = half(np.array([float(lam)]))
            assert np.array_equal(A1[..., 0], A[..., k]) and logs1[0] == logs[k], lam

    @pytest.mark.parametrize("eps", [0.19, 0.2, 0.21])
    def test_circle_high_scan_stays_inside_the_guard(self, eps):
        # the benchmark's eps range (+-5%) at lam_max 400: no Wronskian refusal
        assert len(CIRCLE_HIGH) == 7
        grid = np.linspace(0.0, 400.0, SCAN_STEPS + 1)
        for ch in CIRCLE_HIGH:
            single_map(*key(ch), make_profile(eps, 1.0, 0.8), 400.0)(grid)

    def test_a_nan_lambda_is_a_degenerate_transfer_matrix(self):
        # the batched map refuses a non-finite product rather than let a NaN
        # sign reach the root scan
        half = radial._HalfPeriod(16, [-1 / 2], make_profile(1.0, 0.0, 2 * math.pi), 20.0)
        assert np.isfinite(half(np.array([4.0]))[0]).all()
        with pytest.raises(NumericalError, match=r"degenerate transfer matrix"):
            half(np.array([np.nan]))


T3 = build_flat_torus_spectrum([2 * math.pi] * 3, 6.0)


class TestStackedMap:
    # an H5 pair's two Hodge partners share mu^2 and the tip exponent, so
    # one map evaluates both; each weight's map must be the one it has alone
    @pytest.mark.parametrize("n,p,mu2", [(2, 1, 1), (2, 1, 8), (3, 1, 1), (3, 3, 2)])
    def test_two_weights_are_two_single_maps(self, n, p, mu2):
        ts = {2: TORUS_P1_SPECTRUM, 3: T3}[n]
        ch = next(c for c in enumerate_channels(ts, p, 6.0 if n == 3 else 8.0)
                  if c.kind == "H5" and c.mu2 == mu2)
        weights = partner_weights(ch)
        assert len(weights) == 2
        prof = make_profile(0.2, 1.0, 0.8)
        stacked = radial._HalfPeriod(ch.mu2, weights, prof, 8.0)
        singles = [radial._HalfPeriod(ch.mu2, (w,), prof, 8.0) for w in weights]
        # the scan grid crosses mu^2; the polish evaluates single points and
        # short batches in any order
        batches = [np.linspace(0.0, 8.0, SCAN_STEPS + 1),
                   np.random.default_rng(24).uniform(0.0, 8.0, 7)]
        batches += [np.array([x]) for x in (0.0, float(mu2), np.nextafter(float(mu2), 0.0), 8.0)]
        for lam in batches:
            A, logs = stacked(lam)
            assert A.shape == (2, 2, 2, lam.size) and logs.shape == (2, lam.size)
            for k, single in enumerate(singles):
                A1, logs1 = single(lam)
                assert np.array_equal(A[:, :, k], A1[:, :, 0]), (k, lam.size)
                assert np.array_equal(logs[k], logs1[0]), (k, lam.size)

    def test_weights_with_different_tip_exponents_are_refused(self):
        # w = 0 and w = 1 give (w + 1/2)^2 = 1/4 and 9/4: two cones
        prof = make_profile(0.2, 1.0, 0.8)
        with pytest.raises(ValueError, match="different tip exponents"):
            radial._HalfPeriod(1, (0, 1), prof, 8.0)
        with pytest.raises(ValueError, match="different tip exponents"):
            radial._HalfPeriod(1, (Fraction(-1, 2), Fraction(-1, 2), 0), prof, 8.0)


# ---------------------------------------------------------------------------
# Floquet eigenvalues


class TestFloquetEigenvalues:
    @pytest.mark.parametrize("mu2", [81.0, 144.0, 225.0])
    def test_small_eps_form_does_not_overflow(self, mu2):
        # at eps 0.01 the half handle's log scale reaches about 450, so
        # e^{2l} b c overflowed; the form b c + sin^2(theta/2) e^{-2l} has
        # the same zeros, one in each band
        prof = make_profile(0.01, 1.0, 0.8)
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H4" and float(c.mu2) == mu2)
        roots = floquet_eigenvalues(ch, 1.1, prof, 390.0)
        bands = band_edges(ch, prof, 390.0).bands
        assert len(roots) == len(bands) == {81.0: 9, 144.0: 7, 225.0: 5}[mu2]
        for x, (lo, hi) in zip(roots, bands):
            assert lo - 1e-10 <= x <= hi + 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="hi - lo of a band narrower than one ulp is rounding noise "
                              "(CHANGES.md FOUND: at small eps the band widths are rounding "
                              "noise; ROADMAP direction 5, widths from the map)")
    def test_small_eps_bands_are_no_wider_than_root_tol(self):
        # tunnelling through a handle of mass mu^2 / eps^2 makes the true
        # widths about e^{-mu L / eps} = e^{-900}; the nine bands read 1.4e-14
        # to 6.9e-10, two of them wider than ROOT_TOL
        prof = make_profile(0.01, 1.0, 0.8)
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H4" and float(c.mu2) == 81.0)
        widths = [hi - lo for lo, hi in band_edges(ch, prof, 390.0).bands]
        assert len(widths) == 9
        assert max(widths) <= radial.ROOT_TOL, widths

    def test_free_circle_generic_theta(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        expect = free_circle_eigs(3.0, 0.9, 10.0)
        got = floquet_eigenvalues(ch, 0.9, prof, 10.0)
        assert len(got) == len(expect)
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_free_circle_periodic_has_double_points(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        got = floquet_eigenvalues(ch, 0.0, prof, 10.0)
        expect = free_circle_eigs(3.0, 0.0, 10.0)  # [0, x, x] with x = (2 pi / 3)^2
        assert len(expect) == 3
        assert len(got) == 3
        np.testing.assert_allclose(got, expect, atol=1e-7)

    def test_free_circle_antiperiodic_pairs(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        got = floquet_eigenvalues(ch, math.pi, prof, 10.0)
        expect = free_circle_eigs(3.0, math.pi, 10.0)
        assert len(got) == len(expect) == 4
        np.testing.assert_allclose(got, expect, atol=1e-7)

    def test_massive_circle(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(
            c
            for c in enumerate_channels(CIRCLE, 0, 10.0)
            if c.kind == "H4" and float(c.mu2) == 1.0
        )
        got = floquet_eigenvalues(ch, 1.3, prof, 10.0)
        expect = free_circle_eigs(3.0, 1.3, 10.0, mass2=1.0)
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_theta_sign_and_period_invariance(self):
        prof = make_profile(0.3, 1.0, 0.8)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        a = floquet_eigenvalues(ch, 1.1, prof, 8.0)
        b = floquet_eigenvalues(ch, -1.1, prof, 8.0)
        c = floquet_eigenvalues(ch, 2 * math.pi - 1.1, prof, 8.0)
        np.testing.assert_allclose(a, b, atol=1e-10)
        np.testing.assert_allclose(a, c, atol=1e-10)

    def test_pair_flat_circle_everything_doubles(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = h5_channel()
        got = floquet_eigenvalues(ch, 0.7, prof, 9.0)
        expect = free_circle_eigs(3.0, 0.7, 9.0, mass2=1.0)
        assert len(got) == 2 * len(expect)
        np.testing.assert_allclose(got[0::2], expect, atol=1e-7)
        np.testing.assert_allclose(got[1::2], expect, atol=1e-7)

    def test_pair_doubles_survive_deep_handle(self):
        # n = 1, p = 1 is the middle degree: the pair's Hodge partners H4 of
        # degree 0 and H3 of degree 2 are isospectral, so every eigenvalue
        # doubles; the two scalar solves must agree with a narrow handle too
        prof = make_profile(0.1, 1.0, 1.0)
        ch = h5_channel()
        got = floquet_eigenvalues(ch, 0.8, prof, 6.0)
        assert len(got) == 4
        assert got[0] == pytest.approx(got[1], abs=1e-9)
        assert got[2] == pytest.approx(got[3], abs=1e-9)
        assert got[0] == pytest.approx(1.89446944, abs=1e-6)
        assert got[2] == pytest.approx(5.96716236, abs=1e-6)

    def test_eigenvalue_branches_are_theta_continuous(self):
        prof = make_profile(0.2, math.pi, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        r1 = floquet_eigenvalues(ch, 0.30, prof, 10.0)
        r2 = floquet_eigenvalues(ch, 0.35, prof, 10.0)
        for a, b in zip(r1, r2):
            assert abs(a - b) < 0.05

    @pytest.mark.parametrize("theta", [1e-9, -1e-9, math.pi - 1e-9, math.pi + 1e-9,
                                       2 * math.pi + 1e-9])
    @pytest.mark.parametrize("case", ["free-circle", "torus-p1"])
    def test_theta_within_1e_8_of_0_and_pi_on_the_free_line(self, case, theta):
        # H2 with mu^2 = 0 is the free line, with the roots ((theta + 2 pi k) / T)^2:
        # on the flat circle, and at w = 0 (T^2, p = 1) under a cone profile.
        # cos theta rounds to +-1 here; such theta once got the theta = 0 or
        # pi roots, off by up to 2.1e-9 at the closed gaps
        if case == "free-circle":
            channels, prof = enumerate_channels(CIRCLE, 0, 10.0), make_profile(1.0, 2.0, 1.0)
            lam_max = 10.0
        else:
            channels, prof, lam_max = TORUS_P1, STD, 8.0
        ch = next(c for c in channels if c.kind == "H2")
        assert ch.mu2 == 0
        got = floquet_eigenvalues(ch, theta, prof, lam_max)
        want = free_circle_eigs(prof.T, theta, lam_max)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_a_band_cut_just_above_its_root(self):
        # free circle of length 2 pi, H4 mu^2 = 16: the double periodic
        # eigenvalue 16 + 2^2 = lam_max is missed by the scan, so the last
        # band is cut at 20; at theta = 1e-9 it holds the root 20 - 6.4e-10
        circle = build_flat_torus_spectrum([2 * math.pi], 20)
        ch = next(c for c in enumerate_channels(circle, 0, 20.0)
                  if c.kind == "H4" and c.mu2 == 16)
        got = floquet_eigenvalues(ch, 1e-9, make_profile(1.0, 0.0, 2 * math.pi), 20.0)
        want = free_circle_eigs(2 * math.pi, 1e-9, 20.0, mass2=16.0)
        assert len(got) == len(want) == 4
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a zero exactly at lam_max is kept only when the scan samples it "
                              "as exactly 0 (CHANGES.md FOUND: a zero of b, c, a or d exactly "
                              "at lam_max; ROADMAP direction 1, absolute root counts)")
    def test_a_double_root_at_lam_max_is_kept(self):
        # free circle of length 2 pi, H4 mu^2 = 16: the theta = 0 roots
        # below 20 are 16 + k^2 for k = 0, +-1, +-2
        circle = build_flat_torus_spectrum([2 * math.pi], 20)
        ch = next(c for c in enumerate_channels(circle, 0, 20.0)
                  if c.kind == "H4" and c.mu2 == 16)
        got = floquet_eigenvalues(ch, 0.0, make_profile(1.0, 0.0, 2 * math.pi), 20.0)
        np.testing.assert_allclose(got, [16.0, 17.0, 17.0, 20.0, 20.0], rtol=0.0, atol=1e-10)

    def test_lower_bound_guard_trips(self, monkeypatch):
        # gamma = 0.5 is too small a cone potential for mu^2 = 5 (H4 of the
        # circle at p = 0 has gamma = sqrt(5.25) - 1/2): the root near 4.33
        # lies below the bound lambda >= mu^2
        monkeypatch.setattr(radial, "tip_exponent", lambda mu2, w: 0.5)
        prof = make_profile(0.2, 1.0, 0.8)
        bogus = Channel(kind="H4", n=1, p=0, mu2=Fraction(5), mult=1)
        with pytest.raises(NumericalError, match="lower bound 5.0"):
            floquet_eigenvalues(bogus, 0.9, prof, 10.0)
        with pytest.raises(NumericalError, match="lower bound 5.0"):
            band_edges(bogus, prof, 10.0)


# ---------------------------------------------------------------------------
# grid walk and batched polish


def roots_on_grid_loop(F):
    """Reference grid walk: row by row and sample by sample, the nodes
    where F is zero (of either sign) and the cells whose two ends are
    nonzero of opposite signs, as sorted (row, index) pairs."""
    nodes, cells = [], []
    for j in range(F.shape[0]):
        for i in range(F.shape[1]):
            if F[j, i] == 0.0:
                nodes.append((j, i))
            elif i + 1 < F.shape[1] and F[j, i + 1] != 0.0 and (F[j, i] < 0) != (F[j, i + 1] < 0):
                cells.append((j, i))
    return sorted(nodes), sorted(cells)


def assert_walks_agree(F):
    nodes, cells = radial._roots_on_grid(F)
    ref_nodes, ref_cells = roots_on_grid_loop(F)
    assert sorted(zip(*(v.tolist() for v in nodes))) == ref_nodes
    assert sorted(zip(*(v.tolist() for v in cells))) == ref_cells


TORUS_P1 = enumerate_channels(TORUS_P1_SPECTRUM, 1, 8.0)
H5_P1 = next(ch for ch in TORUS_P1 if ch.kind == "H5")


class TestPartnerWeights:
    # _bands solves a channel's distinct weights as the rows k of one map,
    # whose jumps at the cylinder are the weights w themselves
    def test_torus_channels_map_to_their_weights(self):
        # T^2 at p = 1: nu = 1 and w_alpha = 0, so an H5 pair's partners H4
        # of degree 0 (w = -1) and H3 of degree 2 (w = 0) are two weights
        assert {ch.kind for ch in TORUS_P1} == {"H1", "H2", "H4", "H5"}
        prof = make_profile(0.2, 1.0, 0.8)
        for ch in TORUS_P1:
            half, bands = radial._bands(ch, prof, 8.0)
            weights = half.jumps[1][:, 0].tolist()
            if ch.kind == "H5":
                h4, h3 = scalar_parts(ch)
                assert weights == [h4[1], h3[1]]
                assert weights == [-1, 0]
                assert h4[0] == h3[0] == ch.mu2
            else:
                assert weights == [key(ch)[1]]
            assert all(0 <= k < len(weights) for k, _, _ in bands)

    def test_equal_partners_are_one_weight_twice(self):
        # the circle at p = 1 is the middle degree: both partners have
        # w = -1/2, so every pair is one problem (mu^2, -1/2) whose bands
        # are listed twice
        pairs = [ch for ch in enumerate_channels(CIRCLE, 1, 10.0) if ch.kind == "H5"]
        assert len(pairs) == 3
        prof = make_profile(0.2, 1.0, 0.8)
        listed = []
        for ch in pairs:
            assert set(scalar_parts(ch)) == {(ch.mu2, Fraction(-1, 2))}
            half, bands = radial._bands(ch, prof, 10.0)
            assert half.jumps[1][:, 0].tolist() == [-0.5]
            single = radial._bands(part_channels(ch)[0], prof, 10.0)[1]
            assert bands == single + single
            listed.append(len(single))
        assert min(listed[:2]) > 0, listed


class TestGridWalk:
    @pytest.mark.parametrize("params", [(0.2, 1.0, 0.8), (0.21, 1.05, 0.84), (0.19, 0.95, 0.76)])
    @pytest.mark.parametrize("census,lam_max", [(TORUS_P1, 8.0), (CIRCLE_HIGH, 400.0)],
                             ids=["torus-p1", "circle-high"])
    def test_census_walk_is_the_loop(self, census, lam_max, params):
        prof = make_profile(*params)
        grid = np.linspace(0.0, lam_max, SCAN_STEPS + 1)
        for ch in census:
            weights = partner_weights(ch)
            A = radial._HalfPeriod(ch.mu2, weights, prof, lam_max)(grid)[0]
            assert_walks_agree(A.reshape(4 * len(weights), -1))

    @pytest.mark.parametrize("mu2,weights,lam_max", [
        *((ch.mu2, partner_weights(ch), 400.0) for ch in CIRCLE_HIGH),
        *((mu2, (w,), 8.0) for mu2, w in scalar_parts(H5_P1)[:1]),
        (H5_P1.mu2, partner_weights(H5_P1), 8.0),
    ], ids=[f"circle-high-{ch.kind}-{ch.mu2}" for ch in CIRCLE_HIGH]
        + ["torus-p1-H5-partner", "torus-p1-H5-pair"])
    def test_scan_is_elementwise(self, mu2, weights, lam_max):
        # the polish reuses the scanned values at bracket ends and evaluates
        # its open brackets in batches of any size and order, so a point's
        # value must not depend on the rest of the array: not on where the
        # array is split, nor on the order of its points
        half = radial._HalfPeriod(mu2, weights, make_profile(0.2, 1.0, 0.8), lam_max)
        grid = np.linspace(0.0, lam_max, SCAN_STEPS + 1)
        A, logs = half(grid)
        for k in (1, 777, SCAN_STEPS):
            (A0, logs0), (A1, logs1) = half(grid[:k]), half(grid[k:])
            assert np.array_equal(np.concatenate((A0, A1), axis=-1), A), k
            assert np.array_equal(np.concatenate((logs0, logs1), axis=-1), logs), k
        perm = np.random.default_rng(23).permutation(grid.size)
        A_perm, logs_perm = half(grid[perm])
        inverse = np.argsort(perm)
        assert np.array_equal(A_perm[..., inverse], A)
        assert np.array_equal(logs_perm[..., inverse], logs)

    @pytest.mark.parametrize("Fs", [
        # zeros of both signs at both ends and inside, crossing cells,
        # touching zeros, tiny values
        [0.0, 1e-4, 0.5, 0.2, 0.3, -0.2, -0.0, 0.0, -0.3, -0.1, -0.4, 1e-5, 0.2, -1e-4],
        [-0.0, 0.4, -0.0, 0.4, 0.3, 0.5, -0.0],  # one-sample zeros at both ends
        [1e-4, -0.0, 0.0, -1e-5],  # a run of zeros
        [1e-300, -1e-300, 0.3, 0.2, -0.1, -0.1, -0.2],  # products that underflow
    ])
    def test_synthetic_walk_is_the_loop(self, Fs):
        assert_walks_agree(np.array(Fs)[None, :])

    def test_random_walk_is_the_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            F = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-200, 1, size=(40, 4))
            F[rng.random((40, 4)) < 0.1] = 0.0
            F[rng.random((40, 4)) < 0.1] = -0.0
            assert_walks_agree(F.T)


class TestPolish:
    def test_bracket_without_sign_change_raises(self):
        # a genuine bracket of the entry a from the grid, and one without a
        # sign change: the solve must refuse, not return
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H2")
        prof = make_profile(0.2, 1.0, 0.8)
        half = single_map(*key(ch), prof, 10.0)

        def F(x, k):
            return half(x)[0][0, 0]

        grid = np.linspace(0.0, 10.0, 51)
        a = F(grid, None)
        i = np.flatnonzero(np.sign(a[:-1]) * np.sign(a[1:]) < 0)[0]
        lo, hi = np.array([grid[i], 0.0]), np.array([grid[i + 1], 0.2])
        f_lo, f_hi = F(lo, None), F(hi, None)
        assert f_lo[0] * f_hi[0] < 0 < f_lo[1] * f_hi[1]
        x = radial._polish(F, lo[:1], hi[:1], f_lo[:1], f_hi[:1])[0]
        assert min(abs(x - r) for r in floquet_eigenvalues(ch, math.pi, prof, 10.0)) <= 1e-9
        with pytest.raises(NumericalError, match=r"no sign change on the bracket \[0\.0, 0\.2\]"):
            radial._polish(F, lo, hi, f_lo, f_hi)

    def test_two_crossings_in_one_cell(self):
        # circle-high at seed 0: the H2 antiperiodic gap (69.616, 69.743) is
        # narrower than the 0.2 grid step and lies inside the cell
        # [69.6, 69.8]; its edges are zeros of two entries, a and d
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H2")
        prof = make_profile(0.2, 1.0, 0.8)
        got = [x for x in floquet_eigenvalues(ch, math.pi, prof, 400.0) if 69.6 < x < 69.8]
        want = [x for x in oracle_eigenvalues(ch, math.pi, prof, 71.0, N=2000) if 69.6 < x < 69.8]
        assert len(got) == len(want) == 2
        assert got[1] - got[0] < 400.0 / SCAN_STEPS
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)

    def test_shallow_dip_pair_is_found(self):
        # circle-high at seed 5, H4 mu^2 = 9: the antiperiodic pair near 250.08
        # and 250.11 leaves grid samples of 3.6e-4 and 4.1e-4 around a dip
        # whose parabolic vertex (1.2e-4) looks shallow; the dip must still
        # be minimised, and it crosses zero
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H4" and float(c.mu2) == 9.0)
        prof = make_profile(0.20245803389779404, 1.024178698926073, 0.8236154852452557)
        got = [x for x in floquet_eigenvalues(ch, math.pi, prof, 400.0) if 249.0 < x < 251.0]
        want = [x for x in oracle_eigenvalues(ch, math.pi, prof, 252.0, N=4000)
                if 249.0 < x < 251.0]
        assert len(got) == len(want) == 2
        np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-6)


class Recorder:
    """F(x, k) = fn(x) - y[k] for the synthetic polish, recording the
    points of every evaluation."""

    def __init__(self, fn, y):
        self.fn, self.y = fn, y
        self.calls: list[np.ndarray] = []

    def __call__(self, x, k):
        self.calls.append(x)
        return self.fn(x) - self.y[k]


def closes_within_tol(x, root):
    return abs(x - root) <= radial.ROOT_TOL + 4.0 * np.finfo(float).eps * abs(root)


class TestSyntheticPolish:
    # F = lam^3 - y on every bracket: the root of bracket k is cbrt(y[k])
    def test_mixed_widths_and_exact_ends(self):
        lo = np.array([1.0, 0.5, 2.0, 1.0, 3.0, 1.2])
        hi = np.array([3.0, 3.5, 3.0, 1.5, 3.0 + 1e-3, 1.2 + 4e-11])
        y = np.array([8.0, 5.0, 8.0, 3.0, 27.001, 1.2**3])
        F = Recorder(lambda x: x**3, y)
        x = radial._polish(F, lo, hi, lo**3 - y, hi**3 - y)
        assert x[2] == 2.0  # F(lo) == 0: closed before any evaluation
        assert x[5] == 1.2  # narrower than the tolerance from the start
        for k in (0, 1, 3, 4):
            assert closes_within_tol(x[k], np.cbrt(y[k])), k
        # the given end values are used, not recomputed: the first step
        # evaluates, per open bracket, one midpoint and its two closing
        # points (midpoint -/+ tol/2, tol = ROOT_TOL + 4 eps |x|) and nothing
        # else
        mid = (lo + 0.5 * (hi - lo))[[0, 1, 3, 4]]
        assert F.calls[0][:4].tolist() == mid.tolist()
        np.testing.assert_allclose(F.calls[0][4:], np.concatenate(
            (mid - 0.5 * radial.ROOT_TOL, mid + 0.5 * radial.ROOT_TOL)), rtol=0.0, atol=1e-14)
        # [1, 3] for y = 8 hits its root with that bisection and closes
        assert x[0] == 2.0
        # later steps evaluate only the brackets still open, three points each
        assert all(len(c) <= 9 for c in F.calls[1:]) and len(F.calls) > 3

    def test_nan_inside_a_bracket_names_it(self):
        # the first bisection of the second bracket lands in the NaN window
        lo, hi, y = np.array([1.0, 5.0]), np.array([1.5, 6.0]), np.array([2.0, 5.3**3])
        F = Recorder(lambda x: np.where(np.abs(x - 5.5) < 0.1, np.nan, x**3), y)
        with pytest.raises(NumericalError, match=r"NaN F on the bracket \[5\.0, 6\.0\]"):
            radial._polish(F, lo, hi, lo**3 - y, hi**3 - y)

    def test_a_bracket_open_after_the_step_cap_is_refused(self, monkeypatch):
        # one step bisects [1, 3] to [1, 2], still wider than ROOT_TOL
        lo, hi, y = np.array([1.0]), np.array([3.0]), np.array([5.0])
        F = Recorder(lambda x: x**3, y)
        assert closes_within_tol(radial._polish(F, lo, hi, lo**3 - y, hi**3 - y)[0], np.cbrt(5.0))
        monkeypatch.setattr(radial, "POLISH_STEPS", 1)
        with pytest.raises(NumericalError,
                           match=r"root polish is still open after 1 steps on the bracket "
                                 r"\[1\.0, 3\.0\]"):
            radial._polish(F, lo, hi, lo**3 - y, hi**3 - y)

    def test_noise_band_closes_in_fewer_steps_than_bisection(self):
        # F = lam^3 - y + 1e-9 noise(lam), the noise a hash of lam's bits:
        # where |lam^3 - y| <= 5e-10 its sign is random from one float to
        # the next, as the half-period map's sign is in its rounding band.
        # Small roots make that band hundreds of ROOT_TOL wide.
        def noise(x):
            bits = np.asarray(x, dtype=float).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            return (bits >> np.uint64(11)).astype(float) / 2.0**53 - 0.5

        y = np.array([0.05, 0.07, 0.1, 0.12]) ** 3
        lo, hi = np.array([0.0, 0.06, 0.05, 0.1]), np.array([0.1, 0.2, 0.3, 0.125])

        def value(x, k):
            return x**3 - y[k] + 1e-9 * noise(x)

        calls = []
        x = radial._polish(lambda x, k: calls.append((x, k)) or value(x, k),
                           lo, hi, value(lo, np.arange(4)), value(hi, np.arange(4)))
        tol = radial.ROOT_TOL
        for k in range(4):
            # a sign change of F within tol of the returned root
            near = value(x[k] + tol * np.linspace(-1.0, 1.0, 401), np.full(401, k))
            assert near.min() <= 0.0 <= near.max(), k
        # the iterates (each call's first point per bracket) inside the noise
        # band: fewer than the bisections that cross it down to ROOT_TOL
        band_lo, band_hi = np.cbrt(y - 5e-10), np.cbrt(y + 5e-10)
        assert np.all(band_hi - band_lo > 200.0 * tol)
        inside = np.zeros(4, dtype=int)
        for points, k in calls:
            first = np.unique(k, return_index=True)[1]
            xs, ks = points[first], k[first]
            np.add.at(inside, ks, (band_lo[ks] <= xs) & (xs <= band_hi[ks]))
        assert np.all(inside < np.log2((band_hi - band_lo) / tol)), inside


class TestSeededPolish:
    # _bands hands _polish each cell's scanned outer neighbour as the third
    # point of its first step, except in cell 0, which has none, and next
    # to the mu^2 = 0 node lambda = 0 of c, whose value is pinned to 0
    def test_polish_evaluations_per_census_pass(self, monkeypatch):
        # the half-period map calls beyond the one scan per channel, seed 0;
        # the counts are exact, not timings (76 and 32 before the closing
        # points and the seeded first step)
        call, sizes = radial._HalfPeriod.__call__, []
        monkeypatch.setattr(radial._HalfPeriod, "__call__",
                            lambda half, lam: sizes.append(np.size(lam)) or call(half, lam))
        for census, lam_max, bound in ((CIRCLE_HIGH, 400.0, 45), (TORUS_P1, 8.0, 24)):
            sizes.clear()
            for ch in census:
                band_edges(ch, STD, lam_max)
            assert sizes.count(SCAN_STEPS + 1) == len(census)
            assert len(sizes) - len(census) <= bound, (lam_max, len(sizes) - len(census))

    @pytest.mark.parametrize("case,lam_max,steps", [
        ("torus-p1 H1", 8.0, 3), ("torus-p1 H2", 8.0, 3), ("circle-high H2", 100.0, 40)])
    def test_no_seed_in_cell_0_nor_from_the_pinned_node(self, monkeypatch, case, lam_max, steps):
        # a coarse grid puts c's first nonzero zero in cell 1, next to the
        # pinned node, and a zero of a or d in cell 0
        ch = {"torus-p1 H1": TORUS_P1[0], "torus-p1 H2": TORUS_P1[1],
              "circle-high H2": CIRCLE_HIGH[0]}[case]
        assert ch.mu2 == 0 and ch.kind == case[-2:]
        fine = band_edges(ch, STD, lam_max).bands
        seen, polish = [], radial._polish

        def spy(F, *args):
            calls = []
            seen.append((calls, *args))
            return polish(lambda x, k: calls.append((x, k)) or F(x, k), *args)

        monkeypatch.setattr(radial, "_polish", spy)
        monkeypatch.setattr(radial, "SCAN_STEPS", steps)
        coarse = band_edges(ch, STD, lam_max).bands
        (calls, lo, hi, f_lo, f_hi, x3, f3), = seen
        grid = np.linspace(0.0, lam_max, steps + 1)
        cell = np.searchsorted(grid, lo)
        assert np.array_equal(grid[cell], lo) and np.array_equal(grid[cell + 1], hi)
        # seeded from the scanned outer neighbour, none in cell 0 ...
        assert np.array_equal(x3[cell > 0], grid[cell[cell > 0] - 1])
        assert np.all(np.isnan(x3[cell == 0]) & np.isnan(f3[cell == 0]))
        # ... and none from the pinned value: c's bracket in cell 1 has none,
        # a, b and d's there have their sample at lambda = 0
        assert np.isnan(f3[cell == 1]).sum() == 1 and not np.any(f3 == 0.0)
        assert np.all(np.isfinite(f3[cell > 1]))
        # a bracket in cell 0 bisects first
        points, k = calls[0]
        first = dict(zip(k.tolist()[::-1], points.tolist()[::-1]))
        zero = np.flatnonzero(cell == 0)
        assert zero.size > 0
        assert [first[j] for j in zero] == (lo + 0.5 * (hi - lo))[zero].tolist()
        assert len(coarse) == len(fine)
        np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=2.0 * radial.ROOT_TOL)
        if case.startswith("torus"):
            # the edges before the seeded step and the closing points
            want = {"H1": [(0.0, 0.08411931313872553), (3.3702990006933478, 4.297824701005322),
                           (5.466100434659014, 7.168585758656276)],
                    "H2": [(0.0, 0.8537720070146504), (0.8537720070146504, 3.4150880280586016),
                           (3.4150880280586016, 7.683948063122733), (7.683948063122733, 8.0)]}
            np.testing.assert_allclose(fine, want[ch.kind], rtol=0.0, atol=2.0 * radial.ROOT_TOL)


@pytest.fixture(scope="module")
def h2_roots():
    """(zeros, mu^2, w): the zeros of a, b, c, d of the circle-high H2
    channel at seed 0 and its key, as band_edges hands them to the count
    certificate."""
    assert CIRCLE_HIGH[0].kind == "H2"
    seen, certify = [], radial._certify
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_certify", lambda roots, mu2, w, lam_max: (
            seen.append((roots, mu2, w)) or certify(roots, mu2, w, lam_max)))
        band_edges(CIRCLE_HIGH[0], make_profile(0.2, 1.0, 0.8), 400.0)
    assert len(seen) == 1 and len(seen[0][0]) == 4
    return seen[0]


class TestCertificate:
    def test_census_zeros_interlace(self, h2_roots):
        roots, mu2, w = h2_roots
        assert sum(map(len, roots)) == 43
        radial._certify(roots, mu2, w, 400.0)

    @pytest.mark.parametrize("entry", range(4))
    @pytest.mark.parametrize("which", ["first", "middle"])
    def test_a_dropped_zero_is_refused(self, h2_roots, entry, which):
        roots, mu2, w = h2_roots
        roots = [list(col) for col in roots]
        del roots[entry][0 if which == "first" else len(roots[entry]) // 2]
        with pytest.raises(NumericalError, match=f"count certificate: .*{'abcd'[entry]}"):
            radial._certify(roots, mu2, w, 400.0)

    def test_an_invented_zero_is_refused(self, h2_roots):
        roots, mu2, w = h2_roots
        roots = [list(col) for col in roots]
        roots[1] = sorted(roots[1] + [0.5 * (roots[1][3] + roots[1][4])])
        with pytest.raises(NumericalError, match=r"the zeros of (d and b|a and b) do not alternate"):
            radial._certify(roots, mu2, w, 400.0)

    @pytest.mark.parametrize("w", [0, -1])
    def test_a_refusal_names_the_scalar_problem(self, monkeypatch, w):
        # the T^2 p = 1 pair at mu^2 = 1 has partners w = -1 and w = 0 with
        # one zero of c each below 8; dropping either once gave one message
        ch = next(c for c in TORUS_P1 if c.kind == "H5" and c.mu2 == 1)
        prof = make_profile(0.2, 1.0, 0.8)
        half = radial._bands(ch, prof, 8.0)[0]
        weights = half.jumps[1][:, 0].tolist()
        assert weights == [-1, 0]
        row = 2 * len(weights) + weights.index(w)  # entry c of weight w
        walk = radial._roots_on_grid

        def drop_c(F):
            (at, node), (of, cell) = walk(F)
            assert np.count_nonzero(of == row) == 1
            return (at, node), (of[of != row], cell[of != row])

        monkeypatch.setattr(radial, "_roots_on_grid", drop_c)
        with pytest.raises(NumericalError, match=rf"^scalar problem \(mu\^2, w\) = \(1, {w}\): "
                                                 r"count certificate: 0 zeros of c against 1 of a "
                                                 r"on \[0, 8\.0\]$"):
            band_edges(ch, prof, 8.0)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="dropping a list's top zero keeps the interlacing, so the "
                              "certificate passes (CHANGES.md FOUND: dropping a list's top "
                              "zero passes _certify; ROADMAP direction 1, absolute root counts)")
    def test_a_dropped_top_zero_is_refused(self, monkeypatch):
        # the T^2 p = 1 pair at mu^2 = 1: b of the w = 0 partner has one
        # zero below 8, at 7.82299; without it the band (7.78517, 7.82299)
        # reads as one cut at lam_max
        ch = next(c for c in TORUS_P1 if c.kind == "H5" and c.mu2 == 1)
        prof = make_profile(0.2, 1.0, 0.8)
        assert radial._bands(ch, prof, 8.0)[0].jumps[1][:, 0].tolist() == [-1, 0]
        row = 2 + 1  # entry b of the second weight, w = 0
        grid = np.linspace(0.0, 8.0, SCAN_STEPS + 1)
        walk = radial._roots_on_grid

        def drop_b(F):
            (at, node), (of, cell) = walk(F)
            top = (of == row) & (grid[cell] < 7.82299) & (7.82299 < grid[cell + 1])
            assert np.count_nonzero(of == row) == np.count_nonzero(top) == 1
            return (at, node), (of[~top], cell[~top])

        monkeypatch.setattr(radial, "_roots_on_grid", drop_b)
        with pytest.raises(NumericalError, match=r"\(mu\^2, w\) = \(1, 0\)"):
            band_edges(ch, prof, 8.0)

    def test_thin_bands_may_swap_within_the_map_accuracy(self):
        # consecutive zeros of a pair are the edges of a band; in an
        # exponentially thin band rounding may order them either way, by
        # less than the tolerance
        roots = [[1.0, 4.0], [3.5, 6.5], [0.0, 3.0, 6.0], [3.0 + 1e-12, 5.0]]
        radial._certify(roots, 0, 0, 7.0)
        roots[3][0] = 3.0 + 2e-10 + 2e-6 * 3.0
        with pytest.raises(NumericalError, match=r"^scalar problem \(mu\^2, w\) = \(0, 0\): "
                                                 r"count certificate: the zeros of c and d do "
                                                 r"not alternate"):
            radial._certify(roots, 0, 0, 7.0)


def test_a_census_loads_no_scipy():
    # the census path is numpy-only, and the oracle imports scipy.linalg on
    # its first solve, never at import
    code = """if True:
        import math, sys
        import conebands, conebands.channels, conebands.radial, conebands.oracle
        from conebands.channels import enumerate_channels
        from conebands.oracle import oracle_eigenvalues
        from conebands.radial import band_edges, floquet_eigenvalues, make_profile
        from conebands.transversal import build_flat_torus_spectrum

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

        assert not scipy_modules(), f'import: {scipy_modules()[:5]}'
        # the seed-0 torus-p1 census of the benchmark
        ts = build_flat_torus_spectrum([2 * math.pi] * 2, 8.25)
        channels = enumerate_channels(ts, 1, 8.0)
        prof = make_profile(0.2, 1.0, 0.8)
        assert {ch.kind for ch in channels} == {'H1', 'H2', 'H4', 'H5'}
        edges = [band_edges(ch, prof, 8.0) for ch in channels]
        assert sum(len(e.bands) for e in edges) > len(channels)
        assert floquet_eigenvalues(channels[0], 0.7, prof, 8.0)
        assert not scipy_modules(), f'census: {scipy_modules()[:5]}'
        assert oracle_eigenvalues(channels[0], 0.0, prof, 8.0)
        assert 'scipy.linalg' in sys.modules, 'oracle solved without scipy.linalg'
        assert 'scipy.optimize' not in sys.modules, 'oracle loaded scipy.optimize'
        assert 'scipy.sparse' not in sys.modules, 'oracle loaded scipy.sparse'
        """
    src = str(Path(radial.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# band edges


class TestBandEdges:
    def test_free_circle_touching_bands(self):
        prof = make_profile(1.0, 2.0, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        be = band_edges(ch, prof, 10.0)
        assert isinstance(be, BandEdges)
        x1 = (math.pi / 3.0) ** 2
        x2 = (2 * math.pi / 3.0) ** 2
        x3 = math.pi**2
        expect = [(0.0, x1), (x1, x2), (x2, x3), (x3, 10.0)]
        assert be.truncated
        assert len(be.bands) == len(expect)
        for (lo, hi), (elo, ehi) in zip(be.bands, expect):
            assert lo == pytest.approx(elo, abs=1e-7)
            assert hi == pytest.approx(ehi, abs=1e-7)

    def test_cone_profile_bands_are_disjoint_with_gaps(self):
        prof = make_profile(0.1, math.pi, 1.0)
        ch = next(c for c in enumerate_channels(CIRCLE, 0, 10.0) if c.kind == "H2")
        be = band_edges(ch, prof, 10.0)
        assert len(be.bands) >= 2
        for (lo, hi), (lo2, hi2) in zip(be.bands, be.bands[1:]):
            assert lo <= hi + 1e-12
            assert hi <= lo2 + 1e-12
        widths = [hi - lo for lo, hi in be.bands[:-1]]
        gaps = [lo2 - hi for (_, hi), (lo2, _) in zip(be.bands, be.bands[1:])]
        assert max(gaps) > 0.1  # narrow handle opens visible gaps
        assert all(w >= -1e-12 for w in widths)

    def test_pair_band_edges_cover_roots(self):
        prof = make_profile(0.3, 1.0, 0.8)
        ch = h5_channel()
        be = band_edges(ch, prof, 6.0)
        r0 = floquet_eigenvalues(ch, 0.0, prof, 6.0)
        r_mid = floquet_eigenvalues(ch, 1.0, prof, 6.0)
        for lam in r0 + r_mid:
            assert any(lo - 1e-6 <= lam <= hi + 1e-6 for lo, hi in be.bands)
        for lo, hi in be.bands:
            assert lo <= hi + 1e-12

    def test_identical_partners_are_scanned_once(self, monkeypatch):
        # circle at p = 1: H4 of degree 0 and H3 of degree 2 are the same
        # scalar problem, so the pair is one scan of one weight with every
        # band twice
        prof = make_profile(0.3, 1.0, 0.8)
        ch = h5_channel()
        h4, h3 = part_channels(ch)
        single = band_edges(h4, prof, 6.0)
        scans = []
        init = radial._HalfPeriod.__init__
        monkeypatch.setattr(radial._HalfPeriod, "__init__",
                            lambda half, mu2, weights, *args: scans.append((mu2, tuple(weights)))
                            or init(half, mu2, weights, *args))
        be = band_edges(ch, prof, 6.0)
        assert scans == [(h4.mu2, partner_weights(h4))]
        assert be.bands[0::2] == be.bands[1::2] == single.bands
        assert be.truncated == single.truncated
        roots = floquet_eigenvalues(ch, 0.0, prof, 6.0)
        assert scans == [(h4.mu2, partner_weights(h4))] * 2
        assert roots[0::2] == roots[1::2] == floquet_eigenvalues(h3, 0.0, prof, 6.0)

    @pytest.mark.parametrize("params", [
        (0.2, 1.0, 0.8),
        (0.19268728488224804, 1.0347433736937233, 0.8211019695181291),
        (0.209120685437785, 1.044782748705935, 0.7645241094181447),
    ], ids=["seed0", "seed1", "seed2"])
    @pytest.mark.parametrize("case", ["torus-p1", "circle-high"])
    def test_theta_0_and_pi_roots_are_the_band_edges(self, case, params):
        # both entry points read one band list: at theta = 0 and pi each band
        # holds one of its own edges, closed gaps included.  The lam_max end
        # of a cut band is no root.  Checked per scalar partner, so a cut
        # band is the last one
        channels, lam_max = (TORUS_P1, 8.0) if case == "torus-p1" else (CIRCLE_HIGH, 400.0)
        prof = make_profile(*params)
        for ch in channels:
            for part in part_channels(ch):
                be = band_edges(part, prof, lam_max)
                edges = [x for band in be.bands for x in band][:-1 if be.truncated else None]
                roots = (floquet_eigenvalues(part, 0.0, prof, lam_max)
                         + floquet_eigenvalues(part, math.pi, prof, lam_max))
                assert sorted(edges) == sorted(roots), (part.kind, part.mu2)

    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.015, 0.01, 0.005])
    def test_zero_mode_of_a_massless_channel_is_kept(self, eps):
        # H1 of the 2-torus at p = 1 (mu^2 = 0, w = 1): the form's kernel
        # rho^-w is periodic, so lambda = 0 is the bottom theta = 0
        # eigenvalue.  At eps 0.015 and 0.01 the sampled tr M - 2 at 0 lies
        # in the noise with its neighbour's sign; reading the root from that
        # sign dropped it and shifted every band by one edge
        ts = build_flat_torus_spectrum([2 * math.pi, 2 * math.pi], 12)
        ch = next(c for c in enumerate_channels(ts, 1, 12.0) if c.kind == "H1")
        prof = make_profile(eps, 1.0, 0.8)
        be = band_edges(ch, prof, 12.0)
        assert be.bands[0][0] == 0.0
        edges = [x for band in be.bands for x in band if abs(x - 12.0) > 1.2e-5]
        want = [x for theta in (0.0, math.pi)
                for x in oracle_eigenvalues(ch, theta, prof, 12.0, N=2000)
                if abs(x - 12.0) > 1.2e-5]
        assert len(edges) == len(want)
        np.testing.assert_allclose(sorted(edges), sorted(want), rtol=0.0, atol=1e-4)

    def test_pair_window_cuts_one_partner(self):
        # on the 2-torus at p = 1 the partners H4 of degree 0 and H3 of
        # degree 2 differ; lam_max = 7.2 cuts only H3's band [6.92, 7.45],
        # while H4's band [6.80, 6.96] ends below it
        ts = build_flat_torus_spectrum([2 * math.pi, 2 * math.pi], 8)
        ch = next(c for c in enumerate_channels(ts, 1, 7.2) if c.kind == "H5" and c.mu2 == 1)
        prof = make_profile(0.3, 1.0, 0.8)
        be = band_edges(ch, prof, 7.2)
        assert be.truncated
        assert [hi for _, hi in be.bands].count(7.2) == 1
        assert be.bands[-1][1] == 7.2
        edges = [x for band in be.bands for x in band][:-1]
        want = sorted(oracle_eigenvalues(ch, 0.0, prof, 7.2)
                      + oracle_eigenvalues(ch, math.pi, prof, 7.2))
        assert len(edges) == len(want) == 7
        np.testing.assert_allclose(sorted(edges), want, atol=1e-6)


class TestOneSolvePerChannel:
    # a channel is one solve: one cone table and one scan, whatever its
    # number of scalar partners, with the bands they have alone
    @pytest.mark.parametrize("n,p,lam_max", [(2, 1, 8.0), (3, 2, 6.0)])
    def test_a_pair_is_one_solve(self, monkeypatch, n, p, lam_max):
        ts = {2: TORUS_P1_SPECTRUM, 3: T3}[n]
        ch = next(c for c in enumerate_channels(ts, p, lam_max) if c.kind == "H5")
        h4, h3 = part_channels(ch)
        # T^3 at p = 2 is the middle degree: the two partners are one key
        assert (key(h4) == key(h3)) == (n == 3)
        prof = make_profile(0.2, 1.0, 0.8)
        alone = [band_edges(part, prof, lam_max) for part in (h4, h3)]
        thetas = (0.0, 0.7, math.pi)
        roots_alone = [floquet_eigenvalues(h4, theta, prof, lam_max)
                       + floquet_eigenvalues(h3, theta, prof, lam_max) for theta in thetas]
        tables, sizes = [], []
        basis, call = radial.cone_basis, radial._HalfPeriod.__call__
        monkeypatch.setattr(radial, "cone_basis",
                            lambda *args: tables.append(args) or basis(*args))
        monkeypatch.setattr(radial._HalfPeriod, "__call__",
                            lambda half, lam: sizes.append(np.size(lam)) or call(half, lam))
        be = band_edges(ch, prof, lam_max)
        assert len(tables) == 1 and sizes.count(SCAN_STEPS + 1) == 1
        merged = sorted(alone[0].bands + alone[1].bands, key=lambda band: (band[1], band[0]))
        assert repr(be) == repr(BandEdges(merged, alone[0].truncated or alone[1].truncated))
        for calls, (theta, want) in enumerate(zip(thetas, roots_alone), start=2):
            roots = floquet_eigenvalues(ch, theta, prof, lam_max)
            assert len(tables) == calls and sizes.count(SCAN_STEPS + 1) == calls
            assert repr(roots) == repr(sorted(want)), theta


# ---------------------------------------------------------------------------
# input checks of the public solvers


TORUS_P1 = enumerate_channels(build_flat_torus_spectrum([2 * math.pi] * 2, 8.25), 1, 8.0)
STD = make_profile(0.2, 1.0, 0.8)


class TestPublicInput:
    @pytest.mark.parametrize("solve", [
        lambda theta: floquet_eigenvalues(TORUS_P1[0], theta, STD, 8.0),
        lambda theta: oracle_eigenvalues(TORUS_P1[0], theta, STD, 8.0),
        lambda theta: assemble(TORUS_P1[0], theta, STD, 200),
    ], ids=["floquet_eigenvalues", "oracle_eigenvalues", "assemble"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, True, np.True_, np.False_,
                                       "0.7", pytest.param(10**400, id="10**400")])
    def test_non_finite_theta_is_refused(self, solve, theta):
        # NaN used to give the oracle's theta = 0 spectrum and a NaN error
        # from the polish, +-inf a bare math domain error; True was theta = 1,
        # and a numpy bool, which is not a bool, was theta = 1 or 0; an int
        # beyond the double range raised OverflowError
        with pytest.raises(ValueError, match=r"theta must be finite, got "
                                             r"(nan|inf|-inf|True|np\.True_|np\.False_|'0\.7'"
                                             r"|10{400})$"):
            solve(theta)

    @pytest.mark.parametrize("solve", [
        lambda lam_max: band_edges(TORUS_P1[0], STD, lam_max),
        lambda lam_max: floquet_eigenvalues(TORUS_P1[0], 0.7, STD, lam_max),
        lambda lam_max: oracle_eigenvalues(TORUS_P1[0], 0.0, STD, lam_max),
    ], ids=["band_edges", "floquet_eigenvalues", "oracle_eigenvalues"])
    @pytest.mark.parametrize("lam_max", [math.nan, math.inf, -math.inf, -1.0, True, np.True_,
                                         np.False_, "8", pytest.param(10**400, id="10**400")])
    def test_lam_max_out_of_range_is_refused(self, solve, lam_max):
        # True was lam_max = 1, a numpy bool lam_max = 1 or 0, float() read
        # the string "8" as 8.0, and 10**400 raised OverflowError
        with pytest.raises(ValueError, match=r"lam_max must be finite and >= 0"):
            solve(lam_max)

    @pytest.mark.parametrize("kind", ["H1", "H2", "H4", "H5"])
    def test_lam_max_zero_keeps_only_the_zero_mode(self, kind):
        # the mu^2 = 0 channels have their kernel at lambda = 0; the free
        # line H2 (w = 0) once counted it at every node of a grid that was
        # 2001 copies of 0 and failed the count certificate
        ch = next(c for c in TORUS_P1 if c.kind == kind)
        massless = ch.mu2 == 0
        assert band_edges(ch, STD, 0.0) == BandEdges([(0.0, 0.0)] if massless else [], massless)
        assert floquet_eigenvalues(ch, 0.0, STD, 0.0) == ([0.0] if massless else [])
        assert floquet_eigenvalues(ch, math.pi, STD, 0.0) == []
        assert floquet_eigenvalues(ch, 0.7, STD, 0.0) == []
        # the oracle's zero mode is 0 to rounding, kept only when it falls
        # on the low side
        assert all(abs(x) < 1e-9 for x in oracle_eigenvalues(ch, 0.0, STD, 0.0))
