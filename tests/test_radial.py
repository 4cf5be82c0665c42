"""Radial machinery: profile, cone basis, propagators, monodromy, Floquet.

The cone series is checked against closed Bessel forms,
    f_gamma(t) = Gamma(nu+1) (2/sqrt(lam))^nu sqrt(t) J_nu(sqrt(lam) t)
    g_gamma(t) = Gamma(1-nu) (sqrt(lam)/2)^nu sqrt(t) J_{-nu}(sqrt(lam) t)
with nu = gamma + 1/2 (non-resonant gamma), and monodromies against a
direct Runge-Kutta integration of the global-frame system.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma as gamma_fn
from scipy.special import jv

from conebands import radial
from conebands.channels import Channel, enumerate_channels, pair_partners
from conebands.oracle import oracle_eigenvalues
from conebands.radial import (
    SCAN_STEPS,
    BandEdges,
    NumericalError,
    band_edges,
    cone_basis,
    floquet_eigenvalues,
    make_profile,
)
from conebands.transversal import build_flat_torus_spectrum

CIRCLE = build_flat_torus_spectrum([2 * math.pi], 11)
# the circle-high benchmark census: circle of length 2 pi / 3 at p = 0 up to
# lambda = 400, with mu^2 = 9 k^2 and cone exponents gamma = 3k - 1/2
CIRCLE_HIGH = enumerate_channels(build_flat_torus_spectrum([2 * math.pi / 3], 400.0), 0, 400.0)


# ---------------------------------------------------------------------------
# profile


class TestMakeProfile:
    def test_standard_layout(self):
        prof = make_profile(0.2, math.pi, 1.0)
        assert prof.T == pytest.approx(math.pi + 2 * 0.8 + 1.0, abs=1e-14)
        kinds = [s.kind for s in prof.segments]
        assert kinds == ["cylinder", "cone_down", "handle", "cone_up", "cylinder"]
        assert prof.rho(0.0) == pytest.approx(1.0)
        assert prof.rho(prof.T) == pytest.approx(1.0)
        # handle midpoint sits at depth eps
        mid = 0.5 + 0.8 + 0.5 * math.pi
        assert prof.rho(mid) == pytest.approx(0.2, abs=1e-14)
        assert prof.rho_prime(mid) == 0.0
        assert prof.rho_prime(0.7) == -1.0  # inside the descending cone

    def test_no_outer_cylinder_cuts_at_cone_junction(self):
        prof = make_profile(0.3, 1.5, 0.0)
        kinds = [s.kind for s in prof.segments]
        assert kinds == ["cone_down", "handle", "cone_up"]
        assert prof.rho(0.0) == pytest.approx(1.0)
        assert prof.segments[0].slope_in == -1.0
        assert prof.segments[-1].slope_out == 1.0

    def test_flat_circle(self):
        prof = make_profile(1.0, 2.0, 1.0)
        assert prof.T == pytest.approx(3.0)
        assert all(s.slope_in == 0.0 for s in prof.segments)
        assert prof.rho(1.7) == pytest.approx(1.0)

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

    def test_eta_needs_room(self):
        with pytest.raises(ValueError):
            make_profile(0.5, 0.0, 1.0, eta=0.02)
        with pytest.raises(ValueError):
            make_profile(0.5, 1.0, 0.0, eta=0.02)
        # no corners at eps = 1, so eta is harmless there
        make_profile(1.0, 1.0, 0.0, eta=0.02)

    def test_smoothed_profile_is_c1_and_close(self):
        eps, eta = 0.2, 0.02
        sharp = make_profile(eps, 1.0, 0.8)
        smooth = make_profile(eps, 1.0, 0.8, eta=eta)
        assert smooth.rho(0.0) == pytest.approx(1.0, abs=1e-12)
        corners = [s for s in smooth.segments if s.kind == "corner"]
        assert len(corners) == 4
        for seg in corners:
            for edge, kick in ((seg.tau0, -1e-9), (seg.tau1, +1e-9)):
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
    def test_array_radius_matches_segment_scan(self, eta):
        # reference: the first segment within 1e-12 of each point, one by one
        prof = make_profile(0.2, 1.0, 0.8, eta=eta)
        taus = np.concatenate([np.linspace(0.0, prof.T, 997),
                               [s.tau0 for s in prof.segments],
                               [s.tau1 for s in prof.segments]])
        segs = [next(s for s in prof.segments if s.tau0 - 1e-12 <= t % prof.T <= s.tau1 + 1e-12)
                for t in taus]
        want = [s.rho(t % prof.T) for s, t in zip(segs, taus)]
        np.testing.assert_array_equal(prof.rho(taus), want)
        want = [s.rho_prime(t % prof.T) for s, t in zip(segs, taus)]
        np.testing.assert_array_equal(prof.rho_prime(taus), want)


# ---------------------------------------------------------------------------
# flat segments


def flat(mass2, lam, ell):
    """One point of the batched flat-piece propagators, unscaled."""
    P, logs = radial._flat_propagators(mass2, np.array([float(lam)]), ell)
    return P[0] * math.exp(logs[0])


class TestSegmentPropagator:
    def test_free_segment(self):
        np.testing.assert_allclose(
            flat(0.0, 0.0, 2.5), [[1.0, 2.5], [0.0, 1.0]], atol=1e-15
        )

    def test_hyperbolic_anchor(self):
        P = flat(1.0, 0.0, 1.0)
        c, s = math.cosh(1.0), math.sinh(1.0)
        np.testing.assert_allclose(P, [[c, s], [s, c]], rtol=1e-14)

    def test_scaled_hyperbolic_anchor(self):
        # kappa ell = 40 > 30 takes the log-scaled branch
        kappa, ell = 4.0, 10.0
        P, logs = radial._flat_propagators(kappa**2 + 2.0, np.array([2.0]), ell)
        c, s = math.cosh(kappa * ell), math.sinh(kappa * ell)
        want = np.array([[c, s / kappa], [kappa * s, c]]) * math.exp(-logs[0])
        np.testing.assert_allclose(P[0], want, rtol=1e-14)
        assert logs[0] == pytest.approx(kappa * ell - math.log(2.0), rel=1e-15)

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


# ---------------------------------------------------------------------------
# cone basis


def bessel_f(gamma, lam, t):
    nu = gamma + 0.5
    return gamma_fn(nu + 1) * (2 / math.sqrt(lam)) ** nu * math.sqrt(t) * jv(nu, math.sqrt(lam) * t)


def bessel_g(gamma, lam, t):
    nu = gamma + 0.5
    return gamma_fn(1 - nu) * (math.sqrt(lam) / 2) ** nu * math.sqrt(t) * jv(-nu, math.sqrt(lam) * t)


def basis_at(table, lam, t):
    """(f, f', g, g') of a cone table's fundamental pair at one (lam, t)."""
    S = table.state(np.array([lam]), (t,))[0, 0]
    return S[0, 0], S[1, 0], S[0, 1], S[1, 1]


class TestConeBasis:
    def test_lambda_zero_closed_forms(self):
        b = cone_basis(0.7, 0.0)
        for t in (0.1, 0.45, 1.0):
            f, df, g, dg = basis_at(b, 0.0, t)
            assert f == pytest.approx(t**1.7, rel=1e-14)
            assert df == pytest.approx(1.7 * t**0.7, rel=1e-14)
            assert g == pytest.approx(t**-0.7, rel=1e-14)
            assert dg == pytest.approx(-0.7 * t**-1.7, rel=1e-14)
        assert not b.is_log
        assert b.wronskian == pytest.approx(-2.4)

    def test_half_bound_state_log_at_lambda_zero(self):
        b = cone_basis(-0.5, 0.0)
        assert b.is_log
        for t in (0.2, 0.8):
            f, _, g, _ = basis_at(b, 0.0, t)
            assert f == pytest.approx(math.sqrt(t), rel=1e-14)
            assert g == pytest.approx(math.sqrt(t) * (1 + math.log(t)), rel=1e-13)
        assert b.wronskian == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("lam", [2.5, 9.0])
    def test_bessel_oracle(self, gamma, lam):
        b = cone_basis(gamma, 9.0)  # one table serves both lam
        assert not b.is_log
        for t in (0.3, 0.9):
            f, _, g, _ = basis_at(b, lam, t)
            assert f == pytest.approx(bessel_f(gamma, lam, t), rel=1e-11)
            assert g == pytest.approx(bessel_g(gamma, lam, t), rel=1e-11)
        h = 1e-6
        for t in (0.5,):
            _, df, _, dg = basis_at(b, lam, t)
            fd = (bessel_f(gamma, lam, t + h) - bessel_f(gamma, lam, t - h)) / (2 * h)
            assert df == pytest.approx(fd, rel=1e-8)
            gd = (bessel_g(gamma, lam, t + h) - bessel_g(gamma, lam, t - h)) / (2 * h)
            assert dg == pytest.approx(gd, rel=1e-8)

    @pytest.mark.parametrize("gamma,lam", [(0.5, 3.0), (1.5, 2.5), (-0.5, 3.0), (2.5, 7.0)])
    def test_log_branch_solves_ode(self, gamma, lam):
        b = cone_basis(gamma, lam)
        assert b.is_log
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

    def test_near_half_integer_snaps(self):
        exact = cone_basis(0.5, 4.0)
        near = cone_basis(0.5 + 3e-10, 4.0)
        assert near.is_log
        for t in (0.2, 0.9):
            assert basis_at(near, 4.0, t)[2] == pytest.approx(basis_at(exact, 4.0, t)[2],
                                                              rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.3, 2.5])
    def test_window_table_matches_point_tables(self, gamma):
        # the lam = 400 scan table evaluated at small lam agrees with the
        # table truncated for that lam alone
        wide = cone_basis(gamma, 400.0)
        lams = np.array([0.0, 0.7, 3.1, 9.0])
        S_wide = wide.state(lams, (0.2, 1.0))
        for k, lam in enumerate(lams):
            S_one = cone_basis(gamma, lam).state(np.array([lam]), (0.2, 1.0))[:, 0]
            np.testing.assert_allclose(S_wide[:, k], S_one, rtol=1e-12, atol=0)

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
        with pytest.raises(ValueError):
            cone_basis(0.5, -1.0)
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


# ---------------------------------------------------------------------------
# cone propagator


def h5_channel(eps_section=CIRCLE, p=1, mu2=1):
    chans = enumerate_channels(eps_section, p, 10.0)
    return next(c for c in chans if c.kind == "H5" and float(c.mu2) == mu2)


def cone_transfer(channel, lam, t0, t1):
    """Transfer matrix of a scalar channel across the ascending cone from
    radius t0 to t1, state (sigma, dsigma/dt), from a table cut at lam t1^2."""
    table = cone_basis(channel.gammas[0], abs(lam) * t1 * t1)
    S = table.state(np.array([float(lam)]), (t0, t1))
    return radial._transfer(S[0], S[1], table.wronskian)[0]


def rk_cone_propagator(channel, lam, t0, t1):
    """Independent cone transfer matrix: Runge-Kutta on
    -u'' + c/t^2 u = lam u from t0 to t1, c = gamma (gamma + 1)."""
    g = channel.gammas[0]
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
    segment of the global second-order equation plus explicit derivative
    jumps at slope breaks."""
    g = channel.gammas[0]
    c = g * (g + 1.0)
    w = float(channel.interface_weights[0])
    M = np.eye(2)
    segs = profile.segments
    for i, seg in enumerate(segs):
        V = float(channel.mu2) if seg.kind in ("cylinder", "handle") else c

        def rhs(tau, y, V=V, seg=seg):
            return [y[1], (V / seg.rho(tau) ** 2 - lam) * y[0]]

        cols = []
        for y0 in ([1.0, 0.0], [0.0, 1.0]):
            sol = solve_ivp(rhs, (seg.tau0, seg.tau1), y0, rtol=1e-12, atol=1e-13)
            assert sol.success
            cols.append(sol.y[:, -1])
        M = np.column_stack(cols) @ M
        nxt = segs[(i + 1) % len(segs)]
        dslope = seg.slope_out - nxt.slope_in
        if dslope != 0.0:
            M = np.array([[1.0, 0.0], [dslope / seg.rho(seg.tau1) * w, 1.0]]) @ M
    return M


def monodromy(channel, lam, profile):
    """Scaled monodromy (M, logscale) at one lam, the true one being
    M exp(logscale): a length-one call of the batched evaluation, from a
    table cut at |lam|."""
    M, logs = radial._PeriodMap(channel, profile, abs(lam))(np.array([float(lam)]))
    return M[0], float(logs[0])


def dense_monodromy(channel, lam, profile):
    M, logscale = monodromy(channel, lam, profile)
    return M * math.exp(logscale)


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

    def test_refuses_pairs(self):
        with pytest.raises(ValueError, match="pair_partners"):
            monodromy(h5_channel(), 1.0, make_profile(0.3, 1.0, 0.8))

    @pytest.mark.parametrize("p,l_out", [(0, 0.8), (0, 0.0), (1, 0.8)])
    def test_batched_trace_matches_one_point(self, p, l_out):
        # the scan's table is truncated for lam_max, a one-point monodromy's
        # for its own lam; up to 50 the traces agree to 1e-12 of the scale
        prof = make_profile(0.3, 1.0, l_out)
        grid = np.linspace(0.0, 50.0, 101)
        for ch in enumerate_channels(build_flat_torus_spectrum([2 * math.pi], 50.0), p, 50.0):
            if ch.kind == "H5":
                continue
            tr, logs = radial._PeriodMap(ch, prof, 50.0).trace(grid)
            for lam, t_b, s_b in zip(grid, tr, logs):
                M, logscale = monodromy(ch, lam, prof)
                t_1 = np.trace(M) * math.exp(logscale)
                assert abs(t_b * math.exp(s_b) - t_1) <= 1e-12 * max(1.0, math.exp(logscale))

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
        period = radial._PeriodMap(ch, make_profile(0.2, 1.0, 0.8), 400.0)
        grid = np.linspace(0.0, 400.0, SCAN_STEPS + 1)
        tr, logs = period.trace(grid)
        for k, lam in enumerate(grid):
            tr1, logs1 = period.trace(np.array([float(lam)]))
            assert tr1[0] == tr[k] and logs1[0] == logs[k], lam

    @pytest.mark.parametrize("eps", [0.19, 0.2, 0.21])
    def test_circle_high_scan_stays_inside_the_guard(self, eps):
        # the benchmark's eps range (+-5%) at lam_max 400: no Wronskian refusal
        assert len(CIRCLE_HIGH) == 7
        grid = np.linspace(0.0, 400.0, SCAN_STEPS + 1)
        for ch in CIRCLE_HIGH:
            radial._PeriodMap(ch, make_profile(eps, 1.0, 0.8), 400.0).trace(grid)


# ---------------------------------------------------------------------------
# Floquet eigenvalues


def free_circle_eigs(T, theta, lam_max, mass2=0.0):
    out = []
    k = 0
    while True:
        grew = False
        for sgn in ((1,) if k == 0 else (1, -1)):
            lam = mass2 + ((theta + 2 * math.pi * sgn * k) / T) ** 2
            if lam <= lam_max:
                out.append(lam)
                grew = True
        if not grew and k > 0:
            break
        k += 1
    return sorted(out)


class TestFloquetEigenvalues:
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

    def test_lower_bound_guard_trips(self):
        # gamma = 0.5 is too small a cone potential for mu^2 = 5 (H4 of the
        # circle at p = 0 would have gamma = sqrt(5.25) - 1/2): the root near
        # 4.33 lies below the bound lambda >= mu^2
        prof = make_profile(0.2, 1.0, 0.8)
        bogus = Channel(
            kind="H4",
            n=1,
            p=0,
            mu2=Fraction(5),
            mult=1,
            gammas=(0.5,),
            interface_weights=(Fraction(-1, 2),),
        )
        with pytest.raises(NumericalError, match="lower bound 5.0"):
            floquet_eigenvalues(bogus, 0.9, prof, 10.0)
        with pytest.raises(NumericalError, match="lower bound 5.0"):
            band_edges(bogus, prof, 10.0)


# ---------------------------------------------------------------------------
# grid walk and batched polish


def roots_on_grid_loop(grid, Fs, noises):
    """Reference grid walk: the sample-by-sample loop the root finder used
    before it was vectorised, with each sign-change cell and each dip
    candidate recorded instead of solved.  Returns (roots, brackets, dips)."""
    roots, brackets, dips = [], [], []
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
            brackets.append((float(grid[i]), float(grid[i + 1])))
        i += 1
    for i in range(1, ng - 1):
        if zeroish[i - 1] or zeroish[i] or zeroish[i + 1]:
            continue
        s0 = math.copysign(1.0, Fs[i])
        if math.copysign(1.0, Fs[i - 1]) != s0 or math.copysign(1.0, Fs[i + 1]) != s0:
            continue
        y1, y2, y3 = s0 * Fs[i - 1], s0 * Fs[i], s0 * Fs[i + 1]
        if y2 < y1 and y2 < y3:
            dips.append(i)
    return roots, brackets, dips


def assert_walks_agree(grid, Fs, noises):
    roots, cells, dips = radial._roots_on_grid(grid, Fs, noises)
    ref_roots, ref_cells, ref_dips = roots_on_grid_loop(grid, Fs, noises)
    assert sorted(roots) == sorted(ref_roots)
    assert sorted(cells) == sorted(ref_cells)
    assert dips.tolist() == ref_dips


TORUS_P1 = enumerate_channels(build_flat_torus_spectrum([2 * math.pi, 2 * math.pi], 8.25), 1, 8.0)


class TestGridWalk:
    @pytest.mark.parametrize("params", [(0.2, 1.0, 0.8), (0.21, 1.05, 0.84), (0.19, 0.95, 0.76)])
    @pytest.mark.parametrize("census,lam_max", [(TORUS_P1, 8.0), (CIRCLE_HIGH, 400.0)],
                             ids=["torus-p1", "circle-high"])
    def test_census_walk_is_the_loop(self, census, lam_max, params):
        prof = make_profile(*params)
        grid = np.linspace(0.0, lam_max, SCAN_STEPS + 1)
        for ch in census:
            for part, _ in radial._scalar_problems(ch):
                tr, logs = radial._PeriodMap(part, prof, lam_max).trace(grid)
                for theta in (0.0, math.pi):
                    assert_walks_agree(grid, *radial._floquet_F(tr, logs, 2.0 * math.cos(theta)))

    @pytest.mark.parametrize("Fs", [
        # runs touching both ends, a crossing cell, a tangency run of signed
        # zeros, a dip, a one-sample run crossing zero
        [0.0, 1e-4, 0.5, 0.2, 0.3, -0.2, -0.0, 0.0, -0.3, -0.1, -0.4, 1e-5, 0.2, -1e-4],
        [-0.0, 0.4, -0.0, 0.4, 0.3, 0.5, -0.0],  # one-sample runs at both ends
        [1e-4, -0.0, 0.0, -1e-5],  # one run covering the window
        [0.3, 0.2, 0.2, 0.3, -0.1, -0.1, -0.2],  # equal neighbours are no dip
    ])
    def test_synthetic_walk_is_the_loop(self, Fs):
        Fs = np.array(Fs)
        grid = np.linspace(0.0, 1.0, len(Fs))
        assert_walks_agree(grid, Fs, np.full(len(Fs), 1e-3))

    def test_random_walk_is_the_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            Fs = rng.normal(size=40) * 10.0 ** rng.integers(-4, 1, size=40)
            Fs[rng.random(40) < 0.1] = 0.0
            Fs[rng.random(40) < 0.1] = -0.0
            assert_walks_agree(np.linspace(0.0, 1.0, 40), Fs, np.full(40, 1e-3))


class TestPolish:
    def test_bracket_without_sign_change_raises(self):
        # a genuine antiperiodic bracket from the grid, and one of the same
        # target without a sign change: the solve must refuse, not return
        ch = next(c for c in CIRCLE_HIGH if c.kind == "H2")
        period = radial._PeriodMap(ch, make_profile(0.2, 1.0, 0.8), 10.0)
        grid = np.linspace(0.0, 10.0, 51)
        Fs, noises = radial._floquet_F(*period.trace(grid), -2.0)
        good = radial._roots_on_grid(grid, Fs, noises)[1][0]
        lo, hi = np.array([good[0], 0.0]), np.array([good[1], 0.2])
        F = radial._floquet_F(*period.trace(np.concatenate([lo, hi])), -2.0)[0]
        assert F[0] * F[2] < 0 < F[1] * F[3]
        y = np.array([-2.0, -2.0])
        assert radial._polish(period, lo[:1], hi[:1], y[:1])[0] == pytest.approx(
            floquet_eigenvalues(ch, math.pi, make_profile(0.2, 1.0, 0.8), 10.0)[0], abs=1e-9)
        with pytest.raises(NumericalError, match=r"status -1 on the bracket \[0\.0, 0\.2\]"):
            radial._polish(period, lo, hi, y)

    def test_two_crossings_in_one_cell(self):
        # circle-high at seed 0: the H2 antiperiodic gap (69.616, 69.743) is
        # narrower than the 0.2 grid step and lies inside the cell
        # [69.6, 69.8], so only the dip solve can split it into two brackets
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
        # scalar problem, so the pair is one scan with every band twice
        prof = make_profile(0.3, 1.0, 0.8)
        ch = h5_channel()
        h4, h3 = pair_partners(ch)
        single = band_edges(h4, prof, 6.0)
        scans = []
        scan = radial._floquet_roots
        monkeypatch.setattr(radial, "_floquet_roots",
                            lambda part, *args: scans.append(part) or scan(part, *args))
        be = band_edges(ch, prof, 6.0)
        assert len(scans) == 1
        assert be.bands[0::2] == be.bands[1::2] == single.bands
        assert be.truncated == single.truncated
        roots = floquet_eigenvalues(ch, 0.0, prof, 6.0)
        assert len(scans) == 2
        assert roots[0::2] == roots[1::2] == floquet_eigenvalues(h3, 0.0, prof, 6.0)

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
