"""Quadratic-form reference solver: assembly, eigenvalues, cross-route checks.

Anchors that do not depend on the transfer-matrix code path:
  - flat circle of circumference T: eigenvalues mu^2 + ((theta + 2 pi k)/T)^2
  - expanding integral |s' + B s|^2 by parts must reproduce the channel
    potential plus a pure boundary term, on arbitrary smooth test sections:
    on cones gamma (gamma + 1)/rho^2, the potential the transfer-matrix
    solver integrates, for a scalar key, and for the coupled form of an H5
    pair (pair_form.py) the 2x2 block
    [[mu^2 + f(p-2), -2 mu], [-2 mu, mu^2 + f(p)]] / rho^2 in the global
    frame; mu^2/rho^2 on flats
and only then the dual-route comparison against floquet_eigenvalues.  The
pair form's spectrum is checked against the transfer solve of the pair's
two scalar partners, the one check of the partner split from outside
scalar_parts.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from conebands import oracle, radial
from conebands.channels import enumerate_channels, scalar_parts
from conebands.oracle import (
    FormMatrix,
    assemble,
    dense_hermitian_eigenvalues,
    oracle_eigenvalues,
    warp_coefficient,
)
from conebands.radial import NumericalError, floquet_eigenvalues, make_profile, tip_exponent
from conebands.transversal import build_flat_torus_spectrum
from free_circle import free_circle_eigs
from pair_form import loop_assemble, pair_coefficient, pair_eigenvalues
from whole_period import mirror_nodes, period_pieces

CIRCLE = build_flat_torus_spectrum([2 * math.pi], 20)
STD = make_profile(0.2, 1.0, 0.8)  # cyl .4 | cone 0.8 | handle 1 | cone | cyl .4
FLAT2PI = make_profile(1.0, 2 * math.pi - 1.0, 1.0)
CUBE_TORI = {n: build_flat_torus_spectrum([2 * math.pi] * n, 8) for n in (1, 2, 3)}
TORUS_P1 = enumerate_channels(build_flat_torus_spectrum([2 * math.pi] * 2, 8.25), 1, 8.0)


def grid_eigenvalues(ch, theta, prof, nodes, window):
    """The merged, sorted eigenvalues in the window of the channel's keys on
    the grid of half-period nodes `nodes`, without extrapolation."""
    geometry = oracle._geometry(prof, nodes)
    return np.sort(np.concatenate([oracle._grid_eigenvalues(*key, radial.half_angles(theta),
                                                             geometry, window)
                                   for key in scalar_parts(ch)]))


def single_grid(ch, theta, prof, lam_max, N):
    """Eigenvalues <= lam_max on the N grid alone, without extrapolation."""
    nodes = oracle._half_grids(prof, N)[0]
    evs = grid_eigenvalues(ch, theta, prof, nodes, (-1.0, lam_max + 1.0))
    return [float(x) for x in evs if x <= lam_max]


def scalar_coefficient(key, prof):
    """B of the scalar key as a function of t, shape (2, 1)."""
    return lambda t: warp_coefficient(*key, prof, t)[:, None]


def period_nodes(prof, N):
    """The nodes of assemble's glued period on the N grid: t = 0 up to the
    last node before the cut at T, which merges into node 0."""
    return mirror_nodes(prof, oracle._half_grids(prof, N)[0])[:-1]


def half_chain(G, X, wt, a, b):
    """(d, e) of the half chain (G, X, wt) of oracle._chain on its nodes
    a .. b - 1, scaled by W^{-1/2}."""
    c = 1.0 / np.sqrt(wt)
    return (G / wt)[a:b], X[a:b - 1] * (c[a:b - 1] * c[a + 1:b])


def chan(p, kind, mu2=None):
    for c in enumerate_channels(CIRCLE, p, 12.0):
        if c.kind == kind and (mu2 is None or float(c.mu2) == mu2):
            return c
    raise LookupError(f"no {kind} channel with mu2={mu2}")


# ---------------------------------------------------------------------------
# warp coefficient


class TestWarpCoefficient:
    def test_scalar_handle_is_pure_mass(self):
        (key,) = scalar_parts(chan(0, "H4", mu2=1.0))
        B = warp_coefficient(*key, STD, 1.7)
        np.testing.assert_allclose(B, [0.0, -5.0], atol=1e-14)

    def test_scalar_outer_cylinder(self):
        (key,) = scalar_parts(chan(0, "H4", mu2=1.0))
        B = warp_coefficient(*key, STD, 0.1)
        np.testing.assert_allclose(B, [0.0, -1.0], atol=1e-14)

    def test_scalar_descending_cone(self):
        # rho(0.8) = 0.6, rho' = -1, slot weight w = p - n/2 = -1/2
        (key,) = scalar_parts(chan(0, "H4", mu2=1.0))
        B = warp_coefficient(*key, STD, 0.8)
        np.testing.assert_allclose(B, [0.5 / 0.6, -1.0 / 0.6], atol=1e-14)

    def test_harmonic_channel_has_no_mass_row(self):
        (key,) = scalar_parts(chan(0, "H2"))
        B = warp_coefficient(*key, STD, 1.7)
        assert B[1] == 0.0

    def test_pair_flat_is_constant_coupling(self):
        ch = chan(1, "H5", mu2=1.0)
        B = pair_coefficient(ch, FLAT2PI, 2.0)
        np.testing.assert_allclose(B, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)

    def test_pair_ascending_cone(self):
        # rho(2.5) = 0.5, rho' = +1, weights (nu, w_alpha) = (1/2, 1/2)
        ch = chan(1, "H5", mu2=1.0)
        B = pair_coefficient(ch, STD, 2.5)
        np.testing.assert_allclose(B, [[1.0, -2.0], [-2.0, 1.0]], atol=1e-13)

    def test_pair_symmetric_everywhere(self):
        ch = chan(1, "H5", mu2=1.0)
        for t in (0.1, 0.6, 1.5, 2.4, 3.3):
            B = pair_coefficient(ch, STD, t)
            assert B[0, 1] == B[1, 0]

    @pytest.mark.parametrize("kind,p,mu2", [("H4", 0, 1.0), ("H2", 0, None), ("H5", 1, 1.0)])
    def test_array_matches_pointwise(self, kind, p, mu2):
        # every key of the channel, an H5 pair's two partners included
        for key in scalar_parts(chan(p, kind, mu2=mu2)):
            for prof in (STD, make_profile(0.2, 1.0, 0.8, eta=0.05)):
                ts = np.linspace(0.01, prof.T - 0.01, 301)
                B = warp_coefficient(*key, prof, ts)
                assert B.shape == (len(ts), 2)
                np.testing.assert_array_equal(B, [warp_coefficient(*key, prof, t) for t in ts])


# ---------------------------------------------------------------------------
# the form |s' + B s|^2 reproduces the channel potential


def q_form(coefficient, sig, dsig, a, b):
    def integrand(t):
        s = np.atleast_1d(sig(t))
        ds = np.atleast_1d(dsig(t))
        # the derivative enters the in-slot rows alone
        v = np.eye(2)[:, :len(s)] @ ds + coefficient(t) @ s
        return float(v @ v)

    val, err = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def q_expanded(coefficient, sig, dsig, a, b, V_of_t):
    def integrand(t):
        s = np.atleast_1d(sig(t))
        ds = np.atleast_1d(dsig(t))
        return float(ds @ ds) + float(s @ V_of_t(t) @ s)

    val, err = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)

    def boundary(t):
        s = np.atleast_1d(sig(t))
        return float(s @ coefficient(t)[:len(s)] @ s)

    return val + boundary(b) - boundary(a)


def scalar_section():
    sig = lambda t: 1.5 + math.sin(1.3 * t) + 0.4 * math.cos(2.0 * t)
    dsig = lambda t: 1.3 * math.cos(1.3 * t) - 0.8 * math.sin(2.0 * t)
    return sig, dsig


def pair_section():
    sig = lambda t: np.array([1.0 + math.sin(1.1 * t), 0.7 * math.cos(0.9 * t) - 2.0])
    dsig = lambda t: np.array([1.1 * math.cos(1.1 * t), -0.63 * math.sin(0.9 * t)])
    return sig, dsig


def pair_cone_potential(ch):
    """The pair block C of an H5 channel, with f(q) = (n/2 - q)(n/2 - q - 1)."""

    def f(q):
        return (ch.n / 2 - q) * (ch.n / 2 - q - 1)

    mu2 = float(ch.mu2)
    mu = math.sqrt(mu2)
    return np.array([[mu2 + f(ch.p - 2), -2.0 * mu], [-2.0 * mu, mu2 + f(ch.p)]])


class TestPotentialReproduction:
    def check(self, coefficient, a, b, V_of_t):
        sig, dsig = scalar_section() if coefficient(a).shape[1] == 1 else pair_section()
        qf = q_form(coefficient, sig, dsig, a, b)
        qe = q_expanded(coefficient, sig, dsig, a, b, V_of_t)
        assert qf == pytest.approx(qe, rel=1e-8)

    def test_scalar_ascending_cone(self):
        (key,) = scalar_parts(chan(0, "H4", mu2=1.0))
        g = tip_exponent(*key)
        c = g * (g + 1.0)
        self.check(scalar_coefficient(key, STD), 2.3, 2.9,
                   lambda t: np.array([[c / STD.rho(t) ** 2]]))

    def test_scalar_descending_cone(self):
        (key,) = scalar_parts(chan(0, "H4", mu2=1.0))
        g = tip_exponent(*key)
        c = g * (g + 1.0)
        self.check(scalar_coefficient(key, STD), 0.5, 1.1,
                   lambda t: np.array([[c / STD.rho(t) ** 2]]))

    def test_scalar_handle(self):
        (key,) = scalar_parts(chan(0, "H4", mu2=4.0))
        self.check(scalar_coefficient(key, STD), 1.3, 2.0, lambda t: np.array([[4.0 / 0.2**2]]))

    def test_pair_ascending_cone(self):
        ch = chan(1, "H5", mu2=1.0)
        C = pair_cone_potential(ch)
        np.testing.assert_array_equal(C, [[1.75, -2.0], [-2.0, 1.75]])
        self.check(lambda t: pair_coefficient(ch, STD, t), 2.3, 2.9,
                   lambda t: C / STD.rho(t) ** 2)

    def test_pair_descending_cone_flips_coupling(self):
        # global frame on the way down conjugates by diag(-1, 1)
        ch = chan(1, "H5", mu2=1.0)
        F = np.diag([-1.0, 1.0])
        C = F @ pair_cone_potential(ch) @ F
        self.check(lambda t: pair_coefficient(ch, STD, t), 0.5, 1.1,
                   lambda t: C / STD.rho(t) ** 2)

    def test_pair_handle_decouples(self):
        ch = chan(1, "H5", mu2=1.0)
        self.check(lambda t: pair_coefficient(ch, STD, t), 1.3, 2.0,
                   lambda t: np.eye(2) / 0.2**2)


# ---------------------------------------------------------------------------
# assembly


class TestAssemble:
    def test_exactly_hermitian(self):
        ch = chan(0, "H4", mu2=1.0)
        fm = assemble(ch, math.pi / 3, STD, 160)
        assert np.iscomplexobj(fm.K)
        assert np.max(np.abs(fm.K - fm.K.conj().T)) == 0.0

    def test_real_at_periodic_and_antiperiodic(self):
        ch = chan(0, "H2")
        assert not np.iscomplexobj(assemble(ch, 0.0, STD, 120).K)
        assert not np.iscomplexobj(assemble(ch, math.pi, STD, 120).K)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for theta in (0.0, 1.1):
            fm = assemble(chan(1, "H5", mu2=1.0), theta, STD, 140)
            for _ in range(20):
                x = rng.standard_normal(fm.K.shape[0])
                if np.iscomplexobj(fm.K):
                    x = x + 1j * rng.standard_normal(len(x))
                val = np.real(np.conj(x) @ fm.K @ x)
                assert val >= -1e-10 * np.abs(fm.K).max()

    def test_mass_weights_sum_to_period(self):
        for ch, m in ((chan(0, "H4", mu2=1.0), 1), (chan(1, "H5", mu2=1.0), 2)):
            fm = assemble(ch, 0.3, STD, 130)
            assert np.all(fm.W > 0)
            assert fm.W.sum() == pytest.approx(m * STD.T, rel=1e-12)

    def test_grid_hits_interfaces(self):
        fm = assemble(chan(0, "H2"), 0.0, STD, 150)
        nodes = period_nodes(STD, 150)
        assert fm.W.size == nodes.size
        assert nodes[0] == 0.0
        assert np.all(np.diff(nodes) > 0)
        assert nodes[-1] < STD.T
        for a, _, _ in period_pieces(STD):
            assert np.min(np.abs(nodes - a)) < 1e-12

    def test_grid_refines_into_handle(self):
        prof = make_profile(0.05, 1.0, 1.0)
        fm = assemble(chan(0, "H2"), 0.0, prof, 300)
        nodes = period_nodes(prof, 300)
        h_handle = np.diff(nodes)[np.searchsorted(nodes, prof.T / 2) - 1]
        h_outer = nodes[1] - nodes[0]
        assert h_handle < h_outer / 4
        assert isinstance(fm, FormMatrix) and fm.W.size == nodes.size

    def test_small_grid_refused(self):
        with pytest.raises(ValueError):
            assemble(chan(0, "H2"), 0.0, STD, 99)

    @pytest.mark.parametrize("solve", [
        lambda N: assemble(chan(0, "H2"), 0.0, STD, N),
        lambda N: oracle_eigenvalues(chan(0, "H2"), 0.0, STD, 5.0, N=N),
    ], ids=["assemble", "oracle_eigenvalues"])
    @pytest.mark.parametrize("N", [500.5, math.nan, math.inf, True, np.int64(99), [500]],
                             ids=["fraction", "nan", "inf", "bool", "np.int64(99)", "list"])
    def test_grid_size_must_be_an_integer(self, solve, N):
        # 500.5 was accepted, nan and inf failed in int conversion; an
        # unhashable N must not reach the plan cache's TypeError
        with pytest.raises(ValueError, match=r"grid size N must be an integer >= 100, got "):
            solve(N)

    def test_a_planned_grid_size_admits_no_float(self):
        # the plan cache takes 500.0 for 500, so a warm N = 500 plan would
        # let 500.0 through unless N is checked before the lookup
        ch = chan(0, "H2")
        oracle_eigenvalues(ch, 0.0, STD, 5.0, N=500)
        with pytest.raises(ValueError, match=r"grid size N must be an integer >= 100, got 500\.0"):
            oracle_eigenvalues(ch, 0.0, STD, 5.0, N=500.0)

    @pytest.mark.parametrize("solve", [
        lambda N: assemble(chan(0, "H2"), 0.7, STD, N).K,
        lambda N: oracle_eigenvalues(chan(0, "H2"), 0.7, STD, 5.0, N=N),
    ], ids=["assemble", "oracle_eigenvalues"])
    def test_numpy_integer_grid_size(self, solve):
        # np.int64(500) was refused as not an integer
        np.testing.assert_array_equal(solve(np.int64(500)), solve(500))

    @pytest.mark.parametrize("params", [(0.25, 1.2, 0.0), (0.3, 0.0, 0.8), (1.0, 0.0, 1.0),
                                        (0.2, 1.0, 0.8, 0.05), (0.9, 1.0, 1.0, 0.5)])
    def test_grid_plan_tiles_the_period(self, params):
        # (0.25, 1.2, 0.0) once split its last cone at a radius one ulp below
        # 1, into a piece of length 0 that the oracle refused
        prof = make_profile(*params)
        assert all(b > a for a, b, _ in prof.pieces())
        for nodes in oracle._half_grids(prof, 500):
            assert (nodes[0], nodes[-1]) == (0.0, 0.5 * prof.T)
            assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("params", [(0.2, 1.0, 0.8), (0.2, 1.0, 0.8, 0.02),
                                        (0.2, 1.0, 0.8, 0.05), (0.25, 1.2, 0.0),
                                        (0.3, 0.0, 0.8), (1.0, 2 * math.pi - 1.0, 1.0)],
                             ids=["eta0", "eta0.02", "eta0.05", "l_out0", "L0", "flat-circle"])
    def test_grid_plan_is_mirrored_about_the_handle_centre(self, params):
        # the plan ends at the centre T/2 and node j and node M - j of the
        # period sit at t and T - t, so M is even.  At N = 110 the l_out = 0
        # plan once gave the two cones' pieces nearest the handle 12 and 13
        # intervals, from piece weights that differ in the last bit
        prof = make_profile(*params)
        assert prof.pieces()[-1][1] == 0.5 * prof.T
        for N in (100, 110, 201, 202, 500, 1000, 1999, 2000):
            half = oracle._half_grids(prof, N)[0]
            assert half[-1] == 0.5 * prof.T
            t = mirror_nodes(prof, half)
            assert (t[0], t[-1]) == (0.0, prof.T)
            assert (len(t) - 1) % 2 == 0
            assert np.abs(t + t[::-1] - prof.T).max() <= math.ulp(prof.T)

    @pytest.mark.parametrize("params", [(0.2, 1.0, 0.8), (0.2, 1.0, 0.8, 0.02),
                                        (0.2, 1.0, 0.8, 0.05), (0.25, 1.2, 0.0),
                                        (0.3, 0.0, 0.8), (1.0, 2 * math.pi - 1.0, 1.0),
                                        (0.9, 1.0, 1.0, 0.5)],
                             ids=["eta0", "eta0.02", "eta0.05", "l_out0", "L0", "flat-circle",
                                  "eps0.9"])
    @pytest.mark.parametrize("N", [100, 110, 201, 500, 1000, 2000])
    def test_doubled_grid_nests_the_n_grid(self, params, N):
        # Richardson's (4 l_2N - l_N) / 3 cancels the h^2 error term only
        # when the 2N grid halves every interval of the N grid
        coarse, fine = oracle._half_grids(make_profile(*params), N)
        assert len(fine) == 2 * len(coarse) - 1
        np.testing.assert_array_equal(fine[::2], coarse)

    @pytest.mark.parametrize("theta,joins,phase", [
        (0.0, (0.0, 1.0), 1.0), (2 * math.pi, (0.0, 1.0), 1.0), (-math.pi, (1.0, 0.0), -1.0),
        (3 * math.pi, (1.0, 0.0), -1.0), (1e-13, (5e-14, 1.0), None),
        (101 * math.pi, (1.0, 2.0**-49), None), (0.7, (math.sin(0.35), math.cos(0.35)), None),
        (math.nan, None, None), (math.inf, None, None), (-math.inf, None, None),
    ], ids=["0", "2pi", "-pi", "3pi", "1e-13", "101pi", "0.7", "nan", "inf", "-inf"])
    def test_real_phase(self, theta, joins, phase):
        # the glued period's wrap phase is the float +-1.0 exactly where a
        # join of radial.half_angles is 0, and e^{i theta} elsewhere: a
        # 1e-12 snap once solved 1e-13 and 101 pi (reduced 1.8e-15 off pi)
        # as the band edges the path solver does not read them as.  nan
        # once read as theta = 0
        ch = chan(0, "H4", mu2=1.0)
        if joins is None:
            for solve in (radial.half_angles, lambda theta: assemble(ch, theta, STD, 120)):
                with pytest.raises(ValueError, match="theta must be finite"):
                    solve(theta)
            return
        assert radial.half_angles(theta) == pytest.approx(joins, rel=1e-15, abs=0.0)
        K, K0 = assemble(ch, theta, STD, 120).K, assemble(ch, 0.0, STD, 120).K
        assert K.dtype == (np.float64 if phase else np.complex128)
        assert K[-1, 0] == K0[-1, 0] * (phase or np.exp(1j * theta))
        assert K[0, -1] == np.conj(K[-1, 0])


# ---------------------------------------------------------------------------
# dense eigenvalues


class TestDenseHermitianEigenvalues:
    def test_diagonal_anchor(self):
        evs = dense_hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]), np.ones(3))
        np.testing.assert_allclose(evs, [1.0, 2.0, 3.0], atol=1e-14)

    def test_mass_scaling(self):
        evs = dense_hermitian_eigenvalues(np.array([[8.0]]), np.array([4.0]))
        np.testing.assert_allclose(evs, [2.0], atol=1e-14)

    def test_complex_hermitian_matches_eigvalsh(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        K = A + A.conj().T
        W = np.ones(40)
        got = dense_hermitian_eigenvalues(K, W)
        assert len(got) == 40
        np.testing.assert_allclose(got, np.linalg.eigvalsh(K), atol=1e-10)

    def test_eigenvalue_residuals(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((50, 50))
        K = A + A.T
        evs = dense_hermitian_eigenvalues(K, np.ones(50))
        scale = np.linalg.norm(K)
        for lam in evs[::10]:
            smin = np.linalg.svd(K - lam * np.eye(50), compute_uv=False)[-1]
            assert smin <= 1e-10 * scale

    def test_window(self):
        evs = dense_hermitian_eigenvalues(
            np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4), lam_window=(1.5, 3.5)
        )
        np.testing.assert_allclose(evs, [2.0, 3.0], atol=1e-13)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            dense_hermitian_eigenvalues(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            dense_hermitian_eigenvalues(np.eye(2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# the mirror path and its solve


BAND_CASES = [(chan(0, "H4", mu2=1.0), STD)] + [
    (next(c for c in enumerate_channels(CUBE_TORI[n], 1, 8.0) if c.kind == "H5"),
     make_profile(0.3, 1.0, 0.8))
    for n in (1, 2, 3)
]


class TestBandSolve:
    @pytest.mark.parametrize("theta", [0.0, math.pi, 1.1])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_vectorised_assembly_matches_interval_loop(self, case, theta):
        # a pair's pencil is the direct sum of its two partners' periods
        ch, prof = BAND_CASES[case]
        fm = assemble(ch, theta, prof, 120)
        t = mirror_nodes(prof, oracle._half_grids(prof, 120)[0])
        blocks = [loop_assemble(scalar_coefficient(key, prof), theta, t)
                  for key in scalar_parts(ch)]
        want = scipy.linalg.block_diag(*(K for K, _ in blocks))
        np.testing.assert_allclose(fm.K, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(fm.W, np.concatenate([W for _, W in blocks]), rtol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7, 2.0])
    @pytest.mark.parametrize("case", range(len(BAND_CASES)), ids=["scalar", "n1", "n2", "n3"])
    def test_band_oracle_matches_dense_pencil(self, case, theta):
        ch, prof = BAND_CASES[case]
        fm = assemble(ch, theta, prof, 200)
        dense = dense_hermitian_eigenvalues(fm.K, fm.W, lam_window=(-1.0, 9.0))
        got = single_grid(ch, theta, prof, 8.0, 200)
        want = dense[dense <= 8.0]
        assert len(want) >= 2
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7, 2.0])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_path_is_the_rotated_dense_pencil(self, case, theta):
        # in the orthonormal basis q_{K-1}, .., q_1, u_0, p_1, .., p_{K-1},
        # u_K of the period's nodes, with u_0 = e_0, u_K = e_K and p_j, q_j =
        # (e_j +- e_{M-j}) / sqrt(2), each key's block of the pencil is the
        # path up to a diagonal unitary: the path's diagonal, the moduli of
        # its couplings and nothing off the tridiagonal.  The path evaluates
        # the mirrored entries at t and the pencil at T - t, so they agree
        # to rounding, not bit for bit
        ch, prof = BAND_CASES[case]
        fm = assemble(ch, theta, prof, 120)
        s = 1.0 / np.sqrt(fm.W)
        pencil = s[:, None] * fm.K * s[None, :]
        M = len(period_nodes(prof, 120))
        K = M // 2
        V = np.zeros((M, M))
        for col, j in enumerate(range(K - 1, 0, -1)):
            V[[j, M - j], col] = [math.sqrt(0.5), -math.sqrt(0.5)]
        V[0, K - 1] = 1.0
        for col, j in enumerate(range(1, K), start=K):
            V[[j, M - j], col] = math.sqrt(0.5)
        V[K, M - 1] = 1.0
        np.testing.assert_allclose(V.T @ V, np.eye(M), rtol=0.0, atol=1e-15)
        for k, key in enumerate(scalar_parts(ch)):
            G, X, wt = oracle._chain(*key, oracle._geometry(prof, oracle._half_grids(prof, 120)[0]))
            d, e = oracle._path(G, X, wt, radial.half_angles(theta))
            assert d.dtype == e.dtype == np.float64
            want = np.diag(d) + np.diag(np.abs(e), 1) + np.diag(np.abs(e), -1)
            block = pencil[k * M:(k + 1) * M, k * M:(k + 1) * M]
            np.testing.assert_allclose(np.abs(V.T @ block @ V), want,
                                       rtol=0.0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7])
    def test_hot_path_builds_no_dense_matrix(self, monkeypatch, theta):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(oracle, "dense_hermitian_eigenvalues", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        ch, prof = BAND_CASES[2]
        tracemalloc.start()
        try:
            evs = oracle_eigenvalues(ch, theta, prof, 8.0, N=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(evs) >= 3
        # the doubled grid has about 2000 unknowns: one dense real copy of
        # the pencil would take 32 MB
        assert peak < 4e6

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7, 2.0], ids=["0", "pi", "0.7", "2"])
    @pytest.mark.parametrize("case", range(len(BAND_CASES)), ids=["scalar", "n1", "n2", "n3"])
    def test_mirror_split_matches_the_dense_pencil(self, case, theta, eta):
        ch, prof = BAND_CASES[case]
        prof = make_profile(prof.eps, prof.L, prof.l_out, eta)
        for N in (200, 201, 202):
            fm = assemble(ch, theta, prof, N)
            want = dense_hermitian_eigenvalues(fm.K, fm.W, lam_window=(-1.0, 30.0))
            got = grid_eigenvalues(ch, theta, prof, oracle._half_grids(prof, N)[0],
                                   (-1.0, 30.0))
            assert len(want) >= 4
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7], ids=["0", "pi", "0.7"])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_band_half_widths(self, monkeypatch, case, theta):
        path = oracle._path
        shapes = []

        def record(G, X, wt, joins):
            d, e = path(G, X, wt, joins)
            shapes.append((len(d) - 2 * len(X), len(e) - len(d), d.dtype, e.dtype))
            return d, e

        monkeypatch.setattr(oracle, "_path", record)
        ch, prof = BAND_CASES[case]
        assert len(oracle_eigenvalues(ch, theta, prof, 8.0, N=200)) >= 2
        # for each key, on each of the N and 2N grids of K intervals: one
        # real tridiagonal (half-width 1) of 2K nodes, at every theta.  The
        # pair has two distinct keys
        keys = len(set(scalar_parts(ch)))
        assert keys == case // 2 + 1
        assert shapes == [(0, -1, np.float64, np.float64)] * 2 * keys

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7], ids=["0", "pi", "0.7"])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_every_theta_assembles_the_half_period_alone(self, monkeypatch, case, theta):
        ch, prof = BAND_CASES[case]
        M = len(period_nodes(prof, 200))
        coefficient = oracle.warp_coefficient
        midpoints = []

        def record(mu2, w, prof, t):
            midpoints.append(np.size(t))
            return coefficient(mu2, w, prof, t)

        oracle._plan.cache_clear()
        monkeypatch.setattr(oracle, "warp_coefficient", record)
        assert len(oracle_eigenvalues(ch, theta, prof, 8.0, N=200)) >= 2
        # M / 2 midpoints on the N grid and M on the 2N grid, once for all
        # keys: the second half of the period is never assembled
        assert len(set(scalar_parts(ch))) == case // 2 + 1
        assert midpoints == [M // 2, M]
        # the plan depends on neither theta nor the key
        assert len(oracle_eigenvalues(ch, 0.7 if theta != 0.7 else 0.0, prof, 8.0, N=200)) >= 2
        assert midpoints == [M // 2, M]

    def test_the_plan_is_read_only(self):
        plan = oracle._plan(STD, 200)
        assert len(plan) == 2
        for geometry in plan:
            for a in geometry:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    @pytest.mark.parametrize("theta", [math.nan, math.inf, True, "0.7"])
    def test_a_refused_theta_builds_no_plan(self, theta):
        # theta is read before the plan: a NaN theta once built and cached
        # an N = 777 plan, which could evict a useful one of PLAN_CACHE
        before = oracle._plan.cache_info()
        with pytest.raises(ValueError, match="theta must be finite"):
            oracle_eigenvalues(BAND_CASES[0][0], theta, STD, 8.0, N=777)
        assert oracle._plan.cache_info() == before

    def test_assemble_leaves_the_plan_cache_alone(self):
        oracle._plan.cache_clear()
        ch, prof = BAND_CASES[2]
        assemble(ch, 0.0, prof, 200)
        assert oracle._plan.cache_info() == (0, 0, oracle.PLAN_CACHE, 0)

    @pytest.mark.parametrize("window", [(-1.0, 9.0), (-1.0, 400.0)], ids=["9", "400"])
    @pytest.mark.parametrize("theta", [0.0, math.pi], ids=["0", "pi"])
    def test_stacked_parities_solve_as_the_two_parity_bands(self, theta, window):
        # at theta = 0 (pi) the path's join to q_1 (p_1) is 0 and it falls
        # apart into the two mirror parities: the even chain of the half
        # nodes 0 .. K (1 .. K) and, reversed, the odd chain of the nodes
        # 1 .. K - 1 (0 .. K - 1), each entry for entry the half chain's.
        # On the oracle-verify keys one bisection of the path gives the two
        # parities' values, to rounding
        first = 0 if theta == 0.0 else 1  # the even chain's first half node
        keys = dict.fromkeys(key for ch in TORUS_P1 for key in scalar_parts(ch))
        values = 0
        for key in keys:
            for geometry in oracle._plan(STD, 500):
                G, X, wt = oracle._chain(*key, geometry)
                K = len(X)
                blocks = [half_chain(G, X, wt, first, K + 1), half_chain(G, X, wt, 1 - first, K)]
                d, e = oracle._path(G, X, wt, radial.half_angles(theta))
                cut = K - 1 + first  # the even chain's first node on the path
                assert e[cut - 1] == 0.0
                np.testing.assert_array_equal(d[cut:], blocks[0][0])
                np.testing.assert_array_equal(e[cut:], blocks[0][1])
                np.testing.assert_array_equal(d[:cut], blocks[1][0][::-1])
                np.testing.assert_array_equal(e[:cut - 1], blocks[1][1][::-1])
                got = oracle.tridiagonal_eigenvalues(d, e, window)
                want = np.sort(np.concatenate([oracle.tridiagonal_eigenvalues(*b, window)
                                               for b in blocks]))
                assert len(got) == len(want), key
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=np.finfo(float).eps * np.abs(d).max())
                values += len(got)
        assert len(keys) == 12 and values >= 30

    @pytest.mark.parametrize("d,e", [([0.0, 1.0, 2.0], [0.0, 0.0])], ids=["tridiagonal"])
    def test_band_window_is_half_open(self, d, e):
        np.testing.assert_array_equal(oracle.tridiagonal_eigenvalues(d, e, (0.0, 2.0)),
                                      [1.0, 2.0])

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7], ids=["0", "pi", "0.7"])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_one_lapack_solve_per_grid(self, monkeypatch, case, theta):
        # one bisection of the path per key and grid at every theta, and
        # no banded solver
        calls = []
        for module, name in ((scipy.linalg, "eig_banded"), (scipy.linalg.lapack, "dstebz")):
            def counted(*args, solve=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        ch, prof = BAND_CASES[case]
        assert len(oracle_eigenvalues(ch, theta, prof, 8.0, N=200)) >= 2
        assert calls == ["dstebz"] * 2 * len(set(scalar_parts(ch)))

    def test_failed_bisection_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz",
                            lambda *args: (0, np.zeros(3), None, None, 2))
        with pytest.raises(NumericalError, match="dstebz info 2"):
            oracle.tridiagonal_eigenvalues([0.0, 1.0, 2.0], [0.0, 0.0], (0.0, 2.0))

    @pytest.mark.parametrize("theta,edge", [(1e-13, 0.0), (-1e-13, 0.0), (2 * math.pi, 0.0),
                                            (math.pi + 1e-13, math.pi),
                                            (math.pi - 1e-13, math.pi), (3 * math.pi, math.pi)],
                             ids=["1e-13", "-1e-13", "2pi", "pi+1e-13", "pi-1e-13", "3pi"])
    @pytest.mark.parametrize("case", [0, 2], ids=["scalar", "pair"])
    def test_theta_next_to_a_band_edge_solves_as_the_edge(self, case, theta, edge):
        # no snap to the edge: a join of |sin| or |cos| of about 1e-13 moves
        # the values by far less than rounding
        ch, prof = BAND_CASES[case]
        want = oracle_eigenvalues(ch, edge, prof, 8.0, N=200)
        got = oracle_eigenvalues(ch, theta, prof, 8.0, N=200)
        assert len(want) >= 2
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("theta,edge", [(2 * math.pi, 0.0), (-2 * math.pi, 0.0),
                                            (4 * math.pi, 0.0), (-math.pi, math.pi)],
                             ids=["2pi", "-2pi", "4pi", "-pi"])
    def test_a_whole_turn_lays_out_the_edge_bit_for_bit(self, theta, edge):
        # theta is reduced mod 2 pi before the joins are taken: sin(pi) is
        # 1.2e-16, not 0.  _path reads theta only as these joins
        assert radial.half_angles(theta) == radial.half_angles(edge)


class TestRichardsonPairing:
    @pytest.mark.parametrize("theta", [0.0, math.pi], ids=["0", "pi"])
    def test_eigenvalues_come_sorted(self, theta):
        # Richardson can move the two values of a near-double past each
        # other: H2 at theta = 0 once returned [-5.9e-12, 3.4150880366855745,
        # 3.4150880118219598]
        for ch in TORUS_P1:
            evs = oracle_eigenvalues(ch, theta, STD, 8.0, N=300)
            assert evs == sorted(evs), (ch.kind, ch.mu2)

    def test_equal_partner_keys_are_one_solve(self, monkeypatch):
        # on the circle at p = 1 an H5 pair's partners are one key: it is
        # solved once, on the N and the 2N grid, and every value is listed
        # twice
        solve = oracle._grid_eigenvalues
        calls = []

        def record(*args):
            calls.append(args[:2])
            return solve(*args)

        ch = chan(1, "H5", mu2=1.0)
        assert len(set(scalar_parts(ch))) == 1
        monkeypatch.setattr(oracle, "_grid_eigenvalues", record)
        evs = oracle_eigenvalues(ch, 0.7, STD, 8.0, N=200)
        assert calls == [scalar_parts(ch)[0]] * 2
        assert len(evs) >= 4
        assert evs[0::2] == evs[1::2]

    @pytest.mark.parametrize("theta,count", [(0.0, 5), (0.7, 4)], ids=["theta0", "theta0.7"])
    @pytest.mark.parametrize("short_grid", ["N", "2N"])
    def test_unpaired_eigenvalue_below_the_window_edge_raises(self, monkeypatch, short_grid,
                                                              theta, count):
        # free circle of length 2 pi, window (-1, 5.2]: 0, 1, 1, 4, 4 at
        # theta 0, and four values below 4.2 and one at 4.45 at theta 0.7;
        # losing the top value on one grid leaves the other grid's unpaired
        solve = oracle._grid_eigenvalues
        calls = []

        def drop_top(mu2, w, joins, geometry, window):
            calls.append(len(geometry[0]))  # the grid's intervals
            evs = solve(mu2, w, joins, geometry, window)
            return evs[:-1] if (len(calls) == 1) == (short_grid == "N") else evs

        ch = chan(0, "H2")
        assert len(oracle_eigenvalues(ch, theta, FLAT2PI, 4.2, N=200)) == count
        monkeypatch.setattr(oracle, "_grid_eigenvalues", drop_top)
        with pytest.raises(NumericalError, match="no partner"):
            oracle_eigenvalues(ch, theta, FLAT2PI, 4.2, N=200)
        assert calls[1] == 2 * calls[0]

    @pytest.mark.parametrize("kind,mu2,message", [
        ("H2", 0, r"at index 15: drift 0\.5250"),
        ("H4", 9, r"at index 10: drift 0\.5379"),
    ], ids=["H2", "H4-9"])
    def test_circle_high_at_n500_drifts_past_the_pairing_bound(self, kind, mu2, message):
        # the circle-high census (circle of length 2 pi / 3, p = 0, lambda up
        # to 400) at seed 0: N = 500 is too coarse near the top of the
        # window, so the N and 2N values there drift apart by more than 0.5
        ts = build_flat_torus_spectrum([2 * math.pi / 3], 400.0)
        ch = next(c for c in enumerate_channels(ts, 0, 400.0) if c.kind == kind and c.mu2 == mu2)
        with pytest.raises(NumericalError, match="Richardson pairing broke " + message):
            oracle_eigenvalues(ch, 0.0, STD, 400.0, N=500)


# ---------------------------------------------------------------------------
# flat-circle spectra through the full oracle path


class TestFlatCircle:
    def test_zero_mode_of_massless_channel(self):
        evs = oracle_eigenvalues(chan(0, "H2"), 0.0, FLAT2PI, 5.0, N=200)
        expect = free_circle_eigs(2 * math.pi, 0.0, 5.0)
        assert len(evs) == len(expect)
        assert abs(evs[0]) <= 1e-9
        np.testing.assert_allclose(evs, expect, atol=1e-6)

    def test_massive_circle_first_eigenvalue_is_one(self):
        # raw second-order accuracy, no extrapolation
        evs = single_grid(chan(0, "H4", mu2=1.0), 0.0, FLAT2PI, 3.0, 400)
        assert evs[0] == pytest.approx(1.0, abs=5e-3)
        evs_r = oracle_eigenvalues(chan(0, "H4", mu2=1.0), 0.0, FLAT2PI, 3.0, N=400)
        assert evs_r[0] == pytest.approx(1.0, abs=1e-6)

    def test_generic_theta(self):
        theta = 0.7
        evs = oracle_eigenvalues(chan(0, "H2"), theta, FLAT2PI, 4.0, N=300)
        expect = free_circle_eigs(2 * math.pi, theta, 4.0)
        np.testing.assert_allclose(evs, expect, atol=2e-6)

    def test_antiperiodic_real_path(self):
        evs = oracle_eigenvalues(chan(0, "H2"), math.pi, FLAT2PI, 2.0, N=300)
        expect = free_circle_eigs(2 * math.pi, math.pi, 2.0)
        np.testing.assert_allclose(evs, expect, atol=2e-6)

    def test_theta_near_2pi_has_its_lowest_root_at_k_minus_1(self):
        # ((5.5 - 2 pi) / 2 pi)^2 is the one root below 0.5; k = 0 gives
        # (5.5 / 2 pi)^2 = 0.77
        evs = oracle_eigenvalues(chan(0, "H2"), 5.5, FLAT2PI, 0.5, N=200)
        expect = free_circle_eigs(2 * math.pi, 5.5, 0.5)
        assert expect == [pytest.approx(0.0155370773, abs=1e-10)]
        np.testing.assert_allclose(evs, expect, atol=1e-6)

    def test_pair_flat_circle(self):
        # decoupled by the constant rotation, eigenvalues all doubled
        evs = oracle_eigenvalues(chan(1, "H5", mu2=1.0), 0.0, FLAT2PI, 4.0, N=300)
        expect = sorted(2 * free_circle_eigs(2 * math.pi, 0.0, 4.0, mass2=1.0))
        assert len(evs) == len(expect)
        np.testing.assert_allclose(evs, expect, atol=5e-6)


# ---------------------------------------------------------------------------
# cross-route agreement with the transfer-matrix solver


class TestOracleVsTransfer:
    def test_scalar_generic_theta(self):
        ch = chan(0, "H4", mu2=1.0)
        want = floquet_eigenvalues(ch, 0.9, STD, 8.0)
        got = oracle_eigenvalues(ch, 0.9, STD, 8.0, N=600)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_scalar_harmonic_zero_mode(self):
        ch = chan(0, "H2")
        want = floquet_eigenvalues(ch, 0.0, STD, 6.0)
        got = oracle_eigenvalues(ch, 0.0, STD, 6.0, N=600)
        assert len(got) == len(want)
        assert abs(got[0]) <= 1e-8
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_dt_slot_weight_sign(self):
        # H1/H3 carry the opposite interface orientation; a sign slip in the
        # junction would shift these eigenvalues at the 1e-2 level
        ch = chan(2, "H3", mu2=1.0)
        want = floquet_eigenvalues(ch, 0.4, STD, 6.0)
        got = oracle_eigenvalues(ch, 0.4, STD, 6.0, N=600)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-5)

    @staticmethod
    def check_pair_split(n, p):
        """The coupled pair form (pair_form.py) against the transfer solve
        of the pair's scalar_parts, on the cube n-torus at degree p."""
        prof = make_profile(0.3, 1.0, 0.8)
        ch = next(c for c in enumerate_channels(CUBE_TORI[n], p, 8.0) if c.kind == "H5")
        want = floquet_eigenvalues(ch, 1.1, prof, 8.0)
        got = pair_eigenvalues(ch, 1.1, prof, 8.0, N=200)
        assert len(want) >= 3
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=2e-5)

    @pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3) for p in range(1, n + 1)])
    def test_pair_generic_theta(self, n, p):
        # the spectrum of the coupled pair is the union of its two scalar
        # Hodge partners', in every degree that has an H5 channel: the one
        # check of scalar_parts' partner keys from outside them
        self.check_pair_split(n, p)

    @pytest.mark.parametrize("part", [0, 1], ids=["H4-partner", "H3-partner"])
    @pytest.mark.parametrize("n,p", [(1, 1), (2, 1)])
    def test_pair_split_catches_a_shifted_partner_weight(self, monkeypatch, n, p, part):
        # one partner weight moved by 1/2 in the keys the radial solver reads.
        # The solver refuses partners whose tip exponents differ, so the
        # mutant also moves the other weight by -1/2, keeping their sum -1;
        # the values then move and the check must fail
        keys = radial.scalar_parts

        def shifted(ch):
            parts = list(keys(ch))
            if len(parts) == 2:
                parts = [(mu2, w + (0.5 if k == part else -0.5)) for k, (mu2, w) in enumerate(parts)]
            return tuple(parts)

        monkeypatch.setattr(radial, "scalar_parts", shifted)
        with pytest.raises(AssertionError):
            self.check_pair_split(n, p)

    def test_antiperiodic(self):
        ch = chan(0, "H4", mu2=1.0)
        want = floquet_eigenvalues(ch, math.pi, STD, 8.0)
        got = oracle_eigenvalues(ch, math.pi, STD, 8.0, N=600)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-5)


# ---------------------------------------------------------------------------
# extrapolation behavior and robustness


class TestRichardsonAndStability:
    def test_error_shrinks_like_h_squared(self):
        # index 0 is the constant eigenvector (exact at any h); index 1 drifts
        ch = chan(0, "H4", mu2=1.0)
        lam = [
            single_grid(ch, 0.0, FLAT2PI, 3.0, n)[1]
            for n in (150, 300, 600)
        ]
        r = (lam[0] - lam[1]) / (lam[1] - lam[2])
        assert 2.5 < r < 6.0

    def test_theta_continuity(self):
        ch = chan(0, "H4", mu2=1.0)
        thetas = np.linspace(0.0, math.pi, 33)
        lam0 = np.array([single_grid(ch, t, STD, 4.0, 150)[0] for t in thetas])
        jumps = np.abs(np.diff(lam0))
        budget = 10.0 * (lam0.max() - lam0.min()) / (len(thetas) - 1)
        assert jumps.max() <= budget + 1e-3

    def test_smoothed_profile_shifts_within_quasi_isometry_bound(self):
        # eta-rounding distorts the metric by at most e^{(n + 2p) eta}
        ch = chan(0, "H2")
        sharp = make_profile(0.2, 1.0, 0.8)
        smooth = make_profile(0.2, 1.0, 0.8, eta=0.02)
        a = oracle_eigenvalues(ch, 0.0, sharp, 6.0, N=400)
        b = oracle_eigenvalues(ch, 0.0, smooth, 6.0, N=400)
        assert len(a) == len(b)
        bound = math.exp(1 * 0.02)  # n + 2p = 1
        for x, y in zip(a[1:], b[1:]):  # skip the shared zero mode
            assert y / x < bound * (1 + 1e-3)
            assert y / x > (1 - 1e-3) / bound

    def test_small_grid_refused(self):
        with pytest.raises(ValueError):
            oracle_eigenvalues(chan(0, "H2"), 0.0, STD, 5.0, N=50)

    @pytest.mark.parametrize("eta", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_tiny_eta_raises_instead_of_wrong_numbers(self, eta):
        # a corner of half-width ~ eta drives ||H|| ~ 1/eta^2 and the
        # solver's rounding with it: at eta 1e-8 the H1 zero mode once came
        # out -0.107, at 1e-10 H4 mu^2=2 as 4.585 instead of 4.226, and at
        # 1e-11 the result was []
        prof = make_profile(0.2, 1.0, 0.8, eta)
        for ch in TORUS_P1:
            with pytest.raises(NumericalError, match=r"rounding bound eps \* max\|H_jj\|"):
                oracle_eigenvalues(ch, 0.0, prof, 8.0)

    @pytest.mark.parametrize("eta", [0.02, 0.05])
    def test_moderate_eta_passes_the_rounding_check(self, eta):
        prof = make_profile(0.2, 1.0, 0.8, eta)
        for ch in TORUS_P1:
            evs = oracle_eigenvalues(ch, 0.0, prof, 8.0)
            if ch.mu2 == 0:  # the harmonic channels keep their zero mode
                assert abs(evs[0]) < 1e-8
