import math
from fractions import Fraction

import numpy as np
import pytest

from conebands.channels import (
    Channel,
    degree_constants,
    enumerate_channels,
    gamma_pm,
    pair_partners,
)
from conebands.transversal import build_flat_torus_spectrum

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# degree constants


def test_degree_constants_n2_p1():
    dc = degree_constants(2, 1)
    assert dc.a == Fraction(1, 2)
    assert dc.f_p == 0            # f(1) = (1-1)(1-2) = 0
    assert dc.f_pm2 == 2          # f(-1) = (1+1)(1+1-1) = 2
    assert dc.nu == 1
    assert dc.w_alpha == 0


def test_degree_constants_exact_sweep():
    # f(p) = a_{p+1}^2 - 1/4 with a_q = (n+1)/2 - q, exact in rationals
    for n in range(1, 7):
        for p in range(0, n + 2):
            dc = degree_constants(n, p)
            a_next = Fraction(n + 1, 2) - (p + 1)
            assert dc.f_p == a_next * a_next - Fraction(1, 4)
            a_prev = Fraction(n + 1, 2) - (p - 1)
            assert dc.f_pm2 == a_prev * a_prev - Fraction(1, 4)
            assert dc.nu == Fraction(n, 2) - p + 1
            assert dc.a == Fraction(n + 1, 2) - p


def test_f_minimum_and_zeros():
    # f attains -1/4 only at p = (n-1)/2, possible only for odd n;
    # f vanishes exactly at p = n/2 and p = n/2 - 1 (n even)
    for n in range(1, 7):
        vals = {p: degree_constants(n, p).f_p for p in range(0, n + 2)}
        assert min(vals.values()) >= Fraction(-1, 4)
        attain = [p for p, v in vals.items() if v == Fraction(-1, 4)]
        if n % 2 == 1:
            assert attain == [(n - 1) // 2]
        else:
            assert attain == []
        zeros = sorted(p for p, v in vals.items() if v == 0)
        if n % 2 == 0:
            assert zeros == [n // 2 - 1, n // 2]
        else:
            assert zeros == []


def test_degree_constants_range_errors():
    with pytest.raises(ValueError):
        degree_constants(2, -1)
    with pytest.raises(ValueError):
        degree_constants(2, 4)
    with pytest.raises(ValueError):
        degree_constants(0, 0)


# ---------------------------------------------------------------------------
# gamma formulas


def test_gamma_pm_n1_p1_mu1():
    gm, gp = gamma_pm(1.0, 0.0)
    assert gm == pytest.approx(-0.5, abs=1e-15)
    assert gp == pytest.approx(1.5, abs=1e-15)
    # indicial values gamma(gamma+1) are the eigenvalues of the 2x2 block
    # [[1.75, -2], [-2, 1.75]]
    assert gm * (gm + 1) == pytest.approx(-0.25, abs=1e-14)
    assert gp * (gp + 1) == pytest.approx(3.75, abs=1e-14)


def test_gamma_pm_n1_p1_mu2():
    gm, gp = gamma_pm(4.0, 0.0)
    assert (gm, gp) == pytest.approx((0.5, 2.5), abs=1e-15)
    assert gm * (gm + 1) == pytest.approx(0.75)
    assert gp * (gp + 1) == pytest.approx(8.75)


def test_gamma_pm_rejects_nonpositive_mu2():
    with pytest.raises(ValueError):
        gamma_pm(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_pm(-1.0, 0.5)


def test_gamma_quartic_identity_random():
    # acceptance-criterion-1 shape: gamma_-(gamma_-+1), gamma_+(gamma_++1)
    # are the two roots of 4 mu^2 = (mu^2+f(p-2)-x)(mu^2+f(p)-x),
    # and they match dense diagonalization of the potential block to 1e-12.
    rng = np.random.default_rng(20250812)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, n + 2))
        mu2 = float(rng.uniform(1e-6, 25.0))
        dc = degree_constants(n, p)
        gm, gp = gamma_pm(mu2, float(dc.a))
        f_pm2, f_p = float(dc.f_pm2), float(dc.f_p)
        for g in (gm, gp):
            x = g * (g + 1)
            lhs = 4 * mu2
            rhs = (mu2 + f_pm2 - x) * (mu2 + f_p - x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        block = np.array([[mu2 + f_pm2, -2 * math.sqrt(mu2)],
                          [-2 * math.sqrt(mu2), mu2 + f_p]])
        ev = np.linalg.eigvalsh(block)
        want = sorted([gm * (gm + 1), gp * (gp + 1)])
        assert abs(ev[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert abs(ev[1] - want[1]) <= 1e-12 * max(1.0, abs(want[1]))
        assert gm >= -0.5 - 1e-15


# ---------------------------------------------------------------------------
# channel enumeration


def circle(cutoff=5):
    return build_flat_torus_spectrum([TWO_PI], cutoff)


def test_enumerate_circle_p0():
    ts = circle(5)
    chans = enumerate_channels(ts, 0, 5.0)
    kinds = [c.kind for c in chans]
    assert kinds == ["H2", "H4", "H4"]
    h2 = chans[0]
    assert h2.mult == 1 and h2.mu2 == 0
    assert float(h2.cone_potential[0]) == pytest.approx(-0.25)
    assert h2.gammas == pytest.approx((-0.5,))
    assert float(h2.interface_weights[0]) == pytest.approx(-0.5)
    h4a, h4b = chans[1], chans[2]
    assert (h4a.mu2, h4a.mult) == (Fraction(1), 2)
    assert (h4b.mu2, h4b.mult) == (Fraction(4), 2)
    assert h4a.gammas == pytest.approx((0.5,))
    assert h4b.gammas == pytest.approx((1.5,))
    assert float(h4a.cone_potential[0]) == pytest.approx(0.75)


def test_enumerate_circle_p1():
    ts = circle(12)
    chans = enumerate_channels(ts, 1, 10.0)
    kinds = [c.kind for c in chans]
    # harmonics in both slots plus H5 pairs over coexact 0-forms 1,4,9
    assert kinds == ["H1", "H2", "H5", "H5", "H5"]
    h1, h2 = chans[0], chans[1]
    assert float(h1.interface_weights[0]) == pytest.approx(0.5)   # nu = 1/2
    assert float(h2.interface_weights[0]) == pytest.approx(0.5)   # p - n/2
    assert h1.gammas == pytest.approx((0.5,))
    assert h2.gammas == pytest.approx((0.5,))
    h5 = chans[2]
    assert h5.mu2 == Fraction(1) and h5.mult == 2
    pot = np.array(h5.cone_potential, dtype=float)
    assert pot == pytest.approx(np.array([[1.75, -2.0], [-2.0, 1.75]]))
    assert h5.gammas == pytest.approx((-0.5, 1.5))
    assert [float(w) for w in h5.interface_weights] == pytest.approx([0.5, 0.5])


def test_enumerate_torus_p1_h5_block():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    chans = enumerate_channels(ts, 1, 2.5)
    h5s = [c for c in chans if c.kind == "H5"]
    assert h5s[0].mult == 4
    pot = np.array(h5s[0].cone_potential, dtype=float)
    assert pot == pytest.approx(np.array([[3.0, -2.0], [-2.0, 1.0]]))
    # golden-ratio exponents for mu^2 = 1, a = 1/2: s = sqrt(5)/2
    s = math.sqrt(1.25)
    assert h5s[0].gammas == pytest.approx((s - 1.5, s + 0.5))


def test_enumerate_prunes_by_rigorous_bound():
    ts = circle(30)
    # scalar channels pruned iff mu^2 > lam_max
    chans = enumerate_channels(ts, 0, 5.0)
    h4_mu2 = [float(c.mu2) for c in chans if c.kind == "H4"]
    assert h4_mu2 == [1.0, 4.0]
    # H5 obeys the same bound as its scalar partners: mu^2 = 9 with lam = 8.8
    # is pruned, mu^2 = 9 with lam = 9 stays
    chans = enumerate_channels(ts, 1, 8.8)
    h5_mu2 = [float(c.mu2) for c in chans if c.kind == "H5"]
    assert h5_mu2 == [1.0, 4.0]
    for c in chans:
        assert c.prune_bound == float(c.mu2)
    h5_mu2 = [float(c.mu2) for c in enumerate_channels(ts, 1, 9.0) if c.kind == "H5"]
    assert h5_mu2 == [1.0, 4.0, 9.0]


def test_enumerate_refuses_insufficient_cutoff():
    ts = circle(5)
    with pytest.raises(ValueError, match="cutoff"):
        enumerate_channels(ts, 0, 5.5)
    with pytest.raises(ValueError, match="cutoff"):
        enumerate_channels(ts, 1, 5.5)
    # boundary passes: every degree, H5 included, needs exactly lam_max
    assert enumerate_channels(ts, 0, 5.0)
    assert [c.kind for c in enumerate_channels(ts, 1, 5.0)] == ["H1", "H2", "H5", "H5"]


def test_enumerate_duality_p_vs_dual():
    # degree p and n+1-p see mirrored channel data
    ts = circle(12)
    a = enumerate_channels(ts, 0, 10.0)
    b = enumerate_channels(ts, 2, 10.0)
    assert len(a) == len(b)
    pots_a = sorted(float(c.cone_potential[0]) for c in a)
    pots_b = sorted(float(c.cone_potential[0]) for c in b)
    assert pots_a == pytest.approx(pots_b)


def test_cone_potential_eigenvalues_match_gammas():
    # each eigenvalue c of a channel's cone potential is gamma (gamma + 1)
    # of its own tip exponent, in ascending order
    for n in (1, 2, 3):
        ts = build_flat_torus_spectrum([TWO_PI] * n, 8)
        for p in range(0, n + 2):
            for ch in enumerate_channels(ts, p, 8.0):
                pot = np.atleast_2d(np.array(ch.cone_potential, dtype=float))
                want = [g * (g + 1.0) for g in ch.gammas]
                np.testing.assert_allclose(np.linalg.eigvalsh(pot), want, rtol=0, atol=1e-12,
                                           err_msg=f"n={n} p={p} {ch.kind} mu2={ch.mu2}")


# ---------------------------------------------------------------------------
# pair partners


def test_pair_partners_are_the_enumerated_scalars():
    # H4 of degree p-1 and H3 of degree p+1 at the pair's mu^2 and mult are
    # exactly the channels enumerate_channels builds in those degrees
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI * 1.3, TWO_PI * 0.8], 4)
    for p in range(1, ts.n + 1):
        for h5 in (c for c in enumerate_channels(ts, p, 3.0) if c.kind == "H5"):
            h4, h3 = pair_partners(h5)
            assert (h4.kind, h4.p, h3.kind, h3.p) == ("H4", p - 1, "H3", p + 1)
            for part in (h4, h3):
                same = [c for c in enumerate_channels(ts, part.p, 3.0)
                        if c.kind == part.kind and c.mu2 == h5.mu2]
                assert same == [part]
                assert part.mult == h5.mult
                assert part.prune_bound == h5.prune_bound
    with pytest.raises(ValueError):
        pair_partners(enumerate_channels(ts, 1, 3.0)[0])
