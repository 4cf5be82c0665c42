import math
from fractions import Fraction

import pytest

from conebands.channels import (
    Channel,
    degree_constants,
    enumerate_channels,
    pair_partners,
)
from conebands.transversal import build_flat_torus_spectrum

TWO_PI = 2.0 * math.pi
CUBE_TORI = {n: build_flat_torus_spectrum([TWO_PI] * n, 8) for n in (1, 2, 3)}


def f(n: int, q: int) -> Fraction:
    """(n/2 - q)(n/2 - q - 1): the cone potential minus mu^2 of a p-form in the
    tangential slot (q = p) or a (p-1)-form in the dt-slot (q = p - 2)."""
    return (Fraction(n, 2) - q) * (Fraction(n, 2) - q - 1)


def scalar_channels(n: int):
    """(q, channel) for every scalar channel of the cube n-torus below 8, every
    degree, with q = p for H2/H4 and p - 2 for H1/H3."""
    for p in range(0, n + 2):
        for ch in enumerate_channels(CUBE_TORI[n], p, 8.0):
            if ch.kind != "H5":
                yield (p if ch.kind in ("H2", "H4") else p - 2), ch


def cone_shift(ch: Channel) -> float:
    """gamma (gamma + 1) - mu^2: the cone potential a scalar channel's solver
    integrates, less the flat mass."""
    g = ch.gammas[0]
    return g * (g + 1.0) - float(ch.mu2)


# ---------------------------------------------------------------------------
# degree constants


def test_degree_constants_n2_p1():
    dc = degree_constants(2, 1)
    assert dc.a == Fraction(1, 2)
    assert dc.nu == 1
    assert dc.w_alpha == 0


def test_degree_constants_exact_sweep():
    for n in range(1, 7):
        for p in range(0, n + 2):
            dc = degree_constants(n, p)
            assert dc.nu == Fraction(n, 2) - p + 1
            assert dc.a == Fraction(n + 1, 2) - p
            assert dc.w_alpha == p - Fraction(n, 2)
    # on channels, (gamma + 1/2)^2 - mu^2 = a_{q+1}^2 with a_q = (n+1)/2 - q,
    # so f(q) = a_{q+1}^2 - 1/4
    for n in (1, 2, 3):
        for q, ch in scalar_channels(n):
            a_next = Fraction(n + 1, 2) - (q + 1)
            got = (ch.gammas[0] + 0.5) ** 2 - float(ch.mu2)
            assert got == pytest.approx(float(a_next * a_next), rel=0, abs=1e-12), (n, ch)
            assert f(n, q) == a_next * a_next - Fraction(1, 4)


def test_f_minimum_and_zeros():
    # over the channels, gamma (gamma + 1) - mu^2 = f(q) attains -1/4
    # (gamma = -1/2) only at q = (n-1)/2, possible only for odd n, and
    # vanishes exactly at q = n/2 and q = n/2 - 1 (n even)
    for n in (1, 2, 3):
        vals: dict[int, float] = {}
        for q, ch in scalar_channels(n):
            vals.setdefault(q, cone_shift(ch))
            assert cone_shift(ch) == pytest.approx(vals[q], rel=0, abs=1e-12)
        assert sorted(vals) == list(range(-1, n + 1))
        assert min(vals.values()) >= -0.25 - 1e-12
        attain = [q for q, v in vals.items() if abs(v + 0.25) <= 1e-12]
        zeros = sorted(q for q, v in vals.items() if abs(v) <= 1e-12)
        if n % 2 == 1:
            assert attain == [(n - 1) // 2]
            assert zeros == []
        else:
            assert attain == []
            assert zeros == [n // 2 - 1, n // 2]


def test_degree_constants_range_errors():
    with pytest.raises(ValueError):
        degree_constants(2, -1)
    with pytest.raises(ValueError):
        degree_constants(2, 4)
    with pytest.raises(ValueError):
        degree_constants(0, 0)


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
    assert h2.gammas == pytest.approx((-0.5,))
    assert float(h2.interface_weights[0]) == pytest.approx(-0.5)
    h4a, h4b = chans[1], chans[2]
    assert (h4a.mu2, h4a.mult) == (Fraction(1), 2)
    assert (h4b.mu2, h4b.mult) == (Fraction(4), 2)
    assert h4a.gammas == pytest.approx((0.5,))
    assert h4b.gammas == pytest.approx((1.5,))


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
    assert h5.gammas == ()
    assert [float(w) for w in h5.interface_weights] == pytest.approx([0.5, 0.5])


def test_enumerate_torus_p1_h5_block():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    chans = enumerate_channels(ts, 1, 2.5)
    h5s = [c for c in chans if c.kind == "H5"]
    assert h5s[0].mult == 4
    assert h5s[0].gammas == ()
    assert h5s[0].interface_weights == (Fraction(1), Fraction(0))
    # the partners carry the exponents: at mu^2 = 1 both have b^2 = 1/4, so
    # gamma = -1/2 + sqrt(5)/2
    s = math.sqrt(1.25)
    assert [part.gammas for part in pair_partners(h5s[0])] == pytest.approx([(s - 0.5,)] * 2)


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
    gammas_a = sorted(c.gammas[0] for c in a)
    gammas_b = sorted(c.gammas[0] for c in b)
    assert gammas_a == pytest.approx(gammas_b)


def test_cone_potential_eigenvalues_match_gammas():
    # the cone potential gamma (gamma + 1) of every scalar channel is mu^2
    # plus f(p) in the tangential slot (H2, H4) and f(p - 2) in the dt-slot
    # (H1, H3)
    for n in (1, 2, 3):
        for q, ch in scalar_channels(n):
            assert cone_shift(ch) == pytest.approx(float(f(n, q)), rel=0, abs=1e-12), \
                f"n={n} p={ch.p} {ch.kind} mu2={ch.mu2}"


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
    with pytest.raises(ValueError):
        pair_partners(enumerate_channels(ts, 1, 3.0)[0])
