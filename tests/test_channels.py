import math
from fractions import Fraction

import numpy as np
import pytest

from conebands.channels import (
    Channel,
    degree_weights,
    enumerate_channels,
    scalar_parts,
)
from conebands.radial import tip_exponent
from conebands.transversal import TransversalSpectrum, build_flat_torus_spectrum
from pair_form import part_channels

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


def gamma_of(ch: Channel) -> float:
    """Tip exponent of a scalar channel."""
    (key,) = scalar_parts(ch)
    return tip_exponent(*key)


def cone_shift(ch: Channel) -> float:
    """gamma (gamma + 1) - mu^2: the cone potential a scalar channel's solver
    integrates, less the flat mass."""
    g = gamma_of(ch)
    return g * (g + 1.0) - float(ch.mu2)


# ---------------------------------------------------------------------------
# degree constants


def test_degree_constants_n2_p1():
    assert degree_weights(2, 1) == (1, 0)


def test_degree_constants_exact_sweep():
    for n in range(1, 7):
        for p in range(0, n + 2):
            nu, w_alpha = degree_weights(n, p)
            assert nu == Fraction(n, 2) - p + 1
            assert w_alpha == p - Fraction(n, 2)
    # on channels, (gamma + 1/2)^2 - mu^2 = a_{q+1}^2 with a_q = (n+1)/2 - q,
    # so f(q) = a_{q+1}^2 - 1/4
    for n in (1, 2, 3):
        for q, ch in scalar_channels(n):
            a_next = Fraction(n + 1, 2) - (q + 1)
            got = (gamma_of(ch) + 0.5) ** 2 - float(ch.mu2)
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
        degree_weights(2, -1)
    with pytest.raises(ValueError):
        degree_weights(2, 4)
    with pytest.raises(ValueError):
        degree_weights(0, 0)
    # a bool was read as the integer 0 or 1
    with pytest.raises(ValueError, match="cross-section dimension n"):
        degree_weights(True, 1)
    with pytest.raises(ValueError, match="form degree p"):
        degree_weights(2, True)
    with pytest.raises(ValueError, match="form degree p"):
        enumerate_channels(circle(), True, 8.0)
    # nor is a numpy bool, which is no numbers.Integral
    with pytest.raises(ValueError, match="cross-section dimension n"):
        degree_weights(np.True_, 1)
    with pytest.raises(ValueError, match="form degree p"):
        degree_weights(2, np.True_)
    with pytest.raises(ValueError, match="form degree p"):
        enumerate_channels(circle(), np.True_, 8.0)


def test_numpy_integer_degree():
    # a numpy integer is an integer: it was refused as "form degree p must
    # lie in [0, 3], got 1"
    assert degree_weights(np.int64(2), np.int32(1)) == degree_weights(2, 1)
    assert all(type(x.numerator) is int for x in degree_weights(np.int64(2), np.int64(1)))
    ts = CUBE_TORI[2]
    channels = enumerate_channels(ts, np.int64(1), 8.0)
    assert channels == enumerate_channels(ts, 1, 8.0)
    assert all(type(ch.p) is int for ch in channels)


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
    assert gamma_of(h2) == pytest.approx(-0.5)
    assert scalar_parts(h2) == ((0, Fraction(-1, 2)),)
    h4a, h4b = chans[1], chans[2]
    assert (h4a.mu2, h4a.mult) == (Fraction(1), 2)
    assert (h4b.mu2, h4b.mult) == (Fraction(4), 2)
    assert gamma_of(h4a) == pytest.approx(0.5)
    assert gamma_of(h4b) == pytest.approx(1.5)


def test_enumerate_circle_p1():
    ts = circle(12)
    chans = enumerate_channels(ts, 1, 10.0)
    kinds = [c.kind for c in chans]
    # harmonics in both slots plus H5 pairs over coexact 0-forms 1,4,9
    assert kinds == ["H1", "H2", "H5", "H5", "H5"]
    h1, h2 = chans[0], chans[1]
    assert scalar_parts(h1) == ((0, Fraction(1, 2)),)   # nu = 1/2
    assert scalar_parts(h2) == ((0, Fraction(1, 2)),)   # p - n/2
    assert gamma_of(h1) == pytest.approx(0.5)
    assert gamma_of(h2) == pytest.approx(0.5)
    h5 = chans[2]
    assert h5.mu2 == Fraction(1) and h5.mult == 2
    # the partners w_alpha of degree 0 and nu of degree 2 are one key
    assert scalar_parts(h5) == ((1, Fraction(-1, 2)),) * 2


def test_enumerate_torus_p1_h5_block():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    chans = enumerate_channels(ts, 1, 2.5)
    h5s = [c for c in chans if c.kind == "H5"]
    assert h5s[0].mult == 4
    # the partners carry the exponents: at mu^2 = 1 both have (w + 1/2)^2 =
    # 1/4, so gamma = -1/2 + sqrt(5)/2
    s = math.sqrt(1.25)
    h4, h3 = scalar_parts(h5s[0])
    assert (h4, h3) == ((1, -1), (1, 0))
    assert [tip_exponent(*h4), tip_exponent(*h3)] == pytest.approx([s - 0.5] * 2)


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
    # a hand-built NaN cutoff reaches no window: it once passed, and the
    # census silently lacked every level above the listed ones
    nan_cut = TransversalSpectrum(1, "x", math.nan, [1, 1], [[(1, 2)], []])
    with pytest.raises(ValueError, match="transversal cutoff nan is below the window"):
        enumerate_channels(nan_cut, 0, 50.0)
    # boundary passes: every degree, H5 included, needs exactly lam_max
    assert enumerate_channels(ts, 0, 5.0)
    assert [c.kind for c in enumerate_channels(ts, 1, 5.0)] == ["H1", "H2", "H5", "H5"]


@pytest.mark.parametrize("levels", [
    [(4, 2), (1, 2)],
    [(4.0, 2), (Fraction(1, 3), 2), (2.5, 1)],
], ids=["rational", "mixed"])
def test_enumerate_orders_unsorted_levels_by_family_then_mu2(levels):
    # a hand-built spectrum need not list its levels in order; the channels
    # still come family by family, H1 ... H5, and by ascending mu^2.  At
    # n = 3, p = 2 every family has levels: H3 from coexact[0], H4 from
    # coexact[2] and H5 from coexact[1]
    ts = TransversalSpectrum(3, "hand", 10, [1, 3, 3, 1], [list(levels)] * 3 + [[]])
    mu2s = sorted(float(mu2) for mu2, _ in levels)
    got = [(c.kind, float(c.mu2)) for c in enumerate_channels(ts, 2, 9.0)]
    assert got == [("H1", 0.0), ("H2", 0.0)] + [(kind, mu2) for kind in ("H3", "H4", "H5")
                                                for mu2 in mu2s]


def test_enumerate_gives_no_channel_for_a_zero_betti_number():
    ts = TransversalSpectrum(1, "hand", 10, [0, 0], [[(1, 2)], []])
    assert [c.kind for c in enumerate_channels(ts, 1, 9.0)] == ["H5"]


@pytest.mark.parametrize("lam_max", [
    math.inf, math.nan, -1.0, pytest.param(10**400, id="10**400"),
    pytest.param(-10**400, id="-10**400")])
def test_enumerate_refuses_lam_max_out_of_range(lam_max):
    # inf once blamed the transversal cutoff, 0 was refused outright, and an
    # int beyond the double range raised OverflowError
    with pytest.raises(ValueError, match=r"^lam_max must be finite and >= 0"):
        enumerate_channels(CUBE_TORI[2], 1, lam_max)


def test_enumerate_duality_p_vs_dual():
    # degree p and n+1-p see mirrored channel data
    ts = circle(12)
    a = enumerate_channels(ts, 0, 10.0)
    b = enumerate_channels(ts, 2, 10.0)
    assert len(a) == len(b)
    gammas_a = sorted(gamma_of(c) for c in a)
    gammas_b = sorted(gamma_of(c) for c in b)
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


def test_scalar_parts_are_the_enumerated_scalars():
    # a pair's keys are those of its Hodge partners, the H4 channel of
    # degree p-1 and the H3 channel of degree p+1 that enumerate_channels
    # builds at its mu^2 and mult; a scalar channel has one key
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI * 1.3, TWO_PI * 0.8], 4)
    pairs = 0
    for p in range(1, ts.n + 1):
        for h5 in (c for c in enumerate_channels(ts, p, 3.0) if c.kind == "H5"):
            parts = []
            for kind, q in (("H4", p - 1), ("H3", p + 1)):
                (part,) = [c for c in enumerate_channels(ts, q, 3.0)
                           if c.kind == kind and c.mu2 == h5.mu2]
                assert part.mult == h5.mult
                parts += scalar_parts(part)
            assert scalar_parts(h5) == tuple(parts)
            pairs += 1
        for ch in enumerate_channels(ts, p, 3.0):
            if ch.kind != "H5":
                assert len(scalar_parts(ch)) == 1
                assert scalar_parts(ch)[0][0] == ch.mu2
    assert pairs > 3


@pytest.mark.parametrize("n,p", [(2, 0), (3, 4)])
def test_scalar_parts_refuses_a_partner_degree_out_of_range(n, p):
    # an H5 pair of degree 0 or n + 1 has a partner degree -1 or n + 2;
    # enumerate_channels builds none, and a hand-built one is refused
    with pytest.raises(ValueError, match="form degree p"):
        scalar_parts(Channel("H5", n, p, Fraction(1), 1))


def slot_formula_gamma(ch: Channel) -> float:
    """Reference tip exponent by degree slot: -1/2 + sqrt(mu^2 + b^2) with
    a = (n+1)/2 - p, b = a + 1 in the dt-slot (H1, H3) and b = a - 1 in the
    tangential slot (H2, H4)."""
    a = float(Fraction(ch.n + 1, 2) - ch.p)
    b = a + 1.0 if ch.kind in ("H1", "H3") else a - 1.0
    return -0.5 + math.sqrt(float(ch.mu2) + b * b)


def test_tip_exponent_matches_the_slot_formula():
    # (mu^2, w) fixes gamma: w + 1/2 = +-b exactly, so the two agree bit for
    # bit on every scalar channel and every H5 partner, n = 1..6, every p
    checked = 0
    for n in range(1, 7):
        ts = build_flat_torus_spectrum([TWO_PI] * n, 3)
        for p in range(0, n + 2):
            for ch in enumerate_channels(ts, p, 3.0):
                for key, part in zip(scalar_parts(ch), part_channels(ch)):
                    assert tip_exponent(*key) == slot_formula_gamma(part), (n, p, part)
                    checked += 1
    assert checked > 100


def test_pair_partners_share_the_tip_exponent():
    # the radial solver evaluates a pair's two partners in one half-period
    # map, which shares the cone between them; that holds because their
    # weights w_alpha - 1 and nu - 1 sum to -1, so (w + 1/2)^2 and gamma agree
    for n in range(1, 6):
        ts = build_flat_torus_spectrum([TWO_PI] * n, 3)
        with_pairs = []
        for p in range(0, n + 2):
            pairs = [ch for ch in enumerate_channels(ts, p, 3.0) if ch.kind == "H5"]
            for ch in pairs:
                h4, h3 = scalar_parts(ch)
                assert h4[1] + h3[1] == -1, (n, p)
                assert tip_exponent(*h4) == tip_exponent(*h3), (n, p, ch.mu2)
            if pairs:
                with_pairs.append(p)
        assert with_pairs == list(range(1, n + 1)), n
