"""Band census over whole degrees: the paper's gap dichotomy and Hodge-star
duality, read off the union of the channels' bands.

For a flat torus cross-section of dimension n the handle pinching eps -> 0
opens ever more spectral gaps in every degree p, except p in {n/2, n/2 + 1}
when H^{n/2} != 0.  On the 2-torus that exception is p = 1, 2: there the H2
channel has interface weight p - n/2 = 0 and no potential shift, so it is the
free line and its bands cover [0, lam_max].
"""

import math

import pytest

from conebands.channels import enumerate_channels
from conebands.oracle import oracle_eigenvalues
from conebands.radial import band_edges, make_profile
from conebands.transversal import build_flat_torus_spectrum

TWO_PI = 2.0 * math.pi
TORI = {n: build_flat_torus_spectrum([TWO_PI] * n, 8) for n in (1, 2, 3, 4)}


def degree_bands(ts, p, profile, lam_max):
    """Sorted bands of every channel of degree p below lam_max, each listed
    Channel.mult times."""
    bands = []
    for ch in enumerate_channels(ts, p, lam_max):
        bands += ch.mult * band_edges(ch, profile, lam_max).bands
    return sorted(bands)


def union_gaps(bands):
    """Open gaps between the bands' union, from the bottom band up."""
    gaps = []
    top = bands[0][1]
    for lo, hi in bands[1:]:
        if lo > top:
            gaps.append((top, lo))
        top = max(top, hi)
    return gaps


def wide_gap_count(n, p, eps, lam_max=6.0, width=0.05):
    bands = degree_bands(TORI[n], p, make_profile(eps, 1.0, 0.8), lam_max)
    return sum(1 for lo, hi in union_gaps(bands) if hi - lo > width)


@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_middle_degrees_of_the_two_torus_have_no_gap(eps):
    # H^1(T^2) != 0, so p = n/2 and n/2 + 1 are the exceptional degrees
    for p in (1, 2):
        bands = degree_bands(TORI[2], p, make_profile(eps, 1.0, 0.8), 6.0)
        assert bands[0][0] == 0.0 and max(hi for _, hi in bands) == 6.0
        assert union_gaps(bands) == [], (p, eps)


# wide gaps below lam = 6 at eps 0.3, 0.1 and 0.03, degree p = 0 .. n + 1
DICHOTOMY = {
    1: [(2, 3, 3)] * 3,
    2: [(4, 4, 4), (0, 0, 0), (0, 0, 0), (4, 4, 4)],
    3: [(5, 5, 5), (3, 7, 10), (2, 5, 7), (3, 7, 10), (5, 5, 5)],
    4: [(5, 5, 5), (8, 10, 11), (0, 0, 0), (0, 0, 0), (8, 10, 11), (5, 5, 5)],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_dichotomy_in_every_degree(n):
    # T^1 and T^3 gap in every degree; T^2 and T^4 (b_{n/2} != 0) have no
    # gap in p = n/2 and n/2 + 1 and gaps in the rest.  Pinching the handle
    # opens more gaps below lam = 6
    got = [tuple(wide_gap_count(n, p, eps) for eps in (0.3, 0.1, 0.03)) for p in range(n + 2)]
    assert got == DICHOTOMY[n]


def test_census_at_lam_max_zero_is_the_zero_modes():
    # lam_max = 0 leaves the massless channels, each with the band [0, 0]
    prof = make_profile(0.2, 1.0, 0.8)
    chans = enumerate_channels(TORI[2], 1, 0.0)
    assert [ch.kind for ch in chans] == ["H1", "H2"]
    for ch in chans:
        assert band_edges(ch, prof, 0.0).bands == [(0.0, 0.0)]


@pytest.mark.parametrize("n,lam_max", [(1, 8.0), (2, 8.0), (3, 6.0)])
def test_hodge_star_duality_of_band_lists(n, lam_max):
    # the Hodge star maps degree p to n + 1 - p: the same scalar problems
    # with the same multiplicities, so the band lists agree exactly
    prof = make_profile(0.3, 1.0, 0.8)
    bands = [degree_bands(TORI[n], p, prof, lam_max) for p in range(n + 2)]
    for p in range(n + 2):
        assert bands[p] == bands[n + 1 - p], p


def census_against_the_oracle(ts, p, prof, lam_max, N):
    """Number of census edges of every channel of degree p, checked against
    the oracle's theta = 0 and pi eigenvalues: in count exactly and to 1e-6
    relative.  Values within 1e-6 lam_max of lam_max may fall on either
    side of the window and are left out of both lists."""

    def inside(xs):
        return sorted(x for x in xs if abs(x - lam_max) > 1e-6 * lam_max)

    total = 0
    for ch in enumerate_channels(ts, p, lam_max):
        got = inside(x for band in band_edges(ch, prof, lam_max).bands for x in band)
        want = inside(oracle_eigenvalues(ch, 0.0, prof, lam_max, N=N)
                      + oracle_eigenvalues(ch, math.pi, prof, lam_max, N=N))
        assert len(got) == len(want), (ch.kind, ch.mu2)
        err = max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want)), default=0.0)
        assert err <= 1e-6, (ch.kind, ch.mu2, err)
        total += len(got)
    return total


def test_torus_p1_census_matches_the_oracle():
    # every channel of the 2-torus at p = 1, H5 pairs included
    assert census_against_the_oracle(TORI[2], 1, make_profile(0.2, 1.0, 0.8), 8.0, 500) == 43


@pytest.mark.parametrize("params,edges", [
    ((0.2, 1.0, 0.8), 154),
    # the H2 theta = 0 gap [399.873, 399.979] lies in the last 0.2-wide
    # cell of the scan; its edges are zeros of b and c, one sign change each
    ((0.19181516364847845, 1.034210797765928, 0.8080361794967985), 156),
], ids=["seed0", "seed203"])
def test_circle_high_census_matches_the_oracle(params, edges):
    # the circle of length 2 pi / 3 at p = 0 up to lambda = 400, where the
    # cone series nears its Wronskian guard
    circle = build_flat_torus_spectrum([TWO_PI / 3.0], 400.0)
    assert census_against_the_oracle(circle, 0, make_profile(*params), 400.0, 2000) == edges


@pytest.mark.parametrize("n,p,lam_max", [(2, 1, 8.0), (1, 0, 400.0)], ids=["torus-p1", "circle-high"])
def test_census_edges_survive_one_ulp_of_the_profile(n, p, lam_max):
    # eps, L and l_out nudged by one ulp either way: every edge moves by at
    # most 1e-9 of max(1, lam).  Above lam ~ 200 the cone series' rounding
    # (lam t^2 near 400) leaves the polish a noise band up to 1.2e-7 wide at
    # seed 0, so there the bound is relative
    ts = TORI[2] if n == 2 else build_flat_torus_spectrum([TWO_PI / 3.0], 400.0)
    chans = enumerate_channels(ts, p, lam_max)

    def edges(params):
        prof = make_profile(*params)
        return [x for ch in chans for band in band_edges(ch, prof, lam_max).bands for x in band]

    base = (0.2, 1.0, 0.8)
    want = edges(base)
    for i in range(3):
        for toward in (-math.inf, math.inf):
            params = list(base)
            params[i] = math.nextafter(params[i], toward)
            got = edges(params)
            assert len(got) == len(want)
            assert max(abs(a - b) / max(1.0, b) for a, b in zip(got, want)) <= 1e-9, params
