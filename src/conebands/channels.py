"""Mode decomposition into radial channels.

Separating variables over the cross-section splits the degree-p problem into
one-dimensional radial problems ("channels") indexed by cross-section data:

  H1  harmonic (p-1)-forms in the dt-slot        scalar, mu = 0
  H2  harmonic p-forms in the tangential slot    scalar, mu = 0
  H3  exact (p-1)-forms in the dt-slot           scalar, mu > 0
  H4  coexact p-forms in the tangential slot     scalar, mu > 0
  H5  coexact (p-1)-form paired with its d-image coupled 2x2, mu > 0

A scalar channel is the Hill problem fixed by its key (mu^2, w) =
(mu2, interface_weights[0]): on flat parts it sees the mass mu^2 / rho^2,
at every slope break the interface weight w, and on a cone of radius t the
potential gamma (gamma + 1) / t^2 with the tip exponent
gamma = -1/2 + sqrt(mu^2 + (w + 1/2)^2) (radial.tip_exponent).

The radial solver reads from a channel only mu^2 and the weights of its
scalar problems (scalar_parts): a scalar channel is its own, and an H5
pair's are its two Hodge partners, H4 of degree p-1 and H3 of degree p+1
at the same mu^2.  Their weights w_alpha - 1 and nu - 1 sum to -1, so they
share gamma and one solve evaluates both in one half-period map; partners
with one key are one problem whose bands the solve lists twice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .transversal import Scalar, TransversalSpectrum


def _real(x) -> float:
    """x as a float; NaN unless x is a real number (not a bool, a numpy
    bool or a string) within the double range."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an int or a Fraction such as 10**400
        return math.nan


def check_lam_max(lam_max) -> float:
    """The spectral window's top lam_max as a float; ValueError unless it
    is a real number (not a bool, a numpy bool or a string) that is finite
    and >= 0."""
    if not 0.0 <= _real(lam_max) < math.inf:
        raise ValueError(f"lam_max must be finite and >= 0, got {lam_max!r}")
    return float(lam_max)


def degree_weights(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Exact interface weights (nu, w_alpha) of degree p over an
    n-dimensional cross-section: nu = n/2 - p + 1 in the dt-slot,
    w_alpha = p - n/2 in the tangential slot.  ValueError unless n is a
    positive integer and p an integer in [0, n + 1]; any numbers.Integral
    counts (numpy integers too), a bool or numpy bool does not."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"cross-section dimension n must be a positive integer, got {n}")
    if not isinstance(p, numbers.Integral) or isinstance(p, bool) or p < 0 or p > n + 1:
        raise ValueError(f"form degree p must lie in [0, {n + 1}], got {p}")
    n, p = int(n), int(p)
    return Fraction(n, 2) - p + 1, Fraction(p) - Fraction(n, 2)


@dataclass
class Channel:
    """One radial channel of the degree-p problem.

    mu2: the transversal eigenvalue mu^2; the handle/cylinder mass term is
        mu^2 / rho^2, and every eigenvalue of the channel is >= mu^2 (the
        bound enumerate_channels prunes by).
    interface_weights: w per section component, (nu,) in the dt-slot
        (H1, H3), (w_alpha,) in the tangential slot (H2, H4) and
        (nu, w_alpha) for an H5 pair; the derivative jump at a profile
        slope break is (slope difference) * w / rho.  A scalar channel is
        the Hill problem of (mu2, interface_weights[0]).
    """

    kind: str
    n: int
    p: int
    mu2: Scalar
    mult: int
    interface_weights: tuple[Fraction, ...]

    @property
    def ncomp(self) -> int:
        return len(self.interface_weights)


def scalar_parts(ch: Channel) -> tuple[Channel, ...]:
    """The scalar Hill problems whose spectra make up the channel's: (ch,)
    for a scalar channel, and for an H5 pair its two Hodge partners (H4 of
    degree p-1, H3 of degree p+1) at the same mu^2 and mult.

    d maps the coexact (p-1)-form channel into the pair block and d* maps the
    exact p-form channel of degree p+1 into it, so the pair's spectrum is the
    disjoint union of the two partners' spectra.  One degree down w_alpha
    drops by 1, one degree up nu drops by 1.  The partners' weights
    p - n/2 - 1 and n/2 - p sum to -1, so (w + 1/2)^2 and the tip exponent
    gamma are the same for both: only their slope-break jumps differ.
    """
    if ch.kind != "H5":
        return (ch,)
    nu, w_alpha = ch.interface_weights
    return (
        Channel("H4", ch.n, ch.p - 1, ch.mu2, ch.mult, (w_alpha - 1,)),
        Channel("H3", ch.n, ch.p + 1, ch.mu2, ch.mult, (nu - 1,)),
    )


def enumerate_channels(ts: TransversalSpectrum, p: int, lam_max: float) -> list[Channel]:
    """All channels of degree p that can carry spectrum at or below lam_max,
    family by family in the order H1 ... H5 and by ascending mu^2 within
    each family.  H1 and H2 have the Betti number as their one mu^2 = 0
    level, and a level of multiplicity <= 0 gives no channel.

    Every channel obeys lambda >= mu^2: the scalars by the completed-square
    form bound, an H5 pair because its spectrum is that of its scalar
    partners (scalar_parts).  So a channel is pruned iff mu^2 > lam_max.
    Raises ValueError for a lam_max that is not finite and >= 0, and when
    the cross-section data does not reach lam_max.
    """
    lam_max = check_lam_max(lam_max)
    n = ts.n
    nu, w_alpha = degree_weights(n, p)
    p = int(p)  # a numpy integer degree is stored as a plain int

    if not float(ts.cutoff) >= lam_max - 1e-9:  # refuses a NaN too
        raise ValueError(
            f"transversal cutoff {float(ts.cutoff)} is below the window {lam_max} "
            f"needed for degree {p}; rebuild the spectrum with a larger cutoff"
        )

    # harmonic[q]: the one mu^2 = 0 level of the q-forms; the final [] is
    # that of both q = -1 and q = n + 1
    harmonic = [[(Fraction(0), b)] for b in ts.betti] + [[]]
    families = (
        ("H1", harmonic[p - 1], (nu,)),
        ("H2", harmonic[p], (w_alpha,)),
        ("H3", ts.exact(p - 1), (nu,)),
        ("H4", ts.coexact_at(p), (w_alpha,)),
        ("H5", ts.coexact_at(p - 1), (nu, w_alpha)),
    )
    return [Channel(kind, n, p, mu2, m, weights)
            for kind, levels, weights in families
            for mu2, m in sorted(levels, key=lambda level: float(level[0]))
            if m > 0 and float(mu2) <= lam_max + 1e-12 * max(1.0, lam_max)]
