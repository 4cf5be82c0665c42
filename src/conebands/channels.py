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

The radial solver takes only the key.  It solves an H5 pair as the keys of
its two scalar Hodge partners, H4 of degree p-1 and H3 of degree p+1 at the
same mu^2 (pair_partners); partners with one key are one problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .transversal import Scalar, TransversalSpectrum


def check_lam_max(lam_max) -> float:
    """The spectral window's top lam_max as a float; ValueError unless it
    is finite and >= 0."""
    value = float(lam_max)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"lam_max must be finite and >= 0, got {value!r}")
    return value


def degree_weights(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Exact interface weights (nu, w_alpha) of degree p over an
    n-dimensional cross-section: nu = n/2 - p + 1 in the dt-slot,
    w_alpha = p - n/2 in the tangential slot."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"cross-section dimension n must be a positive integer, got {n}")
    if not isinstance(p, int) or p < 0 or p > n + 1:
        raise ValueError(f"form degree p must lie in [0, {n + 1}], got {p}")
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
        return 2 if self.kind == "H5" else 1


def pair_partners(ch: Channel) -> tuple[Channel, Channel]:
    """Scalar Hodge partners of an H5 pair: (H4 of degree p-1, H3 of degree
    p+1) at the same mu^2 and mult.

    d maps the coexact (p-1)-form channel into the pair block and d* maps the
    exact p-form channel of degree p+1 into it, so the pair's spectrum is the
    disjoint union of the two partners' spectra.  One degree down w_alpha
    drops by 1, one degree up nu drops by 1.
    """
    if ch.kind != "H5":
        raise ValueError(f"pair_partners needs an H5 channel, got {ch.kind}")
    nu, w_alpha = ch.interface_weights
    return (
        Channel("H4", ch.n, ch.p - 1, ch.mu2, ch.mult, (w_alpha - 1,)),
        Channel("H3", ch.n, ch.p + 1, ch.mu2, ch.mult, (nu - 1,)),
    )


def enumerate_channels(ts: TransversalSpectrum, p: int, lam_max: float) -> list[Channel]:
    """All channels of degree p that can carry spectrum at or below lam_max.

    Every channel obeys lambda >= mu^2: the scalars by the completed-square
    form bound, an H5 pair because its spectrum is that of its scalar
    partners (pair_partners).  So a channel is pruned iff mu^2 > lam_max.
    Raises ValueError for a lam_max that is not finite and >= 0, and when
    the cross-section data does not reach lam_max.
    """
    lam_max = check_lam_max(lam_max)
    n = ts.n
    nu, w_alpha = degree_weights(n, p)

    if float(ts.cutoff) < lam_max - 1e-9:
        raise ValueError(
            f"transversal cutoff {float(ts.cutoff)} is below the window {lam_max} "
            f"needed for degree {p}; rebuild the spectrum with a larger cutoff"
        )

    def keep(mu2) -> bool:
        return float(mu2) <= lam_max + 1e-12 * max(1.0, lam_max)

    out: list[Channel] = []

    b_prev = ts.betti[p - 1] if 0 <= p - 1 <= n else 0
    b_here = ts.betti[p] if 0 <= p <= n else 0

    if b_prev > 0:
        out.append(Channel("H1", n, p, Fraction(0), b_prev, (nu,)))
    if b_here > 0:
        out.append(Channel("H2", n, p, Fraction(0), b_here, (w_alpha,)))

    for mu2, m in ts.exact(p - 1):
        if keep(mu2):
            out.append(Channel("H3", n, p, mu2, m, (nu,)))

    for mu2, m in ts.coexact_at(p):
        if keep(mu2):
            out.append(Channel("H4", n, p, mu2, m, (w_alpha,)))

    for mu2, m in ts.coexact_at(p - 1):
        if keep(mu2):
            out.append(Channel("H5", n, p, mu2, m, (nu, w_alpha)))

    order = {"H1": 0, "H2": 1, "H3": 2, "H4": 3, "H5": 4}
    out.sort(key=lambda c: (order[c.kind], float(c.mu2)))
    return out
