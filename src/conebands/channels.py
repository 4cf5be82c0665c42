"""Mode decomposition into radial channels.

Separating variables over the cross-section splits the degree-p problem into
one-dimensional radial problems ("channels") indexed by cross-section data:

  H1  harmonic (p-1)-forms in the dt-slot        scalar, mu = 0
  H2  harmonic p-forms in the tangential slot    scalar, mu = 0
  H3  exact (p-1)-forms in the dt-slot           scalar, mu > 0
  H4  coexact p-forms in the tangential slot     scalar, mu > 0
  H5  coexact (p-1)-form paired with its d-image coupled 2x2, mu > 0

The radial solver treats an H5 pair as its two scalar Hodge partners, H4 of
degree p-1 and H3 of degree p+1 at the same mu^2 (pair_partners).

On a cone of radius t each channel sees the potential c/t^2 where c is the
(block) eigenvalue of the combined zeroth-order term; its indicial exponents
at the tip are gamma+1 (regular) and -gamma (singular) with gamma >= -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .transversal import TransversalSpectrum

Scalar = Union[Fraction, float]


@dataclass(frozen=True)
class DegreeConstants:
    """Exact rational constants of a fixed (n, p).

    a       = (n+1)/2 - p, the centered degree parameter
    f_p     = (n/2 - p)(n/2 - p - 1), tangential-slot potential shift
    f_pm2   = f evaluated at p - 2, dt-slot potential shift
    nu      = n/2 - p + 1, dt-slot interface weight
    w_alpha = p - n/2, tangential-slot interface weight
    """

    n: int
    p: int
    a: Fraction
    f_p: Fraction
    f_pm2: Fraction
    nu: Fraction
    w_alpha: Fraction


def degree_constants(n: int, p: int) -> DegreeConstants:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"cross-section dimension n must be a positive integer, got {n}")
    if not isinstance(p, int) or p < 0 or p > n + 1:
        raise ValueError(f"form degree p must lie in [0, {n + 1}], got {p}")

    def f(q: int) -> Fraction:
        return (Fraction(n, 2) - q) * (Fraction(n, 2) - q - 1)

    return DegreeConstants(
        n=n,
        p=p,
        a=Fraction(n + 1, 2) - p,
        f_p=f(p),
        f_pm2=f(p - 2),
        nu=Fraction(n, 2) - p + 1,
        w_alpha=Fraction(p) - Fraction(n, 2),
    )


def gamma_pm(mu2: float, a: float) -> tuple[float, float]:
    """Tip exponents of the coupled H5 pair: -1/2 + |s -+ 1|, s = sqrt(mu2+a^2).

    Both are >= -1/2; gamma_- hits -1/2 exactly at s = 1.
    """
    mu2 = float(mu2)
    if not mu2 > 0:
        raise ValueError(f"mu2 must be positive, got {mu2}")
    s = math.sqrt(mu2 + float(a) * float(a))
    return (-0.5 + abs(s - 1.0), -0.5 + (s + 1.0))


@dataclass
class Channel:
    """One radial channel of the degree-p problem.

    cone_potential: (c,) for scalars, ((c11, c12), (c12, c22)) for H5.
    handle_mass: the transversal eigenvalue mu^2; the handle/cylinder mass
        term is handle_mass / rho^2.
    gammas: indicial tip exponents, ascending; one per branch (H5 has two).
    interface_weights: w per section component; the derivative jump at a
        profile slope break is (slope difference) * w / rho.
    prune_bound: rigorous lower bound for every eigenvalue of this channel;
        also the threshold used to prune channels above lam_max.
    """

    kind: str
    n: int
    p: int
    mu2: Scalar
    mult: int
    cone_potential: tuple
    handle_mass: Scalar
    gammas: tuple[float, ...]
    interface_weights: tuple[Fraction, ...]
    prune_bound: float

    @property
    def ncomp(self) -> int:
        return 2 if self.kind == "H5" else 1


def _tip_gamma(mu2: float, b: float) -> float:
    """Tip exponent -1/2 + sqrt(mu2 + b^2) of a scalar channel."""
    return -0.5 + math.sqrt(float(mu2) + b * b)


def _scalar_channel(kind, dc, mu2, mult, shift: Fraction, w: Fraction, b: float) -> Channel:
    """Scalar channel with tip exponent _tip_gamma(mu2, b); its eigenvalues
    obey lambda >= mu^2 (completed-square form bound)."""
    c = (mu2 + shift) if isinstance(mu2, Fraction) else float(mu2) + float(shift)
    return Channel(
        kind=kind,
        n=dc.n,
        p=dc.p,
        mu2=mu2,
        mult=mult,
        cone_potential=(c,),
        handle_mass=mu2,
        gammas=(_tip_gamma(mu2, b),),
        interface_weights=(w,),
        prune_bound=float(mu2),
    )


def _dt_channel(kind: str, dc: DegreeConstants, mu2, mult: int) -> Channel:
    """H1 (mu2 = 0) or H3: a (p-1)-form in the dt-slot."""
    return _scalar_channel(kind, dc, mu2, mult, dc.f_pm2, dc.nu, float(dc.a) + 1.0)


def _tangential_channel(kind: str, dc: DegreeConstants, mu2, mult: int) -> Channel:
    """H2 (mu2 = 0) or H4: a p-form in the tangential slot."""
    return _scalar_channel(kind, dc, mu2, mult, dc.f_p, dc.w_alpha, float(dc.a) - 1.0)


def pair_partners(ch: Channel) -> tuple[Channel, Channel]:
    """Scalar Hodge partners of an H5 pair: (H4 of degree p-1, H3 of degree
    p+1) at the same mu^2 and mult.

    d maps the coexact (p-1)-form channel into the pair block and d* maps the
    exact p-form channel of degree p+1 into it, so the pair's spectrum is the
    disjoint union of the two partners' spectra.
    """
    if ch.kind != "H5":
        raise ValueError(f"pair_partners needs an H5 channel, got {ch.kind}")
    return (
        _tangential_channel("H4", degree_constants(ch.n, ch.p - 1), ch.mu2, ch.mult),
        _dt_channel("H3", degree_constants(ch.n, ch.p + 1), ch.mu2, ch.mult),
    )


def enumerate_channels(ts: TransversalSpectrum, p: int, lam_max: float) -> list[Channel]:
    """All channels of degree p that can carry spectrum at or below lam_max.

    Every channel obeys lambda >= mu^2: the scalars by the completed-square
    form bound, an H5 pair because its spectrum is that of its scalar
    partners (pair_partners).  So a channel is pruned iff mu^2 > lam_max.
    Refuses to run when the cross-section data does not reach lam_max.
    """
    lam_max = float(lam_max)
    if not lam_max > 0:
        raise ValueError("lam_max must be positive")
    dc = degree_constants(ts.n, p)
    n = ts.n

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
        out.append(_dt_channel("H1", dc, Fraction(0), b_prev))
    if b_here > 0:
        out.append(_tangential_channel("H2", dc, Fraction(0), b_here))

    for mu2, m in ts.exact(p - 1):
        if keep(mu2):
            out.append(_dt_channel("H3", dc, mu2, m))

    for mu2, m in ts.coexact_at(p):
        if keep(mu2):
            out.append(_tangential_channel("H4", dc, mu2, m))

    for mu2, m in ts.coexact_at(p - 1):
        if not keep(mu2):
            continue
        gm, gp = gamma_pm(float(mu2), float(dc.a))
        mu = math.sqrt(float(mu2))
        if isinstance(mu2, Fraction):
            c11, c22 = mu2 + dc.f_pm2, mu2 + dc.f_p
        else:
            c11, c22 = float(mu2) + float(dc.f_pm2), float(mu2) + float(dc.f_p)
        out.append(
            Channel(
                kind="H5",
                n=n,
                p=p,
                mu2=mu2,
                mult=m,
                cone_potential=((c11, -2.0 * mu), (-2.0 * mu, c22)),
                handle_mass=mu2,
                gammas=(gm, gp),
                interface_weights=(dc.nu, dc.w_alpha),
                prune_bound=float(mu2),
            )
        )

    order = {"H1": 0, "H2": 1, "H3": 2, "H4": 3, "H5": 4}
    out.sort(key=lambda c: (order[c.kind], float(c.mu2)))
    return out
