"""The coupled 2 x 2 form of an H5 pair, for the tests that check the
partner split from outside the channel layer.

An H5 pair of degree p couples the coexact (p-1)-form in the dt-slot with
its d-image in the tangential slot.  Its quadratic form is
integral |sigma' + B sigma|^2 over the period, with

    B = A0 / rho + (rho'/rho) diag(nu, w_alpha),   A0 = [[0, -mu], [-mu, 0]],

and (nu, w_alpha) = degree_weights(n, p).  The package solves only the
pair's two scalar Hodge partners, the keys of channels.scalar_parts.  This
form's spectrum is their union, so a slip in the partners' keys shows as a
disagreement with it.  The form is assembled one interval at a time and
solved densely; of the oracle it reuses only the grid plan
(oracle._half_grids) and the dense eigensolver.
"""

import math

import numpy as np

from conebands import oracle
from conebands.channels import Channel, degree_weights, scalar_parts
from whole_period import mirror_nodes


def part_channels(channel):
    """The scalar channels whose keys are the channel's scalar_parts: the
    channel itself, or an H5 pair's Hodge partners, H4 of degree p-1 and H3
    of degree p+1 at its mu^2 and mult."""
    if channel.kind != "H5":
        return (channel,)
    n, p, mu2, mult = channel.n, channel.p, channel.mu2, channel.mult
    parts = (Channel("H4", n, p - 1, mu2, mult), Channel("H3", n, p + 1, mu2, mult))
    assert tuple(key for part in parts for key in scalar_parts(part)) == scalar_parts(channel)
    return parts


def pair_coefficient(channel, profile, t):
    """B of the pair at period coordinate t, a float or an array: shape
    (..., 2, 2), symmetric."""
    nu, w_alpha = degree_weights(channel.n, channel.p)
    rho = np.asarray(profile.rho(t), dtype=float)
    slope = profile.rho_prime(t) / rho
    B = np.zeros(rho.shape + (2, 2))
    B[..., 0, 1] = B[..., 1, 0] = -math.sqrt(float(channel.mu2)) / rho
    B[..., 0, 0] = slope * float(nu)
    B[..., 1, 1] = slope * float(w_alpha)
    return B


def loop_assemble(coefficient, theta, t):
    """(K, W) of the form |s' e + B s|^2 on the period's nodes t_0 = 0 ..
    t_M = T, glued at the cut, one interval at a time: h |c . (s_j, s_next)|^2
    per row c of B, with the phase e^{i theta} on the wrap interval's
    next-node half.  coefficient(t) is B at t, shape (2, m); the derivative
    enters its first m rows.  W holds the trapezoid weights, repeated per
    component."""
    M = len(t) - 1
    m = coefficient(t[0]).shape[1]
    K = np.zeros((M * m, M * m), dtype=complex)
    S = np.eye(2)[:, :m]
    w = np.zeros(M)
    for j in range(M):
        jn = (j + 1) % M
        h = t[j + 1] - t[j]
        E = coefficient(0.5 * (t[j] + t[j + 1]))
        ph = np.exp(1j * theta) if jn == 0 else 1.0
        idx = list(range(j * m, j * m + m)) + list(range(jn * m, jn * m + m))
        for row in np.hstack([-S / h + 0.5 * E, ph * (S / h + 0.5 * E)]):
            K[np.ix_(idx, idx)] += h * np.outer(np.conj(row), row)
        w[j] += 0.5 * h
        w[jn] += 0.5 * h
    return K, np.repeat(w, m)


def pair_eigenvalues(channel, theta, profile, lam_max, N=200):
    """Eigenvalues <= lam_max of the pair form at quasimomentum theta: the
    dense spectra on the two grids of oracle._half_grids(profile, N),
    index-paired and combined by Richardson extrapolation,
    (4 l_2N - l_N) / 3."""
    window = (-1.0, lam_max + 1.0)
    e1, e2 = (oracle.dense_hermitian_eigenvalues(
        *loop_assemble(lambda s: pair_coefficient(channel, profile, s), theta,
                       mirror_nodes(profile, half)), lam_window=window)
        for half in oracle._half_grids(profile, N))
    k = min(len(e1), len(e2))
    lam = (4.0 * e2[:k] - e1[:k]) / 3.0
    return sorted(lam[lam <= lam_max].tolist())
