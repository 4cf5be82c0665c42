"""Brute-force reference solver: quadratic-form discretization per channel.

Discretizes q(sigma) = integral |sigma' + B sigma|^2 over one period with the
quasi-periodic wrap sigma(T) = e^{i theta} sigma(0), where B is the
first-order warp coefficient

    B = A0 / rho + (rho'/rho) * diag(channel weights).

For scalar channels the slot restriction is rectangular: the in-slot row
(rho'/rho) w pairs with the derivative, and an out-of-slot row mu/rho acts
as a pure mass (a literal scalar sum would create a spurious cross term).
For the coupled pair A0 = [[0, -mu], [-mu, 0]]; squaring reproduces the cone
potential exactly on both cones (global frame) and mu^2/rho^2 on flats, and
the slope breaks of rho' produce the transmission conditions variationally,
with no hand-coded interface stencils.  That independence is the point: this
module never touches the transfer-matrix code path.

The midpoint rule couples each node only to its two neighbours, and the
wrap couples the last node to the first.  Assembly is vectorised over the
grid: one m x m diagonal block per node and one coupling block per interval
(the wrap block carries the phase).  The solver stores the blocks in LAPACK
lower band storage under the fold ordering 0, M-1, 1, M-2, ... of the M
nodes, which keeps the wrap inside a band of half-width 3m - 1, scales them
by W^{-1/2} in place and hands them to a banded eigensolver (real symmetric
at theta = 0 and pi, complex Hermitian otherwise) restricted to the window.
No dense matrix is formed on that path.  assemble() builds the dense pencil
from the same blocks; with dense_hermitian_eigenvalues it is the small-N
cross-check of the band path.

Works for smoothed profiles (eta > 0) unchanged, since only rho and rho'
enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eig_banded, eigh

from .channels import Channel
from .radial import NumericalError, Profile

DENSITY_CAP = 8.0  # node density multiplier, relative to 1/rho growth
MAX_CONE_PIECES = 6


def warp_coefficient(channel: Channel, profile: Profile, t) -> np.ndarray:
    """First-order coefficient B at period coordinate t, a float or an array.

    Scalar channels: shape (..., 2, 1), rows [(rho'/rho) w, mu/rho].
    Pair channels: symmetric (..., 2, 2), A0/rho + (rho'/rho) diag(nu, w_alpha).
    """
    rho = np.asarray(profile.rho(t), dtype=float)
    if not np.all(rho > 0):
        raise NumericalError(f"profile radius vanished at t={np.asarray(t)[~(rho > 0)][0]}")
    rp = profile.rho_prime(t)
    mu = math.sqrt(float(channel.mu2))
    B = np.zeros(rho.shape + (2, channel.ncomp))
    if channel.ncomp == 1:
        w = float(channel.interface_weights[0])
        B[..., 0, 0] = w * rp / rho
        B[..., 1, 0] = mu / rho
        return B
    nu = float(channel.interface_weights[0])
    wa = float(channel.interface_weights[1])
    B[..., 0, 0] = rp / rho * nu
    B[..., 1, 1] = rp / rho * wa
    B[..., 0, 1] = B[..., 1, 0] = -mu / rho
    return B


# ---------------------------------------------------------------------------
# grid


def _piece_counts(profile: Profile, n_total: int) -> list[tuple[float, float, int]]:
    """Piecewise-uniform grid plan: (tau_a, tau_b, intervals) per piece.

    Cones are split dyadically in rho (at most MAX_CONE_PIECES pieces) and
    every piece gets node density proportional to min(1/rho_min, cap), so
    resolution follows the 1/rho^2 growth of the potential into the handle.
    """
    pieces: list[tuple[float, float, float]] = []  # (a, b, rho_min)
    for seg in profile.segments:
        if seg.kind in ("cylinder", "handle"):
            pieces.append((seg.tau0, seg.tau1, seg.rho(seg.tau0)))
        elif seg.kind == "corner":
            rmin = min(seg.rho(seg.tau0), seg.rho(seg.tau1), seg.corner_rho)
            pieces.append((seg.tau0, seg.tau1, rmin))
        else:
            lo = min(seg.rho(seg.tau0), seg.rho(seg.tau1))
            hi = max(seg.rho(seg.tau0), seg.rho(seg.tau1))
            bounds = [lo]
            while bounds[-1] < hi and len(bounds) < MAX_CONE_PIECES:
                bounds.append(min(hi, 2.0 * bounds[-1]))
            bounds[-1] = hi
            descending = seg.slope_in < 0

            def tau_of_rho(r: float) -> float:
                return seg.tau0 + (r - seg.rho(seg.tau0)) / seg.slope_in

            rr = bounds[::-1] if descending else bounds
            for r0, r1 in zip(rr, rr[1:]):
                a, b = tau_of_rho(r0), tau_of_rho(r1)
                pieces.append((a, b, min(r0, r1)))

    weights = [(b - a) * min(1.0 / r, DENSITY_CAP) for a, b, r in pieces]
    wsum = sum(weights)
    out = []
    for (a, b, _), w in zip(pieces, weights):
        out.append((a, b, max(2, round(n_total * w / wsum))))
    return out


def _nodes_from_counts(counts: list[tuple[float, float, int]]) -> np.ndarray:
    nodes = [np.linspace(a, b, k, endpoint=False) for a, b, k in counts]
    return np.concatenate(nodes)


# ---------------------------------------------------------------------------
# assembly


@dataclass
class FormMatrix:
    """Discretized quadratic form: stiffness K, diagonal mass W, grid nodes.

    K is Hermitian by construction (entrywise, exactly); complex entries
    appear only through the wrap-around phase.  W holds the trapezoid node
    weights, repeated per section component.
    """

    K: np.ndarray
    W: np.ndarray
    nodes: np.ndarray
    theta: float


def assemble(channel: Channel, theta: float, profile: Profile, N: int) -> FormMatrix:
    """Midpoint discretization of q on a grid of about N intervals, as a
    dense pencil (the cross-check view of the blocks the band solver uses).

    Per interval: h |(s_next - s_j)/h + B(t_mid)(s_j + s_next)/2|^2, the last
    interval wrapping to e^{i theta} s_0.  Continuity of the global unknown
    vector encodes the interface value condition exactly and the derivative
    jump weakly.
    """
    if N < 100:
        raise ValueError(f"grid size N must be at least 100, got {N}")
    G, X, w, nodes = _blocks(channel, theta, profile, _piece_counts(profile, N))
    M, m = G.shape[:2]
    idx = np.arange(M * m).reshape(M, m)
    nxt = np.roll(idx, -1, axis=0)
    K = np.zeros((M * m, M * m), dtype=X.dtype)
    K[idx[:, :, None], idx[:, None, :]] = G
    K[idx[:, :, None], nxt[:, None, :]] = X
    K[nxt[:, None, :], idx[:, :, None]] = X.conj()
    return FormMatrix(K=K, W=np.repeat(w, m), nodes=nodes, theta=theta)


def _blocks(channel: Channel, theta: float, profile: Profile,
            counts: list[tuple[float, float, int]]) -> tuple:
    """(G, X, w, nodes) of the form on the grid of `counts`.

    G (M, m, m): real symmetric diagonal block of each node.  X (M, m, m):
    block coupling node j (rows) to node j+1 (columns); the last one couples
    to node 0 and carries the phase e^{i theta}, and X is complex unless the
    phase is +-1.  w (M,): trapezoid weight of each node.
    """
    nodes = _nodes_from_counts(counts)
    m = channel.ncomp
    t = np.append(nodes, profile.T)
    h = np.diff(t)
    if not np.all(h > 0):
        raise ValueError("non-positive grid step")
    E = warp_coefficient(channel, profile, 0.5 * (t[:-1] + t[1:]))
    # in-slot derivative injection: the derivative row of a scalar channel,
    # both rows of a pair
    S = np.eye(2)[:, :m] / h[:, None, None]
    P = -S + 0.5 * E
    Q = S + 0.5 * E
    hh = h[:, None, None]
    A = hh * np.einsum("jki,jkl->jil", P, P)
    D = hh * np.einsum("jki,jkl->jil", Q, Q)
    X = hh * np.einsum("jki,jkl->jil", P, Q)
    G = A + np.roll(D, 1, axis=0)
    G = 0.5 * (G + G.swapaxes(1, 2))
    if abs(math.remainder(theta, math.pi)) > 1e-12:
        X = X.astype(complex)
        X[-1] *= np.exp(1j * theta)
    elif abs(math.remainder(theta, 2.0 * math.pi)) >= math.pi - 1e-12:
        X[-1] *= -1.0
    w = 0.5 * (h + np.roll(h, 1))
    return G, X, w, nodes


def _fold_index(M: int, m: int) -> np.ndarray:
    """Band index (M, m) of component i at node j under the fold ordering
    0, M-1, 1, M-2, ... of the nodes: neighbours, the wrap pair 0, M-1
    included, sit at most two positions apart."""
    j = np.arange(M)
    pos = np.where(2 * j < M, 2 * j, 2 * (M - 1 - j) + 1)
    return pos[:, None] * m + np.arange(m)


def _band(G: np.ndarray, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^{-1/2} K W^{-1/2} in LAPACK lower band storage, fold-ordered:
    ab[d, c] = H[c + d, c] for d = 0 .. 3m - 1."""
    M, m = G.shape[:2]
    n = M * m
    idx = _fold_index(M, m)
    ab = np.zeros((3 * m, n), dtype=X.dtype)
    il, jl = np.tril_indices(m)
    ab[idx[:, il] - idx[:, jl], idx[:, jl]] = G[:, il, jl]
    r = np.broadcast_to(idx[:, :, None], X.shape)
    c = np.broadcast_to(np.roll(idx, -1, axis=0)[:, None, :], X.shape)
    low = r > c
    ab[(r - c)[low], c[low]] = X[low]
    ab[(c - r)[~low], r[~low]] = X.conj()[~low]
    s = np.empty(n)
    s[idx] = 1.0 / np.sqrt(w)[:, None]
    for d in range(3 * m):
        ab[d, : n - d] *= s[d:] * s[: n - d]
    return ab


# ---------------------------------------------------------------------------
# eigenvalues


def band_hermitian_eigenvalues(ab: np.ndarray, lam_window: tuple[float, float]) -> np.ndarray:
    """Ascending eigenvalues in the half-open window (lo, hi] of the
    Hermitian matrix held in lower band storage ab (real or complex)."""
    try:
        evs = eig_banded(ab, lower=True, eigvals_only=True, select="v",
                         select_range=lam_window)
    except LinAlgError as exc:
        raise NumericalError(f"band eigensolver failed: {exc}") from exc
    return np.sort(evs)


def dense_hermitian_eigenvalues(K: np.ndarray, W: np.ndarray,
                                lam_window: tuple[float, float] | None = None
                                ) -> np.ndarray:
    """Ascending eigenvalues of the pencil (K, W) with W positive diagonal.

    Reduces to the real symmetric or complex Hermitian W^{-1/2} K W^{-1/2}
    and solves it densely.  The oracle does not call it: it is the dense
    cross-check of band_hermitian_eigenvalues.
    """
    W = np.asarray(W, dtype=float)
    if K.shape[0] != K.shape[1] or K.shape[0] != W.shape[0]:
        raise ValueError("dimension mismatch between K and W")
    if not np.all(W > 0):
        raise ValueError("mass matrix must be positive")
    d = 1.0 / np.sqrt(W)
    H = d[:, None] * K * d[None, :]
    kwargs = {}
    if lam_window is not None:
        kwargs = {"subset_by_value": lam_window, "driver": "evr"}
    try:
        evs = eigh(H, eigvals_only=True, **kwargs)
    except LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return np.sort(evs)


def oracle_eigenvalues(channel: Channel, theta: float, profile: Profile,
                       lam_max: float, N: int = 500,
                       richardson: bool = True) -> list[float]:
    """Reference eigenvalues <= lam_max for one channel and quasimomentum.

    Each grid is assembled straight into fold-ordered band storage and
    solved in the window (-1, lam_max + 1] by a banded eigensolver, complex
    Hermitian at generic theta; no dense matrix is formed.  With richardson
    (default), solves on the N grid and the exactly doubled grid and
    combines index-paired eigenvalues as (4 l_2N - l_N) / 3.  Raises
    NumericalError when a pair drifts by more than 0.5, or when a value
    <= lam_max + 0.5 on either grid has no partner on the other.
    """
    if N < 100:
        raise ValueError(f"grid size N must be at least 100, got {N}")
    lam_max = float(lam_max)
    counts = _piece_counts(profile, N)
    window = (-1.0, lam_max + 1.0)

    def solve(cts):
        G, X, w, _ = _blocks(channel, theta, profile, cts)
        return band_hermitian_eigenvalues(_band(G, X, w), window)

    e1 = solve(counts)
    if not richardson:
        return [float(x) for x in e1 if x <= lam_max]
    e2 = solve([(a, b, 2 * k) for a, b, k in counts])
    npair = min(len(e1), len(e2))
    for grid, evs in (("N", e1), ("2N", e2)):
        if len(evs) > npair and evs[npair] <= lam_max + 0.5:
            raise NumericalError(
                f"Richardson pairing broke: eigenvalue {evs[npair]} on the {grid} "
                f"grid has no partner on the other"
            )
    out = []
    for k in range(npair):
        drift = abs(e2[k] - e1[k])
        if drift > 0.5:
            raise NumericalError(
                f"Richardson pairing broke at index {k}: drift {drift}"
            )
        lam = (4.0 * e2[k] - e1[k]) / 3.0
        if lam <= lam_max:
            out.append(float(lam))
    return out
