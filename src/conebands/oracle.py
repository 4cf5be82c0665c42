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

The midpoint rule couples each node only to its two neighbours, so the
form on a grid is an open chain (_chain): a diagonal block per node, a
coupling block per interval and trapezoid weights, half a step at each
end.  The grid is planned from the cut to the handle centre T/2; the
period's nodes are those half nodes, then T minus them reversed.

At generic theta the period's chain is glued at the cut: node M (t = T)
merges into node 0 and the coupling block into it takes the phase
e^{i theta}.  The solver stores the blocks in LAPACK lower band storage
under the fold ordering 0, M-1, 1, M-2, ..., which keeps the wrap inside a
band of half-width 3m - 1, scales them by W^{-1/2} in place and hands them
to a complex Hermitian banded eigensolver restricted to the window.

At theta = 0 and pi, the band edges, the phase is real and the mirror
t -> T - t commutes with the form (it flips A0 and rho' together).  A
section even or odd under it is the form on the half period whose two
ends, the mirror's fixed points, keep only the components the parity
allows: each parity is the half chain alone, a real symmetric band of
half-width 2m - 1.  Halving n, and for a pair cutting kd from 5 to 3,
makes the banded reduction (about n^2 kd) several times cheaper than the
fold band.  No dense matrix is formed on either path; assemble() builds
the dense pencil of the glued period, with dense_hermitian_eigenvalues the
small-N cross-check of the band paths.

Works for smoothed profiles (eta > 0) unchanged, since only rho and rho'
enter.

Importing this module loads numpy only.  scipy.linalg is imported by the
eigensolvers on the first solve, so a census that never calls the oracle
loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, check_lam_max
from .radial import NumericalError, Profile, check_theta

DENSITY_CAP = 8.0  # node density multiplier, relative to 1/rho growth
MAX_CONE_PIECES = 6
# largest share of the window's scale max(1, |lo|, |hi|) that the banded
# solver's rounding bound eps * max|H_jj| may reach on a grid
ROUNDING_TOL = 1e-6


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
    """Piecewise-uniform grid plan of the half period from the cut to the
    handle centre: (tau_a, tau_b, intervals) per piece, the last piece
    ending at T/2 exactly.

    Cones are split dyadically in rho (at most MAX_CONE_PIECES pieces) and
    every piece gets node density proportional to min(1/rho_min, cap), so
    resolution follows the 1/rho^2 growth of the potential into the handle.
    The counts sum to about n_total / 2; the period's grid is the half grid
    and its mirror image under t -> T - t (_period_nodes).
    """
    whole = profile.pieces()
    pieces: list[tuple[float, float, float]] = []  # (a, b, rho_min)
    for a, b, slope in whole[: (len(whole) + 1) // 2]:
        ra, rb = profile.rho(a), profile.rho(b)
        if abs(slope) != 1.0:
            # flat, or a rounded corner, whose radius is monotone
            pieces.append((a, b, min(ra, rb)))
            continue
        lo, hi = min(ra, rb), max(ra, rb)
        bounds = [lo]
        while bounds[-1] < hi and len(bounds) < MAX_CONE_PIECES:
            bounds.append(min(hi, 2.0 * bounds[-1]))
        bounds[-1] = hi
        rr = bounds[::-1] if slope < 0 else bounds
        for r0, r1 in zip(rr, rr[1:]):
            pieces.append((a + (r0 - ra) / slope, a + (r1 - ra) / slope, min(r0, r1)))
    a, _, r = pieces[-1]
    pieces[-1] = (a, 0.5 * profile.T, r)

    weights = [(b - a) * min(1.0 / r, DENSITY_CAP) for a, b, r in pieces]
    wsum = 2.0 * sum(weights)
    return [(a, b, max(2, round(n_total * w / wsum))) for (a, b, _), w in zip(pieces, weights)]


def _check_grid_size(N) -> None:
    """ValueError unless the grid size N is an int (not a bool) >= 100."""
    if not isinstance(N, int) or isinstance(N, bool) or N < 100:
        raise ValueError(f"grid size N must be an integer >= 100, got {N!r}")


def _nodes_from_counts(counts: list[tuple[float, float, int]]) -> np.ndarray:
    """Nodes of the plan `counts`, both ends included."""
    nodes = [np.linspace(a, b, k, endpoint=False) for a, b, k in counts]
    return np.append(np.concatenate(nodes), counts[-1][1])


def _period_nodes(profile: Profile, counts: list[tuple[float, float, int]]) -> np.ndarray:
    """Nodes t_0 = 0 .. t_M = T of the period: the half nodes of `counts`,
    then T minus them reversed."""
    half = _nodes_from_counts(counts)
    return np.concatenate([half, profile.T - half[-2::-1]])


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


def assemble(channel: Channel, theta: float, profile: Profile, N: int) -> FormMatrix:
    """Midpoint discretization of q on a grid of about N intervals, as a
    dense pencil (the cross-check view of the blocks the band solver uses).

    Per interval: h |(s_next - s_j)/h + B(t_mid)(s_j + s_next)/2|^2, the last
    interval wrapping to e^{i theta} s_0.  Continuity of the global unknown
    vector encodes the interface value condition exactly and the derivative
    jump weakly.
    """
    _check_grid_size(N)
    G, X, w, nodes = _period(channel, theta, profile, _piece_counts(profile, N))
    M, m = G.shape[:2]
    idx = np.arange(M * m).reshape(M, m)
    nxt = np.roll(idx, -1, axis=0)
    K = np.zeros((M * m, M * m), dtype=X.dtype)
    K[idx[:, :, None], idx[:, None, :]] = G
    K[idx[:, :, None], nxt[:, None, :]] = X
    K[nxt[:, None, :], idx[:, :, None]] = X.conj()
    return FormMatrix(K=K, W=np.repeat(w, m), nodes=nodes)


def _real_phase(theta: float) -> float | None:
    """e^{i theta} as the float 1.0 or -1.0 when theta is within 1e-12 of
    an even or an odd multiple of pi, else None.  Raises ValueError for a
    non-finite theta."""
    check_theta(theta)
    if abs(math.remainder(theta, math.pi)) > 1e-12:
        return None
    return -1.0 if abs(math.remainder(theta, 2.0 * math.pi)) >= math.pi - 1e-12 else 1.0


def _chain(channel: Channel, profile: Profile, t: np.ndarray) -> tuple:
    """(G, X, w) of the form on the open chain of nodes t, both ends
    included.

    G (n + 1, m, m): real symmetric diagonal block of each node.  X (n, m, m):
    block coupling node j (rows) to node j + 1 (columns).  w (n + 1,):
    trapezoid weight of each node, half a step at the two ends.
    """
    m = channel.ncomp
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
    G = np.zeros((len(t), m, m))
    G[:-1] += hh * np.einsum("jki,jkl->jil", P, P)
    G[1:] += hh * np.einsum("jki,jkl->jil", Q, Q)
    G = 0.5 * (G + G.swapaxes(1, 2))
    X = hh * np.einsum("jki,jkl->jil", P, Q)
    w = np.zeros(len(t))
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return G, X, w


def _period(channel: Channel, theta: float, profile: Profile,
            counts: list[tuple[float, float, int]]) -> tuple:
    """(G, X, w, nodes) of the form on the period's M nodes: the chain of
    _period_nodes with node M glued onto node 0.  The last block of X
    couples node M - 1 to node 0 and carries the phase e^{i theta}, and X
    is complex unless the phase is +-1."""
    phase = _real_phase(theta)
    t = _period_nodes(profile, counts)
    G, X, w = _chain(channel, profile, t)
    G[0] += G[-1]
    w[0] += w[-1]
    if phase is None:
        X = X.astype(complex)
        X[-1] *= np.exp(1j * theta)
    else:
        X[-1] *= phase
    return G[:-1], X, w[:-1], t[:-1]


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


def _half_band(G: np.ndarray, X: np.ndarray, w: np.ndarray, phase: float,
               parity: float) -> np.ndarray:
    """W^{-1/2} K W^{-1/2} of the half chain (_chain of the nodes from the
    cut to the handle centre) at the real phase e^{i theta} = +-1, for the
    sections of the given parity under the mirror t -> T - t, in
    natural-order lower band storage: ab[d, c] = H[c + d, c] for
    d = 0 .. 2m - 1.

    The mirror multiplies the components by S = diag(1, -1)[:m] (it flips
    A0 and rho'), and at the cut also by the phase.  A section of the given
    parity is the form on the half chain whose two end nodes, each fixed by
    the mirror, keep only the components the parity allows: S_ii = parity
    at the centre, phase * S_ii = parity at the cut.
    """
    n, m = G.shape[:2]
    sign = np.array([1.0, -1.0])[:m]
    keep = np.ones((n, m), dtype=bool)
    keep[0] = phase * sign == parity
    keep[-1] = sign == parity
    idx = np.cumsum(keep).reshape(n, m) - 1
    c = 1.0 / np.sqrt(w)
    D = G / w[:, None, None]
    L = X * (c[:-1] * c[1:])[:, None, None]
    ab = np.zeros((2 * m, int(keep.sum())))
    il, jl = np.tril_indices(m)
    ok = keep[:, il] & keep[:, jl]
    ab[(idx[:, il] - idx[:, jl])[ok], idx[:, jl][ok]] = D[:, il, jl][ok]
    # L[j, i, k] couples component i of node j to component k of node j + 1
    r = np.broadcast_to(idx[1:, None, :], L.shape)
    col = np.broadcast_to(idx[:-1, :, None], L.shape)
    ok = keep[:-1, :, None] & keep[1:, None, :]
    ab[(r - col)[ok], col[ok]] = L[ok]
    return ab


# ---------------------------------------------------------------------------
# eigenvalues


def band_hermitian_eigenvalues(ab: np.ndarray, lam_window: tuple[float, float]) -> np.ndarray:
    """Ascending eigenvalues in the half-open window (lo, hi] of the
    Hermitian matrix held in lower band storage ab (real or complex)."""
    from scipy.linalg import LinAlgError, eig_banded

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
    from scipy.linalg import LinAlgError, eigh

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


def _grid_eigenvalues(channel: Channel, theta: float, profile: Profile,
                      counts: list[tuple[float, float, int]],
                      window: tuple[float, float]) -> np.ndarray:
    """Eigenvalues in the window of the form on the grid of the half plan
    `counts`, assembled straight into band storage and solved by a banded
    eigensolver.

    At theta = 0 and pi (within 1e-12) the mirror t -> T - t commutes with
    the form: the chain of the half nodes alone is solved once for each
    parity as a real symmetric band of half-width 2m - 1 (_half_band), and
    the two lists merged; no second half is built.  Any other theta solves
    the whole period, glued at the cut, as one complex Hermitian band of
    half-width 3m - 1 (_band).  Raises ValueError for a non-finite theta.

    The solver's eigenvalues carry a rounding error of about eps * ||H||.
    A grid step h gives ||H|| ~ 1/h^2, so a narrow rounded corner can leave
    that error far above the eigenvalues sought: NumericalError, naming the
    bound eps * max|H_jj|, when it exceeds ROUNDING_TOL of the window's
    scale."""
    phase = _real_phase(theta)
    if phase is None:
        G, X, w, _ = _period(channel, theta, profile, counts)
        bands = [_band(G, X, w)]
    else:
        G, X, w = _chain(channel, profile, _nodes_from_counts(counts))
        bands = [_half_band(G, X, w, phase, parity) for parity in (1.0, -1.0)]
    bound = np.finfo(float).eps * max(float(np.abs(ab[0]).max()) for ab in bands)
    scale = max(1.0, abs(window[0]), abs(window[1]))
    if bound > ROUNDING_TOL * scale:
        raise NumericalError(
            f"rounding bound eps * max|H_jj| = {bound:.3g} of the {len(w)}-node grid "
            f"exceeds {ROUNDING_TOL:g} * {scale:g}: a profile piece is too narrow"
        )
    return np.sort(np.concatenate([band_hermitian_eigenvalues(ab, window) for ab in bands]))


def oracle_eigenvalues(channel: Channel, theta: float, profile: Profile,
                       lam_max: float, N: int = 500) -> list[float]:
    """Reference eigenvalues <= lam_max for one channel and quasimomentum.

    Solves in the window (-1, lam_max + 1] on the N grid and on the exactly
    doubled grid (_grid_eigenvalues; no dense matrix is formed) and
    combines index-paired eigenvalues by Richardson extrapolation,
    (4 l_2N - l_N) / 3.  At theta = 0 and pi each grid is solved on the
    half period alone, once for each mirror parity.  Raises NumericalError
    when a pair drifts by more than 0.5, or when a value <= lam_max + 0.5
    on either grid has no partner on the other, or when a grid's rounding
    bound is too large (_grid_eigenvalues).  Raises ValueError for a
    non-finite theta, a lam_max that is not finite and >= 0 or a grid size
    N that is not an integer >= 100.
    """
    lam_max = check_lam_max(lam_max)
    _check_grid_size(N)
    counts = _piece_counts(profile, N)
    window = (-1.0, lam_max + 1.0)
    e1 = _grid_eigenvalues(channel, theta, profile, counts, window)
    e2 = _grid_eigenvalues(channel, theta, profile, [(a, b, 2 * k) for a, b, k in counts],
                           window)
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
