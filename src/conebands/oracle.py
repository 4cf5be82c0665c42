"""Brute-force reference solver: quadratic-form discretization per scalar key.

A channel is read only as its scalar keys (mu^2, w) (channels.scalar_parts);
each distinct key is solved once, and an H5 pair's reference is the merged
spectra of its two Hodge partners.  For one key the oracle discretizes
q(sigma) = integral |sigma' e_0 + B sigma|^2 over one period with the
quasi-periodic wrap sigma(T) = e^{i theta} sigma(0), where B is the
first-order warp coefficient, the column

    B = [(rho'/rho) w, -mu/rho].

The derivative pairs with (rho'/rho) w in the first row, and -mu/rho acts
as a pure mass that enters only squared (a literal scalar sum would create
a spurious cross term).  Squaring reproduces the cone potential
gamma (gamma + 1) / rho^2 exactly on both cones and mu^2/rho^2 on flats,
and the slope breaks of rho' produce the transmission conditions
variationally, with no hand-coded interface stencils.  That independence
is the point: this module never touches the transfer-matrix code path.

The midpoint rule couples each node only to its two neighbours, so the
form on a grid is an open chain (_chain): a diagonal entry per node, a
coupling per interval and trapezoid weights, half a step at each end.  The
grid is planned from the cut to the handle centre T/2, and the solver
assembles that half chain alone, at every theta.

The mirror t -> T - t commutes with the form: sigma' and rho' change sign
together, so the first row changes sign and its square does not, and the
mirror acts trivially on a scalar.  A section sigma of the period is two
copies of the half chain, u = sigma and v = sigma(T - t), that share their
end nodes, the mirror's fixed points: v = e^{i theta} u at the cut and
v = u at the centre.  At theta = 0 and pi, the band edges, the phase is
real and the sections even and odd under the mirror, v = +-u, decouple:
each parity is one copy of the half chain that keeps its cut node iff
phase = parity and its centre node iff parity = +1, a real symmetric band
of half-width 1.  At any other theta the two copies are interleaved node
by node, a complex Hermitian band of half-width 2.  One writer (_band)
lays out both, scaled by W^{-1/2}, in LAPACK lower band storage for a
banded eigensolver restricted to the window.

No dense matrix is formed on the solver's path.  assemble() alone builds
the glued period, one block per key: the chain of the whole period with
node M (t = T) merged into node 0 and the phase e^{i theta} on the
coupling into it.  With dense_hermitian_eigenvalues it is the small-N
cross-check of the mirror reduction at every theta.

Works for smoothed profiles (eta > 0) unchanged, since only rho and rho'
enter.

Importing this module loads numpy only.  scipy.linalg is imported by the
eigensolvers on the first solve, so a census that never calls the oracle
loads no scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import Channel, check_lam_max, scalar_parts
from .radial import NumericalError, Profile, check_theta

DENSITY_CAP = 8.0  # node density multiplier, relative to 1/rho growth
MAX_CONE_PIECES = 6
# largest share of the window's scale max(1, |lo|, |hi|) that the banded
# solver's rounding bound eps * max|H_jj| may reach on a grid
ROUNDING_TOL = 1e-6


def warp_coefficient(mu2, w, profile: Profile, t) -> np.ndarray:
    """First-order coefficient B of the scalar key (mu^2, w) at period
    coordinate t, a float or an array: the column [(rho'/rho) w, -mu/rho],
    shape (..., 2).
    """
    rho = np.asarray(profile.rho(t), dtype=float)
    if not np.all(rho > 0):
        raise NumericalError(f"profile radius vanished at t={np.asarray(t)[~(rho > 0)][0]}")
    return np.stack([profile.rho_prime(t) / rho * float(w),
                     -math.sqrt(float(mu2)) / rho], axis=-1)


# ---------------------------------------------------------------------------
# grid


def _half_grids(profile: Profile, N) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the N grid from the cut to the handle centre T/2, both
    ends included, and of the grid that halves each of its intervals.

    The plan is piecewise uniform on Profile.pieces: cones are split
    dyadically in rho (at most MAX_CONE_PIECES pieces) and every piece gets
    node density proportional to min(1/rho_min, cap), so resolution follows
    the 1/rho^2 growth of the potential into the handle.  The intervals sum
    to about N / 2; the period's grid is the half grid and its mirror image
    under t -> T - t.  Raises ValueError unless N is an integer (not a
    bool) >= 100.
    """
    if not isinstance(N, numbers.Integral) or isinstance(N, bool) or N < 100:
        raise ValueError(f"grid size N must be an integer >= 100, got {N!r}")
    pieces: list[tuple[float, float, float]] = []  # (a, b, rho_min)
    for a, b, slope in profile.pieces():
        ra, rb = profile.rho(a), profile.rho(b)
        if slope != -1.0:
            # flat, or a rounded corner, whose radius is monotone
            pieces.append((a, b, min(ra, rb)))
            continue
        # the cone, descending from ra to rb
        bounds = [rb]
        while bounds[-1] < ra and len(bounds) < MAX_CONE_PIECES:
            bounds.append(min(ra, 2.0 * bounds[-1]))
        bounds[-1] = ra
        rr = bounds[::-1]
        for r0, r1 in zip(rr, rr[1:]):
            pieces.append((a + (ra - r0), a + (ra - r1), r1))
    # a cone that reaches the centre (L = 0) ends at a + (ra - rb), which
    # rounding may move off T/2
    a, _, r = pieces[-1]
    pieces[-1] = (a, 0.5 * profile.T, r)

    weights = [(b - a) * min(1.0 / r, DENSITY_CAP) for a, b, r in pieces]
    wsum = 2.0 * sum(weights)
    counts = [max(2, round(N * w / wsum)) for w in weights]
    return tuple(np.append(np.concatenate([np.linspace(a, b, s * k, endpoint=False)
                                           for (a, b, _), k in zip(pieces, counts)]),
                           0.5 * profile.T)
                 for s in (1, 2))


# ---------------------------------------------------------------------------
# assembly


@dataclass
class FormMatrix:
    """Discretized quadratic form: stiffness K and diagonal mass W.

    K is Hermitian by construction (entrywise, exactly); complex entries
    appear only through the wrap-around phase.  W holds the trapezoid node
    weights, repeated per key.
    """

    K: np.ndarray
    W: np.ndarray


def assemble(channel: Channel, theta: float, profile: Profile, N: int) -> FormMatrix:
    """Midpoint discretization of q on the period's grid of about N
    intervals, as a dense pencil: the direct sum over the channel's keys
    (scalar_parts, in order) of each key's glued period.  Nothing else
    builds a glued period: the band solver assembles the half chain alone,
    so a dense solve of this pencil cross-checks its mirror reduction.

    Per interval: h |(s_next - s_j)/h e_0 + B(t_mid)(s_j + s_next)/2|^2.
    The chain of the N grid's half nodes and their mirror image is glued at
    the cut: node M (t = T) merges into node 0, and the last interval wraps
    to e^{i theta} s_0, so K is complex unless the phase is +-1.
    Continuity of the global unknown vector encodes the interface value
    condition exactly and the derivative jump weakly.
    """
    half = _half_grids(profile, N)[0]
    t = np.concatenate([half, profile.T - half[-2::-1]])
    phase = _real_phase(theta)
    if phase is None:
        phase = np.exp(1j * theta)
    keys = scalar_parts(channel)
    M = len(t) - 1
    K = np.zeros((M * len(keys),) * 2, dtype=type(phase))
    for k, (mu2, w) in enumerate(keys):
        G, X, wt = _chain(mu2, w, profile, t)
        G[0] += G[-1]
        wt[0] += wt[-1]
        X = X.astype(K.dtype)
        X[-1] *= phase
        idx = k * M + np.arange(M)
        nxt = np.roll(idx, -1)
        K[idx, idx] = G[:-1]
        K[idx, nxt] = X
        K[nxt, idx] = X.conj()
    return FormMatrix(K=K, W=np.tile(wt[:-1], len(keys)))


def _real_phase(theta: float) -> float | None:
    """e^{i theta} as the float 1.0 or -1.0 when theta is within 1e-12 of
    an even or an odd multiple of pi, else None.  Raises ValueError for a
    non-finite theta."""
    check_theta(theta)
    if abs(math.remainder(theta, math.pi)) > 1e-12:
        return None
    return -1.0 if abs(math.remainder(theta, 2.0 * math.pi)) >= math.pi - 1e-12 else 1.0


def _chain(mu2, w, profile: Profile, t: np.ndarray) -> tuple:
    """(G, X, wt) of the key's form on the open chain of nodes t, both ends
    included.

    G (n + 1,): diagonal entry of each node.  X (n,): coupling of node j to
    node j + 1.  wt (n + 1,): trapezoid weight of each node, half a step at
    the two ends.
    """
    h = np.diff(t)
    if not np.all(h > 0):
        raise ValueError("non-positive grid step")
    E = 0.5 * warp_coefficient(mu2, w, profile, 0.5 * (t[:-1] + t[1:]))
    # the derivative enters the first row alone: per interval the form is
    # h |P s_j + Q s_next|^2
    D = np.c_[1.0 / h, np.zeros_like(h)]
    P, Q = E - D, E + D
    G = np.zeros(len(t))
    G[:-1] += h * (P * P).sum(axis=1)
    G[1:] += h * (Q * Q).sum(axis=1)
    X = h * (P * Q).sum(axis=1)
    wt = np.zeros(len(t))
    wt[:-1] += 0.5 * h
    wt[1:] += 0.5 * h
    return G, X, wt


def _band(G: np.ndarray, X: np.ndarray, wt: np.ndarray, phase: complex,
          parity: float | None = None) -> np.ndarray:
    """W^{-1/2} K W^{-1/2} of the period, laid out from the half chain
    (G, X, wt) of _chain on the nodes 0 (the cut) .. K (the handle centre),
    in lower band storage: ab[d, c] = H[c + d, c].

    The mirror t -> T - t acts trivially on a scalar, and at the cut
    multiplies by the phase e^{i theta}: a section is two copies of the
    half chain, u = sigma and v = sigma(T - t), with v_0 = phase u_0 and
    v_K = u_K.  Given a parity +-1 (the phase then real), v = parity u and
    the band is one copy in natural order that keeps the cut node iff
    phase = parity and the centre node iff parity = +1: a real band of
    half-width 1.  Without one the two copies are interleaved, u_0, u_1,
    v_1, .., u_{K-1}, v_{K-1}, u_K: an end node carries 2G and weight 2wt,
    the coupling u_0 -> v_1 carries conj(phase), and the band is complex
    of half-width 2.
    """
    K = len(X)
    if parity is not None:
        first, last = int(phase != parity), K + int(parity == 1.0)
        G, wt, L = G[first:last], wt[first:last], X[first:last - 1]
        a = np.arange(len(L))
        b = a + 1
    else:
        # the slots hold the half nodes 0, 1, 1, 2, 2, .., K - 1, K - 1, K;
        # u and v list the slots of u_0 .. u_K and of v_0 .. v_K
        node = np.r_[0, np.repeat(np.arange(1, K), 2), K]
        u = np.r_[0, np.arange(1, 2 * K, 2)]
        v = np.r_[0, np.arange(2, 2 * K, 2), 2 * K - 1]
        G, wt = G[node], wt[node]
        G[[0, -1]] *= 2.0
        wt[[0, -1]] *= 2.0
        Xv = X.astype(complex)
        Xv[0] *= np.conj(phase)
        a, b, L = np.r_[u[:-1], v[:-1]], np.r_[u[1:], v[1:]], np.concatenate([X, Xv])
    c = 1.0 / np.sqrt(wt)
    # L[l] couples slot a[l] to slot b[l] > a[l]; the lower triangle holds
    # its conjugate
    ab = np.zeros((int((b - a).max()) + 1, len(wt)), dtype=L.dtype)
    ab[0] = G / wt
    ab[b - a, a] = (L * (c[a] * c[b])).conj()
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
    and solves it densely.  The oracle does not call it: on assemble's
    pencil it is the dense cross-check of the banded solve, mirror
    reduction included.
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


def _grid_eigenvalues(mu2, w, theta: float, profile: Profile, nodes: np.ndarray,
                      window: tuple[float, float]) -> np.ndarray:
    """Eigenvalues in the window of the scalar key's form on the grid whose
    half-period nodes, from the cut to the handle centre, are `nodes`,
    solved by a banded eigensolver.

    Only the chain of the half nodes is assembled, and _band lays the period
    out from it: at theta = 0 and pi (within 1e-12) one real band for each
    mirror parity, the two lists merged; elsewhere one complex band of the
    two interleaved copies.  Raises ValueError for a non-finite theta.

    The solver's eigenvalues carry a rounding error of about eps * ||H||.
    A grid step h gives ||H|| ~ 1/h^2, so a narrow rounded corner can leave
    that error far above the eigenvalues sought: NumericalError, naming the
    bound eps * max|H_jj|, when it exceeds ROUNDING_TOL of the window's
    scale."""
    phase = _real_phase(theta)
    G, X, wt = _chain(mu2, w, profile, nodes)
    if phase is None:
        bands = [_band(G, X, wt, np.exp(1j * theta))]
    else:
        bands = [_band(G, X, wt, phase, parity) for parity in (1.0, -1.0)]
    bound = np.finfo(float).eps * max(float(np.abs(ab[0]).max()) for ab in bands)
    scale = max(1.0, abs(window[0]), abs(window[1]))
    if bound > ROUNDING_TOL * scale:
        raise NumericalError(
            f"rounding bound eps * max|H_jj| = {bound:.3g} of the {len(wt)}-node half-period "
            f"grid exceeds {ROUNDING_TOL:g} * {scale:g}: a profile piece is too narrow"
        )
    return np.sort(np.concatenate([band_hermitian_eigenvalues(ab, window) for ab in bands]))


def oracle_eigenvalues(channel: Channel, theta: float, profile: Profile,
                       lam_max: float, N: int = 500) -> list[float]:
    """Reference eigenvalues <= lam_max for one channel and quasimomentum:
    the sorted merge of its keys' lists (scalar_parts), each distinct key
    solved once, so partners with one key list every value twice.

    A key is solved in the window (-1, lam_max + 1] on the N grid and on
    the grid that halves each of its intervals (_half_grids,
    _grid_eigenvalues: the half period alone, no dense matrix), and
    index-paired eigenvalues are combined by Richardson extrapolation,
    (4 l_2N - l_N) / 3.  Raises NumericalError when a pair drifts by more
    than 0.5, or when a value <= lam_max + 0.5 on either grid has no
    partner on the other, or when a grid's rounding bound is too large
    (_grid_eigenvalues).  Raises ValueError for a non-finite theta, a
    lam_max that is not finite and >= 0 or a grid size N that is not an
    integer >= 100.
    """
    lam_max = check_lam_max(lam_max)
    grids = _half_grids(profile, N)
    keys = scalar_parts(channel)
    solved = {key: _extrapolated(*key, theta, profile, grids, lam_max)
              for key in dict.fromkeys(keys)}
    return sorted(lam for key in keys for lam in solved[key])


def _extrapolated(mu2, w, theta: float, profile: Profile, grids: tuple,
                  lam_max: float) -> list[float]:
    """Richardson-extrapolated eigenvalues <= lam_max of one scalar key from
    its solves on the two half-period grids (oracle_eigenvalues)."""
    window = (-1.0, lam_max + 1.0)
    e1, e2 = (_grid_eigenvalues(mu2, w, theta, profile, nodes, window) for nodes in grids)
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
