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
assembles that half chain alone, at every theta.  What depends on neither
theta nor the key, the steps, rho'/rho and -1/rho at the midpoints and the
weights (_geometry), is planned once per (profile, N) (_plan) and shared
by every key and theta; a key's chain scales it by the row [w, mu].

The mirror t -> T - t commutes with the form: sigma' and rho' change sign
together, so the first row changes sign and its square does not, and the
mirror acts trivially on a scalar.  A section sigma of the period is two
copies of the half chain, u = sigma and v = sigma(T - t), that share their
end nodes, the mirror's fixed points: v = e^{i theta} u at the cut and
v = u at the centre.  In the even and odd parts p, q = (u +- v) / sqrt(2)
the period is one path at every theta: the odd chain, the cut node, the
even chain and the centre node, with the cut node joined to the two chains
by radial.half_angles (_path).  A diagonal unitary removes the phases, so
the path, scaled by W^{-1/2}, is a real symmetric tridiagonal, and one
bisection restricted to the window solves a grid.  At theta = 0 and pi,
the band edges, one join is exactly 0 and the path is the two mirror
parities side by side.

No dense matrix is formed on the solver's path.  assemble() alone builds
the glued period, one block per key: the chain of the whole period with
node M (t = T) merged into node 0 and the phase e^{i theta} on the
coupling into it, real exactly where a join is 0.  With
dense_hermitian_eigenvalues it is the small-N cross-check of the mirror
reduction at every theta.

Works for smoothed profiles (eta > 0) unchanged, since only rho and rho'
enter.

Importing this module loads numpy only.  scipy.linalg is imported by the
eigensolvers on the first solve, so a census that never calls the oracle
loads no scipy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import Channel, check_lam_max, scalar_parts
from .radial import NumericalError, Profile, half_angles

DENSITY_CAP = 8.0  # node density multiplier, relative to 1/rho growth
MAX_CONE_PIECES = 6
# largest share of the window's scale max(1, |lo|, |hi|) that the
# tridiagonal solver's rounding bound eps * max|H_jj| may reach on a grid
ROUNDING_TOL = 1e-6
PLAN_CACHE = 8  # (profile, N) plans kept, a few tens of kB each at N = 500


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


def _check_grid_size(N) -> None:
    """Raise ValueError unless N is an integer (not a bool) >= 100."""
    if not isinstance(N, numbers.Integral) or isinstance(N, bool) or N < 100:
        raise ValueError(f"grid size N must be an integer >= 100, got {N!r}")


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
    _check_grid_size(N)
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


def _geometry(profile: Profile, t: np.ndarray) -> tuple:
    """(h, B1, wt) of the open chain of nodes t, both ends included: what
    every key's chain on it shares.

    h (n,): the grid steps.  B1 (n, 2): warp_coefficient(1, 1) at the
    midpoints, the columns rho'/rho and -1/rho.  wt (n + 1,): trapezoid
    weight of each node, half a step at the two ends.
    """
    h = np.diff(t)
    if not np.all(h > 0):
        raise ValueError("non-positive grid step")
    B1 = warp_coefficient(1, 1, profile, 0.5 * (t[:-1] + t[1:]))
    wt = np.zeros(len(t))
    wt[:-1] += 0.5 * h
    wt[1:] += 0.5 * h
    return h, B1, wt


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(profile: Profile, N) -> tuple:
    """_geometry of both half-period grids of _half_grids(profile, N),
    built once per (profile, N) and shared by every key and theta; its
    arrays are read-only.  Validate N first (_check_grid_size): the cache
    takes 500.0 for 500.
    """
    plan = tuple(_geometry(profile, t) for t in _half_grids(profile, N))
    for geometry in plan:
        for a in geometry:
            a.flags.writeable = False
    return plan


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
    builds a glued period: the path solver assembles the half chain alone,
    so a dense solve of this pencil cross-checks its mirror reduction.  The
    period's _geometry is built here, outside the plan cache.

    Per interval: h |(s_next - s_j)/h e_0 + B(t_mid)(s_j + s_next)/2|^2.
    The chain of the N grid's half nodes and their mirror image is glued at
    the cut: node M (t = T) merges into node 0, and the last interval wraps
    to e^{i theta} s_0, so K is complex unless theta reduces to 0 or +-pi
    (half_angles), where the phase is the float 1.0 or -1.0.  Continuity
    of the global unknown vector encodes the interface value condition
    exactly and the derivative jump weakly.
    """
    s, c = half_angles(theta)
    phase = 1.0 if s == 0.0 else -1.0 if c == 0.0 else np.exp(1j * theta)
    half = _half_grids(profile, N)[0]
    t = np.concatenate([half, profile.T - half[-2::-1]])
    geometry = _geometry(profile, t)
    keys = scalar_parts(channel)
    M = len(t) - 1
    K = np.zeros((M * len(keys),) * 2, dtype=type(phase))
    for k, (mu2, w) in enumerate(keys):
        G, X, wt = _chain(mu2, w, geometry)
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


def _chain(mu2, w, geometry: tuple) -> tuple:
    """(G, X, wt) of the key's form on the open chain of _geometry.

    G (n + 1,): diagonal entry of each node.  X (n,): coupling of node j to
    node j + 1.  wt (n + 1,): a writable copy of the trapezoid weights.
    """
    h, B1, wt = geometry
    # the key's B is B1 scaled by the row [w, mu]
    E = 0.5 * (B1 * [float(w), math.sqrt(float(mu2))])
    # the derivative enters the first row alone: per interval the form is
    # h |P s_j + Q s_next|^2
    D = np.c_[1.0 / h, np.zeros_like(h)]
    P, Q = E - D, E + D
    G = np.zeros(len(wt))
    G[:-1] += h * (P * P).sum(axis=1)
    G[1:] += h * (Q * Q).sum(axis=1)
    X = h * (P * Q).sum(axis=1)
    return G, X, wt.copy()


def _path(G: np.ndarray, X: np.ndarray, wt: np.ndarray, joins: tuple) -> tuple:
    """W^{-1/2} K W^{-1/2} of the period at the quasimomentum whose
    half_angles are joins = (|sin(theta/2)|, |cos(theta/2)|), laid out
    from the half chain (G, X, wt) of _chain on the nodes 0 (the cut) .. K
    (the handle centre) as the real symmetric tridiagonal (d, e) of the
    path q_{K-1} .. q_1, u_0, p_1 .. p_{K-1}, u_K.

    The mirror t -> T - t acts trivially on a scalar, and at the cut
    multiplies by the phase e^{i theta}: a section is two copies of the
    half chain, u = sigma and v = sigma(T - t), with v_0 = e^{i theta} u_0
    and v_K = u_K.  In p, q = (u +- v) / sqrt(2) the chains of the even
    part p and the odd part q decouple but at u_0, which meets p_1 and q_1
    with the weights |cos(theta/2)| and |sin(theta/2)| once a diagonal
    unitary removes their phases; u_K meets p_{K-1} alone.  Where a join is
    0, the path falls apart into the two mirror parities.
    """
    K = len(X)
    # the half node of each path node; u_0 sits at K - 1
    node = np.r_[K - 1:0:-1, 0:K + 1]
    c = 1.0 / np.sqrt(wt[node])
    e = X[np.minimum(node[:-1], node[1:])] * (c[:-1] * c[1:])
    e[K - 2:K] *= joins  # q_1 - u_0 and u_0 - p_1
    return (G / wt)[node], e


# ---------------------------------------------------------------------------
# eigenvalues


def tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray,
                            lam_window: tuple[float, float]) -> np.ndarray:
    """Ascending eigenvalues in the half-open window (lo, hi] of the real
    symmetric tridiagonal with diagonal d and off-diagonal e, by bisection
    (LAPACK dstebz) with the absolute tolerance 2 * dlamch('S'), LAPACK's
    choice for the most accurate eigenvalues."""
    from scipy.linalg import lapack

    lo, hi = lam_window
    m, evs, _, _, info = lapack.dstebz(np.asarray_chkfinite(d, dtype=float),
                                       np.asarray_chkfinite(e, dtype=float), 1, lo, hi, 0, 0,
                                       2.0 * lapack.dlamch("S"), "E")
    if info != 0:
        raise NumericalError(f"tridiagonal bisection failed: dstebz info {info}")
    return evs[:m]  # order "E": ascending over the whole matrix


def dense_hermitian_eigenvalues(K: np.ndarray, W: np.ndarray,
                                lam_window: tuple[float, float] | None = None
                                ) -> np.ndarray:
    """Ascending eigenvalues of the pencil (K, W) with W positive diagonal.

    Reduces to the real symmetric or complex Hermitian W^{-1/2} K W^{-1/2}
    and solves it densely.  The oracle does not call it: on assemble's
    pencil it is the dense cross-check of the tridiagonal solve, mirror
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


def _grid_eigenvalues(mu2, w, joins: tuple, geometry: tuple,
                      window: tuple[float, float]) -> np.ndarray:
    """Eigenvalues in the window of the scalar key's form on one
    half-period grid, from the cut to the handle centre, given by its
    _geometry (a grid of _plan), at the quasimomentum whose half_angles
    are joins.

    Only the chain of the half nodes is assembled, and _path lays the
    period out from it as one real tridiagonal at every theta, solved by
    one bisection (tridiagonal_eigenvalues).

    The solver's eigenvalues carry a rounding error of about eps * ||H||.
    A grid step h gives ||H|| ~ 1/h^2, so a narrow rounded corner can leave
    that error far above the eigenvalues sought: NumericalError, naming the
    bound eps * max|H_jj|, when it exceeds ROUNDING_TOL of the window's
    scale."""
    G, X, wt = _chain(mu2, w, geometry)
    d, e = _path(G, X, wt, joins)
    bound = np.finfo(float).eps * float(np.abs(d).max())
    scale = max(1.0, abs(window[0]), abs(window[1]))
    if bound > ROUNDING_TOL * scale:
        raise NumericalError(
            f"rounding bound eps * max|H_jj| = {bound:.3g} of the {len(wt)}-node half-period "
            f"grid exceeds {ROUNDING_TOL:g} * {scale:g}: a profile piece is too narrow"
        )
    return tridiagonal_eigenvalues(d, e, window)


def oracle_eigenvalues(channel: Channel, theta: float, profile: Profile,
                       lam_max: float, N: int = 500) -> list[float]:
    """Reference eigenvalues <= lam_max for one channel and quasimomentum:
    the sorted merge of its keys' lists (scalar_parts), each distinct key
    solved once, so partners with one key list every value twice.

    A key is solved in the window (-1, lam_max + 1] on the N grid and on
    the grid that halves each of its intervals (_half_grids,
    _grid_eigenvalues: the half period alone, no dense matrix and no band
    storage), both planned once per (profile, N) (_plan), by one bisection
    per grid of one real tridiagonal, the period's mirror path, at every
    theta.  Index-paired eigenvalues are combined by Richardson
    extrapolation, (4 l_2N - l_N) / 3.  Raises NumericalError when a pair drifts by more
    than 0.5, or when a value <= lam_max + 0.5 on either grid has no
    partner on the other, or when a grid's rounding bound is too large
    (_grid_eigenvalues).  Raises ValueError for a non-finite theta, a
    lam_max that is not finite and >= 0 or a grid size N that is not an
    integer >= 100.
    """
    joins = half_angles(theta)  # before the plan: a refused theta caches none
    lam_max = check_lam_max(lam_max)
    _check_grid_size(N)
    plan = _plan(profile, N)
    keys = scalar_parts(channel)
    solved = {key: _extrapolated(*key, joins, plan, lam_max) for key in dict.fromkeys(keys)}
    return sorted(lam for key in keys for lam in solved[key])


def _extrapolated(mu2, w, joins: tuple, plan: tuple, lam_max: float) -> list[float]:
    """Richardson-extrapolated eigenvalues <= lam_max of one scalar key from
    its solves on the two half-period grids of the plan, at the
    quasimomentum whose half_angles are joins (oracle_eigenvalues)."""
    window = (-1.0, lam_max + 1.0)
    e1, e2 = (_grid_eigenvalues(mu2, w, joins, geometry, window) for geometry in plan)
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
