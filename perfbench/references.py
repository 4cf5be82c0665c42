"""Oracle references that the benchmark checks its outputs against.

A reference set holds, per channel, the oracle eigenvalues at theta = 0 and
theta = pi with Richardson extrapolation on an N grid.  By Hill's pairing
these are exactly the band edges of the channel, so a census is checked by
comparing its sorted edges with the sorted union of the two lists.

Seed 0 loads the sets stored in refs/, which regen_refs.py writes with the
oracle exactly as shipped.  Any other seed computes them before the timed
body, in a child process so that the benchmark's own peak memory stays
clean:

    python3 perfbench/references.py --workload circle-high --seed 7

For speed that child rebinds the oracle's dense eigensolver to a banded one.
The oracle's pencil is tridiagonal up to the periodic wrap corner; a reverse
Cuthill-McKee ordering makes it banded of width 2 per component, so LAPACK's
banded solver returns the same eigenvalues in O(N) memory traffic instead of
an O(N^3) dense reduction.  test_perfbench.py checks the two solvers agree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_DIR = HERE / "refs"

# Values are compared relative to max(1, lambda).  The oracle's Richardson
# error is about 1e-8 (N=500, lambda <= 8) and 4e-8 (N=2000, lambda ~ 400)
# here, while a lost, spurious or misplaced root moves an edge by at least a
# fraction of a band width (>= 1e-3 on these workloads).  1e-6 sits between
# the two with a margin of 25x on the oracle side.
TOL = 1e-6

THETAS = (("theta0", 0.0), ("thetapi", math.pi))


def banded_eigenvalues(K, W, lam_window=None, dense=None):
    """Eigenvalues of the pencil (K, W) in lam_window via a banded solve.

    Same contract as oracle.dense_hermitian_eigenvalues for real symmetric
    K and a window; anything else is handed to `dense`.
    """
    import numpy as np
    from scipy.linalg import eig_banded
    from scipy.sparse import csr_matrix, diags
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    from conebands import oracle

    if np.iscomplexobj(K) or lam_window is None:
        return (dense or oracle.dense_hermitian_eigenvalues)(K, W, lam_window=lam_window)
    W = np.asarray(W, dtype=float)
    if K.shape[0] != K.shape[1] or K.shape[0] != W.shape[0]:
        raise ValueError("dimension mismatch between K and W")
    if not np.all(W > 0):
        raise ValueError("mass matrix must be positive")
    d = diags(1.0 / np.sqrt(W))
    H = (d @ csr_matrix(K) @ d).tocsr()
    perm = reverse_cuthill_mckee(H, symmetric_mode=True)
    Hp = H[perm][:, perm].tocoo()
    b = int(np.max(np.abs(Hp.row - Hp.col))) if Hp.nnz else 0
    n = H.shape[0]
    ab = np.zeros((b + 1, n))
    Hp = Hp.tocsr()
    for k in range(b + 1):
        ab[k, : n - k] = Hp.diagonal(-k)
    try:
        evs = eig_banded(ab, lower=True, eigvals_only=True, select="v",
                         select_range=lam_window)
    except np.linalg.LinAlgError as exc:
        raise oracle.NumericalError(f"banded eigensolver failed: {exc}") from exc
    return np.sort(evs)


def compute_refs(wl, seed: int, banded: bool = True) -> dict:
    """Reference set of a workload and seed on the workload's ref_n grid."""
    from conebands import oracle

    from workloads import build_inputs, channel_key, profile_params

    _, channels, profile = build_inputs(wl, seed)
    swap = banded and hasattr(oracle, "dense_hermitian_eigenvalues")
    if swap:
        dense = oracle.dense_hermitian_eigenvalues
        oracle.dense_hermitian_eigenvalues = (
            lambda K, W, lam_window=None: banded_eigenvalues(K, W, lam_window, dense))
    try:
        rows = []
        for ch in channels:
            row = {"key": channel_key(ch)}
            for label, theta in THETAS:
                row[label] = oracle.oracle_eigenvalues(ch, theta, profile, wl.lam_max,
                                                       N=wl.ref_n)
            rows.append(row)
    finally:
        if swap:
            oracle.dense_hermitian_eigenvalues = dense
    return {
        "workload": wl.name,
        "seed": seed,
        "profile": list(profile_params(seed)),
        "lam_max": wl.lam_max,
        "N": wl.ref_n,
        "richardson": True,
        "solver": "banded" if swap else "dense",
        "channels": rows,
    }


def stored_path(name: str) -> Path:
    return REFS_DIR / f"{name}.json"


def load_stored(name: str) -> dict:
    with open(stored_path(name)) as fh:
        return json.load(fh)


def match(got, ref, lam_max: float, tol: float = TOL):
    """(ok, max relative error, reason) of two eigenvalue lists.

    Counts must agree exactly.  A value within tol of lam_max may fall on
    either side of the window in either list, so such values are left out
    of both before counting.
    """
    edge = tol * max(1.0, lam_max)
    g = sorted(x for x in got if abs(x - lam_max) > edge)
    r = sorted(x for x in ref if abs(x - lam_max) > edge)
    if len(g) != len(r):
        return False, math.nan, f"count {len(g)} != reference {len(r)}"
    err = max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(g, r)), default=0.0)
    if not err <= tol:
        return False, err, f"max relative error {err:.3g} > {tol:g}"
    return True, err, ""


def census_edges(be) -> list[float]:
    """Finite band edges of a BandEdges, without the lam_max truncation end."""
    edges = [x for band in be.bands for x in band]
    if be.truncated:
        edges.pop()
    return edges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    from workloads import get_workload

    refs = compute_refs(get_workload(args.workload, args.smoke), args.seed)
    json.dump(refs, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    sys.exit(main())
