"""Floquet eigenvalues of the free circle, for the tests that compare with it.

On a flat circle of length T with the constant mass mass2 the Floquet
eigenvalues at quasimomentum theta are mass2 + ((theta + 2 pi k) / T)^2,
k an integer.
"""

import math


def free_circle_eigs(T, theta, lam_max, mass2=0.0):
    """The eigenvalues <= lam_max, sorted, one per k.  The loop runs over
    |k| = 0, 1, ... and stops at the first |k| > 0 that adds none, which
    is past the last one for |theta| <= 3 pi.  It does not stop at k = 0:
    a theta near 2 pi has its lowest value at k = -1."""
    out = []
    k = 0
    while True:
        grew = False
        for sgn in ((1,) if k == 0 else (1, -1)):
            lam = mass2 + ((theta + 2 * math.pi * sgn * k) / T) ** 2
            if lam <= lam_max:
                out.append(lam)
                grew = True
        if not grew and k > 0:
            break
        k += 1
    return sorted(out)
