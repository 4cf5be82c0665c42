"""The whole period of a profile from its half, for the tests that read it.

Profile.pieces and the oracle's grids list the half period alone, from the
cut at 0 to the handle centre T/2, and the profile is mirror symmetric about
that centre: the other half is the image under t -> T - t.
"""

import numpy as np


def mirror_nodes(profile, half):
    """Nodes t = 0 .. T of the period from its half-period nodes 0 .. T/2:
    the half, then T minus it reversed."""
    return np.concatenate([half, profile.T - half[-2::-1]])


def period_pieces(profile):
    """(tau0, tau1, slope) of each piece of the period, 0 to T: the half of
    Profile.pieces, then its mirror image with the slopes negated.  The
    piece that reaches the centre is one piece with its image, unless it is
    the cone (L = 0), whose slope flips there."""
    half = profile.pieces()
    knots = mirror_nodes(profile, np.array([a for a, _, _ in half] + [0.5 * profile.T]))
    slopes = [slope for _, _, slope in half]
    slopes += [-slope for slope in reversed(slopes)]
    pieces = [(float(a), float(b), slope) for a, b, slope in zip(knots, knots[1:], slopes)]
    k = len(half)
    if abs(slopes[k - 1]) != 1.0:
        pieces[k - 1: k + 1] = [(pieces[k - 1][0], pieces[k][1], slopes[k - 1])]
    return pieces
