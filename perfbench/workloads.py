"""Workload inputs of the band-census benchmark.

A workload fixes a flat-torus cross-section, a form degree, a window
lam_max and a cone-handle profile.  Seed 0 is the stored input (the
profile make_profile(0.2, 1.0, 0.8)); any other seed scales eps, L and
l_out each by an independent factor drawn uniformly from
[1 - PERTURB, 1 + PERTURB] with Python's own Random(seed), so a claim can be
rechecked on inputs that were not used while the change was written.

Only the public API of conebands is called here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BASE_PROFILE = (0.2, 1.0, 0.8)  # eps, L, l_out
PERTURB = 0.05  # relative half-width of the seed perturbation


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "census" (band_edges per channel) or "oracle" (oracle per channel and theta)
    sides: tuple[float, ...]
    p: int
    lam_max: float
    cutoff: float
    ref_n: int  # oracle grid of the references the outputs are checked against
    oracle_n: int = 0  # oracle grid of the timed body (oracle workloads only)


TWO_PI = 2.0 * math.pi

WORKLOADS = {
    # full 2-torus census: scalar channels, H5 pairs and the 65-theta sweep
    "torus-p1": Workload("torus-p1", "census", (TWO_PI, TWO_PI), 1, 8.0, 8.25, ref_n=500),
    # circle up to lambda = 400: long Frobenius series, no pairs; N=500
    # Richardson breaks its pairing near 400, so the references use N=2000
    "circle-high": Workload("circle-high", "census", (TWO_PI / 3.0,), 0, 400.0, 400.0,
                            ref_n=2000),
    # the oracle alone on the torus-p1 channels, checked against a finer grid
    "oracle-verify": Workload("oracle-verify", "oracle", (TWO_PI, TWO_PI), 1, 8.0, 8.25,
                              ref_n=1000, oracle_n=500),
}

# small windows for the benchmark's own smoke tests; every layer still runs
SMOKE = {
    "torus-p1": Workload("torus-p1", "census", (TWO_PI, TWO_PI), 1, 1.5, 1.75, ref_n=500),
    "circle-high": Workload("circle-high", "census", (TWO_PI / 3.0,), 0, 10.0, 10.0,
                            ref_n=1000),
    "oracle-verify": Workload("oracle-verify", "oracle", (TWO_PI, TWO_PI), 1, 1.5, 1.75,
                              ref_n=1000, oracle_n=500),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    table = SMOKE if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def profile_params(seed: int) -> tuple[float, float, float]:
    """(eps, L, l_out) for a seed: the stored values at 0, perturbed otherwise."""
    if seed == 0:
        return BASE_PROFILE
    rng = random.Random(seed)
    return tuple(x * (1.0 + rng.uniform(-PERTURB, PERTURB)) for x in BASE_PROFILE)


def build_inputs(wl: Workload, seed: int):
    """(spectrum, channels, profile) of a workload, from the public API."""
    from conebands.channels import enumerate_channels
    from conebands.radial import make_profile
    from conebands.transversal import build_flat_torus_spectrum

    ts = build_flat_torus_spectrum(list(wl.sides), wl.cutoff)
    channels = enumerate_channels(ts, wl.p, wl.lam_max)
    profile = make_profile(*profile_params(seed))
    return ts, channels, profile


def channel_key(ch) -> str:
    """Stable name of a channel, e.g. 'H5:mu2=2'."""
    return f"{ch.kind}:mu2={float(ch.mu2):.12g}"
