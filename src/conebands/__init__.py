"""Floquet band structure of the Hodge-de Rham operator on Z-periodic
warped products whose profile alternates thin handles and unit cones.

Submodules:
  transversal  cross-section spectral data; built for flat tori
  channels     mode decomposition into radial channels
  radial       profile, transfer matrices, Floquet eigenvalues, band edges
  oracle       independent finite-difference eigenvalue check
"""

__version__ = "0.1.0"

from .transversal import (  # noqa: F401
    TransversalSpectrum,
    build_flat_torus_spectrum,
    load_spectrum,
    save_spectrum,
    validate,
)
