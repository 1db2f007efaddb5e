"""Bound states of a two-particle lattice system with a rank-5 interaction.

The package computes the discrete spectrum of the fiber operators of a
two-particle Schroedinger operator on the square lattice: one particle of
unit mass, one of mass 1/gamma, interacting through a zero-range plus
nearest-neighbor potential with couplings (lam, mu).  It locates the bound
states on both sides of the continuous band, classifies the coupling plane
into regions of constant count, and cross-checks everything against
discrete-grid oracles.
"""

from .core import ORIGIN, Band, ModelParams, TorusPoint, band_edges
from .integrals import Side, watson_integrals, watson_integrals_at
from .determinants import secular_det
from .spectrum import SpectrumReport, spectrum_general, spectrum_k0
from .oracle import dense_validate, minimax_values, oracle_counts
from .atlas import (binding_thresholds, classify, predicted_counts, sweep,
                    threshold_scan)

__version__ = "0.1.0"

__all__ = [
    "ORIGIN", "Band", "ModelParams", "TorusPoint", "band_edges",
    "Side", "watson_integrals",
    "watson_integrals_at", "secular_det", "SpectrumReport",
    "spectrum_general", "spectrum_k0", "dense_validate", "minimax_values",
    "oracle_counts", "binding_thresholds", "classify", "predicted_counts",
    "sweep", "threshold_scan", "__version__",
]
