"""Sparse-array DOA estimation under sensor failures: coarray SS-MUSIC on
minimum-redundancy arrays, two neural covariance-repair paths, and the
coarray Cramer-Rao bound.

The package namespace holds the pipeline entry points only; library
functions are imported from their submodules (``sparsedoa.spectral`` ...).
"""

__version__ = "0.1.0"

from .neural import DATA_DRIVEN, HYBRID, build_model, generate_dataset, train
from .harness import ExperimentConfig, preset, run_sweep, run_trial
