"""Quantum computed moments pipeline on a classical noisy-simulation backend.

``qcmoments.cli`` runs the pipeline from a config; ``analysis.Analyzer``
turns a counts archive into the energies, diagnostics and bootstrap of
``report.json``. Exported here are the moment and Lanczos estimators that
the analysis is built on.
"""

from .config import PipelineConfig, derive_seed, load_config
from .qcm import (
    CumulantSet, MomentSet, bootstrap, cumulants, hamiltonian_powers,
    lanczos_energy, moments_from_rdm,
)

__version__ = "0.1.0"

__all__ = [
    "CumulantSet", "MomentSet", "PipelineConfig", "bootstrap", "cumulants",
    "derive_seed", "hamiltonian_powers", "lanczos_energy", "load_config",
    "moments_from_rdm", "__version__",
]
