"""Quantum computed moments pipeline on a classical noisy-simulation backend."""

from .config import PipelineConfig, derive_seed, load_config
from .qcm import (
    CumulantSet, EnergyEstimate, MomentSet, bootstrap, cumulants,
    hamiltonian_powers, lanczos_energy, moments_from_rdm,
)

__version__ = "0.1.0"

__all__ = [
    "CumulantSet", "EnergyEstimate", "MomentSet", "PipelineConfig",
    "bootstrap", "cumulants", "derive_seed", "hamiltonian_powers",
    "lanczos_energy", "load_config", "moments_from_rdm", "__version__",
]
