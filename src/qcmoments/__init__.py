"""Quantum computed moments pipeline on a classical noisy-simulation backend.

``qcmoments.cli`` runs the pipeline from a config; ``analysis.Analyzer``
turns a counts archive into the energies, diagnostics and bootstrap of
``report.json``, reading the moments off its own map of the RDM elements.
Exported here are the config loader and the cumulant, Lanczos and
bootstrap steps that turn those moments into the report's energies and
error bars.
"""

from .config import PipelineConfig, derive_seed, load_config
from .qcm import CumulantSet, MomentSet, bootstrap, cumulants, lanczos_energy

__version__ = "0.1.0"

__all__ = [
    "CumulantSet", "MomentSet", "PipelineConfig", "bootstrap", "cumulants",
    "derive_seed", "lanczos_energy", "load_config", "__version__",
]
