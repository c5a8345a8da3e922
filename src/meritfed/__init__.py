"""Federated learning simulation with merit-based aggregation weights.

The package runs server-side aggregation experiments where per-client
gradient weights are chosen each round by minimizing a validation loss
over the probability simplex, alongside fixed-weight and heuristic
baselines and standard Byzantine attacks.
"""

__version__ = "0.1.0"

from .aggregators import FedAdp, FedAvg, MeritFed, SgdFull, SgdIdeal, Tawt
from .clients import AttackSpec
from .engine import ExperimentSpec, run_experiment
from .simplex_opt import MdConfig, entropic_md_step, solve_weights
from .tasks import MeanTask, SoftmaxTask

__all__ = [
    "__version__",
    "AttackSpec",
    "ExperimentSpec",
    "FedAdp",
    "FedAvg",
    "MdConfig",
    "MeanTask",
    "MeritFed",
    "SgdFull",
    "SgdIdeal",
    "SoftmaxTask",
    "Tawt",
    "entropic_md_step",
    "run_experiment",
    "solve_weights",
]
