"""Diagnostics toolkit for respondent-driven sampling studies."""

from .convergence import convergence_flag
from .dataset import (
    Respondent,
    StudyDataset,
    TraitSpec,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .estimators import IncludedSample, included_sample, ss_estimate
from .forest import RecruitmentForest
from .report import PipelineConfig, ReportBundle, diagnose, run_pipeline, write_report

__version__ = "0.1.0"

# the simulator's names load ``rdsdiag.sim`` on first use (see __getattr__),
# so that a report does not import it
_SIM_NAMES = ("NetworkConfig", "SimConfig", "generate_network", "simulate_rds")

__all__ = [
    "IncludedSample",
    "NetworkConfig",
    "PipelineConfig",
    "RecruitmentForest",
    "ReportBundle",
    "Respondent",
    "SimConfig",
    "StudyDataset",
    "TraitSpec",
    "convergence_flag",
    "diagnose",
    "generate_network",
    "included_sample",
    "load_dataset",
    "run_pipeline",
    "save_dataset",
    "simulate_rds",
    "ss_estimate",
    "validate_dataset",
    "write_report",
]


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
