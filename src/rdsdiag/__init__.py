"""Diagnostics toolkit for respondent-driven sampling studies."""

from .convergence import ConvergenceConfig, convergence_flag
from .dataset import (
    Respondent,
    StudyDataset,
    TraitSpec,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .estimators import IncludedSample, included_sample, ss_estimate
from .forest import RecruitmentForest, build_forest
from .report import PipelineConfig, ReportBundle, run_pipeline
from .sim import NetworkConfig, SimConfig, generate_network, simulate_rds

__version__ = "0.1.0"

__all__ = [
    "ConvergenceConfig",
    "IncludedSample",
    "NetworkConfig",
    "PipelineConfig",
    "RecruitmentForest",
    "ReportBundle",
    "Respondent",
    "SimConfig",
    "StudyDataset",
    "TraitSpec",
    "build_forest",
    "convergence_flag",
    "generate_network",
    "included_sample",
    "load_dataset",
    "run_pipeline",
    "save_dataset",
    "simulate_rds",
    "ss_estimate",
    "validate_dataset",
]
