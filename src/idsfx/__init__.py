"""Hierarchical feature extraction (TF-IDF -> NMF -> chi-square) and
classification toolkit for intrusion-detection datasets."""

from .data import ColumnKind, ColumnSpec, Dataset, Profile, load_csv, split_xy, train_test_split
from .errors import (ConfigError, DatasetError, DomainError, EmptyDatasetError,
                     IdsfxError, IntegrityError, PipelineError, SchemaError,
                     VersionError)
from .matrix import FeatureMatrix
from .nmf import NmfModel, nmf_fit, nmf_transform
from .pipeline import (FittedPipeline, PipelineConfig, pipeline_fit,
                       pipeline_load, pipeline_save, pipeline_transform)
from .select import Chi2Report, apply_selection, chi2_scores, select_k_best

__version__ = "0.1.0"

__all__ = [
    "ColumnKind", "ColumnSpec", "Dataset", "Profile",
    "load_csv", "split_xy", "train_test_split",
    "FeatureMatrix",
    "NmfModel", "nmf_fit", "nmf_transform",
    "FittedPipeline", "PipelineConfig", "pipeline_fit", "pipeline_load",
    "pipeline_save", "pipeline_transform",
    "Chi2Report", "apply_selection", "chi2_scores", "select_k_best",
    "IdsfxError", "DatasetError", "EmptyDatasetError", "SchemaError",
    "ConfigError", "DomainError",
    "PipelineError", "IntegrityError", "VersionError",
]
