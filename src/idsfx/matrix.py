"""Dense row-major feature matrix with column names."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError


@dataclass
class FeatureMatrix:
    values: np.ndarray            # (rows, features) float64, C-order
    names: list[str]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise SchemaError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.names):
            raise SchemaError(
                f"{self.values.shape[1]} columns but {len(self.names)} names")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def values_of(x) -> np.ndarray:
    """The float64 values of a FeatureMatrix or of any array-like."""
    return x.values if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)
