"""Greedy rational surrogate models for frequency responses."""

from .barycentric import BarycentricSurrogate
from .errors import (
    GreedyratError,
    GridExhaustedError,
    ResonanceError,
    SupportCollisionError,
    SurrogatePoleError,
)
from .fitters import fit
from .greedy import (
    GreedyConfig,
    GreedyRun,
    TerminationRule,
    adjusted_relative_error,
    batch_test_points,
    build_test_grid,
    estimator_curve,
    next_point,
    random_test_points,
    run_greedy,
)
from .system_model import DescriptorSystem, FrequencySample, load_matrix_market
from .testsystems import make_synthetic
from .verify import check_prop1, check_prop2, residual_norm, state_surrogate

__version__ = "0.1.0"

__all__ = [
    "BarycentricSurrogate",
    "DescriptorSystem",
    "FrequencySample",
    "GreedyConfig",
    "GreedyRun",
    "GreedyratError",
    "GridExhaustedError",
    "ResonanceError",
    "SupportCollisionError",
    "SurrogatePoleError",
    "TerminationRule",
    "adjusted_relative_error",
    "batch_test_points",
    "build_test_grid",
    "check_prop1",
    "check_prop2",
    "estimator_curve",
    "fit",
    "load_matrix_market",
    "make_synthetic",
    "next_point",
    "random_test_points",
    "residual_norm",
    "run_greedy",
    "state_surrogate",
]
