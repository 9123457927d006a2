"""Average age of information for multi-source, multi-server update networks.

Closed forms where they exist, exact chain solves where they don't, and a
discrete-event simulator for everything else (and for checking the first two).
"""
from .analytic import (
    aoi_hetero_n2,
    aoi_hetero_n3,
    aoi_lcfs_homogeneous,
    aoi_multi_source_n2,
    aoi_multi_source_n3,
)
from .builders import (
    build_heterogeneous_single_source,
    build_multi_source_homogeneous,
    build_single_source_homogeneous,
)
from .model import (
    ConfigError,
    HomogeneityClass,
    NetworkConfig,
    QueueDiscipline,
    classify,
    dump_config,
    load_config,
)
from .optimize import (
    SplitResult,
    grid_minimize,
    optimal_hetero_split_n2,
    optimal_weighted_split,
)
from .shs import (
    NegativeSolutionError,
    NonErgodicError,
    ShsModel,
    ShsSolution,
    ShsTransition,
    solve_age,
    stationary_distribution,
)
from .sim import SimParams, SimResult, replicate, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "HomogeneityClass",
    "NegativeSolutionError",
    "NetworkConfig",
    "NonErgodicError",
    "QueueDiscipline",
    "ShsModel",
    "ShsSolution",
    "ShsTransition",
    "SimParams",
    "SimResult",
    "SplitResult",
    "aoi_hetero_n2",
    "aoi_hetero_n3",
    "aoi_lcfs_homogeneous",
    "aoi_multi_source_n2",
    "aoi_multi_source_n3",
    "build_heterogeneous_single_source",
    "build_multi_source_homogeneous",
    "build_single_source_homogeneous",
    "classify",
    "dump_config",
    "grid_minimize",
    "load_config",
    "optimal_hetero_split_n2",
    "optimal_weighted_split",
    "replicate",
    "simulate",
    "solve_age",
    "stationary_distribution",
]
