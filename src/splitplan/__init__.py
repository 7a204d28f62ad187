"""Transfer-minimal partitioning of layered models over device chains.

The package splits a feed-forward model's layer chain into contiguous
blocks, one per device along an ordered chain, keeping every block within
its device's cpu and memory limits while minimizing the total time spent
moving activations across the links.  ``heuristic`` holds the greedy
planner, ``exact`` the dynamic-programming optimum, ``scenarios`` the
randomized benchmark harness, ``profiles`` the file formats, and ``cli``
the command-line surface.  ``cli`` is not imported here, so that
``python -m splitplan.cli`` runs it as a fresh ``__main__`` module; import
it as ``splitplan.cli``.
"""

from __future__ import annotations

from . import cost, exact, heuristic, model, profiles, scenarios, svgplot
from .cost import (
    CostBreakdown,
    FeasibilityResult,
    cut_traffic_table,
    is_feasible,
    objective,
)
from .model import (
    Device,
    DeviceChain,
    FfnnModel,
    LayerProfile,
    SplitSolution,
    ValidationReport,
    max_split_count,
    partition,
    validate_chain,
    validate_model,
)
from .profiles import (
    NormalizationFactors,
    ProfileFormatError,
    RawEdge,
    RawLayerProfile,
    load_chain,
    load_model,
    load_profile,
    normalize,
    save_chain,
    save_model,
)
from .scenarios import (
    ExperimentRecord,
    FootprintStats,
    ScenarioConfig,
    footprint_stats,
    generate_device_chain,
    generate_random_model,
    iteration_rng,
    run_cost_difference_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "Device",
    "DeviceChain",
    "ExperimentRecord",
    "FeasibilityResult",
    "FfnnModel",
    "FootprintStats",
    "LayerProfile",
    "NormalizationFactors",
    "ProfileFormatError",
    "RawEdge",
    "RawLayerProfile",
    "ScenarioConfig",
    "SplitSolution",
    "ValidationReport",
    "cost",
    "cut_traffic_table",
    "exact",
    "footprint_stats",
    "generate_device_chain",
    "generate_random_model",
    "heuristic",
    "is_feasible",
    "iteration_rng",
    "load_chain",
    "load_model",
    "load_profile",
    "max_split_count",
    "model",
    "normalize",
    "objective",
    "partition",
    "profiles",
    "run_cost_difference_sweep",
    "save_chain",
    "save_model",
    "scenarios",
    "svgplot",
    "validate_chain",
    "validate_model",
]
